"""Forward simulation of wealth and density, the game functional J, and
Monte-Carlo diagnostics for the martingale and entropy identities.

All stochastic integrals are left-point sums, wealth and the optimality
martingale in the increments dW, the density in the enlarged-filtration
increments dWH, and the dt terms use left-point integrands, matching
left-continuous controls.  Cross-path reductions sort the values and then
sum them pairwise, so each result depends only on the multiset of values,
not on the path order.

Every estimate is a per-path quantity followed by a cross-path mean, and
`estimate_J`, `entropy_identity_check` and `martingale_diagnostic` take
either a simulated PathBatch or the per-path values themselves.
`stream_game` and `stream_martingale` run the same per-path kernels over the
ensemble's RNG blocks one at a time and pass the collected per-path vectors
to those functions once, so they give the same bytes while holding only one
block of paths per worker.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import MarketParams, ScenarioConfig, validate
from .paths import PathBatch, build_grid, stream_paths
from .strategies import StrategyProfile

__all__ = [
    "WealthPath",
    "DensityPath",
    "JEstimate",
    "EntropyCheck",
    "MartingaleStat",
    "simulate_wealth",
    "simulate_density",
    "estimate_J",
    "entropy_identity_check",
    "martingale_diagnostic",
    "stream_game",
    "stream_martingale",
    "mean_se",
    "ordered_mean",
]


def ordered_mean(x: np.ndarray) -> float:
    """Order-insensitive sample mean of a 1-d array."""
    return float(np.sort(x).sum()) / len(x)


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Order-insensitive sample mean and standard error of a 1-d array."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    m = float(x.sum()) / n
    if n < 2:
        return m, 0.0
    var = float(np.square(x - m).sum()) / (n - 1)
    return m, math.sqrt(var / n)


@dataclass(frozen=True)
class WealthPath:
    """log-wealth at every knot of [0, T]; column 0 is ln X0."""

    logX: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.logX[:, -1]


@dataclass(frozen=True)
class DensityPath:
    """log of the exponential density of the distorted measure on [0, T]."""

    logE: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.logE[:, -1]


@dataclass(frozen=True)
class JEstimate:
    mean: float
    std_error: float
    n_paths: int


@dataclass(frozen=True)
class EntropyCheck:
    """Both sides of E[int eps g(theta) ds] = E[eps_T ln eps_T] plus the
    paired gap statistic."""

    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    gap: float
    gap_se: float

    @property
    def z(self) -> float:
        """gap / gap_se; nan when the SE is 0, which is no evidence either way."""
        return self.gap / self.gap_se if self.gap_se > 0 else math.nan


@dataclass(frozen=True)
class MartingaleStat:
    t: float
    h: float
    estimate: float
    std_error: float

    @property
    def z(self) -> float:
        """estimate / std_error; nan when the SE is 0."""
        return self.estimate / self.std_error if self.std_error > 0 else math.nan


def _check_grid(batch: PathBatch, profile: StrategyProfile) -> None:
    if profile.grid is not batch.grid and not np.array_equal(profile.grid.knots, batch.grid.knots):
        raise ValueError("profile and batch use different grids")


def simulate_wealth(batch: PathBatch, profile: StrategyProfile, market: MarketParams) -> WealthPath:
    """Exact log-Euler step of the wealth dynamics under the original measure:

        dlnX = [r + (mu0 + varrho*pi - r)*pi - sigma^2 pi^2 / 2] dt + sigma * pi dW,

    the same sum as sigma*pi*phi dt + sigma*pi dWH in the enlarged filtration.
    """
    _check_grid(batch, profile)
    grid = batch.grid
    m = grid.index_T
    t_left = grid.knots[:m]
    dt = grid.dt[:m]
    r, mu0 = market.r(t_left), market.mu0(t_left)
    sig, rho = market.sigma(t_left), market.varrho(t_left)
    pi = profile.pi
    drift = r + (mu0 + rho * pi - r) * pi - 0.5 * (sig * pi) ** 2
    incr = drift * dt + sig * pi * batch.dW[:, :m]
    logX = np.empty((batch.n_paths, m + 1))
    logX[:, 0] = math.log(market.X0)
    np.cumsum(incr, axis=1, out=logX[:, 1:])
    logX[:, 1:] += math.log(market.X0)
    return WealthPath(logX=logX)


def simulate_density(batch: PathBatch, profile: StrategyProfile) -> DensityPath:
    """Exponential density per path: dln(eps) = theta dWH - theta^2/2 dt."""
    _check_grid(batch, profile)
    m = batch.grid.index_T
    dt = batch.grid.dt[:m]
    incr = profile.theta * batch.dWH - 0.5 * profile.theta**2 * dt
    logE = np.zeros((batch.n_paths, m + 1))
    np.cumsum(incr, axis=1, out=logE[:, 1:])
    return DensityPath(logE=logE)


def _penalty_integral(batch: PathBatch, profile: StrategyProfile, density: DensityPath):
    """Per-path int_0^T eps_s theta_s^2/2 ds with left-point eps and theta."""
    m = batch.grid.index_T
    dt = batch.grid.dt[:m]
    eps_left = np.exp(density.logE[:, :-1])
    return np.sum(eps_left * 0.5 * profile.theta**2 * dt, axis=1)


def _j_terms(wealth: WealthPath, density: DensityPath, penalty: np.ndarray) -> np.ndarray:
    """Per-path eps_T ln X_T + int eps_s theta_s^2/2 ds."""
    return np.exp(density.terminal) * wealth.terminal + penalty


def _relative_entropy(density: DensityPath) -> np.ndarray:
    """Per-path eps_T ln eps_T."""
    logE_T = density.terminal
    return np.exp(logE_T) * logE_T


@functools.singledispatch
def estimate_J(
    batch: PathBatch,
    profile: StrategyProfile,
    wealth: WealthPath,
    density: DensityPath,
    market: MarketParams,
) -> JEstimate:
    """Game functional J = E[eps_T ln X_T + int eps_s theta_s^2/2 ds]."""
    return estimate_J(_j_terms(wealth, density, _penalty_integral(batch, profile, density)))


@estimate_J.register
def _estimate_J_of_terms(j_terms: np.ndarray) -> JEstimate:
    """J from its per-path terms eps_T ln X_T + int eps_s theta_s^2/2 ds."""
    mean, se = mean_se(j_terms)
    return JEstimate(mean=mean, std_error=se, n_paths=len(j_terms))


@functools.singledispatch
def entropy_identity_check(
    batch: PathBatch, profile: StrategyProfile, density: DensityPath
) -> EntropyCheck:
    """Monte-Carlo check that the accumulated penalty equals the relative
    entropy E[eps_T ln eps_T] of the distorted measure."""
    return entropy_identity_check(_penalty_integral(batch, profile, density), _relative_entropy(density))


@entropy_identity_check.register
def _entropy_check_of_values(penalty: np.ndarray, entropy: np.ndarray) -> EntropyCheck:
    """The check from the per-path penalty and eps_T ln eps_T."""
    return EntropyCheck(*mean_se(penalty), *mean_se(entropy), *mean_se(penalty - entropy))


def stream_game(
    config: ScenarioConfig, profile_of, market: MarketParams, threads: int = 1
) -> tuple[JEstimate, EntropyCheck]:
    """estimate_J and entropy_identity_check of sample_paths(config) under the
    profile `profile_of(batch)`, one RNG block at a time."""
    validate(config)
    n = config.n_paths
    j_terms, penalty, entropy = np.empty(n), np.empty(n), np.empty(n)

    def block(rows: slice, batch: PathBatch) -> None:
        profile = profile_of(batch)
        density = simulate_density(batch, profile)
        penalty[rows] = _penalty_integral(batch, profile, density)
        entropy[rows] = _relative_entropy(density)
        j_terms[rows] = _j_terms(simulate_wealth(batch, profile, market), density, penalty[rows])

    stream_paths(config, build_grid(config), block, threads)
    return estimate_J(j_terms), entropy_identity_check(penalty, entropy)


def _default_checkpoints(grid) -> list[tuple[float, float]]:
    """Ten equal intervals of [0, T], their edges snapped to the nearest knots."""
    knots = grid.knots[: grid.index_T + 1]
    edges = np.linspace(0.0, grid.T, 11)
    snapped = np.unique(np.abs(knots[:, None] - edges).argmin(axis=0))
    return [(float(knots[a]), float(knots[b] - knots[a])) for a, b in zip(snapped, snapped[1:])]


def _weighted_increments(batch, profile, market, checkpoints, out) -> None:
    """Per-path eps_T (m_{t+h} - m_t) for each checkpoint (t, h), written to
    the rows of `out`."""
    _check_grid(batch, profile)
    grid = batch.grid
    spans = [(grid.index_of(t), grid.index_of(t + h)) for t, h in checkpoints]
    m_idx = grid.index_T
    t_left = grid.knots[:m_idx]
    dt = grid.dt[:m_idx]
    r, mu0 = market.r(t_left), market.mu0(t_left)
    sig, rho = market.sigma(t_left), market.varrho(t_left)
    pi = profile.pi
    dm = (mu0 + 2.0 * rho * pi - r - sig**2 * pi) * dt + sig * batch.dW[:, :m_idx]
    eps_T = np.exp(simulate_density(batch, profile).terminal)
    for k, (i, j) in enumerate(spans):
        out[k] = eps_T * np.sum(dm[:, i:j], axis=1)


@functools.singledispatch
def martingale_diagnostic(
    batch: PathBatch,
    profile: StrategyProfile,
    market: MarketParams,
    checkpoints: list[tuple[float, float]] | None = None,
) -> list[MartingaleStat]:
    """Density-weighted increment test of the optimality martingale

        m_t = int_0^t (mu0 + 2 varrho pi - r - sigma^2 pi) ds + int_0^t sigma dW.

    At the optimum m is a martingale under the distorted measure, so
    E[eps_T (m_{t+h} - m_t)] = 0 for every interval; each statistic is the
    weighted-increment mean over paths with its standard error.  The default
    checkpoints are ten equal intervals snapped to grid knots.
    """
    if checkpoints is None:
        checkpoints = _default_checkpoints(batch.grid)
    weighted = np.empty((len(checkpoints), batch.n_paths))
    _weighted_increments(batch, profile, market, checkpoints, weighted)
    return martingale_diagnostic(weighted, checkpoints)


@martingale_diagnostic.register
def _martingale_stats_of_increments(weighted: np.ndarray, checkpoints: list[tuple[float, float]]) -> list[MartingaleStat]:
    """The statistics from row k of `weighted`, the per-path eps_T (m_{t+h} - m_t)
    of checkpoint k."""
    return [MartingaleStat(t, h, *mean_se(w)) for (t, h), w in zip(checkpoints, weighted)]


def stream_martingale(
    config: ScenarioConfig, profile_of, market: MarketParams, threads: int = 1
) -> list[MartingaleStat]:
    """martingale_diagnostic of sample_paths(config) at the default checkpoints
    under the profile `profile_of(batch)`, one RNG block at a time."""
    validate(config)
    grid = build_grid(config)
    checkpoints = _default_checkpoints(grid)
    weighted = np.empty((len(checkpoints), config.n_paths))

    def block(rows: slice, batch: PathBatch) -> None:
        _weighted_increments(batch, profile_of(batch), market, checkpoints, weighted[:, rows])

    stream_paths(config, grid, block, threads)
    return martingale_diagnostic(weighted, checkpoints)
