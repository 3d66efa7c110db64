"""Forward simulation of wealth and density, the game functional J, and
Monte-Carlo diagnostics for the martingale and entropy identities.

All stochastic integrals are left-point sums in the enlarged-filtration
increments dWH, and the dt cross-terms use left-point integrands, matching
left-continuous controls.  Cross-path reductions sort the values and then
sum them pairwise, so each result depends only on the multiset of values,
not on the path order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketParams
from .paths import PathBatch
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
    if profile.grid is not batch.grid and not np.array_equal(
        profile.grid.knots, batch.grid.knots
    ):
        raise ValueError("profile and batch use different grids")


def simulate_wealth(batch: PathBatch, profile: StrategyProfile, market: MarketParams) -> WealthPath:
    """Exact log-Euler step of the wealth dynamics under the enlarged filtration:

        dlnX = [r + (mu0 + varrho*pi - r)*pi + sigma*pi*phi - sigma^2 pi^2 / 2] dt
               + sigma * pi dWH
    """
    _check_grid(batch, profile)
    grid = batch.grid
    m = grid.index_T
    t_left = grid.knots[:m]
    dt = grid.dt[:m]
    r, mu0 = market.r(t_left), market.mu0(t_left)
    sig, rho = market.sigma(t_left), market.varrho(t_left)
    pi = profile.pi
    drift = r + (mu0 + rho * pi - r) * pi + sig * pi * batch.phi - 0.5 * (sig * pi) ** 2
    incr = drift * dt + sig * pi * batch.dWH
    n = max(incr.shape[0], batch.n_paths)
    logX = np.empty((n, m + 1))
    logX[:, 0] = math.log(market.X0)
    np.cumsum(np.broadcast_to(incr, (n, m)), axis=1, out=logX[:, 1:])
    logX[:, 1:] += math.log(market.X0)
    return WealthPath(logX=logX)


def simulate_density(batch: PathBatch, profile: StrategyProfile) -> DensityPath:
    """Exponential density per path: dln(eps) = theta dWH - theta^2/2 dt."""
    _check_grid(batch, profile)
    grid = batch.grid
    m = grid.index_T
    dt = grid.dt[:m]
    incr = profile.theta * batch.dWH - 0.5 * profile.theta**2 * dt
    n = max(incr.shape[0], batch.n_paths)
    logE = np.zeros((n, m + 1))
    np.cumsum(np.broadcast_to(incr, (n, m)), axis=1, out=logE[:, 1:])
    return DensityPath(logE=logE)


def _penalty_integral(batch: PathBatch, profile: StrategyProfile, density: DensityPath):
    """Per-path int_0^T eps_s theta_s^2/2 ds with left-point eps and theta."""
    m = batch.grid.index_T
    dt = batch.grid.dt[:m]
    eps_left = np.exp(density.logE[:, :-1])
    return np.sum(eps_left * 0.5 * profile.theta**2 * dt, axis=1)


def estimate_J(
    batch: PathBatch,
    profile: StrategyProfile,
    wealth: WealthPath,
    density: DensityPath,
    market: MarketParams,
) -> JEstimate:
    """Game functional J = E[eps_T ln X_T + int eps_s theta_s^2/2 ds]."""
    eps_T = np.exp(density.terminal)
    per_path = eps_T * wealth.terminal + _penalty_integral(batch, profile, density)
    mean, se = mean_se(per_path)
    return JEstimate(mean=mean, std_error=se, n_paths=len(per_path))


def entropy_identity_check(
    batch: PathBatch, profile: StrategyProfile, density: DensityPath
) -> EntropyCheck:
    """Monte-Carlo check that the accumulated penalty equals the relative
    entropy E[eps_T ln eps_T] of the distorted measure."""
    lhs = _penalty_integral(batch, profile, density)
    logE_T = density.terminal
    rhs = np.exp(logE_T) * logE_T
    lhs_mean, lhs_se = mean_se(lhs)
    rhs_mean, rhs_se = mean_se(rhs)
    gap, gap_se = mean_se(lhs - rhs)
    return EntropyCheck(lhs_mean, lhs_se, rhs_mean, rhs_se, gap, gap_se)


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
    weighted-increment mean over paths with its standard error.
    """
    _check_grid(batch, profile)
    grid = batch.grid
    m_idx = grid.index_T
    t_left = grid.knots[:m_idx]
    dt = grid.dt[:m_idx]
    if checkpoints is None:
        # ten equal intervals, their edges snapped to the nearest grid knots
        knots = grid.knots[: m_idx + 1]
        edges = np.linspace(0.0, grid.T, 11)
        snapped = np.unique(np.abs(knots[:, None] - edges).argmin(axis=0))
        checkpoints = [
            (float(knots[a]), float(knots[b] - knots[a])) for a, b in zip(snapped, snapped[1:])
        ]

    r, mu0 = market.r(t_left), market.mu0(t_left)
    sig, rho = market.sigma(t_left), market.varrho(t_left)
    pi = profile.pi
    dm = (mu0 + 2.0 * rho * pi - r - sig**2 * pi) * dt + sig * batch.dW[:, :m_idx]
    dm = np.broadcast_to(dm, (batch.n_paths, m_idx))
    density = simulate_density(batch, profile)
    eps_T = np.exp(density.terminal)

    stats = []
    for t, h in checkpoints:
        i, j = grid.index_of(t), grid.index_of(t + h)
        weighted = eps_T * np.sum(dm[:, i:j], axis=1)
        est, se = mean_se(weighted)
        stats.append(MartingaleStat(t=t, h=h, estimate=est, std_error=se))
    return stats
