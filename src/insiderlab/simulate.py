"""Forward simulation of wealth and density, the game functional J, and
Monte-Carlo diagnostics for the martingale and entropy identities.

All stochastic integrals are left-point sums, wealth and the optimality
martingale in the increments dW, the density in the enlarged-filtration
increments dWH, and the dt terms use left-point integrands, matching
left-continuous controls.  Cross-path reductions sort the values and then
sum them pairwise, so each result depends only on the multiset of values,
not on the path order.

Every estimate is a per-path quantity followed by a cross-path mean.  The
per-path kernels `game_terms` and `weighted_increments` take any rows of
paths; `stream_game` and `stream_martingale` run them over the L2-sized
tiles of the ensemble's RNG blocks one at a time, reduce each tile to its
per-path values before the next is drawn, and pass the collected per-path
vectors once to `estimate_J`, `entropy_identity_check` and
`martingale_diagnostic`, which see only per-path values.  A whole batch
from `sample_paths` through the same kernels gives the same bytes, while
the streams hold only one tile of paths per worker.  Each worker of a
stream also keeps one workspace, made on its first tile: the two profile
rows `build_profile` writes to (`profile_of(batch, out)`) and the flat work
row of the kernels, so no tile allocates a path-sized array.

The kernels build only what the estimators read: the terminal log-wealth
(`simulate_wealth`), the log-density at every knot (`simulate_density`,
whose left-point values the penalty reads) and one increment sum per
checkpoint.  Their step terms come from per-step coefficient rows (r dt,
(mu0 - r) dt, sigma and the varrho dt terms) evaluated once per grid, and
each kernel works in one path-sized buffer at a time, in its caller's
`work` row, a flat float array of at least n_paths * (index_T + 1) entries.

The streams run with numpy's float warnings off; a per-path log-density,
per-path value, mean or standard error that is not a finite float is
refused as a ValidationError (`estimate_finite`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import MarketParams, ScenarioConfig, quiet, require_finite, validate
from .paths import PathBatch, build_grid, stream_paths
from .strategies import StrategyProfile

__all__ = [
    "JEstimate",
    "EntropyCheck",
    "MartingaleStat",
    "simulate_wealth",
    "simulate_density",
    "game_terms",
    "weighted_increments",
    "estimate_J",
    "entropy_identity_check",
    "martingale_diagnostic",
    "stream_game",
    "stream_martingale",
    "mean_se",
    "ordered_mean",
]


def ordered_mean(x: np.ndarray, work: np.ndarray | None = None) -> float:
    """Order-insensitive sample mean of a 1-d array: the sum of its sorted
    values over their count.  The sorted copy goes to `work` when given (a
    row of len(x) floats, which may be x itself) and is left there, else to
    a fresh array."""
    if work is None:
        work = np.sort(x)
    else:
        np.copyto(work, x)
        work.sort()
    return float(work.sum()) / len(work)


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Order-insensitive sample mean and standard error of a 1-d array."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    m = float(x.sum()) / n
    if n < 2:
        return m, 0.0
    x -= m  # the sorted copy is this function's own
    var = float(np.square(x, out=x).sum()) / (n - 1)
    return m, math.sqrt(var / n)


def _estimate(what: str, x: np.ndarray) -> tuple[float, float]:
    """mean_se of the per-path values x of `what`, refused as
    `estimate_finite` unless the mean and the SE are finite, as they are not
    when a value is not."""
    with quiet():
        mean, se = mean_se(x)
    require_finite("estimate_finite", f"the mean or standard error of the {what}", mean, se)
    return mean, se


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


def _coefficient_rows(grid, market: MarketParams):
    """sigma and the per-step rows r dt, (mu0 - r) dt, the wealth drift's
    (varrho - sigma^2/2) dt and the martingale drift's (2 varrho - sigma^2) dt
    at the left knot of every step of [0, T), formed once per grid."""

    def build():
        t_left = grid.knots[: grid.index_T]
        dt = grid.dt
        sig = market.sigma(t_left)
        r_dt = market.r(t_left) * dt
        rho_dt = market.varrho(t_left) * dt
        return (sig, r_dt, market.mu0(t_left) * dt - r_dt, rho_dt - 0.5 * sig**2 * dt,
                2.0 * rho_dt - sig**2 * dt)

    return grid.once(("coefficients", market), build)


def _rows(work: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n * width entries of the flat work row `work`, as (n, width)."""
    return work[: n * width].reshape(n, width)


def simulate_wealth(batch: PathBatch, profile: StrategyProfile, market: MarketParams, work: np.ndarray) -> np.ndarray:
    """Terminal log-wealth ln X_T (n_paths,) by the exact log-Euler step of the
    wealth dynamics under the original measure,

        dlnX = [r + (mu0 + varrho*pi - r)*pi - sigma^2 pi^2 / 2] dt + sigma * pi dW,

    the same sum as sigma*pi*phi dt + sigma*pi dWH in the enlarged filtration.
    Drift and noise are summed in turn in one buffer, from per-step
    coefficient rows:

        ln X_T = ln X0 + sum_i r dt + sum_i pi (c pi + b) + sum_i pi sigma dW,
        b = (mu0 - r) dt,  c = (varrho - sigma^2/2) dt.

    The buffer is `work`'s memory.
    """
    _check_grid(batch, profile)
    m = batch.grid.index_T
    sig, r_dt, b, c, _ = _coefficient_rows(batch.grid, market)
    pi = profile.pi
    steps = np.multiply(pi, c, out=_rows(work, batch.n_paths, m))
    steps += b
    steps *= pi
    log_x = np.sum(steps, axis=1)
    np.multiply(batch.dW[:, :m], sig, out=steps)
    steps *= pi
    log_x += np.sum(steps, axis=1)
    log_x += math.log(market.X0) + float(np.sum(r_dt))
    return log_x


def simulate_density(batch: PathBatch, profile: StrategyProfile, work: np.ndarray) -> np.ndarray:
    """log of the exponential density of the distorted measure, logE
    (n_paths, index_T + 1) at every knot of [0, T]:
    dln(eps) = theta dWH - theta^2/2 dt, formed as theta (dWH - theta dt/2)
    and summed in place in the result, which lies in `work`."""
    _check_grid(batch, profile)
    m = batch.grid.index_T
    logE = _rows(work, batch.n_paths, m + 1)
    logE[:, 0] = 0.0
    incr = np.multiply(profile.theta, 0.5 * batch.grid.dt, out=logE[:, 1:])
    np.subtract(batch.dWH, incr, out=incr)
    incr *= profile.theta
    np.cumsum(incr, axis=1, out=incr)
    return logE


def game_terms(
    batch: PathBatch, profile: StrategyProfile, market: MarketParams, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path (J term, penalty, relative entropy) of `batch` under `profile`:

        eps_T ln X_T + int eps_s theta_s^2/2 ds,  int eps_s theta_s^2/2 ds,  eps_T ln eps_T,

    with left-point eps and theta in the penalty; a log-density at T that is
    not finite is refused as `estimate_finite`.
    """
    logE = simulate_density(batch, profile, work)
    log_eps_T = logE[:, -1].copy()
    require_finite("estimate_finite", "a per-path log-density at T", log_eps_T)
    # the penalty integrand overwrites the left-point log-density it is made
    # from, and logE is dropped before simulate_wealth takes its buffer (the
    # same `work`), so one path-sized array at a time is live beside the
    # paths and their profile
    integrand = np.exp(logE[:, :-1], out=logE[:, :-1])
    integrand *= profile.theta
    integrand *= profile.theta
    integrand *= 0.5 * batch.grid.dt
    penalty = np.sum(integrand, axis=1)
    del logE, integrand
    eps_T = np.exp(log_eps_T)
    return eps_T * simulate_wealth(batch, profile, market, work) + penalty, penalty, eps_T * log_eps_T


def estimate_J(j_terms: np.ndarray) -> JEstimate:
    """Game functional J = E[eps_T ln X_T + int eps_s theta_s^2/2 ds] from its
    per-path terms."""
    mean, se = _estimate("J term", j_terms)
    return JEstimate(mean=mean, std_error=se, n_paths=len(j_terms))


def entropy_identity_check(penalty: np.ndarray, entropy: np.ndarray) -> EntropyCheck:
    """Monte-Carlo check that the accumulated penalty equals the relative
    entropy E[eps_T ln eps_T] of the distorted measure, from the per-path
    penalty and eps_T ln eps_T."""
    lhs, rhs = _estimate("penalty", penalty), _estimate("relative entropy", entropy)
    with quiet():
        gap = penalty - entropy
    return EntropyCheck(*lhs, *rhs, *_estimate("entropy gap", gap))


def _stream(config: ScenarioConfig, grid, kernel, threads: int) -> None:
    """stream_paths over `grid`, calling kernel(rows, batch, out, work) with
    numpy's float warnings off and the calling worker's own workspace: the
    two (n, index_T) profile rows `out` that build_profile writes to and the
    flat work row of the per-path kernels, made on the worker's first tile
    (again only for a larger one) and kept for the whole stream."""
    m, worker = grid.index_T, threading.local()

    def tile(rows: slice, batch: PathBatch) -> None:
        n = batch.n_paths
        space = getattr(worker, "space", None)
        if space is None or len(space[0]) < n:
            space = worker.space = (np.empty((n, m)), np.empty((n, m)), np.empty(n * (m + 1)))
        pi, theta, work = space
        with quiet():
            kernel(rows, batch, (pi[:n], theta[:n]), work)

    stream_paths(config, grid, tile, threads)


def stream_game(
    config: ScenarioConfig, profile_of, market: MarketParams, threads: int = 1
) -> tuple[JEstimate, EntropyCheck]:
    """estimate_J and entropy_identity_check of sample_paths(config) under the
    profile `profile_of(batch, out)`, one tile of paths at a time, where
    `out` is build_profile's rows in the worker's workspace."""
    validate(config)
    n = config.n_paths
    j_terms, penalty, entropy = np.empty(n), np.empty(n), np.empty(n)

    def tile(rows: slice, batch: PathBatch, out, work) -> None:
        j_terms[rows], penalty[rows], entropy[rows] = game_terms(batch, profile_of(batch, out), market, work)

    _stream(config, build_grid(config), tile, threads)
    return estimate_J(j_terms), entropy_identity_check(penalty, entropy)


def _default_checkpoints(grid) -> list[tuple[float, float]]:
    """Ten equal intervals of [0, T], their edges snapped to the nearest knots."""
    knots = grid.knots
    edges = np.linspace(0.0, grid.T, 11)
    snapped = np.unique(np.abs(knots[:, None] - edges).argmin(axis=0))
    return [(float(knots[a]), float(knots[b] - knots[a])) for a, b in zip(snapped, snapped[1:])]


def weighted_increments(
    batch: PathBatch,
    profile: StrategyProfile,
    market: MarketParams,
    checkpoints: list[tuple[float, float]],
    work: np.ndarray,
) -> np.ndarray:
    """Per-path eps_T (m_{t+h} - m_t) of the optimality martingale

        m_t = int_0^t (mu0 + 2 varrho pi - r - sigma^2 pi) ds + int_0^t sigma dW,

    one row per checkpoint (t, h) on the grid.  Drift and noise increments
    are summed in turn in one buffer, from per-step coefficient rows:

        dm = pi (2 varrho - sigma^2) dt + (mu0 - r) dt + sigma dW.

    The log-density and then the step terms lie in `work`; a log-density at
    T that is not finite is refused as `estimate_finite`.
    """
    _check_grid(batch, profile)
    grid = batch.grid
    spans = grid.once(("spans", tuple(checkpoints)),
                      lambda: [(grid.index_of(t), grid.index_of(t + h)) for t, h in checkpoints])
    m = grid.index_T
    log_eps_T = simulate_density(batch, profile, work)[:, -1]
    require_finite("estimate_finite", "a per-path log-density at T", log_eps_T)
    eps_T = np.exp(log_eps_T)
    sig, _, b, _, c = _coefficient_rows(grid, market)
    steps = np.multiply(profile.pi, c, out=_rows(work, batch.n_paths, m))
    steps += b
    out = np.stack([np.sum(steps[:, i:j], axis=1) for i, j in spans])
    np.multiply(batch.dW[:, :m], sig, out=steps)
    for k, (i, j) in enumerate(spans):
        out[k] += np.sum(steps[:, i:j], axis=1)
    out *= eps_T
    return out


def martingale_diagnostic(
    weighted: np.ndarray, checkpoints: list[tuple[float, float]]
) -> list[MartingaleStat]:
    """Density-weighted increment test of the optimality martingale from the
    weighted increments of `weighted_increments`, row k for checkpoint k.

    At the optimum m is a martingale under the distorted measure, so
    E[eps_T (m_{t+h} - m_t)] = 0 for every interval; each statistic is the
    weighted-increment mean over paths with its standard error.
    """
    return [MartingaleStat(t, h, *_estimate(f"weighted increment on [{t}, {t + h}]", w))
            for (t, h), w in zip(checkpoints, weighted)]


def stream_martingale(
    config: ScenarioConfig, profile_of, market: MarketParams, threads: int = 1
) -> list[MartingaleStat]:
    """martingale_diagnostic of sample_paths(config) at the default checkpoints
    under the profile `profile_of(batch, out)`, one tile of paths at a time,
    where `out` is build_profile's rows in the worker's workspace."""
    validate(config)
    grid = build_grid(config)
    checkpoints = _default_checkpoints(grid)
    weighted = np.empty((len(checkpoints), config.n_paths))

    def tile(rows: slice, batch: PathBatch, out, work) -> None:
        weighted[:, rows] = weighted_increments(batch, profile_of(batch, out), market, checkpoints, work)

    _stream(config, grid, tile, threads)
    return martingale_diagnostic(weighted, checkpoints)
