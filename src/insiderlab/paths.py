"""Reproducible Brownian ensembles and the insider filtration decomposition.

Paths are simulated on a grid covering [0, T0] (or [0, T] without a signal).
For an initial-enlargement insider the driving noise W decomposes as

    W_t = WH_t + int_0^t phi_s ds,
    phi_t = (Y0 - int_0^t phi_weight dW) * phi_weight(t) / ||phi_weight||^2_[t,T0],

where WH is a Brownian motion in the enlarged filtration and phi is the
information drift.  Everything is evaluated at left endpoints of the grid
steps, consistent with left-continuous controls.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import InsiderKind, InsiderSpec, ScenarioConfig, DomainError, phi_norm_sq, validate

__all__ = [
    "TimeGrid",
    "PathBatch",
    "build_grid",
    "sample_paths",
    "information_drift",
    "decompose",
    "partial_signals",
]

# paths per RNG block; fixed so path i's draws never depend on n_paths or workers
_BLOCK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing knots 0 = t_0 < ... < t_m, with T at `index_T`.

    Knots include every coefficient breakpoint.  Steps i = 0..m-1 run over
    [knots[i], knots[i+1]); dynamics stop at T, the tail (T, T0] only feeds
    the insider signal.
    """

    knots: np.ndarray
    index_T: int

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        if k.ndim != 1 or len(k) < 3 or np.any(np.diff(k) <= 0.0):
            raise ValueError("grid knots must be strictly increasing with >= 3 entries")
        object.__setattr__(self, "knots", k)

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.knots)

    @property
    def n_steps(self) -> int:
        return len(self.knots) - 1

    @property
    def T(self) -> float:
        return float(self.knots[self.index_T])

    @property
    def T_end(self) -> float:
        return float(self.knots[-1])

    def index_of(self, t: float) -> int:
        """Index of knot t; t must lie on the grid."""
        i = int(np.searchsorted(self.knots, t - 1e-12))
        if i >= len(self.knots) or abs(self.knots[i] - t) > 1e-9:
            raise DomainError(f"{t} is not a grid knot")
        return i


def _merge_knots(*arrays) -> np.ndarray:
    k = np.unique(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    # collapse floating-point near-duplicates from linspace/breakpoint overlap
    keep = np.concatenate(([True], np.diff(k) > 1e-12))
    return k[keep]


def build_grid(config: ScenarioConfig) -> TimeGrid:
    """Uniform resolution n_steps on [0, T] plus all breakpoints; the tail
    (T, T0] is refined at the same step size unless n_steps_tail overrides."""
    market, insider = config.market, config.insider
    T = market.T
    main = np.linspace(0.0, T, config.n_steps + 1)
    bps = market.breakpoints_union()
    phi_bps = [b for b in insider.phi_weight.breakpoints if 0.0 < b < T]
    knots = _merge_knots(main, bps, phi_bps)
    if insider.kind is InsiderKind.NO_INSIDER:
        grid_knots = knots
        index_T = len(grid_knots) - 1
    else:
        T0 = float(insider.T0)
        n_tail = config.n_steps_tail
        if n_tail is None:
            n_tail = max(1, int(round((T0 - T) / (T / config.n_steps))))
        tail = np.linspace(T, T0, n_tail + 1)
        tail_bps = [b for b in insider.phi_weight.breakpoints if T < b < T0]
        tail_knots = _merge_knots(tail, tail_bps)
        index_T = len(knots) - 1
        grid_knots = np.concatenate([knots, tail_knots[1:]])
    return TimeGrid(knots=grid_knots, index_T=index_T)


@dataclass(frozen=True)
class PathBatch:
    """Simulated ensemble, immutable after construction.

    dW   : (n_paths, m) Brownian increments over every grid step.
    Y0   : (n_paths,) insider signal, the phi_weight-weighted sum of all dW.
    phi  : (n_paths | 1, index_T) information drift at left endpoints of the
           steps in [0, T); all zeros (broadcast row) without a signal.
    dWH  : (n_paths, index_T) enlarged-filtration Brownian increments
           dW - phi*dt on [0, T].
    """

    grid: TimeGrid
    dW: np.ndarray
    Y0: np.ndarray
    phi: np.ndarray
    dWH: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]


def _draw_normals(seed: int, n_paths: int, n_steps: int, threads: int = 1) -> np.ndarray:
    """Counter-based draws: path i, step j depends only on (seed, i, j)."""
    out = np.empty((n_paths, n_steps))

    def fill(block: int) -> None:
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, n_paths)
        gen = np.random.Generator(np.random.Philox(key=[seed, block]))
        out[lo:hi] = gen.standard_normal((hi - lo, n_steps))

    blocks = range((n_paths + _BLOCK - 1) // _BLOCK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    else:
        for b in blocks:
            fill(b)
    return out


def sample_paths(config: ScenarioConfig, threads: int = 1) -> PathBatch:
    """Simulate the ensemble for a validated configuration.

    Deterministic in (seed, path index, step index): the same seed and grid
    give bit-identical increments regardless of n_paths or thread count.
    """
    validate(config)
    grid = build_grid(config)
    z = _draw_normals(int(config.seed), config.n_paths, grid.n_steps, threads=threads)
    dW = z * np.sqrt(grid.dt)

    insider = config.insider
    if insider.kind is InsiderKind.NO_INSIDER:
        y0 = np.zeros(config.n_paths)
        phi = np.zeros((1, grid.index_T))
        dWH = dW[:, : grid.index_T]
    else:
        w_left = insider.phi_weight(grid.knots[:-1])
        y0 = dW @ w_left
        phi = information_drift(grid, dW, y0, insider)
        dWH = decompose(grid, dW, phi)
    return PathBatch(grid=grid, dW=dW, Y0=y0, phi=phi, dWH=dWH)


def partial_signals(grid: TimeGrid, dW: np.ndarray, insider: InsiderSpec) -> np.ndarray:
    """Running signal B_t = int_0^t phi_weight dW at knots 0..index_T."""
    w_left = insider.phi_weight(grid.knots[: grid.index_T])
    b = np.empty((dW.shape[0], grid.index_T + 1))
    b[:, 0] = 0.0
    np.cumsum(dW[:, : grid.index_T] * w_left, axis=1, out=b[:, 1:])
    return b


def information_drift(
    grid: TimeGrid, dW: np.ndarray, y0: np.ndarray, insider: InsiderSpec
) -> np.ndarray:
    """Information drift at the left endpoint of every step in [0, T).

    phi_i = (Y0 - B_{t_i}) * phi_weight(t_i) / ||phi_weight||^2_[t_i, T0].
    Returns zeros for the no-insider regime.  Raises DomainError if any
    evaluation knot reaches T0 (the denominator would vanish there).
    """
    if insider.kind is InsiderKind.NO_INSIDER:
        return np.zeros((1, grid.index_T))
    T0 = float(insider.T0)
    t_left = grid.knots[: grid.index_T]
    if np.any(t_left >= T0):
        raise DomainError("information drift is not defined at or beyond T0")
    b = partial_signals(grid, dW, insider)
    w_left = insider.phi_weight(t_left)
    return (y0[:, None] - b[:, :-1]) * w_left / phi_norm_sq(insider, t_left, T0)


def decompose(grid: TimeGrid, dW: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Enlarged-filtration increments dWH_i = dW_i - phi_i * dt_i on [0, T]."""
    m = grid.index_T
    return dW[:, :m] - phi * grid.dt[:m]

