"""Reproducible Brownian ensembles and the insider filtration decomposition.

Paths are simulated on a grid covering [0, T0] (or [0, T] without a signal).
For an initial-enlargement insider the driving noise W decomposes as

    W_t = WH_t + int_0^t phi_s ds,
    phi_t = (Y0 - int_0^t phi_weight dW) * phi_weight(t) / ||phi_weight||^2_[t,T0],

where WH is a Brownian motion in the enlarged filtration and phi is the
information drift.  A batch stores the running signal, from which phi and
dWH are derived.  Everything is evaluated at left endpoints of the grid
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
    "stream_paths",
    "information_drift",
    "decompose",
    "partial_signals",
    "signal_drift",
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
    # collapse floating-point near-duplicates from linspace/breakpoint overlap,
    # keeping both ends exact: a breakpoint just below the end must not replace it
    keep = np.concatenate(([True], np.diff(k) > 1e-12))
    merged = k[keep]
    merged[-1] = k[-1]
    return merged


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

    dW    : (n_paths, m) Brownian increments over every grid step.
    Y0    : (n_paths,) insider signal, the phi_weight-weighted sum of all dW.
    level : (n_paths, index_T + 1) regression state at the knots of [0, T]:
            the running signal B_t = int_0^t phi_weight dW, or W_t without
            a signal.
    dWH   : (n_paths, index_T) enlarged-filtration increments dW - phi*dt on
            [0, T]; a view of dW without a signal.
    The information drift phi is not stored but derived from (Y0, level).
    """

    grid: TimeGrid
    dW: np.ndarray
    Y0: np.ndarray
    level: np.ndarray
    dWH: np.ndarray
    insider: InsiderSpec

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def phi(self) -> np.ndarray:
        return information_drift(self.grid, self.level, self.Y0, self.insider)


def _for_each_block(n_paths: int, fn, threads: int = 1) -> None:
    """Call fn(block, rows) for every RNG block of `n_paths` paths, on up to
    `threads` workers.  Each block owns fixed rows, so what fn writes there
    never depends on the worker count; on an error the blocks not yet started
    are cancelled."""
    blocks = [(b, slice(lo, min(lo + _BLOCK, n_paths)))
              for b, lo in enumerate(range(0, n_paths, _BLOCK))]
    if threads <= 1:
        for block, rows in blocks:
            fn(block, rows)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for _ in pool.map(lambda args: fn(*args), blocks):
            pass
    finally:
        pool.shutdown(cancel_futures=True)


def _allocate(grid: TimeGrid, insider: InsiderSpec, n: int) -> PathBatch:
    """Uninitialised batch of n paths; without a signal Y0 is zeros and dWH
    is a view of dW."""
    m, signal = grid.index_T, insider.has_signal()
    dW = np.empty((n, grid.n_steps))
    return PathBatch(grid=grid, dW=dW, Y0=np.empty(n) if signal else np.zeros(n),
                     level=np.empty((n, m + 1)), dWH=np.empty((n, m)) if signal else dW[:, :m],
                     insider=insider)


def _rows(batch: PathBatch, rows: slice) -> PathBatch:
    """View of paths `rows`."""
    return PathBatch(grid=batch.grid, dW=batch.dW[rows], Y0=batch.Y0[rows],
                     level=batch.level[rows], dWH=batch.dWH[rows], insider=batch.insider)


def _fill_block(batch: PathBatch, seed: int, block: int) -> None:
    """Build RNG block `block` in place: `batch` holds exactly that block's
    paths.  Draws are counter-based, so path i, step j depends only on
    (seed, i, j).  The drift is formed from the state in dWH's memory."""
    grid, dW, insider = batch.grid, batch.dW, batch.insider
    np.random.Generator(np.random.Philox(key=[seed, block])).standard_normal(out=dW)
    dW *= np.sqrt(grid.dt)
    partial_signals(grid, dW, insider, out=batch.level)
    if not insider.has_signal():
        return
    np.matmul(dW, insider.phi_weight(grid.knots[:-1]), out=batch.Y0)
    information_drift(grid, batch.level, batch.Y0, insider, out=batch.dWH)
    decompose(grid, dW, batch.dWH, out=batch.dWH)


def sample_paths(config: ScenarioConfig, threads: int = 1) -> PathBatch:
    """Simulate the whole ensemble for a validated configuration.

    Deterministic in (seed, path index, step index): the same seed and grid
    give bit-identical increments regardless of n_paths or thread count.
    """
    validate(config)
    grid = build_grid(config)
    batch = _allocate(grid, config.insider, config.n_paths)
    seed = int(config.seed)

    def fill(block: int, rows: slice) -> None:
        _fill_block(_rows(batch, rows), seed, block)

    _for_each_block(config.n_paths, fill, threads)
    return batch


def stream_paths(config: ScenarioConfig, grid: TimeGrid, fn, threads: int = 1) -> None:
    """Call fn(rows, batch) for every RNG block of the ensemble of a validated
    `config` on its grid build_grid(config), where `batch` equals rows `rows`
    of sample_paths(config) bit for bit.  Each worker holds one block at a
    time, so the path arrays held do not grow with n_paths."""
    seed = int(config.seed)

    def run(block: int, rows: slice) -> None:
        batch = _allocate(grid, config.insider, rows.stop - rows.start)
        _fill_block(batch, seed, block)
        fn(rows, batch)

    _for_each_block(config.n_paths, run, threads)


def partial_signals(grid: TimeGrid, dW: np.ndarray, insider: InsiderSpec, out=None) -> np.ndarray:
    """Running signal B_t = int_0^t phi_weight dW at knots 0..index_T, or
    W_t without a signal, written to `out` when given."""
    m = grid.index_T
    w_left = insider.phi_weight(grid.knots[:m]) if insider.has_signal() else 1.0
    b = np.empty((dW.shape[0], m + 1)) if out is None else out
    b[:, 0] = 0.0
    np.multiply(dW[:, :m], w_left, out=b[:, 1:])
    np.cumsum(b[:, 1:], axis=1, out=b[:, 1:])
    return b


def signal_drift(grid: TimeGrid, insider: InsiderSpec):
    """The information drift phi_i = (y0 - b) * phi_weight(t_i) /
    ||phi_weight||^2_[t_i, T0] as drift(y0, b, i, out), for the running
    signal b at the left knot of step i (an index or a slice); raises
    DomainError if a step of [0, T) starts at or beyond T0."""
    T0 = float(insider.T0)
    t_left = grid.knots[: grid.index_T]
    if np.any(t_left >= T0):
        raise DomainError("information drift is not defined at or beyond T0")
    w_left = insider.phi_weight(t_left)
    norm_left = phi_norm_sq(insider, t_left, T0)

    def drift(y0, b, i=slice(None), out=None) -> np.ndarray:
        out = np.subtract(y0, b, out=out)
        out *= w_left[i]
        out /= norm_left[i]
        return out

    return drift


def information_drift(grid: TimeGrid, level, y0, insider: InsiderSpec, out=None) -> np.ndarray:
    """signal_drift at the left endpoint of every step in [0, T) from the
    running signal `level` (n_paths, >= index_T) at the knots, written to
    `out` when given; one broadcast row of zeros without a signal."""
    if not insider.has_signal():
        return np.zeros((1, grid.index_T))
    return signal_drift(grid, insider)(y0[:, None], level[:, : grid.index_T], out=out)


def decompose(grid: TimeGrid, dW: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
    """Enlarged-filtration increments dWH_i = dW_i - phi_i * dt_i on [0, T],
    written to `out` when given; `out` may be `phi` itself."""
    m = grid.index_T
    drift = np.multiply(phi, grid.dt[:m], out=out)
    return np.subtract(dW[:, :m], drift, out=out)
