"""Reproducible Brownian ensembles and the insider filtration decomposition.

Paths are simulated on a grid covering [0, T].  The insider's signal
Y0 = int_0^T0 phi_weight dW is the running signal B_T = int_0^T phi_weight dW
plus a tail independent of [0, T], drawn exactly as one N(0,
||phi_weight||^2_[T,T0]) per path.  The driving noise W then decomposes as

    W_t = WH_t + int_0^t phi_s ds,
    phi_t = (Y0 - B_t) * phi_weight(t) / ||phi_weight||^2_[t,T0],

where WH is a Brownian motion in the enlarged filtration and phi is the
information drift.  A batch stores the regression state int_0^t w dW: the
running signal B_t (w = phi_weight), from which phi and dWH are derived, or
int_0^t iota dW without a signal.  Everything is evaluated at left endpoints
of the grid steps, consistent with left-continuous controls.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DomainError,
    InsiderSpec,
    ScenarioConfig,
    ValidationError,
    breakpoints,
    iota,
    phi_norm_sq,
    validate,
)

__all__ = [
    "TimeGrid",
    "PathBatch",
    "build_grid",
    "sample_paths",
    "stream_paths",
    "l2_rows",
    "information_drift",
    "decompose",
    "partial_signals",
    "state_weight",
    "signal_drift",
]

# paths per RNG block; fixed so path i's draws never depend on n_paths or workers
_BLOCK = 4096

# bytes of one array of a group of l2_rows paths, which stays in a core's L2
_L2_BYTES = 512 * 1024

# knots closer than this are one knot of a grid
_KNOT_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing knots 0 = t_0 < ... < t_m = T of [0, T].

    Knots include every coefficient and signal-weight breakpoint inside
    (0, T).  Steps i = 0..m-1 run over [knots[i], knots[i+1]).
    """

    knots: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        if k.ndim != 1 or len(k) < 3 or np.any(np.diff(k) <= 0.0):
            raise ValueError("grid knots must be strictly increasing with >= 3 entries")
        object.__setattr__(self, "knots", k)

    @property
    def dt(self) -> np.ndarray:
        """Read-only step lengths, formed once."""

        def build():
            dt = np.diff(self.knots)
            dt.flags.writeable = False
            return dt

        return self.once("dt", build)

    @property
    def index_T(self) -> int:
        """Index of the last knot, T; also the number of steps."""
        return len(self.knots) - 1

    @property
    def T(self) -> float:
        return float(self.knots[-1])

    def once(self, key, build):
        """build(), evaluated once per grid and key, for the time-axis rows
        that every tile of a stream reads.  `key` holds every input of build
        besides the grid, e.g. (kind, market, insider), all frozen, so a
        stored value cannot go stale; callers do not write to it."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    def index_of(self, t: float) -> int:
        """Index of knot t; t must lie on the grid."""
        i = int(np.searchsorted(self.knots, t - _KNOT_TOL))
        if i >= len(self.knots) or abs(self.knots[i] - t) > 1e-9:
            raise DomainError(f"{t} is not a grid knot")
        return i


def build_grid(config: ScenarioConfig) -> TimeGrid:
    """Uniform resolution n_steps on [0, T] plus every coefficient and
    signal-weight breakpoint inside (0, T).  A uniform step that is not above
    the knot tolerance is a ValidationError (`grid_step_min`)."""
    main = np.linspace(0.0, config.market.T, config.n_steps + 1)
    if not np.all(np.diff(main) > _KNOT_TOL):
        raise ValidationError("grid_step_min", f"need T / n_steps above {_KNOT_TOL}, got "
                              f"{config.market.T!r} / {config.n_steps}")
    k = np.unique(np.concatenate([main, breakpoints(config.market, config.insider.phi_weight)]))
    # collapse floating-point near-duplicates from linspace/breakpoint overlap,
    # keeping both ends exact: a breakpoint just below the end must not replace it
    knots = k[np.concatenate(([True], np.diff(k) > _KNOT_TOL))]
    knots[-1] = k[-1]
    return TimeGrid(knots=knots)


@dataclass(frozen=True)
class PathBatch:
    """Simulated paths: the whole ensemble from sample_paths, or one tile of
    stream_paths.  A tile's arrays are views of its worker's buffers, which
    the worker's next tile overwrites, so a tile is valid only during the
    call that receives it.

    dW    : (n_paths, index_T) Brownian increments on [0, T]; with a signal,
            one more column holds the tail Y0 - B_T = int_T^T0 phi_weight dW.
    Y0    : (n_paths,) insider signal, zeros without one.
    level : (n_paths, index_T + 1) regression state int_0^t w dW at the
            knots of [0, T]: the running signal B_t (w = phi_weight) under a
            signal, int_0^t iota dW (w = iota) without one.
    dWH   : (n_paths, index_T) enlarged-filtration increments dW - phi*dt on
            [0, T]; a view of dW without a signal.
    The information drift phi is not stored but derived from (Y0, level).
    A raw tile keeps the tail's standard normal draw z in place of the tail
    and writes neither Y0 nor dWH.
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
    dW = np.empty((n, m + 1 if signal else m))
    return PathBatch(grid=grid, dW=dW, Y0=np.empty(n) if signal else np.zeros(n),
                     level=np.empty((n, m + 1)), dWH=np.empty((n, m)) if signal else dW[:, :m],
                     insider=insider)


def _rows(batch: PathBatch, rows: slice) -> PathBatch:
    """View of paths `rows`."""
    return PathBatch(grid=batch.grid, dW=batch.dW[rows], Y0=batch.Y0[rows],
                     level=batch.level[rows], dWH=batch.dWH[rows], insider=batch.insider)


def _filler(config: ScenarioConfig, grid: TimeGrid, raw: bool = False):
    """fill(batch, gen) builds consecutive paths of one RNG block in place
    from the Philox generator `gen` of that block, with the time-axis rows
    formed once here.  Draws are counter-based and row-major, so path i's
    draws depend only on (seed, i): one standard normal per step of [0, T],
    then, with a signal, one for the tail; a block filled in consecutive
    tiles from one generator gets the bytes of one fill of the whole block.
    Under a signal the tail is scaled, Y0 = B_T + tail is formed, and the
    drift is formed from the state in dWH's memory and decomposed there.
    With raw=True, for a caller that reads dW on [0, T] and the state and
    forms the signal itself, the tail column keeps its standard normal draw
    z, and neither Y0 nor dWH is written."""
    insider, m = config.insider, grid.index_T
    signal = insider.has_signal()
    var = grid.dt
    if signal:  # a unit variance keeps the tail's draw: fl(z * 1) = z
        var = np.append(grid.dt, 1.0 if raw else phi_norm_sq(insider, grid.T, insider.T0))
    scale = np.sqrt(var)
    weight = state_weight(config, grid)

    def fill(batch: PathBatch, gen: np.random.Generator) -> None:
        dW = gen.standard_normal(out=batch.dW)
        dW *= scale
        partial_signals(dW, weight, batch.level)
        if signal and not raw:
            np.add(batch.level[:, m], dW[:, m], out=batch.Y0)
            information_drift(grid, batch.level, batch.Y0, insider, out=batch.dWH)
            decompose(grid, dW, batch.dWH, batch.dWH)

    return fill


def _generator(seed: int, block: int) -> np.random.Generator:
    """The counter-based stream of RNG block `block`, keyed by the unsigned
    pair (seed, block), so each seed below 2^64 has its own streams."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def l2_rows(width: int) -> int:
    """Paths per group (a tile of stream_paths, a chunk of
    anticipating.convergence_table) whose array of `width` floats a path
    fits in _L2_BYTES; at least one."""
    return max(1, _L2_BYTES // (8 * width))


def sample_paths(config: ScenarioConfig, threads: int = 1) -> PathBatch:
    """Simulate the whole ensemble for a validated configuration.

    Deterministic in (seed, path index): the same seed and grid give
    bit-identical draws regardless of n_paths or thread count.
    """
    validate(config)
    grid = build_grid(config)
    batch = _allocate(grid, config.insider, config.n_paths)
    fill, seed = _filler(config, grid), int(config.seed)

    def fill_block(block: int, rows: slice) -> None:
        fill(_rows(batch, rows), _generator(seed, block))

    _for_each_block(config.n_paths, fill_block, threads)
    return batch


def stream_paths(config: ScenarioConfig, grid: TimeGrid, fn, threads: int = 1, raw: bool = False) -> None:
    """Call fn(rows, tile) for every tile of the ensemble of a validated
    `config` on its grid build_grid(config), where `tile` equals rows `rows`
    of sample_paths(config) bit for bit, but that a raw tile (raw=True) holds
    only dW, with the tail's standard normal draw z, and the state; see
    _filler.  A tile is l2_rows(index_T + 1) consecutive paths of one RNG
    block, or the block's rest, so each path array of a tile stays within
    _L2_BYTES and in a core's L2.  Each block draws its tiles in order from
    its own generator; each worker draws every tile it runs into one buffer
    set, made on its first tile and kept for the whole stream, so a tile is
    valid only during its call: fn copies or reduces what it keeps.  The
    path arrays held do not grow with n_paths."""
    fill, seed, step = _filler(config, grid, raw), int(config.seed), l2_rows(grid.index_T + 1)
    worker = threading.local()

    def run(block: int, rows: slice) -> None:
        gen, n = _generator(seed, block), min(step, rows.stop - rows.start)
        buffers = getattr(worker, "buffers", None)
        if buffers is None or buffers.n_paths < n:
            buffers = worker.buffers = _allocate(grid, config.insider, n)
        for lo in range(rows.start, rows.stop, step):
            hi = min(lo + step, rows.stop)
            tile = _rows(buffers, slice(0, hi - lo))
            fill(tile, gen)
            fn(slice(lo, hi), tile)

    _for_each_block(config.n_paths, run, threads)


def partial_signals(dW: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The state int_0^t w dW at knots 0..m for the left-point weights w of
    the m steps, written to `out` (n_paths, m + 1)."""
    m = len(weight)
    out[:, 0] = 0.0
    np.multiply(dW[:, :m], weight, out=out[:, 1:])
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def state_weight(config: ScenarioConfig, grid: TimeGrid) -> np.ndarray:
    """The left-point weights w of the state int_0^t w dW on the m steps of
    `grid`: phi_weight under a signal, iota without one."""
    t_left = grid.knots[: grid.index_T]
    return config.insider.phi_weight(t_left) if config.insider.has_signal() else iota(config.market, t_left)


def _drift_rows(grid: TimeGrid, insider: InsiderSpec) -> tuple[np.ndarray, np.ndarray]:
    """signal_drift's rows phi_weight(t_i) and ||phi_weight||^2_[t_i, T0]."""
    T0, t_left = float(insider.T0), grid.knots[: grid.index_T]
    if np.any(t_left >= T0):
        raise DomainError("information drift is not defined at or beyond T0")
    return insider.phi_weight(t_left), phi_norm_sq(insider, t_left, T0)


def signal_drift(grid: TimeGrid, insider: InsiderSpec):
    """The information drift phi_i = (y0 - b) * phi_weight(t_i) /
    ||phi_weight||^2_[t_i, T0] as drift(y0, b, i, out), for the running
    signal b at the left knot of step i (an index or a slice), from rows kept
    on the grid; raises DomainError if a step of [0, T) starts at or beyond T0."""
    w_left, norm_left = grid.once(("signal_drift", insider), lambda: _drift_rows(grid, insider))

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


def decompose(grid: TimeGrid, dW: np.ndarray, phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Enlarged-filtration increments dWH_i = dW_i - phi_i * dt_i on [0, T],
    written to `out` (n_paths, index_T), which may be `phi` itself."""
    drift = np.multiply(phi, grid.dt, out=out)
    return np.subtract(dW[:, : grid.index_T], drift, out=out)
