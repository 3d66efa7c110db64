"""Backward solvers for the two equations characterising the robust optimum.

Small insider (no price impact): the optimal wealth X and its control z solve
the linear backward equation

    dX_t = (r_t X_t + phitilde_t z_t) dt + z_t dWH_t,
    X_T  = X0 / (E[sqrt(Pi(0,T)) | H_0] * sqrt(Pi(0,T))),

where Pi(t1,t2) = exp{-int r - int phitilde dWH - 1/2 int phitilde^2} and
phitilde = iota + phi.  The optimal fraction is pi = z / (sigma X).

Large insider under ambiguity: L = ln(eps * X) and z = sigma*pi + theta solve
the quadratic backward equation

    dL_t = -f_Q(t, z_t) dt + z_t dWH_t,   L_T = c2,
    f_Q(t, z) = z^2/4 - phitilde z/2 - r - phitilde^2/4
                - (sigma - sigma_tilde)/(4 (sigma + sigma_tilde)) (z + phitilde)^2,

with the constant (or, under enlargement, signal-dependent) terminal c2 shot
so that L_0 = ln X0: f_Q does not read L, so one correction of the terminal
is exact.  Controls are recovered via pi = (z + phitilde) /
(sigma + sigma_tilde), theta = (sigma_tilde z - sigma phitilde) /
(sigma + sigma_tilde).

In log coordinates both drivers belong to one family, built by one function:
f = z (a z + b phitilde) + c phitilde^2 - r, with (a, b, c) = (1/2, -1, 0)
for the linear equation in (ln X, z / X) and rows in sigma, sigma_tilde for f_Q.

Both numerical solvers are explicit backward Euler schemes with regression
later on the Markov state (int_0^t iota dW without a signal; the running
signal B_t and the signal Y0 under enlargement): each knot's value is fitted
once on a degree-2 basis of its own state, and both conditional expectations
of a step are taken from that fit exactly, by the Gaussian one-step law of
the state.  Their input, SweepPaths, is drawn coarse to fine: it stores the
state at about every sqrt(m)-th knot and the Brownian increment between two
of them, and fills the knots of one chunk between two checkpoints by the
Brownian bridge when a pass reaches it, from a counter-based substream that
gives the same bytes on every pass (checkpointing: Griewank & Walther, ACM
TOMS 26(1), 2000; Philox: Salmon et al., SC11).  The sweep hands
each knot's rows to an observer once it has fitted them, and lends it that
knot's basis rows, free until the next knot's basis is built, for its work,
so neither solver nor observer holds a field over all knots or a row of its
own, and the quadratic shot moves every knot by one per-path row.  A solve
whose values overflow ends in a ValidationError (`solution_finite`), not in
nan cells.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    iota,
    phi_norm_sq,
    quiet,
    require_finite,
    sigma_tilde,
    validate,
)
from .paths import TimeGrid, build_grid, draw_blocks, signal_drift, state_weight
from .simulate import mean_se, ordered_mean
from .strategies import StrategyKind, closed_form_lines, pi_no_insider_robust

__all__ = [
    "RegressionError",
    "SweepPaths",
    "BsdeSolution",
    "stream_sweep_paths",
    "stream_horizon_paths",
    "log_pi_star",
    "require_gaussian_oracle",
    "enlargement_normalizer",
    "solve_linear_closed_form",
    "solve_linear_lsmc",
    "solve_quadratic_lsmc",
    "initial_controls",
    "value_from_bsde",
    "KNOT_HEADER",
    "knot_table",
]


class RegressionError(RuntimeError):
    """Least-squares design matrix is rank deficient."""

    def __init__(self, t: float, rank: int, n_columns: int, cond: float):
        super().__init__(
            f"rank-deficient regression at t={t}: rank {rank} < {n_columns} "
            f"columns (condition number {cond:.3e})"
        )
        self.t = t
        self.rank = rank
        self.n_columns = n_columns
        self.cond = cond


# -- the sweep input -------------------------------------------------------------


def _stride(m: int) -> int:
    """Knots per checkpoint of a sweep input on m steps: ceil(sqrt(m + 1)),
    so its checkpoints, the chunks' increments and one filled chunk take
    about 3 sqrt(m) rows."""
    return math.isqrt(m) + 1


def _checkpoint_knots(weight: np.ndarray) -> tuple[int, ...]:
    """The checkpoint knots of a sweep input whose m steps have the state
    weights `weight`: 0, c, 2c, ... (c = _stride(m)), the last knot m, and
    every knot where the weight changes, so that it is constant on a chunk."""
    m = len(weight)
    changes = np.flatnonzero(weight[1:] != weight[:-1]) + 1
    return tuple(int(k) for k in np.unique(np.concatenate([np.arange(0, m, _stride(m)), changes, [m]])))


def _read_only(row: np.ndarray) -> np.ndarray:
    view = row.view()
    view.flags.writeable = False
    return view


def _bridge(rows: np.ndarray, end: np.ndarray, t: np.ndarray, seed: int, substream: int, work: np.ndarray) -> None:
    """Fill rows (len(t) - 2, n_paths) with Brownian paths at the interior
    times of t that start at 0 at t[0] and end at `end` at t[-1] (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2004, 3.1), knot by knot:

        U_j = U_{j-1} + (end - U_{j-1}) h_j / (t_b - t_{j-1})
              + sqrt(h_j (t_b - t_j) / (t_b - t_{j-1})) xi_j,   h_j = t_j - t_{j-1}.

    Each RNG block draws its xi from its own substream `substream`, path by
    path, so a path's draws depend only on (seed, its index, t), and a
    refill writes the same bytes.  `work` is one row of n_paths floats."""
    n_knots, n = rows.shape
    if n_knots == 0:
        return
    h, rest = np.diff(t[:-1]), t[-1] - t[:-2]
    frac, scale = h / rest, np.sqrt(h * (t[-1] - t[1:-1]) / rest)

    def draw(cols: slice, gen: np.random.Generator) -> None:
        rows[:, cols] = gen.standard_normal((cols.stop - cols.start, n_knots)).T

    draw_blocks(seed, n, draw, substream=substream)
    for j in range(n_knots):  # work: the pull towards the end, frac_j (end - U_{j-1}), then plus U_{j-1}
        rows[j] *= scale[j]
        if j:
            np.subtract(end, rows[j - 1], out=work)
            work *= frac[j]
            work += rows[j - 1]
        else:
            np.multiply(end, frac[0], out=work)
        rows[j] += work


@dataclass(frozen=True)
class SweepPaths:
    """The paths as the backward solvers read them, knot-major, so that the
    values of one knot across all paths are one contiguous row.  They are
    drawn coarse to fine, and no (index_T, n_paths) array is held.

    weight : (index_T,) the state's left-point weights w, state_weight's row.
    checkpoint_knots : the knots 0 = a_0 < ... < a_K = index_T of
             _checkpoint_knots(weight); chunk k runs from a_k to a_{k+1},
             and w is constant on it.
    checkpoints : (K + 1, n_paths) the state int_0^t w dW at those knots.
    increments : (K, n_paths) the Brownian increment over each chunk.
    seed   : the seed the paths were drawn from.
    Y0     : (n_paths,) the signal, None without one.
    insider : the InsiderSpec the paths were drawn under.

    The Brownian motion inside chunk k, less its value at a_k, is filled
    when a read first reaches the chunk, by the bridge from 0 to the chunk's
    increment (_bridge) on substream k + 1 of each RNG block, into one
    buffer that the next chunk reuses; Philox is counter-based, so a chunk
    filled again has the same bytes, and a pass over the knots in either
    order fills each chunk once.  level(i) is knot i's state: its checkpoint,
    or the chunk's starting checkpoint plus w times the filled row.  dW(i) is
    the difference of the two filled rows around step i (0 at the chunk
    start, the increment at its end).  Under a signal, phi(i) is step i's
    information drift formed from the state by signal_drift, and dWH_i =
    dW_i - phi_i dt_i; without one, dWH_i is dW_i.  The rows returned are
    read-only; each comes from a checkpoint, the chunk buffer or a buffer of
    one row that the next read of the same kind (for level(i), also the next
    fill) overwrites, so a caller reduces or copies a row before it reads
    another.
    """

    grid: TimeGrid
    weight: np.ndarray
    checkpoint_knots: tuple[int, ...]
    checkpoints: np.ndarray
    increments: np.ndarray
    seed: int
    Y0: np.ndarray | None
    insider: InsiderSpec
    _scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.checkpoints.shape[1]

    def _chunk_of(self, i: int) -> tuple[int, int]:
        """(k, a_k): the chunk whose knots a_k <= i < a_{k+1} hold knot or step i."""
        k = bisect.bisect_right(self.checkpoint_knots, i) - 1
        return k, self.checkpoint_knots[k]

    def level(self, i: int) -> np.ndarray:
        """The state int_0^t w dW at knot i."""
        k, a = self._chunk_of(i)
        if i == a:
            return _read_only(self.checkpoints[k])
        scratch = self._scratch
        if scratch.get("level_knot") != i:
            row = np.multiply(self._chunk(k)[i - a - 1], self.weight[a], out=scratch["buffer"][-1])
            row += self.checkpoints[k]
            scratch["level_knot"] = i
        return _read_only(scratch["buffer"][-1])

    def dW(self, i: int) -> np.ndarray:
        """The Brownian increment on step i."""
        k, a = self._chunk_of(i)
        rows = self._chunk(k)
        end = self.increments[k] if i - a == len(rows) else rows[i - a]
        if i == a:
            return _read_only(end)
        row = self._scratch["dW"] = np.subtract(end, rows[i - a - 1], out=self._scratch.get("dW"))
        return _read_only(row)

    def phi(self, i: int) -> np.ndarray:
        """The information drift on step i under a signal, formed from the
        state by signal_drift."""
        scratch = self._scratch
        if scratch.get("phi_step") != i:
            if "drift" not in scratch:
                scratch["drift"] = signal_drift(self.grid, self.insider)
            scratch["phi_step"] = None  # a failed drift leaves no row behind
            scratch["phi"] = scratch["drift"](self.Y0, self.level(i), i, out=scratch.get("phi"))
            scratch["phi_step"] = i
        return _read_only(scratch["phi"])

    def dWH(self, i: int) -> np.ndarray:
        """The increment dWH on step i."""
        if self.Y0 is None:
            return self.dW(i)
        dW = self.dW(i)
        row = self._scratch["dWH"] = np.multiply(self.phi(i), self.grid.dt[i], out=self._scratch.get("dWH"))
        return _read_only(np.subtract(dW, row, out=row))

    def _chunk(self, k: int) -> np.ndarray:
        """W less its value at a_k at the interior knots of chunk k, in one
        buffer that the next chunk reuses; the fill works in level()'s row."""
        scratch, knots = self._scratch, self.checkpoint_knots
        if scratch.get("chunk") == k:
            return scratch["rows"]
        if "buffer" not in scratch:  # the chunk's rows, then the row of level() and of the fill's work
            scratch["buffer"] = np.empty((max(np.diff(knots)), self.n_paths))
        a, b = knots[k], knots[k + 1]
        rows = scratch["buffer"][: b - a - 1]
        scratch["chunk"] = scratch["level_knot"] = None  # a failed fill leaves no chunk behind
        _bridge(rows, self.increments[k], self.grid.knots[a : b + 1], self.seed, k + 1, scratch["buffer"][-1])
        scratch["rows"], scratch["chunk"] = rows, k
        return rows


def _sweep_inputs(config: ScenarioConfig, insiders, threads: int):
    """The sweep inputs under each of `insiders`, in order, from one coarse
    draw of the validated `config`, whose insider differs from theirs in T0
    at most.  Each RNG block draws, path by path from its own stream, one
    standard normal per chunk and, with a signal, one more for the tail, on
    up to `threads` workers.  The chunks' increments, the checkpoints and
    the tail's draw z do not depend on T0 and are stored once; each input
    has its own scratch and its own signal Y0 = B_T + fl(z
    sqrt(||phi_w||^2_[T,T0])), the last formed in z's row.  Without a
    signal, `insiders` is config's alone."""
    grid = build_grid(config)
    n, seed, weight = config.n_paths, int(config.seed), state_weight(config, grid)
    knots = _checkpoint_knots(weight)
    n_chunks, chunk_weight = len(knots) - 1, weight[list(knots[:-1])]
    scale = np.sqrt(np.diff(grid.knots[list(knots)]))
    checkpoints, increments = np.empty((n_chunks + 1, n)), np.empty((n_chunks, n))
    z = np.empty(n) if config.insider.has_signal() else None

    def draw(cols: slice, gen: np.random.Generator) -> None:
        normals = gen.standard_normal((cols.stop - cols.start, n_chunks + (z is not None))).T
        np.multiply(normals[:n_chunks], scale[:, None], out=increments[:, cols])
        state = checkpoints[:, cols]
        state[0] = 0.0
        for k in range(n_chunks):  # checkpoint + w increment, as a chunk's fill forms its state
            np.multiply(increments[k, cols], chunk_weight[k], out=state[k + 1])
            state[k + 1] += state[k]
        if z is not None:
            z[cols] = normals[n_chunks]

    draw_blocks(seed, n, draw, threads)
    paths = SweepPaths(grid=grid, weight=weight, checkpoint_knots=knots, checkpoints=checkpoints,
                       increments=increments, seed=seed, Y0=z, insider=insiders[-1])
    if z is None:
        yield paths
        return
    b_T = paths.level(grid.index_T)
    for k, insider in enumerate(insiders, 1 - len(insiders)):  # k = 0 at the last
        y0 = np.multiply(z, math.sqrt(phi_norm_sq(insider, grid.T, insider.T0)), out=None if k else z)
        y0 += b_T
        yield replace(paths, Y0=y0, insider=insider) if k else paths


def stream_sweep_paths(config: ScenarioConfig, threads: int = 1) -> SweepPaths:
    """The sweep input of `config`: its coarse draw runs over the RNG blocks
    on up to `threads` workers, and its bytes do not depend on them.  It is
    not sample_paths' ensemble: the same seed draws other paths."""
    validate(config)
    return next(_sweep_inputs(config, [config.insider], threads))


def stream_horizon_paths(config: ScenarioConfig, t0s, threads: int = 1):
    """The sweep inputs of `config` under the signal of its weight at each
    information horizon T0 of `t0s`, in order, from one draw, each equal to
    stream_sweep_paths of `config` with that T0 bit for bit.  Every
    horizon's config is validated here; an iterator that draws on the first
    input asked for."""
    weight = config.insider.phi_weight
    configs = [replace(config, insider=InsiderSpec.enlargement(T0=t0, phi_weight=weight)) for t0 in t0s]
    for cfg in configs:
        validate(cfg)
    return _sweep_inputs(configs[0], [cfg.insider for cfg in configs], threads) if configs else iter(())


def _phitilde(paths: SweepPaths, market: MarketParams):
    """phitilde = iota + phi on step i, as a function (i, out) of i: a
    scalar without a signal, which leaves the row `out` as it is; under one
    a row, written to `out`."""
    m = paths.grid.index_T
    iota_left = iota(market, paths.grid.knots[:m])
    if paths.Y0 is None:
        return lambda i, out: iota_left[i]

    def phitilde(i: int, out: np.ndarray) -> np.ndarray:
        return np.add(paths.phi(i), iota_left[i], out=out)

    return phitilde


# -- the multiplicative functional Pi ------------------------------------------


def log_pi_star(paths: SweepPaths, market: MarketParams) -> np.ndarray:
    """Per-path ln Pi(0, T), the left-point sum

        ln Pi(0,T) = sum_i -(r_i + phitilde_i^2/2) dt_i - phitilde_i dWH_i.

    Without a signal phitilde = iota is the state's weight, so the last sum
    is the state at T and no chunk is filled.  Under one the sum is taken
    step by step in two rows made once, so neither phitilde nor the
    summands are held as an (index_T, n_paths) matrix."""
    grid = paths.grid
    m, dt = grid.index_T, grid.dt
    r = market.r(grid.knots[:m])
    if paths.Y0 is None:
        head = float(np.sum((r + 0.5 * iota(market, grid.knots[:m]) ** 2) * dt))
        return np.subtract(-head, paths.level(m))
    phitilde = _phitilde(paths, market)
    log_pi = np.zeros(paths.n_paths)
    # a step's phitilde and then its summand in one row, -(r + phitilde^2/2) dt in the other
    row, head_row = np.empty((2, paths.n_paths))
    for i in range(m):
        phit = phitilde(i, row)
        head = np.square(phit, out=head_row)
        head *= 0.5
        head += r[i]
        np.negative(head, out=head)
        head *= dt[i]
        np.multiply(phit, paths.dWH(i), out=row)
        np.subtract(head, row, out=row)
        log_pi += row
    return log_pi


# -- Gaussian closed forms -------------------------------------------------------


def _values(fn: PiecewiseConstant, end: float) -> set[float]:
    """The values fn takes on [0, end): those of its pieces that start before end."""
    return {v for b, v in zip(fn.breakpoints, fn.values) if b < end}


def require_gaussian_oracle(market: MarketParams, insider: InsiderSpec) -> None:
    """The preconditions of the Gaussian closed forms, read from values: none
    without a signal; with one, r, mu0 and sigma each of one value on [0, T]
    (`constant_required`) and weight 1 on all of [0, T0] (`unsupported_phi`),
    which v = T0 - T assumes."""
    if insider.has_signal() and any(len(_values(fn, market.T)) > 1 for fn in (market.r, market.mu0, market.sigma)):
        raise ValidationError("constant_required", "the Gaussian closed form needs coefficients constant on [0, T]")
    if insider.has_signal() and _values(insider.phi_weight, insider.T0) != {1.0}:
        raise ValidationError("unsupported_phi", "the Gaussian closed form needs unit signal weight")


def enlargement_normalizer(market: MarketParams, insider: InsiderSpec, y) -> np.ndarray:
    """E[sqrt(Pi(0,T)) | H_0] as a function of the signal y = W_T0.

    Gaussian integration for constant coefficients and unit weight gives

        (T0/v)^{1/4} sqrt(2v/a0) exp{-rT/2 - iota^2 T/8
                                     - (y + iota T/2)^2/(2 a0) + y^2/(4 T0)}

    with v = T0 - T and a0 = 2 T0 - T.
    """
    require_gaussian_oracle(market, insider)
    T, T0 = market.T, float(insider.T0)
    v, a0 = T0 - T, 2.0 * T0 - T
    io, r = iota(market, 0.0), market.r(0.0)
    y = np.asarray(y, dtype=float)
    expo = (
        -0.5 * r * T
        - io**2 * T / 8.0
        - (y + 0.5 * io * T) ** 2 / (2.0 * a0)
        + y**2 / (4.0 * T0)
    )
    return (T0 / v) ** 0.25 * math.sqrt(2.0 * v / a0) * np.exp(expo)


# -- solutions -------------------------------------------------------------------


@dataclass(frozen=True)
class BsdeSolution:
    """What a backward solve on the grid of [0, T] keeps once its sweep is
    done; the sweep hands every knot's rows to an observer as it passes them
    (see _backward_sweep), so no whole field is held unless kept here.

    y0, z0 : (n_paths,) the value (wealth X for the linear equation, L for
             the quadratic one) at knot 0 and the control on step 0, and
    y0_mean: the ordered mean of y0.
    y_T, shift: the quadratic solver's shot L at knot index_T and the
             (n_paths,) row the shot subtracts from the swept L at every
             knot; None for the linear solver.
    `c` is the shot terminal (scalar, or polynomial coefficients in the
    signal under enlargement) for the quadratic solver, and the linear
    solver's normaliser E[sqrt Pi(0,T) | H_0]: the scalar exact for the
    grid's left-point sum without a signal, the per-path Gaussian closed
    form under enlargement.  `residual` is |mean Y_0 - X0| for the linear
    solver and the RMS projected mismatch of L_0 - ln X0 left after the
    shot for the quadratic one; `trace` holds the quadratic solver's two rows
    (iteration, c2, residual, mean L_0): the sweep from ln X0, then the shot.
    """

    y0: np.ndarray
    z0: np.ndarray
    y0_mean: float
    c: object
    residual: float
    y_T: np.ndarray | None = None
    shift: np.ndarray | None = None
    trace: tuple = field(default_factory=tuple)


def solve_linear_closed_form(paths: SweepPaths, market: MarketParams):
    """Exact solution of the linear backward equation, as the function
    knot(i, out) -> (Y_i, Z_i) of the knot index, Z_index_T = None: each
    call evaluates one knot from the sweep input, which it does not write,
    into the two rows `out` (2, n_paths), so no field is held whole.  Y_i is
    written to out[0]; under a signal Z_i to out[1], and without one Z_i =
    c_i Y_i comes back as its factor c_i, for knot_table to reduce from the
    sorted Y_i.

    Without a signal (valid for piecewise-constant coefficients):

        X_t = X0 exp{int_0^t r + (3/8) int_0^t iota^2 + (1/2) int_0^t iota dW}.

    Under enlargement (constant coefficients, unit weight), with
    a_t = 2 T0 - T - t and m_t = Y0 - W_t + iota (T - t) / 2:

        X_t = X0 sqrt(a0/a_t) exp{r t + (3/8) iota^2 t + (1/2) iota W_t
                                  - m_t^2/(2 a_t) + m_0^2/(2 a0)}.

    In both cases Z = sigma pi X with pi the robust fraction; under a signal
    its lines in Y0 - W_t are formed once per solve, not once per knot.
    """
    # with a signal: constant coefficients and unit weight, so B_t is W_t
    require_gaussian_oracle(market, paths.insider)
    grid = paths.grid
    m = grid.index_T
    knots, t_left = grid.knots, grid.knots[:m]
    sig = market.sigma(t_left)

    if paths.Y0 is None:
        io_left = iota(market, t_left)
        cum_r = np.concatenate(([0.0], np.cumsum(market.r(t_left) * grid.dt)))
        cum_io2 = np.concatenate(([0.0], np.cumsum(io_left**2 * grid.dt)))
        drift = cum_r + 0.375 * cum_io2
        sig_pi = sig * pi_no_insider_robust(market, t_left)

        def knot(i: int, out: np.ndarray) -> tuple[np.ndarray, float | None]:
            y = np.multiply(paths.level(i), 0.5, out=out[0])
            y += drift[i]
            np.exp(y, out=y)
            y *= market.X0
            return y, (None if i == m else float(sig_pi[i]))

        return knot

    T, T0 = market.T, float(paths.insider.T0)
    io, r = iota(market, 0.0), market.r(0.0)
    a0 = 2.0 * T0 - T
    a_t = 2.0 * T0 - T - knots
    drift = r * knots + 0.375 * io**2 * knots
    shift = 0.5 * io * (T - knots)
    scale = market.X0 * np.sqrt(a0 / a_t)
    start = (paths.Y0 + 0.5 * io * T) ** 2 / (2.0 * a0)
    # the fraction's lines over the time axis, applied knot by knot
    pi_a, pi_b = closed_form_lines(StrategyKind.SMALL_INSIDER_ROBUST, market, paths.insider, t_left)[:2]

    def knot(i: int, out: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        W = paths.level(i)
        # scale exp{drift + io W / 2 - m_t^2 / (2 a_t) + start}, with m_t in Z's row
        m_t = np.subtract(paths.Y0, W, out=out[1])
        m_t += shift[i]
        np.square(m_t, out=m_t)
        m_t /= 2.0 * a_t[i]
        y = np.multiply(W, 0.5 * io, out=out[0])
        y += drift[i]
        y -= m_t
        y += start
        np.exp(y, out=y)
        y *= scale[i]
        if i == m:
            return y, None
        z = np.subtract(paths.Y0, W, out=m_t)  # sig ((Y0 - W) pi_b + pi_a) Y
        z *= pi_b[i]
        z += pi_a[i]
        z *= sig[i]
        z *= y
        return y, z

    return knot


# -- least-squares regression machinery ------------------------------------------

# total degree of the regression basis in the Markov state, at which the
# family is closed (see _backward_sweep) and _gaussian_moments is written out
_BASIS_ORDER = 2
# paths per partial sum of the sweep's cross-path products, which stays in cache
_PARTIAL = 4096
# degree of the shot terminal c2(Y0) under enlargement; the exact one is
# quadratic for constant coefficients and unit signal weight
_TERMINAL_DEGREE = 2


def _monomials(rows: np.ndarray, x: np.ndarray, y: np.ndarray | None, order: int) -> None:
    """Fill rows with all monomials of total degree <= order in x (and y),
    each degree from the previous one: 1, x, x^2, ... or 1, x, y, x^2, xy, ..."""
    rows[0] = 1.0
    start, size = 0, 1  # the previous degree's rows
    for _ in range(order):
        nxt = start + size
        np.multiply(rows[start:nxt], x, out=rows[nxt : nxt + size])
        if y is not None:
            np.multiply(rows[nxt - 1], y, out=rows[nxt + size])
            size += 1
        start = nxt


def _gaussian_moments(kappa, w, c, signal: bool) -> np.ndarray:
    """The one-step Gaussian law of the state s = (x, y) as maps (..., 2,
    k, k) on the degree-2 basis p of _monomials, for the broadcast rows
    kappa, w, c: given s, with xi ~ N(0, 1),

        x' = x + kappa (y - x) + w sqrt(c) xi,   y' = y,   dWH = sqrt(c) xi,
        M p(s) = E[p(s') | s],   N p(s) = E[p(s') dWH | s] = w c E[d_x p(s') | s]

    (Stein's lemma).  With mu = x + kappa (y - x), p = (1, x, y, x^2, xy,
    y^2) has E[p(s') | s] = (1, mu, y, mu^2 + w^2 c, mu y, y^2) and d_x p =
    (0, 1, 0, 2x, y, 0).  Without a signal kappa = 0 and p = (1, x, x^2)."""
    kappa, w, c = np.broadcast_arrays(kappa, w, c)
    a, g = 1.0 - kappa, w * c
    maps = np.zeros(kappa.shape + (2, 6, 6))
    M, N = maps[..., 0, :, :], maps[..., 1, :, :]
    M[..., 0, 0] = M[..., 2, 2] = M[..., 5, 5] = 1.0
    M[..., 1, 1], M[..., 1, 2] = a, kappa
    M[..., 3, 0], M[..., 3, 3], M[..., 3, 4], M[..., 3, 5] = w * g, a * a, 2.0 * a * kappa, kappa * kappa
    M[..., 4, 4], M[..., 4, 5] = a, kappa
    for row, prime, factor in ((1, 0, 1.0), (3, 1, 2.0), (4, 2, 1.0)):  # d_x: x -> 1, x^2 -> 2x, xy -> y
        N[..., row, :] = (factor * g)[..., None] * M[..., prime, :]
    basis = slice(None) if signal else [0, 1, 3]
    return maps[..., basis, :][..., basis]


def _step_moments(paths: SweepPaths) -> np.ndarray:
    """(index_T, 2, k, k): M_i and N_i / dt_i of _gaussian_moments on step i
    of the sweep input, where the state moves by w_i dW_i, and dW_i given
    s_i has mean phi_i dt_i (signal_drift's) and variance c_i = dt_i (1 -
    kappa_i), kappa_i = w_i^2 dt_i / ||phi_w||^2_[t_i,T0] (0 without a signal)."""
    grid, w, signal = paths.grid, paths.weight, paths.Y0 is not None
    # signal_drift at y - x = 1 is w_i / ||phi_w||^2_[t_i,T0]
    kappa = w * grid.dt * signal_drift(grid, paths.insider)(1.0, 0.0) if signal else 0.0
    maps = _gaussian_moments(kappa, w, grid.dt * (1.0 - kappa), signal)
    maps[:, 1] /= grid.dt[:, None, None]
    return maps


def _factor(design: np.ndarray, t: float, gram: np.ndarray) -> np.ndarray:
    """G^-1 for the Gram matrix `gram` = G = design @ design.T of the
    (k, n_paths) design as built, which the caller forms, and 0 on its zero
    rows (RMS over paths <= 1e-12); the design is not written.  Fitted values
    of y are  G^-1 (design @ y) @ design.

    G is equilibrated by its own diagonal, S G S with S = diag(G)^(-1/2) on
    the nonzero rows, which is within a factor k of the best diagonal
    scaling (van der Sluis); G^-1 = S (S G S)^-1 S.  Cholesky of S G S
    completes when 20 k^(3/2) eps cond(S G S) < 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10): the rank counts its
    eigenvalues above that fraction of the largest.  A design whose powers
    overflow gives a G that is not finite, refused as `solution_finite`."""
    require_finite("solution_finite", f"the regression Gram matrix at t={t}", gram)
    sum_sq = np.diag(gram)
    keep = sum_sq > 1e-24 * design.shape[1]
    unscale = np.sqrt(sum_sq[keep])
    outer = np.outer(unscale, unscale)
    equilibrated = gram[np.ix_(keep, keep)] / outer
    eig = np.linalg.eigvalsh(equilibrated)
    k = len(eig)
    rank = int(np.count_nonzero(eig > 20.0 * k**1.5 * np.finfo(float).eps * eig[-1]))
    if rank < k:
        cond = math.sqrt(eig[-1] / eig[0]) if eig[0] > 0 else math.inf
        raise RegressionError(t=t, rank=rank, n_columns=k, cond=cond)
    inv_chol = np.linalg.inv(np.linalg.cholesky(equilibrated))
    inv_gram = np.zeros_like(gram)
    inv_gram[np.ix_(keep, keep)] = (inv_chol.T @ inv_chol) / outer
    return inv_gram


def _backward_sweep(paths: SweepPaths, terminal, driver, observe) -> tuple[np.ndarray, np.ndarray]:
    """One explicit backward Euler pass with regression later (Glasserman &
    Yu, MCQMC 2002; Bender & Steiner, Numerical Methods in Finance, 2012):

        L_{i+1} ~ alpha . p(s_{i+1}),  least squares on knot i + 1's basis,
        Z_i = E[L_{i+1} dWH_i | s_i] / dt_i = (w_i c_i / dt_i) E[d_x L_{i+1} | s_i],
        L_i = E[L_{i+1} | s_i] + driver(i, Z_i) dt_i,     L_m = terminal,

    with p the monomials of degree <= _BASIS_ORDER in the state s_i
    (paths.level(i), plus the signal if any).  Both expectations are exact
    for the fitted polynomial: alpha @ _step_moments(paths)[i], evaluated on
    knot i's basis in one product.  At degree 2 the family is closed (Z is
    affine, so the drivers keep L quadratic) and every fit but the
    terminal's is exact to rounding.  Each knot's basis is built once; one
    product of the rows [basis; L_i], summed _PARTIAL paths at a time, gives
    its Gram and basis @ L_i; driver(i, Z_i, out) writes the step's driver
    to one more row of the sweep's, so no step allocates a path-sized row.
    observe(i, L_i, Z_i, work) is called for i = index_T, ..., 0 (Z_index_T
    = None) once knot i is fitted, where `work` is knot i's basis, the same
    (k, n_paths) block at every knot (k = 3, or 6 with a signal): its rows
    are free from the fit until the next knot's basis is built over them, so
    the observer may write any of them.  L_i and Z_i are then reused, so an
    observer reduces or copies them, and may write them in place.  Returns
    copies of knot 0's rows as the observer left them.
    """
    grid, signal, m = paths.grid, paths.Y0, paths.grid.index_T
    maps = _step_moments(paths)
    k = maps.shape[-1]
    rows = np.empty((k + 3, paths.n_paths))  # a knot's basis, then L, Z and the driver step there
    design, l, z, step = rows[:k], rows[k], rows[k + 1], rows[k + 2]
    l[:] = terminal
    _monomials(design, paths.level(m), signal, _BASIS_ORDER)
    for i in range(m, 0, -1):
        cross = sum(rows[: k + 1, lo : lo + _PARTIAL] @ design[:, lo : lo + _PARTIAL].T
                    for lo in range(0, paths.n_paths, _PARTIAL))
        alpha = _factor(design, grid.knots[i], cross[:k]) @ cross[k]
        observe(i, l, z if i < m else None, design)  # knot i and its basis are read no more
        _monomials(design, paths.level(i - 1), signal, _BASIS_ORDER)
        np.matmul(alpha @ maps[i - 1], design, out=rows[k : k + 2])
        driver(i - 1, z, step)
        step *= grid.dt[i - 1]
        l += step
    observe(0, l, z, design)
    return l.copy(), z.copy()


def _driver(paths: SweepPaths, market: MarketParams, a, b, c):
    """f(i, z, out) = z (a z + b phitilde) + c phitilde^2 - r for per-step
    rows or constants a, b, c, with the r row and phitilde formed once per
    solve, written to the row `out`.  A step forms the tail c phitilde^2 - r
    first, then b phitilde in the phitilde row: with a signal, eight
    whole-path operations, all in place in rows made once per solve.  The
    driver keeps these two rows of its own, since the sweep's basis rows are
    in use while it runs."""
    m = paths.grid.index_T
    a, b, c = (np.broadcast_to(x, (m,)) for x in (a, b, c))
    r = market.r(paths.grid.knots[:m])
    phitilde = _phitilde(paths, market)
    # phitilde and the tail are scalars without a signal
    phit_row, tail_row = (None, None) if paths.Y0 is None else np.empty((2, paths.n_paths))

    def f(i: int, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        phit = phitilde(i, phit_row)
        tail = np.multiply(c[i], phit, out=tail_row)
        tail *= phit
        tail -= r[i]
        phit *= b[i]
        out = np.multiply(a[i], z, out=out)
        out += phit
        out *= z
        out += tail
        return out

    return f


def _finite_solution(solve):
    """An LSMC solver run with numpy's overflow, invalid and divide warnings
    off, the observer's reductions included.  Each (Y_i, Z_i) the solver
    hands to the observer is checked as it is made, but a solution with a
    value (a row, the terminal or normaliser, the residual) that is not
    finite is refused as `solution_finite` only once the solve is over, so a
    RegressionError later in the sweep keeps its precedence: an overflow on
    the way shows there as an infinity or a nan."""

    @functools.wraps(solve)
    def checked(paths: SweepPaths, market: MarketParams, observe=None) -> BsdeSolution:
        finite = True

        def checked_observe(i: int, y: np.ndarray, z: np.ndarray | None, work: np.ndarray) -> None:
            nonlocal finite
            finite = finite and bool(np.isfinite(y).all()) and (z is None or bool(np.isfinite(z).all()))
            if observe is not None:
                observe(i, y, z, work)

        with quiet():
            sol = solve(paths, market, checked_observe)
        what = f"the {solve.__name__} solution"
        if not finite:
            raise ValidationError("solution_finite", f"{what} is not a finite float")
        require_finite("solution_finite", what, sol.c, sol.residual)
        return sol

    return checked


@_finite_solution
def solve_linear_lsmc(paths: SweepPaths, market: MarketParams, observe) -> BsdeSolution:
    """Explicit backward Euler with regression for the linear equation,
    integrated in logarithmic coordinates; observe(i, Y_i, Z_i, work)
    reads, and does not write, each knot's wealth and control rows as
    _backward_sweep hands them on, with its work rows.

    The unknown X is positive with exponential spread across paths (it loses
    finite variance as T0 approaches 2T), so least-squares fits of X levels
    are tail-dominated and polynomial bases cannot track the surface.  Its
    logarithm L = ln X is affine in the state without a signal; with one it
    is a quadratic polynomial in the state only when iota/phi_w is constant
    and nonzero on [0, T] (e.g. unit weight, constant coefficients): at a jump
    of iota/phi_w the state coefficient -iota/(2 phi_w) - cross/(2S) jumps
    while ln X is continuous, and where phi_w = 0, B_t is frozen while ln X
    moves with iota/2 dWH.  There the transformed dynamics

        dL_t = (r_t + phitilde_t zeta_t - zeta_t^2 / 2) dt + zeta_t dWH_t,
        zeta = z / X,

    stay inside the polynomial family step by step.  The backward sweep runs
    on (L, zeta) with driver -(r + phitilde zeta - zeta^2/2), the member
    (a, b, c) = (1/2, -1, 0) of _driver's family, and each knot's rows are
    turned into (Y, Z) = (exp L, zeta exp L) in place.  The terminal uses the
    pathwise Pi(0,T) and the conditional normaliser in log space.  Without
    a signal, sum_i iota_i dW_i is N(0, sum_i iota_i^2 dt_i), so the
    left-point sum has the exact ln E[sqrt Pi(0,T)] = -(1/2) sum_i r_i dt_i
    - (1/8) sum_i iota_i^2 dt_i on the grid; under enlargement the
    normaliser is the Gaussian closed form.
    """
    log_pi_T = log_pi_star(paths, market)
    if paths.Y0 is None:
        t_left = paths.grid.knots[: paths.grid.index_T]
        log_norm = -float(np.sum((0.5 * market.r(t_left) + 0.125 * iota(market, t_left) ** 2) * paths.grid.dt))
        normalizer = float(np.exp(log_norm))  # 0 once it underflows; the terminal stays in log space
    else:
        normalizer = enlargement_normalizer(market, paths.insider, paths.Y0)
        log_norm = np.log(normalizer)
    require_finite("solution_finite", "the log normaliser", log_norm)
    terminal = math.log(market.X0) - log_norm - 0.5 * log_pi_T

    def to_wealth(i: int, y: np.ndarray, z: np.ndarray | None, work: np.ndarray) -> None:
        np.exp(y, out=y)  # L -> Y = exp(L), so exp(L) never sits beside L
        if z is not None:
            z *= y  # zeta -> Z = zeta Y
        observe(i, y, z, work)

    y0, z0 = _backward_sweep(paths, terminal, _driver(paths, market, 0.5, -1.0, 0.0), to_wealth)
    y0_mean = ordered_mean(y0)
    return BsdeSolution(y0=y0, z0=z0, y0_mean=y0_mean, c=normalizer,
                        residual=abs(y0_mean - market.X0))


# -- quadratic equation -----------------------------------------------------------


def _quadratic_driver(paths: SweepPaths, market: MarketParams):
    """f_Q(t, z) with the impact weight k = (sigma - sigma_tilde) /
    (4 (sigma + sigma_tilde)), collected by powers of z and phitilde:

        f_Q = z (a z + b phitilde) + c phitilde^2 - r,
        a = 1/4 - k,  b = -1/2 - 2k,  c = -1/4 - k,

    where a reduces to sigma_tilde / (2 (sigma + sigma_tilde))."""
    t_left = paths.grid.knots[: paths.grid.index_T]
    sig = market.sigma(t_left)
    st = sigma_tilde(market, t_left)
    k = (sig - st) / (4.0 * (sig + st))
    return _driver(paths, market, 0.25 - k, -0.5 - 2.0 * k, -0.25 - k)


def _projected_mismatch(y_design, inv_gram, mismatch) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of the shooting mismatch on the terminal
    basis, and the path-order-insensitive RMS of the projected mismatch."""
    delta = inv_gram @ (y_design @ mismatch)
    return delta, math.sqrt(ordered_mean((delta @ y_design) ** 2))


@_finite_solution
def solve_quadratic_lsmc(paths: SweepPaths, market: MarketParams, observe) -> BsdeSolution:
    """Backward solve of the quadratic equation, its terminal shot so that
    L_0 = ln X0; observe(i, L_i, Z_i, work) reads, and does not write, each
    knot's rows of the sweep from ln X0, before the shot, with the sweep's
    work rows.

    The terminal is a constant c2 without a signal and a polynomial c2(Y0)
    of degree _TERMINAL_DEGREE under enlargement.  f_Q does not read L, and
    the regression basis holds every monomial of the terminal basis, so
    adding c(Y0) to the terminal adds c(Y0) to L at every knot and leaves Z
    as it is.  The shot is therefore exact after one sweep from the terminal
    ln X0: the mismatch L_0 - ln X0 is projected on the terminal basis (its
    ordered mean without a signal) and subtracted from the terminal and from
    L at every knot: knot 0 and the terminal here, any other knot by its
    reader, as the swept row less `shift`.  fl(x - s) is monotone in x, so
    the shot rows are all finite exactly when the shot per-path minimum and
    maximum of the swept rows are.  The residual is what the projection
    finds left: |mean| without a signal, the RMS projected mismatch with one.
    """
    n = paths.n_paths
    ln_x0 = math.log(market.X0)
    degree = 0 if paths.Y0 is None else _TERMINAL_DEGREE
    y_design = np.empty((degree + 1, n))
    _monomials(y_design, paths.Y0, None, degree)
    inv_gram = _factor(y_design, 0.0, y_design @ y_design.T)
    coef = np.zeros(degree + 1)
    coef[0] = ln_x0
    lo, hi = np.full(n, ln_x0), np.full(n, ln_x0)

    def bound(i: int, l: np.ndarray, z: np.ndarray | None, work: np.ndarray) -> None:
        np.minimum(lo, l, out=lo)
        np.maximum(hi, l, out=hi)
        observe(i, l, z, work)

    y0, z0 = _backward_sweep(paths, np.full(n, ln_x0), _quadratic_driver(paths, market), bound)

    def trace_row(iteration: int) -> tuple[tuple, np.ndarray]:
        """(iteration, c2, residual, mean L_0), and the mismatch's coefficients."""
        l0 = ordered_mean(y0)
        if paths.Y0 is None:
            resid = l0 - ln_x0  # the trace keeps its sign
            return (iteration, float(coef[0]), resid, l0), np.array([resid])
        delta, resid = _projected_mismatch(y_design, inv_gram, y0 - ln_x0)
        return (iteration, tuple(coef.tolist()), resid, l0), delta

    swept, delta = trace_row(0)
    coef -= delta
    shift = delta @ y_design
    y0 -= shift
    shot, _ = trace_row(1)
    require_finite("solution_finite", "the solve_quadratic_lsmc solution", lo - shift, hi - shift)
    return BsdeSolution(y0=y0, z0=z0, y0_mean=shot[3], c=shot[1], residual=abs(shot[2]),
                        y_T=ln_x0 - shift, shift=shift, trace=(swept, shot))


# -- controls and reductions --------------------------------------------------------


def _controls(z, phit, sig, st):
    """(pi, theta) from the quadratic control z = sigma pi + theta and
    phitilde; the arrays broadcast, so this serves one knot or all of them.

        pi = (z + phitilde)/(sigma + sigma_tilde),
        theta = (sigma_tilde z - sigma phitilde)/(sigma + sigma_tilde),

    so that sigma pi + theta = z and theta = sigma_tilde pi - phitilde hold
    exactly.
    """
    return (z + phit) / (sig + st), (st * z - sig * phit) / (sig + st)


def initial_controls(
    sol: BsdeSolution, market: MarketParams, paths: SweepPaths
) -> tuple[np.ndarray, np.ndarray]:
    """The controls (pi, theta) implied by a quadratic backward solution at
    knot 0, on every path of the sweep input `paths` it was solved on; see
    _controls."""
    t_left = paths.grid.knots[: paths.grid.index_T]
    sig, st = market.sigma(t_left), sigma_tilde(market, t_left)
    phit = _phitilde(paths, market)(0, np.empty(paths.n_paths))
    return _controls(sol.z0, phit, sig[0], st[0])


def value_from_bsde(sol: BsdeSolution) -> tuple[float, float]:
    """Game value estimate E[L_T] of a quadratic solution, from its shot row y_T, with its standard error."""
    return mean_se(sol.y_T)


KNOT_HEADER = ["t", "mean_Y", "mean_Z", "oracle_Y", "oracle_Z", "rmse_Y"]


def knot_table(t: float, y: np.ndarray, z: np.ndarray | None, oracle, work: np.ndarray) -> list:
    """The row of the knot table (KNOT_HEADER) at knot time t, from that
    knot's value row y and control row z, and the oracle's pair (Y_i, Z_i):
    t, mean Y, mean Z, oracle Y, oracle Z and the RMSE of y against the
    oracle, with means that do not depend on path order.  A cell without its
    row (Z at the last knot, the oracle's Z there) is blank.  An oracle Z
    given as a number c stands for the row c Y_i (solve_linear_closed_form's
    without a signal).  Every sort and the RMSE's gap row go to the one row
    `work` (n_paths floats, overwritten); y, z and the oracle's rows are not
    written."""
    mean_y = ordered_mean(y, work)
    mean_z = "" if z is None else ordered_mean(z, work)
    o_y, o_z = oracle
    # squared after an exact power-of-two scaling, so that no square
    # overflows, and sorted as ordered_mean sorts: all in the one row gap
    gap = np.subtract(y, o_y, out=work)
    unit = math.ldexp(1.0, math.frexp(max(float(gap.max()), -float(gap.min())))[1])
    gap /= unit
    np.square(gap, out=gap)
    gap.sort()
    rmse = unit * math.sqrt(float(gap.sum()) / len(gap))
    mean_oy = ordered_mean(o_y, gap)  # gap now holds the sorted Y_i
    if o_z is None:
        mean_oz = ""
    elif np.ndim(o_z):
        mean_oz = ordered_mean(o_z, gap)
    else:
        # rounding is monotone, so the sorted fl(c y) is fl(c sorted y), in
        # reverse order when c < 0: ordered_mean of c Y_i without a sort
        np.multiply(gap, o_z, out=gap)
        mean_oz = float((gap[::-1] if o_z < 0.0 else gap).sum()) / len(gap)
    return [float(t), mean_y, mean_z, mean_oy, mean_oz, rmse]
