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
so that L_0 = ln X0.  Controls are recovered via pi = (z + phitilde) /
(sigma + sigma_tilde), theta = (sigma_tilde z - sigma phitilde) /
(sigma + sigma_tilde).

Both numerical solvers are explicit backward Euler schemes with conditional
expectations estimated by polynomial least-squares regression on the Markov
state (the running noise level, plus the signal under enlargement).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import InsiderSpec, MarketParams, ScenarioConfig, iota, sigma_tilde, validate
from .paths import PathBatch, TimeGrid, build_grid, signal_drift, stream_paths
from .simulate import mean_se, ordered_mean
from .strategies import StrategyKind, StrategyProfile, _pi_small_robust_line, pi_no_insider_robust

__all__ = [
    "RegressionError",
    "ShootingError",
    "PiStarFunctional",
    "SweepPaths",
    "BsdeSolution",
    "stream_sweep_paths",
    "pi_star_functional",
    "enlargement_normalizer",
    "solve_linear_closed_form",
    "solve_linear_lsmc",
    "solve_quadratic_lsmc",
    "recover_controls",
    "initial_controls",
    "value_from_bsde",
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


class ShootingError(RuntimeError):
    """Terminal-constant shooting failed to converge."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"shooting residual {residual:.3e} after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


# -- the sweep input -------------------------------------------------------------


@dataclass(frozen=True)
class SweepPaths:
    """The paths as the backward solvers read them, knot-major, so that the
    values of one knot across all paths are one contiguous row.

    level : (index_T + 1, n_paths) regression state at the knots of [0, T]:
            the running signal B_t = int_0^t phi_w dW, or W_t without a signal.
    dWH   : (index_T, n_paths) enlarged-filtration increments on [0, T].
    Y0    : (n_paths,) the signal, None without one.

    Neither the (T, T0] tail of dW nor the information drift is held: step
    i's drift is formed from the state when it is needed.
    """

    grid: TimeGrid
    level: np.ndarray
    dWH: np.ndarray
    Y0: np.ndarray | None

    @property
    def n_paths(self) -> int:
        return self.dWH.shape[1]


def _allocate_sweep(grid: TimeGrid, insider: InsiderSpec, n: int) -> SweepPaths:
    m = grid.index_T
    y0 = np.empty(n) if insider.has_signal() else None
    return SweepPaths(grid=grid, level=np.empty((m + 1, n)), dWH=np.empty((m, n)), Y0=y0)


def _fill_sweep_rows(paths: SweepPaths, rows: slice, batch: PathBatch) -> None:
    """Write `batch`, which holds paths `rows`, into `paths`."""
    paths.level[:, rows] = batch.level.T
    paths.dWH[:, rows] = batch.dWH.T
    if paths.Y0 is not None:
        paths.Y0[rows] = batch.Y0


def stream_sweep_paths(config: ScenarioConfig, threads: int = 1) -> SweepPaths:
    """The sweep input of sample_paths(config), bit for bit, built one RNG
    block at a time on up to `threads` workers: a whole PathBatch is never
    held."""
    validate(config)
    grid = build_grid(config)
    paths = _allocate_sweep(grid, config.insider, config.n_paths)
    stream_paths(config, grid, functools.partial(_fill_sweep_rows, paths), threads)
    return paths


def _as_sweep_paths(paths) -> SweepPaths:
    """The sweep input of a SweepPaths or of a PathBatch."""
    if isinstance(paths, SweepPaths):
        return paths
    sweep = _allocate_sweep(paths.grid, paths.insider, paths.n_paths)
    _fill_sweep_rows(sweep, slice(None), paths)
    return sweep


def _phitilde(paths: SweepPaths, market: MarketParams, insider: InsiderSpec):
    """phitilde = iota + phi on step i, as a function of i; signal_drift forms
    the drift from the state, as information_drift does for a batch."""
    m = paths.grid.index_T
    iota_left = iota(market, paths.grid.knots[:m])
    if paths.Y0 is None:
        return lambda i: iota_left[i]
    drift = signal_drift(paths.grid, insider)

    def phitilde(i: int) -> np.ndarray:
        phit = drift(paths.Y0, paths.level[i], i)
        phit += iota_left[i]
        return phit

    return phitilde


# -- the multiplicative functional Pi ------------------------------------------


@dataclass(frozen=True)
class PiStarFunctional:
    """Per-path Pi(t1, t2) via its additive exponent at the knots of [0, T].

    Multiplicativity Pi(t1,t3) = Pi(t1,t2) * Pi(t2,t3) holds exactly on the
    grid because the exponent is additive.
    """

    grid: object
    exponent: np.ndarray  # (n_paths, index_T + 1), exponent[:, 0] = 0

    def values(self, t1: float, t2: float) -> np.ndarray:
        if t2 < t1:
            raise ValueError(f"need t1 <= t2, got [{t1}, {t2}]")
        i, j = self.grid.index_of(t1), self.grid.index_of(t2)
        return np.exp(self.exponent[:, j] - self.exponent[:, i])


def _log_pi_increments(grid: TimeGrid, market: MarketParams, phitilde, dWH):
    """Per-path increment of the exponent of Pi over each step of [0, T] in
    turn, -(r + phitilde^2/2) dt - phitilde dWH at left points, where
    phitilde(i) and dWH[i] are step i's values across paths."""
    m = grid.index_T
    dt = grid.dt[:m]
    r = market.r(grid.knots[:m])
    for i in range(m):
        phit = phitilde(i)
        yield -(r[i] + 0.5 * phit**2) * dt[i] - phit * dWH[i]


def pi_star_functional(batch: PathBatch, market: MarketParams) -> PiStarFunctional:
    """Left-point discretisation of
    Pi(t1,t2) = exp{-int r ds - int phitilde dWH - 1/2 int phitilde^2 ds}."""
    m = batch.grid.index_T
    phit = (iota(market, batch.grid.knots[:m]) + batch.phi).T
    increments = _log_pi_increments(batch.grid, market, lambda i: phit[i], batch.dWH.T)
    expo = np.zeros((batch.n_paths, m + 1))
    for i, incr in enumerate(increments):
        np.add(expo[:, i], incr, out=expo[:, i + 1])
    return PiStarFunctional(grid=batch.grid, exponent=expo)


# -- Gaussian closed forms -------------------------------------------------------


def enlargement_normalizer(market: MarketParams, insider: InsiderSpec, y) -> np.ndarray:
    """E[sqrt(Pi(0,T)) | H_0] as a function of the signal y = W_T0.

    Gaussian integration for constant coefficients and unit weight gives

        (T0/v)^{1/4} sqrt(2v/a0) exp{-rT/2 - iota^2 T/8
                                     - (y + iota T/2)^2/(2 a0) + y^2/(4 T0)}

    with v = T0 - T and a0 = 2 T0 - T.
    """
    market.require_constant("the Gaussian closed form")
    insider.require_unit_weight("the Gaussian closed form")
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
    """Backward-solved fields on the grid of [0, T].

    Y (n_paths, index_T + 1) holds the value at every knot (wealth X for the
    linear equation, L for the quadratic one); Z (n_paths, index_T) the
    control on every step.  The solvers store both knot-major and return
    Y and Z as transposed views, so a knot's column Y[:, i] is contiguous.
    `c` is the shooting constant (scalar, or polynomial coefficients in the
    signal under enlargement; the Monte-Carlo normaliser for the linear
    solver).  `residual` is |Y_0 - target| and `trace` the shooting
    iterations.
    """

    grid: object
    Y: np.ndarray
    Z: np.ndarray
    c: object
    residual: float
    trace: tuple = field(default_factory=tuple)


def solve_linear_closed_form(
    paths, market: MarketParams, insider: InsiderSpec, out=None
) -> BsdeSolution:
    """Exact solution of the linear backward equation on a PathBatch (or
    SweepPaths), evaluated knot by knot into the knot-major pair `out`,
    (index_T + 1, n_paths) and (index_T, n_paths), or a new one.  `out` may
    be (paths.level, paths.dWH) of a SweepPaths that is not needed again:
    each knot's input is read before that knot is written.

    Without a signal (valid for piecewise-constant coefficients):

        X_t = X0 exp{int_0^t r + (3/8) int_0^t iota^2 + (1/2) int_0^t iota dW}.

    Under enlargement (constant coefficients, unit weight), with
    a_t = 2 T0 - T - t and m_t = Y0 - W_t + iota (T - t) / 2:

        X_t = X0 sqrt(a0/a_t) exp{r t + (3/8) iota^2 t + (1/2) iota W_t
                                  - m_t^2/(2 a_t) + m_0^2/(2 a0)}.
    """
    paths = _as_sweep_paths(paths)
    grid = paths.grid
    m = grid.index_T
    knots = grid.knots[: m + 1]
    t_left = grid.knots[:m]
    sig = market.sigma(t_left)

    if paths.Y0 is None:
        dt = grid.dt[:m]
        io_left = iota(market, t_left)
        cum_r = np.concatenate(([0.0], np.cumsum(market.r(t_left) * dt)))
        cum_io2 = np.concatenate(([0.0], np.cumsum(io_left**2 * dt)))
        drift = cum_r + 0.375 * cum_io2
        sig_pi = sig * pi_no_insider_robust(market, t_left)
        normalizer = math.exp(-0.5 * cum_r[-1] - cum_io2[-1] / 8.0)
    else:
        # the normaliser checks constant coefficients and unit weight first,
        # so the running signal B_t is W_t
        normalizer = enlargement_normalizer(market, insider, paths.Y0)
        T, T0 = market.T, float(insider.T0)
        io, r = iota(market, 0.0), market.r(0.0)
        a0 = 2.0 * T0 - T
        a_t = 2.0 * T0 - T - knots
        drift = r * knots + 0.375 * io**2 * knots
        shift = 0.5 * io * (T - knots)
        scale = market.X0 * np.sqrt(a0 / a_t)
        start = (paths.Y0 + 0.5 * io * T) ** 2 / (2.0 * a0)
        intercept, slope = _pi_small_robust_line(market, insider, t_left)

    Y, Z = _sweep_pair(paths) if out is None else out
    cum_iodW = np.zeros(paths.n_paths)  # int_0^t iota dW without a signal
    for i in range(m + 1):
        if paths.Y0 is None:
            y = market.X0 * np.exp(drift[i] + 0.5 * cum_iodW)
            if i < m:
                cum_iodW += io_left[i] * paths.dWH[i]
                Z[i] = sig_pi[i] * y
        else:
            W = paths.level[i]
            m_t = paths.Y0 - W + shift[i]
            y = scale[i] * np.exp(drift[i] + 0.5 * io * W - m_t**2 / (2.0 * a_t[i]) + start)
            if i < m:
                pi = np.subtract(paths.Y0, W)  # pi_small_insider_robust on this knot
                pi *= slope[i]
                pi += intercept[i]
                Z[i] = sig[i] * pi * y
        Y[i] = y
    residual = abs(mean_se(Y[0])[0] - market.X0)
    return BsdeSolution(grid=grid, Y=Y.T, Z=Z.T, c=normalizer, residual=residual)


# -- least-squares regression machinery ------------------------------------------


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


def _factor(design: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale the (k, n_paths) design's rows in place to unit max-abs; return
    (scale, G^-1) for the Gram matrix G of the nonzero rows, via Cholesky and
    0 on zero rows.  Fitted values of y are  G^-1 (design @ y) @ design.
    Cholesky completes when 20 k^(3/2) eps cond(G) < 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10): the rank counts the Gram
    eigenvalues above that fraction of the largest."""
    scale = np.maximum(design.max(axis=1), -design.min(axis=1))
    keep = scale > 1e-12
    keep[0] = True
    scale = np.where(keep, scale, 1.0)
    design /= scale[:, None]
    gram = (design @ design.T)[np.ix_(keep, keep)]
    eig = np.linalg.eigvalsh(gram)
    k = len(eig)
    rank = int(np.count_nonzero(eig > 20.0 * k**1.5 * np.finfo(float).eps * eig[-1]))
    if rank < k:
        cond = math.sqrt(eig[-1] / eig[0]) if eig[0] > 0 else math.inf
        raise RegressionError(t=t, rank=rank, n_columns=k, cond=cond)
    inv_chol = np.linalg.inv(np.linalg.cholesky(gram))
    inv_gram = np.zeros((len(keep), len(keep)))
    inv_gram[np.ix_(keep, keep)] = inv_chol.T @ inv_chol
    return scale, inv_gram


def _backward_sweep(paths: SweepPaths, terminal, driver, basis_order, factors, L, Z) -> None:
    """One explicit backward Euler pass with regression (Gobet, Lemor & Warin):

        Z_i = E[(L_{i+1} - E[L_{i+1}|s_i]) dWH_i | s_i] / dt_i,
        L_i = E[L_{i+1}|s_i] + driver(i, Z_i) dt_i,     L_m = terminal,

    on the state s_i (paths.level[i], plus the signal if any), written into
    the caller's knot-major L (index_T + 1, n_paths) and Z (index_T, n_paths),
    so shooting passes reuse one pair.  The design does not depend on the
    terminal, so `factors[i]` (None until the first pass) keeps step i's
    factor across passes.
    """
    grid = paths.grid
    m = grid.index_T
    signal = paths.Y0
    n_rows = basis_order + 1 if signal is None else (basis_order + 1) * (basis_order + 2) // 2
    design = np.empty((n_rows, paths.n_paths))

    L[m] = l_next = terminal
    for i in range(m - 1, -1, -1):
        _monomials(design, paths.level[i], signal, basis_order)
        if factors[i] is None:
            factors[i] = _factor(design, grid.knots[i])
        else:
            design /= factors[i][0][:, None]
        inv_gram = factors[i][1]
        l_hat = inv_gram @ (design @ l_next) @ design
        z = inv_gram @ (design @ ((l_next - l_hat) * paths.dWH[i])) @ design / grid.dt[i]
        L[i] = l_next = l_hat + driver(i, z) * grid.dt[i]
        Z[i] = z


def _sweep_pair(paths: SweepPaths) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised knot-major (L, Z) for _backward_sweep."""
    m, n = paths.grid.index_T, paths.n_paths
    return np.empty((m + 1, n)), np.empty((m, n))


def solve_linear_lsmc(
    paths,
    market: MarketParams,
    insider: InsiderSpec,
    basis_order: int = 3,
) -> BsdeSolution:
    """Explicit backward Euler with regression for the linear equation,
    integrated in logarithmic coordinates, on a PathBatch or SweepPaths.

    The unknown X is positive with exponential spread across paths (it loses
    finite variance as T0 approaches 2T), so least-squares fits of X levels
    are tail-dominated and polynomial bases cannot track the surface.  Its
    logarithm L = ln X, however, is a quadratic polynomial in the Markov
    state for every Gaussian signal, and the transformed dynamics

        dL_t = (r_t + phitilde_t zeta_t - zeta_t^2 / 2) dt + zeta_t dWH_t,
        zeta = z / X,

    stay inside the polynomial family step by step.  The backward sweep runs
    on (L, zeta) with driver -(r + phitilde zeta - zeta^2/2), and turns them
    into (Y, Z) = (exp L, zeta exp L) in place.  The terminal uses the
    pathwise Pi(0,T); the conditional normaliser is a Monte-Carlo scalar
    without a signal and the Gaussian closed form under enlargement.
    """
    paths = _as_sweep_paths(paths)
    grid = paths.grid
    m = grid.index_T
    phitilde = _phitilde(paths, market, insider)
    # ln Pi(0, T), pi_star_functional's last exponent column, summed in the
    # same order; neither it nor phitilde is held as an (m, n_paths) matrix
    steps = _log_pi_increments(grid, market, phitilde, paths.dWH)
    log_pi_T = next(steps)
    for incr in steps:
        log_pi_T += incr
    if paths.Y0 is None:
        normalizer = mean_se(np.exp(0.5 * log_pi_T))[0]
        log_norm = math.log(normalizer)
    else:
        normalizer = enlargement_normalizer(market, insider, paths.Y0)
        log_norm = np.log(normalizer)
    terminal = math.log(market.X0) - log_norm - 0.5 * log_pi_T
    r = market.r(grid.knots[:m])

    def driver(i, zeta):
        return -(r[i] + phitilde(i) * zeta - 0.5 * zeta**2)

    Y, Z = _sweep_pair(paths)
    _backward_sweep(paths, terminal, driver, basis_order, [None] * m, Y, Z)
    np.exp(Y, out=Y)  # L -> Y = exp(L), so exp(L) never sits beside L
    Z *= Y[:m]  # zeta -> Z = zeta Y
    residual = abs(mean_se(Y[0])[0] - market.X0)
    return BsdeSolution(grid=grid, Y=Y.T, Z=Z.T, c=normalizer, residual=residual)


# -- quadratic equation -----------------------------------------------------------


def _quadratic_driver(paths: SweepPaths, market: MarketParams, insider: InsiderSpec):
    """f_Q(t, z) with the impact weight; its z^2 coefficient 1/4 - k reduces
    to sigma_tilde / (2 (sigma + sigma_tilde))."""
    m = paths.grid.index_T
    t_left = paths.grid.knots[:m]
    sig = market.sigma(t_left)
    st = sigma_tilde(market, t_left)
    r = market.r(t_left)
    k = (sig - st) / (4.0 * (sig + st))
    phitilde = _phitilde(paths, market, insider)

    def f(i: int, z: np.ndarray) -> np.ndarray:
        phit_i = phitilde(i)
        return (
            0.25 * z**2
            - 0.5 * phit_i * z
            - r[i]
            - 0.25 * phit_i**2
            - k[i] * (z + phit_i) ** 2
        )

    return f


def _projected_mismatch(y_design, inv_gram, mismatch) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of the shooting mismatch on the terminal
    basis, and the path-order-insensitive RMS of the projected mismatch."""
    delta = inv_gram @ (y_design @ mismatch)
    return delta, math.sqrt(ordered_mean((delta @ y_design) ** 2))


def solve_quadratic_lsmc(
    paths,
    market: MarketParams,
    insider: InsiderSpec,
    c2_init: float | None = None,
    basis_order: int = 3,
    c2_order: int = 2,
    shoot_tol: float = 1e-3,
    max_iter: int = 50,
) -> BsdeSolution:
    """Backward solve of the quadratic equation with terminal shooting, on a
    PathBatch or SweepPaths.

    Without a signal the terminal is a constant c2 found by secant iteration
    on the initial-value mismatch L_0 - ln X0 (the map c2 -> L_0 is affine
    with unit slope, so this converges immediately up to regression noise).
    Under enlargement the terminal is a polynomial c2(Y0) of degree
    `c2_order`, updated by projecting the mismatch onto the same basis; the
    residual reported is the root-mean-square projected mismatch.  Every
    pass reuses the regression factors and the (L, Z) pair of the first.
    """
    paths = _as_sweep_paths(paths)
    n = paths.n_paths
    ln_x0 = math.log(market.X0)
    trace: list[tuple] = []
    driver = _quadratic_driver(paths, market, insider)
    factors: list[tuple | None] = [None] * paths.grid.index_T
    L, Z = _sweep_pair(paths)

    def sweep(terminal) -> None:
        _backward_sweep(paths, terminal, driver, basis_order, factors, L, Z)

    def solution(c, residual: float) -> BsdeSolution:
        return BsdeSolution(grid=paths.grid, Y=L.T, Z=Z.T, c=c, residual=residual,
                            trace=tuple(trace))

    if paths.Y0 is None:
        c2 = ln_x0 if c2_init is None else float(c2_init)
        prev: tuple[float, float] | None = None
        for iteration in range(max_iter):
            sweep(np.full(n, c2))
            l0 = mean_se(L[0])[0]
            resid = l0 - ln_x0
            trace.append((iteration, c2, resid, l0))
            # c2 moves L_0 one for one: no finer mismatch than c2's float spacing
            achieved = max(abs(resid), float(np.spacing(abs(c2))))
            if achieved <= shoot_tol:
                return solution(c2, abs(resid))
            if prev is None or abs(resid - prev[1]) < 1e-15:
                step = -resid  # unit-slope Newton guess
            else:
                step = -resid * (c2 - prev[0]) / (resid - prev[1])
            prev = (c2, resid)
            c2 += step
        raise ShootingError(residual=achieved, iterations=max_iter)

    # enlargement: polynomial terminal in the signal
    y_design = np.empty((c2_order + 1, n))
    _monomials(y_design, paths.Y0, None, c2_order)
    scale, inv_gram = _factor(y_design, 0.0)
    coef = np.zeros(c2_order + 1)
    coef[0] = ln_x0 if c2_init is None else float(c2_init)
    for iteration in range(max_iter):
        sweep((coef * scale) @ y_design)
        delta, resid = _projected_mismatch(y_design, inv_gram, L[0] - ln_x0)
        c2 = tuple(coef.tolist())
        trace.append((iteration, c2, resid, mean_se(L[0])[0]))
        if resid <= shoot_tol:
            return solution(c2, resid)
        coef = coef - delta / scale
    raise ShootingError(residual=trace[-1][2], iterations=max_iter)


# -- controls and reductions --------------------------------------------------------


def _controls(kind: StrategyKind, z, y, phit, sig, st):
    """(pi, theta) from the control z, the value y and phitilde; the arrays
    broadcast, so this serves one knot or all of them."""
    if kind is StrategyKind.LARGE_INSIDER_ROBUST:
        return (z + phit) / (sig + st), (st * z - sig * phit) / (sig + st)
    pi = z / (sig * y)
    return pi, sig * pi - phit


def recover_controls(
    sol: BsdeSolution,
    market: MarketParams,
    batch: PathBatch,
    kind: StrategyKind,
) -> StrategyProfile:
    """Controls implied by a backward solution.

    Quadratic regimes:  pi = (z + phitilde)/(sigma + sigma_tilde) and
    theta = (sigma_tilde z - sigma phitilde)/(sigma + sigma_tilde), so that
    sigma pi + theta = z and theta = sigma_tilde pi - phitilde hold exactly.
    Linear (small-insider) regimes:  pi = z/(sigma X), theta = sigma pi - phitilde.
    """
    m = batch.grid.index_T
    t_left = batch.grid.knots[:m]
    phit = np.broadcast_to(iota(market, t_left) + batch.phi, (batch.n_paths, m))
    pi, theta = _controls(kind, sol.Z, sol.Y[:, :m], phit, market.sigma(t_left),
                          sigma_tilde(market, t_left))
    return StrategyProfile(kind=kind, pi=pi, theta=theta, grid=batch.grid)


def initial_controls(
    sol: BsdeSolution,
    market: MarketParams,
    paths: SweepPaths,
    insider: InsiderSpec,
    kind: StrategyKind,
) -> tuple[np.ndarray, np.ndarray]:
    """recover_controls' (pi, theta) at knot 0 only, on every path of `paths`."""
    t_left = paths.grid.knots[: paths.grid.index_T]
    sig, st = market.sigma(t_left), sigma_tilde(market, t_left)
    phit = _phitilde(paths, market, insider)(0)
    return _controls(kind, sol.Z[:, 0], sol.Y[:, 0], phit, sig[0], st[0])


def value_from_bsde(sol: BsdeSolution) -> tuple[float, float]:
    """Game value estimate E[L_T] with its standard error."""
    return mean_se(sol.Y[:, -1])


def knot_table(sol: BsdeSolution, oracle: BsdeSolution | None = None) -> tuple[list[str], list[list]]:
    """Per-knot summary rows (t, mean Y, mean Z, oracle Y, oracle Z, RMSE),
    one path column at a time, with means that do not depend on path order."""
    grid = sol.grid
    m = grid.index_T
    header = ["t", "mean_Y", "mean_Z", "oracle_Y", "oracle_Z", "rmse_Y"]
    rows = []
    for i in range(m + 1):
        t = float(grid.knots[i])
        mean_y = ordered_mean(sol.Y[:, i])
        mean_z = ordered_mean(sol.Z[:, i]) if i < m else ""
        if oracle is not None:
            o_y = ordered_mean(oracle.Y[:, i])
            o_z = ordered_mean(oracle.Z[:, i]) if i < m else ""
            rmse = math.sqrt(ordered_mean((sol.Y[:, i] - oracle.Y[:, i]) ** 2))
        else:
            o_y, o_z, rmse = "", "", ""
        rows.append([t, mean_y, mean_z, o_y, o_z, rmse])
    return header, rows
