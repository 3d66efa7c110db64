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

import math
from dataclasses import dataclass, field

import numpy as np

from .model import InsiderKind, InsiderSpec, MarketParams, iota, sigma_tilde
from .paths import PathBatch, partial_signals
from .simulate import mean_se, ordered_mean
from .strategies import StrategyKind, StrategyProfile, pi_small_insider_robust, pi_no_insider_robust

__all__ = [
    "RegressionError",
    "ShootingError",
    "PiStarFunctional",
    "BsdeSolution",
    "pi_star_functional",
    "enlargement_normalizer",
    "solve_linear_closed_form",
    "solve_linear_lsmc",
    "solve_quadratic_lsmc",
    "recover_controls",
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


def _phitilde(batch: PathBatch, market: MarketParams) -> np.ndarray:
    m = batch.grid.index_T
    t_left = batch.grid.knots[:m]
    return iota(market, t_left) + batch.phi


def _log_pi_increments(batch: PathBatch, market: MarketParams):
    """Per-path increment of the exponent of Pi over each step of [0, T] in
    turn, -(r + phitilde^2/2) dt - phitilde dWH at left points."""
    grid = batch.grid
    m = grid.index_T
    dt = grid.dt[:m]
    t_left = grid.knots[:m]
    r, iota_left = market.r(t_left), iota(market, t_left)
    for i in range(m):
        phit = iota_left[i] + batch.phi[:, i]  # column i of _phitilde
        yield -(r[i] + 0.5 * phit**2) * dt[i] - phit * batch.dWH[:, i]


def pi_star_functional(batch: PathBatch, market: MarketParams) -> PiStarFunctional:
    """Left-point discretisation of
    Pi(t1,t2) = exp{-int r ds - int phitilde dWH - 1/2 int phitilde^2 ds}."""
    expo = np.zeros((batch.n_paths, batch.grid.index_T + 1))
    for i, incr in enumerate(_log_pi_increments(batch, market)):
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

    Y holds the value at every knot (wealth X for the linear equation, L for
    the quadratic one); Z the control on every step.  `c` is the shooting
    constant (scalar, or polynomial coefficients in the signal under
    enlargement; the Monte-Carlo normaliser for the linear solver).
    `residual` is |Y_0 - target| and `trace` the shooting iterations.
    """

    grid: object
    Y: np.ndarray
    Z: np.ndarray
    c: object
    residual: float
    trace: tuple = field(default_factory=tuple)


def solve_linear_closed_form(
    batch: PathBatch, market: MarketParams, insider: InsiderSpec
) -> BsdeSolution:
    """Exact solution of the linear backward equation.

    Without a signal (valid for piecewise-constant coefficients):

        X_t = X0 exp{int_0^t r + (3/8) int_0^t iota^2 + (1/2) int_0^t iota dW}.

    Under enlargement (constant coefficients, unit weight), with
    a_t = 2 T0 - T - t and m_t = Y0 - W_t + iota (T - t) / 2:

        X_t = X0 sqrt(a0/a_t) exp{r t + (3/8) iota^2 t + (1/2) iota W_t
                                  - m_t^2/(2 a_t) + m_0^2/(2 a0)}.
    """
    grid = batch.grid
    m = grid.index_T
    knots = grid.knots[: m + 1]
    t_left = grid.knots[:m]
    dt = grid.dt[:m]

    if insider.kind is InsiderKind.NO_INSIDER:
        io_left = iota(market, t_left)
        cum_r = np.concatenate(([0.0], np.cumsum(market.r(t_left) * dt)))
        cum_io2 = np.concatenate(([0.0], np.cumsum(io_left**2 * dt)))
        cum_iodW = np.zeros((batch.n_paths, m + 1))
        np.cumsum(io_left * batch.dW[:, :m], axis=1, out=cum_iodW[:, 1:])
        Y = market.X0 * np.exp(cum_r + 0.375 * cum_io2 + 0.5 * cum_iodW)
        pi = pi_no_insider_robust(market, t_left)[None, :]
        normalizer = math.exp(-0.5 * cum_r[-1] - cum_io2[-1] / 8.0)
    else:
        # the normaliser checks constant coefficients and unit weight first
        normalizer = enlargement_normalizer(market, insider, batch.Y0)
        T, T0 = market.T, float(insider.T0)
        io, r = iota(market, 0.0), market.r(0.0)
        a0 = 2.0 * T0 - T
        a_t = 2.0 * T0 - T - knots
        W = np.zeros((batch.n_paths, m + 1))
        np.cumsum(batch.dW[:, :m], axis=1, out=W[:, 1:])
        y = batch.Y0[:, None]
        m_t = y - W + 0.5 * io * (T - knots)
        expo = (
            r * knots
            + 0.375 * io**2 * knots
            + 0.5 * io * W
            - m_t**2 / (2.0 * a_t)
            + (y + 0.5 * io * T) ** 2 / (2.0 * a0)
        )
        Y = market.X0 * np.sqrt(a0 / a_t) * np.exp(expo)
        pi = pi_small_insider_robust(market, insider, y, W[:, :m], t_left)

    Z = market.sigma(t_left) * pi * Y[:, :m]
    Z = np.broadcast_to(Z, (batch.n_paths, m)).copy()
    Yb = np.broadcast_to(Y, (batch.n_paths, m + 1))
    residual = abs(mean_se(Yb[:, 0])[0] - market.X0)
    return BsdeSolution(grid=grid, Y=Yb, Z=Z, c=normalizer, residual=residual)


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


def _regression_state(batch: PathBatch, insider: InsiderSpec):
    """The Markov state at every knot of [0, T]: the noise level (the running
    signal under enlargement) and the signal, None without one."""
    m = batch.grid.index_T
    if insider.kind is InsiderKind.NO_INSIDER:
        level = np.zeros((batch.n_paths, m + 1))
        np.cumsum(batch.dW[:, :m], axis=1, out=level[:, 1:])
        return level, None
    return partial_signals(batch.grid, batch.dW, insider), batch.Y0


def _backward_sweep(batch, insider, terminal, driver, basis_order, factors, state=None):
    """One explicit backward Euler pass with regression (Gobet, Lemor & Warin):

        Z_i = E[(L_{i+1} - E[L_{i+1}|s_i]) dWH_i | s_i] / dt_i,
        L_i = E[L_{i+1}|s_i] + driver(i, Z_i) dt_i,     L_m = terminal,

    on the state s_i (noise level at knot i, plus the signal if any).  The
    design does not depend on the terminal, so `factors[i]` (None until the
    first pass) keeps step i's factor across passes, and `state` (built here
    when None) the `_regression_state`.
    """
    grid = batch.grid
    m = grid.index_T
    level, signal = _regression_state(batch, insider) if state is None else state
    n_rows = basis_order + 1 if signal is None else (basis_order + 1) * (basis_order + 2) // 2
    design = np.empty((n_rows, batch.n_paths))

    L = np.empty((m + 1, batch.n_paths))  # knot-major: one contiguous row per step
    Z = np.empty((m, batch.n_paths))
    L[m] = l_next = terminal
    for i in range(m - 1, -1, -1):
        _monomials(design, np.ascontiguousarray(level[:, i]), signal, basis_order)
        if factors[i] is None:
            factors[i] = _factor(design, grid.knots[i])
        else:
            design /= factors[i][0][:, None]
        inv_gram = factors[i][1]
        l_hat = inv_gram @ (design @ l_next) @ design
        z = inv_gram @ (design @ ((l_next - l_hat) * batch.dWH[:, i])) @ design / grid.dt[i]
        L[i] = l_next = l_hat + driver(i, z) * grid.dt[i]
        Z[i] = z
    return L.T, Z.T


def solve_linear_lsmc(
    batch: PathBatch,
    market: MarketParams,
    insider: InsiderSpec,
    basis_order: int = 3,
) -> BsdeSolution:
    """Explicit backward Euler with regression for the linear equation,
    integrated in logarithmic coordinates.

    The unknown X is positive with exponential spread across paths (it loses
    finite variance as T0 approaches 2T), so least-squares fits of X levels
    are tail-dominated and polynomial bases cannot track the surface.  Its
    logarithm L = ln X, however, is a quadratic polynomial in the Markov
    state for every Gaussian signal, and the transformed dynamics

        dL_t = (r_t + phitilde_t zeta_t - zeta_t^2 / 2) dt + zeta_t dWH_t,
        zeta = z / X,

    stay inside the polynomial family step by step.  The backward sweep runs
    on (L, zeta) with driver -(r + phitilde zeta - zeta^2/2), and
    (Y, Z) = (exp L, zeta exp L) is returned.  The terminal uses the
    pathwise Pi(0,T); the conditional normaliser is a Monte-Carlo scalar
    without a signal and the Gaussian closed form under enlargement.
    """
    m = batch.grid.index_T
    # ln Pi(0, T), pi_star_functional's last exponent column, summed in the
    # same order; neither it nor phitilde is held as an (n_paths, m) matrix
    steps = _log_pi_increments(batch, market)
    log_pi_T = next(steps)
    for incr in steps:
        log_pi_T += incr
    if insider.kind is InsiderKind.NO_INSIDER:
        normalizer = mean_se(np.exp(0.5 * log_pi_T))[0]
        log_norm = math.log(normalizer)
    else:
        normalizer = enlargement_normalizer(market, insider, batch.Y0)
        log_norm = np.log(normalizer)
    terminal = math.log(market.X0) - log_norm - 0.5 * log_pi_T
    t_left = batch.grid.knots[:m]
    r, iota_left = market.r(t_left), iota(market, t_left)

    def driver(i, zeta):
        phit = iota_left[i] + batch.phi[:, i]  # column i of _phitilde
        return -(r[i] + phit * zeta - 0.5 * zeta**2)

    L, zeta = _backward_sweep(batch, insider, terminal, driver, basis_order, [None] * m)
    Y = np.exp(L)
    Z = zeta * Y[:, :m]
    residual = abs(mean_se(Y[:, 0])[0] - market.X0)
    return BsdeSolution(grid=batch.grid, Y=Y, Z=Z, c=normalizer, residual=residual)


# -- quadratic equation -----------------------------------------------------------


def _quadratic_driver(batch: PathBatch, market: MarketParams):
    """f_Q(t, z) with the impact weight; its z^2 coefficient 1/4 - k reduces
    to sigma_tilde / (2 (sigma + sigma_tilde))."""
    m = batch.grid.index_T
    t_left = batch.grid.knots[:m]
    sig = market.sigma(t_left)
    st = sigma_tilde(market, t_left)
    r = market.r(t_left)
    k = (sig - st) / (4.0 * (sig + st))
    phit = _phitilde(batch, market)

    def f(i: int, z: np.ndarray) -> np.ndarray:
        phit_i = np.ascontiguousarray(phit[:, i])
        return (
            0.25 * z**2
            - 0.5 * phit_i * z
            - r[i]
            - 0.25 * phit_i**2
            - k[i] * (z + phit_i) ** 2
        )

    return f


def solve_quadratic_lsmc(
    batch: PathBatch,
    market: MarketParams,
    insider: InsiderSpec,
    c2_init: float | None = None,
    basis_order: int = 3,
    c2_order: int = 2,
    shoot_tol: float = 1e-3,
    max_iter: int = 50,
) -> BsdeSolution:
    """Backward solve of the quadratic equation with terminal shooting.

    Without a signal the terminal is a constant c2 found by secant iteration
    on the initial-value mismatch L_0 - ln X0 (the map c2 -> L_0 is affine
    with unit slope, so this converges immediately up to regression noise).
    Under enlargement the terminal is a polynomial c2(Y0) of degree
    `c2_order`, updated by projecting the mismatch onto the same basis; the
    residual reported is the root-mean-square projected mismatch.  Every
    pass reuses the regression state and factors of the first.
    """
    ln_x0 = math.log(market.X0)
    trace: list[tuple] = []
    driver = _quadratic_driver(batch, market)
    factors: list[tuple | None] = [None] * batch.grid.index_T
    state = _regression_state(batch, insider)

    def sweep(terminal):
        return _backward_sweep(batch, insider, terminal, driver, basis_order, factors, state)

    if insider.kind is InsiderKind.NO_INSIDER:
        c2 = ln_x0 if c2_init is None else float(c2_init)
        prev: tuple[float, float] | None = None
        for iteration in range(max_iter):
            L, Z = sweep(np.full(batch.n_paths, c2))
            l0 = mean_se(L[:, 0])[0]
            resid = l0 - ln_x0
            trace.append((iteration, c2, resid, l0))
            # c2 moves L_0 one for one: no finer mismatch than c2's float spacing
            achieved = max(abs(resid), float(np.spacing(abs(c2))))
            if achieved <= shoot_tol:
                return BsdeSolution(
                    grid=batch.grid, Y=L, Z=Z, c=c2, residual=abs(resid), trace=tuple(trace)
                )
            if prev is None or abs(resid - prev[1]) < 1e-15:
                step = -resid  # unit-slope Newton guess
            else:
                step = -resid * (c2 - prev[0]) / (resid - prev[1])
            prev = (c2, resid)
            c2 += step
        raise ShootingError(residual=achieved, iterations=max_iter)

    # enlargement: polynomial terminal in the signal
    y_design = np.empty((c2_order + 1, batch.n_paths))
    _monomials(y_design, batch.Y0, None, c2_order)
    scale, inv_gram = _factor(y_design, 0.0)
    coef = np.zeros(c2_order + 1)
    coef[0] = ln_x0 if c2_init is None else float(c2_init)
    for iteration in range(max_iter):
        L, Z = sweep((coef * scale) @ y_design)
        delta = inv_gram @ (y_design @ (L[:, 0] - ln_x0))
        resid = math.sqrt(float(np.mean((delta @ y_design) ** 2)))
        c2 = tuple(coef.tolist())
        trace.append((iteration, c2, resid, mean_se(L[:, 0])[0]))
        if resid <= shoot_tol:
            return BsdeSolution(
                grid=batch.grid, Y=L, Z=Z, c=c2, residual=resid, trace=tuple(trace)
            )
        coef = coef - delta / scale
    raise ShootingError(residual=trace[-1][2], iterations=max_iter)


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
    sig = market.sigma(t_left)
    st = sigma_tilde(market, t_left)
    phit = np.broadcast_to(_phitilde(batch, market), (batch.n_paths, m))
    if kind in (StrategyKind.LARGE_INSIDER_ROBUST,):
        pi = (sol.Z + phit) / (sig + st)
        theta = (st * sol.Z - sig * phit) / (sig + st)
    else:
        pi = sol.Z / (sig * sol.Y[:, :m])
        theta = sig * pi - phit
    return StrategyProfile(kind=kind, pi=pi, theta=theta, grid=batch.grid)


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
