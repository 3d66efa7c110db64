"""Closed-form optimal portfolio pi* and worst-case distortion theta*.

Regimes combine insider information (none / initial enlargement) with
ambiguity aversion (robust / non-robust) and price impact (small / large
trader).  Every closed-form regime satisfies the first-order relation

    theta* = sigma_tilde * pi* - (iota + phi)

with phi the information drift (zero without a signal), and both pi* and
theta* are affine in the residual signal Y0 - B_t, so slopes with respect to
the current noise level are exact.  Each regime's formula is written once,
in `closed_form_lines`, as its intercepts and slopes over the time axis:
the profiles, the pointwise forms and the Gaussian oracle of the linear
backward equation all read those lines.  Every informed form holds for any
signal weight phi_w, and the small and large non-robust insiders share one
form, each in the market it trades in (`market_for`).  The robust large
trader has no closed form; recover it from the quadratic backward solver
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    DomainError,
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ValidationError,
    breakpoints,
    iota,
    phi_norm_sq,
    sigma_tilde,
)
from .paths import PathBatch

__all__ = [
    "StrategyKind",
    "StrategyProfile",
    "NO_IMPACT_KINDS",
    "UNINFORMED_KINDS",
    "market_for",
    "run_out",
    "pi_no_insider_robust",
    "theta_no_insider_robust",
    "pi_small_insider_robust",
    "theta_small_insider_robust",
    "pi_insider_nonrobust",
    "closed_form_lines",
    "theta_from_pi",
    "build_profile",
]


class StrategyKind(Enum):
    NO_INSIDER_ROBUST = "no_insider_robust"
    NO_INSIDER_NONROBUST = "no_insider_nonrobust"
    SMALL_INSIDER_ROBUST = "small_insider_robust"
    SMALL_INSIDER_NONROBUST = "small_insider_nonrobust"
    LARGE_INSIDER_NONROBUST = "large_insider_nonrobust"
    LARGE_INSIDER_ROBUST = "large_insider_robust"


# regimes of a small trader, whose closed forms hold only without price impact
NO_IMPACT_KINDS = {
    StrategyKind.NO_INSIDER_ROBUST,
    StrategyKind.SMALL_INSIDER_ROBUST,
    StrategyKind.SMALL_INSIDER_NONROBUST,
}

# regimes that trade without an insider signal
UNINFORMED_KINDS = {StrategyKind.NO_INSIDER_ROBUST, StrategyKind.NO_INSIDER_NONROBUST}


def market_for(kind: StrategyKind, market: MarketParams) -> MarketParams:
    """The market `kind` trades in: a small trader sees no price impact."""
    return market.without_impact() if kind in NO_IMPACT_KINDS else market


@dataclass(frozen=True)
class StrategyProfile:
    """Per-path, per-step (pi, theta) at left endpoints of the steps in [0, T).

    Arrays broadcast over paths: a row that does not depend on the path (pi
    and theta of an uninformed regime, the zero theta of a non-robust one) is
    a single read-only (1, index_T) row shared by every profile on the grid.
    """

    pi: np.ndarray
    theta: np.ndarray
    grid: object

    def __post_init__(self):
        if not (np.all(np.isfinite(self.pi)) and np.all(np.isfinite(self.theta))):
            raise ValidationError("profile_finite", "pi and theta must be finite everywhere")

    def scaled(self, pi_factor: float = 1.0, theta_factor: float = 1.0) -> "StrategyProfile":
        """Perturbed copy (for saddle checks and negative controls); a
        product that overflows is refused as `profile_finite`."""
        with np.errstate(over="ignore", invalid="ignore"):
            pi, theta = self.pi * pi_factor, self.theta * theta_factor
        return StrategyProfile(pi=pi, theta=theta, grid=self.grid)


# -- no insider ----------------------------------------------------------------


def pi_no_insider_robust(market: MarketParams, t):
    """(mu0 - r) / (2 sigma^2): half the log-utility fraction, the price of
    ambiguity aversion.  Requires varrho = 0."""
    return iota(market, t) / (2.0 * market.sigma(t))


def theta_no_insider_robust(market: MarketParams, t):
    """Worst-case distortion -iota/2 for the uninformed robust trader."""
    return -0.5 * iota(market, t)


def pi_no_insider_nonrobust(market: MarketParams, t):
    """(mu0 - r) / (sigma sigma_tilde); the classical fraction when varrho=0."""
    return iota(market, t) / sigma_tilde(market, t)


# -- insider closed forms -------------------------------------------------------
#
# Each is affine in the residual signal Y0 - B_t with coefficients that are
# deterministic in t, so t may be an array of times broadcasting against an
# (n_paths, len(t)) residual: one call evaluates a whole profile.


def run_out(market: MarketParams, insider: InsiderSpec, t):
    """phi_w(t), ||phi_w||^2_[t,T0], ||phi_w||^2_[T,T0] and int_t^T phi_w iota ds
    for t in [0, T), a scalar or an array, exact on the pieces of
    model.breakpoints."""
    T = market.T
    if np.any(np.asarray(t) >= T):
        raise DomainError(f"strategy defined on [0, T), got t up to {np.max(t)}")
    phi = insider.phi_weight
    knots = [0.0, *breakpoints(market, phi)]
    weighted_iota = PiecewiseConstant(knots, phi(knots) * iota(market, knots))
    return (
        phi(t),
        phi_norm_sq(insider, t, insider.T0),
        phi_norm_sq(insider, T, insider.T0),
        weighted_iota.integral(t, T),
    )


def closed_form_lines(kind: StrategyKind, market: MarketParams, insider: InsiderSpec, t) -> tuple:
    """The closed form of `kind` as lines in the residual signal Y0 - B_t:
    (pi intercept, pi slope, theta intercept, theta slope) at the times t, a
    scalar or an array, with the coefficients of the market given (see
    market_for).  Uninformed kinds have zero slopes and non-robust kinds zero
    theta rows; `insider` is read only by the informed kinds."""
    if kind is StrategyKind.LARGE_INSIDER_ROBUST:
        raise ValidationError(
            "no_closed_form",
            "the robust large insider has no closed form; solve the quadratic "
            "backward equation and use bsde.initial_controls",
        )
    if kind in UNINFORMED_KINDS:
        robust = kind is StrategyKind.NO_INSIDER_ROBUST
        pi = pi_no_insider_robust(market, t) if robust else pi_no_insider_nonrobust(market, t)
        zero = np.zeros_like(pi)
        return pi, zero, theta_no_insider_robust(market, t) if robust else zero, zero
    insider.require_signal(kind.value)
    w, norm_t, norm_T, cross = run_out(market, insider, t)
    io = iota(market, t)
    if kind is StrategyKind.SMALL_INSIDER_ROBUST:
        sig = market.sigma(t)
        pi_slope, theta_slope = w / (sig * (norm_t + norm_T)), w / (norm_t + norm_T)
        return (io / (2.0 * sig) + 0.5 * cross * pi_slope, pi_slope,
                -0.5 * io + 0.5 * cross * theta_slope, theta_slope - w / norm_t)
    st = sigma_tilde(market, t)
    zero = np.zeros_like(io)
    return io / st, w / (norm_t * st), zero, zero


def _affine(intercept, slope, y0, b_t):
    """intercept + slope * (y0 - b_t), built in place in one array, so a whole
    profile holds no full-size temporary beyond its result."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in (intercept, slope, y0, b_t)))
    out = np.subtract(y0, b_t, out=np.empty(shape))
    out *= slope
    out += intercept
    return out if out.ndim else float(out)


def pi_small_insider_robust(market: MarketParams, insider: InsiderSpec, y0, b_t, t):
    """Robust informed fraction (no price impact):

        iota/(2 sigma) + phi_w(t) * (Y0 - B_t + (1/2) int_t^T phi_w iota ds)
                         / (sigma * (||phi_w||^2_[t,T0] + ||phi_w||^2_[T,T0]))

    with B_t the running weighted noise integral.  For phi_w = 1 this reduces
    to iota/(2 sigma) + (W_T0 - W_t + (1/2) int_t^T iota ds) / (sigma (2T0 - t - T)).
    """
    return _affine(*closed_form_lines(StrategyKind.SMALL_INSIDER_ROBUST, market, insider, t)[:2], y0, b_t)


def theta_small_insider_robust(market: MarketParams, insider: InsiderSpec, y0, b_t, t):
    """Worst-case distortion paired with the robust informed fraction:

        -iota/2 + phi_w(t) (Y0 - B_t + (1/2) int_t^T phi_w iota ds)
                  / (||phi_w||^2_[t,T0] + ||phi_w||^2_[T,T0])
                - phi_w(t) (Y0 - B_t) / ||phi_w||^2_[t,T0].
    """
    return _affine(*closed_form_lines(StrategyKind.SMALL_INSIDER_ROBUST, market, insider, t)[2:], y0, b_t)


def pi_insider_nonrobust(market: MarketParams, insider: InsiderSpec, y0, b_t, t):
    """Informed fraction without ambiguity aversion, small or large trader:

        iota/sigma_tilde + phi_w(t) (Y0 - B_t) / (sigma_tilde ||phi_w||^2_[t,T0]),

    the information drift over sigma_tilde added to the uninformed fraction.
    Without impact sigma_tilde is sigma; for phi_w = 1 the drift is
    (W_T0 - W_t) / (T0 - t).
    """
    return _affine(*closed_form_lines(StrategyKind.LARGE_INSIDER_NONROBUST, market, insider, t)[:2], y0, b_t)


def theta_from_pi(market: MarketParams, phi, pi, t):
    """Distortion implied by a fraction: sigma_tilde*pi - (iota + phi).

    Feeding a non-robust regime its own optimal fraction returns zero.
    """
    return sigma_tilde(market, t) * np.asarray(pi) - (iota(market, t) + np.asarray(phi))


# -- profile assembly -----------------------------------------------------------


def build_profile(
    kind: StrategyKind,
    batch: PathBatch,
    market: MarketParams,
    insider: InsiderSpec,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> StrategyProfile:
    """Evaluate the closed form of `kind` on every path and step of `batch`:
    its lines are formed once per grid as read-only (1, index_T) rows, and a
    tile of a stream only applies them to its paths.  An informed profile
    writes its path-sized rows to `out` = (pi rows, theta rows), two
    (n_paths, index_T) arrays, when given: a non-robust insider's pi to the
    first, a robust insider's pi and theta to both."""
    grid = batch.grid
    if kind in NO_IMPACT_KINDS:
        market.require_no_impact(kind.value)

    def rows():
        lines = closed_form_lines(kind, market, insider, grid.knots[: grid.index_T])
        for line in lines:
            line.flags.writeable = False  # every profile on the grid shares them
        return tuple(line[None, :] for line in lines)

    pi_intercept, pi_slope, theta_intercept, theta_slope = grid.once((kind, market, insider), rows)
    if kind in UNINFORMED_KINDS:
        return StrategyProfile(pi=pi_intercept, theta=theta_intercept, grid=grid)
    pi_out, theta_out = (None, None) if out is None else out
    # one residual Y0 - B_t, whose memory becomes a non-robust insider's pi
    # (its theta is the shared zero row) or a robust insider's theta
    nonrobust = kind in (StrategyKind.SMALL_INSIDER_NONROBUST, StrategyKind.LARGE_INSIDER_NONROBUST)
    resid = np.subtract(batch.Y0[:, None], batch.level[:, :-1], out=pi_out if nonrobust else theta_out)
    if nonrobust:
        pi, theta = resid, theta_intercept
        pi *= pi_slope
    else:
        pi = np.multiply(resid, pi_slope, out=pi_out)
        theta = resid
        theta *= theta_slope
        theta += theta_intercept
    pi += pi_intercept
    return StrategyProfile(pi=pi, theta=theta, grid=grid)
