"""Closed-form optimal portfolio pi* and worst-case distortion theta*.

Regimes combine insider information (none / initial enlargement) with
ambiguity aversion (robust / non-robust) and price impact (small / large
trader).  Every closed-form regime satisfies the first-order relation

    theta* = sigma_tilde * pi* - (iota + phi)

with phi the information drift (zero without a signal), and pi* is affine in
the residual signal, so slopes with respect to the current noise level are
exact.  The robust large trader has no closed form; recover it from the
quadratic backward solver instead.
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
    "pi_no_insider_robust",
    "theta_no_insider_robust",
    "pi_small_insider_robust",
    "theta_small_insider_robust",
    "pi_large_insider_nonrobust",
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

    Arrays broadcast over paths: deterministic regimes store a single row.
    theta is identically zero for non-robust kinds.
    """

    kind: StrategyKind
    pi: np.ndarray
    theta: np.ndarray
    grid: object

    def __post_init__(self):
        if not (np.all(np.isfinite(self.pi)) and np.all(np.isfinite(self.theta))):
            raise ValidationError("profile_finite", "pi and theta must be finite everywhere")

    def scaled(self, pi_factor: float = 1.0, theta_factor: float = 1.0) -> "StrategyProfile":
        """Perturbed copy (for saddle checks and negative controls)."""
        return StrategyProfile(
            kind=self.kind,
            pi=self.pi * pi_factor,
            theta=self.theta * theta_factor,
            grid=self.grid,
        )


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


def _run_out(market, insider, t):
    """phi_w(t), ||phi_w||^2_[t,T0], ||phi_w||^2_[T,T0] and int_t^T phi_w iota ds
    for t in [0, T), exact on the merged constant pieces."""
    T = market.T
    if np.any(np.asarray(t) >= T):
        raise DomainError(f"strategy defined on [0, T), got t up to {np.max(t)}")
    phi = insider.phi_weight
    knots = np.union1d(market.breakpoints_union(), [b for b in phi.breakpoints if b < T])
    weighted_iota = PiecewiseConstant(knots, phi(knots) * iota(market, knots))
    return (
        phi(t),
        phi_norm_sq(insider, t, insider.T0),
        phi_norm_sq(insider, T, insider.T0),
        weighted_iota.integral(t, T),
    )


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
    return _affine(*_pi_small_robust_line(market, insider, t), y0, b_t)


def _pi_small_robust_line(market: MarketParams, insider: InsiderSpec, t):
    """Intercept and slope of pi_small_insider_robust in the residual Y0 - B_t."""
    w, norm_t, norm_T, cross = _run_out(market, insider, t)
    sig = market.sigma(t)
    slope = w / (sig * (norm_t + norm_T))
    return iota(market, t) / (2.0 * sig) + 0.5 * cross * slope, slope


def theta_small_insider_robust(market: MarketParams, insider: InsiderSpec, y0, b_t, t):
    """Worst-case distortion paired with the robust informed fraction:

        -iota/2 + phi_w(t) (Y0 - B_t + (1/2) int_t^T phi_w iota ds)
                  / (||phi_w||^2_[t,T0] + ||phi_w||^2_[T,T0])
                - phi_w(t) (Y0 - B_t) / ||phi_w||^2_[t,T0].
    """
    w, norm_t, norm_T, cross = _run_out(market, insider, t)
    slope = w / (norm_t + norm_T)
    intercept = -0.5 * iota(market, t) + 0.5 * cross * slope
    return _affine(intercept, slope - w / norm_t, y0, b_t)


def pi_small_insider_nonrobust(market: MarketParams, insider: InsiderSpec, y0, b_t, t):
    """Informed fraction without ambiguity aversion or impact:
    iota/sigma + phi_t/sigma."""
    w, norm_t, _, _ = _run_out(market, insider, t)
    sig = market.sigma(t)
    return _affine(iota(market, t) / sig, w / (norm_t * sig), y0, b_t)


def pi_large_insider_nonrobust(market: MarketParams, insider: InsiderSpec, y0, w_t, t):
    """Impact-adjusted informed fraction for full knowledge of W_T0:

        (mu0 - r)/(sigma sigma_tilde) + (W_T0 - W_t) / (sigma_tilde (T0 - t)).

    Requires unit signal weight, so Y0 = W_T0 and ||phi_w||^2_[t,T0] = T0 - t.
    """
    insider.require_unit_weight("the large-insider closed form")
    _, norm_t, _, _ = _run_out(market, insider, t)
    st = sigma_tilde(market, t)
    return _affine(iota(market, t) / st, 1.0 / (st * norm_t), y0, w_t)


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
) -> StrategyProfile:
    """Evaluate the closed form of `kind` on every path and step of `batch`."""
    grid = batch.grid
    t_left = grid.knots[: grid.index_T]
    if kind in NO_IMPACT_KINDS:
        market.require_no_impact(kind.value)
    if kind is StrategyKind.LARGE_INSIDER_ROBUST:
        raise ValidationError(
            "no_closed_form",
            "the robust large insider has no closed form; solve the quadratic "
            "backward equation and use recover_controls",
        )

    if kind is StrategyKind.NO_INSIDER_ROBUST:
        pi = pi_no_insider_robust(market, t_left)[None, :]
        theta = theta_no_insider_robust(market, t_left)[None, :]
    elif kind is StrategyKind.NO_INSIDER_NONROBUST:
        pi = pi_no_insider_nonrobust(market, t_left)[None, :]
        theta = np.zeros_like(pi)
    else:
        insider.require_signal(kind.value)
        y0, b = batch.Y0[:, None], batch.level[:, :-1]
        if kind is StrategyKind.SMALL_INSIDER_ROBUST:
            pi = pi_small_insider_robust(market, insider, y0, b, t_left)
            theta = theta_small_insider_robust(market, insider, y0, b, t_left)
        else:
            closed_form = (
                pi_small_insider_nonrobust
                if kind is StrategyKind.SMALL_INSIDER_NONROBUST
                else pi_large_insider_nonrobust
            )
            pi = closed_form(market, insider, y0, b, t_left)
            theta = np.zeros_like(pi)

    return StrategyProfile(kind=kind, pi=pi, theta=theta, grid=grid)
