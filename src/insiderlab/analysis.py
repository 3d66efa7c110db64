"""Analytic value functions, the information-rent decomposition, the critical
information horizon, and figure-data generation.

Every closed-form value decomposes as

    total = base + merton + rent + penalty_adjust

with base = ln X0 + int r dt, merton the (impact-amplified) squared
market-price-of-risk term (1/2) int (sigma/sigma_tilde) iota^2 dt, rent the
insider-information term, and penalty_adjust the ambiguity-aversion discount
(-1/4 int iota^2 dt for robust regimes, which halves the Merton term).  All
integrals are exact for piecewise-constant coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ValidationError,
    iota,
    phi_norm_sq,
    sigma_tilde,
)
from .strategies import (
    StrategyKind,
    market_for,
    pi_large_insider_nonrobust,
    pi_small_insider_nonrobust,
    pi_small_insider_robust,
)

__all__ = [
    "ValueBreakdown",
    "value_no_insider_robust",
    "value_no_insider_nonrobust",
    "value_small_insider_robust",
    "value_small_insider_nonrobust",
    "value_large_insider_nonrobust",
    "VALUE_KINDS",
    "value_of",
    "critical_T0",
    "fig_value_table",
    "fig_critical_table",
    "strategy_line_table",
    "strategy_line_slopes",
]


@dataclass(frozen=True)
class ValueBreakdown:
    regime: str
    base: float
    merton: float
    rent: float
    penalty_adjust: float

    @property
    def total(self) -> float:
        return self.base + self.merton + self.rent + self.penalty_adjust


# -- exact piecewise quadratures -------------------------------------------------


def _pieces(market: MarketParams) -> list[tuple[float, float]]:
    knots = [0.0] + market.breakpoints_union() + [market.T]
    return list(zip(knots, knots[1:]))


def integral_r(market: MarketParams) -> float:
    return market.r.integral(0.0, market.T)


def integral_iota(market: MarketParams) -> float:
    return sum(iota(market, a) * (b - a) for a, b in _pieces(market))


def integral_iota_sq(market: MarketParams) -> float:
    return sum(iota(market, a) ** 2 * (b - a) for a, b in _pieces(market))


def integral_amplified_iota_sq(market: MarketParams) -> float:
    """int (sigma/sigma_tilde) iota^2 dt."""
    return sum(
        market.sigma(a) / sigma_tilde(market, a) * iota(market, a) ** 2 * (b - a)
        for a, b in _pieces(market)
    )


def integral_amplified_bridge(market: MarketParams, T0: float) -> float:
    """int_0^T (sigma/sigma_tilde) / (T0 - t) dt, exact per piece."""
    return sum(
        market.sigma(a) / sigma_tilde(market, a) * math.log((T0 - a) / (T0 - b))
        for a, b in _pieces(market)
    )


def _require_insider(insider: InsiderSpec, T: float) -> float:
    if not insider.has_signal() or insider.T0 is None or insider.T0 <= T:
        raise ValidationError("t0_after_horizon", "need an enlargement signal with T0 > T")
    return float(insider.T0)


def _base(market: MarketParams) -> float:
    return math.log(market.X0) + integral_r(market)


# -- value functions ---------------------------------------------------------------


def value_no_insider_robust(market: MarketParams) -> ValueBreakdown:
    """ln X0 + int r + (1/4) int iota^2: the uninformed robust value (no impact)."""
    market.require_no_impact("the uninformed robust value")
    i2 = integral_iota_sq(market)
    return ValueBreakdown(
        regime="no_insider_robust",
        base=_base(market),
        merton=0.5 * i2,
        rent=0.0,
        penalty_adjust=-0.25 * i2,
    )


def value_no_insider_nonrobust(market: MarketParams) -> ValueBreakdown:
    """ln X0 + int r + (1/2) int (sigma/sigma_tilde) iota^2, any impact level."""
    return ValueBreakdown(
        regime="no_insider_nonrobust",
        base=_base(market),
        merton=0.5 * integral_amplified_iota_sq(market),
        rent=0.0,
        penalty_adjust=0.0,
    )


def value_small_insider_robust(market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """Robust informed value for a unit signal weight:

        base + (1/4) int iota^2 + (1/2) ln(1 - T^2/a^2)^{-1} + T/(2a)
             + (int iota dt)^2 / (4a),     a = 2 T0 - T.
    """
    market.require_no_impact("the informed robust value")
    T0 = _require_insider(insider, market.T)
    insider.require_unit_weight("the informed robust value")
    T = market.T
    a = 2.0 * T0 - T
    i2 = integral_iota_sq(market)
    rent = (
        0.5 * math.log(a**2 / (a**2 - T**2))
        + T / (2.0 * a)
        + integral_iota(market) ** 2 / (4.0 * a)
    )
    return ValueBreakdown(
        regime="small_insider_robust",
        base=_base(market),
        merton=0.5 * i2,
        rent=rent,
        penalty_adjust=-0.25 * i2,
    )


def value_small_insider_nonrobust(market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """base + (1/2) int iota^2 + (1/2) ln(||phi_w||^2_[0,T0] / ||phi_w||^2_[T,T0]):
    ambiguity-neutral informed trader without impact.  The rent is
    (1/2) int_0^T phi_w^2 / ||phi_w||^2_[t,T0] dt, which is ln(T0 / (T0 - T)) / 2
    for unit weight."""
    market.require_no_impact("the informed neutral value")
    T0 = _require_insider(insider, market.T)
    return ValueBreakdown(
        regime="small_insider_nonrobust",
        base=_base(market),
        merton=0.5 * integral_iota_sq(market),
        rent=0.5 * math.log(phi_norm_sq(insider, 0.0, T0) / phi_norm_sq(insider, market.T, T0)),
        penalty_adjust=0.0,
    )


def value_large_insider_nonrobust(market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """base + (1/2) int (sigma/sigma_tilde) iota^2
    + (1/2) int (sigma/sigma_tilde)/(T0 - t) dt: full-information trader with
    impact, no ambiguity aversion, unit signal weight (so that T0 - t is
    ||phi_w||^2_[t,T0])."""
    T0 = _require_insider(insider, market.T)
    insider.require_unit_weight("the large-insider value")
    return ValueBreakdown(
        regime="large_insider_nonrobust",
        base=_base(market),
        merton=0.5 * integral_amplified_iota_sq(market),
        rent=0.5 * integral_amplified_bridge(market, T0),
        penalty_adjust=0.0,
    )


# regime -> its closed-form value, given the market it trades in
_VALUES = {
    StrategyKind.NO_INSIDER_ROBUST: lambda market, insider: value_no_insider_robust(market),
    StrategyKind.NO_INSIDER_NONROBUST: lambda market, insider: value_no_insider_nonrobust(market),
    StrategyKind.SMALL_INSIDER_ROBUST: value_small_insider_robust,
    StrategyKind.SMALL_INSIDER_NONROBUST: value_small_insider_nonrobust,
    StrategyKind.LARGE_INSIDER_NONROBUST: value_large_insider_nonrobust,
}
# the regimes with a closed-form value, in table order
VALUE_KINDS = tuple(_VALUES)


def _if_defined(closed_form, *args):
    """closed_form(*args), or None where it needs unit signal weight and the
    insider has another."""
    try:
        return closed_form(*args)
    except ValidationError as exc:
        if exc.code != "unsupported_phi":
            raise
        return None


def value_of(kind: StrategyKind, market: MarketParams, insider: InsiderSpec) -> ValueBreakdown | None:
    """Closed-form value of regime `kind` (one of VALUE_KINDS) in the market it
    trades in: `market`, without impact for a small trader.  None where the
    closed form needs unit signal weight and `insider` has another."""
    return _if_defined(_VALUES[kind], market_for(kind, market), insider)


# -- critical information horizon ----------------------------------------------


def critical_T0(
    market: MarketParams,
    bracket: tuple[float, float] = (1.05, 1000.0),
    value_tol: float = 1e-6,
) -> float:
    """Bisection for the horizon T0 at which the robust informed value equals
    the ambiguity-neutral uninformed value (both with varrho = 0).

    `bracket` is in units of T.  Raises if the bracket does not straddle the
    root (e.g. when iota = 0 and there is no robustness loss to offset).
    """
    market.require_no_impact("the critical horizon")
    target = value_no_insider_nonrobust(market).total

    def gap(T0: float) -> float:
        insider = InsiderSpec.enlargement(T0=T0)
        return value_small_insider_robust(market, insider).total - target

    lo, hi = (bracket[0] * market.T, bracket[1] * market.T)
    f_lo, f_hi = gap(lo), gap(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValidationError(
            "bracket_no_root", f"no sign change on [{lo}, {hi}]: gap = ({f_lo}, {f_hi})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if abs(f_mid) <= value_tol:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise ValidationError("bisection_stalled", "no convergence after 200 bisections")


# -- figure data -----------------------------------------------------------------


def fig_value_table(
    market: MarketParams,
    t0_values,
    bsde_values: dict[float, float] | None = None,
) -> tuple[list[str], list[list]]:
    """Utility gain (value - ln X0) of every regime against the information
    horizon.  Small-trader curves use the zero-impact market, and so does the
    uninformed neutral curve, which defines the critical horizon; the
    large-trader curve uses the market as given.  `bsde_values` optionally adds
    the numerically solved robust large-trader series keyed by T0.
    """
    small = market.without_impact()
    ln_x0 = math.log(market.X0)
    header = ["T0", *(kind.value for kind in VALUE_KINDS)]
    if bsde_values is not None:
        header.append("large_insider_robust_bsde")
    rows = []
    for t0 in t0_values:
        insider = InsiderSpec.enlargement(T0=float(t0))
        row = [float(t0)] + [
            value_of(k, small if k is StrategyKind.NO_INSIDER_NONROBUST else market, insider).total
            - ln_x0
            for k in VALUE_KINDS
        ]
        if bsde_values is not None:
            row.append(bsde_values.get(float(t0), ""))
        rows.append(row)
    return header, rows


def fig_critical_table(
    market: MarketParams, mu_values, sigma_values
) -> tuple[list[str], list[list]]:
    """Long-format critical horizon over a (mu0, sigma) grid."""
    header = ["mu", "sigma", "T0_star"]
    rows = []
    base = market.without_impact()
    for mu in mu_values:
        for sig in sigma_values:
            mkt = replace(
                base,
                mu0=PiecewiseConstant.constant(float(mu)),
                sigma=PiecewiseConstant.constant(float(sig)),
            )
            rows.append([float(mu), float(sig), critical_T0(mkt)])
    return header, rows


def strategy_line_slopes(market: MarketParams, insider: InsiderSpec, t: float) -> dict[str, float]:
    """Exact derivative of each informed fraction with respect to the current
    noise level W_t, at fixed signal."""
    T0 = _require_insider(insider, market.T)
    sig = market.sigma(t)
    st = sigma_tilde(market, t)
    return {
        "small_insider_robust": -1.0 / (sig * (2.0 * T0 - t - market.T)),
        "small_insider_nonrobust": -1.0 / (sig * (T0 - t)),
        "large_insider_nonrobust": -1.0 / (st * (T0 - t)),
    }


def strategy_line_table(
    market: MarketParams,
    insider: InsiderSpec,
    t: float,
    w_values,
    y0: float = 1.0,
) -> tuple[list[str], list[list]]:
    """Informed fractions against the current noise level W_t at fixed time t
    and signal W_T0 = y0; small-trader lines use the zero-impact market.  The
    large-trader line is blank unless the signal weight is 1."""
    _require_insider(insider, market.T)
    small = market.without_impact()
    header = [
        "W_t",
        "pi_small_insider_robust",
        "pi_small_insider_nonrobust",
        "pi_large_insider_nonrobust",
    ]
    w = np.asarray(w_values, dtype=float)
    large = _if_defined(pi_large_insider_nonrobust, market, insider, y0, w, t)
    columns = [
        w.tolist(),
        pi_small_insider_robust(small, insider, y0, w, t).tolist(),
        pi_small_insider_nonrobust(small, insider, y0, w, t).tolist(),
        [""] * len(w) if large is None else large.tolist(),
    ]
    return header, [list(row) for row in zip(*columns)]
