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
    breakpoints,
    iota,
    phi_norm_sq,
    sigma_tilde,
)
from .strategies import (
    StrategyKind,
    market_for,
    pi_insider_nonrobust,
    pi_small_insider_robust,
    run_out,
)

__all__ = [
    "ValueBreakdown",
    "value_no_insider_robust",
    "value_no_insider_nonrobust",
    "value_small_insider_robust",
    "value_insider_nonrobust",
    "VALUE_KINDS",
    "value_of",
    "horizon_gap",
    "critical_T0",
    "fig_value_table",
    "fig_critical_table",
    "strategy_line_table",
    "strategy_line_slopes",
]


@dataclass(frozen=True)
class ValueBreakdown:
    base: float
    merton: float
    rent: float
    penalty_adjust: float

    @property
    def total(self) -> float:
        return self.base + self.merton + self.rent + self.penalty_adjust


# the signal weight phi_w = 1 of the standard figures
_UNIT_WEIGHT = PiecewiseConstant.constant(1.0)


# -- exact piecewise quadratures -------------------------------------------------


def _pieces(market: MarketParams, weight: PiecewiseConstant | None = None) -> list[tuple[float, float]]:
    """The pieces [a, b) of [0, T] between model.breakpoints."""
    knots = [0.0, *breakpoints(market, weight), market.T]
    return list(zip(knots, knots[1:]))


def integral_weighted_iota(market: MarketParams, weight: PiecewiseConstant) -> float:
    """int_0^T phi_w iota dt for the signal weight phi_w = `weight`."""
    return sum(weight(a) * iota(market, a) * (b - a) for a, b in _pieces(market, weight))


def integral_iota_sq(market: MarketParams) -> float:
    return sum(iota(market, a) ** 2 * (b - a) for a, b in _pieces(market))


def integral_amplified_iota_sq(market: MarketParams) -> float:
    """int (sigma/sigma_tilde) iota^2 dt."""
    return sum(
        market.sigma(a) / sigma_tilde(market, a) * iota(market, a) ** 2 * (b - a)
        for a, b in _pieces(market)
    )


def _require_insider(insider: InsiderSpec, T: float, what: str) -> float:
    insider.require_signal(what)
    if insider.T0 is None or insider.T0 <= T:
        raise ValidationError("t0_after_horizon", f"{what} needs T0 > T")
    return float(insider.T0)


def _base(market: MarketParams) -> float:
    return math.log(market.X0) + market.r.integral(0.0, market.T)


# -- value functions ---------------------------------------------------------------


def value_no_insider_robust(market: MarketParams) -> ValueBreakdown:
    """ln X0 + int r + (1/4) int iota^2: the uninformed robust value (no impact)."""
    market.require_no_impact("the uninformed robust value")
    i2 = integral_iota_sq(market)
    return ValueBreakdown(
        base=_base(market),
        merton=0.5 * i2,
        rent=0.0,
        penalty_adjust=-0.25 * i2,
    )


def value_no_insider_nonrobust(market: MarketParams) -> ValueBreakdown:
    """ln X0 + int r + (1/2) int (sigma/sigma_tilde) iota^2, any impact level."""
    return ValueBreakdown(
        base=_base(market),
        merton=0.5 * integral_amplified_iota_sq(market),
        rent=0.0,
        penalty_adjust=0.0,
    )


def value_small_insider_robust(market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """Robust informed value without impact, for any signal weight:

        base + (1/4) int iota^2 + (1/2) ln((s0 + sT)^2 / (4 s0 sT))
             + (s0 - sT) / (2 (s0 + sT)) + (int_0^T phi_w iota dt)^2 / (4 (s0 + sT))

    with s0 = ||phi_w||^2_[0,T0] and sT = ||phi_w||^2_[T,T0].  For phi_w = 1,
    s0 + sT = 2 T0 - T and 4 s0 sT = (2 T0 - T)^2 - T^2.
    """
    market.require_no_impact("the informed robust value")
    T0 = _require_insider(insider, market.T, "the informed robust value")
    return _robust_value(market, insider.phi_weight)(T0)


def _robust_value(market: MarketParams, weight: PiecewiseConstant):
    """value(T0): value_small_insider_robust in `market` under the signal
    weight `weight` at the horizon T0 > T, with the terms that do not depend
    on T0 (ln X0 + int r, int iota^2 and int_0^T phi_w iota dt) formed here,
    once."""
    base, i2, cross = _base(market), integral_iota_sq(market), integral_weighted_iota(market, weight)

    def value(T0: float) -> ValueBreakdown:
        s0, sT = weight.integral(0.0, T0, 2), weight.integral(market.T, T0, 2)
        rent = (0.5 * math.log((s0 + sT) ** 2 / (4.0 * s0 * sT)) + (s0 - sT) / (2.0 * (s0 + sT))
                + cross**2 / (4.0 * (s0 + sT)))
        return ValueBreakdown(base=base, merton=0.5 * i2, rent=rent, penalty_adjust=-0.25 * i2)

    return value


def value_insider_nonrobust(market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """Informed value without ambiguity aversion, small or large trader, any
    impact and signal weight:

        base + (1/2) int (sigma/sigma_tilde) iota^2
             + (1/2) int_0^T (sigma/sigma_tilde) phi_w^2 / ||phi_w||^2_[t,T0] dt.

    phi_w is constant on each piece [a, b), so the rent integral there is
    (sigma/sigma_tilde)(a) ln(||phi_w||^2_[a,T0] / ||phi_w||^2_[b,T0]); for
    phi_w = 1 and constant coefficients the rent is (1/2) ln(T0 / (T0 - T)).
    """
    T0 = _require_insider(insider, market.T, "the informed non-robust value")
    pieces = _pieces(market, insider.phi_weight)
    norms = phi_norm_sq(insider, np.array([a for a, _ in pieces] + [market.T]), T0).tolist()
    rent = sum(
        market.sigma(a) / sigma_tilde(market, a) * math.log(n_a / n_b)
        for (a, _), n_a, n_b in zip(pieces, norms, norms[1:])
    )
    return ValueBreakdown(
        base=_base(market),
        merton=0.5 * integral_amplified_iota_sq(market),
        rent=0.5 * rent,
        penalty_adjust=0.0,
    )


# regime -> its closed-form value, given the market it trades in
_VALUES = {
    StrategyKind.NO_INSIDER_ROBUST: lambda market, insider: value_no_insider_robust(market),
    StrategyKind.NO_INSIDER_NONROBUST: lambda market, insider: value_no_insider_nonrobust(market),
    StrategyKind.SMALL_INSIDER_ROBUST: value_small_insider_robust,
    StrategyKind.SMALL_INSIDER_NONROBUST: value_insider_nonrobust,
    StrategyKind.LARGE_INSIDER_NONROBUST: value_insider_nonrobust,
}
# the regimes with a closed-form value, in table order
VALUE_KINDS = tuple(_VALUES)


def value_of(kind: StrategyKind, market: MarketParams, insider: InsiderSpec) -> ValueBreakdown:
    """Closed-form value of regime `kind` (one of VALUE_KINDS) in the market it
    trades in: `market`, without impact for a small trader.  A value too large
    for a float is a ValidationError (`value_finite`)."""
    return _finite_value(kind, lambda: _VALUES[kind](market_for(kind, market), insider))


def _finite_value(kind: StrategyKind, value) -> ValueBreakdown:
    """value(), the ValueBreakdown of regime `kind`, refused as
    `value_finite` when its total is not a finite float."""
    try:
        breakdown = value()
        if math.isfinite(breakdown.total):
            return breakdown
    except ArithmeticError:  # a float ** that overflows, or a quotient of underflowed norms
        pass
    raise ValidationError("value_finite", f"the {kind.value} value overflows a float")


# -- critical information horizon ----------------------------------------------


def horizon_gap(market: MarketParams, weight: PiecewiseConstant = _UNIT_WEIGHT):
    """gap(T0): the robust informed value at information horizon T0 under
    the signal weight `weight` less the ambiguity-neutral uninformed value,
    both with varrho = 0; bit for bit

        value_of(SMALL_INSIDER_ROBUST, market, enlargement(T0, weight)).total
            - value_of(NO_INSIDER_NONROBUST, market, none).total.

    The uninformed value and the informed value's terms that do not depend
    on T0 are formed here, once, the uninformed one first, so that a market
    whose values overflow is `value_finite`."""
    market.require_no_impact("the critical horizon")
    kind = StrategyKind.SMALL_INSIDER_ROBUST
    target = value_of(StrategyKind.NO_INSIDER_NONROBUST, market, InsiderSpec.none()).total
    value = _robust_value(market_for(kind, market), weight)

    def gap(T0: float) -> float:
        if not T0 > market.T:
            raise ValidationError("t0_after_horizon", "the informed robust value needs T0 > T")
        return _finite_value(kind, lambda: value(T0)).total - target

    return gap


def critical_T0(market: MarketParams, weight: PiecewiseConstant = _UNIT_WEIGHT) -> float:
    """Bisection for the horizon T0 at which the robust informed value under
    the signal weight `weight` equals the ambiguity-neutral uninformed value
    (both with varrho = 0), to a value gap of at most 1e-6: a root of
    horizon_gap(market, weight).

    The search runs on [1.05 T, 1000 T].  Raises if that interval does not
    straddle the root (e.g. when iota = 0 and there is no robustness loss to
    offset), or if the weight has no mass on [T, 1.05 T] (`phi_tail_norm`).
    """
    gap = horizon_gap(market, weight)
    lo, hi = 1.05 * market.T, 1000.0 * market.T
    if not weight.integral(market.T, lo, 2) > 0.0:
        raise ValidationError("phi_tail_norm", f"signal weight must have mass on [T, {lo}]")
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
        if abs(f_mid) <= 1e-6:
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
    weight: PiecewiseConstant = _UNIT_WEIGHT,
) -> tuple[list[str], list[list]]:
    """Utility gain (value - ln X0) of every regime against the information
    horizon, under the signal weight `weight`, each in the market it trades
    in (value_of's rule): small traders without impact, the others in
    `market` as given.  The extra column
    `no_insider_nonrobust_no_impact` is the uninformed neutral curve without
    impact, against which the critical horizon is defined; it equals
    `no_insider_nonrobust` when varrho = 0.  `bsde_values` optionally adds the
    numerically solved robust large-trader series keyed by T0.
    """
    ln_x0 = math.log(market.X0)
    reference = value_of(StrategyKind.NO_INSIDER_NONROBUST, market.without_impact(), InsiderSpec.none()).total - ln_x0
    header = ["T0", *(kind.value for kind in VALUE_KINDS), "no_insider_nonrobust_no_impact"]
    if bsde_values is not None:
        header.append("large_insider_robust_bsde")
    rows = []
    for t0 in t0_values:
        insider = InsiderSpec.enlargement(T0=float(t0), phi_weight=weight)
        row = [float(t0)] + [value_of(k, market, insider).total - ln_x0 for k in VALUE_KINDS]
        row.append(reference)
        if bsde_values is not None:
            row.append(bsde_values.get(float(t0), ""))
        rows.append(row)
    return header, rows


def fig_critical_table(
    market: MarketParams, mu_values, sigma_values, weight: PiecewiseConstant = _UNIT_WEIGHT
) -> tuple[list[str], list[list]]:
    """Long-format critical horizon under the signal weight `weight` over a
    (mu0, sigma) grid."""
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
            rows.append([float(mu), float(sig), critical_T0(mkt, weight)])
    return header, rows


def strategy_line_slopes(market: MarketParams, insider: InsiderSpec, t: float) -> dict[str, float]:
    """Exact derivative of each informed fraction with respect to the running
    weighted noise B_t (W_t for phi_w = 1), at fixed signal."""
    _require_insider(insider, market.T, "strategy line slopes")
    w, norm_t, norm_T, _ = run_out(market, insider, t)
    sig = market.sigma(t)
    return {
        "small_insider_robust": -w / (sig * (norm_t + norm_T)),
        "small_insider_nonrobust": -w / (sig * norm_t),
        "large_insider_nonrobust": -w / (sigma_tilde(market, t) * norm_t),
    }


def strategy_line_table(
    market: MarketParams,
    insider: InsiderSpec,
    t: float,
    w_values,
    y0: float = 1.0,
) -> tuple[list[str], list[list]]:
    """Informed fractions against the current noise level W_t at fixed time t
    and signal Y0 = y0; small-trader lines use the zero-impact market.  A line
    that overflows is a ValidationError (`strategy_line_finite`)."""
    _require_insider(insider, market.T, "strategy lines")
    small = market.without_impact()
    header = [
        "W_t",
        "pi_small_insider_robust",
        "pi_small_insider_nonrobust",
        "pi_large_insider_nonrobust",
    ]
    w = np.asarray(w_values, dtype=float)
    # a finite signal level far enough out overflows a line: evaluate, then reject
    with np.errstate(over="ignore", invalid="ignore"):
        lines = [
            pi_small_insider_robust(small, insider, y0, w, t),
            pi_insider_nonrobust(small, insider, y0, w, t),
            pi_insider_nonrobust(market, insider, y0, w, t),
        ]
    if not all(np.all(np.isfinite(line)) for line in lines):
        raise ValidationError("strategy_line_finite", f"the strategy lines overflow at signal level {y0!r}")
    columns = [w.tolist()] + [line.tolist() for line in lines]
    return header, [list(row) for row in zip(*columns)]
