import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insiderlab.analysis import (
    critical_T0,
    fig_critical_table,
    fig_value_table,
    horizon_gap,
    integral_iota_sq,
    integral_weighted_iota,
    strategy_line_slopes,
    strategy_line_table,
    value_insider_nonrobust,
    value_no_insider_nonrobust,
    value_no_insider_robust,
    value_of,
    value_small_insider_robust,
)
from insiderlab.bsde import enlargement_normalizer
from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    phi_norm_sq,
    sigma_tilde,
)
from insiderlab.paths import sample_paths
from insiderlab.simulate import estimate_J, game_terms
from insiderlab.strategies import StrategyKind, build_profile, pi_insider_nonrobust

IOTA_SQ = (0.15 / 0.35) ** 2
V1 = 0.045918367346938776
V_NN = 0.09183673469387755
V_NN_IMPACT = 0.1836734693877551
V2 = 0.28678267429077676
V_LARGE = 0.8768206499477004


def flat_market(mu=0.15, sigma=0.35, r=0.0, varrho=0.0, T=1.0, X0=1.0):
    return MarketParams(r=r, mu0=mu, sigma=sigma, varrho=varrho, T=T, X0=X0)


class TestValueFunctions:
    def test_uninformed_robust(self, market):
        b = value_no_insider_robust(market)
        assert b.total == pytest.approx(V1, abs=1e-12)
        assert b.total == pytest.approx(b.base + b.merton + b.rent + b.penalty_adjust, abs=1e-14)

    def test_uninformed_robust_is_half_merton(self, market):
        robust = value_no_insider_robust(market)
        neutral = value_no_insider_nonrobust(market)
        assert robust.total == pytest.approx(0.5 * neutral.total, abs=1e-12)

    def test_uninformed_neutral(self, market, market_impact):
        assert value_no_insider_nonrobust(market).total == pytest.approx(V_NN, abs=1e-12)
        assert value_no_insider_nonrobust(market_impact).total == pytest.approx(
            V_NN_IMPACT, abs=1e-12
        )

    def test_base_only_when_no_excess_return(self):
        m = flat_market(mu=0.02, r=0.02, X0=2.0)
        for breakdown in (
            value_no_insider_robust(m),
            value_no_insider_nonrobust(m),
        ):
            assert breakdown.total == pytest.approx(math.log(2.0) + 0.02, abs=1e-14)

    def test_informed_robust(self, market, insider):
        b = value_small_insider_robust(market, insider)
        assert b.total == pytest.approx(V2, abs=1e-12)
        # term-by-term decomposition, frozen by hand quadrature
        assert b.merton + b.penalty_adjust == pytest.approx(V1, abs=1e-14)
        assert b.rent == pytest.approx(
            0.5 * math.log(9.0 / 8.0) + 1.0 / 6.0 + IOTA_SQ / 12.0, abs=1e-14
        )

    def test_informed_robust_no_excess_return(self, insider):
        m = flat_market(mu=0.02, r=0.02)
        b = value_small_insider_robust(m, insider)
        assert b.total == pytest.approx(0.02 + 0.5 * math.log(9.0 / 8.0) + 1.0 / 6.0, abs=1e-14)

    def test_rent_vanishes_at_remote_horizon(self, market):
        far = value_small_insider_robust(market, InsiderSpec.enlargement(T0=1e7))
        assert far.total == pytest.approx(V1, abs=1e-6)

    def test_informed_neutral_small(self, market, insider):
        b = value_insider_nonrobust(market, insider)
        assert b.rent == pytest.approx(0.5 * math.log(2.0), abs=1e-14)
        assert b.total == pytest.approx(V_NN + 0.5 * math.log(2.0), abs=1e-12)

    def test_informed_neutral_large(self, market, market_impact, insider):
        b = value_insider_nonrobust(market_impact, insider)
        assert b.rent == pytest.approx(math.log(2.0), abs=1e-14)
        assert b.total == pytest.approx(V_LARGE, abs=1e-12)
        small = value_insider_nonrobust(market, insider)
        assert small.rent == pytest.approx(0.5 * math.log(2.0), abs=1e-14)

    def test_informed_neutral_piecewise_weight(self, market, kernel_rows):
        # phi_w = 1 on [0, 1.5), 2 on [1.5, 2]: rent (1/2) ln(3.5 / 2.5), which the
        # Monte-Carlo game value of the closed-form fraction confirms
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.5), (1.0, 2.0)))
        b = value_insider_nonrobust(market, ins)
        assert b.rent == pytest.approx(0.5 * math.log(3.5 / 2.5), abs=1e-12)
        assert b.total == pytest.approx(V_NN + 0.5 * math.log(3.5 / 2.5), abs=1e-12)
        cfg = ScenarioConfig(market=market, insider=ins, n_steps=100, n_paths=50_000, seed=5)
        batch = sample_paths(cfg)
        out, work = kernel_rows(batch)
        prof = build_profile(StrategyKind.SMALL_INSIDER_NONROBUST, batch, market, ins, out)
        j = estimate_J(game_terms(batch, prof, market, work)[0])
        assert abs(j.mean - b.total) < 4.0 * j.std_error

    def test_unit_weight_required_where_assumed(self, market, market_impact):
        # phi_w = 1 on [0, 1.5), 2 on [1.5, 2]: s0 = 3.5, sT = 2.5 and
        # int_0^T phi_w iota dt = iota, so the closed forms hold by hand
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.5), (1.0, 2.0)))
        robust = value_small_insider_robust(market, ins)
        assert robust.rent == pytest.approx(
            0.5 * math.log(36.0 / 35.0) + 1.0 / 12.0 + IOTA_SQ / 24.0, abs=1e-14
        )
        # sigma / sigma_tilde = 2 under impact doubles the neutral rent
        large = value_insider_nonrobust(market_impact, ins)
        assert large.rent == pytest.approx(math.log(3.5 / 2.5), abs=1e-14)
        # only the Gaussian oracle of the linear equation needs unit weight:
        # there int iota dW is not a function of (B_t, Y0)
        with pytest.raises(ValidationError) as err:
            enlargement_normalizer(market, ins, 0.0)
        assert err.value.code == "unsupported_phi"

    def test_large_rent_vanishes_at_remote_horizon(self, market_impact):
        far = value_insider_nonrobust(market_impact, InsiderSpec.enlargement(T0=1e7))
        assert far.total == pytest.approx(V_NN_IMPACT, abs=1e-6)

    def test_impact_rejected_where_not_supported(self, market_impact, insider):
        with pytest.raises(ValidationError):
            value_no_insider_robust(market_impact)
        with pytest.raises(ValidationError):
            value_small_insider_robust(market_impact, insider)

    def test_horizon_order_enforced(self, market):
        with pytest.raises(ValidationError):
            value_small_insider_robust(market, InsiderSpec.enlargement(T0=0.5))


def step_functions(lo, hi):
    """Piecewise-constant functions with up to two breakpoints in (0, 1)."""
    return st.lists(st.floats(0.01, 0.99), unique=True, max_size=2).flatmap(
        lambda bps: st.lists(st.floats(lo, hi), min_size=len(bps) + 1, max_size=len(bps) + 1).map(
            lambda vals: PiecewiseConstant((0.0, *sorted(bps)), vals)))


@st.composite
def weighted_markets(draw):
    """T = 1 with piecewise coefficients and impact, a horizon T0 and a constant weight c."""
    sigma = draw(step_functions(0.2, 0.6))
    market = MarketParams(
        r=draw(step_functions(0.0, 0.05)),
        mu0=draw(step_functions(-0.2, 0.4)),
        sigma=sigma,
        varrho=draw(st.floats(0.0, 0.45)) * min(sigma.values) ** 2,
        T=1.0,
        X0=draw(st.floats(0.1, 10.0)),
    )
    c = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([1.0, -1.0]))
    return market, draw(st.floats(1.01, 50.0)), c


class TestGeneralWeight:
    @settings(max_examples=100, deadline=None)
    @given(case=weighted_markets(), t=st.floats(0.0, 0.99), y0=st.floats(-3.0, 3.0),
           b=st.floats(-3.0, 3.0))
    def test_constant_weight_is_unit_weight(self, case, t, y0, b):
        # a constant weight c scales Y0, B_t and every ||phi_w||^2 by c and c^2:
        # the closed forms do not see it
        market, T0, c = case
        unit, scaled = InsiderSpec.enlargement(T0=T0), InsiderSpec.enlargement(T0=T0, phi_weight=c)
        small = market.without_impact()
        for value, mk in ((value_small_insider_robust, small), (value_insider_nonrobust, market)):
            assert value(mk, scaled).total == pytest.approx(value(mk, unit).total, rel=1e-12, abs=1e-12)
        assert pi_insider_nonrobust(market, scaled, c * y0, c * b, t) == pytest.approx(
            pi_insider_nonrobust(market, unit, y0, b, t), rel=1e-12, abs=1e-12)


class TestPiecewiseQuadratures:
    def test_step_sum_agreement(self):
        m = MarketParams(
            r=PiecewiseConstant((0.0, 0.4), (0.01, 0.03)),
            mu0=PiecewiseConstant((0.0, 0.6), (0.15, 0.10)),
            sigma=PiecewiseConstant((0.0, 0.25), (0.35, 0.45)),
            varrho=0.0,
            T=1.0,
            X0=1.0,
        )
        knots = np.unique(np.concatenate([np.linspace(0, 1, 2001), [0.25, 0.4, 0.6]]))
        dt = np.diff(knots)
        t = knots[:-1]
        io = (m.mu0(t) - m.r(t)) / m.sigma(t)
        assert integral_iota_sq(m) == pytest.approx(float(np.sum(io**2 * dt)), rel=1e-14)
        weighted = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.3), (1.0, -2.0)))
        w = np.where(t < 0.3, 1.0, -2.0)
        expect = float(np.sum(w * io * dt))
        assert integral_weighted_iota(m, weighted.phi_weight) == pytest.approx(expect, rel=1e-14)

    def test_nonrobust_rent_matches_quadrature(self):
        # (1/2) int_0^T (sigma/sigma_tilde) phi_w^2 / ||phi_w||^2_[t,T0] dt by the
        # midpoint rule, with breakpoints of the market and the weight apart
        m = MarketParams(r=0.0, mu0=0.15, sigma=PiecewiseConstant((0.0, 0.25), (0.35, 0.45)),
                         varrho=PiecewiseConstant((0.0, 0.6), (0.03, 0.0)), T=1.0, X0=1.0)
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.4, 1.5), (1.0, 3.0, 0.5)))
        n = 200_000
        t = (np.arange(n) + 0.5) / n
        w = ins.phi_weight(t)
        density = m.sigma(t) / sigma_tilde(m, t) * w**2 / phi_norm_sq(ins, t, 2.0)
        quadrature = 0.5 * float(np.sum(density)) / n
        assert value_insider_nonrobust(m, ins).rent == pytest.approx(quadrature, rel=1e-9)


class TestRegimeOrdering:
    @pytest.mark.parametrize("t0", [1.2, 1.5, 2.0, 3.0, 6.0, 12.0])
    def test_orderings_hold(self, market, market_impact, t0):
        ins = InsiderSpec.enlargement(T0=t0)
        v_large = value_insider_nonrobust(market_impact, ins).total
        v_small = value_insider_nonrobust(market, ins).total
        v_none = value_no_insider_nonrobust(market).total
        v_small_rob = value_small_insider_robust(market, ins).total
        v_none_rob = value_no_insider_robust(market).total
        assert v_large >= v_small >= v_none
        assert v_small_rob >= v_none_rob
        assert v_small_rob <= v_small
        assert v_none_rob <= v_none

    def test_rent_asymptotics(self, market):
        # 0.5 ln(T0/(T0-T)) ~ T/(2(T0-T)): ratio within 1% at T0 = 100 T
        t0 = 100.0
        rent = value_insider_nonrobust(market, InsiderSpec.enlargement(T0=t0)).rent
        asymptote = market.T / (2.0 * (t0 - market.T))
        assert rent / asymptote == pytest.approx(1.0, abs=0.01)


class TestCriticalHorizon:
    def test_defining_equation_and_bracket(self, market):
        t0_star = critical_T0(market)
        assert 6.0 <= t0_star <= 8.0
        gap = (
            value_small_insider_robust(market, InsiderSpec.enlargement(T0=t0_star)).total
            - value_no_insider_nonrobust(market).total
        )
        assert abs(gap) <= 1e-6

    def test_monotone_in_drift_and_volatility(self):
        t_low_mu = critical_T0(flat_market(mu=0.15))
        t_high_mu = critical_T0(flat_market(mu=0.20))
        assert t_high_mu < t_low_mu
        t_low_sig = critical_T0(flat_market(sigma=0.35))
        t_high_sig = critical_T0(flat_market(sigma=0.45))
        assert t_high_sig > t_low_sig

    def test_no_root_without_excess_return(self):
        with pytest.raises(ValidationError) as err:
            critical_T0(flat_market(mu=0.0))
        assert err.value.code == "bracket_no_root"


def step_functions(lo, hi, max_breaks=3):
    """Piecewise-constant functions with up to max_breaks breakpoints in (0, 3)."""
    return st.lists(st.floats(1e-3, 3.0), unique=True, max_size=max_breaks).flatmap(
        lambda bps: st.lists(st.floats(lo, hi), min_size=len(bps) + 1, max_size=len(bps) + 1).map(
            lambda vals: PiecewiseConstant((0.0, *sorted(bps)), vals)
        )
    )


@st.composite
def gap_markets(draw):
    """Markets without impact with piecewise r, mu0 and sigma, and a signal
    weight: unit or piecewise, with mass everywhere."""
    market = MarketParams(
        r=draw(step_functions(-0.05, 0.05)),
        mu0=draw(step_functions(-0.2, 0.4)),
        sigma=draw(step_functions(0.1, 1.0)),
        varrho=0.0,
        T=draw(st.floats(0.1, 3.0)),
        X0=draw(st.floats(0.01, 100.0)),
    )
    weight = draw(st.just(PiecewiseConstant.constant(1.0)) | step_functions(0.2, 3.0))
    return market, weight


def reference_critical_T0(market, weight):
    """critical_T0 as a bisection over value_of on the whole informed value."""
    target = value_of(StrategyKind.NO_INSIDER_NONROBUST, market, InsiderSpec.none()).total

    def gap(T0):
        insider = InsiderSpec.enlargement(T0=T0, phi_weight=weight)
        return value_of(StrategyKind.SMALL_INSIDER_ROBUST, market, insider).total - target

    lo, hi = 1.05 * market.T, 1000.0 * market.T
    f_lo, f_hi = gap(lo), gap(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        return "bracket_no_root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if abs(f_mid) <= 1e-6:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return "bisection_stalled"


class TestLeanBisection:
    @settings(max_examples=200, deadline=None)
    @given(case=gap_markets(), frac=st.floats(0.0, 1.0, exclude_min=True), data=st.data())
    def test_gap_is_the_value_of_gap_bit_for_bit(self, case, frac, data):
        market, weight = case
        # T0 in (T, 1000 T], at the ends of the search and between them
        T0 = data.draw(st.sampled_from([market.T + frac * 999.0 * market.T, 1.05 * market.T,
                                        1000.0 * market.T, np.nextafter(market.T, np.inf)]))
        target = value_of(StrategyKind.NO_INSIDER_NONROBUST, market, InsiderSpec.none()).total
        insider = InsiderSpec.enlargement(T0=T0, phi_weight=weight)
        try:
            expect = value_of(StrategyKind.SMALL_INSIDER_ROBUST, market, insider).total - target
        except ValidationError as err:
            with pytest.raises(ValidationError) as got:
                horizon_gap(market, weight)(T0)
            assert got.value.code == err.code
            return
        assert np.float64(horizon_gap(market, weight)(T0)).tobytes() == np.float64(expect).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=gap_markets())
    def test_critical_T0_is_the_value_of_bisection(self, case):
        market, weight = case
        expect = reference_critical_T0(market, weight)
        if isinstance(expect, str):
            with pytest.raises(ValidationError) as err:
                critical_T0(market, weight)
            assert err.value.code == expect
        else:
            got = critical_T0(market, weight)
            assert type(got) is float and got == expect

    def test_critical_T0_at_unit_weight_is_the_default(self, market):
        assert critical_T0(market) == critical_T0(market, PiecewiseConstant.constant(1.0))
        assert critical_T0(market, PiecewiseConstant((0.0, 0.5), (1.0, 3.0))) != critical_T0(market)

    def test_overflowing_market_is_value_finite(self):
        # ln X0 + int r overflows a float at every horizon
        market = flat_market(r=1e300, T=1e10)
        with pytest.raises(ValidationError) as err:
            horizon_gap(market)(2e10)
        assert err.value.code == "value_finite"
        with pytest.raises(ValidationError) as err:
            critical_T0(market)
        assert err.value.code == "value_finite"

    def test_weight_without_mass_after_T_is_phi_tail_norm(self, market):
        # no mass on [T, 1.05 T]: the search cannot start there
        weight = PiecewiseConstant((0.0, 1.0, 1.2), (1.0, 0.0, 1.0))
        with pytest.raises(ValidationError) as err:
            critical_T0(market, weight)
        assert err.value.code == "phi_tail_norm"

    def test_impact_is_refused(self, market_impact):
        with pytest.raises(ValidationError) as err:
            critical_T0(market_impact)
        assert err.value.code == "impact_not_allowed"


class TestFigureData:
    def test_value_series_decrease_and_order(self, market_impact):
        t0s = [1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0]
        header, rows = fig_value_table(market_impact, t0s)
        cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        for name in (
            "small_insider_robust",
            "small_insider_nonrobust",
            "large_insider_nonrobust",
        ):
            series = cols[name]
            assert all(a > b for a, b in zip(series, series[1:])), name
        for i in range(len(rows)):
            assert cols["large_insider_nonrobust"][i] >= cols["small_insider_nonrobust"][i]
            assert cols["small_insider_nonrobust"][i] >= cols["no_insider_nonrobust_no_impact"][i]
            assert cols["small_insider_robust"][i] >= cols["no_insider_robust"][i]

    def test_bsde_column_appended_when_supplied(self, market_impact):
        header, rows = fig_value_table(market_impact, [2.0], bsde_values={2.0: 0.123})
        assert header[-1] == "large_insider_robust_bsde"
        assert rows[0][-1] == 0.123

    def test_critical_grid_monotonicity(self, market):
        header, rows = fig_critical_table(market, [0.15, 0.20], [0.35, 0.45])
        table = {(mu, sig): t0 for mu, sig, t0 in rows}
        assert table[(0.20, 0.35)] < table[(0.15, 0.35)]
        assert table[(0.15, 0.45)] > table[(0.15, 0.35)]

    def test_strategy_lines_slopes(self, market_impact, insider):
        t = 0.5
        weighted = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.25, 1.5), (1.0, 3.0, 0.5)))
        for ins in (insider, weighted):
            header, rows = strategy_line_table(market_impact, ins, t, [-1.0, 0.0, 1.0], y0=1.0)
            slopes = strategy_line_slopes(market_impact, ins, t)
            w = [row[0] for row in rows]
            for col, name in ((1, "small_insider_robust"), (2, "small_insider_nonrobust"),
                              (3, "large_insider_nonrobust")):
                fd = (rows[2][col] - rows[0][col]) / (w[2] - w[0])
                assert fd == pytest.approx(slopes[name], abs=1e-10), name

    def test_slope_values_frozen(self, market_impact, insider):
        # -1/(sigma (2T0 - t - T)), -1/(sigma (T0 - t)), -1/(sigma_tilde (T0 - t))
        slopes = strategy_line_slopes(market_impact, insider, 0.5)
        assert slopes["small_insider_robust"] == pytest.approx(-1.1428571428571428, abs=1e-12)
        assert slopes["small_insider_nonrobust"] == pytest.approx(-1.0 / (0.35 * 1.5), abs=1e-12)
        assert slopes["large_insider_nonrobust"] == pytest.approx(-1.0 / (0.175 * 1.5), abs=1e-12)
