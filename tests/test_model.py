import numpy as np
import pytest
from hypothesis import given, strategies as st

from insiderlab.model import (
    DomainError,
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    breakpoints,
    iota,
    phi_norm_sq,
    sigma_tilde,
    validate,
)


def make_config(**overrides):
    params = dict(
        market=MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0),
        insider=InsiderSpec.enlargement(T0=2.0),
        n_steps=10,
        n_paths=100,
        seed=1,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


class TestPiecewiseConstant:
    def test_constant_evaluation(self):
        f = PiecewiseConstant.constant(0.35)
        assert f(0.0) == 0.35
        assert f(12.7) == 0.35
        np.testing.assert_array_equal(f(np.array([0.0, 1.0])), [0.35, 0.35])

    def test_right_continuous_steps(self):
        f = PiecewiseConstant((0.0, 1.0), (2.0, 1.0))
        assert f(0.999999) == 2.0
        assert f(1.0) == 1.0

    @given(bps=st.lists(st.floats(1e-6, 5.0), unique=True, max_size=4),
           t=st.floats(-1.0, 6.0) | st.sampled_from([0.0, 1.0, np.inf, -np.inf, np.nan]),
           data=st.data())
    def test_scalar_evaluation_is_the_array_one(self, bps, t, data):
        # a scalar takes a bisection of its own: the same piece, breakpoints and
        # points outside [0, inf) included, as a one-element array
        bp = (0.0, *sorted(bps))
        f = PiecewiseConstant(bp, data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(bp), max_size=len(bp))))
        for x in (t, *bp):
            got = f(x)
            assert type(got) is float
            assert got == f(np.array([x]))[0]

    @given(bps=st.lists(st.floats(1e-6, 5.0), unique=True, max_size=4),
           a=st.floats(0.0, 6.0), b=st.floats(0.0, 8.0),
           power=st.sampled_from([1, 2]), data=st.data())
    def test_scalar_integral_is_the_array_one(self, bps, a, b, power, data):
        # a scalar lower limit takes a bisection and Python floats of its own:
        # the same bits as a one-element array, from breakpoints and between them
        bp = (0.0, *sorted(bps))
        f = PiecewiseConstant(bp, data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(bp), max_size=len(bp))))
        for x in (a, *bp, b):
            if x > b:
                with pytest.raises(DomainError):
                    f.integral(x, b, power=power)
                continue
            got = f.integral(x, b, power=power)
            assert type(got) is float
            assert np.float64(got).tobytes() == f.integral(np.array([x]), b, power=power).tobytes()

    def test_exact_integral(self):
        f = PiecewiseConstant((0.0, 1.0), (2.0, 1.0))
        assert f.integral(0.0, 2.0) == 3.0
        assert f.integral(0.5, 1.5) == 1.5

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValidationError):
            PiecewiseConstant((0.5,), (1.0,))
        with pytest.raises(ValidationError):
            PiecewiseConstant((0.0, 0.0), (1.0, 2.0))


class TestIota:
    def test_fig1_inputs(self, market):
        assert iota(market, 0.3) == pytest.approx(0.15 / 0.35, abs=1e-15)

    def test_zero_excess_return(self):
        m = MarketParams(r=0.05, mu0=0.05, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        assert iota(m, 0.5) == 0.0

    def test_low_drift_inputs(self):
        m = MarketParams(r=0.0, mu0=0.08, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        assert iota(m, 0.0) == pytest.approx(0.08 / 0.35, abs=1e-15)

    def test_outside_horizon_rejected(self, market):
        with pytest.raises(DomainError):
            iota(market, 1.5)
        with pytest.raises(DomainError):
            iota(market, -0.1)


class TestSigmaTilde:
    def test_no_impact_degeneracy(self, market):
        assert sigma_tilde(market, 0.2) == market.sigma(0.2)

    def test_quarter_square_impact_halves(self, market_impact):
        assert sigma_tilde(market_impact, 0.2) == pytest.approx(0.175, abs=1e-15)

    def test_direct_arithmetic(self):
        m = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.06, T=1.0, X0=1.0)
        assert sigma_tilde(m, 0.0) == pytest.approx(0.35 - 0.12 / 0.35, abs=1e-15)


class TestPhiNormSq:
    def test_unit_weight_interval_length(self, insider):
        assert phi_norm_sq(insider, 0.5, 2.0) == pytest.approx(1.5, abs=1e-15)

    def test_empty_interval(self, insider):
        assert phi_norm_sq(insider, 0.7, 0.7) == 0.0

    def test_piecewise_hand_quadrature(self):
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.0), (2.0, 1.0)))
        assert phi_norm_sq(ins, 0.0, 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_reversed_bounds_rejected(self, insider):
        with pytest.raises(DomainError):
            phi_norm_sq(insider, 1.0, 0.5)


def test_breakpoints_are_the_inner_ends_of_the_constant_pieces():
    # shared breakpoints count once; 0, T and those beyond T are not inner
    def steps(*bps):
        return PiecewiseConstant((0.0, *bps), [0.1] * (len(bps) + 1))

    market = MarketParams(r=steps(0.5, 2.0), mu0=steps(0.25, 0.5), sigma=steps(1.0), varrho=steps(0.75),
                          T=1.0, X0=1.0)
    assert breakpoints(market) == [0.25, 0.5, 0.75]
    assert breakpoints(market, steps(0.1, 0.75, 1.5)) == [0.1, 0.25, 0.5, 0.75]


class TestValidate:
    def test_valid_config_passes(self):
        validate(make_config())

    def test_sigma_floor(self):
        m = MarketParams(r=0.0, mu0=0.15, sigma=1e-9, varrho=0.0, T=1.0, X0=1.0)
        with pytest.raises(ValidationError) as err:
            validate(make_config(market=m))
        assert err.value.code == "sigma_floor"

    def test_varrho_strictly_below_half_sigma_sq(self):
        # the bound is strict: varrho = sigma^2/2 is rejected
        m = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.5 * 0.35**2, T=1.0, X0=1.0)
        with pytest.raises(ValidationError) as err:
            validate(make_config(market=m))
        assert err.value.code == "varrho_range"

    def test_negative_varrho_rejected(self):
        m = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=-0.01, T=1.0, X0=1.0)
        with pytest.raises(ValidationError) as err:
            validate(make_config(market=m))
        assert err.value.code == "varrho_range"

    def test_t0_must_exceed_horizon(self):
        with pytest.raises(ValidationError) as err:
            validate(make_config(insider=InsiderSpec.enlargement(T0=0.8)))
        assert err.value.code == "t0_after_horizon"

    def test_phi_needs_tail_mass(self):
        ins = InsiderSpec.enlargement(
            T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.0), (1.0, 0.0))
        )
        with pytest.raises(ValidationError) as err:
            validate(make_config(insider=ins))
        assert err.value.code == "phi_tail_norm"

    def test_grid_and_ensemble_minima(self):
        with pytest.raises(ValidationError) as err:
            validate(make_config(n_steps=1))
        assert err.value.code == "n_steps_min"
        with pytest.raises(ValidationError) as err:
            validate(make_config(n_paths=0))
        assert err.value.code == "n_paths_min"

    def test_nonfinite_coefficient_rejected(self):
        m = MarketParams(r=float("nan"), mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        with pytest.raises(ValidationError) as err:
            validate(make_config(market=m))
        assert err.value.code == "coefficient_bounded"

    def test_varrho_checked_on_every_piece(self):
        # second piece violates the bound even though the first is fine
        m = MarketParams(
            r=0.0,
            mu0=0.15,
            sigma=0.35,
            varrho=PiecewiseConstant((0.0, 0.5), (0.0, 0.07)),
            T=1.0,
            X0=1.0,
        )
        with pytest.raises(ValidationError) as err:
            validate(make_config(market=m))
        assert err.value.code == "varrho_range"

    def test_no_insider_ignores_t0(self):
        validate(make_config(insider=InsiderSpec.none()))


class TestImmutability:
    def test_frozen_types(self, market, insider):
        with pytest.raises(AttributeError):
            market.T = 2.0
        with pytest.raises(AttributeError):
            insider.T0 = 3.0
