import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insiderlab.model import (
    DomainError,
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    breakpoints,
    iota,
    sigma_tilde,
)
from insiderlab.paths import build_grid, partial_signals, sample_paths, stream_paths
from insiderlab.strategies import (
    StrategyKind,
    build_profile,
    pi_insider_nonrobust,
    pi_no_insider_robust,
    pi_small_insider_robust,
    run_out,
    theta_from_pi,
    theta_no_insider_robust,
    theta_small_insider_robust,
)

IOTA = 0.15 / 0.35
KNOTS = np.arange(41) / 20.0  # k/20: the grid of T = 1, T0 = 2 at 20 steps per unit


def step_functions(lo, hi, n_knots):
    """Piecewise-constant functions with values in [lo, hi] and breakpoints on
    KNOTS[1:n_knots]."""
    return st.lists(st.integers(1, n_knots - 1), unique=True, max_size=4).flatmap(
        lambda ks: st.lists(st.floats(lo, hi), min_size=len(ks) + 1, max_size=len(ks) + 1).map(
            lambda vals: PiecewiseConstant((0.0, *sorted(KNOTS[k] for k in ks)), vals)
        )
    )


@st.composite
def markets(draw):
    """T = 1, piecewise r, mu0 and sigma, and a constant admissible varrho."""
    sigma = draw(step_functions(0.2, 0.6, 20))
    return MarketParams(
        r=draw(step_functions(0.0, 0.05, 20)),
        mu0=draw(step_functions(0.0, 0.3, 20)),
        sigma=sigma,
        varrho=draw(st.floats(0.0, 0.45)) * min(sigma.values) ** 2,
        T=1.0,
        X0=1.0,
    )


def signal_weights():
    return step_functions(0.5, 2.0, 40).map(lambda w: InsiderSpec.enlargement(T0=2.0, phi_weight=w))


def _fsum(fn, breaks, a, b):
    """math.fsum of fn over the constant pieces of [a, b] cut at `breaks`."""
    cut = [a, *sorted(p for p in set(breaks) if a < p < b), b]
    return math.fsum(fn(lo) * (hi - lo) for lo, hi in zip(cut, cut[1:]))


class TestNoInsiderClosedForms:
    def test_robust_fraction(self, market):
        # (mu0 - r) / (2 sigma^2), frozen arithmetic
        assert pi_no_insider_robust(market, 0.3) == pytest.approx(0.6122448979591837, abs=1e-15)

    def test_zero_excess_return(self):
        m = MarketParams(r=0.02, mu0=0.02, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        assert pi_no_insider_robust(m, 0.1) == 0.0
        assert theta_no_insider_robust(m, 0.1) == 0.0

    def test_half_of_log_utility_fraction(self, market):
        merton = (market.mu0(0.0) - market.r(0.0)) / market.sigma(0.0) ** 2
        assert pi_no_insider_robust(market, 0.0) == pytest.approx(0.5 * merton, abs=1e-15)

    def test_robust_distortion(self, market):
        assert theta_no_insider_robust(market, 0.7) == pytest.approx(-0.2142857142857143, abs=1e-15)

    def test_distortion_consistent_with_first_order_relation(self, market):
        pi = pi_no_insider_robust(market, 0.4)
        implied = theta_from_pi(market, 0.0, pi, 0.4)
        assert implied == pytest.approx(theta_no_insider_robust(market, 0.4), abs=1e-15)


class TestSmallInsiderRobust:
    """Sample state: unit weight, t = 0.5, T = 1, T0 = 2, W_T0 - W_t = 1."""

    def test_sample_state_fraction(self, market, insider):
        # iota/(2 sigma) + (1 + iota/4) / (0.35 * 2.5), frozen
        pi = pi_small_insider_robust(market, insider, y0=1.0, b_t=0.0, t=0.5)
        assert pi == pytest.approx(1.8775510204081633, abs=1e-12)

    def test_sample_state_distortion(self, market, insider):
        th = theta_small_insider_robust(market, insider, y0=1.0, b_t=0.0, t=0.5)
        assert th == pytest.approx(-0.4380952380952381, abs=1e-12)

    def test_vanishes_without_signal_or_excess_return(self, insider):
        m = MarketParams(r=0.0, mu0=0.0, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        assert pi_small_insider_robust(m, insider, y0=0.3, b_t=0.3, t=0.5) == 0.0
        assert theta_small_insider_robust(m, insider, y0=0.3, b_t=0.3, t=0.5) == 0.0

    def test_matches_unit_weight_specialisation(self, market, insider):
        # general-weight formula vs the unit-weight closed form, independent route
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = float(rng.uniform(0.0, 0.99))
            w_t = float(rng.normal())
            y0 = float(rng.normal(0.0, np.sqrt(2.0)))
            a_t = 2.0 * insider.T0 - t - market.T
            half_int = 0.5 * IOTA * (market.T - t)
            direct = IOTA / (2 * 0.35) + (y0 - w_t + half_int) / (0.35 * a_t)
            assert pi_small_insider_robust(market, insider, y0, w_t, t) == pytest.approx(
                direct, abs=1e-12
            )

    def test_rejects_evaluation_at_horizon(self, market, insider):
        with pytest.raises(DomainError):
            pi_small_insider_robust(market, insider, 1.0, 0.0, 1.0)


class TestLargeInsiderNonRobust:
    def test_merton_degeneracy_without_signal_term(self, market, insider):
        pi = pi_insider_nonrobust(market, insider, y0=0.0, b_t=0.0, t=0.0)
        merton = IOTA / 0.35
        assert pi == pytest.approx(merton, abs=1e-12)

    def test_impact_amplified_first_term(self, market_impact, insider):
        pi = pi_insider_nonrobust(market_impact, insider, y0=0.0, b_t=0.0, t=0.0)
        assert pi == pytest.approx(2.4489795918367347, abs=1e-12)

    def test_sample_state(self, market_impact, insider):
        pi = pi_insider_nonrobust(market_impact, insider, y0=1.0, b_t=0.0, t=0.5)
        assert pi == pytest.approx(6.258503401360544, abs=1e-12)

    def test_slope_in_noise_level(self, market_impact, insider):
        t, h = 0.5, 1e-6
        up = pi_insider_nonrobust(market_impact, insider, 1.0, h, t)
        dn = pi_insider_nonrobust(market_impact, insider, 1.0, -h, t)
        slope = (up - dn) / (2 * h)
        assert slope == pytest.approx(-1.0 / (0.175 * 1.5), rel=1e-9)

    def test_general_weight_drift(self, market_impact):
        # phi_w = 1 on [0, 1.5), 2 on [1.5, 2]: at t = 0.5 the drift is
        # (Y0 - B_t) / ||phi_w||^2_[t,T0] = 1 / 3, over sigma_tilde = 0.175
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.5), (1.0, 2.0)))
        pi = pi_insider_nonrobust(market_impact, ins, y0=1.0, b_t=0.0, t=0.5)
        assert pi == pytest.approx((IOTA + 1.0 / 3.0) / 0.175, abs=1e-12)


class TestThetaFromPi:
    def test_reproduces_no_insider_distortion(self, market):
        pi = pi_no_insider_robust(market, 0.2)
        assert theta_from_pi(market, 0.0, pi, 0.2) == pytest.approx(
            -0.5 * iota(market, 0.2), abs=1e-15
        )

    def test_nonrobust_fractions_give_zero(self, market_impact, insider):
        # the unconstrained optimum phi_tilde / sigma_tilde zeroes the distortion
        for phi in (-0.3, 0.0, 0.8):
            pi = (iota(market_impact, 0.1) + phi) / sigma_tilde(market_impact, 0.1)
            assert theta_from_pi(market_impact, phi, pi, 0.1) == pytest.approx(0.0, abs=1e-14)

    def test_matches_small_insider_distortion(self, market, insider):
        t, y0, b = 0.25, 0.7, -0.2
        pi = pi_small_insider_robust(market, insider, y0, b, t)
        phi = (y0 - b) / (insider.T0 - t)
        assert theta_from_pi(market, phi, pi, t) == pytest.approx(
            theta_small_insider_robust(market, insider, y0, b, t), abs=1e-13
        )


class TestRegimeDegeneracyLattice:
    def test_large_without_impact_is_small_nonrobust(self, market, batch_small, kernel_rows):
        # one form in two markets: without impact the two profiles are one
        insider = batch_small.insider
        small, large = (build_profile(kind, batch_small, market, insider, kernel_rows(batch_small)[0]).pi for kind in
                        (StrategyKind.SMALL_INSIDER_NONROBUST, StrategyKind.LARGE_INSIDER_NONROBUST))
        assert np.array_equal(small, large)

    def test_small_robust_without_drift_is_no_insider_robust(self, market, insider):
        # zero the signal term by choosing the residual to cancel the run-out
        for t in (0.1, 0.5, 0.9):
            half_int = 0.5 * IOTA * (market.T - t)
            pi = pi_small_insider_robust(market, insider, y0=-half_int, b_t=0.0, t=t)
            assert pi == pytest.approx(pi_no_insider_robust(market, t), abs=1e-14)


class TestLinearityInSignal:
    def test_affine_with_exact_slope(self, market, insider):
        t = 0.5
        a_t = 2.0 * insider.T0 - t - market.T
        analytic = 1.0 / (0.35 * a_t)  # slope in (W_T0 - W_t)
        base = pi_small_insider_robust(market, insider, 0.0, 0.0, t)
        h = 1e-5
        fd = (
            pi_small_insider_robust(market, insider, h, 0.0, t)
            - pi_small_insider_robust(market, insider, -h, 0.0, t)
        ) / (2 * h)
        assert fd == pytest.approx(analytic, abs=1e-10)
        # affine: second difference is numerically zero
        second = (
            pi_small_insider_robust(market, insider, h, 0.0, t)
            - 2.0 * base
            + pi_small_insider_robust(market, insider, -h, 0.0, t)
        )
        assert abs(second) < 1e-12


class TestProfiles:
    def test_nonrobust_profiles_have_zero_theta(self, market, insider, batch_small, kernel_rows):
        for kind in (
            StrategyKind.NO_INSIDER_NONROBUST,
            StrategyKind.SMALL_INSIDER_NONROBUST,
            StrategyKind.LARGE_INSIDER_NONROBUST,
        ):
            prof = build_profile(kind, batch_small, market, insider, kernel_rows(batch_small)[0])
            assert not np.any(prof.theta)
            assert np.all(np.isfinite(prof.pi))

    def test_half_characterization_identity(self, market, insider, batch_small, kernel_rows):
        # mu0 + 2 varrho pi - r - sigma^2 pi + sigma (phi + theta) = 0 per knot
        grid = batch_small.grid
        t = grid.knots[: grid.index_T]
        for kind, drift in (
            (StrategyKind.NO_INSIDER_ROBUST, np.zeros((1, len(t)))),
            (StrategyKind.SMALL_INSIDER_ROBUST, batch_small.phi),
            (StrategyKind.SMALL_INSIDER_NONROBUST, batch_small.phi),
            (StrategyKind.LARGE_INSIDER_NONROBUST, batch_small.phi),
        ):
            prof = build_profile(kind, batch_small, market, insider, kernel_rows(batch_small)[0])
            resid = (
                market.mu0(t)
                + 2.0 * market.varrho(t) * prof.pi
                - market.r(t)
                - market.sigma(t) ** 2 * prof.pi
                + market.sigma(t) * (drift + prof.theta)
            )
            assert np.max(np.abs(resid)) < 1e-12, kind

    def test_half_characterization_with_impact(self, market_impact, insider, batch_small, kernel_rows):
        prof = build_profile(
            StrategyKind.LARGE_INSIDER_NONROBUST, batch_small, market_impact, insider, kernel_rows(batch_small)[0]
        )
        grid = batch_small.grid
        t = grid.knots[: grid.index_T]
        resid = (
            market_impact.mu0(t)
            + 2.0 * market_impact.varrho(t) * prof.pi
            - market_impact.r(t)
            - market_impact.sigma(t) ** 2 * prof.pi
            + market_impact.sigma(t) * (batch_small.phi + prof.theta)
        )
        assert np.max(np.abs(resid)) < 1e-12

    def test_large_insider_robust_is_delegated(self, market, insider, batch_small, kernel_rows):
        with pytest.raises(ValidationError) as err:
            build_profile(StrategyKind.LARGE_INSIDER_ROBUST, batch_small, market, insider, kernel_rows(batch_small)[0])
        assert err.value.code == "no_closed_form"

    @pytest.mark.parametrize("kind", [StrategyKind.SMALL_INSIDER_NONROBUST, StrategyKind.LARGE_INSIDER_NONROBUST])
    def test_nonrobust_tiles_share_one_zero_theta_row(self, market, insider, kind, kernel_rows):
        # no path-sized zero theta: every tile of a stream reads one read-only row
        cfg = ScenarioConfig(market=market, insider=insider, n_steps=50, n_paths=5000, seed=4)
        grid = build_grid(cfg)
        thetas = []
        stream_paths(cfg, grid, lambda rows, tile: thetas.append(
            build_profile(kind, tile, market, insider, kernel_rows(tile)[0]).theta))
        assert len(thetas) > 1
        for theta in thetas:
            assert theta.shape == (1, grid.index_T) and not theta.flags.writeable and not np.any(theta)
            assert np.shares_memory(theta, thetas[0])

    @pytest.mark.parametrize("kind, code", [
        (StrategyKind.SMALL_INSIDER_ROBUST, "impact_not_allowed"),
        (StrategyKind.LARGE_INSIDER_ROBUST, "no_closed_form"),
        (StrategyKind.LARGE_INSIDER_NONROBUST, "signal_required"),
    ])
    def test_precondition_order_without_signal(self, market_impact, batch_small, kind, code, kernel_rows):
        # with impact and no signal: impact_not_allowed, then no_closed_form,
        # then signal_required
        with pytest.raises(ValidationError) as err:
            build_profile(kind, batch_small, market_impact, InsiderSpec.none(), kernel_rows(batch_small)[0])
        assert err.value.code == code

    def test_impact_rejected_for_small_trader_forms(self, market_impact, insider, batch_small, kernel_rows):
        with pytest.raises(ValidationError) as err:
            build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_small, market_impact, insider,
                          kernel_rows(batch_small)[0])
        assert err.value.code == "impact_not_allowed"

    @settings(max_examples=30, deadline=None)
    @given(market=markets(), weighted=signal_weights())
    def test_profile_matches_pointwise_formula(self, market, weighted, kernel_rows):
        # each closed-form profile is the closed form over the time axis, and
        # every column the closed form at that knot, for piecewise
        # coefficients and signal weights
        small = market.without_impact()
        cases = (
            (StrategyKind.SMALL_INSIDER_ROBUST, small, weighted,
             {"pi": pi_small_insider_robust, "theta": theta_small_insider_robust}),
            (StrategyKind.SMALL_INSIDER_NONROBUST, small, weighted,
             {"pi": pi_insider_nonrobust}),
            (StrategyKind.LARGE_INSIDER_NONROBUST, market, weighted,
             {"pi": pi_insider_nonrobust}),
        )
        for kind, mk, ins, forms in cases:
            cfg = ScenarioConfig(market=mk, insider=ins, n_steps=20, n_paths=64, seed=3)
            batch = sample_paths(cfg)
            prof = build_profile(kind, batch, mk, ins, kernel_rows(batch)[0])
            t_left = batch.grid.knots[: batch.grid.index_T]
            for name, form in forms.items():
                # bit for bit the closed form over the whole time axis
                whole = form(mk, ins, batch.Y0[:, None], batch.level[:, :-1], t_left)
                assert np.array_equal(getattr(prof, name), whole), name
            b = partial_signals(batch.dW, ins.phi_weight(t_left), np.empty_like(batch.level))
            for i, t in enumerate(batch.grid.knots[: batch.grid.index_T]):
                for name, form in forms.items():
                    expect = form(mk, ins, batch.Y0, b[:, i], float(t))
                    np.testing.assert_allclose(
                        getattr(prof, name)[:, i], expect, rtol=0, atol=1e-14
                    )


@settings(max_examples=50, deadline=None)
@given(market=markets(), insider=signal_weights())
def test_run_out_integrals_match_fsum_at_every_knot(market, insider):
    # every knot of [0, T), breakpoints included, in one vectorised call
    t = KNOTS[:20]
    phi = insider.phi_weight
    w, norm_t, norm_T, cross = run_out(market, insider, t)
    np.testing.assert_array_equal(w, phi(t))
    assert abs(norm_T - _fsum(lambda s: phi(s) ** 2, phi.breakpoints, 1.0, 2.0)) <= 1e-13
    breaks = [*phi.breakpoints, *breakpoints(market)]
    for i, a in enumerate(t):
        assert abs(norm_t[i] - _fsum(lambda s: phi(s) ** 2, phi.breakpoints, a, 2.0)) <= 1e-13
        product = _fsum(lambda s: phi(s) * iota(market, s), breaks, a, 1.0)
        assert abs(cross[i] - product) <= 1e-13
