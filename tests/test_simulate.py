import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insiderlab.analysis import value_no_insider_robust, value_small_insider_robust
from insiderlab.model import InsiderSpec, MarketParams, PiecewiseConstant, ScenarioConfig, ValidationError
from insiderlab.paths import sample_paths
from insiderlab.simulate import (
    EntropyCheck,
    MartingaleStat,
    _default_checkpoints,
    entropy_identity_check,
    estimate_J,
    game_terms,
    martingale_diagnostic,
    mean_se,
    simulate_density,
    simulate_wealth,
    stream_martingale,
    weighted_increments,
)
from insiderlab.strategies import StrategyKind, StrategyProfile, build_profile

IOTA = 0.15 / 0.35
IOTA_SQ = IOTA**2


def constant_profile(batch, pi_value, theta_value):
    m = batch.grid.index_T
    return StrategyProfile(
        pi=np.full((1, m), float(pi_value)),
        theta=np.full((1, m), float(theta_value)),
        grid=batch.grid,
    )


def entropy_check(batch, profile, market):
    return entropy_identity_check(*game_terms(batch, profile, market)[1:])


def martingale_stats(batch, profile, market, checkpoints=None):
    checkpoints = checkpoints or _default_checkpoints(batch.grid)
    return martingale_diagnostic(weighted_increments(batch, profile, market, checkpoints), checkpoints)


def per_path_J(batch, profile, log_wealth, log_density):
    m = batch.grid.index_T
    dt = batch.grid.dt[:m]
    eps_left = np.exp(log_density[:, :-1])
    penalty = np.sum(eps_left * 0.5 * profile.theta**2 * dt, axis=1)
    return np.exp(log_density[:, -1]) * log_wealth + penalty


class TestWealth:
    def test_bond_only(self, batch_flat_100k):
        market = MarketParams(r=0.03, mu0=0.03, sigma=0.35, varrho=0.0, T=1.0, X0=2.0)
        prof = constant_profile(batch_flat_100k, 0.0, 0.0)
        log_wealth = simulate_wealth(batch_flat_100k, prof, market)
        assert np.allclose(log_wealth, math.log(2.0) + 0.03, atol=1e-12)

    def test_constant_exposure_pathwise_identity(self, batch_flat_100k, market):
        flat = MarketParams(r=0.0, mu0=0.0, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        c = 0.2
        prof = constant_profile(batch_flat_100k, c / 0.35, 0.0)
        log_wealth = simulate_wealth(batch_flat_100k, prof, flat)
        w_T = batch_flat_100k.dW.sum(axis=1)
        np.testing.assert_allclose(log_wealth, -0.5 * c**2 + c * w_T, atol=1e-10)

    def test_expected_log_wealth_robust_fraction(self, batch_flat_100k, market, insider):
        # E[ln X_T] = (iota c - c^2/2) T with c = iota/2: frozen 0.0688775510
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)
        log_wealth = simulate_wealth(batch_flat_100k, prof, market)
        mean, se = mean_se(log_wealth)
        assert abs(mean - 0.06887755102040816) < 3.0 * se

    def test_grid_mismatch_rejected(self, batch_flat_100k, batch_small, market):
        prof = constant_profile(batch_small, 0.1, 0.0)
        with pytest.raises(ValueError):
            simulate_wealth(batch_flat_100k, prof, market)


class TestDensity:
    def test_zero_distortion_gives_unit_density(self, batch_small):
        prof = constant_profile(batch_small, 0.3, 0.0)
        log_dens = simulate_density(batch_small, prof)
        assert not np.any(log_dens)

    def test_martingale_property_constant_theta(self, batch_flat_100k):
        prof = constant_profile(batch_flat_100k, 0.0, -0.5 * IOTA)
        log_dens = simulate_density(batch_flat_100k, prof)
        mean, se = mean_se(np.exp(log_dens[:, -1]))
        assert abs(mean - 1.0) < 3.0 * se

    def test_mean_one_at_every_knot(self, batch_100k, market):
        # positive exact exponential per path; unit mean within 4 SE throughout
        prof = build_profile(
            StrategyKind.SMALL_INSIDER_ROBUST, batch_100k, market, InsiderSpec.enlargement(T0=2.0)
        )
        log_dens = simulate_density(batch_100k, prof)
        assert np.all(np.exp(log_dens) > 0.0)
        for i in range(20, batch_100k.grid.index_T + 1, 40):
            mean, se = mean_se(np.exp(log_dens[:, i]))
            assert abs(mean - 1.0) < 4.0 * se, (i, mean, se)

    def test_gaussian_tilt_entropy(self, batch_flat_100k):
        # E[eps_T ln eps_T] = theta^2 T / 2 for constant theta
        prof = constant_profile(batch_flat_100k, 0.0, -0.5 * IOTA)
        log_dens = simulate_density(batch_flat_100k, prof)
        val = np.exp(log_dens[:, -1]) * log_dens[:, -1]
        mean, se = mean_se(val)
        assert abs(mean - IOTA_SQ / 8.0) < 3.0 * se


class TestEstimateJ:
    def test_reduces_to_expected_log_utility(self, batch_flat_100k, market, insider):
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)
        no_theta = prof.scaled(theta_factor=0.0)
        log_wealth = simulate_wealth(batch_flat_100k, no_theta, market)
        j = estimate_J(game_terms(batch_flat_100k, no_theta, market)[0])
        mean, _ = mean_se(log_wealth)
        assert j.mean == pytest.approx(mean, abs=1e-12)

    def test_matches_uninformed_robust_value(self, batch_flat_100k, market, insider):
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)
        j = estimate_J(game_terms(batch_flat_100k, prof, market)[0])
        assert abs(j.mean - value_no_insider_robust(market).total) < 3.0 * j.std_error
        assert j.std_error > 0.0

    def test_matches_informed_robust_value(self, batch_100k, market, insider):
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_100k, market, insider)
        j = estimate_J(game_terms(batch_100k, prof, market)[0])
        target = value_small_insider_robust(market, insider).total
        assert abs(j.mean - target) < 3.0 * j.std_error

    def test_discretisation_bias_below_noise(self, market, insider, no_insider):
        # doubling the grid moves the estimate by less than one standard error
        js = []
        for n_steps in (200, 400):
            cfg = ScenarioConfig(
                market=market, insider=no_insider, n_steps=n_steps,
                n_paths=100_000, seed=998877,
            )
            batch = sample_paths(cfg)
            prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch, market, insider)
            js.append(estimate_J(game_terms(batch, prof, market)[0]))
        assert abs(js[0].mean - js[1].mean) < max(js[0].std_error, js[1].std_error)

    def test_saddle_point(self, batch_flat_100k, market, insider):
        # local max in pi, local min in theta, via paired comparisons
        base = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)

        def j_per_path(profile):
            log_wealth = simulate_wealth(batch_flat_100k, profile, market)
            log_dens = simulate_density(batch_flat_100k, profile)
            return per_path_J(batch_flat_100k, profile, log_wealth, log_dens)

        j_star = j_per_path(base)
        for factor in (0.8, 1.2):
            diff, se = mean_se(j_star - j_per_path(base.scaled(pi_factor=factor)))
            assert diff > -3.0 * se, (factor, diff, se)
            diff, se = mean_se(j_per_path(base.scaled(theta_factor=factor)) - j_star)
            assert diff > -3.0 * se, (factor, diff, se)


class TestEntropyIdentity:
    def test_zero_distortion_trivial(self, batch_small, market):
        prof = constant_profile(batch_small, 0.2, 0.0)
        res = entropy_check(batch_small, prof, market)
        assert res.lhs_mean == 0.0
        assert res.rhs_mean == 0.0

    def test_constant_theta_gaussian_value(self, batch_flat_100k, market):
        prof = constant_profile(batch_flat_100k, 0.0, -0.5 * IOTA)
        res = entropy_check(batch_flat_100k, prof, market)
        assert abs(res.lhs_mean - IOTA_SQ / 8.0) < 3.0 * res.lhs_se
        assert abs(res.rhs_mean - IOTA_SQ / 8.0) < 3.0 * res.rhs_se

    def test_informed_robust_gap_within_tolerance(self, batch_100k, market, insider):
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_100k, market, insider)
        res = entropy_check(batch_100k, prof, market)
        assert abs(res.z) < 3.0


class TestMartingaleDiagnostic:
    def test_uninformed_robust_within_tolerance(self, batch_flat_100k, market, insider):
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)
        stats = martingale_stats(batch_flat_100k, prof, market)
        assert len(stats) == 10
        assert all(abs(s.z) < 4.0 for s in stats), [round(s.z, 2) for s in stats]

    def test_informed_robust_within_tolerance(self, batch_100k, market, insider):
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_100k, market, insider)
        stats = martingale_stats(batch_100k, prof, market)
        assert all(abs(s.z) < 4.0 for s in stats), [round(s.z, 2) for s in stats]

    def test_perturbed_fraction_detected(self, batch_flat_100k, market, insider):
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_flat_100k, market, insider)
        stats = martingale_stats(batch_flat_100k, prof.scaled(pi_factor=1.3), market)
        assert any(abs(s.z) > 4.0 for s in stats), [round(s.z, 2) for s in stats]

    def test_custom_checkpoints(self, batch_small, market, insider):
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_small, market, insider)
        stats = martingale_stats(batch_small, prof, market, checkpoints=[(0.0, 0.5)])
        assert len(stats) == 1
        assert stats[0].t == 0.0 and stats[0].h == 0.5


N_STEPS = 12


@st.composite
def piecewise_on_knots(draw, low, high):
    """A step function of [0, 1] with breakpoints on multiples of 1/(4 N_STEPS):
    on a knot of the N_STEPS-step uniform grid or, as a knot build_grid adds,
    between two, which makes the steps unequal."""
    inner = draw(st.lists(st.integers(1, 4 * N_STEPS - 1), max_size=3, unique=True))
    bps = [0.0] + [k / (4 * N_STEPS) for k in sorted(inner)]
    vals = draw(st.lists(st.floats(low, high), min_size=len(bps), max_size=len(bps)))
    return PiecewiseConstant(bps, vals)


@st.composite
def kernel_cases(draw):
    """A market with piecewise r, mu0, sigma and varrho, a small ensemble, and
    a profile that is per path or one broadcast row, with theta zero or not."""
    sigma = draw(piecewise_on_knots(0.1, 0.8))
    # varrho < sigma^2/2 on every piece
    rho_max = 0.45 * float(np.min(sigma.values)) ** 2
    market = MarketParams(
        r=draw(piecewise_on_knots(-0.1, 0.1)),
        mu0=draw(piecewise_on_knots(-0.3, 0.5)),
        sigma=sigma,
        varrho=draw(piecewise_on_knots(0.0, rho_max)),
        T=1.0,
        X0=draw(st.floats(0.5, 2.0)),
    )
    insider = draw(st.sampled_from([InsiderSpec.none(), InsiderSpec.enlargement(T0=2.0)]))
    cfg = ScenarioConfig(market=market, insider=insider, n_steps=N_STEPS, n_paths=64,
                         seed=draw(st.integers(0, 2**32)))
    batch = sample_paths(cfg)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = draw(st.sampled_from([1, cfg.n_paths]))
    m = batch.grid.index_T
    pi = rng.normal(0.0, 2.0, (rows, m))
    theta = np.zeros_like(pi) if draw(st.booleans()) else rng.normal(0.0, 1.0, (rows, m))
    return batch, StrategyProfile(pi=pi, theta=theta, grid=batch.grid), market


def assert_reassociated(new, old, scale):
    """new equals old up to reassociation: within 1e-12 of the sum `scale` of
    the absolute terms that make it up."""
    assert np.all(np.abs(new - old) <= 1e-12 * scale), np.max(np.abs(new - old) / scale)


class TestKernelAlgebra:
    """The per-block kernels against the whole-matrix formulas they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases())
    def test_kernels_match_matrix_formulas(self, case):
        batch, profile, market = case
        grid = batch.grid
        m = grid.index_T
        t_left = grid.knots[:m]
        r, mu0 = market.r(t_left), market.mu0(t_left)
        sig, rho = market.sigma(t_left), market.varrho(t_left)
        pi, theta, dt, dW = profile.pi, profile.theta, grid.dt, batch.dW[:, :m]

        # log-wealth at every knot, by the log-Euler step
        drift = r + (mu0 + rho * pi - r) * pi - 0.5 * (sig * pi) ** 2
        incr = drift * dt + sig * pi * dW
        log_x = math.log(market.X0) + np.cumsum(incr, axis=1)
        wealth_scale = abs(math.log(market.X0)) + np.sum(
            np.abs(r * dt) + np.abs((mu0 - r) * pi * dt) + np.abs((rho - 0.5 * sig**2) * pi**2 * dt)
            + np.abs(sig * pi * dW), axis=1)
        assert_reassociated(simulate_wealth(batch, profile, market), log_x[:, -1], wealth_scale)

        # log-density at every knot
        d_log_e = theta * batch.dWH - 0.5 * theta**2 * dt
        log_e = np.zeros((batch.n_paths, m + 1))
        np.cumsum(d_log_e, axis=1, out=log_e[:, 1:])
        density_scale = np.cumsum(np.abs(theta * batch.dWH) + 0.5 * theta**2 * dt, axis=1)
        assert_reassociated(simulate_density(batch, profile)[:, 1:], log_e[:, 1:], density_scale)

        # penalty and relative entropy
        _, penalty, entropy = game_terms(batch, profile, market)
        old_penalty = np.sum(np.exp(log_e[:, :-1]) * 0.5 * theta**2 * dt, axis=1)
        np.testing.assert_allclose(penalty, old_penalty, rtol=1e-12, atol=0.0)
        eps_T = np.exp(log_e[:, -1])
        assert_reassociated(entropy, eps_T * log_e[:, -1],
                            eps_T * density_scale[:, -1] * (1.0 + np.abs(log_e[:, -1])))

        # density-weighted increments of the optimality martingale
        checkpoints = _default_checkpoints(grid)
        dm = (mu0 + 2.0 * rho * pi - r - sig**2 * pi) * dt + sig * dW
        dm_abs = (np.abs(mu0 - r) + np.abs((2.0 * rho - sig**2) * pi)) * dt + np.abs(sig * dW)
        weighted = weighted_increments(batch, profile, market, checkpoints)
        for k, (t, h) in enumerate(checkpoints):
            i, j = grid.index_of(t), grid.index_of(t + h)
            assert_reassociated(weighted[k], eps_T * np.sum(dm[:, i:j], axis=1),
                                eps_T * np.sum(dm_abs[:, i:j], axis=1))


class TestReductions:
    def test_mean_se_order_insensitive(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(size=50_000)
        m1, s1 = mean_se(x)
        perm = rng.permutation(len(x))
        m2, s2 = mean_se(x[perm])
        assert abs(m1 - m2) <= 1e-12 * abs(m1)
        assert abs(s1 - s2) <= 1e-12 * abs(s1)


class TestNonFiniteEstimates:
    # refused with a code and no RuntimeWarning, which pytest turns into an error
    @pytest.mark.parametrize("estimate", [
        lambda x: estimate_J(x),
        lambda x: entropy_identity_check(x, np.zeros_like(x)),
        lambda x: entropy_identity_check(np.zeros_like(x), x),
        lambda x: martingale_diagnostic(x[None, :], [(0.0, 0.1)]),
    ], ids=["J", "penalty", "entropy", "martingale"])
    @pytest.mark.parametrize("values", [
        [1.0, math.inf], [1.0, math.nan], [-math.inf, math.inf],
        [1e300, -1e300],  # finite, but the square in the SE overflows
        [1e308, 1e308],  # finite, but their sum overflows
    ])
    def test_non_finite_value_mean_or_se_is_refused(self, estimate, values):
        with pytest.raises(ValidationError) as err:
            estimate(np.array(values))
        assert err.value.code == "estimate_finite"

    def test_overflowing_entropy_gap_is_refused(self):
        # one path: each side has a finite mean and SE 0, and only the gap overflows
        with pytest.raises(ValidationError) as err:
            entropy_identity_check(np.array([1.7e308]), np.array([-1.7e308]))
        assert err.value.code == "estimate_finite"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_density_on_workers_is_refused(self, threads):
        # the workers run the kernels with warnings off too
        market = MarketParams(r=0.0, mu0=1e160, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        config = ScenarioConfig(market=market, insider=InsiderSpec.enlargement(T0=2.0), n_steps=10,
                                n_paths=5000, seed=1)

        def profile_of(batch, out):
            return build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch, market, config.insider, out)

        with pytest.raises(ValidationError) as err:
            stream_martingale(config, profile_of, market, threads)
        assert err.value.code == "estimate_finite"


class TestZeroStandardError:
    def test_martingale_stat_z_is_nan(self):
        assert math.isnan(MartingaleStat(t=0.0, h=0.1, estimate=0.0, std_error=0.0).z)

    def test_entropy_check_z_is_nan(self):
        check = EntropyCheck(lhs_mean=0.1, lhs_se=0.0, rhs_mean=0.1, rhs_se=0.0, gap=0.0, gap_se=0.0)
        assert math.isnan(check.z)
