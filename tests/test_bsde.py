import math

import numpy as np
import pytest

from insiderlab import bsde
from insiderlab.analysis import value_no_insider_robust, value_small_insider_robust
from insiderlab.bsde import (
    BsdeSolution,
    SweepPaths,
    _as_sweep_paths,
    _backward_sweep,
    _factor,
    _monomials,
    _projected_mismatch,
    _quadratic_driver,
    RegressionError,
    ShootingError,
    enlargement_normalizer,
    initial_controls,
    knot_table,
    pi_star_functional,
    recover_controls,
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    value_from_bsde,
)
from insiderlab.cli import _linear_report, _quadratic_report
from insiderlab.model import InsiderSpec, MarketParams, ScenarioConfig
from insiderlab.paths import partial_signals, sample_paths
from insiderlab.simulate import mean_se, simulate_wealth
from insiderlab.strategies import StrategyKind, build_profile

IOTA = 0.15 / 0.35
IOTA_SQ = IOTA**2
VALUE1 = 0.045918367346938776
VALUE2 = 0.28678267429077676


def interior_mask(grid):
    t_left = grid.knots[: grid.index_T]
    return (t_left >= 0.1 * grid.T) & (t_left <= 0.9 * grid.T), t_left


class TestPiStarFunctional:
    def test_unit_when_driftless(self, no_insider):
        flat = MarketParams(r=0.05, mu0=0.05, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=16, seed=1)
        batch = sample_paths(cfg)
        pist = pi_star_functional(batch, flat)
        # r != 0 contributes the deterministic discount only
        np.testing.assert_allclose(pist.values(0.0, 1.0), math.exp(-0.05), atol=1e-12)

    def test_gaussian_mean_of_square_root(self, batch_lsmc_flat, market):
        pist = pi_star_functional(batch_lsmc_flat, market)
        mean, se = mean_se(np.sqrt(pist.values(0.0, 1.0)))
        assert abs(mean - math.exp(-IOTA_SQ / 8.0)) < 3.0 * se

    def test_multiplicative_on_grid(self, batch_small, market):
        pist = pi_star_functional(batch_small, market)
        lhs = pist.values(0.0, 1.0)
        for mid in (0.2, 0.5, 0.8):
            rhs = pist.values(0.0, mid) * pist.values(mid, 1.0)
            assert np.max(np.abs(rhs / lhs - 1.0)) < 1e-12

    def test_reversed_bounds_rejected(self, batch_small, market):
        pist = pi_star_functional(batch_small, market)
        with pytest.raises(ValueError):
            pist.values(0.5, 0.2)


class TestLinearClosedForm:
    def test_bond_only_when_no_excess_return(self, no_insider):
        flat = MarketParams(r=0.03, mu0=0.03, sigma=0.35, varrho=0.0, T=1.0, X0=2.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=8, seed=2)
        batch = sample_paths(cfg)
        sol = solve_linear_closed_form(batch, flat, no_insider)
        i = batch.grid.index_of(0.5)
        np.testing.assert_allclose(sol.Y[:, i], 2.0 * math.exp(0.015), atol=1e-12)
        np.testing.assert_allclose(sol.Z, 0.0, atol=1e-14)

    def test_initial_condition_exact(self, batch_lsmc_flat, batch_lsmc_enl, market, insider, no_insider):
        for batch, ins in ((batch_lsmc_flat, no_insider), (batch_lsmc_enl, insider)):
            sol = solve_linear_closed_form(batch, market, ins)
            np.testing.assert_allclose(sol.Y[:, 0], market.X0, atol=1e-10)

    def test_terminal_pathwise_gaussian_form(self, batch_lsmc_flat, market, no_insider):
        # X_T = X0 exp{iota W_T / 2 + 3 iota^2 T / 8} pathwise at r = 0
        sol = solve_linear_closed_form(batch_lsmc_flat, market, no_insider)
        w_T = batch_lsmc_flat.dW.sum(axis=1)
        target = math.exp(0.375 * IOTA_SQ) * np.exp(0.5 * IOTA * w_T)
        np.testing.assert_allclose(sol.Y[:, -1], target, rtol=1e-12)

    def test_inverse_terminal_moment_identity(self, batch_lsmc_flat, market, no_insider):
        # E[1/X_T] equals E[sqrt(Pi(0,T))]^2 / X0 = exp(-iota^2 T / 4)
        sol = solve_linear_closed_form(batch_lsmc_flat, market, no_insider)
        mean, se = mean_se(1.0 / sol.Y[:, -1])
        assert abs(mean - math.exp(-IOTA_SQ / 4.0)) < 3.0 * se

    def test_matches_simulated_optimal_wealth_no_insider(self, batch_lsmc_flat, market, no_insider, insider):
        # exact pathwise agreement: the closed form is the log-Euler path
        sol = solve_linear_closed_form(batch_lsmc_flat, market, no_insider)
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_lsmc_flat, market, insider)
        wealth = simulate_wealth(batch_lsmc_flat, prof, market)
        np.testing.assert_allclose(np.log(sol.Y), wealth.logX, atol=1e-12)

    def test_matches_simulated_optimal_wealth_enlargement(self, market, insider):
        # continuous formula vs discrete simulation: strong gap shrinks in dt
        gaps = []
        for n_steps in (100, 400):
            cfg = ScenarioConfig(market=market, insider=insider, n_steps=n_steps,
                                 n_paths=1000, seed=32)
            batch = sample_paths(cfg)
            sol = solve_linear_closed_form(batch, market, insider)
            prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch, market, insider)
            wealth = simulate_wealth(batch, prof, market)
            diff = np.log(sol.Y[:, -1]) - wealth.logX[:, -1]
            gaps.append(math.sqrt(float(np.mean(diff**2))))
        assert gaps[0] < 0.05
        assert gaps[1] < gaps[0]

    def test_control_is_fraction_times_wealth(self, batch_lsmc_enl, market, insider):
        sol = solve_linear_closed_form(batch_lsmc_enl, market, insider)
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider)
        m = batch_lsmc_enl.grid.index_T
        np.testing.assert_allclose(sol.Z, 0.35 * prof.pi * sol.Y[:, :m], rtol=1e-12)

    def test_normalizer_tower_property(self, batch_lsmc_enl, market, insider):
        # E[sqrt(Pi(0,T)) p(Y0)] = E[normalizer(Y0) p(Y0)] for polynomial p
        pist = pi_star_functional(batch_lsmc_enl, market)
        sq = np.sqrt(pist.values(0.0, 1.0))
        norm = enlargement_normalizer(market, insider, batch_lsmc_enl.Y0)
        for k in range(3):
            weight = batch_lsmc_enl.Y0**k
            diff, se = mean_se((sq - norm) * weight)
            assert abs(diff) < 4.0 * se, (k, diff, se)

    def test_unsupported_weight_rejected(self, batch_lsmc_enl, market):
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=2.0)
        with pytest.raises(Exception, match="unit signal weight"):
            solve_linear_closed_form(batch_lsmc_enl, market, ins)


class TestLinearLsmc:
    def test_no_insider_against_closed_form(self, batch_lsmc_flat, market, no_insider):
        oracle = solve_linear_closed_form(batch_lsmc_flat, market, no_insider)
        sol = solve_linear_lsmc(batch_lsmc_flat, market, no_insider, basis_order=3)
        assert abs(mean_se(sol.Y[:, 0])[0] - market.X0) < 0.01 * market.X0
        mask, _ = interior_mask(batch_lsmc_flat.grid)
        m = batch_lsmc_flat.grid.index_T
        pi_hat = sol.Z / (0.35 * sol.Y[:, :m])
        pi_star = oracle.Z / (0.35 * oracle.Y[:, :m])
        rmse = math.sqrt(float(np.mean((pi_hat[:, mask] - pi_star[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(pi_star[:, mask] ** 2))) < 0.05

    def test_zero_exposure_degenerate_case(self, no_insider):
        flat = MarketParams(r=0.03, mu0=0.03, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=25, n_paths=20_000, seed=6)
        batch = sample_paths(cfg)
        sol = solve_linear_lsmc(batch, flat, no_insider)
        assert math.sqrt(float(np.mean(sol.Z**2))) <= 1e-3

    def test_enlargement_against_closed_form(self, batch_lsmc_enl, market, insider):
        oracle = solve_linear_closed_form(batch_lsmc_enl, market, insider)
        sol = solve_linear_lsmc(batch_lsmc_enl, market, insider, basis_order=3)
        assert abs(mean_se(sol.Y[:, 0])[0] - market.X0) < 0.01 * market.X0
        mask, _ = interior_mask(batch_lsmc_enl.grid)
        m = batch_lsmc_enl.grid.index_T
        pi_hat = sol.Z / (0.35 * sol.Y[:, :m])
        pi_star = oracle.Z / (0.35 * oracle.Y[:, :m])
        rmse = math.sqrt(float(np.mean((pi_hat[:, mask] - pi_star[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(pi_star[:, mask] ** 2))) < 0.10

    def test_rank_deficient_design_raises(self, market, insider):
        cfg = ScenarioConfig(market=market, insider=insider, n_steps=10, n_paths=4, seed=3)
        batch = sample_paths(cfg)
        with pytest.raises(RegressionError) as err:
            solve_linear_lsmc(batch, market, insider, basis_order=3)
        assert err.value.rank < err.value.n_columns


class TestQuadraticLsmc:
    def test_degenerate_no_impact_is_exact(self, batch_lsmc_flat, market, no_insider):
        # z* = 0: the control-variate regression reproduces it exactly and the
        # value equals the uninformed robust value
        sol = solve_quadratic_lsmc(batch_lsmc_flat, market, no_insider)
        v, _ = value_from_bsde(sol)
        assert abs(v - VALUE1) <= 1e-9
        assert math.sqrt(float(np.mean(sol.Z**2))) <= 1e-2
        assert sol.residual <= 1e-3
        assert sol.c == pytest.approx(VALUE1, abs=1e-9)

    def test_trivial_market(self, no_insider):
        flat = MarketParams(r=0.0, mu0=0.0, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=5000, seed=9)
        batch = sample_paths(cfg)
        sol = solve_quadratic_lsmc(batch, flat, no_insider)
        assert sol.c == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.Y, 0.0, atol=1e-12)

    def test_impact_raises_value(self, batch_lsmc_flat, market_impact, no_insider):
        # sigma_tilde = sigma/2: value = iota^2 T sigma/(2(sigma+sigma_tilde))
        sol = solve_quadratic_lsmc(batch_lsmc_flat, market_impact, no_insider)
        v, _ = value_from_bsde(sol)
        assert v >= VALUE1
        assert v == pytest.approx(IOTA_SQ / 3.0, abs=1e-9)
        assert sol.residual <= 1e-3

    def test_shooting_monotone_in_terminal_constant(self, batch_lsmc_flat, market, no_insider):
        sol = solve_quadratic_lsmc(batch_lsmc_flat, market, no_insider, c2_init=-0.3)
        assert len(sol.trace) >= 2
        pairs = sorted((c2, l0) for _, c2, _, l0 in sol.trace)
        l0s = [l0 for _, l0 in pairs]
        assert all(a < b for a, b in zip(l0s, l0s[1:]))

    def test_shooting_failure_carries_residual(self, batch_lsmc_flat, market, no_insider):
        with pytest.raises(ShootingError) as err:
            solve_quadratic_lsmc(
                batch_lsmc_flat, market, no_insider, c2_init=-0.5, shoot_tol=1e-18, max_iter=1
            )
        assert err.value.residual > 0.0

    def test_enlargement_value_and_controls(self, batch_lsmc_enl, market, insider):
        # no impact: the quadratic route must reproduce the informed robust
        # solution; ln(eps X) has z = sigma pi + theta with both closed forms
        sol = solve_quadratic_lsmc(batch_lsmc_enl, market, insider)
        v, se = value_from_bsde(sol)
        assert abs(v - VALUE2) < 6.5e-3  # first-order step bias at dt = 0.02
        grid = batch_lsmc_enl.grid
        m = grid.index_T
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider)
        z_true = 0.35 * prof.pi + prof.theta
        mask, _ = interior_mask(grid)
        rmse = math.sqrt(float(np.mean((sol.Z[:, mask] - z_true[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(z_true[:, mask] ** 2))) < 0.10

    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_regression_state_built_once_per_solve(self, batch_small, market, insider,
                                                   count_calls, max_iter):
        # the state is copied from the batch once; no pass rebuilds it from dW
        fills = count_calls(bsde._fill_sweep_rows)
        signals = count_calls(partial_signals)
        with pytest.raises(ShootingError) as err:
            solve_quadratic_lsmc(batch_small, market, insider, shoot_tol=0.0, max_iter=max_iter)
        assert err.value.iterations == max_iter
        assert len(fills) == 1
        assert not signals

    def test_enlargement_terminal_matches_quadratic_truth(self, batch_lsmc_enl, market, insider):
        # true terminal: c2(y) = ln X0 - 2 ln normalizer(y), exactly quadratic
        sol = solve_quadratic_lsmc(batch_lsmc_enl, market, insider)
        coef = np.asarray(sol.c)
        y = np.linspace(-2.5, 2.5, 11)
        fitted = coef[0] + coef[1] * y + coef[2] * y**2
        truth = -2.0 * np.log(enlargement_normalizer(market, insider, y))
        assert np.max(np.abs(fitted - truth)) < 0.05


class TestRegressionEngine:
    def test_gram_fit_matches_lstsq(self):
        rng = np.random.default_rng(11)
        n = 20_000
        x = rng.normal(size=n)
        y = 0.7 * x + rng.normal(scale=1.5, size=n)
        design = np.empty((10, n))
        _monomials(design, x, y, 3)
        raw = design.copy()
        expected = [x ** (d - a) * y**a for d in range(4) for a in range(d + 1)]
        np.testing.assert_allclose(raw, expected, rtol=1e-14, atol=0)
        _, inv_gram = _factor(design, 0.0)
        target = np.sin(x) + 0.25 * y**2 + rng.normal(size=n)
        coef, *_ = np.linalg.lstsq(raw.T, target, rcond=None)
        fitted = inv_gram @ (design @ target) @ design
        np.testing.assert_allclose(fitted, raw.T @ coef, rtol=0, atol=1e-10)

    def test_cached_factors_bit_identical(self, batch_small, market_impact, insider):
        m, n = batch_small.grid.index_T, batch_small.n_paths
        paths = _as_sweep_paths(batch_small)
        driver = _quadratic_driver(paths, market_impact, insider)
        cached = [None] * m
        L, Z = np.empty((m + 1, n)), np.empty((m, n))
        _backward_sweep(paths, np.zeros(n), driver, 3, cached, L, Z)
        assert all(f is not None for f in cached)
        terminal = 0.1 + 0.05 * batch_small.Y0**2
        _backward_sweep(paths, terminal, driver, 3, cached, L, Z)
        L1, Z1 = L.copy(), Z.copy()
        # the same pair again, now from fresh factors
        _backward_sweep(paths, terminal, driver, 3, [None] * m, L, Z)
        assert np.array_equal(L1, L)
        assert np.array_equal(Z1, Z)

    @pytest.mark.parametrize("varrho", [0.0, 0.01, 0.25 * 0.35**2, 0.05])
    def test_quadratic_driver_leading_coefficient(self, batch_small, insider, varrho):
        mk = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=varrho, T=1.0, X0=1.0)
        f = _quadratic_driver(_as_sweep_paths(batch_small), mk, insider)
        st = 0.35 - 2.0 * varrho / 0.35
        one = np.ones(batch_small.n_paths)
        for i in (0, 25, batch_small.grid.index_T - 1):
            lead = 0.5 * (f(i, one) + f(i, -one) - 2.0 * f(i, 0.0 * one))
            np.testing.assert_allclose(lead, st / (2.0 * (0.35 + st)), rtol=0, atol=1e-12)


class TestRecoverControls:
    def test_degenerate_quadratic_reproduces_uninformed_robust(
        self, batch_lsmc_flat, market, no_insider
    ):
        sol = solve_quadratic_lsmc(batch_lsmc_flat, market, no_insider)
        prof = recover_controls(sol, market, batch_lsmc_flat, StrategyKind.LARGE_INSIDER_ROBUST)
        np.testing.assert_allclose(prof.pi, IOTA / (2 * 0.35), atol=1e-10)
        np.testing.assert_allclose(prof.theta, -IOTA / 2, atol=1e-10)

    def test_algebraic_identities_random_control(self, batch_small, market_impact, insider):
        rng = np.random.default_rng(17)
        m = batch_small.grid.index_T
        t_left = batch_small.grid.knots[:m]
        z = rng.normal(size=(batch_small.n_paths, m))
        sol = BsdeSolution(grid=batch_small.grid, Y=np.ones((batch_small.n_paths, m + 1)),
                           Z=z, c=0.0, residual=0.0)
        prof = recover_controls(sol, market_impact, batch_small, StrategyKind.LARGE_INSIDER_ROBUST)
        sig = market_impact.sigma(t_left)
        st = sig - 2 * market_impact.varrho(t_left) / sig
        phit = 0.15 / 0.35 + batch_small.phi
        np.testing.assert_allclose(sig * prof.pi + prof.theta, z, atol=1e-12)
        np.testing.assert_allclose(prof.theta, st * prof.pi - phit, atol=1e-12)

    def test_linear_inversion_recovers_fraction(self, batch_lsmc_enl, market, insider):
        sol = solve_linear_closed_form(batch_lsmc_enl, market, insider)
        prof = recover_controls(sol, market, batch_lsmc_enl, StrategyKind.SMALL_INSIDER_ROBUST)
        expect = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider)
        np.testing.assert_allclose(prof.pi, expect.pi, rtol=1e-10)
        np.testing.assert_allclose(prof.theta, expect.theta, atol=1e-10)


def test_knot_table_shape(batch_lsmc_flat, market, no_insider):
    oracle = solve_linear_closed_form(batch_lsmc_flat, market, no_insider)
    sol = solve_linear_lsmc(batch_lsmc_flat, market, no_insider)
    header, rows = knot_table(sol, oracle)
    assert header[0] == "t"
    assert len(rows) == batch_lsmc_flat.grid.index_T + 1
    assert all(len(r) == len(header) for r in rows)


def test_knot_table_path_order_insensitive(batch_small, market, insider):
    oracle = solve_linear_closed_form(batch_small, market, insider)
    rng = np.random.default_rng(5)
    sol = BsdeSolution(grid=oracle.grid, Y=oracle.Y * np.exp(0.01 * rng.normal(size=oracle.Y.shape)),
                       Z=oracle.Z + 0.01 * rng.normal(size=oracle.Z.shape), c=0.0, residual=0.0)
    perm = rng.permutation(batch_small.n_paths)

    def permuted(s):
        return BsdeSolution(grid=s.grid, Y=s.Y[perm], Z=s.Z[perm], c=s.c, residual=s.residual)

    assert knot_table(sol, oracle) == knot_table(permuted(sol), permuted(oracle))
    assert knot_table(sol) == knot_table(permuted(sol))


def test_report_cells_path_order_insensitive(batch_small, market_impact, insider):
    # Y0_mean, mean_abs_z, mean_pi_0 and the enlargement shooting residual
    # depend only on the multiset of values
    m = batch_small.grid.index_T
    rng = np.random.default_rng(8)
    sol = BsdeSolution(grid=batch_small.grid, Y=np.exp(rng.normal(size=(batch_small.n_paths, m + 1))),
                       Z=rng.normal(size=(batch_small.n_paths, m)), c=0.0, residual=0.0)
    paths = _as_sweep_paths(batch_small)

    def reports(s, p):
        pi_0, _ = initial_controls(s, market_impact, p, insider, StrategyKind.LARGE_INSIDER_ROBUST)
        return repr((_linear_report(s, market_impact), _quadratic_report(s, pi_0)))

    # a signal and mismatch on a coarse dyadic lattice keep every sum over
    # paths exact, so the projection is the same in any order and only the
    # residual's mean could depend on it
    signal = rng.integers(-64, 65, size=batch_small.n_paths) / 16.0
    mismatch = rng.integers(-50, 51, size=batch_small.n_paths) / 8.0

    def shooting_residual(order):
        design = np.empty((3, len(order)))
        _monomials(design, signal[order], None, 2)
        _, inv_gram = _factor(design, 0.0)
        return _projected_mismatch(design, inv_gram, mismatch[order])[1]

    residual = shooting_residual(np.arange(batch_small.n_paths))
    assert residual > 0.0

    # one permutation leaves a plain np.mean unchanged about half the time
    for _ in range(8):
        perm = rng.permutation(batch_small.n_paths)
        shuffled = BsdeSolution(grid=sol.grid, Y=sol.Y[perm], Z=sol.Z[perm], c=sol.c,
                                residual=sol.residual)
        shuffled_paths = SweepPaths(grid=paths.grid, level=paths.level[:, perm],
                                    dWH=paths.dWH[:, perm], Y0=paths.Y0[perm])
        assert reports(shuffled, shuffled_paths) == reports(sol, paths)
        assert repr(shooting_residual(perm)) == repr(residual)
