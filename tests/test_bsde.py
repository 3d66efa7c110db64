import csv
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.hermite_e import hermegauss

from insiderlab.analysis import value_of
from insiderlab.bsde import (
    _BASIS_ORDER,
    _TERMINAL_DEGREE,
    KNOT_HEADER,
    BsdeSolution,
    _backward_sweep,
    _controls,
    _driver,
    _factor,
    _gaussian_moments,
    _monomials,
    _projected_mismatch,
    _quadratic_driver,
    _step_moments,
    RegressionError,
    enlargement_normalizer,
    initial_controls,
    knot_table,
    log_pi_star,
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    stream_sweep_paths,
    value_from_bsde,
)
from insiderlab.cli import _linear_report, _quadratic_report, main
from insiderlab.model import (InsiderSpec, MarketParams, PiecewiseConstant, ScenarioConfig, ValidationError, iota,
                              phi_norm_sq, sigma_tilde)
from insiderlab.paths import partial_signals
from insiderlab.simulate import mean_se, ordered_mean, simulate_wealth
from insiderlab.strategies import (StrategyKind, StrategyProfile, build_profile, closed_form_lines,
                                   pi_no_insider_robust, pi_small_insider_robust, run_out)

# finite floats, with extra weight near the largest ones
HUGE_OR_ANY = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-1.7976931348623157e308, -1.7e308, -8.9e307, 8.9e307, 1.7e308,
                                         1.7976931348623157e308]))
IOTA = 0.15 / 0.35
IOTA_SQ = IOTA**2
VALUE1 = 0.045918367346938776
VALUE2 = 0.28678267429077676


def every_knot_controls(Z, market, batch):
    """(pi, theta) of the quadratic control Z (n_paths, index_T) at every
    knot of [0, T), from the batch's phitilde."""
    m = batch.grid.index_T
    t_left = batch.grid.knots[:m]
    phit = iota(market, t_left) + batch.phi
    return _controls(Z, phit, market.sigma(t_left), sigma_tilde(market, t_left))


def swept(paths, terminal, driver):
    """The knot-major (L, Z) of one _backward_sweep, copied knot by knot."""
    m, n = paths.grid.index_T, paths.n_paths
    L, Z = np.empty((m + 1, n)), np.empty((m, n))

    def observe(i, l, z, work):
        L[i] = l
        if z is not None:
            Z[i] = z

    _backward_sweep(paths, terminal, driver, observe)
    return L, Z


def interior_mask(grid):
    t_left = grid.knots[: grid.index_T]
    return (t_left >= 0.1 * grid.T) & (t_left <= 0.9 * grid.T), t_left


def phitilde_at(paths, market, i):
    """phitilde = iota + phi on step i of the sweep input, pointwise: a
    scalar without a signal."""
    io = iota(market, paths.grid.knots[: paths.grid.index_T])[i]
    return io if paths.Y0 is None else paths.phi(i) + io


class TestPiStarFunctional:
    def test_unit_when_driftless(self, no_insider):
        flat = MarketParams(r=0.05, mu0=0.05, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=16, seed=1)
        paths = stream_sweep_paths(cfg)
        # r != 0 contributes the deterministic discount only
        np.testing.assert_allclose(np.exp(log_pi_star(paths, flat)), math.exp(-0.05), atol=1e-12)

    def test_gaussian_mean_of_square_root(self, sweep_lsmc_flat, market):
        mean, se = mean_se(np.sqrt(np.exp(log_pi_star(sweep_lsmc_flat, market))))
        assert abs(mean - math.exp(-IOTA_SQ / 8.0)) < 3.0 * se

    def test_matches_whole_matrix_exponent(self, sweep_small, market, batch_of):
        # the step-by-step sum on the streamed sweep input against the
        # exponent built from the whole batch of its paths and its phi
        batch = batch_of(sweep_small)
        m = batch.grid.index_T
        t_left = batch.grid.knots[:m]
        phit = iota(market, t_left) + batch.phi
        expo = -(market.r(t_left) + 0.5 * phit**2) * batch.grid.dt[:m] - phit * batch.dWH
        got = log_pi_star(sweep_small, market)
        np.testing.assert_allclose(got, expo.sum(axis=1), rtol=1e-12, atol=1e-14)


class TestLinearClosedForm:
    def test_bond_only_when_no_excess_return(self, no_insider, whole):
        flat = MarketParams(r=0.03, mu0=0.03, sigma=0.35, varrho=0.0, T=1.0, X0=2.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=8, seed=2)
        paths = stream_sweep_paths(cfg)
        _, Y, Z = whole(solve_linear_closed_form, paths, flat)
        i = paths.grid.index_of(0.5)
        np.testing.assert_allclose(Y[:, i], 2.0 * math.exp(0.015), atol=1e-12)
        np.testing.assert_allclose(Z, 0.0, atol=1e-14)

    def test_initial_condition_exact(self, sweep_lsmc_flat, sweep_lsmc_enl, market, whole):
        for paths in (sweep_lsmc_flat, sweep_lsmc_enl):
            _, Y, _ = whole(solve_linear_closed_form, paths, market)
            np.testing.assert_allclose(Y[:, 0], market.X0, atol=1e-10)

    def test_terminal_pathwise_gaussian_form(self, batch_lsmc_flat, sweep_lsmc_flat, market, whole):
        # X_T = X0 exp{iota W_T / 2 + 3 iota^2 T / 8} pathwise at r = 0
        _, Y, _ = whole(solve_linear_closed_form, sweep_lsmc_flat, market)
        w_T = batch_lsmc_flat.dW.sum(axis=1)
        target = math.exp(0.375 * IOTA_SQ) * np.exp(0.5 * IOTA * w_T)
        np.testing.assert_allclose(Y[:, -1], target, rtol=1e-12)

    def test_inverse_terminal_moment_identity(self, sweep_lsmc_flat, market, whole):
        # E[1/X_T] equals E[sqrt(Pi(0,T))]^2 / X0 = exp(-iota^2 T / 4)
        _, Y, _ = whole(solve_linear_closed_form, sweep_lsmc_flat, market)
        mean, se = mean_se(1.0 / Y[:, -1])
        assert abs(mean - math.exp(-IOTA_SQ / 4.0)) < 3.0 * se

    def test_matches_simulated_optimal_wealth_no_insider(self, batch_lsmc_flat, sweep_lsmc_flat, market, insider,
                                                         whole, kernel_rows):
        # exact pathwise agreement: the closed form is the log-Euler path.  At
        # r = 0, trading only up to knot k ends with the wealth of knot k.
        _, Y, _ = whole(solve_linear_closed_form, sweep_lsmc_flat, market)
        out, work = kernel_rows(batch_lsmc_flat)
        prof = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_lsmc_flat, market, insider, out)
        m = batch_lsmc_flat.grid.index_T
        for k in range(m + 1):
            stopped = StrategyProfile(pi=np.where(np.arange(m) < k, prof.pi, 0.0), theta=prof.theta,
                                      grid=prof.grid)
            log_wealth = simulate_wealth(batch_lsmc_flat, stopped, market, work)
            np.testing.assert_allclose(np.log(Y[:, k]), log_wealth, atol=1e-12)

    def test_matches_simulated_optimal_wealth_enlargement(self, market, insider, whole, kernel_rows, batch_of):
        # continuous formula vs discrete simulation: strong gap shrinks in dt
        gaps = []
        for n_steps in (100, 400):
            cfg = ScenarioConfig(market=market, insider=insider, n_steps=n_steps,
                                 n_paths=1000, seed=32)
            paths = stream_sweep_paths(cfg)
            batch = batch_of(paths)
            _, Y, _ = whole(solve_linear_closed_form, paths, market)
            out, work = kernel_rows(batch)
            prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch, market, insider, out)
            log_wealth = simulate_wealth(batch, prof, market, work)
            diff = np.log(Y[:, -1]) - log_wealth
            gaps.append(math.sqrt(float(np.mean(diff**2))))
        assert gaps[0] < 0.05
        assert gaps[1] < gaps[0]

    def test_control_is_fraction_times_wealth(self, batch_lsmc_enl, sweep_lsmc_enl, market, insider, whole,
                                              kernel_rows):
        _, Y, Z = whole(solve_linear_closed_form, sweep_lsmc_enl, market)
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider,
                             kernel_rows(batch_lsmc_enl)[0])
        m = batch_lsmc_enl.grid.index_T
        np.testing.assert_allclose(Z, 0.35 * prof.pi * Y[:, :m], rtol=1e-12)

    def test_control_is_pointwise_fraction_bit_for_bit(self, sweep_lsmc_enl, market):
        # the lines read once per solve give, knot by knot, the bytes of the
        # pointwise closed form evaluated at that knot
        paths = sweep_lsmc_enl
        m = paths.grid.index_T
        t_left = paths.grid.knots[:m]
        sig = market.sigma(t_left)
        knot, out = solve_linear_closed_form(paths, market), np.empty((2, paths.n_paths))
        for i in range(m):
            y, z = knot(i, out)
            expect = sig[i] * pi_small_insider_robust(market, paths.insider, paths.Y0, paths.level(i), t_left[i]) * y
            assert z.tobytes() == expect.tobytes(), i
        assert knot(m, out)[1] is None

    def test_run_out_once_per_solve(self, sweep_lsmc_enl, market, count_calls):
        calls = count_calls(run_out)
        knot, out = solve_linear_closed_form(sweep_lsmc_enl, market), np.empty((2, sweep_lsmc_enl.n_paths))
        for i in range(sweep_lsmc_enl.grid.index_T + 1):
            knot(i, out)
        assert len(calls) == 1

    def test_normalizer_tower_property(self, sweep_lsmc_enl, market, insider):
        # E[sqrt(Pi(0,T)) p(Y0)] = E[normalizer(Y0) p(Y0)] for polynomial p
        sq = np.sqrt(np.exp(log_pi_star(sweep_lsmc_enl, market)))
        norm = enlargement_normalizer(market, insider, sweep_lsmc_enl.Y0)
        for k in range(3):
            weight = sweep_lsmc_enl.Y0**k
            diff, se = mean_se((sq - norm) * weight)
            assert abs(diff) < 4.0 * se, (k, diff, se)

    def test_unsupported_weight_rejected(self, market):
        ins = InsiderSpec.enlargement(T0=2.0, phi_weight=2.0)
        paths = stream_sweep_paths(ScenarioConfig(market=market, insider=ins, n_steps=10, n_paths=16, seed=1))
        with pytest.raises(Exception, match="unit signal weight"):
            solve_linear_closed_form(paths, market)


class TestLinearLsmc:
    def test_no_insider_against_closed_form(self, sweep_lsmc_flat, market, whole):
        _, oracle_Y, oracle_Z = whole(solve_linear_closed_form, sweep_lsmc_flat, market)
        _, Y, Z = whole(solve_linear_lsmc, sweep_lsmc_flat, market)
        assert abs(mean_se(Y[:, 0])[0] - market.X0) < 0.01 * market.X0
        mask, _ = interior_mask(sweep_lsmc_flat.grid)
        m = sweep_lsmc_flat.grid.index_T
        pi_hat = Z / (0.35 * Y[:, :m])
        pi_star = oracle_Z / (0.35 * oracle_Y[:, :m])
        rmse = math.sqrt(float(np.mean((pi_hat[:, mask] - pi_star[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(pi_star[:, mask] ** 2))) < 0.05

    def test_zero_exposure_degenerate_case(self, no_insider, whole):
        flat = MarketParams(r=0.03, mu0=0.03, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=25, n_paths=20_000, seed=6)
        _, _, Z = whole(solve_linear_lsmc, stream_sweep_paths(cfg), flat)
        assert math.sqrt(float(np.mean(Z**2))) <= 1e-3

    @pytest.mark.parametrize("coefficient", [{"mu0": PiecewiseConstant((0.0, 0.5), (0.02, 0.6))},
                                             {"sigma": PiecewiseConstant((0.0, 0.5), (0.35, 0.2))}])
    def test_no_insider_piecewise_coefficients_against_closed_form(self, no_insider, coefficient, whole,
                                                                    whole_table):
        # the solution is a function of int_0^t iota dW, which is not W_t once
        # iota jumps: a W_t state put Y0 29% (mu0) and 1% (sigma) above X0
        market = MarketParams(**{"r": 0.0, "mu0": 0.15, "sigma": 0.35, "varrho": 0.0, "T": 1.0, "X0": 1.0,
                                 **coefficient})
        cfg = ScenarioConfig(market=market, insider=no_insider, n_steps=50, n_paths=100_000, seed=1)
        paths = stream_sweep_paths(cfg)
        _, Y, Z = whole(solve_linear_lsmc, paths, market)
        rows = whole_table(Y, Z, paths.grid, whole(solve_linear_closed_form, paths, market)[1:])
        assert abs(mean_se(Y[:, 0])[0] - market.X0) <= 0.01 * market.X0
        assert max(row[5] for row in rows) <= 0.03

    def test_enlargement_against_closed_form(self, sweep_lsmc_enl, market, whole):
        _, oracle_Y, oracle_Z = whole(solve_linear_closed_form, sweep_lsmc_enl, market)
        _, Y, Z = whole(solve_linear_lsmc, sweep_lsmc_enl, market)
        assert abs(mean_se(Y[:, 0])[0] - market.X0) < 0.01 * market.X0
        mask, _ = interior_mask(sweep_lsmc_enl.grid)
        m = sweep_lsmc_enl.grid.index_T
        pi_hat = Z / (0.35 * Y[:, :m])
        pi_star = oracle_Z / (0.35 * oracle_Y[:, :m])
        rmse = math.sqrt(float(np.mean((pi_hat[:, mask] - pi_star[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(pi_star[:, mask] ** 2))) < 0.10

    def test_rank_deficient_design_raises(self, market, insider):
        cfg = ScenarioConfig(market=market, insider=insider, n_steps=10, n_paths=4, seed=3)
        with pytest.raises(RegressionError) as err:
            solve_linear_lsmc(stream_sweep_paths(cfg), market)
        assert err.value.rank < err.value.n_columns


class TestQuadraticLsmc:
    def test_degenerate_no_impact_is_exact(self, sweep_lsmc_flat, market, whole):
        # z* = 0: the control-variate regression reproduces it exactly and the
        # value equals the uninformed robust value
        sol, _, Z = whole(solve_quadratic_lsmc, sweep_lsmc_flat, market)
        v, _ = value_from_bsde(sol)
        assert abs(v - VALUE1) <= 1e-9
        assert math.sqrt(float(np.mean(Z**2))) <= 1e-2
        assert sol.residual <= 1e-3
        assert sol.c == pytest.approx(VALUE1, abs=1e-9)

    def test_trivial_market(self, no_insider, whole):
        flat = MarketParams(r=0.0, mu0=0.0, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=flat, insider=no_insider, n_steps=20, n_paths=5000, seed=9)
        sol, Y, _ = whole(solve_quadratic_lsmc, stream_sweep_paths(cfg), flat)
        assert sol.c == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(Y - sol.shift[:, None], 0.0, atol=1e-12)

    def test_impact_raises_value(self, sweep_lsmc_flat, market_impact):
        # sigma_tilde = sigma/2: value = iota^2 T sigma/(2(sigma+sigma_tilde))
        sol = solve_quadratic_lsmc(sweep_lsmc_flat, market_impact)
        v, _ = value_from_bsde(sol)
        assert v >= VALUE1
        assert v == pytest.approx(IOTA_SQ / 3.0, abs=1e-9)
        assert sol.residual <= 1e-3

    def test_enlargement_value_and_controls(self, batch_lsmc_enl, sweep_lsmc_enl, market, insider, whole,
                                            kernel_rows):
        # no impact: the quadratic route must reproduce the informed robust
        # solution; ln(eps X) has z = sigma pi + theta with both closed forms
        sol, _, Z = whole(solve_quadratic_lsmc, sweep_lsmc_enl, market)
        v, se = value_from_bsde(sol)
        assert abs(v - VALUE2) < 6.5e-3  # first-order step bias at dt = 0.02
        grid = batch_lsmc_enl.grid
        m = grid.index_T
        prof = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider,
                             kernel_rows(batch_lsmc_enl)[0])
        z_true = 0.35 * prof.pi + prof.theta
        mask, _ = interior_mask(grid)
        rmse = math.sqrt(float(np.mean((Z[:, mask] - z_true[:, mask]) ** 2)))
        assert rmse / math.sqrt(float(np.mean(z_true[:, mask] ** 2))) < 0.10

    @pytest.mark.parametrize("insider_spec", [InsiderSpec.none(), InsiderSpec.enlargement(T0=2.0)],
                             ids=["none", "enlargement"])
    def test_regression_state_built_once_per_solve(self, market, insider_spec, count_calls):
        # one sweep reads the state the sweep input holds: the solver copies
        # none of its path-sized arrays and does not rebuild the state from dW
        cfg = ScenarioConfig(market=market, insider=insider_spec, n_steps=50, n_paths=4096, seed=42)
        paths = stream_sweep_paths(cfg)
        signals = count_calls(partial_signals)
        sweeps = count_calls(_backward_sweep)
        tracemalloc.start()
        try:
            sol = solve_quadratic_lsmc(paths, market)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweeps) == 1
        assert len(sol.trace) == 2
        assert not signals
        # the design, the factors, the per-step rows and one chunk of the
        # state take under one (n_paths, index_T) array: a field over all
        # knots (L, Z, the whole state, dW or dWH) would take at least one
        assert peak < paths.n_paths * paths.grid.index_T * 8

    @pytest.mark.parametrize("insider_spec, varrho", [
        (InsiderSpec.none(), 0.0),
        (InsiderSpec.enlargement(T0=2.0), 0.0),
        (InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.5), (1.0, 3.0))), 0.030625),
    ])
    def test_shot_is_exact(self, insider_spec, varrho, whole):
        # f_Q does not read L and the regression basis holds the terminal's
        # monomials: a fresh sweep from the shot terminal is the shot solution
        mk = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=varrho, T=1.0, X0=1.0)
        cfg = ScenarioConfig(market=mk, insider=insider_spec, n_steps=20, n_paths=4000, seed=13)
        paths = stream_sweep_paths(cfg)
        sol, sol_Y, sol_Z = whole(solve_quadratic_lsmc, paths, mk)
        c = np.atleast_1d(sol.c)
        signal = np.zeros(paths.n_paths) if paths.Y0 is None else paths.Y0
        terminal = sum(ck * signal**k for k, ck in enumerate(c))
        L, Z = swept(paths, terminal, _quadratic_driver(paths, mk))
        np.testing.assert_allclose(L.T, sol_Y - sol.shift[:, None], rtol=0, atol=1e-12)
        np.testing.assert_allclose(Z.T, sol_Z, rtol=0, atol=1e-12)
        assert [row[0] for row in sol.trace] == [0, 1]
        assert sol.trace[1][1] == sol.c
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("insider_spec, shift", [
        (InsiderSpec.none(), (-0.3,)),
        (InsiderSpec.none(), (0.7,)),
        (InsiderSpec.enlargement(T0=2.0), (0.2, -0.1, 0.05)),
    ])
    def test_sweep_shifts_by_terminal_polynomial(self, market_impact, insider_spec, shift):
        # the closed-form shot rests on this: a terminal shifted by c(Y0) in
        # the terminal basis shifts L by c(Y0) at every knot and leaves Z as it is
        cfg = ScenarioConfig(market=market_impact, insider=insider_spec, n_steps=20, n_paths=3000, seed=21)
        paths = stream_sweep_paths(cfg)
        driver = _quadratic_driver(paths, market_impact)
        signal = np.zeros(paths.n_paths) if paths.Y0 is None else paths.Y0
        base = 0.1 * np.ones(paths.n_paths)
        c = sum(ck * signal**k for k, ck in enumerate(shift))
        L0, Z0 = swept(paths, base, driver)
        L1, Z1 = swept(paths, base + c, driver)
        np.testing.assert_allclose(L1 - L0, np.broadcast_to(c, L0.shape), rtol=0, atol=1e-12)
        np.testing.assert_allclose(Z1, Z0, rtol=0, atol=1e-12)

    def test_rank_deficient_design_raises(self, market, insider):
        # 4 paths cannot fit the 6 monomials of the regression basis
        cfg = ScenarioConfig(market=market, insider=insider, n_steps=10, n_paths=4, seed=3)
        with pytest.raises(RegressionError) as err:
            solve_quadratic_lsmc(stream_sweep_paths(cfg), market)
        assert err.value.rank < err.value.n_columns

    def test_enlargement_terminal_matches_quadratic_truth(self, sweep_lsmc_enl, market, insider):
        # true terminal: c2(y) = ln X0 - 2 ln normalizer(y), exactly quadratic
        sol = solve_quadratic_lsmc(sweep_lsmc_enl, market)
        coef = np.asarray(sol.c)
        y = np.linspace(-2.5, 2.5, 11)
        fitted = coef[0] + coef[1] * y + coef[2] * y**2
        truth = -2.0 * np.log(enlargement_normalizer(market, insider, y))
        assert np.max(np.abs(fitted - truth)) < 0.05

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(HUGE_OR_ANY, min_size=3, max_size=3), min_size=2, max_size=2),
           shift=st.lists(HUGE_OR_ANY, min_size=3, max_size=3))
    @example(rows=[[1.7e308, 0.0, -1.0], [0.0, 1.0, 2.0]], shift=[-1.7e308, 0.0, 0.0])
    @example(rows=[[1.7e308, 0.0, -1.0], [0.0, 1.0, 2.0]], shift=[1.7e308, 0.0, 0.0])
    def test_shot_bounds_are_finite_exactly_when_every_shot_row_is(self, rows, shift):
        # what the solver's refusal rests on: per path, fl(x - s) is monotone
        # in x, so the shot minimum and maximum over the rows are both finite
        # exactly when the shot of every row is
        rows, shift = np.array(rows), np.array(shift)
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = np.isfinite(rows.min(axis=0) - shift) & np.isfinite(rows.max(axis=0) - shift)
            every = np.isfinite(rows - shift).all(axis=0)
        assert np.array_equal(bounds, every)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(HUGE_OR_ANY, min_size=2, max_size=2), min_size=2, max_size=2),
           l0=st.one_of(st.floats(-8e307, 8e307), st.sampled_from([-8e307, -1e307, 0.0, 1e307, 8e307])))
    @example(rows=[[-1.7e308, 0.0], [1.0, 2.0]], l0=8e307)  # -2.5e308: refused
    @example(rows=[[1.7e308, 0.0], [1.0, 2.0]], l0=8e307)  # 9e307: kept
    @example(rows=[[0.0, 1.7e308], [1.0, -1.7e308]], l0=-8e307)  # 2.5e308: refused
    def test_shot_refused_exactly_when_some_knot_overflows(self, rows, l0):
        # a sweep of two paths whose finite rows reach +-1.7e308: L_0 = l0 on
        # both paths, so the shot subtracts l0 from every knot, and only a
        # shot row can overflow (the shot L_0 is 0, c2 is -l0)
        market = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        paths = stream_sweep_paths(ScenarioConfig(market=market, insider=InsiderSpec.none(),
                                                  n_steps=3, n_paths=2, seed=1))
        interior = np.array(rows)

        def sweep(paths, terminal, driver, observe):
            z, work = np.zeros(2), np.empty((3, 2))
            observe(3, terminal.copy(), None, work)
            for i in (2, 1):
                observe(i, interior[i - 1].copy(), z, work)
            l0_row = np.full(2, l0)
            observe(0, l0_row, z, work)
            return l0_row, z

        with np.errstate(over="ignore"):
            overflows = not np.isfinite(interior - l0).all()
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.setattr("insiderlab.bsde._backward_sweep", sweep)
            try:
                sol = solve_quadratic_lsmc(paths, market)
            except ValidationError as err:
                assert err.code == "solution_finite"
                assert overflows
            else:
                assert not overflows
                assert np.array_equal(sol.shift, np.full(2, l0))
                assert np.array_equal(sol.y0, np.zeros(2))


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
        inv_gram = _factor(design, 0.0, design @ design.T)
        target = np.sin(x) + 0.25 * y**2 + rng.normal(size=n)
        coef, *_ = np.linalg.lstsq(raw.T, target, rcond=None)
        fitted = inv_gram @ (design @ target) @ design
        np.testing.assert_allclose(fitted, raw.T @ coef, rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.floats(-6.0, 6.0), max_size=4),
           zero_at=st.integers(0, 6), duplicate=st.integers(0, 5))
    def test_factor_fits_rows_of_any_scale_without_writing(self, seed, exponents, zero_at, duplicate):
        # rows at scales from 1e-6 to 1e6 and one all-zero row, regressed on as built
        rng = np.random.default_rng(seed)
        n = 400
        rows = [rng.normal(size=n) * 10.0**e for e in (-6.0, 6.0, *exponents)]
        live = np.array(rows)
        rows.insert(zero_at % (len(rows) + 1), np.zeros(n))
        design = np.array(rows)
        before = design.tobytes()
        inv_gram = _factor(design, 0.0, design @ design.T)
        assert design.tobytes() == before
        y = rng.normal(size=n)
        fitted = inv_gram @ (design @ y) @ design
        # lstsq on the nonzero rows at unit norm: the same span, condition near 1
        unit = (live / np.linalg.norm(live, axis=1)[:, None]).T
        coef, *_ = np.linalg.lstsq(unit, y, rcond=None)
        expected = unit @ coef
        np.testing.assert_allclose(fitted, expected, rtol=0, atol=1e-9 * np.max(np.abs(expected)))
        duplicated = np.vstack([design, live[duplicate % len(live)]])
        with pytest.raises(RegressionError):
            _factor(duplicated, 0.0, duplicated @ duplicated.T)

    @pytest.mark.parametrize("signal", [True, False])
    def test_factored_driver_matches_expanded_f_q(self, signal):
        mk = MarketParams(r=0.03, mu0=0.15, sigma=0.35, varrho=0.02, T=1.0, X0=1.0)
        spec = InsiderSpec.enlargement(T0=2.0) if signal else InsiderSpec.none()
        paths = stream_sweep_paths(ScenarioConfig(market=mk, insider=spec, n_steps=20, n_paths=512, seed=8))
        f = _quadratic_driver(paths, mk)
        sig, st_ = 0.35, sigma_tilde(mk, 0.0)
        k = (sig - st_) / (4.0 * (sig + st_))
        assert k > 0.0
        z = np.random.default_rng(3).normal(scale=2.0, size=paths.n_paths)
        out = np.empty_like(z)
        for i in (0, 7, paths.grid.index_T - 1):
            phit = phitilde_at(paths, mk, i)
            terms = [0.25 * z**2, -0.5 * phit * z, -0.03 + 0.0 * z, -0.25 * phit**2, -k * (z + phit) ** 2]
            np.testing.assert_array_less(np.abs(f(i, z, out) - sum(terms)), 1e-12 * sum(np.abs(t) for t in terms))

    @pytest.mark.parametrize("signal", [True, False])
    def test_linear_member_is_the_linear_driver_bit_for_bit(self, signal):
        # the linear equation's driver in (ln X, zeta) as it was written
        # before the family, -(r + phitilde zeta - zeta^2/2), under piecewise r
        mk = MarketParams(r=PiecewiseConstant((0.0, 0.5), (0.03, 0.01)), mu0=0.15, sigma=0.35,
                          varrho=0.0, T=1.0, X0=1.0)
        spec = InsiderSpec.enlargement(T0=2.0) if signal else InsiderSpec.none()
        paths = stream_sweep_paths(ScenarioConfig(market=mk, insider=spec, n_steps=20, n_paths=512, seed=8))
        m = paths.grid.index_T
        f, r = _driver(paths, mk, 0.5, -1.0, 0.0), mk.r(paths.grid.knots[:m])
        z = np.random.default_rng(5).normal(scale=2.0, size=paths.n_paths)
        out = np.empty_like(z)
        assert len(set(r)) == 2
        for i in range(m):
            phit = phitilde_at(paths, mk, i)
            expected = ((0.5 * z) - phit) * z - r[i]
            assert f(i, z, out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("varrho", [0.0, 0.01, 0.25 * 0.35**2, 0.05])
    def test_quadratic_driver_leading_coefficient(self, sweep_small, varrho):
        mk = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=varrho, T=1.0, X0=1.0)
        f = _quadratic_driver(sweep_small, mk)
        st = 0.35 - 2.0 * varrho / 0.35
        one = np.ones(sweep_small.n_paths)
        plus, minus, zero = np.empty((3, sweep_small.n_paths))
        for i in (0, 25, sweep_small.grid.index_T - 1):
            lead = 0.5 * (f(i, one, plus) + f(i, -one, minus) - 2.0 * f(i, 0.0 * one, zero))
            np.testing.assert_allclose(lead, st / (2.0 * (0.35 + st)), rtol=0, atol=1e-12)


def basis_at(x, y, signal):
    """The regression basis p(s) at the one state s = (x, y)."""
    p = np.empty((6 if signal else 3, 1))
    _monomials(p, np.array([x]), np.array([y]) if signal else None, _BASIS_ORDER)
    return p[:, 0]


def quadrature_moments(kappa, w, c, x, y, signal):
    """E[p(s') | s] and E[p(s') dWH | s] by Gauss-Hermite quadrature of
    x' = x + kappa (y - x) + w dWH, y' = y, dWH = sqrt(c) xi (exact for these
    degree-3 integrands at 8 nodes), and their scales E|p(s')| and
    E|p(s') dWH|, plus the smallest normal float."""
    nodes, weights = hermegauss(8)
    weights = weights / weights.sum()
    dwh = math.sqrt(c) * nodes
    p = np.empty((6 if signal else 3, len(nodes)))
    _monomials(p, x + kappa * (y - x) + w * dwh, np.full(len(nodes), y) if signal else None, _BASIS_ORDER)
    tiny = np.finfo(float).tiny  # products in the subnormal range keep no relative precision
    return p @ weights, p @ (weights * dwh), np.abs(p) @ weights + tiny, np.abs(p) @ (weights * np.abs(dwh)) + tiny


class TestRegressionLater:
    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(0.0, 1.0, exclude_max=True), w=st.floats(-3.0, 3.0).filter(lambda u: abs(u) > 1e-3),
           c=st.floats(1e-4, 2.0), x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0), signal=st.booleans())
    @example(kappa=0.0, w=1.0, c=1.0, x=0.0, y=5e-324, signal=True)
    def test_moment_maps_match_quadrature(self, kappa, w, c, x, y, signal):
        # M p(s) = E[p(s') | s] and N p(s) = E[p(s') dWH | s] for every basis
        # monomial, with v = w^2 c and g = w c; without a signal kappa = 0
        kappa = kappa if signal else 0.0
        M, N = _gaussian_moments(kappa, w, c, signal)
        p = basis_at(x, y, signal)
        e_p, e_p_dwh, scale, scale_dwh = quadrature_moments(kappa, w, c, x, y, signal)
        assert np.all(np.abs(M @ p - e_p) <= 1e-12 * scale)
        assert np.all(np.abs(N @ p - e_p_dwh) <= 1e-12 * scale_dwh)

    @pytest.mark.parametrize("insider_spec", [
        InsiderSpec.none(),
        InsiderSpec.enlargement(T0=2.0),
        InsiderSpec.enlargement(T0=1.5, phi_weight=PiecewiseConstant((0.0, 0.5), (1.0, 3.0))),
    ], ids=["none", "unit", "piecewise"])
    def test_step_moments_are_the_one_step_law_of_the_sweep_input(self, insider_spec):
        # kappa_i = w_i^2 dt_i / ||phi_w||^2_[t_i,T0] and c_i = dt_i (1 -
        # kappa_i), from the state's weights; N_i is divided by dt_i
        mk = MarketParams(r=PiecewiseConstant((0.0, 0.3), (0.0, 0.02)), mu0=0.15, sigma=0.35, varrho=0.0,
                          T=1.0, X0=1.0)
        paths = stream_sweep_paths(ScenarioConfig(market=mk, insider=insider_spec, n_steps=10, n_paths=8, seed=2))
        grid, w, signal = paths.grid, paths.weight, paths.Y0 is not None
        dt = grid.dt
        t_left = grid.knots[: grid.index_T]
        kappa = w**2 * dt / phi_norm_sq(insider_spec, t_left, float(insider_spec.T0)) if signal else 0.0 * dt
        maps = _step_moments(paths)
        assert maps.shape == (grid.index_T, 2, 6 if signal else 3, 6 if signal else 3)
        for i in range(grid.index_T):
            for x, y in ((0.3, -1.2), (2.0, 0.5)):
                p = basis_at(x, y, signal)
                e_p, e_p_dwh, scale, scale_dwh = quadrature_moments(kappa[i], w[i], dt[i] * (1.0 - kappa[i]),
                                                                    x, y, signal)
                assert np.all(np.abs(maps[i, 0] @ p - e_p) <= 1e-12 * scale)
                assert np.all(np.abs(maps[i, 1] @ p * dt[i] - e_p_dwh) <= 1e-12 * scale_dwh)

    def test_terminal_basis_lies_in_the_regression_basis(self):
        # the exact one-sweep shot adds a polynomial of the signal to L at
        # every knot, which needs its monomials in every knot's basis
        assert _TERMINAL_DEGREE <= _BASIS_ORDER

    @pytest.mark.parametrize("insider_spec, varrho", [
        (InsiderSpec.enlargement(T0=2.0), 0.0),
        (InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.5), (1.0, 3.0))), 0.030625),
    ], ids=["unit", "piecewise-impact"])
    def test_closed_family_fits_are_exact_at_every_interior_knot(self, insider_spec, varrho):
        # the quadratic equation: with a quadratic fit at knot i + 1, Z_i is
        # affine and L_i a quadratic polynomial of the state at knot i, so a
        # least-squares fit of it leaves only rounding
        mk = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=varrho, T=1.0, X0=1.0)
        paths = stream_sweep_paths(ScenarioConfig(market=mk, insider=insider_spec, n_steps=20, n_paths=4000, seed=5))
        m, n = paths.grid.index_T, paths.n_paths
        misfit = {}

        def observe(i, l, z, work):
            if 0 < i < m:
                design = np.empty((6, n))
                _monomials(design, paths.level(i), paths.Y0, _BASIS_ORDER)
                coef, *_ = np.linalg.lstsq(design.T, l, rcond=None)
                misfit[i] = float(np.max(np.abs(l - coef @ design)) / np.max(np.abs(l)))

        solve_quadratic_lsmc(paths, mk, observe)
        assert sorted(misfit) == list(range(1, m))
        assert max(misfit.values()) < 1e-12

    def test_informed_linear_y0_scatter_across_seeds_is_small(self, market, insider):
        # the seed-to-seed scatter of the informed Y0 is regression noise,
        # which exact conditional moments take out; the time bias stays
        errors = []
        for seed in range(1, 9):
            paths = stream_sweep_paths(ScenarioConfig(market=market, insider=insider, n_steps=50,
                                                      n_paths=20_000, seed=seed))
            errors.append(solve_linear_lsmc(paths, market).y0_mean / market.X0 - 1.0)
        assert max(errors) - min(errors) < 0.0025

    @pytest.mark.parametrize("mu", [5.0, 20.0])
    def test_quadratic_value_at_large_iota_is_near_the_exact_value(self, tmp_path, mu):
        # varrho = 0, so the small robust insider's closed form is the exact
        # value; 1.5% covers the first-order time error at 50 steps
        out = tmp_path / "out"
        assert main(["bsde-quadratic", "--mu", str(mu), "--n-paths", "2000", "--n-steps", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out / "bsde_quadratic_value.csv", newline="") as fh:
            report = next(csv.DictReader(fh))
        mk = MarketParams(r=0.0, mu0=mu, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
        exact = value_of(StrategyKind.SMALL_INSIDER_ROBUST, mk, InsiderSpec.enlargement(T0=2.0)).total
        assert abs(float(report["value"]) - exact) <= 0.015 * exact + 4.0 * float(report["value_se"])


class TestRecoverControls:
    def test_degenerate_quadratic_reproduces_uninformed_robust(
        self, batch_lsmc_flat, sweep_lsmc_flat, market, whole
    ):
        _, _, Z = whole(solve_quadratic_lsmc, sweep_lsmc_flat, market)
        pi, theta = every_knot_controls(Z, market, batch_lsmc_flat)
        np.testing.assert_allclose(pi, IOTA / (2 * 0.35), atol=1e-10)
        np.testing.assert_allclose(theta, -IOTA / 2, atol=1e-10)

    def test_algebraic_identities_random_control(self, batch_small, market_impact, insider):
        rng = np.random.default_rng(17)
        m = batch_small.grid.index_T
        t_left = batch_small.grid.knots[:m]
        z = rng.normal(size=(batch_small.n_paths, m))
        pi, theta = every_knot_controls(z, market_impact, batch_small)
        sig = market_impact.sigma(t_left)
        st = sig - 2 * market_impact.varrho(t_left) / sig
        phit = 0.15 / 0.35 + batch_small.phi
        np.testing.assert_allclose(sig * pi + theta, z, atol=1e-12)
        np.testing.assert_allclose(theta, st * pi - phit, atol=1e-12)

    def test_linear_inversion_recovers_fraction(self, batch_lsmc_enl, sweep_lsmc_enl, market, insider, whole,
                                                kernel_rows):
        # the linear equation's control is z = sigma pi X, and theta = sigma pi - phitilde
        _, Y, Z = whole(solve_linear_closed_form, sweep_lsmc_enl, market)
        m = batch_lsmc_enl.grid.index_T
        t_left = batch_lsmc_enl.grid.knots[:m]
        sig = market.sigma(t_left)
        pi = Z / (sig * Y[:, :m])
        theta = sig * pi - (iota(market, t_left) + batch_lsmc_enl.phi)
        expect = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_lsmc_enl, market, insider,
                               kernel_rows(batch_lsmc_enl)[0])
        np.testing.assert_allclose(pi, expect.pi, rtol=1e-10)
        np.testing.assert_allclose(theta, expect.theta, atol=1e-10)


def test_knot_table_shape(sweep_lsmc_flat, market, whole, whole_table):
    _, Y, Z = whole(solve_linear_lsmc, sweep_lsmc_flat, market)
    rows = whole_table(Y, Z, sweep_lsmc_flat.grid, whole(solve_linear_closed_form, sweep_lsmc_flat, market)[1:])
    header = KNOT_HEADER
    assert header[0] == "t"
    assert len(rows) == sweep_lsmc_flat.grid.index_T + 1
    assert all(len(r) == len(header) for r in rows)


def test_knot_table_rmse_finite_at_huge_wealth(no_insider, whole, whole_table):
    # the gaps near X0 = 1e300 square past the largest float unless scaled first
    huge = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1e300)
    paths = stream_sweep_paths(ScenarioConfig(market=huge, insider=no_insider, n_steps=20, n_paths=2000, seed=1))
    _, Y, Z = whole(solve_linear_lsmc, paths, huge)
    rows = whole_table(Y, Z, paths.grid, whole(solve_linear_closed_form, paths, huge)[1:])
    rmse = [row[-1] for row in rows]
    assert all(math.isfinite(r) for r in rmse)
    # a gap this large squares past the largest float
    assert max(rmse) > math.sqrt(sys.float_info.max)
    # the scaling is by a power of two, so at X0 = 1 it is the plain RMS up to the sum's order
    unit = replace(huge, X0=1.0)
    paths = stream_sweep_paths(ScenarioConfig(market=unit, insider=no_insider, n_steps=20, n_paths=2000, seed=1))
    _, Y, Z = whole(solve_linear_lsmc, paths, unit)
    _, oracle_Y, oracle_Z = whole(solve_linear_closed_form, paths, unit)
    rows = whole_table(Y, Z, paths.grid, (oracle_Y, oracle_Z))
    for i, row in enumerate(rows):
        assert row[-1] == pytest.approx(math.sqrt(np.mean((Y[:, i] - oracle_Y[:, i]) ** 2)), rel=1e-12)


def test_knot_table_path_order_insensitive(sweep_small, market, whole, whole_table):
    _, oracle_Y, oracle_Z = whole(solve_linear_closed_form, sweep_small, market)
    rng = np.random.default_rng(5)
    Y = oracle_Y * np.exp(0.01 * rng.normal(size=oracle_Y.shape))
    Z = oracle_Z + 0.01 * rng.normal(size=oracle_Z.shape)
    perm = rng.permutation(sweep_small.n_paths)
    grid = sweep_small.grid

    oracle, permuted = (oracle_Y, oracle_Z), (oracle_Y[perm], oracle_Z[perm])
    assert whole_table(Y, Z, grid, oracle) == whole_table(Y[perm], Z[perm], grid, permuted)
    assert whole_table(Y, Z, grid) == whole_table(Y[perm], Z[perm], grid)


def test_report_cells_path_order_insensitive(sweep_small, market_impact):
    # Y0_mean, mean_abs_z, mean_pi_0 and the enlargement shooting residual
    # depend only on the multiset of values
    paths = sweep_small
    m, n = paths.grid.index_T, paths.n_paths
    rng = np.random.default_rng(8)
    Y, Z = np.exp(rng.normal(size=(n, m + 1))), rng.normal(size=(n, m))

    def reports(Y, Z, p):
        # the solution and the per-knot |Z| means as the solvers and commands form them
        s = BsdeSolution(y0=Y[:, 0], z0=Z[:, 0], y0_mean=ordered_mean(Y[:, 0]), c=0.0, residual=0.0,
                         y_T=Y[:, -1])
        pi_0, _ = initial_controls(s, market_impact, p)
        abs_z_means = [ordered_mean(np.abs(z)) for z in Z.T]
        return repr((_linear_report(s, market_impact), _quadratic_report(s, abs_z_means, pi_0)))

    # a signal and mismatch on a coarse dyadic lattice keep every sum over
    # paths exact, so the projection is the same in any order and only the
    # residual's mean could depend on it
    signal = rng.integers(-64, 65, size=n) / 16.0
    mismatch = rng.integers(-50, 51, size=n) / 8.0

    def shooting_residual(order):
        design = np.empty((3, len(order)))
        _monomials(design, signal[order], None, 2)
        inv_gram = _factor(design, 0.0, design @ design.T)
        return _projected_mismatch(design, inv_gram, mismatch[order])[1]

    residual = shooting_residual(np.arange(n))
    assert residual > 0.0

    # one permutation leaves a plain np.mean unchanged about half the time
    for _ in range(8):
        perm = rng.permutation(n)
        # the reports read knot 0 and Y0 only, which the stored rows hold
        shuffled_paths = replace(paths, checkpoints=paths.checkpoints[:, perm],
                                 increments=paths.increments[:, perm], Y0=paths.Y0[perm])
        assert reports(Y[perm], Z[perm], shuffled_paths) == reports(Y, Z, paths)
        assert repr(shooting_residual(perm)) == repr(residual)


# -- the LSMC rows made once per solve, against the expressions that allocate --


def log_pi_star_fresh(paths, market):
    """log_pi_star with a fresh row for every operation of a step."""
    m, dt = paths.grid.index_T, paths.grid.dt
    r = market.r(paths.grid.knots[:m])
    log_pi = np.zeros(paths.n_paths)
    for i in range(m):
        phit = phitilde_at(paths, market, i)
        log_pi += -(r[i] + 0.5 * phit**2) * dt[i] - phit * paths.dWH(i)
    return log_pi


def driver_fresh(paths, market, a, b, c):
    """_driver with fresh phitilde, tail and result rows at every step."""
    m = paths.grid.index_T
    a, b, c = (np.broadcast_to(x, (m,)) for x in (a, b, c))
    r = market.r(paths.grid.knots[:m])

    def f(i, z):
        phit = phitilde_at(paths, market, i)
        tail = c[i] * phit
        tail *= phit
        tail -= r[i]
        phit *= b[i]
        out = a[i] * z
        out += phit
        out *= z
        out += tail
        return out

    return f


def closed_form_fresh(paths, market):
    """solve_linear_closed_form's knot function in whole-row expressions."""
    grid, m = paths.grid, paths.grid.index_T
    knots, t_left = grid.knots, grid.knots[:m]
    sig = market.sigma(t_left)
    if paths.Y0 is None:
        io_left = iota(market, t_left)
        cum_r = np.concatenate(([0.0], np.cumsum(market.r(t_left) * grid.dt)))
        drift = cum_r + 0.375 * np.concatenate(([0.0], np.cumsum(io_left**2 * grid.dt)))
        sig_pi = sig * pi_no_insider_robust(market, t_left)

        def knot(i):
            y = market.X0 * np.exp(drift[i] + 0.5 * paths.level(i))
            return y, (sig_pi[i] * y if i < m else None)

        return knot
    T, T0 = market.T, float(paths.insider.T0)
    io, r = iota(market, 0.0), market.r(0.0)
    a0, a_t = 2.0 * T0 - T, 2.0 * T0 - T - knots
    drift, shift = r * knots + 0.375 * io**2 * knots, 0.5 * io * (T - knots)
    scale, start = market.X0 * np.sqrt(a0 / a_t), (paths.Y0 + 0.5 * io * T) ** 2 / (2.0 * a0)
    pi_a, pi_b = closed_form_lines(StrategyKind.SMALL_INSIDER_ROBUST, market, paths.insider, t_left)[:2]

    def knot(i):
        W = paths.level(i)
        m_t = paths.Y0 - W + shift[i]
        y = scale[i] * np.exp(drift[i] + 0.5 * io * W - m_t**2 / (2.0 * a_t[i]) + start)
        return y, (sig[i] * ((paths.Y0 - W) * pi_b[i] + pi_a[i]) * y if i < m else None)

    return knot


CONSTANT = MarketParams(r=0.03, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
PIECEWISE = MarketParams(r=PiecewiseConstant((0.0, 0.5), (0.03, 0.01)),
                         mu0=PiecewiseConstant((0.0, 0.3), (0.15, 0.4)), sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
# (signal, market): the closed form under a signal needs constant coefficients
SOLVE_CASES = [(True, CONSTANT), (False, CONSTANT), (False, PIECEWISE)]


def sweep_input(market, signal, n_paths=9000):
    spec = InsiderSpec.enlargement(T0=2.0) if signal else InsiderSpec.none()
    return stream_sweep_paths(ScenarioConfig(market=market, insider=spec, n_steps=20, n_paths=n_paths, seed=8))


class TestRowsMadeOncePerSolve:
    @pytest.mark.parametrize("signal, mk", SOLVE_CASES)
    def test_log_pi_star_is_the_fresh_row_sum_bit_for_bit(self, signal, mk):
        paths = sweep_input(mk, signal)
        if signal:
            assert log_pi_star(paths, mk).tobytes() == log_pi_star_fresh(paths, mk).tobytes()
            return
        # without a signal sum_i iota_i dWH_i is the state at T: the sum
        # takes no step's row, and is the row sum up to rounding
        m, t_left = paths.grid.index_T, paths.grid.knots[:-1]
        head = float(np.sum((mk.r(t_left) + 0.5 * iota(mk, t_left) ** 2) * paths.grid.dt))
        assert log_pi_star(paths, mk).tobytes() == (-head - paths.level(m)).tobytes()
        np.testing.assert_allclose(log_pi_star(paths, mk), log_pi_star_fresh(paths, mk), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("signal, mk", SOLVE_CASES)
    @pytest.mark.parametrize("varrho", [0.0, 0.02])
    def test_driver_into_out_is_the_fresh_driver_bit_for_bit(self, signal, mk, varrho):
        mk = replace(mk, varrho=varrho)
        paths = sweep_input(mk, signal)
        t_left = paths.grid.knots[: paths.grid.index_T]
        sig, st_ = mk.sigma(t_left), sigma_tilde(mk, t_left)
        k = (sig - st_) / (4.0 * (sig + st_))
        f, fresh = _quadratic_driver(paths, mk), driver_fresh(paths, mk, 0.25 - k, -0.5 - 2.0 * k, -0.25 - k)
        z = np.random.default_rng(5).normal(scale=2.0, size=paths.n_paths)
        out = np.empty_like(z)
        for i in range(paths.grid.index_T):
            assert f(i, z, out) is out and out.tobytes() == fresh(i, z).tobytes()

    @pytest.mark.parametrize("signal, mk", SOLVE_CASES)
    def test_closed_form_into_out_is_the_fresh_closed_form_bit_for_bit(self, signal, mk):
        paths = sweep_input(mk, signal)
        m = paths.grid.index_T
        knot, fresh = solve_linear_closed_form(paths, mk), closed_form_fresh(paths, mk)
        out = np.empty((2, paths.n_paths))
        for i in range(m, -1, -1):
            y, z = fresh(i)
            got_y, got_z = knot(i, out)
            assert np.shares_memory(got_y, out[0]) and got_y.tobytes() == y.tobytes()
            if i == m:
                assert got_z is None
            elif signal:
                assert np.shares_memory(got_z, out[1]) and got_z.tobytes() == z.tobytes()
            else:  # the factor c of Z = c Y
                assert (got_z * y).tobytes() == z.tobytes()

    # mu0 > r, mu0 = r and mu0 < r: the uninformed oracle's factor c = sigma pi is positive, zero and negative
    @pytest.mark.parametrize("mu0, sign", [(0.15, 1.0), (0.03, 0.0), (0.01, -1.0)])
    def test_oracle_z_mean_from_the_sorted_y_is_the_ordered_mean_of_z(self, mu0, sign):
        mk = replace(CONSTANT, mu0=PiecewiseConstant.constant(mu0))
        paths = sweep_input(mk, False, n_paths=20_000)
        m, knots = paths.grid.index_T, paths.grid.knots
        knot, fresh = solve_linear_closed_form(paths, mk), closed_form_fresh(paths, mk)
        out, work = np.empty((2, paths.n_paths)), np.empty(paths.n_paths)
        rng = np.random.default_rng(2)
        for i in range(m + 1):
            o_y, o_z = fresh(i)
            y = o_y * np.exp(0.01 * rng.normal(size=paths.n_paths))
            z = None if i == m else o_z + 0.01 * rng.normal(size=paths.n_paths)
            expect = knot_table(knots[i], y, z, (o_y, o_z), work)
            pair = knot(i, out)
            if i < m:
                assert np.sign(pair[1]) == sign
            assert repr(knot_table(knots[i], y, z, pair, work)) == repr(expect)

    @pytest.mark.parametrize("c", [2.5, 1.0, 0.0, -0.0, -1.0, -2.5])
    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0, None])
    def test_knot_table_of_a_factor_is_that_of_its_row(self, c, special):
        # rows longer than numpy's 8192-element reduction buffer; any
        # non-finite float ends in the same CSV cell either way
        rng = np.random.default_rng(13)
        o_y = rng.lognormal(sigma=3.0, size=20_000) * rng.choice([-1.0, 1.0], size=20_000)
        if special is not None:
            o_y[::97] = special
        y = o_y + rng.normal(size=o_y.size)
        work = np.empty_like(o_y)
        with np.errstate(invalid="ignore", over="ignore"):
            expect = knot_table(0.5, y, None, (o_y, c * o_y), work)
            got = knot_table(0.5, y, None, (o_y, c), work)
        assert repr(got) == repr(expect)

    @pytest.mark.parametrize("signal", [True, False])
    @pytest.mark.parametrize("solve", [solve_linear_lsmc, solve_quadratic_lsmc])
    def test_the_sweep_lends_one_free_block_of_work_rows_to_the_observer(self, solve, signal):
        # the same block at every knot, of at least 3 rows of n_paths apart
        # from L_i and Z_i, and free: wiping it at every knot changes nothing
        paths = sweep_input(CONSTANT, signal, n_paths=2000)
        n = paths.n_paths

        def recorder(wipe):
            seen, blocks = [], set()

            def observe(i, l, z, work):
                blocks.add((work.ctypes.data, work.shape, work.strides))
                assert work.ndim == 2 and work.shape[0] >= 3 and work.shape[1] == n
                assert not np.shares_memory(work, l) and (z is None or not np.shares_memory(work, z))
                if wipe:
                    work.fill(np.nan)
                seen.append((i, l.tobytes(), None if z is None else z.tobytes()))

            return seen, blocks, observe

        runs = []
        for wipe in (False, True):
            seen, blocks, observe = recorder(wipe)
            sol = solve(paths, CONSTANT, observe)
            assert len(seen) == paths.grid.index_T + 1 and len(blocks) == 1
            runs.append((seen, sol.y0.tobytes(), sol.z0.tobytes(), repr(sol.c), repr(sol.residual)))
        assert runs[1] == runs[0]
