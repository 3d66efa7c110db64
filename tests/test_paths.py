import numpy as np
import pytest

from insiderlab.model import (
    DomainError,
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
)
from insiderlab.paths import (
    build_grid,
    decompose,
    information_drift,
    partial_signals,
    sample_paths,
)
from insiderlab.simulate import mean_se


def make_config(market, insider, **overrides):
    params = dict(market=market, insider=insider, n_steps=50, n_paths=1000, seed=7)
    params.update(overrides)
    return ScenarioConfig(**params)


class TestGrid:
    def test_knots_cover_both_horizons(self, market, insider):
        grid = build_grid(make_config(market, insider, n_steps=40))
        assert grid.knots[0] == 0.0
        assert grid.T == 1.0
        assert grid.T_end == 2.0
        assert np.all(np.diff(grid.knots) > 0)

    def test_breakpoints_become_knots(self, insider):
        m = MarketParams(
            r=0.0,
            mu0=0.15,
            sigma=PiecewiseConstant((0.0, 0.33), (0.3, 0.4)),
            varrho=0.0,
            T=1.0,
            X0=1.0,
        )
        grid = build_grid(make_config(m, insider, n_steps=7))
        assert np.any(np.abs(grid.knots - 0.33) < 1e-12)

    def test_tail_matches_main_resolution(self, market, insider):
        grid = build_grid(make_config(market, insider, n_steps=100))
        dt = np.diff(grid.knots)
        assert np.allclose(dt, dt[0])
        assert grid.n_steps == 200

    def test_zero_step_grid_rejected(self, market, insider):
        with pytest.raises(ValidationError):
            sample_paths(make_config(market, insider, n_steps=0))


class TestSampling:
    def test_determinism(self, market, insider):
        cfg = make_config(market, insider, n_paths=1, seed=123456)
        a = sample_paths(cfg)
        b = sample_paths(cfg)
        np.testing.assert_array_equal(a.dW, b.dW)
        np.testing.assert_array_equal(a.dWH, b.dWH)

    def test_paths_independent_of_ensemble_size(self, market, insider):
        small = sample_paths(make_config(market, insider, n_paths=100, seed=9))
        large = sample_paths(make_config(market, insider, n_paths=5000, seed=9))
        np.testing.assert_array_equal(small.dW, large.dW[:100])

    def test_threaded_generation_is_identical(self, market, insider):
        cfg = make_config(market, insider, n_paths=10_000, seed=11)
        np.testing.assert_array_equal(
            sample_paths(cfg, threads=1).dW, sample_paths(cfg, threads=2).dW
        )

    def test_increment_variance_matches_dt(self, market, insider):
        batch = sample_paths(make_config(market, insider, n_paths=100_000, seed=13, n_steps=10))
        var = batch.dW.var(axis=0)
        np.testing.assert_allclose(var, batch.grid.dt, rtol=0.05)

    def test_per_step_means_near_zero(self, batch_100k):
        dt = batch_100k.grid.dt
        n = batch_100k.n_paths
        means = batch_100k.dW.mean(axis=0)
        assert np.all(np.abs(means) < 4.0 * np.sqrt(dt) / np.sqrt(n))

    def test_signal_is_weighted_increment_sum(self, market):
        ins = InsiderSpec.enlargement(
            T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.0), (2.0, 1.0))
        )
        batch = sample_paths(make_config(market, ins, n_paths=10, seed=3))
        w = ins.phi_weight(batch.grid.knots[:-1])
        np.testing.assert_allclose(batch.Y0, batch.dW @ w, atol=1e-14)


class TestInformationDrift:
    def test_no_insider_gives_zeros(self, market, no_insider):
        batch = sample_paths(make_config(market, no_insider, n_paths=10, seed=3))
        assert not np.any(batch.phi)
        np.testing.assert_array_equal(batch.dWH, batch.dW)

    def test_formula_arithmetic(self, market, insider):
        # unit weight, Y0 = 1, B_t = 0, t = 0.5, T0 = 2 -> phi = 1/1.5
        batch = sample_paths(make_config(market, insider, n_paths=4, seed=5))
        grid = batch.grid
        i = grid.index_of(0.5)
        dW = np.zeros_like(batch.dW)
        y0 = np.ones(4)
        phi = information_drift(grid, dW, y0, insider)
        assert phi[:, i] == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_zero_residual_signal_gives_zero_drift(self, market, insider):
        # flat path: the partial sums equal the signal, so the drift vanishes
        batch = sample_paths(make_config(market, insider, n_paths=4, seed=5))
        phi = information_drift(batch.grid, np.zeros_like(batch.dW), np.zeros(4), insider)
        assert not np.any(phi)

    def test_decompose_telescopes_constant_drift(self, market, insider):
        batch = sample_paths(make_config(market, insider, n_paths=8, seed=21))
        grid = batch.grid
        m = grid.index_T
        c = 0.7
        phi = np.full((1, m), c)
        dwh = decompose(grid, batch.dW, phi)
        w_T = batch.dW[:, :m].sum(axis=1)
        np.testing.assert_allclose(dwh.sum(axis=1), w_T - c * grid.T, atol=1e-12)

    def test_dwh_definition_exact(self, batch_small):
        grid = batch_small.grid
        m = grid.index_T
        np.testing.assert_array_equal(
            batch_small.dWH, batch_small.dW[:, :m] - batch_small.phi * grid.dt[:m]
        )


class TestEnlargementCorrectness:
    """Core decomposition test: WH is standard and independent of the signal."""

    def test_wh_variance_matches_time(self, batch_100k):
        grid = batch_100k.grid
        wh = np.cumsum(batch_100k.dWH, axis=1)
        n = batch_100k.n_paths
        for t_target in (0.25, 0.5, 0.75, 1.0):
            i = grid.index_of(t_target) - 1
            m2, se = mean_se(wh[:, i] ** 2)
            assert abs(m2 - t_target) < 5.0 * se, (t_target, m2, se)

    def test_wh_uncorrelated_with_signal(self, batch_100k):
        grid = batch_100k.grid
        wh = np.cumsum(batch_100k.dWH, axis=1)
        for t_target in (0.25, 0.5, 0.75, 1.0):
            i = grid.index_of(t_target) - 1
            cov, se = mean_se(wh[:, i] * batch_100k.Y0)
            assert abs(cov) < 5.0 * se, (t_target, cov, se)

    def test_refinement_stability(self, market, insider):
        # same underlying increments aggregated on coarser grids: the drift
        # integral changes by O(dt)
        fine = sample_paths(make_config(market, insider, n_steps=400, n_paths=256, seed=37))
        m = fine.grid.index_T

        def drift_integral(dW, grid):
            y0 = dW @ insider.phi_weight(grid.knots[:-1])
            phi = information_drift(grid, dW, y0, insider)
            return np.sum(phi * grid.dt[: grid.index_T], axis=1)

        i_fine = drift_integral(fine.dW, fine.grid)
        diffs = []
        for factor in (2, 4):
            coarse_cfg = make_config(market, insider, n_steps=400 // factor, n_paths=256, seed=37)
            grid_c = build_grid(coarse_cfg)
            dw_c = fine.dW.reshape(fine.n_paths, -1, factor).sum(axis=2)
            diffs.append(np.sqrt(np.mean((drift_integral(dw_c, grid_c) - i_fine) ** 2)))
        assert diffs[0] < diffs[1]
        # halving dt roughly halves the defect
        assert diffs[0] / diffs[1] < 0.75

    def test_drift_not_defined_beyond_t0(self, market, batch_small):
        # evaluation knots reach past this T0, where the drift is undefined
        with pytest.raises(DomainError):
            information_drift(
                batch_small.grid, batch_small.dW, batch_small.Y0,
                InsiderSpec.enlargement(T0=0.5),
            )

