import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
)
from insiderlab.paths import (
    _generator,
    build_grid,
    decompose,
    information_drift,
    partial_signals,
    sample_paths,
)
from insiderlab.simulate import mean_se


# a signal weight with a breakpoint inside (T, T0) = (1, 2): ||phi_w||^2_[T, T0] = 2.5
TAIL_BREAK = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.5), (1.0, 2.0)))


def draw_variances(batch):
    """Variance of each column of dW: dt per step of [0, T], then the tail's."""
    ins = batch.insider
    return np.append(batch.grid.dt, phi_norm_sq(ins, batch.grid.T, ins.T0))


def make_config(market, insider, **overrides):
    params = dict(market=market, insider=insider, n_steps=50, n_paths=1000, seed=7)
    params.update(overrides)
    return ScenarioConfig(**params)


class TestGrid:
    def test_knots_end_at_the_horizon(self, market, insider):
        # the signal's tail is one draw per path, not a stretch of the grid
        for ins in (insider, TAIL_BREAK):
            grid = build_grid(make_config(market, ins, n_steps=40))
            assert grid.knots[0] == 0.0
            assert grid.T == grid.knots[-1] == 1.0
            assert grid.index_T == 40
            np.testing.assert_allclose(grid.dt, 1.0 / 40, rtol=1e-12)

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

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.floats(0.5, 2.0),
        gap=st.floats(0.1, 2.0),
        n_steps=st.integers(2, 60),
        coef_bps=st.lists(st.lists(st.floats(1e-3, 4.0), unique=True, max_size=3),
                          min_size=4, max_size=4),
        phi_bps=st.lists(st.floats(1e-3, 4.0), unique=True, max_size=4),
    )
    @example(T=1.0, gap=1.0, n_steps=10, coef_bps=[[1.0 - 1e-13], [], [], []],
             phi_bps=[1.0 - 1e-13])
    def test_every_breakpoint_is_a_knot(self, T, gap, n_steps, coef_bps, phi_bps):
        # T and every coefficient or signal-weight breakpoint in (0, T) are
        # knots, whatever the resolution, and the grid ends at T; the example
        # puts breakpoints within 1e-12 below T
        def steps(bps, value):  # the value changes at every breakpoint
            return PiecewiseConstant((0.0, *sorted(bps)), [value + 0.01 * (k % 2) for k in range(len(bps) + 1)])

        coefs = [steps(b, v) for b, v in zip(coef_bps, (0.0, 0.15, 0.35, 0.0))]
        m = MarketParams(*coefs, T=T, X0=1.0)
        ins = InsiderSpec.enlargement(T0=T + gap, phi_weight=steps(phi_bps, 1.0))
        grid = build_grid(make_config(m, ins, n_steps=n_steps))
        assert grid.knots[0] == 0.0 and grid.knots[-1] == grid.T == T
        assert np.all(np.diff(grid.knots) > 0)
        for b in [*breakpoints(m), *(b for b in phi_bps if b < T)]:
            grid.index_of(b)  # raises DomainError off the grid

    def test_zero_step_grid_rejected(self, market, insider):
        with pytest.raises(ValidationError):
            sample_paths(make_config(market, insider, n_steps=0))

    @pytest.mark.parametrize("T, n_steps", [(1e-9, 2000), (1e-12, 2), (1e-300, 4096), (5e-324, 2)])
    def test_steps_within_the_knot_tolerance_rejected(self, insider, T, n_steps):
        # uniform knots that the merge would collapse: a code, not a grid of fewer knots
        m = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=T, X0=1.0)
        with pytest.raises(ValidationError) as exc:
            build_grid(make_config(m, insider, n_steps=n_steps))
        assert exc.value.code == "grid_step_min"


class TestSampling:
    def test_determinism(self, market, insider):
        cfg = make_config(market, insider, n_paths=1, seed=123456)
        a = sample_paths(cfg)
        b = sample_paths(cfg)
        np.testing.assert_array_equal(a.dW, b.dW)
        np.testing.assert_array_equal(a.dWH, b.dWH)

    def test_seeds_draw_their_own_streams(self, market, insider):
        # the Philox key is the unsigned pair (seed, block): seeds from 2^63 up
        # neither share a key nor warn (pytest fails a RuntimeWarning), and
        # a seed below 2^63 keeps the key of the plain integer pair
        seeds = [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1024, 2**64 - 1]
        draws = [sample_paths(make_config(market, insider, n_paths=2, seed=s)).dW for s in seeds]
        assert len({d.tobytes() for d in draws}) == len(seeds)
        for seed in (0, 7, 2**63 - 1):
            expect = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal(5)
            assert np.array_equal(_generator(seed, 0).standard_normal(5), expect)

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
        # the steps of [0, T] have variance dt, the tail ||phi_w||^2_[T, T0]
        for ins in (insider, TAIL_BREAK):
            batch = sample_paths(make_config(market, ins, n_paths=100_000, seed=13, n_steps=10))
            assert batch.dW.shape == (100_000, batch.grid.index_T + 1)
            var = batch.dW.var(axis=0)
            np.testing.assert_allclose(var, draw_variances(batch), rtol=0.05)

    def test_per_step_means_near_zero(self, market, batch_100k):
        tail_break = sample_paths(make_config(market, TAIL_BREAK, n_steps=200, n_paths=100_000,
                                              seed=710321))
        for batch in (batch_100k, tail_break):
            sd = np.sqrt(draw_variances(batch))
            means = batch.dW.mean(axis=0)
            assert np.all(np.abs(means) < 4.0 * sd / np.sqrt(batch.n_paths))

    def test_signal_is_weighted_increment_sum(self, market):
        # Y0 = B_T + tail, with B_T the weighted sum of the increments on [0, T]
        for ins in (InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.0), (2.0, 1.0))),
                    TAIL_BREAK):
            batch = sample_paths(make_config(market, ins, n_paths=10, seed=3))
            m = batch.grid.index_T
            w = ins.phi_weight(batch.grid.knots[:m])
            np.testing.assert_array_equal(batch.Y0, batch.level[:, m] + batch.dW[:, m])
            np.testing.assert_allclose(batch.level[:, m], batch.dW[:, :m] @ w, atol=1e-14)


class TestRunningSignal:
    @pytest.mark.parametrize("insider", [
        InsiderSpec.enlargement(T0=2.0),
        InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.5, 1.5), (1.0, 0.5, 2.0))),
        InsiderSpec.none(),
        InsiderSpec(phi_weight=2.0),  # no signal: the weight plays no part
    ])
    def test_level_is_partial_signals(self, market, unit_iota_market, insider):
        # the state int_0^t w dW: w = phi_w under a signal, iota without one
        for mk in (market, unit_iota_market):
            batch = sample_paths(make_config(mk, insider, n_paths=300, seed=11))
            m = batch.grid.index_T
            assert batch.level.shape == (300, m + 1)
            assert not np.any(batch.level[:, 0])
            t_left = batch.grid.knots[:m]
            w = insider.phi_weight(t_left) if insider.has_signal() else iota(mk, t_left)
            np.testing.assert_array_equal(batch.level, partial_signals(batch.dW, w, np.empty_like(batch.level)))
            if np.all(w == 1.0):
                # unit weight: the plain cumulative sum, bit for bit
                np.testing.assert_array_equal(batch.level[:, 1:], np.cumsum(batch.dW[:, :m], axis=1))
            else:
                np.testing.assert_allclose(batch.level[:, 1:], np.cumsum(batch.dW[:, :m] * w, axis=1),
                                           rtol=0, atol=1e-12)


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
        b = partial_signals(np.zeros_like(batch.dW), insider.phi_weight(grid.knots[:-1]), np.empty_like(batch.level))
        y0 = np.ones(4)
        phi = information_drift(grid, b, y0, insider)
        assert phi[:, i] == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_zero_residual_signal_gives_zero_drift(self, market, insider):
        # flat path: the partial sums equal the signal, so the drift vanishes
        batch = sample_paths(make_config(market, insider, n_paths=4, seed=5))
        b = partial_signals(np.zeros_like(batch.dW), insider.phi_weight(batch.grid.knots[:-1]),
                            np.empty_like(batch.level))
        phi = information_drift(batch.grid, b, np.zeros(4), insider)
        assert not np.any(phi)

    def test_decompose_telescopes_constant_drift(self, market, insider):
        batch = sample_paths(make_config(market, insider, n_paths=8, seed=21))
        grid = batch.grid
        m = grid.index_T
        c = 0.7
        phi = np.full((1, m), c)
        dwh = decompose(grid, batch.dW, phi, np.empty((batch.n_paths, m)))
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
        # same underlying increments on [0, T] and the same signal, with the
        # increments aggregated on coarser grids: the drift integral changes by O(dt)
        for ins in (insider, TAIL_BREAK):
            fine = sample_paths(make_config(market, ins, n_steps=400, n_paths=256, seed=37))
            m = fine.grid.index_T

            def drift_integral(dW, grid):
                b = partial_signals(dW, ins.phi_weight(grid.knots[:-1]), np.empty((len(dW), grid.index_T + 1)))
                phi = information_drift(grid, b, fine.Y0, ins)
                return np.sum(phi * grid.dt, axis=1)

            i_fine = drift_integral(fine.dW[:, :m], fine.grid)
            diffs = []
            for factor in (2, 4):
                coarse_cfg = make_config(market, ins, n_steps=400 // factor, n_paths=256, seed=37)
                grid_c = build_grid(coarse_cfg)
                dw_c = fine.dW[:, :m].reshape(fine.n_paths, -1, factor).sum(axis=2)
                diffs.append(np.sqrt(np.mean((drift_integral(dw_c, grid_c) - i_fine) ** 2)))
            assert diffs[0] < diffs[1]
            # halving dt roughly halves the defect
            assert diffs[0] / diffs[1] < 0.75

    def test_drift_not_defined_beyond_t0(self, market, batch_small):
        # evaluation knots reach past this T0, where the drift is undefined
        with pytest.raises(DomainError):
            information_drift(
                batch_small.grid, batch_small.level, batch_small.Y0,
                InsiderSpec.enlargement(T0=0.5),
            )

