import math

import numpy as np
import pytest

from insiderlab.anticipating import (
    EPS_STEPS,
    TestIntegrand,
    convergence_table,
    forward_riemann,
    integrand_oracle,
    integrand_values,
    ito_residual,
)
from insiderlab.model import DomainError, ScenarioConfig
from insiderlab.paths import l2_rows, sample_paths
from insiderlab.simulate import ordered_mean


def rms(x):
    return math.sqrt(float(np.mean(np.asarray(x) ** 2)))


def forward(W, u, k):
    """forward_riemann with its window increments in a buffer of its own."""
    return forward_riemann(W, u, k, np.empty((W.shape[0], W.shape[1] - 1)))


def residual(W, dt, k):
    """ito_residual with its pair of buffers of its own."""
    return ito_residual(W, dt, k, np.empty((2, W.shape[0], W.shape[1] - 1)))


class TestForwardRiemann:
    def test_adapted_constant_recovers_scaled_noise(self, brownian_levels):
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        u = integrand_values(TestIntegrand.ADAPTED_CONST, W, const=3.0)
        est = forward(W, u, 2)
        err = est - 3.0 * W[:, -1]
        # exact up to the boundary averaging window, which is O(sqrt(eps))
        assert rms(err) < 3.0 * math.sqrt(2 * dt / 3)

    def test_terminal_level_integrand(self, brownian_levels):
        # anticipating case: Skorohod value (W_T W_t - t) plus trace t
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT, W)
        est = forward(W, u, 2)
        target = integrand_oracle(TestIntegrand.WT, W)
        np.testing.assert_array_equal(target, W[:, -1] ** 2)
        assert rms(est - target) / rms(target) < 0.02

    def test_terminal_square_integrand(self, brownian_levels):
        # Skorohod value W_T^3 - 2 W_T T plus trace 2 W_T T
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT_SQUARED, W)
        est = forward(W, u, 4)
        target = W[:, -1] ** 3
        assert rms(est - target) / rms(target) < 0.05

    def test_window_below_resolution_rejected(self, brownian_levels):
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT, W)
        with pytest.raises(DomainError):
            forward(W, u, 1)

    def test_convergence_monotone_and_tight(self, brownian_levels):
        # halving the window shrinks the error; the finest level is <= 2%
        grid, W = brownian_levels
        header, rows = convergence_table(W, float(grid.dt[0]), TestIntegrand.WT)
        rels = [row[2] for row in rows]
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] <= 0.02


class TestItoResidual:
    def test_residual_shrinks_with_window(self, brownian_levels):
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        r8 = rms(residual(W, dt, 8))
        r4 = rms(residual(W, dt, 4))
        r2 = rms(residual(W, dt, 2))
        assert r8 > r4 > r2

    def test_adapted_case_matches_classical_formula(self, brownian_levels):
        # X = c W, f = x^2: residual of the classical change of variables
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        c = 1.5
        n = grid.index_T
        X = c * W
        xu = X[:, :-1] * c
        fwd = forward(W, xu, 2)
        resid = X[:, -1] ** 2 - 2.0 * fwd - c**2 * (n * dt)
        assert rms(resid) < 0.15


def test_convergence_table_layout(brownian_levels):
    grid, W = brownian_levels
    header, rows = convergence_table(W, float(grid.dt[0]), TestIntegrand.WT)
    assert header == ["eps", "rms_error", "rel_rms_error", "ito_residual_rms"]
    assert [row[0] for row in rows] == [8 * grid.dt[0], 4 * grid.dt[0], 2 * grid.dt[0]]


def test_convergence_table_path_order_insensitive(brownian_levels):
    # the RMS cells depend only on the multiset of paths; one permutation
    # leaves a plain np.mean unchanged about half the time
    grid, W = brownian_levels
    W = W[:300]
    rng = np.random.default_rng(12)

    def table(rows):
        return repr(convergence_table(rows, float(grid.dt[0]), TestIntegrand.WT))

    expect = table(W)
    for _ in range(8):
        assert table(W[rng.permutation(len(W))]) == expect


# Reference matrix forms: the integrand as a full (n_paths, n) matrix, the
# window increments gathered and then subtracted, X = W_T W held whole and the
# oracle branch by branch.  The per-path forms must agree with them bit for bit.
def _matrix_integrand(kind, W, const):
    shape = (W.shape[0], W.shape[1] - 1)
    if kind is TestIntegrand.WT:
        return np.broadcast_to(W[:, -1:], shape)
    if kind is TestIntegrand.WT_SQUARED:
        return np.broadcast_to(W[:, -1:] ** 2, shape)
    return np.full(shape, const)


def _matrix_oracle(kind, W):
    w_T = W[:, -1]
    if kind is TestIntegrand.WT:
        return w_T * w_T
    if kind is TestIntegrand.WT_SQUARED:
        return w_T**2 * w_T
    return 1.0 * w_T


def _matrix_forward(W, u, k):
    n = W.shape[1] - 1
    idx = np.minimum(np.arange(n) + k, n)
    return np.sum(u[:, :n] * (W[:, idx] - W[:, :n]), axis=1) / k


def _matrix_residual(W, dt, k):
    n = W.shape[1] - 1
    w_T = W[:, -1:]
    X = w_T * W
    fwd = _matrix_forward(W, X[:, :-1] * w_T, k)
    return X[:, n] ** 2 - X[:, 0] ** 2 - 2.0 * fwd - w_T[:, 0] ** 2 * (n * dt)


@pytest.fixture(scope="module")
def tiny_levels(unit_iota_market, no_insider):
    # 3 steps, so the 8-step window runs past the horizon from the first knot
    cfg = ScenarioConfig(market=unit_iota_market, insider=no_insider, n_steps=3, n_paths=7, seed=5)
    batch = sample_paths(cfg)
    return batch.grid, batch.level


@pytest.mark.parametrize("levels", ["brownian_levels", "tiny_levels"])
@pytest.mark.parametrize("kind", list(TestIntegrand))
def test_per_path_forms_match_matrix_forms(request, levels, kind):
    grid, W = request.getfixturevalue(levels)
    dt = float(grid.dt[0])
    u = integrand_values(kind, W, const=2.0)
    assert np.array_equal(integrand_oracle(kind, W), _matrix_oracle(kind, W))
    for k in EPS_STEPS:
        expect = _matrix_forward(W, _matrix_integrand(kind, W, 2.0), k)
        assert np.array_equal(forward(W, u, k), expect), k
        assert np.array_equal(residual(W, dt, k), _matrix_residual(W, dt, k)), k


def _matrix_table(W, dt, kind):
    """convergence_table from the whole-matrix forms, all paths at once."""
    target = _matrix_oracle(kind, W)
    target_rms = math.sqrt(ordered_mean(target**2))
    rows = []
    for k in EPS_STEPS:
        est = _matrix_forward(W, _matrix_integrand(kind, W, 1.0), k)
        err = math.sqrt(ordered_mean((est - target) ** 2))
        resid = math.sqrt(ordered_mean(_matrix_residual(W, dt, k) ** 2))
        rows.append([k * dt, err, err / target_rms if target_rms > 0 else 0.0, resid])
    return ["eps", "rms_error", "rel_rms_error", "ito_residual_rms"], rows


@pytest.mark.parametrize("n_steps", [9, 4096])
@pytest.mark.parametrize("paths", ["one", "chunk-1", "chunk+1", "1001"])
def test_chunking_does_not_change_the_table(n_steps, paths):
    chunk = l2_rows(n_steps)
    n_paths = {"one": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1, "1001": 1001}[paths]
    dt = 1.0 / n_steps
    W = np.zeros((n_paths, n_steps + 1))
    rng = np.random.default_rng(n_paths * n_steps)
    np.cumsum(rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt), axis=1, out=W[:, 1:])
    for kind in TestIntegrand:
        assert convergence_table(W, dt, kind) == _matrix_table(W, dt, kind), kind
