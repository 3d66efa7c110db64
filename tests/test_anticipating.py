import math

import numpy as np
import pytest

from insiderlab.anticipating import (
    TestIntegrand,
    convergence_table,
    forward_riemann,
    integrand_oracle,
    integrand_values,
    ito_residual,
)
from insiderlab.model import DomainError


def rms(x):
    return math.sqrt(float(np.mean(np.asarray(x) ** 2)))


class TestForwardRiemann:
    def test_adapted_constant_recovers_scaled_noise(self, brownian_levels):
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        u = integrand_values(TestIntegrand.ADAPTED_CONST, W, const=3.0)
        est = forward_riemann(W, u, grid.n_steps, 2)
        err = est - 3.0 * W[:, -1]
        # exact up to the boundary averaging window, which is O(sqrt(eps))
        assert rms(err) < 3.0 * math.sqrt(2 * dt / 3)

    def test_terminal_level_integrand(self, brownian_levels):
        # anticipating case: Skorohod value (W_T W_t - t) plus trace t
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT, W)
        est = forward_riemann(W, u, grid.n_steps, 2)
        target = integrand_oracle(TestIntegrand.WT, W, grid.n_steps)
        np.testing.assert_array_equal(target, W[:, -1] ** 2)
        assert rms(est - target) / rms(target) < 0.02

    def test_terminal_square_integrand(self, brownian_levels):
        # Skorohod value W_T^2 W_t - 2 W_T t plus trace 2 W_T t
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT_SQUARED, W)
        i = grid.n_steps // 2
        est = forward_riemann(W, u, i, 4)
        target = W[:, -1] ** 2 * W[:, i]
        assert rms(est - target) / rms(target) < 0.05

    def test_window_below_resolution_rejected(self, brownian_levels):
        grid, W = brownian_levels
        u = integrand_values(TestIntegrand.WT, W)
        with pytest.raises(DomainError):
            forward_riemann(W, u, grid.n_steps, 1)

    def test_convergence_monotone_and_tight(self, brownian_levels):
        # halving the window shrinks the error; the finest level is <= 2%
        grid, W = brownian_levels
        header, rows = convergence_table(W, float(grid.dt[0]), TestIntegrand.WT)
        rels = [row[2] for row in rows]
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] <= 0.02


class TestItoResidual:
    def test_zero_at_time_zero(self, brownian_levels):
        grid, W = brownian_levels
        res = ito_residual(W, float(grid.dt[0]), 0, 2)
        np.testing.assert_array_equal(res, 0.0)

    def test_residual_shrinks_with_window(self, brownian_levels):
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        r8 = rms(ito_residual(W, dt, grid.n_steps, 8))
        r4 = rms(ito_residual(W, dt, grid.n_steps, 4))
        r2 = rms(ito_residual(W, dt, grid.n_steps, 2))
        assert r8 > r4 > r2

    def test_adapted_case_matches_classical_formula(self, brownian_levels):
        # X = c W, f = x^2: residual of the classical change of variables
        grid, W = brownian_levels
        dt = float(grid.dt[0])
        c = 1.5
        n = grid.n_steps
        X = c * W
        xu = X[:, :-1] * c
        fwd = forward_riemann(W, xu, n, 2)
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
