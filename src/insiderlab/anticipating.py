"""Forward-integral laboratory on explicit anticipating integrands.

The forward integral of u against W over [0, t] is the limit in probability

    (1/eps) int_0^t u_s (W_{(s+eps) ^ T} - W_s) ds,   eps -> 0+,

an extension of the Ito integral to non-adapted u.  For integrands with a
known Skorohod integral the forward integral equals Skorohod plus a trace
correction; the test integrands here carry those exact pathwise values:

    u = W_T    : int_0^t W_T d^-W = (W_T W_t - t) + t       = W_T W_t
    u = W_T^2  : int_0^t W_T^2 d^-W = (W_T^2 W_t - 2 W_T t) + 2 W_T t = W_T^2 W_t
    u = c      : the classical Ito integral c W_t.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import DomainError
from .simulate import ordered_mean

__all__ = [
    "TestIntegrand",
    "integrand_values",
    "integrand_oracle",
    "forward_riemann",
    "ito_residual",
    "convergence_table",
]


class TestIntegrand(Enum):
    __test__ = False  # not a pytest class despite the name

    WT = "wt"
    WT_SQUARED = "wt_squared"
    ADAPTED_CONST = "adapted_const"


def integrand_values(kind: TestIntegrand, W: np.ndarray, const: float = 1.0) -> np.ndarray:
    """u at the left knot of every step, per path.  W is (n_paths, n+1)."""
    n_steps = W.shape[1] - 1
    w_T = W[:, -1:]
    if kind is TestIntegrand.WT:
        return np.broadcast_to(w_T, (W.shape[0], n_steps))
    if kind is TestIntegrand.WT_SQUARED:
        return np.broadcast_to(w_T**2, (W.shape[0], n_steps))
    return np.full((W.shape[0], n_steps), const)


def integrand_oracle(kind: TestIntegrand, W: np.ndarray, t_index: int, const: float = 1.0):
    """Exact pathwise limit of the forward integral over [0, t]."""
    w_T, w_t = W[:, -1], W[:, t_index]
    if kind is TestIntegrand.WT:
        return w_T * w_t
    if kind is TestIntegrand.WT_SQUARED:
        return w_T**2 * w_t
    return const * w_t


def forward_riemann(W: np.ndarray, u: np.ndarray, t_index: int, eps_steps: int) -> np.ndarray:
    """Left-point quadrature of the defining average on a uniform grid, where
    eps = k dt cancels the step dt:

        (1/eps) sum_{i < t_index} u_i (W_{min(i+k, n)} - W_i) dt
            = (1/k) sum_{i < t_index} u_i (W_{min(i+k, n)} - W_i).

    eps must span at least two grid steps so the averaging window is resolved.
    """
    n_steps = W.shape[1] - 1
    if eps_steps < 2:
        raise DomainError("eps below grid resolution: need eps >= 2 steps")
    if t_index > n_steps:
        raise DomainError("t beyond the path horizon")
    idx = np.minimum(np.arange(t_index) + eps_steps, n_steps)
    incr = W[:, idx] - W[:, :t_index]
    return np.sum(u[:, :t_index] * incr, axis=1) / eps_steps


def ito_residual(W: np.ndarray, dt: float, t_index: int, eps_steps: int) -> np.ndarray:
    """Pathwise defect of the anticipating change-of-variable formula for
    f(x) = x^2 applied to X_t = W_T W_t (the forward integral of u = W_T):

        f(X_t) - f(X_0) - 2 * forward(X u, t) - int_0^t u^2 ds.

    Converges to zero pathwise as eps -> 0.
    """
    w_T = W[:, -1:]
    X = w_T * W
    xu = X[:, :-1] * w_T
    fwd = forward_riemann(W, xu, t_index, eps_steps)
    quad = w_T[:, 0] ** 2 * (t_index * dt)
    return X[:, t_index] ** 2 - X[:, 0] ** 2 - 2.0 * fwd - quad


# the windows eps of convergence_table, in grid steps, coarsest first
_EPS_STEPS = (8, 4, 2)


def convergence_table(W: np.ndarray, dt: float, kind: TestIntegrand) -> tuple[list[str], list[list]]:
    """(eps, rms_error, rel_rms_error) rows for the integrand's oracle over
    the whole path (unit constant for ADAPTED_CONST) at each window of
    _EPS_STEPS, and the change-of-variable residual RMS at the same windows."""
    n_steps = W.shape[1] - 1
    u = integrand_values(kind, W)
    target = integrand_oracle(kind, W, n_steps)
    target_rms = math.sqrt(ordered_mean(target**2))
    header = ["eps", "rms_error", "rel_rms_error", "ito_residual_rms"]
    rows = []
    for k in _EPS_STEPS:
        est = forward_riemann(W, u, n_steps, k)
        rms = math.sqrt(ordered_mean((est - target) ** 2))
        resid_rms = math.sqrt(ordered_mean(ito_residual(W, dt, n_steps, k) ** 2))
        rows.append([k * dt, rms, rms / target_rms if target_rms > 0 else 0.0, resid_rms])
    return header, rows
