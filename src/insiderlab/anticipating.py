"""Forward-integral laboratory on explicit anticipating integrands.

The forward integral of u against W over [0, T] is the limit in probability

    (1/eps) int_0^T u_s (W_{(s+eps) ^ T} - W_s) ds,   eps -> 0+,

an extension of the Ito integral to non-adapted u.  The test integrands are
constant in time on each path, u_s = F, and a random variable comes out of
the forward integral (Russo & Vallois 1993):

    int_0^T F d^-W = F W_T,   F = W_T, W_T^2 (anticipating) or c (adapted).

For F = W_T this is the Skorohod value W_T^2 - T plus the trace correction T.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import DomainError
from .paths import l2_rows
from .simulate import ordered_mean

__all__ = [
    "TestIntegrand",
    "EPS_STEPS",
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


def integrand_values(kind: TestIntegrand, W: np.ndarray, const: float = 1.0) -> np.ndarray | float:
    """The integrand F, constant in time on each path: the (n_paths, 1)
    column W_T or W_T^2, or the scalar const.  W is (n_paths, n+1)."""
    if kind is TestIntegrand.WT:
        return W[:, -1:]
    if kind is TestIntegrand.WT_SQUARED:
        return W[:, -1:] ** 2
    return const


def integrand_oracle(kind: TestIntegrand, W: np.ndarray) -> np.ndarray:
    """Exact pathwise forward integral over [0, T] of the unit-constant
    integrand of kind: F W_T."""
    return (integrand_values(kind, W) * W[:, -1:])[:, 0]


def forward_riemann(W: np.ndarray, u: np.ndarray | float, eps_steps: int, out: np.ndarray) -> np.ndarray:
    """Left-point quadrature of the defining average over the whole path on a
    uniform grid, where eps = k dt cancels the step dt:

        (1/eps) sum_{i < n} u_i (W_{min(i+k, n)} - W_i) dt
            = (1/k) sum_{i < n} u_i (W_{min(i+k, n)} - W_i).

    u is an (n_paths, n) matrix or anything that broadcasts against one.
    eps must span at least two grid steps so the averaging window is resolved.
    The window increments go to `out`, a C-ordered (n_paths, n) buffer.
    """
    n = W.shape[1] - 1
    if eps_steps < 2:
        raise DomainError("eps below grid resolution: need eps >= 2 steps")
    # one C-ordered buffer, so the row sum keeps its summation order; the
    # last k windows run past T and end at W_T
    k = min(eps_steps, n)
    np.subtract(W[:, k:n], W[:, : n - k], out=out[:, : n - k])
    np.subtract(W[:, n:], W[:, n - k : n], out=out[:, n - k :])
    out *= u
    return np.sum(out, axis=1) / eps_steps


def ito_residual(W: np.ndarray, dt: float, eps_steps: int, out: np.ndarray) -> np.ndarray:
    """Pathwise defect over [0, T] of the anticipating change-of-variable
    formula for f(x) = x^2 applied to X_t = W_T W_t (the forward integral of
    u = W_T):

        f(X_T) - f(X_0) - 2 * forward(X u, T) - int_0^T u^2 ds.

    Converges to zero pathwise as eps -> 0.  `out` is a pair of C-ordered
    (n_paths, n) buffers for X u and the window increments.
    """
    w_T = W[:, -1]
    xu, incr = out
    np.multiply(W[:, :-1], W[:, -1:], out=xu)
    xu *= W[:, -1:]
    fwd = forward_riemann(W, xu, eps_steps, incr)
    quad = w_T**2 * ((W.shape[1] - 1) * dt)
    return (w_T * w_T) ** 2 - (w_T * W[:, 0]) ** 2 - 2.0 * fwd - quad


# the windows eps of convergence_table, in grid steps, coarsest first
EPS_STEPS = (8, 4, 2)


def convergence_table(W: np.ndarray, dt: float, kind: TestIntegrand) -> tuple[list[str], list[list]]:
    """(eps, rms_error, rel_rms_error) rows for the integrand's oracle over
    the whole path (unit constant for ADAPTED_CONST) at each window of
    EPS_STEPS, and the change-of-variable residual RMS at the same windows.

    W is walked in chunks of paths.l2_rows(n_steps) paths through two window
    buffers allocated once, so a chunk's buffers and its rows of W stay in a
    core's L2; the per-path values do not depend on the chunk.
    """
    n_paths, n = W.shape[0], W.shape[1] - 1
    est = np.empty((len(EPS_STEPS), n_paths))
    resid = np.empty_like(est)
    step = l2_rows(n)
    buffers = np.empty((2, min(step, n_paths), n))
    for lo in range(0, n_paths, step):
        chunk = W[lo : lo + step]
        pair = buffers[:, : len(chunk)]
        u = integrand_values(kind, chunk)
        for j, k in enumerate(EPS_STEPS):
            est[j, lo : lo + step] = forward_riemann(chunk, u, k, pair[1])
            resid[j, lo : lo + step] = ito_residual(chunk, dt, k, pair)
    target = integrand_oracle(kind, W)
    target_rms = math.sqrt(ordered_mean(target**2))
    header = ["eps", "rms_error", "rel_rms_error", "ito_residual_rms"]
    rows = []
    for j, k in enumerate(EPS_STEPS):
        rms = math.sqrt(ordered_mean((est[j] - target) ** 2))
        resid_rms = math.sqrt(ordered_mean(resid[j] ** 2))
        rows.append([k * dt, rms, rms / target_rms if target_rms > 0 else 0.0, resid_rms])
    return header, rows
