"""Fast invariant suite behind the `selftest` CLI subcommand.

Each check is deterministic for a fixed seed and returns (name, passed,
metric); statistical checks use small ensembles with tolerances far wider
than their standard errors.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, bsde, simulate, strategies
from .anticipating import TestIntegrand, forward_riemann, integrand_values
from .model import InsiderSpec, MarketParams, ScenarioConfig, phi_norm_sq
from .paths import sample_paths

__all__ = ["run_selftest"]

_ORACLE_VALUES = {
    "no_insider_robust": 0.045918367346938776,
    "no_insider_nonrobust": 0.09183673469387755,
    "no_insider_nonrobust_impact": 0.1836734693877551,
    "small_insider_robust": 0.28678267429077676,
    "large_insider_nonrobust": 0.8768206499477004,
}


def _base_market(varrho: float = 0.0) -> MarketParams:
    return MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=varrho, T=1.0, X0=1.0)


def run_selftest(seed: int = 20240801) -> list[tuple[str, bool, float]]:
    rows: list[tuple[str, bool, float]] = []

    def check(name: str, passed: bool, metric: float) -> None:
        rows.append((name, bool(passed), float(metric)))

    market = _base_market()
    market_rho = _base_market(varrho=0.25 * 0.35**2)
    insider = InsiderSpec.enlargement(T0=2.0)
    cfg = ScenarioConfig(
        market=market, insider=insider, n_steps=100, n_paths=20_000, seed=seed
    )
    batch = sample_paths(cfg)
    # build_profile's pair of rows and the kernels' flat work row, for every profile and kernel below
    n, m = batch.n_paths, batch.grid.index_T
    out, work = np.empty((2, n, m)), np.empty(n * (m + 1))

    # reproducibility: identical seed => bit-identical increments
    check("path_determinism", np.array_equal(batch.dW, sample_paths(cfg).dW), 0.0)

    # closed-form value suite against frozen arithmetic
    got = {
        "no_insider_robust": analysis.value_no_insider_robust(market).total,
        "no_insider_nonrobust": analysis.value_no_insider_nonrobust(market).total,
        "no_insider_nonrobust_impact": analysis.value_no_insider_nonrobust(market_rho).total,
        "small_insider_robust": analysis.value_small_insider_robust(market, insider).total,
        "large_insider_nonrobust": analysis.value_insider_nonrobust(market_rho, insider).total,
    }
    err = max(abs(got[k] - v) for k, v in _ORACLE_VALUES.items())
    check("analytic_value_suite", err < 1e-9, err)

    # quadrature consistency: exact integral equals step-sum on the grid
    t_left = batch.grid.knots[:m]
    step_sum = float(np.sum((market.mu0(t_left) / market.sigma(t_left)) ** 2 * batch.grid.dt))
    exact = analysis.integral_iota_sq(market)
    rel = abs(step_sum - exact) / exact
    check("iota_sq_quadrature", rel < 1e-14, rel)

    # first-order relation theta = sigma_tilde*pi - (iota + phi), with the
    # information drift each regime actually sees
    worst, phi = 0.0, batch.phi
    for kind, drift in (
        (strategies.StrategyKind.NO_INSIDER_ROBUST, 0.0),
        (strategies.StrategyKind.SMALL_INSIDER_ROBUST, phi),
        (strategies.StrategyKind.SMALL_INSIDER_NONROBUST, phi),
    ):
        prof = strategies.build_profile(kind, batch, market, insider, out)
        implied = strategies.theta_from_pi(market, drift, prof.pi, t_left)
        worst = max(worst, float(np.max(np.abs(implied - prof.theta))))
    check("first_order_relation", worst < 1e-12, worst)
    del phi, implied

    # the signal's tail Y0 - B_T, one Gaussian draw per path: mean 0, variance
    # ||phi_w||^2_[T, T0], uncorrelated with B_T
    b_T = batch.level[:, -1]
    tail = batch.Y0 - b_T
    z_tail = max(abs(mean - target) / se for (mean, se), target in (
        (simulate.mean_se(tail), 0.0),
        (simulate.mean_se(tail**2), phi_norm_sq(insider, market.T, insider.T0)),
        (simulate.mean_se(tail * b_T), 0.0)))
    check("signal_tail_law", z_tail < 5.0, z_tail)

    # enlargement decomposition moments at the horizon
    wh = np.sum(batch.dWH, axis=1)
    m2, se2 = simulate.mean_se(wh**2)
    z_var = abs(m2 - batch.grid.T) / se2
    cov, se_cov = simulate.mean_se(wh * batch.Y0)
    z_cov = abs(cov) / se_cov
    check("enlargement_variance", z_var < 5.0, z_var)
    check("enlargement_signal_independence", z_cov < 5.0, z_cov)

    # exponential density is mean one under the worst-case distortion
    prof = strategies.build_profile(
        strategies.StrategyKind.SMALL_INSIDER_ROBUST, batch, market, insider, out
    )
    log_eps = simulate.simulate_density(batch, prof, work)
    m_eps, se_eps = simulate.mean_se(np.exp(log_eps[:, -1]))
    z_eps = abs(m_eps - 1.0) / se_eps
    check("density_mean_one", z_eps < 4.0, z_eps)

    # entropy identity for a constant distortion, against the Gaussian value
    const_prof = strategies.build_profile(
        strategies.StrategyKind.NO_INSIDER_ROBUST, batch, market, insider, out
    )
    _, penalty, entropy = simulate.game_terms(batch, const_prof, market, work)
    ent = simulate.entropy_identity_check(penalty, entropy)
    io = market.mu0(0.0) / market.sigma(0.0)
    gauss = io**2 * market.T / 8.0
    z_ent = abs(ent.rhs_mean - gauss) / ent.rhs_se
    check("entropy_constant_theta", z_ent < 4.0 and abs(ent.z) < 4.0, z_ent)

    # tower property of the multiplicative functional: the closed-form
    # normaliser is E[sqrt(Pi(0,T)) | Y0], so the paired gap has mean zero;
    # on the backward solvers' own input, which draws other paths
    del batch, prof, const_prof, log_eps, out, work
    sweep = bsde.stream_sweep_paths(cfg)
    sqrt_pi = np.exp(0.5 * bsde.log_pi_star(sweep, market))
    gap_pi, se_pi = simulate.mean_se(sqrt_pi - bsde.enlargement_normalizer(market, insider, sweep.Y0))
    z_pi = abs(gap_pi) / se_pi
    check("pi_functional_tower", z_pi < 4.0, z_pi)

    # linear closed form starts at the initial wealth
    y0, _ = bsde.solve_linear_closed_form(sweep, market)(0, np.empty((2, sweep.n_paths)))
    residual = abs(simulate.ordered_mean(y0) - market.X0)
    check("linear_closed_form_initial", residual < 1e-10, residual)
    del sweep

    # critical horizon satisfies its defining equation
    t0_star = analysis.critical_T0(market)
    gap = abs(
        analysis.value_small_insider_robust(
            market, InsiderSpec.enlargement(T0=t0_star)
        ).total
        - analysis.value_no_insider_nonrobust(market).total
    )
    check("critical_t0_equation", gap <= 1e-6, gap)

    # adapted constant integrand at unit iota, so the state is W_t: forward sums approach c * W_t
    ncfg = ScenarioConfig(
        market=MarketParams(r=0.0, mu0=1.0, sigma=1.0, varrho=0.0, T=1.0, X0=1.0),
        insider=InsiderSpec.none(), n_steps=512, n_paths=500, seed=(seed + 1) % 2**64,
    )
    nb = sample_paths(ncfg)
    W = nb.level
    u = integrand_values(TestIntegrand.ADAPTED_CONST, W, const=2.0)
    est = forward_riemann(W, u, 2, np.empty((nb.n_paths, nb.grid.index_T)))
    rms = math.sqrt(simulate.ordered_mean((est - 2.0 * W[:, -1]) ** 2))
    check("forward_adapted_const", rms < 0.2, rms)

    return rows
