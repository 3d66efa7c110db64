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
from .model import InsiderSpec, MarketParams, ScenarioConfig
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

    # reproducibility: identical seed => bit-identical increments
    again = sample_paths(cfg)
    check("path_determinism", np.array_equal(batch.dW, again.dW), 0.0)

    # closed-form value suite against frozen arithmetic
    got = {
        "no_insider_robust": analysis.value_no_insider_robust(market).total,
        "no_insider_nonrobust": analysis.value_no_insider_nonrobust(market).total,
        "no_insider_nonrobust_impact": analysis.value_no_insider_nonrobust(market_rho).total,
        "small_insider_robust": analysis.value_small_insider_robust(market, insider).total,
        "large_insider_nonrobust": analysis.value_large_insider_nonrobust(
            market_rho, insider
        ).total,
    }
    err = max(abs(got[k] - v) for k, v in _ORACLE_VALUES.items())
    check("analytic_value_suite", err < 1e-9, err)

    # quadrature consistency: exact integral equals step-sum on the grid
    t_left = batch.grid.knots[: batch.grid.index_T]
    dt = batch.grid.dt[: batch.grid.index_T]
    step_sum = float(np.sum((market.mu0(t_left) / market.sigma(t_left)) ** 2 * dt))
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
        prof = strategies.build_profile(kind, batch, market, insider)
        implied = strategies.theta_from_pi(market, drift, prof.pi, t_left)
        worst = max(worst, float(np.max(np.abs(implied - prof.theta))))
    check("first_order_relation", worst < 1e-12, worst)

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
        strategies.StrategyKind.SMALL_INSIDER_ROBUST, batch, market, insider
    )
    dens = simulate.simulate_density(batch, prof)
    m_eps, se_eps = simulate.mean_se(np.exp(dens.terminal))
    z_eps = abs(m_eps - 1.0) / se_eps
    check("density_mean_one", z_eps < 4.0, z_eps)

    # entropy identity for a constant distortion, against the Gaussian value
    const_prof = strategies.build_profile(
        strategies.StrategyKind.NO_INSIDER_ROBUST, batch, market, insider
    )
    dens_c = simulate.simulate_density(batch, const_prof)
    ent = simulate.entropy_identity_check(batch, const_prof, dens_c)
    io = market.mu0(0.0) / market.sigma(0.0)
    gauss = io**2 * market.T / 8.0
    z_ent = abs(ent.rhs_mean - gauss) / ent.rhs_se
    check("entropy_constant_theta", z_ent < 4.0 and abs(ent.z) < 4.0, z_ent)

    # multiplicative functional: exponent additivity and its Gaussian mean
    pist = bsde.pi_star_functional(batch, market)
    lhs = pist.values(0.0, 1.0)
    rhs = pist.values(0.0, 0.5) * pist.values(0.5, 1.0)
    mult_err = float(np.max(np.abs(lhs - rhs) / lhs))
    check("pi_functional_multiplicative", mult_err < 1e-12, mult_err)

    # linear closed form starts at the initial wealth
    sol = bsde.solve_linear_closed_form(batch, market, insider)
    check("linear_closed_form_initial", sol.residual < 1e-10, sol.residual)

    # critical horizon satisfies its defining equation
    t0_star = analysis.critical_T0(market)
    gap = abs(
        analysis.value_small_insider_robust(
            market, InsiderSpec.enlargement(T0=t0_star)
        ).total
        - analysis.value_no_insider_nonrobust(market).total
    )
    check("critical_t0_equation", gap <= 1e-6, gap)

    # adapted constant integrand: forward quadrature approaches c * W_t
    ncfg = ScenarioConfig(
        market=market, insider=InsiderSpec.none(), n_steps=512, n_paths=500, seed=seed + 1
    )
    nb = sample_paths(ncfg)
    W = nb.level
    u = integrand_values(TestIntegrand.ADAPTED_CONST, W, const=2.0)
    est = forward_riemann(W, u, float(nb.grid.dt[0]), nb.grid.n_steps, 2)
    rms = math.sqrt(float(np.mean((est - 2.0 * W[:, -1]) ** 2)))
    check("forward_adapted_const", rms < 0.2, rms)

    return rows
