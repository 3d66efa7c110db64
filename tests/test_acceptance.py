"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with its headline numbers
on success (run with -s or -rP to see them).  Statistical checks use fixed
seeds so every tolerance is a deterministic, rerunnable assertion.
"""

import csv
import math
import time

import numpy as np
import pytest

from insiderlab import analysis
from insiderlab.anticipating import TestIntegrand, convergence_table
from insiderlab.bsde import (
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    value_from_bsde,
)
from insiderlab.cli import main
from insiderlab.model import InsiderSpec, MarketParams, ScenarioConfig
from insiderlab.paths import sample_paths
from insiderlab.selftest import run_selftest
from insiderlab.simulate import (
    _default_checkpoints,
    entropy_identity_check,
    estimate_J,
    game_terms,
    martingale_diagnostic,
    mean_se,
    weighted_increments,
)
from insiderlab.strategies import StrategyKind, build_profile
from insiderlab._csvio import write_csv

# frozen oracle values for mu0=0.15, sigma=0.35, r=0, T=1, X0=1, T0=2,
# varrho in {0, sigma^2/4}; computed by independent hand/quadrature arithmetic
V1 = 0.045918367346938776
V_NN = 0.09183673469387755
V_NN_IMPACT = 0.1836734693877551
V2 = 0.28678267429077676
V_LARGE = 0.8768206499477004


@pytest.fixture(scope="module")
def batch_mc_flat(market, no_insider):
    cfg = ScenarioConfig(
        market=market, insider=no_insider, n_steps=200, n_paths=200_000, seed=150_001
    )
    return sample_paths(cfg)


@pytest.fixture(scope="module")
def batch_mc_enl(market, insider):
    cfg = ScenarioConfig(
        market=market, insider=insider, n_steps=200, n_paths=200_000, seed=150_002
    )
    return sample_paths(cfg)


def _game_terms(batch, kind, market, insider, rows):
    out, work = rows
    return game_terms(batch, build_profile(kind, batch, market, insider, out), market, work)


def _martingale(batch, profile, market, work):
    checkpoints = _default_checkpoints(batch.grid)
    return martingale_diagnostic(weighted_increments(batch, profile, market, checkpoints, work), checkpoints)


def test_criterion_1_analytic_value_suite(market, market_impact, insider):
    start = time.time()
    got = [
        analysis.value_no_insider_robust(market).total,
        analysis.value_no_insider_nonrobust(market).total,
        analysis.value_no_insider_nonrobust(market_impact).total,
        analysis.value_small_insider_robust(market, insider).total,
        analysis.value_insider_nonrobust(market_impact, insider).total,
    ]
    expect = [V1, V_NN, V_NN_IMPACT, V2, V_LARGE]
    elapsed = time.time() - start
    worst = max(abs(g - e) for g, e in zip(got, expect))
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"PASS criterion 1: analytic value suite, max error {worst:.2e} in {elapsed:.3f}s")


def test_criterion_2_monte_carlo_game_value(batch_mc_flat, batch_mc_enl, market, insider, kernel_rows):
    start = time.time()
    j_flat = estimate_J(_game_terms(batch_mc_flat, StrategyKind.NO_INSIDER_ROBUST, market, insider,
                                     kernel_rows(batch_mc_flat))[0])
    t_flat = time.time() - start
    z_flat = (j_flat.mean - V1) / j_flat.std_error
    assert abs(z_flat) <= 3.0
    assert t_flat < 60.0

    start = time.time()
    j_enl = estimate_J(_game_terms(batch_mc_enl, StrategyKind.SMALL_INSIDER_ROBUST, market, insider,
                                    kernel_rows(batch_mc_enl))[0])
    t_enl = time.time() - start
    z_enl = (j_enl.mean - V2) / j_enl.std_error
    assert abs(z_enl) <= 3.0
    assert t_enl < 60.0
    print(
        f"PASS criterion 2: game value, uninformed z={z_flat:+.2f} ({t_flat:.1f}s), "
        f"informed z={z_enl:+.2f} ({t_enl:.1f}s)"
    )


def test_criterion_3_martingale_theorem(batch_mc_flat, batch_mc_enl, market, insider, kernel_rows):
    start = time.time()
    # the two batches have one shape, so one set of rows serves both
    out, work = kernel_rows(batch_mc_flat)
    prof_flat = build_profile(StrategyKind.NO_INSIDER_ROBUST, batch_mc_flat, market, insider, out)
    stats_flat = _martingale(batch_mc_flat, prof_flat, market, work)
    prof_enl = build_profile(StrategyKind.SMALL_INSIDER_ROBUST, batch_mc_enl, market, insider, out)
    stats_enl = _martingale(batch_mc_enl, prof_enl, market, work)
    neg = _martingale(batch_mc_flat, prof_flat.scaled(pi_factor=1.2), market, work)
    elapsed = time.time() - start

    assert len(stats_flat) == 10 and len(stats_enl) == 10
    assert all(abs(s.z) <= 4.0 for s in stats_flat), [round(s.z, 2) for s in stats_flat]
    assert all(abs(s.z) <= 4.0 for s in stats_enl), [round(s.z, 2) for s in stats_enl]
    assert any(abs(s.z) > 4.0 for s in neg), [round(s.z, 2) for s in neg]
    assert elapsed < 120.0
    print(
        "PASS criterion 3: martingale increments, max |z| "
        f"{max(abs(s.z) for s in stats_flat + stats_enl):.2f}, negative control max |z| "
        f"{max(abs(s.z) for s in neg):.2f} ({elapsed:.1f}s)"
    )


def test_criterion_4_entropy_identity(batch_mc_enl, market, insider, kernel_rows):
    _, penalty, entropy = _game_terms(
        batch_mc_enl, StrategyKind.SMALL_INSIDER_ROBUST, market, insider, kernel_rows(batch_mc_enl)
    )
    res = entropy_identity_check(penalty, entropy)
    assert abs(res.z) <= 3.0
    print(
        f"PASS criterion 4: entropy identity, lhs {res.lhs_mean:.5f} rhs {res.rhs_mean:.5f} "
        f"paired z {res.z:+.2f}"
    )


def test_criterion_5_linear_solver_oracle(sweep_lsmc_flat, sweep_lsmc_enl, market, whole):
    start = time.time()
    results = []
    for paths, budget in (
        (sweep_lsmc_flat, 0.05),
        (sweep_lsmc_enl, 0.10),
    ):
        _, oracle_Y, oracle_Z = whole(solve_linear_closed_form, paths, market)
        _, Y, Z = whole(solve_linear_lsmc, paths, market)
        y0_err = abs(mean_se(Y[:, 0])[0] - market.X0) / market.X0
        assert y0_err <= 0.01, y0_err
        m = paths.grid.index_T
        t_left = paths.grid.knots[:m]
        mask = (t_left >= 0.1) & (t_left <= 0.9)
        pi_hat = Z / (0.35 * Y[:, :m])
        pi_star = np.broadcast_to(
            oracle_Z / (0.35 * oracle_Y[:, :m]), pi_hat.shape
        )
        rmse = math.sqrt(float(np.mean((pi_hat[:, mask] - pi_star[:, mask]) ** 2)))
        rel = rmse / math.sqrt(float(np.mean(pi_star[:, mask] ** 2)))
        assert rel <= budget, (rel, budget)
        results.append((y0_err, rel))
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        "PASS criterion 5: linear solver, uninformed Y0 err "
        f"{results[0][0]:.4f} / pi rel RMSE {results[0][1]:.4f}; informed "
        f"{results[1][0]:.4f} / {results[1][1]:.4f} ({elapsed:.1f}s)"
    )


def test_criterion_6_quadratic_solver(sweep_lsmc_flat, market, market_impact, whole):
    sol, _, Z = whole(solve_quadratic_lsmc, sweep_lsmc_flat, market)
    v, se = value_from_bsde(sol)
    z_rmse = math.sqrt(float(np.mean(Z**2)))
    assert z_rmse <= 1e-2
    assert abs(v - V1) <= max(1e-3, 3.0 * se)
    assert sol.residual <= 1e-3

    sol_imp = solve_quadratic_lsmc(sweep_lsmc_flat, market_impact)
    v_imp, _ = value_from_bsde(sol_imp)
    assert v_imp >= V1
    assert sol_imp.residual <= 1e-3
    print(
        f"PASS criterion 6: quadratic solver, |Z| RMSE {z_rmse:.2e}, |V - target| "
        f"{abs(v - V1):.2e}, impact value {v_imp:.6f} >= {V1:.6f}"
    )


def test_criterion_7_forward_integral_convergence(brownian_levels):
    grid, W = brownian_levels
    assert grid.index_T == 4096 and W.shape[0] >= 1000
    header, rows = convergence_table(W, float(grid.dt[0]), TestIntegrand.WT)
    rels = [row[2] for row in rows]
    resid = [row[3] for row in rows]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] <= 0.02
    assert resid[0] > resid[1] > resid[2]
    print(
        "PASS criterion 7: forward integral, rel RMS "
        f"{rels[0]:.4f} > {rels[1]:.4f} > {rels[2]:.4f} (<= 2%), residual RMS decreasing"
    )


def test_criterion_8_critical_horizon(market):
    t0_star = analysis.critical_T0(market)
    gap = (
        analysis.value_small_insider_robust(market, InsiderSpec.enlargement(T0=t0_star)).total
        - analysis.value_no_insider_nonrobust(market).total
    )
    assert abs(gap) <= 1e-6
    assert 6.0 <= t0_star <= 8.0

    mus = [0.10, 0.125, 0.15, 0.175, 0.20]
    sigmas = [0.25, 0.30, 0.35, 0.40, 0.45]
    _, rows = analysis.fig_critical_table(market, mus, sigmas)
    table = {(mu, sig): t0 for mu, sig, t0 in rows}
    for sig in sigmas:
        col = [table[(mu, sig)] for mu in mus]
        assert all(a > b for a, b in zip(col, col[1:])), ("mu monotonicity", sig)
    for mu in mus:
        row = [table[(mu, sig)] for sig in sigmas]
        assert all(a < b for a, b in zip(row, row[1:])), ("sigma monotonicity", mu)
    print(f"PASS criterion 8: critical horizon {t0_star:.4f} in [6, 8], gap {gap:.2e}, "
          "5x5 grid monotone")


def test_criterion_9_figure_reproduction(market, market_impact, insider):
    t0s = [1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0]
    header, rows = analysis.fig_value_table(market_impact, t0s)
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    for name in ("small_insider_robust", "small_insider_nonrobust", "large_insider_nonrobust"):
        series = cols[name]
        assert all(a > b for a, b in zip(series, series[1:])), name
    for i in range(len(rows)):
        assert cols["large_insider_nonrobust"][i] >= cols["small_insider_nonrobust"][i]
        assert cols["small_insider_nonrobust"][i] >= cols["no_insider_nonrobust_no_impact"][i]
        assert cols["small_insider_robust"][i] >= cols["no_insider_robust"][i]
        assert cols["small_insider_robust"][i] <= cols["small_insider_nonrobust"][i]

    # low-drift variant preserves the orderings with smaller baseline terms
    low = MarketParams(r=0.0, mu0=0.08, sigma=0.35, varrho=0.25 * 0.35**2, T=1.0, X0=1.0)
    _, rows3 = analysis.fig_value_table(low, t0s)
    cols3 = {name: [row[i] for row in rows3] for i, name in enumerate(header)}
    assert cols3["no_insider_nonrobust"][0] < cols["no_insider_nonrobust"][0]
    for name in ("small_insider_robust", "small_insider_nonrobust", "large_insider_nonrobust"):
        series = cols3[name]
        assert all(a > b for a, b in zip(series, series[1:])), name

    t = 0.5
    w = [-1.0, 0.0, 1.0]
    _, line_rows = analysis.strategy_line_table(market_impact, insider, t, w, y0=1.0)
    slopes = analysis.strategy_line_slopes(market_impact, insider, t)
    worst = 0.0
    for col, name in ((1, "small_insider_robust"), (2, "small_insider_nonrobust"),
                      (3, "large_insider_nonrobust")):
        fd = (line_rows[2][col] - line_rows[0][col]) / 2.0
        worst = max(worst, abs(fd - slopes[name]))
    assert worst <= 1e-10
    print(f"PASS criterion 9: figure series ordered and decreasing, slope error {worst:.2e}")


@pytest.mark.parametrize("phi", ["0:1,0.5:3", "0:1,1.5:2"])
@pytest.mark.parametrize("regime", [["--regime", "small_insider_robust"],
                                    ["--regime", "large_insider_nonrobust", "--varrho", "0.030625"]],
                         ids=lambda regime: regime[1])
def test_general_weight_closed_form_matches_monte_carlo(tmp_path, capsys, phi, regime):
    # the informed closed-form values hold for a piecewise signal weight: the
    # simulated game value of each profile lies within 4 SE of its value
    zs = []
    for seed in ("1", "2", "3"):
        out = tmp_path / seed
        assert main(["simulate", *regime, "--phi", phi, "--n-paths", "50000", "--n-steps", "50",
                     "--seed", seed, "--out", str(out)]) == 0
        with open(out / "j_report.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        zs.append((float(row["J_mean"]) - float(row["analytic_value"])) / float(row["J_se"]))
    capsys.readouterr()
    assert max(abs(z) for z in zs) <= 4.0, zs
    print(f"PASS general weight {phi} {regime[1]}: z = {', '.join(f'{z:.2f}' for z in zs)}")


def test_criterion_10_selftest_determinism(tmp_path):
    paths = []
    for tag in ("one", "two"):
        rows = run_selftest(seed=20240801)
        assert all(ok for _, ok, _ in rows)
        out = tmp_path / f"selftest_{tag}.csv"
        write_csv(str(out), ["check", "passed", "metric"], [list(r) for r in rows])
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("PASS criterion 10: selftest deterministic, byte-identical output")
