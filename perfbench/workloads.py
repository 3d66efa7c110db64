"""Workload op sequences and the output checks that decide whether an op failed.

Every op is one `insiderlab` CLI invocation.  The workload seed reaches the
program only through `--seed`; everything else is a fixed flag.  The checks
read the CSVs an op wrote and work out their own statistics (z scores,
equation gaps) instead of trusting the columns the CLI derives from them, so
an SE of 0 fails rather than reporting z = 0.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass

Z_MAX = 4.0  # Monte-Carlo gate, in standard errors
Y0_REL_TOL = 0.01  # bsde-linear: |Y0_mean - X0| / X0
EQUATION_GAP_TOL = 1e-6  # critical horizon: robust informed - neutral uninformed value
SHOOT_TOL = 1e-3  # bsde-quadratic's --shoot-tol default, which the workloads use

# The workloads run on the CLI's built-in parameter set; the checks that need
# the market recompute closed forms from these values.
MU0, SIGMA, R, T, X0, T0 = 0.15, 0.35, 0.0, 1.0, 1.0, 2.0

WORKLOADS = ("mc_game", "lsmc_solve", "figure_sweep")

# The informed linear solve at 100k paths x 50 steps misses the 1% Y0 gate on
# about one seed in five: its Y0 sits 0.5-1.3% above X0 and the error stays at
# 400k paths.  `lsmc_solve` therefore times the uninformed linear solve, and
# `run.py --defects` runs the informed one, gate unchanged, on seeds where it
# was seen to fail.  The probe fails until the solver is fixed.
KNOWN_DEFECT = "linear_informed"
KNOWN_DEFECT_SEEDS = (957596723, 3003)


@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` without `--out`, the CSVs it must write, and
    whether a failed check is the expected outcome (negative control)."""

    name: str
    argv: list[str]
    files: list[str]
    expect_fail: bool = False


def workload_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The op sequence of one workload pass.  `smoke` shrinks every size so
    the whole sequence and its checks run in seconds, and adds the negative
    control to `mc_game`."""
    common = ["--seed", str(seed), "--threads", "1"]
    if workload == "mc_game":
        size = ["--n-paths", "20000", "--n-steps", "50"] if smoke else ["--n-paths", "50000"]
        regime = ["--regime", "small_insider_robust"]
        ops = [
            Op("simulate", ["simulate", *regime, *size, *common],
               ["j_report.csv", "entropy_check.csv"]),
            Op("martingale", ["martingale", *regime, *size, *common], ["martingale.csv"]),
        ]
        if smoke:
            ops.append(Op("martingale-perturbed",
                          ["martingale", *regime, "--perturb-pi", "1.5", *size, *common],
                          ["martingale.csv"], expect_fail=True))
        return ops
    lsmc_size = ["--n-paths", "20000", "--n-steps", "50"] if smoke else ["--n-paths", "100000", "--n-steps", "50"]
    linear_files = ["bsde_linear.csv", "bsde_linear_report.csv"]
    if workload == KNOWN_DEFECT:
        return [Op("bsde-linear", ["bsde-linear", *lsmc_size, *common], linear_files)]
    if workload == "lsmc_solve":
        return [
            Op("bsde-linear", ["bsde-linear", "--kind", "none", *lsmc_size, *common], linear_files),
            Op("bsde-quadratic", ["bsde-quadratic", *lsmc_size, *common],
               ["bsde_quadratic.csv", "bsde_quadratic_trace.csv", "bsde_quadratic_value.csv"]),
        ]
    if workload == "figure_sweep":
        bsde_size = ["--bsde-paths", "2000", "--bsde-steps", "10"] if smoke else ["--bsde-paths", "5000"]
        fwd_size = ["--forward-paths", "200", "--forward-steps", "512"] if smoke else []
        return [
            Op("value", ["value", *common], ["values.csv"]),
            Op("critical-t0", ["critical-t0", *common], ["critical_t0.csv"]),
            Op("figures-fig1", ["figures", "--fig-kind", "fig1", "--with-bsde", *bsde_size, *common],
               ["fig1.csv"]),
            Op("figures-fig2", ["figures", "--fig-kind", "fig2", *common], ["fig2.csv"]),
            Op("figures-fig3", ["figures", "--fig-kind", "fig3", *common], ["fig3.csv"]),
            Op("figures-strategy_lines", ["figures", "--fig-kind", "strategy_lines", *common],
               ["strategy_lines.csv"]),
            Op("forward-check", ["forward-check", *fwd_size, *common], ["forward_wt.csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- closed forms the checks compare against (constant coefficients, varrho = 0) --


def small_insider_robust_value(mu: float, sigma: float, r: float, T: float, T0: float,
                               x0: float = X0) -> float:
    """ln X0 + rT + iota^2 T/4 + ln(a^2/(a^2 - T^2))/2 + T/(2a) + (iota T)^2/(4a),
    a = 2 T0 - T: the robust informed value with unit signal weight."""
    iota = (mu - r) / sigma
    a = 2.0 * T0 - T
    rent = 0.5 * math.log(a * a / (a * a - T * T)) + T / (2.0 * a) + (iota * T) ** 2 / (4.0 * a)
    return math.log(x0) + r * T + 0.25 * iota**2 * T + rent


def critical_equation_gap(mu: float, sigma: float, r: float, T: float, T0: float) -> float:
    """Robust informed value at T0 minus the neutral uninformed value
    ln X0 + rT + iota^2 T/2; zero at the critical horizon."""
    iota = (mu - r) / sigma
    return small_insider_robust_value(mu, sigma, r, T, T0) - (math.log(X0) + r * T + 0.5 * iota**2 * T)


# -- cell-level checks ------------------------------------------------------------

_TEXT_COLUMNS = {"regime"}
# cells the CLI leaves blank by design: on the last knot only, or in every row
_BLANK_LAST = {("bsde_linear.csv", "mean_Z"), ("bsde_linear.csv", "oracle_Z"),
               ("bsde_quadratic.csv", "mean_Z")}
_BLANK_ALL = {("bsde_linear_report.csv", "normalizer_mc"), ("bsde_quadratic.csv", "oracle_Y"),
              ("bsde_quadratic.csv", "oracle_Z"), ("bsde_quadratic.csv", "rmse_Y")}
# the shooting constant is a tuple of polynomial coefficients under enlargement
_TUPLE_COLUMNS = {("bsde_quadratic_trace.csv", "c2")}
_NP_SCALAR = re.compile(r"np\.float64\(([^()]*)\)")


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _tuple_finite(cell: str) -> bool:
    parts = [p for p in _NP_SCALAR.sub(r"\1", cell).strip("()").split(",") if p.strip()]
    return bool(parts) and all(_finite(p) for p in parts)


def cell_errors(path: str) -> list[str]:
    """A missing file, an empty table, or a missing or non-finite cell."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: missing"]
    rows = read_rows(path)
    if not rows:
        return [f"{name}: no rows"]
    errors = []
    for i, row in enumerate(rows):
        last = i == len(rows) - 1
        for col, cell in row.items():
            key = (name, col)
            if col is None or cell is None:
                errors.append(f"{name} row {i}: ragged row")
                continue
            if col in _TEXT_COLUMNS:
                ok = bool(cell)
            elif cell == "" and (key in _BLANK_ALL or (last and key in _BLANK_LAST)):
                ok = True
            elif key in _TUPLE_COLUMNS:
                ok = _tuple_finite(cell)
            else:
                ok = _finite(cell)
            if not ok:
                errors.append(f"{name} row {i} {col}: {cell!r} is missing or not finite")
    return errors


# -- op-level checks ----------------------------------------------------------------


def _z_error(label: str, estimate: float, se: float) -> str | None:
    if not se > 0.0:
        return f"{label}: SE is {se}, z undefined"
    z = estimate / se
    return f"{label}: |z| = {abs(z):.3f} > {Z_MAX}" if abs(z) > Z_MAX else None


def _check_simulate(d: str, op: Op) -> list[str]:
    j = read_rows(os.path.join(d, "j_report.csv"))[0]
    e = read_rows(os.path.join(d, "entropy_check.csv"))[0]
    errors = [
        _z_error("J - analytic_value", float(j["J_mean"]) - float(j["analytic_value"]),
                 float(j["J_se"])),
        _z_error("entropy gap", float(e["gap"]), float(e["gap_se"])),
    ]
    return [x for x in errors if x]


def _check_martingale(d: str, op: Op) -> list[str]:
    rows = read_rows(os.path.join(d, "martingale.csv"))
    errors = [_z_error(f"increment at t={r['t']}", float(r["estimate"]), float(r["SE"])) for r in rows]
    return [x for x in errors if x]


def _check_bsde_linear(d: str, op: Op) -> list[str]:
    rep = read_rows(os.path.join(d, "bsde_linear_report.csv"))[0]
    x0 = float(rep["X0"])
    rel = abs(float(rep["Y0_mean"]) - x0) / x0
    return [f"|Y0_mean - X0|/X0 = {rel:.5f} > {Y0_REL_TOL}"] if rel > Y0_REL_TOL else []


def _check_bsde_quadratic(d: str, op: Op) -> list[str]:
    val = read_rows(os.path.join(d, "bsde_quadratic_value.csv"))[0]
    resid = float(val["residual"])
    return [f"shooting residual {resid} > shoot_tol {SHOOT_TOL}"] if not resid <= SHOOT_TOL else []


def _gap_errors(label: str, gaps: list[float]) -> list[str]:
    return [f"{label}: equation gap {g:.3e} > {EQUATION_GAP_TOL}" for g in gaps
            if not abs(g) <= EQUATION_GAP_TOL]


def _check_critical_t0(d: str, op: Op) -> list[str]:
    row = read_rows(os.path.join(d, "critical_t0.csv"))[0]
    gap = critical_equation_gap(float(row["mu"]), float(row["sigma"]), float(row["r"]),
                                float(row["T"]), float(row["T0_star"]))
    return _gap_errors("critical-t0", [gap])


def _check_fig2(d: str, op: Op) -> list[str]:
    rows = read_rows(os.path.join(d, "fig2.csv"))
    gaps = [critical_equation_gap(float(r["mu"]), float(r["sigma"]), R, T, float(r["T0_star"]))
            for r in rows]
    return _gap_errors("fig2", gaps)


def _check_forward(d: str, op: Op) -> list[str]:
    rows = sorted(read_rows(os.path.join(d, "forward_wt.csv")), key=lambda r: -float(r["eps"]))
    rel = [float(r["rel_rms_error"]) for r in rows]
    if all(b < a for a, b in zip(rel, rel[1:])):
        return []
    return [f"relative RMS does not fall as eps shrinks: {rel}"]


_OP_CHECKS = {
    "simulate": _check_simulate,
    "martingale": _check_martingale,
    "martingale-perturbed": _check_martingale,
    "bsde-linear": _check_bsde_linear,
    "bsde-quadratic": _check_bsde_quadratic,
    "critical-t0": _check_critical_t0,
    "figures-fig2": _check_fig2,
    "forward-check": _check_forward,
}


def check_op(op: Op, out_dir: str, code) -> list[str]:
    """Every reason this op failed; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    errors = []
    for f in op.files:
        errors += cell_errors(os.path.join(out_dir, f))
    if not errors and op.name in _OP_CHECKS:
        try:
            errors += _OP_CHECKS[op.name](out_dir, op)
        except (KeyError, IndexError, ValueError) as exc:  # a column or row the check needs
            errors.append(f"unreadable output: {exc!r}")
    return errors


# -- accuracy figures ---------------------------------------------------------------


def accuracy(workload: str, out_dirs: dict[str, str], op_walls: dict[str, float]) -> dict[str, float]:
    """The workload's accuracy figures; for a fixed seed the CSV-derived ones
    repeat exactly.  `mc_wnv` is J_se^2 times the simulate op's wall time."""
    if workload == "mc_game":
        j = read_rows(os.path.join(out_dirs["simulate"], "j_report.csv"))[0]
        return {"mc_wnv": float(j["J_se"]) ** 2 * op_walls["simulate"]}
    if workload == "lsmc_solve":
        rows = read_rows(os.path.join(out_dirs["bsde-linear"], "bsde_linear.csv"))
        rel = [float(r["rmse_Y"]) / float(r["oracle_Y"]) for r in rows]
        val = read_rows(os.path.join(out_dirs["bsde-quadratic"], "bsde_quadratic_value.csv"))[0]
        exact = small_insider_robust_value(MU0, SIGMA, R, T, T0)
        return {"lsmc_rel_rmse_Y": sum(rel) / len(rel),
                "bsde_value_abs_err": abs(float(val["value"]) - exact)}
    rows = read_rows(os.path.join(out_dirs["figures-fig1"], "fig1.csv"))
    return {"bsde_value_abs_err": max(
        abs(float(r["large_insider_robust_bsde"]) - float(r["small_insider_robust"])) for r in rows)}
