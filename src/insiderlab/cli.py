"""Command-line entry point.

Subcommands: value, simulate, martingale, bsde-linear, bsde-quadratic,
forward-check, critical-t0, figures, selftest.  Every run reads an optional
INI config (sections [market], [insider], [run]), applies flag overrides,
writes CSVs under --out (default $INSIDERLAB_OUT or ./out) and prints a run
report.  Exit codes: 0 success, 1 validation/usage error or failed selftest,
2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import analysis
from ._csvio import write_csv
from .bsde import (
    RegressionError,
    ShootingError,
    initial_controls,
    knot_table,
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    stream_sweep_paths,
    value_from_bsde,
)
from .anticipating import TestIntegrand, convergence_table
from .model import (
    DomainError,
    InsiderKind,
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    validate,
)
from .paths import sample_paths
from .selftest import run_selftest
from .simulate import ordered_mean, stream_game, stream_martingale
from .strategies import UNINFORMED_KINDS, StrategyKind, build_profile, market_for

_REGIME_CHOICES = [k.value for k in analysis.VALUE_KINDS]  # the regimes with closed forms


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def parse_piecewise(text: str) -> PiecewiseConstant:
    """`0.35` means constant; `0:0.3, 0.5:0.4` means breakpoint:value pairs."""
    pairs = [part.split(":") for part in text.split(",")] if ":" in text else [["0", text]]
    try:
        bps, vals = zip(*((float(b), float(v)) for b, v in pairs))
    except ValueError:
        raise ValidationError(
            "piecewise_syntax", f"{text!r} is neither a number nor breakpoint:value pairs"
        ) from None
    return PiecewiseConstant(bps, vals)


_DEFAULTS = {
    "market": {"r": "0.0", "mu0": "0.15", "sigma": "0.35", "varrho": "0.0", "T": "1.0", "X0": "1.0"},
    "insider": {"kind": "enlargement", "T0": "2.0", "phi": "1.0"},
    "run": {"robust": "true", "n_steps": "200", "n_paths": "100000", "seed": "20240801"},
}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # true/false, 1/0, yes/no, on/off


def _describe(fn: PiecewiseConstant) -> str:
    if len(fn.breakpoints) == 1:
        return repr(fn.values[0])
    return ",".join(f"{b}:{v}" for b, v in zip(fn.breakpoints, fn.values))


def echo_config(config: ScenarioConfig) -> str:
    """`key=value` tokens that load_config reads back to an equal config."""
    market, insider = config.market, config.insider
    parts = [
        f"r={_describe(market.r)}",
        f"mu0={_describe(market.mu0)}",
        f"sigma={_describe(market.sigma)}",
        f"varrho={_describe(market.varrho)}",
        f"T={market.T!r}",
        f"X0={market.X0!r}",
        f"kind={insider.kind.value}",
    ]
    if insider.has_signal():
        parts += [f"T0={insider.T0!r}", f"phi={_describe(insider.phi_weight)}"]
    parts += [f"robust={str(config.robust).lower()}", f"n_steps={config.n_steps}"]
    if config.n_steps_tail is not None:
        parts.append(f"n_steps_tail={config.n_steps_tail}")
    parts += [f"n_paths={config.n_paths}", f"seed={config.seed}"]
    return " ".join(parts)


def load_config(path: str | None, overrides: argparse.Namespace) -> ScenarioConfig:
    """Merge defaults <- config file <- command-line flags (flags win)."""
    ini = configparser.ConfigParser()
    ini.read_dict(_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ValidationError("config_missing", f"no such config file: {path}")
        try:
            ini.read(path)
        except configparser.Error as exc:
            raise ValidationError("config_syntax", f"{path}: {exc}") from None

    def flag(name, section, key):
        val = getattr(overrides, name, None)
        return str(val) if val is not None else ini[section][key]

    def scalar(convert, name, section, key):
        text = flag(name, section, key)
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValidationError("config_value", f"cannot read {key} = {text!r}") from None

    market = MarketParams(
        r=parse_piecewise(flag("r", "market", "r")),
        mu0=parse_piecewise(flag("mu", "market", "mu0")),
        sigma=parse_piecewise(flag("sigma", "market", "sigma")),
        varrho=parse_piecewise(flag("varrho", "market", "varrho")),
        T=scalar(float, "T", "market", "T"),
        X0=scalar(float, "x0", "market", "X0"),
    )
    kind_txt = flag("kind", "insider", "kind").strip().lower()
    if kind_txt in ("none", "no_insider"):
        insider = InsiderSpec.none()
    elif kind_txt in ("enlargement", "initial_enlargement"):
        insider = InsiderSpec.enlargement(
            T0=scalar(float, "t0", "insider", "T0"),
            phi_weight=parse_piecewise(flag("phi", "insider", "phi")),
        )
    else:
        raise ValidationError("insider_kind", f"unknown insider kind {kind_txt!r}")

    tail = getattr(overrides, "n_steps_tail", None)
    if tail is None and ini.has_option("run", "n_steps_tail"):
        tail = scalar(int, "n_steps_tail", "run", "n_steps_tail")
    config = ScenarioConfig(
        market=market,
        insider=insider,
        robust=scalar(lambda text: _BOOLEANS[text.strip().lower()], "robust", "run", "robust"),
        n_steps=scalar(int, "n_steps", "run", "n_steps"),
        n_steps_tail=tail,
        n_paths=scalar(int, "n_paths", "run", "n_paths"),
        seed=scalar(int, "seed", "run", "seed"),
    )
    validate(config)
    return config


def _default_regime(config: ScenarioConfig) -> str:
    informed = config.insider.kind is InsiderKind.INITIAL_ENLARGEMENT
    if config.robust:
        return "small_insider_robust" if informed else "no_insider_robust"
    if informed:
        return "large_insider_nonrobust" if config.market.has_impact() else "small_insider_nonrobust"
    return "no_insider_nonrobust"


# -- subcommand handlers ---------------------------------------------------------
#
# Each takes the parsed flags and the loaded config and returns its exit code
# and the tables to write, {csv_name: (header, rows)}; main does the rest.


def _cmd_value(args, config: ScenarioConfig):
    insider = config.insider
    rows = []
    for kind in analysis.VALUE_KINDS:
        if kind in UNINFORMED_KINDS or insider.has_signal():
            b = analysis.value_of(kind, config.market, insider)
            cells = [""] * 5 if b is None else [b.base, b.merton, b.rent, b.penalty_adjust, b.total]
            rows.append([kind.value, *cells])
    return 0, {"values.csv": (["regime", "base", "merton", "rent", "penalty_adjust", "total"], rows)}


def _regime(args, config: ScenarioConfig, pi_factor: float = 1.0):
    """The regime, the market it trades in and its profile of a block of paths."""
    kind = StrategyKind(args.regime or _default_regime(config))
    market = market_for(kind, config.market)

    def profile_of(batch):
        profile = build_profile(kind, batch, market, config.insider)
        return profile if pi_factor == 1.0 else profile.scaled(pi_factor=pi_factor)

    return kind, market, profile_of


def _cmd_simulate(args, config: ScenarioConfig):
    kind, market, profile_of = _regime(args, config)
    j, ent = stream_game(config, profile_of, market, threads=args.threads)
    value = analysis.value_of(kind, market, config.insider)
    return 0, {
        "j_report.csv": (
            ["regime", "J_mean", "J_se", "n_paths", "n_steps", "seed", "analytic_value"],
            [[kind.value, j.mean, j.std_error, j.n_paths, config.n_steps, config.seed,
              "" if value is None else value.total]],
        ),
        "entropy_check.csv": (
            ["lhs_mean", "lhs_se", "rhs_mean", "rhs_se", "gap", "gap_se", "z"],
            [[ent.lhs_mean, ent.lhs_se, ent.rhs_mean, ent.rhs_se, ent.gap, ent.gap_se, ent.z]],
        ),
    }


def _cmd_martingale(args, config: ScenarioConfig):
    _, market, profile_of = _regime(args, config, pi_factor=args.perturb_pi)
    stats = stream_martingale(config, profile_of, market, threads=args.threads)
    rows = [[s.t, s.h, s.estimate, s.std_error, s.z] for s in stats]
    return 0, {"martingale.csv": (["t", "h", "estimate", "SE", "z"], rows)}


def _linear_report(sol, market: MarketParams):
    return (
        ["residual", "normalizer_mc", "Y0_mean", "X0"],
        [[sol.residual, sol.c if np.ndim(sol.c) == 0 else "", ordered_mean(sol.Y[:, 0]), market.X0]],
    )


def _quadratic_report(sol, pi_0: np.ndarray):
    """The value row; mean_abs_z is the mean over the knots of each knot's
    mean |Z|, and pi_0 the fraction at knot 0 on every path."""
    v, se = value_from_bsde(sol)
    mean_abs_z = ordered_mean(np.array([ordered_mean(np.abs(z)) for z in sol.Z.T]))
    return (
        ["value", "value_se", "residual", "mean_abs_z", "mean_pi_0"],
        [[v, se, sol.residual, mean_abs_z, ordered_mean(pi_0)]],
    )


def _cmd_bsde_linear(args, config: ScenarioConfig):
    paths = stream_sweep_paths(config, threads=args.threads)
    market, insider = config.market.without_impact(), config.insider
    sol = solve_linear_lsmc(paths, market, insider, basis_order=args.basis_order)
    # the solve is done with its input, so the oracle overwrites it knot by knot
    oracle = solve_linear_closed_form(paths, market, insider, out=(paths.level, paths.dWH))
    return 0, {
        "bsde_linear.csv": knot_table(sol, oracle),
        "bsde_linear_report.csv": _linear_report(sol, market),
    }


def _cmd_bsde_quadratic(args, config: ScenarioConfig):
    paths = stream_sweep_paths(config, threads=args.threads)
    market, insider = config.market, config.insider
    sol = solve_quadratic_lsmc(
        paths, market, insider, basis_order=args.basis_order, shoot_tol=args.shoot_tol
    )
    pi_0, _ = initial_controls(sol, market, paths, insider, StrategyKind.LARGE_INSIDER_ROBUST)
    return 0, {
        "bsde_quadratic.csv": knot_table(sol),
        "bsde_quadratic_trace.csv": (
            ["iteration", "c2", "residual", "L0_mean"],
            [[it, repr(c2), resid, l0] for it, c2, resid, l0 in sol.trace],
        ),
        "bsde_quadratic_value.csv": _quadratic_report(sol, pi_0),
    }


def _cmd_forward_check(args, config: ScenarioConfig):
    # the check ignores the coefficients; constant ones keep the grid uniform on [0, T]
    flat = replace(
        config,
        market=MarketParams(r=0.0, mu0=0.0, sigma=1.0, varrho=0.0, T=config.market.T, X0=1.0),
        insider=InsiderSpec.none(),
        n_steps=args.forward_steps,
        n_paths=args.forward_paths,
    )
    batch = sample_paths(flat, threads=args.threads)
    dt = float(batch.grid.dt[0])
    kind = TestIntegrand(args.integrand)
    return 0, {f"forward_{kind.value}.csv": convergence_table(batch.level, dt, kind, eps_steps_list=[8, 4, 2])}


def _cmd_critical_t0(args, config: ScenarioConfig):
    market = config.market.without_impact()
    t0_star = analysis.critical_T0(market)
    gap = (
        analysis.value_small_insider_robust(market, InsiderSpec.enlargement(T0=t0_star)).total
        - analysis.value_no_insider_nonrobust(market).total
    )
    return 0, {
        "critical_t0.csv": (
            ["mu", "sigma", "r", "T", "T0_star", "equation_gap"],
            [[market.mu0(0.0), market.sigma(0.0), market.r(0.0), market.T, t0_star, gap]],
        )
    }


def _cmd_figures(args, config: ScenarioConfig):
    market = config.market
    if args.fig_kind == "fig3" and args.mu is None:
        market = replace(market, mu0=PiecewiseConstant.constant(0.08))
    T = market.T
    if args.fig_kind in ("fig1", "fig3"):
        t0s = [x * T for x in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)]
        bsde_values = None
        if args.with_bsde:
            bsde_values = {}
            for t0 in t0s:
                cfg = replace(
                    config,
                    market=market,
                    insider=InsiderSpec.enlargement(T0=t0),
                    n_paths=args.bsde_paths,
                    n_steps=args.bsde_steps,
                )
                paths = stream_sweep_paths(cfg, threads=args.threads)
                sol = solve_quadratic_lsmc(paths, market, cfg.insider, shoot_tol=5e-3)
                bsde_values[t0] = value_from_bsde(sol)[0] - math.log(market.X0)
        table = analysis.fig_value_table(market, t0s, bsde_values)
    elif args.fig_kind == "fig2":
        mus = [0.10, 0.125, 0.15, 0.175, 0.20]
        sigmas = [0.25, 0.30, 0.35, 0.40, 0.45]
        table = analysis.fig_critical_table(market, mus, sigmas)
    else:  # strategy_lines
        config.insider.require_signal("strategy lines")
        w_values = [(-2.0 + 0.1 * i) for i in range(41)]
        table = analysis.strategy_line_table(
            market, config.insider, t=0.5 * T, w_values=w_values, y0=args.signal_level
        )
    return 0, {f"{args.fig_kind}.csv": table}


def _cmd_selftest(args, config: ScenarioConfig):
    rows = run_selftest(seed=config.seed)
    for name, ok, metric in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name} (metric={metric:.3e})")
    code = 0 if all(ok for _, ok, _ in rows) else 1
    return code, {"selftest.csv": (["check", "passed", "metric"], [list(row) for row in rows])}


# -- parser ------------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="INI config file with [market]/[insider]/[run] sections")
    p.add_argument("--out", default=None, help="output directory (default $INSIDERLAB_OUT or ./out)")
    p.add_argument("--threads", type=int, default=1, help="worker threads over the 4096-path RNG blocks, each of which draws and decomposes its paths; simulate and martingale also evaluate the strategy there, while the LSMC sweep of bsde-* runs on one thread; results do not depend on it")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit integer)")
    p.add_argument("--n-paths", dest="n_paths", type=int, default=None, help="Monte-Carlo ensemble size")
    p.add_argument("--n-steps", dest="n_steps", type=int, default=None, help="grid steps on [0, T]")
    p.add_argument("--n-steps-tail", dest="n_steps_tail", type=int, default=None, help="extra steps on (T, T0]")
    p.add_argument("--mu", type=float, default=None, help="base drift mu0 (1/time), overrides config")
    p.add_argument("--sigma", type=float, default=None, help="volatility (1/sqrt(time)), overrides config")
    p.add_argument("--r", type=float, default=None, help="risk-free rate (1/time), overrides config")
    p.add_argument("--varrho", type=float, default=None, help="price-impact coefficient (1/time)")
    p.add_argument("--T", type=float, default=None, help="trading horizon (time)")
    p.add_argument("--x0", type=float, default=None, help="initial wealth (currency)")
    p.add_argument("--t0", type=float, default=None, help="information horizon T0 > T (time)")
    p.add_argument("--phi", type=str, default=None, help="signal weight, constant or 't:v' pairs")
    p.add_argument("--kind", type=str, default=None, help="insider kind: none | enlargement")
    p.add_argument("--robust", type=str, default=None, help="model uncertainty on/off: true/false, yes/no, on/off or 1/0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="insiderlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", parents=[], help="analytic value decomposition per regime")
    _add_common(p)
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("simulate", help="Monte-Carlo game functional J for one regime")
    _add_common(p)
    p.add_argument("--regime", choices=_REGIME_CHOICES, default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("martingale", help="density-weighted martingale increments")
    _add_common(p)
    p.add_argument("--regime", choices=_REGIME_CHOICES, default=None)
    p.add_argument("--perturb-pi", dest="perturb_pi", type=float, default=1.0,
                   help="scale factor on pi for negative controls")
    p.set_defaults(handler=_cmd_martingale)

    p = sub.add_parser("bsde-linear", help="linear backward solver vs closed form")
    _add_common(p)
    p.add_argument("--basis-order", dest="basis_order", type=int, default=3)
    p.set_defaults(handler=_cmd_bsde_linear)

    p = sub.add_parser("bsde-quadratic", help="quadratic backward solver with shooting")
    _add_common(p)
    p.add_argument("--basis-order", dest="basis_order", type=int, default=3)
    p.add_argument("--shoot-tol", dest="shoot_tol", type=float, default=1e-3)
    p.set_defaults(handler=_cmd_bsde_quadratic)

    p = sub.add_parser("forward-check", help="forward-integral convergence tables")
    _add_common(p)
    p.add_argument("--integrand", choices=[k.value for k in TestIntegrand], default="wt")
    p.add_argument("--forward-steps", dest="forward_steps", type=int, default=4096)
    p.add_argument("--forward-paths", dest="forward_paths", type=int, default=2000)
    p.set_defaults(handler=_cmd_forward_check)

    p = sub.add_parser("critical-t0", help="horizon where robust informed = neutral uninformed")
    _add_common(p)
    p.set_defaults(handler=_cmd_critical_t0)

    p = sub.add_parser("figures", help="CSV series behind the standard figures")
    _add_common(p)
    p.add_argument("--fig-kind", dest="fig_kind",
                   choices=["fig1", "fig2", "fig3", "strategy_lines"], default="fig1")
    p.add_argument("--with-bsde", dest="with_bsde", action="store_true",
                   help="add the numerically solved robust large-trader series")
    p.add_argument("--bsde-paths", dest="bsde_paths", type=int, default=20000)
    p.add_argument("--bsde-steps", dest="bsde_steps", type=int, default=50)
    p.add_argument("--signal-level", dest="signal_level", type=float, default=1.0,
                   help="fixed W_T0 for strategy lines")
    p.set_defaults(handler=_cmd_figures)

    p = sub.add_parser("selftest", help="run the invariant suite; nonzero exit on failure")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else os.environ.get("INSIDERLAB_OUT", "out")
    start = time.time()
    try:
        config = load_config(args.config, args)
        code, tables = args.handler(args, config)
    except (ValidationError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (ShootingError, RegressionError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    outputs = [write_csv(os.path.join(out_dir, name), header, rows)
               for name, (header, rows) in tables.items()]
    wall = time.time() - start
    print(f"command={args.command}")
    print(f"config={echo_config(config)}")
    print(f"seed={config.seed}")
    for path in outputs:
        print(f"output={path}")
    print(f"wall_time_s={wall:.3f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
