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
    KNOT_HEADER,
    RegressionError,
    initial_controls,
    knot_table,
    require_gaussian_oracle,
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    stream_horizon_paths,
    stream_sweep_paths,
    value_from_bsde,
)
from .anticipating import EPS_STEPS, TestIntegrand, convergence_table
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
    parts += [f"robust={str(config.robust).lower()}", f"n_steps={config.n_steps}",
              f"n_paths={config.n_paths}", f"seed={config.seed}"]
    return " ".join(parts)


def _reject_unknown_keys(ini: configparser.ConfigParser, path: str) -> None:
    """A section or key that load_config does not read would otherwise be
    dropped without notice, e.g. a misspelt `n_step`."""
    unknown = [f"section [{section}]" for section in ini.sections() if section not in _DEFAULTS]
    unknown += [f"key {key!r} in [{section}]" for section, keys in _DEFAULTS.items()
                for key in ini.options(section) if key not in {k.lower() for k in keys}]
    if unknown:
        raise ValidationError("config_key", f"{path}: unknown {', '.join(unknown)}")


def load_config(path: str | None, overrides: argparse.Namespace) -> ScenarioConfig:
    """Merge defaults <- config file <- command-line flags (flags win)."""
    # no default section: a file's [DEFAULT] is then one more unknown section
    ini = configparser.ConfigParser(default_section="")
    ini.read_dict(_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ValidationError("config_missing", f"no such config file: {path}")
        try:
            ini.read(path)
        except configparser.Error as exc:
            raise ValidationError("config_syntax", f"{path}: {exc}") from None
        _reject_unknown_keys(ini, path)

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

    config = ScenarioConfig(
        market=market,
        insider=insider,
        robust=scalar(lambda text: _BOOLEANS[text.strip().lower()], "robust", "run", "robust"),
        n_steps=scalar(int, "n_steps", "run", "n_steps"),
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
            rows.append([kind.value, b.base, b.merton, b.rent, b.penalty_adjust, b.total])
    return 0, {"values.csv": (["regime", "base", "merton", "rent", "penalty_adjust", "total"], rows)}


def _regime(args, config: ScenarioConfig, pi_factor: float = 1.0):
    """The regime, the market it trades in and its profile of a tile of paths,
    built in the stream's rows `out`."""
    kind = StrategyKind(args.regime or _default_regime(config))
    market = market_for(kind, config.market)

    def profile_of(batch, out):
        profile = build_profile(kind, batch, market, config.insider, out)
        return profile if pi_factor == 1.0 else profile.scaled(pi_factor=pi_factor)

    return kind, market, profile_of


def _cmd_simulate(args, config: ScenarioConfig):
    kind, market, profile_of = _regime(args, config)
    value = analysis.value_of(kind, market, config.insider).total  # before the paths: it may not exist
    j, ent = stream_game(config, profile_of, market, threads=args.threads)
    return 0, {
        "j_report.csv": (
            ["regime", "J_mean", "J_se", "n_paths", "n_steps", "seed", "analytic_value"],
            [[kind.value, j.mean, j.std_error, j.n_paths, config.n_steps, config.seed, value]],
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
    """The report row.  normalizer_mc is E[sqrt Pi(0,T)] without a signal:
    no longer a Monte-Carlo mean but the exact value of the grid's
    left-point sum (0 once it underflows); the column keeps its name, which
    perfbench's checks read.  It is blank under a signal, where the
    normaliser is the per-path Gaussian closed form."""
    return (
        ["residual", "normalizer_mc", "Y0_mean", "X0"],
        [[sol.residual, sol.c if np.ndim(sol.c) == 0 else "", sol.y0_mean, market.X0]],
    )


def _quadratic_report(sol, abs_z_means, pi_0: np.ndarray):
    """The value row; mean_abs_z is the mean over the knots of each knot's
    mean |Z| (abs_z_means), and pi_0 the fraction at knot 0 on every path."""
    v, se = value_from_bsde(sol)
    return (
        ["value", "value_se", "residual", "mean_abs_z", "mean_pi_0"],
        [[v, se, sol.residual, ordered_mean(np.array(abs_z_means)), ordered_mean(pi_0)]],
    )


def _cmd_bsde_linear(args, config: ScenarioConfig):
    market, insider = config.market.without_impact(), config.insider
    require_gaussian_oracle(market, insider)  # before any path is drawn
    paths = stream_sweep_paths(config, threads=args.threads)
    oracle = solve_linear_closed_form(paths, market)
    knots = paths.grid.knots
    rows = []

    def reduce(i, y, z, work):  # the oracle's Y and Z and knot_table's row go to the sweep's work rows
        rows.append(knot_table(knots[i], y, z, oracle(i, work[:2]), work[2]))

    sol = solve_linear_lsmc(paths, market, reduce)
    return 0, {
        "bsde_linear.csv": (KNOT_HEADER, rows[::-1]),
        "bsde_linear_report.csv": _linear_report(sol, market),
    }


def _cmd_bsde_quadratic(args, config: ScenarioConfig):
    paths = stream_sweep_paths(config, threads=args.threads)
    market = config.market
    m = paths.grid.index_T
    mean_y, mean_z, abs_z_means = {}, {}, []

    def reduce(i, l, z, work):
        row = work[0]  # every sort of the reductions, and |Z|
        if 0 < i < m:  # the swept row; knots 0 and m are shot by the solver
            mean_y[i] = ordered_mean(l, row)
        if z is not None:
            mean_z[i] = ordered_mean(z, row)
            abs_z_means.append(ordered_mean(np.abs(z, out=row), row))

    sol = solve_quadratic_lsmc(paths, market, reduce)
    pi_0, _ = initial_controls(sol, market, paths)
    mean_shift = ordered_mean(sol.shift)
    mean_y = {i: mean - mean_shift for i, mean in mean_y.items()} | {0: sol.y0_mean, m: ordered_mean(sol.y_T)}
    rows = [[float(t), mean_y[i], mean_z.get(i, ""), "", "", ""] for i, t in enumerate(paths.grid.knots)]
    return 0, {
        "bsde_quadratic.csv": (KNOT_HEADER, rows),
        "bsde_quadratic_trace.csv": (
            ["iteration", "c2", "residual", "L0_mean"],
            [[it, repr(c2), resid, l0] for it, c2, resid, l0 in sol.trace],
        ),
        "bsde_quadratic_value.csv": _quadratic_report(sol, abs_z_means, pi_0),
    }


def _cmd_forward_check(args, config: ScenarioConfig):
    # constant coefficients keep the grid uniform; unit iota makes the no-signal state W_t
    flat = replace(
        config,
        market=MarketParams(r=0.0, mu0=1.0, sigma=1.0, varrho=0.0, T=config.market.T, X0=1.0),
        insider=InsiderSpec.none(),
        n_steps=args.forward_steps,
        n_paths=args.forward_paths,
    )
    batch = sample_paths(flat, threads=args.threads)
    dt = float(batch.grid.dt[0])
    kind = TestIntegrand(args.integrand)
    return 0, {f"forward_{kind.value}.csv": convergence_table(batch.level, dt, kind)}


def _cmd_critical_t0(args, config: ScenarioConfig):
    market, weight = config.market.without_impact(), config.insider.phi_weight
    t0_star = analysis.critical_T0(market, weight)
    gap = analysis.horizon_gap(market, weight)(t0_star)
    return 0, {
        "critical_t0.csv": (
            ["mu", "sigma", "r", "T", "T0_star", "equation_gap"],
            [[market.mu0(0.0), market.sigma(0.0), market.r(0.0), market.T, t0_star, gap]],
        )
    }


def _cmd_figures(args, config: ScenarioConfig):
    market, weight = config.market, config.insider.phi_weight
    T = market.T
    if args.fig_kind in ("fig1", "fig3"):
        t0s = [x * T for x in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)]
        bsde_values = None
        if args.with_bsde:  # one ensemble for all horizons; the sweep validates each horizon's config
            sweep = replace(config, n_paths=args.bsde_paths, n_steps=args.bsde_steps)
            ln_x0 = math.log(market.X0)
            bsde_values = {t0: value_from_bsde(solve_quadratic_lsmc(paths, market))[0] - ln_x0
                           for t0, paths in zip(t0s, stream_horizon_paths(sweep, t0s, threads=args.threads))}
        else:  # a horizon whose weight has no mass on [T, T0] is phi_tail_norm, not value_finite
            for t0 in t0s:
                validate(replace(config, insider=InsiderSpec.enlargement(T0=t0, phi_weight=weight)))
        table = analysis.fig_value_table(market, t0s, bsde_values, weight)
    elif args.fig_kind == "fig2":
        mus = [0.10, 0.125, 0.15, 0.175, 0.20]
        sigmas = [0.25, 0.30, 0.35, 0.40, 0.45]
        table = analysis.fig_critical_table(market, mus, sigmas, weight)
    else:  # strategy_lines
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
    p.add_argument("--threads", type=int, default=1, help="worker threads over the 4096-path RNG blocks: simulate and martingale draw each block's paths in L2-sized tiles there, decompose them and evaluate the strategy on each tile; bsde-* draw each block's coarse checkpoints there, while their chunk fills and LSMC sweep run on one thread; results do not depend on it")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (64-bit integer)")
    p.add_argument("--n-paths", dest="n_paths", type=int, default=None, help="Monte-Carlo ensemble size")
    p.add_argument("--n-steps", dest="n_steps", type=int, default=None, help="grid steps on [0, T]")
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
    p.set_defaults(handler=_cmd_bsde_linear)

    p = sub.add_parser("bsde-quadratic", help="quadratic backward solver: one sweep from ln X0, then the exact terminal shot")
    _add_common(p)
    p.set_defaults(handler=_cmd_bsde_quadratic)

    p = sub.add_parser("forward-check", help="forward-integral convergence tables")
    _add_common(p)
    p.add_argument("--integrand", choices=[k.value for k in TestIntegrand], default="wt")
    p.add_argument("--forward-steps", dest="forward_steps", type=int, default=4096,
                   help="uniform grid steps on [0, T] of the convergence tables, more than the widest window of 8 steps")
    p.add_argument("--forward-paths", dest="forward_paths", type=int, default=2000,
                   help="Monte-Carlo paths of the convergence tables")
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
    p.add_argument("--bsde-paths", dest="bsde_paths", type=int, default=20000,
                   help="Monte-Carlo paths of the one ensemble that --with-bsde solves at every horizon")
    p.add_argument("--bsde-steps", dest="bsde_steps", type=int, default=50,
                   help="grid steps on [0, T] of the --with-bsde ensemble")
    p.add_argument("--signal-level", dest="signal_level", type=float, default=1.0,
                   help="fixed signal Y0 (W_T0 for unit weight) for strategy lines")
    p.set_defaults(handler=_cmd_figures)

    p = sub.add_parser("selftest", help="run the invariant suite; nonzero exit on failure")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _check_flags(args) -> None:
    """The range checks of the flags that are not part of the config."""
    if args.threads < 1:
        raise ValidationError("threads_min", f"need --threads >= 1, got {args.threads}")
    if not math.isfinite(getattr(args, "signal_level", 0.0)):
        raise ValidationError("signal_level_finite", f"need a finite --signal-level, got {args.signal_level}")
    # every window of the convergence table must fit inside [0, T]
    if getattr(args, "forward_steps", EPS_STEPS[0] + 1) <= EPS_STEPS[0]:
        raise ValidationError("forward_steps_min", f"need --forward-steps > {EPS_STEPS[0]}, "
                              f"the widest window in steps, got {args.forward_steps}")
    # the flags that stand in for n_paths and n_steps of the config, with its minima
    for flag, least in (("forward_paths", 1), ("bsde_paths", 1), ("bsde_steps", 2)):
        if getattr(args, flag, least) < least:
            name = flag.replace("_", "-")
            raise ValidationError(f"{flag}_min", f"need --{name} >= {least}, got {getattr(args, flag)}")


def _missing_dirs(path: str) -> list[str]:
    """The directories on the way to path that do not exist yet, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else os.environ.get("INSIDERLAB_OUT", "out")
    start = time.time()
    made, code = [], 1  # the directories this run creates for out_dir; the exit code so far
    if getattr(args, "fig_kind", None) == "fig3" and args.mu is None:
        args.mu = 0.08  # fig3 is drawn at mu0 = 0.08 unless --mu says otherwise, and echoed so
    try:
        config = load_config(args.config, args)
        _check_flags(args)
        made = _missing_dirs(out_dir)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError("out_dir", f"cannot create output directory {out_dir}: {exc}") from None
        code, tables = args.handler(args, config)
    except (ValidationError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
    except RegressionError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        code = 2
    finally:
        if code != 0:  # the one failure path: no CSV is written, and no directory made is left
            for path in made:
                try:
                    os.rmdir(path)
                except OSError:  # no longer empty, or never made
                    pass
    if code != 0:
        return code
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
