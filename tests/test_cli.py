import argparse
import contextlib
import csv
import io
import math
import os
import pathlib
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from insiderlab import analysis, bsde
from insiderlab.bsde import RegressionError, solve_quadratic_lsmc, stream_horizon_paths, stream_sweep_paths
from insiderlab.cli import _build_parser, echo_config, load_config, main, parse_piecewise
from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
)
from insiderlab.strategies import StrategyKind, pi_insider_nonrobust, pi_small_insider_robust

BASE_CFG = """
[market]
r = 0.0
mu0 = 0.15
sigma = 0.35
varrho = 0.0
T = 1.0
X0 = 1.0

[insider]
kind = enlargement
T0 = 2.0
phi = 1.0

[run]
robust = true
n_steps = 20
n_paths = 2000
seed = 4711
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def run(argv):
    return main(argv)


def read_table(path):
    return list(csv.DictReader(io.StringIO(path.read_text())))


# the horizons T0 of fig1 and fig3, as multiples of T
FIG_T0_MULTIPLES = [1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0]

# the INI section of every key echo_config writes
SECTION = {
    **dict.fromkeys(("r", "mu0", "sigma", "varrho", "T", "X0"), "market"),
    **dict.fromkeys(("kind", "T0", "phi"), "insider"),
    **dict.fromkeys(("robust", "n_steps", "n_paths", "seed"), "run"),
}


def load_echo(echo: str, directory) -> ScenarioConfig:
    """The config that an echo_config line reads back to, through an INI file."""
    sections = {}
    for token in echo.split():
        key, value = token.split("=", 1)
        sections.setdefault(SECTION[key], []).append(f"{key} = {value}")
    path = os.path.join(directory, "echo.cfg")
    with open(path, "w") as fh:
        fh.write("".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items()))
    return load_config(path, argparse.Namespace())


def step_functions(lo, hi):
    """Piecewise-constant functions with up to three breakpoints in (0, 3)."""
    return st.lists(st.floats(1e-3, 3.0), unique=True, max_size=3).flatmap(
        lambda bps: st.lists(st.floats(lo, hi), min_size=len(bps) + 1, max_size=len(bps) + 1).map(
            lambda vals: PiecewiseConstant((0.0, *sorted(bps)), vals)
        )
    )


@st.composite
def scenarios(draw):
    """Valid configs: sigma >= 0.1 keeps varrho <= 0.004 below sigma^2/2."""
    T = draw(st.floats(0.1, 3.0))
    market = MarketParams(
        r=draw(step_functions(-0.05, 0.05)),
        mu0=draw(step_functions(-0.2, 0.4)),
        sigma=draw(step_functions(0.1, 1.0)),
        varrho=draw(step_functions(0.0, 0.004)),
        T=T,
        X0=draw(st.floats(0.01, 100.0)),
    )
    insider = draw(st.just(InsiderSpec.none()) | step_functions(0.5, 2.0).flatmap(
        lambda phi: st.floats(0.01, 3.0).map(
            lambda gap: InsiderSpec.enlargement(T0=T + gap, phi_weight=phi))))
    return ScenarioConfig(
        market=market,
        insider=insider,
        robust=draw(st.booleans()),
        n_steps=draw(st.integers(2, 10**6)),
        n_paths=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestConfigParsing:
    def test_parse_piecewise_constant(self):
        fn = parse_piecewise("0.35")
        assert fn.values == (0.35,)

    def test_parse_piecewise_pairs(self):
        fn = parse_piecewise("0:0.3, 0.5:0.45")
        assert fn == PiecewiseConstant((0.0, 0.5), (0.3, 0.45))

    def test_file_values_loaded(self, cfg_file):
        class Blank:
            pass

        cfg = load_config(cfg_file, Blank())
        assert cfg.n_paths == 2000
        assert cfg.seed == 4711
        assert cfg.insider.T0 == 2.0

    def test_flags_override_file(self, cfg_file):
        class Flags:
            seed = 99
            n_paths = 10
            mu = 0.08

        cfg = load_config(cfg_file, Flags())
        assert cfg.seed == 99
        assert cfg.n_paths == 10
        assert cfg.market.mu0(0.0) == 0.08
        assert cfg.market.sigma(0.0) == 0.35  # untouched

    @settings(max_examples=100, deadline=None)
    @given(config=scenarios())
    def test_echo_round_trips_through_a_config_file(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            assert load_echo(echo_config(config), tmp) == config

    @pytest.mark.parametrize("text, robust", [("TRUE", True), ("Yes", True), ("on", True),
                                              ("1", True), ("False", False), ("NO", False),
                                              ("off", False), ("0", False)])
    def test_robust_spellings(self, cfg_file, text, robust):
        assert load_config(cfg_file, argparse.Namespace(robust=text)).robust is robust

    @settings(max_examples=100, deadline=None)
    @given(section=st.sampled_from(["market", "insider", "run"]) | st.from_regex(r"[A-Za-z_]\w{0,11}", fullmatch=True),
           key=st.from_regex(r"[A-Za-z_]\w{0,11}", fullmatch=True))
    def test_unknown_section_or_key_rejected(self, section, key):
        # a key load_config does not read is an error, whether it sits in a
        # known section, an unknown one or [DEFAULT]
        if key.lower() in {k.lower() for k, sec in SECTION.items() if sec == section}:
            key += "_x"
        line = f"{key} = 1\n"
        if f"[{section}]\n" in BASE_CFG:
            text = BASE_CFG.replace(f"[{section}]\n", f"[{section}]\n{line}")
        else:
            text = BASE_CFG + f"[{section}]\n{line}"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "extra.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            with pytest.raises(ValidationError) as exc:
                load_config(path, argparse.Namespace())
        assert exc.value.code == "config_key"

    def test_missing_file_rejected(self):
        class Blank:
            pass

        with pytest.raises(ValidationError):
            load_config("/nonexistent/x.cfg", Blank())

    @pytest.mark.parametrize(
        "command, flags, cfg_text, code",
        [
            ("value", ["--phi", "0:1,0.5"], None, "piecewise_syntax"),
            ("value", ["--phi", "abc"], None, "piecewise_syntax"),
            ("value", [], BASE_CFG.replace("sigma = 0.35", "sigma ="), "piecewise_syntax"),
            ("value", [], BASE_CFG.replace("T = 1.0", "T = one"), "config_value"),
            ("value", [], "r = 0.0\nsigma = 0.35\n", "config_syntax"),
            ("value", ["--robust", "ture"], None, "config_value"),
            ("value", [], BASE_CFG.replace("n_steps = 20", "n_step = 50"), "config_key"),
            ("value", ["--phi", "1e200"], None, "phi_norm_finite"),
            ("value", ["--phi", "0:1,1.5:-1e200"], None, "phi_norm_finite"),
            ("figures", ["--fig-kind", "strategy_lines", "--signal-level", "inf"], None,
             "signal_level_finite"),
            ("figures", ["--fig-kind", "strategy_lines", "--signal-level", "nan"], None,
             "signal_level_finite"),
            ("forward-check", ["--forward-steps", "2"], None, "forward_steps_min"),
            ("forward-check", ["--forward-steps", "8"], None, "forward_steps_min"),
            ("forward-check", ["--forward-paths", "0"], None, "forward_paths_min"),
            ("figures", ["--with-bsde", "--bsde-paths", "0"], None, "bsde_paths_min"),
            ("figures", ["--with-bsde", "--bsde-steps", "1"], None, "bsde_steps_min"),
            ("value", [], BASE_CFG + "n_steps_tail = 7\n", "config_key"),
            ("value", [], BASE_CFG + "[markt]\nr = 0.0\n", "config_key"),
            ("value", [], "[DEFAULT]\nseed = 3\n" + BASE_CFG, "config_key"),
            ("simulate", ["--regime", "small_insider_robust", "--kind", "none"], None, "signal_required"),
            ("simulate", ["--regime", "small_insider_nonrobust", "--kind", "none"], None, "signal_required"),
            ("figures", ["--fig-kind", "strategy_lines", "--kind", "none"], None, "signal_required"),
            ("value", ["--kind", "bogus"], None, "insider_kind"),
            ("martingale", ["--perturb-pi", "nan"], None, "profile_finite"),
            # valid input whose game kernels or reductions overflow, refused
            # without a RuntimeWarning (an error under pytest's filterwarnings)
            ("martingale", ["--perturb-pi", "1e308", "--n-paths", "200", "--n-steps", "10"], None,
             "profile_finite"),
            ("simulate", ["--mu", "1e100", "--n-paths", "200", "--n-steps", "10"], None, "estimate_finite"),
            ("martingale", ["--mu", "1e160", "--n-paths", "200", "--n-steps", "10"], None, "estimate_finite"),
            # uniform steps within the knot-merge tolerance, refused where the grid is built
            ("simulate", ["--T", "1e-9", "--n-steps", "2000"], None, "grid_step_min"),
            ("forward-check", ["--T", "1e-300"], None, "grid_step_min"),
            ("bsde-linear", ["--T", "1e-12", "--n-steps", "2"], None, "grid_step_min"),
        ],
    )
    def test_malformed_input_exits_one_with_code(self, tmp_path, capsys, command, flags, cfg_text, code):
        argv = [command, "--out", str(tmp_path / "out"), *flags]
        if cfg_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(cfg_text)
            argv += ["--config", str(path)]
        assert run(argv) == 1
        assert f"validation error: {code}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["value", "--t0", "1e160"],
        ["value", "--mu", "1e160"],
        ["simulate", "--t0", "1e160"],
        ["figures", "--fig-kind", "fig1", "--T", "1e160", "--t0", "1e161"],
        ["critical-t0", "--T", "1e152", "--t0", "2e152"],
        # the uninformed reference column without impact overflows first
        pytest.param(["figures", "--fig-kind", "fig1", "--mu", "1e200"], id="figures-fig1-mu"),
        pytest.param(["figures", "--fig-kind", "fig3", "--mu", "1e200"], id="figures-fig3-mu"),
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_unrepresentable_value_exits_one_with_code(self, tmp_path, capsys, argv):
        # valid input whose closed-form value overflows a float; found once the
        # command runs, after the output directories exist, which are removed again
        assert run([*argv, "--out", str(tmp_path / "out" / "sub")]) == 1
        assert "validation error: value_finite:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["bsde-linear", "--kind", "none", "--mu", "20", "--n-paths", "20000", "--n-steps", "50"],
                     id="linear-mu-20"),
        # informed, so the per-knot enlargement oracle meets the non-finite rows
        pytest.param(["bsde-linear", "--mu", "20", "--n-paths", "20000", "--n-steps", "50", "--seed", "1"],
                     id="informed-linear-mu-20"),
        pytest.param(["bsde-quadratic", "--mu", "1e120", "--n-paths", "20000", "--n-steps", "50"],
                     id="quadratic-mu-1e120"),
        # the exact normaliser underflows to 0, and exp of the terminal overflows
        pytest.param(["bsde-linear", "--kind", "none", "--mu", "30", "--n-paths", "2000", "--n-steps", "10"],
                     id="linear-mu-30-normaliser"),
        # the square of the state overflows: the regression's Gram matrix is not finite
        pytest.param(["bsde-quadratic", "--kind", "none", "--mu", "1e200", "--n-paths", "2000", "--n-steps", "10"],
                     id="quadratic-mu-1e200-gram"),
    ])
    def test_non_finite_lsmc_solution_exits_one_with_code(self, tmp_path, capsys, argv):
        # valid markets whose backward solve overflows; a warning on the way
        # would fail the test, as -W error::RuntimeWarning fails the command
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("validation error: solution_finite:")
        assert not (tmp_path / "out").exists()

    def test_uninformed_linear_at_large_iota_is_refused_or_meets_its_gate(self, tmp_path):
        out = tmp_path / "out"
        code = run(["bsde-linear", "--kind", "none", "--mu", "10", "--n-paths", "20000", "--n-steps", "50",
                    "--out", str(out)])
        if code != 1:
            report = read_table(out / "bsde_linear_report.csv")[0]
            assert abs(float(report["Y0_mean"]) - float(report["X0"])) <= 0.01 * float(report["X0"])

    @pytest.mark.parametrize("argv, code", [
        # 1 path cannot fit the regression basis: exit 2
        (["bsde-linear", "--n-paths", "1", "--n-steps", "5"], 2),
        (["selftest"], 1),
    ], ids=["non-convergence", "failed-selftest"])
    def test_every_failed_run_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch,
                                                              argv, code):
        monkeypatch.setattr("insiderlab.cli.run_selftest", lambda seed: [("stub", False, 1.0)])
        assert run([*argv, "--out", str(tmp_path / "new" / "sub")]) == code
        assert list(tmp_path.iterdir()) == []

    def test_a_crash_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def crash(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr("insiderlab.cli._cmd_value", crash)
        with pytest.raises(RuntimeError):
            run(["value", "--out", str(tmp_path / "new" / "sub")])
        assert list(tmp_path.iterdir()) == []

    def test_failed_command_keeps_an_existing_out(self, tmp_path, capsys):
        (tmp_path / "keep").write_text("keep")
        assert run(["value", "--t0", "1e160", "--out", str(tmp_path)]) == 1
        assert "validation error: value_finite:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["keep"]

    @pytest.mark.parametrize("flags, mu0, code", [
        (["--phi", "0:1,0.5:3"], "0.15", "unsupported_phi"),
        # unit weight on [T, T0] too: the normaliser's v = T0 - T assumes it there
        (["--phi", "0:1,1.5:2"], "0.15", "unsupported_phi"),
        ([], "0:0.15, 0.5:0.2", "constant_required"),
    ])
    def test_bsde_linear_oracle_preconditions_before_any_path(self, tmp_path, capsys, monkeypatch,
                                                               flags, mu0, code):
        path = tmp_path / "base.cfg"
        path.write_text(BASE_CFG.replace("mu0 = 0.15", f"mu0 = {mu0}"))
        flags = ["--config", str(path), *flags]
        monkeypatch.setattr("insiderlab.cli.stream_sweep_paths", lambda *a, **k: pytest.fail("drew paths"))
        assert run(["bsde-linear", *flags, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {code}:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, mu0", [
        (["--phi", "0:1,1.5:1"], "0.15"),  # unit weight written as two pieces
        (["--phi", "0:1,2.5:7"], "0.15"),  # weight 1 on all of [0, T0 = 2]
        ([], "0:0.15, 0.5:0.15"),  # one value of mu0 written as two pieces
    ])
    def test_bsde_linear_oracle_reads_values_not_how_they_are_written(self, tmp_path, flags, mu0):
        # the same solve as at unit weight and constant mu0: the same report,
        # and the knot table within rounding of it
        outputs = []
        for name, cfg, extra in (("unit", BASE_CFG, []),
                                 ("written", BASE_CFG.replace("mu0 = 0.15", f"mu0 = {mu0}"), flags)):
            (tmp_path / f"{name}.cfg").write_text(cfg)
            out = tmp_path / name
            assert run(["bsde-linear", "--config", str(tmp_path / f"{name}.cfg"), *extra, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_text() for p in sorted(out.iterdir())})
        unit, written = outputs
        assert sorted(written) == sorted(unit) == ["bsde_linear.csv", "bsde_linear_report.csv"]
        assert written["bsde_linear_report.csv"] == unit["bsde_linear_report.csv"]
        tables = [list(csv.reader(io.StringIO(o["bsde_linear.csv"]))) for o in outputs]
        assert tables[1][0] == tables[0][0] and len(tables[1]) == len(tables[0])
        for got, expect in zip(tables[1][1:], tables[0][1:]):
            assert [c == "" for c in got] == [c == "" for c in expect]
            assert [float(c) for c in got if c] == pytest.approx([float(c) for c in expect if c], rel=1e-14, abs=0)

    @pytest.mark.parametrize("command", [["simulate", "--regime", "small_insider_robust"], ["bsde-linear"]],
                             ids=["simulate", "bsde-linear"])
    def test_one_value_written_as_two_pieces_writes_the_bytes_of_the_constant(self, tmp_path, command):
        # a breakpoint whose two sides agree adds no knot, so the grid, the
        # draw and every CSV are those of the constant
        outputs, pieces = [], BASE_CFG.replace("mu0 = 0.15", "mu0 = 0:0.15, 0.37:0.15")
        for name, cfg in (("constant", BASE_CFG), ("pieces", pieces)):
            (tmp_path / f"{name}.cfg").write_text(cfg)
            out = tmp_path / name
            assert run([*command, "--config", str(tmp_path / f"{name}.cfg"), "--n-paths", "20000", "--n-steps", "50",
                        "--seed", "1", "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("old, new", [("mu0 = 0.15", "mu0 = 0:0.15, 1.5:0.2"),
                                          ("sigma = 0.35", "sigma = 0:0.35, 1:0.4")])
    def test_bsde_linear_oracle_reads_only_the_coefficients_on_0_T(self, tmp_path, old, new):
        # breakpoints at or beyond T = 1 leave the coefficients constant on [0, T]
        outputs = []
        for name, cfg in (("constant", BASE_CFG), ("beyond", BASE_CFG.replace(old, new))):
            (tmp_path / f"{name}.cfg").write_text(cfg)
            out = tmp_path / name
            assert run(["bsde-linear", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == ["bsde_linear.csv", "bsde_linear_report.csv"]


def _arg(flag, value):
    """`--flag=value`, so a negative value is not read as an option."""
    return f"--{flag}={value!r}"


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# (flag, code) pairs that validate must reject; the defaults are T = 1, T0 = 2,
# sigma = 0.35 (so varrho must stay below 0.06125) and unit signal weight
INVALID_INPUTS = st.one_of(
    st.integers(max_value=1).map(lambda n: (_arg("n-steps", n), "n_steps_min")),
    st.integers(max_value=0).map(lambda n: (_arg("n-paths", n), "n_paths_min")),
    st.integers(max_value=0).map(lambda n: (_arg("threads", n), "threads_min")),
    (st.integers(max_value=-1) | st.integers(min_value=2**64)).map(
        lambda s: (_arg("seed", s), "seed_range")),
    _finite(max_value=1.0).map(lambda t0: (_arg("t0", t0), "t0_after_horizon")),
    _finite(min_value=2.0).map(lambda T: (_arg("T", T), "t0_after_horizon")),
    st.sampled_from([math.nan, math.inf, -math.inf]).map(lambda t0: (_arg("t0", t0), "t0_required")),
    (st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])).map(
        lambda T: (_arg("T", T), "horizon_positive")),
    (st.floats(max_value=0.0) | st.just(math.nan)).map(lambda x0: (_arg("x0", x0), "wealth_positive")),
    _finite(max_value=1e-6, exclude_max=True).map(lambda s: (_arg("sigma", s), "sigma_floor")),
    (_finite(max_value=0.0, exclude_max=True) | _finite(min_value=0.06125)).map(
        lambda v: (_arg("varrho", v), "varrho_range")),
    st.sampled_from(["r", "mu", "sigma", "varrho"]).flatmap(
        lambda name: st.sampled_from([math.nan, math.inf, -math.inf]).map(
            lambda v: (_arg(name, v), "coefficient_bounded"))),
    _finite(min_value=-1e100, max_value=1e100).map(lambda w: (f"--phi=0:{w!r},1:0", "phi_tail_norm")),
    st.sampled_from([math.nan, math.inf]).map(lambda w: (_arg("phi", w), "phi_bounded")),
    # finite weights whose square overflows: ||phi_w||^2 on [0, T0] is infinite
    (_finite(min_value=1e155) | _finite(max_value=-1e155)).map(
        lambda w: (_arg("phi", w), "phi_norm_finite")),
    # T / 200 default steps within the 1e-12 knot tolerance
    st.floats(min_value=0.0, max_value=1e-10, exclude_min=True).map(lambda T: (_arg("T", T), "grid_step_min")),
)


class TestExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(invalid=INVALID_INPUTS,
           command=st.sampled_from(["value", "simulate", "martingale", "bsde-linear", "critical-t0"]))
    def test_invalid_input_gives_its_code_and_exit_one(self, invalid, command):
        flag, code = invalid
        assume(code != "grid_step_min" or command not in ("value", "critical-t0"))  # they build no grid
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            assert run([command, flag, "--out", os.path.join(tmp, "out")]) == 1
            assert os.listdir(tmp) == []
        assert err.getvalue().startswith(f"validation error: {code}:"), err.getvalue()

    @pytest.mark.parametrize("level", ["1e308", "-1e308"])
    def test_overflowing_strategy_lines_exit_one(self, tmp_path, capsys, level):
        # finite, but the lines overflow; a warning would fail the test
        assert run(["figures", "--fig-kind", "strategy_lines", f"--signal-level={level}",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("validation error: strategy_line_finite:")
        assert not (tmp_path / "strategy_lines.csv").exists()

    @settings(max_examples=100, deadline=None)
    @given(level=_finite())
    def test_strategy_lines_finite_or_rejected(self, level):
        # every finite signal level either gives finite lines or exits 1 with
        # its code, without a warning (pytest turns one into an error)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = pathlib.Path(tmp, "out")
            code = run(["figures", "--fig-kind", "strategy_lines", _arg("signal-level", level), "--out", str(out)])
            if code == 0:
                cells = [cell for row in read_table(out / "strategy_lines.csv") for cell in row.values()]
                assert all(math.isfinite(float(cell)) for cell in cells)
        assert code == 0 or err.getvalue().startswith("validation error: strategy_line_finite:"), err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(t0=_finite(min_value=1.0, exclude_min=True), mu=_finite())
    def test_values_finite_or_rejected(self, t0, mu):
        # every finite horizon beyond T and every finite drift either gives
        # finite values or exits 1 with value_finite, without a warning
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = pathlib.Path(tmp, "out")
            code = run(["value", _arg("t0", t0), _arg("mu", mu), "--out", str(out)])
            if code == 0:
                rows = read_table(out / "values.csv")
                assert len(rows) == 5
                assert all(math.isfinite(float(v)) for row in rows for k, v in row.items() if k != "regime")
        assert code == 0 or err.getvalue().startswith("validation error: value_finite:"), err.getvalue()

    @pytest.mark.parametrize("command, flag", [("value", "--no-such-flag"),
                                               ("bsde-linear", "--basis-order"),
                                               ("bsde-quadratic", "--basis-order"),
                                               ("bsde-quadratic", "--shoot-tol")])
    def test_unknown_flag_exits_one(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "3"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", [None, "sub"])
    def test_out_naming_a_file_exits_one_before_work(self, tmp_path, capsys, monkeypatch, sub):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile if sub is None else afile / sub
        monkeypatch.setattr("insiderlab.cli._cmd_value", lambda args, config: pytest.fail("ran"))
        assert run(["value", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("validation error: out_dir:")
        assert afile.read_text() == "keep"

    def test_validation_error_exits_one(self, tmp_path, cfg_file):
        code = run(["value", "--config", cfg_file, "--t0", "0.5", "--out", str(tmp_path)])
        assert code == 1

    def test_non_convergence_exits_two(self, tmp_path, cfg_file, capsys):
        # 4 paths cannot fit the 6 monomials of the regression basis
        code = run([
            "bsde-quadratic", "--config", cfg_file, "--n-paths", "4", "--n-steps", "10",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical non-convergence: rank-deficient regression")

    def test_success_exits_zero(self, tmp_path, cfg_file):
        assert run(["value", "--config", cfg_file, "--out", str(tmp_path)]) == 0

    def test_run_report_echoes_config(self, tmp_path, cfg_file, capsys):
        run(["value", "--config", cfg_file, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "command=value" in out
        assert "config=" in out and "mu0=0.15" in out and "T0=2.0" in out
        assert "wall_time_s=" in out
        assert "output=" in out

    def test_run_report_prints_resolved_seed(self, tmp_path, cfg_file, capsys):
        run(["value", "--config", cfg_file, "--out", str(tmp_path)])
        assert "\nseed=4711\n" in capsys.readouterr().out
        run(["value", "--out", str(tmp_path)])
        assert "\nseed=20240801\n" in capsys.readouterr().out


class TestValueCommand:
    def test_writes_all_closed_form_regimes(self, tmp_path, cfg_file):
        run(["value", "--config", cfg_file, "--out", str(tmp_path)])
        lines = (tmp_path / "values.csv").read_text().splitlines()
        assert lines[0] == "regime,base,merton,rent,penalty_adjust,total"
        regimes = [line.split(",")[0] for line in lines[1:]]
        assert regimes == [
            "no_insider_robust",
            "no_insider_nonrobust",
            "small_insider_robust",
            "small_insider_nonrobust",
            "large_insider_nonrobust",
        ]

    @pytest.mark.parametrize("flags", [{"phi": "0:1,1.5:2"}, {"phi": "0:1,0.5:3"},
                                       {"phi": "2", "varrho": "0.030625"}])
    def test_non_unit_weight_writes_every_value(self, tmp_path, cfg_file, flags):
        argv = [f"--{key}={value}" for key, value in flags.items()]
        assert run(["value", "--config", cfg_file, *argv, "--out", str(tmp_path)]) == 0
        rows = {row["regime"]: row for row in read_table(tmp_path / "values.csv")}
        assert list(rows) == [k.value for k in analysis.VALUE_KINDS]
        cfg = load_config(cfg_file, argparse.Namespace(**flags))
        for kind in analysis.VALUE_KINDS:
            b = analysis.value_of(kind, cfg.market, cfg.insider)
            cells = [b.base, b.merton, b.rent, b.penalty_adjust, b.total]
            assert [v for k, v in rows[kind.value].items() if k != "regime"] == [repr(x) for x in cells]

    def test_no_signal_config_gets_two_rows(self, tmp_path, cfg_file):
        run(["value", "--config", cfg_file, "--kind", "none", "--out", str(tmp_path)])
        lines = (tmp_path / "values.csv").read_text().splitlines()
        assert len(lines) == 3


class TestSimulationCommands:
    def test_simulate_writes_j_report(self, tmp_path, cfg_file):
        assert run(["simulate", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "j_report.csv").read_text().splitlines()
        assert lines[0].startswith("regime,J_mean,J_se")
        cells = lines[1].split(",")
        assert cells[0] == "small_insider_robust"
        assert float(cells[1]) != 0.0
        assert (tmp_path / "entropy_check.csv").exists()

    @pytest.mark.parametrize("flags", [{"phi": "0:1,1.5:2"},
                                       {"phi": "2", "varrho": "0.030625", "regime": "large_insider_nonrobust"}])
    def test_simulate_writes_analytic_value_for_any_weight(self, tmp_path, cfg_file, flags):
        argv = [f"--{key}={value}" for key, value in flags.items()]
        assert run(["simulate", "--config", cfg_file, *argv, "--out", str(tmp_path)]) == 0
        row = next(csv.DictReader(io.StringIO((tmp_path / "j_report.csv").read_text())))
        kind = StrategyKind(flags.get("regime", "small_insider_robust"))
        assert row["regime"] == kind.value
        cfg = load_config(cfg_file, argparse.Namespace(**flags))
        assert row["analytic_value"] == repr(analysis.value_of(kind, cfg.market, cfg.insider).total)
        assert float(row["J_mean"]) != 0.0

    @pytest.mark.parametrize("flags, regime", [
        (["--kind", "none"], "no_insider_nonrobust"),
        ([], "small_insider_nonrobust"),
        (["--varrho", "0.030625"], "large_insider_nonrobust"),
    ])
    def test_non_robust_default_regimes(self, tmp_path, cfg_file, flags, regime):
        # --robust false picks the regime from the signal and the price impact
        assert run(["simulate", "--robust", "false", *flags, "--n-paths", "500", "--config", cfg_file,
                    "--out", str(tmp_path)]) == 0
        assert read_table(tmp_path / "j_report.csv")[0]["regime"] == regime

    @pytest.mark.parametrize("command", [
        ["simulate"], ["martingale"], ["bsde-quadratic"], ["bsde-linear"],
        # forward-check ignores --n-paths and draws its own paths
        ["forward-check", "--forward-paths", "9000", "--forward-steps", "64"],
    ], ids=lambda command: command[0])
    def test_thread_count_does_not_change_bytes(self, tmp_path, cfg_file, command):
        # 9000 paths span three RNG blocks, so two threads build them concurrently
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            assert run([*command, "--config", cfg_file, "--n-paths", "9000", "--threads", str(n),
                        "--out", str(out)]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names and names == sorted(os.listdir(outs[1]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_simulate_byte_reproducible(self, tmp_path, cfg_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", cfg_file, "--out", str(out1)])
        run(["simulate", "--config", cfg_file, "--out", str(out2)])
        assert (out1 / "j_report.csv").read_bytes() == (out2 / "j_report.csv").read_bytes()

    def test_martingale_table(self, tmp_path, cfg_file):
        run(["martingale", "--config", cfg_file, "--perturb-pi", "1.2", "--out", str(tmp_path)])
        lines = (tmp_path / "martingale.csv").read_text().splitlines()
        assert lines[0] == "t,h,estimate,SE,z"
        assert len(lines) == 11

    def test_martingale_snaps_checkpoints_to_knots(self, tmp_path, cfg_file):
        code = run(["martingale", "--config", cfg_file, "--n-steps", "25", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "martingale.csv").read_text().splitlines()
        assert len(lines) == 11
        for line in lines[1:]:
            t, h = (float(v) for v in line.split(",")[:2])
            for knot in (t, t + h):
                assert abs(25 * knot - round(25 * knot)) < 1e-9

    def test_bsde_linear_outputs(self, tmp_path, cfg_file):
        assert run(["bsde-linear", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bsde_linear.csv").read_text().splitlines()
        assert lines[0] == "t,mean_Y,mean_Z,oracle_Y,oracle_Z,rmse_Y"
        assert (tmp_path / "bsde_linear_report.csv").exists()

    def test_bsde_quadratic_outputs(self, tmp_path, cfg_file):
        code = run([
            "bsde-quadratic", "--config", cfg_file, "--kind", "none", "--out", str(tmp_path)
        ])
        assert code == 0
        assert (tmp_path / "bsde_quadratic.csv").exists()
        trace = (tmp_path / "bsde_quadratic_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,c2,residual,L0_mean"
        assert (tmp_path / "bsde_quadratic_value.csv").exists()

    def test_bsde_quadratic_trace_plain_floats(self, tmp_path, cfg_file):
        assert run(["bsde-quadratic", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "bsde_quadratic_trace.csv").read_text()
        assert "np.float64" not in text
        c2 = next(csv.DictReader(io.StringIO(text)))["c2"]
        assert len([float(v) for v in c2.strip("()").split(",")]) == 3

    def test_forward_check_table(self, tmp_path, cfg_file):
        code = run([
            "forward-check", "--config", cfg_file, "--forward-steps", "512",
            "--forward-paths", "200", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "forward_wt.csv").read_text().splitlines()
        assert lines[0] == "eps,rms_error,rel_rms_error,ito_residual_rms"
        assert len(lines) == 4

    def test_forward_check_ignores_coefficient_breakpoints(self, tmp_path, cfg_file):
        # the check draws on a uniform grid on [0, T]: breakpoints of the
        # coefficients are not knots of it
        piecewise = tmp_path / "piecewise.cfg"
        piecewise.write_text(BASE_CFG.replace("mu0 = 0.15", "mu0 = 0:0.1, 0.33:0.2")
                             .replace("sigma = 0.35", "sigma = 0:0.35, 0.6:0.3"))
        tables = []
        for name, path in (("constant", cfg_file), ("piecewise", str(piecewise))):
            out = tmp_path / name
            assert run(["forward-check", "--config", path, "--forward-steps", "512",
                        "--forward-paths", "200", "--out", str(out)]) == 0
            tables.append((out / "forward_wt.csv").read_bytes())
        assert tables[0] == tables[1]


class TestAnalysisCommands:
    def test_critical_t0_from_flags_only(self, tmp_path):
        code = run(["critical-t0", "--mu", "0.15", "--sigma", "0.35", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "critical_t0.csv").read_text().splitlines()
        assert lines[0] == "mu,sigma,r,T,T0_star,equation_gap"
        t0_star = float(lines[1].split(",")[4])
        assert 6.0 <= t0_star <= 8.0

    def test_figures_fig1(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "fig1", "--varrho", "0.030625",
                    "--config", cfg_file, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0].startswith("T0,no_insider_robust")
        assert len(lines) == 12

    def test_values_and_fig1_agree_on_each_market_under_impact(self, tmp_path, cfg_file):
        # varrho = sigma^2/4 doubles the neutral uninformed Merton term
        for command in (["value"], ["figures", "--fig-kind", "fig1"]):
            assert run([*command, "--varrho", "0.030625", "--config", cfg_file,
                        "--out", str(tmp_path)]) == 0
        values = {row["regime"]: row for row in read_table(tmp_path / "values.csv")}
        fig1 = read_table(tmp_path / "fig1.csv")
        impact, no_impact = 0.1836734693877551, 0.09183673469387755
        assert float(values["no_insider_nonrobust"]["total"]) == pytest.approx(impact, abs=1e-15)
        assert len(fig1) == 11
        for row in fig1:
            assert row["no_insider_nonrobust"] == values["no_insider_nonrobust"]["total"]
            assert float(row["no_insider_nonrobust_no_impact"]) == pytest.approx(no_impact, abs=1e-15)
            assert row["small_insider_robust"] != ""

    def test_fig1_bsde_column_is_the_quadratic_solve(self, tmp_path, cfg_file):
        # every cell is bsde-quadratic's value at its T0, less ln X0, bit for bit,
        # with the same paths, steps and seed: on one and two workers, and under
        # a piecewise weight, which both commands take from --phi
        size = ["--seed", "5", "--x0", "2.0", "--config", cfg_file]
        # with impact, and with a breakpoint of mu0 inside (0, T), which only a config file can give
        piecewise = tmp_path / "piecewise-mu0.cfg"
        piecewise.write_text(BASE_CFG.replace("mu0 = 0.15", "mu0 = 0:0.15, 0.5:0.2"))
        tables = {}
        for threads, flags in (("1", []), ("2", []), ("1", ["--phi", "0:1,0.5:3"]), ("1", ["--varrho", "0.030625"]),
                               ("2", ["--config", str(piecewise)])):
            out = tmp_path / f"threads{threads}{''.join(flags)}"
            common = [*size, *flags, "--threads", threads, "--out", str(out)]
            assert run(["figures", "--fig-kind", "fig1", "--with-bsde", "--bsde-paths", "3000",
                        "--bsde-steps", "10", *common]) == 0
            tables[threads, *flags] = (out / "fig1.csv").read_bytes()
            cells = {row["T0"]: row["large_insider_robust_bsde"] for row in read_table(out / "fig1.csv")}
            assert list(cells) == [repr(x) for x in FIG_T0_MULTIPLES]  # T = 1
            for t0, cell in cells.items():
                assert run(["bsde-quadratic", "--t0", t0, "--n-paths", "3000", "--n-steps", "10", *common]) == 0
                value = float(read_table(out / "bsde_quadratic_value.csv")[0]["value"])
                assert cell == repr(value - math.log(2.0)), (threads, flags, t0)
        assert tables["1",] == tables["2",]
        assert tables["1",] != tables["1", "--phi", "0:1,0.5:3"]

    @pytest.mark.parametrize("steps", ["10", "50"])
    def test_fig1_bsde_fills_each_chunk_once(self, tmp_path, cfg_file, count_calls, steps):
        # the eleven horizons share one backward sweep, which fills each
        # chunk of the one draw once for all of them
        config = replace(load_config(cfg_file, argparse.Namespace()), n_steps=int(steps), n_paths=500)
        n_chunks = len(stream_sweep_paths(config).checkpoint_knots) - 1
        fills = count_calls(bsde._bridge)
        assert run(["figures", "--fig-kind", "fig1", "--with-bsde", "--bsde-paths", "500", "--bsde-steps", steps,
                    "--config", cfg_file, "--out", str(tmp_path)]) == 0
        assert n_chunks > 1
        assert sorted(args[4] for args in fills) == list(range(1, n_chunks + 1))  # substream k + 1 fills chunk k

    def test_failing_fig1_bsde_exits_as_its_first_horizon_alone(self, tmp_path, cfg_file, capsys):
        # five paths cannot fit the six columns of the first knot's basis, at
        # every horizon: the first horizon's error is the one reported
        code = run(["figures", "--fig-kind", "fig1", "--with-bsde", "--bsde-paths", "5", "--bsde-steps", "10",
                    "--config", cfg_file, "--out", str(tmp_path / "out")])
        last = capsys.readouterr().err.splitlines()[-1]
        assert code == 2
        assert last == ("numerical non-convergence: rank-deficient regression at t=1.0: rank 5 < 6 columns "
                        "(condition number 2.853e+08)")
        config = replace(load_config(cfg_file, argparse.Namespace()), n_steps=10, n_paths=5)
        first = next(stream_horizon_paths(config, [x * config.market.T for x in FIG_T0_MULTIPLES]))
        with pytest.raises(RegressionError) as err:
            solve_quadratic_lsmc(first, config.market)
        assert last == f"numerical non-convergence: {err.value}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fig", ["fig1", "fig3"])
    def test_value_figures_use_the_configured_weight(self, tmp_path, cfg_file, capsys, fig):
        phi = "0:1,0.5:3"
        assert run(["figures", "--fig-kind", fig, "--phi", phi, "--config", cfg_file, "--out", str(tmp_path)]) == 0
        echo = re.search(r"^config=(.*)$", capsys.readouterr().out, re.M).group(1)
        config = load_echo(echo, tmp_path)
        assert config.insider.phi_weight == parse_piecewise(phi)
        lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
        header, rows = analysis.fig_value_table(config.market, FIG_T0_MULTIPLES, weight=parse_piecewise(phi))
        assert lines == [",".join(header)] + [",".join(repr(x) for x in row) for row in rows]
        _, unit_rows = analysis.fig_value_table(config.market, FIG_T0_MULTIPLES)
        assert rows != unit_rows

    def test_critical_horizons_use_the_configured_weight(self, tmp_path, cfg_file):
        phi = "0:1,0.5:3"
        weight = parse_piecewise(phi)
        for command in (["critical-t0"], ["figures", "--fig-kind", "fig2"]):
            assert run([*command, "--phi", phi, "--config", cfg_file, "--out", str(tmp_path)]) == 0
        market = load_config(cfg_file, argparse.Namespace()).market
        row = read_table(tmp_path / "critical_t0.csv")[0]
        t0_star = analysis.critical_T0(market, weight)
        assert t0_star != analysis.critical_T0(market)
        assert row["T0_star"] == repr(t0_star)
        assert row["equation_gap"] == repr(analysis.horizon_gap(market, weight)(t0_star))
        header, rows = analysis.fig_critical_table(market, [0.10, 0.125, 0.15, 0.175, 0.20],
                                                   [0.25, 0.30, 0.35, 0.40, 0.45], weight)
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        assert lines == [",".join(header)] + [",".join(repr(x) for x in row) for row in rows]

    @pytest.mark.parametrize("argv, code", [
        # mass on [T, T0 = 2] but none on [T, 1.3]: the first horizons have no signal
        (["figures", "--fig-kind", "fig1"], "phi_tail_norm"),
        (["figures", "--fig-kind", "fig1", "--with-bsde", "--bsde-paths", "500", "--bsde-steps", "4"],
         "phi_tail_norm"),
        (["figures", "--fig-kind", "fig3"], "phi_tail_norm"),
        (["critical-t0"], "phi_tail_norm"),
        (["figures", "--fig-kind", "fig2"], "phi_tail_norm"),
    ], ids=lambda x: "-".join(x) if isinstance(x, list) else x)
    def test_weight_without_mass_at_a_horizon_exits_one(self, tmp_path, capsys, cfg_file, argv, code):
        assert run([*argv, "--phi", "0:1,1:0,1.3:1", "--config", cfg_file, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {code}:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("phi", ["1", "0:1,0.5:3"])
    def test_critical_t0_without_a_root_exits_one(self, tmp_path, capsys, phi):
        assert run(["critical-t0", "--mu", "0", "--phi", phi, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("validation error: bracket_no_root:")

    @pytest.mark.parametrize("mu, expect", [(None, 0.08), ("0.2", 0.2)])
    def test_fig3_defaults_to_mu_0_08(self, tmp_path, cfg_file, mu, expect):
        flags = [] if mu is None else ["--mu", mu]
        assert run(["figures", "--fig-kind", "fig3", *flags, "--config", cfg_file,
                    "--out", str(tmp_path)]) == 0
        cfg = load_config(cfg_file, argparse.Namespace(mu=expect))
        header, rows = analysis.fig_value_table(cfg.market, FIG_T0_MULTIPLES)  # T = 1
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines == [",".join(header)] + [",".join(repr(x) for x in row) for row in rows]

    @pytest.mark.parametrize("flags", [[], ["--mu", "0.2"]])
    def test_fig3_echo_is_the_market_it_ran(self, tmp_path, cfg_file, capsys, flags):
        # the echoed config is the resolved one, fig3's default drift included
        assert run(["figures", "--fig-kind", "fig3", *flags, "--config", cfg_file,
                    "--out", str(tmp_path)]) == 0
        echo = re.search(r"^config=(.*)$", capsys.readouterr().out, re.M).group(1)
        market = load_echo(echo, tmp_path).market
        header, rows = analysis.fig_value_table(market, [x * market.T for x in FIG_T0_MULTIPLES])
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines == [",".join(header)] + [",".join(repr(x) for x in row) for row in rows]

    def test_figures_strategy_lines(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "strategy_lines", "--config", cfg_file,
                    "--varrho", "0.030625", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "strategy_lines.csv").read_text().splitlines()
        assert lines[0] == "W_t,pi_small_insider_robust,pi_small_insider_nonrobust,pi_large_insider_nonrobust"
        assert len(lines) == 42

    def test_strategy_lines_non_unit_weight(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "strategy_lines", "--config", cfg_file,
                    "--phi", "0:1,1.5:2", "--varrho", "0.030625", "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "strategy_lines.csv")
        assert len(rows) == 41
        cfg = load_config(cfg_file, argparse.Namespace(phi="0:1,1.5:2", varrho="0.030625"))
        small = cfg.market.without_impact()
        w = np.array([float(row["W_t"]) for row in rows])
        for name, form, market in (("pi_small_insider_robust", pi_small_insider_robust, small),
                                   ("pi_small_insider_nonrobust", pi_insider_nonrobust, small),
                                   ("pi_large_insider_nonrobust", pi_insider_nonrobust, cfg.market)):
            got = np.array([float(row[name]) for row in rows])
            np.testing.assert_array_equal(got, form(market, cfg.insider, 1.0, w, 0.5))

    def test_figures_fig2_long_format(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "fig2", "--config", cfg_file,
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        assert lines[0] == "mu,sigma,T0_star"
        assert len(lines) == 26

    def test_help_lists_flags_with_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for fragment in ("--sigma", "1/sqrt(time)", "--mu", "1/time", "--x0", "currency"):
            assert fragment in text

    def test_out_dir_from_environment(self, tmp_path, cfg_file, monkeypatch):
        monkeypatch.setenv("INSIDERLAB_OUT", str(tmp_path / "envout"))
        run(["value", "--config", cfg_file])
        assert (tmp_path / "envout" / "values.csv").exists()


class TestSelftestCommand:
    def test_selftest_passes_and_reports(self, tmp_path, capsys):
        code = run(["selftest", "--seed", "20240801", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "selftest.csv").read_text().splitlines()
        assert lines[0] == "check,passed,metric"
        assert all(line.split(",")[1] == "true" for line in lines[1:])
        assert "PASS" in capsys.readouterr().out

    def test_selftest_takes_seed_from_config_and_validates_flags(self, tmp_path, cfg_file,
                                                                  monkeypatch, capsys):
        seeds = []
        monkeypatch.setattr("insiderlab.cli.run_selftest",
                            lambda seed: seeds.append(seed) or [("stub", True, 0.0)])
        assert run(["selftest", "--config", cfg_file, "--out", str(tmp_path)]) == 0
        assert seeds == [4711]
        assert "seed=4711" in capsys.readouterr().out
        assert run(["selftest", "--t0", "0.5", "--out", str(tmp_path)]) == 1
        assert seeds == [4711]


def test_every_readme_flag_is_a_subcommand_option():
    # a flag the docs name but no parser takes is stale documentation
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][A-Za-z0-9-]*", readme))
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for parser in commands.choices.values() for opt in parser._option_string_actions}
    assert "--out" in flags
    assert not flags - options, sorted(flags - options)
