import argparse
import contextlib
import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from insiderlab import analysis
from insiderlab.cli import echo_config, load_config, main, parse_piecewise
from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
)
from insiderlab.paths import build_grid
from insiderlab.strategies import pi_small_insider_nonrobust, pi_small_insider_robust

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


# the INI section of every key echo_config writes
SECTION = {
    **dict.fromkeys(("r", "mu0", "sigma", "varrho", "T", "X0"), "market"),
    **dict.fromkeys(("kind", "T0", "phi"), "insider"),
    **dict.fromkeys(("robust", "n_steps", "n_steps_tail", "n_paths", "seed"), "run"),
}


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
        n_steps_tail=draw(st.none() | st.integers(1, 10**6)),
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
        sections = {}
        for token in echo_config(config).split():
            key, value = token.split("=", 1)
            sections.setdefault(SECTION[key], []).append(f"{key} = {value}")
        text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "echo.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            assert load_config(path, argparse.Namespace()) == config

    @pytest.mark.parametrize("text, robust", [("TRUE", True), ("Yes", True), ("on", True),
                                              ("1", True), ("False", False), ("NO", False),
                                              ("off", False), ("0", False)])
    def test_robust_spellings(self, cfg_file, text, robust):
        assert load_config(cfg_file, argparse.Namespace(robust=text)).robust is robust

    def test_n_steps_tail_from_flag_and_file(self, cfg_file, tmp_path):
        from_flag = load_config(cfg_file, argparse.Namespace(n_steps_tail=7))
        path = tmp_path / "tail.cfg"
        path.write_text(BASE_CFG + "n_steps_tail = 7\n")
        from_file = load_config(str(path), argparse.Namespace())
        for cfg in (from_flag, from_file):
            assert cfg.n_steps_tail == 7
            assert build_grid(cfg).n_steps == 20 + 7

    def test_missing_file_rejected(self):
        class Blank:
            pass

        with pytest.raises(ValidationError):
            load_config("/nonexistent/x.cfg", Blank())

    @pytest.mark.parametrize(
        "flags, cfg_text, code",
        [
            (["--phi", "0:1,0.5"], None, "piecewise_syntax"),
            (["--phi", "abc"], None, "piecewise_syntax"),
            ([], BASE_CFG.replace("sigma = 0.35", "sigma ="), "piecewise_syntax"),
            ([], BASE_CFG.replace("T = 1.0", "T = one"), "config_value"),
            ([], "r = 0.0\nsigma = 0.35\n", "config_syntax"),
            (["--robust", "ture"], None, "config_value"),
            (["--n-steps-tail", "0"], None, "n_steps_tail_min"),
            (["--phi", "1e200"], None, "phi_norm_finite"),
            (["--phi", "0:1,1.5:-1e200"], None, "phi_norm_finite"),
        ],
    )
    def test_malformed_input_exits_one_with_code(self, tmp_path, capsys, flags, cfg_text, code):
        argv = ["value", "--out", str(tmp_path), *flags]
        if cfg_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(cfg_text)
            argv += ["--config", str(path)]
        assert run(argv) == 1
        assert f"validation error: {code}:" in capsys.readouterr().err


def _arg(flag, value):
    """`--flag=value`, so a negative value is not read as an option."""
    return f"--{flag}={value!r}"


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# (flag, code) pairs that validate must reject; the defaults are T = 1, T0 = 2,
# sigma = 0.35 (so varrho must stay below 0.06125) and unit signal weight
INVALID_INPUTS = st.one_of(
    st.integers(max_value=1).map(lambda n: (_arg("n-steps", n), "n_steps_min")),
    st.integers(max_value=0).map(lambda n: (_arg("n-steps-tail", n), "n_steps_tail_min")),
    st.integers(max_value=0).map(lambda n: (_arg("n-paths", n), "n_paths_min")),
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
)


class TestExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(invalid=INVALID_INPUTS,
           command=st.sampled_from(["value", "simulate", "martingale", "bsde-linear", "critical-t0"]))
    def test_invalid_input_gives_its_code_and_exit_one(self, invalid, command):
        flag, code = invalid
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            assert run([command, flag, "--out", tmp]) == 1
            assert os.listdir(tmp) == []
        assert err.getvalue().startswith(f"validation error: {code}:"), err.getvalue()

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["value", "--no-such-flag"])
        assert exc.value.code == 1

    def test_validation_error_exits_one(self, tmp_path, cfg_file):
        code = run(["value", "--config", cfg_file, "--t0", "0.5", "--out", str(tmp_path)])
        assert code == 1

    def test_non_convergence_exits_two(self, tmp_path, cfg_file):
        code = run([
            "bsde-quadratic", "--config", cfg_file, "--kind", "none",
            "--shoot-tol", "1e-18", "--out", str(tmp_path),
        ])
        assert code == 2

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

    def test_non_unit_weight_leaves_unit_weight_rows_blank(self, tmp_path, cfg_file):
        assert run(["value", "--config", cfg_file, "--phi", "0:1,1.5:2",
                    "--out", str(tmp_path)]) == 0
        rows = {row["regime"]: row for row in read_table(tmp_path / "values.csv")}
        assert list(rows) == [k.value for k in analysis.VALUE_KINDS]
        for regime in ("small_insider_robust", "large_insider_nonrobust"):
            assert [v for k, v in rows[regime].items() if k != "regime"] == [""] * 5
        cfg = load_config(cfg_file, argparse.Namespace(phi="0:1,1.5:2"))
        expect = analysis.value_small_insider_nonrobust(cfg.market, cfg.insider).total
        assert abs(float(rows["small_insider_nonrobust"]["total"]) - expect) <= 1e-12
        for regime in ("no_insider_robust", "no_insider_nonrobust"):
            assert float(rows[regime]["total"]) != 0.0

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

    def test_simulate_leaves_analytic_value_blank_without_closed_form(self, tmp_path, cfg_file):
        # the robust informed value has no closed form for a non-unit weight
        assert run(["simulate", "--config", cfg_file, "--phi", "0:1,1.5:2",
                    "--out", str(tmp_path)]) == 0
        row = next(csv.DictReader(io.StringIO((tmp_path / "j_report.csv").read_text())))
        assert row["regime"] == "small_insider_robust"
        assert row["analytic_value"] == ""
        assert float(row["J_mean"]) != 0.0

    @pytest.mark.parametrize("command", ["simulate", "martingale", "bsde-quadratic"])
    def test_thread_count_does_not_change_bytes(self, tmp_path, cfg_file, command):
        # 9000 paths span three RNG blocks, so two threads build them concurrently
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            assert run([command, "--config", cfg_file, "--n-paths", "9000", "--threads", str(n),
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

    def test_figures_strategy_lines(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "strategy_lines", "--config", cfg_file,
                    "--varrho", "0.030625", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "strategy_lines.csv").read_text().splitlines()
        assert lines[0] == "W_t,pi_small_insider_robust,pi_small_insider_nonrobust,pi_large_insider_nonrobust"
        assert len(lines) == 42

    def test_strategy_lines_non_unit_weight(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "strategy_lines", "--config", cfg_file,
                    "--phi", "2", "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "strategy_lines.csv")
        assert len(rows) == 41
        assert all(row["pi_large_insider_nonrobust"] == "" for row in rows)
        cfg = load_config(cfg_file, argparse.Namespace(phi="2"))
        w = np.array([float(row["W_t"]) for row in rows])
        for name, form in (("pi_small_insider_robust", pi_small_insider_robust),
                           ("pi_small_insider_nonrobust", pi_small_insider_nonrobust)):
            got = np.array([float(row[name]) for row in rows])
            np.testing.assert_array_equal(got, form(cfg.market, cfg.insider, 1.0, w, 0.5))

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
