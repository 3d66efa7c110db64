import csv
import io
import os

import pytest

from insiderlab.cli import load_config, main, parse_piecewise
from insiderlab.model import PiecewiseConstant, ValidationError

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


class TestExitCodes:
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

    def test_figures_strategy_lines(self, tmp_path, cfg_file):
        assert run(["figures", "--fig-kind", "strategy_lines", "--config", cfg_file,
                    "--varrho", "0.030625", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "strategy_lines.csv").read_text().splitlines()
        assert lines[0] == "W_t,pi_small_insider_robust,pi_small_insider_nonrobust,pi_large_insider_nonrobust"
        assert len(lines) == 42

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
