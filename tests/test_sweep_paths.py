"""The streamed, knot-major LSMC input against the whole-batch API."""

import argparse
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from insiderlab import cli
from insiderlab.bsde import (
    KNOT_HEADER,
    _controls,
    SweepPaths,
    _phitilde,
    _stride,
    solve_linear_closed_form,
    solve_linear_lsmc,
    solve_quadratic_lsmc,
    stream_horizon_paths,
    stream_sweep_paths,
)
from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
    iota,
    sigma_tilde,
)
from insiderlab.paths import _BLOCK, l2_rows, partial_signals, sample_paths, state_weight
from insiderlab.simulate import mean_se, ordered_mean

MARKET = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
IMPACT = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.02, T=1.0, X0=1.0)
# iota jumps at 0.5, so the state int_0^t iota dW is not a multiple of W_t
JUMP = MarketParams(r=0.0, mu0=PiecewiseConstant((0.0, 0.5), (0.02, 0.6)), sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
UNIT = InsiderSpec.enlargement(T0=2.0)
PIECEWISE = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 0.5, 1.5), (1.0, 0.5, 2.0)))
NONE = InsiderSpec.none()


def config_of(insider, n_paths, market=MARKET, n_steps=10, seed=29):
    return ScenarioConfig(market=market, insider=insider, n_steps=n_steps, n_paths=n_paths, seed=seed)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_paths", [1, _BLOCK - 1, _BLOCK + 1, 9000])
@pytest.mark.parametrize("insider", [PIECEWISE, NONE, UNIT])
def test_streamed_sweep_input_equals_sample_paths_bit_for_bit(insider, n_paths, threads):
    for market in (MARKET, JUMP):
        config = config_of(insider, n_paths, market)
        batch = sample_paths(config)
        m = batch.grid.index_T
        t_left = batch.grid.knots[:m]
        # one state, int_0^t w dW: w = phi_w under a signal, iota without one
        weight = insider.phi_weight(t_left) if insider.has_signal() else iota(market, t_left)
        assert np.array_equal(batch.level, partial_signals(batch.dW, weight, np.empty_like(batch.level)))
        streamed = stream_sweep_paths(config, threads)
        assert streamed.insider == insider
        if insider.has_signal():
            assert np.array_equal(streamed.Y0, batch.Y0)
        else:
            assert streamed.Y0 is None
        assert streamed.dW.flags.c_contiguous and streamed.checkpoints.flags.c_contiguous
        assert np.array_equal(streamed.dW, batch.dW[:, :m].T)
        for i in range(m + 1):
            assert np.array_equal(streamed.level(i), batch.level[:, i]), (market, i)
        # the drift formed from the state is information_drift's, bit for bit
        phitilde, row = _phitilde(streamed, market), np.empty(n_paths)
        iota_left = iota(market, t_left)
        for i in range(m):
            expect = np.broadcast_to(iota_left[i] + batch.phi[:, i], (n_paths,))
            assert np.array_equal(np.broadcast_to(phitilde(i, row), (n_paths,)), expect), (market, i)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("insider", [NONE, UNIT, PIECEWISE], ids=["none", "unit", "piecewise"])
@pytest.mark.parametrize("n_steps", [2, 3, 7, 8, 48, 50])
def test_regenerated_rows_equal_the_whole_batch_in_any_order(n_steps, insider, threads):
    # checkpoints every ceil(sqrt(m + 1)) knots, with m + 1 a multiple of
    # that stride or not; JUMP adds a breakpoint knot to the grid.  The
    # paths fill one RNG block and part of a second, and end mid-tile.
    rng = np.random.default_rng(n_steps)
    for market in (MARKET, JUMP):
        config = config_of(insider, _BLOCK + 777, market, n_steps)
        batch = sample_paths(config)
        m = batch.grid.index_T
        assert config.n_paths % l2_rows(m + 1)
        level, dWH = batch.level.T, batch.dWH.T
        for paths in (stream_sweep_paths(config, threads), sweep_paths_of(config, batch)):
            backward, forward = range(m, -1, -1), range(m + 1)
            for i in [*backward, *forward, *rng.permutation(m + 1), *rng.integers(0, m + 1, size=m)]:
                assert paths.level(i).tobytes() == level[i].tobytes(), (market, i)
                if i < m:
                    assert paths.dWH(i).tobytes() == dWH[i].tobytes(), (market, i)
                    assert not paths.level(i).flags.writeable and not paths.dWH(i).flags.writeable


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("insider", [UNIT, PIECEWISE, NONE], ids=["unit", "piecewise", "none"])
def test_horizon_sweep_inputs_equal_one_stream_per_horizon(insider, threads):
    # one draw for every horizon: each input has the dW, state and Y0 bytes
    # of the whole batch of its own config, whose signal has the config's
    # weight (unit without a signal); JUMP adds a breakpoint knot
    horizons = [1.2, 1.5, 2.0, 5.0, 12.0]
    for market in (MARKET, JUMP):
        config = config_of(insider, _BLOCK + 777, market)
        sweeps = list(stream_horizon_paths(config, horizons, threads))
        assert len(sweeps) == len(horizons)
        for t0, paths in zip(horizons, sweeps):
            signal = InsiderSpec.enlargement(T0=t0, phi_weight=insider.phi_weight)
            batch = sample_paths(replace(config, insider=signal))
            m = batch.grid.index_T
            assert paths.insider == signal
            assert paths.dW.tobytes() == np.ascontiguousarray(batch.dW[:, :m].T).tobytes()
            for i in range(m + 1):
                assert paths.level(i).tobytes() == batch.level[:, i].tobytes(), (market, t0, i)
            assert paths.Y0.tobytes() == batch.Y0.tobytes()
            assert paths.weight.tobytes() == state_weight(replace(config, insider=signal), batch.grid).tobytes()
            # drawn once: the horizons share dW, the weight and the checkpoints
            assert paths.dW is sweeps[0].dW and paths.checkpoints is sweeps[0].checkpoints
            assert paths.weight is sweeps[0].weight
        assert len({paths.Y0.tobytes() for paths in sweeps}) == len(horizons)


def test_horizon_sweep_validates_every_horizon_before_the_draw(monkeypatch):
    # the weight has mass on [T, 2] but none on [T, 1.2]
    weight = PiecewiseConstant((0.0, 1.0, 1.3), (1.0, 0.0, 1.0))
    config = config_of(InsiderSpec.enlargement(T0=2.0, phi_weight=weight), 100)
    monkeypatch.setattr("insiderlab.bsde.stream_paths", lambda *a, **k: pytest.fail("drew paths"))
    with pytest.raises(ValidationError) as err:
        next(stream_horizon_paths(config, [2.0, 1.2]))
    assert err.value.code == "phi_tail_norm"


def sweep_paths_of(config, batch):
    """The sweep input of the whole batch: its dW on [0, T] and its state at
    the checkpoint knots, knot-major, and its signal."""
    m = batch.grid.index_T
    return SweepPaths(grid=batch.grid, dW=np.ascontiguousarray(batch.dW[:, :m].T),
                      weight=state_weight(config, batch.grid),
                      checkpoints=np.ascontiguousarray(batch.level[:, ::_stride(m)].T),
                      Y0=batch.Y0 if config.insider.has_signal() else None, insider=config.insider)


def whole_batch(config):
    """The batch sample_paths(config) and its knot-major sweep input."""
    batch = sample_paths(config)
    return batch, sweep_paths_of(config, batch)


def shot_tables(config, market, whole, whole_table):
    """(tables, sol, Y): the tables of bsde-quadratic from solve_quadratic_lsmc
    on the whole batch, reduced one knot column at a time from the whole shot
    L, the swept rows Y less sol.shift at every knot."""
    batch, paths = whole_batch(config)
    grid = batch.grid
    sol, Y, Z = whole(solve_quadratic_lsmc, paths, market)
    L = Y - sol.shift[:, None]
    m = grid.index_T
    t_left = grid.knots[:m]
    pi, _ = _controls(Z, iota(market, t_left) + batch.phi, market.sigma(t_left), sigma_tilde(market, t_left))
    mean_abs_z = ordered_mean(np.array([ordered_mean(np.abs(Z[:, i])) for i in range(m)]))
    tables = {
        "bsde_quadratic.csv": (KNOT_HEADER, whole_table(L, Z, grid)),
        "bsde_quadratic_trace.csv": (["iteration", "c2", "residual", "L0_mean"],
                                     [[it, repr(c2), r, ordered_mean(l[:, 0])]
                                      for (it, c2, r, _), l in zip(sol.trace, (Y, L))]),
        "bsde_quadratic_value.csv": (
            ["value", "value_se", "residual", "mean_abs_z", "mean_pi_0"],
            [[*mean_se(L[:, m]), sol.residual, mean_abs_z, ordered_mean(pi[:, 0])]],
        ),
    }
    return tables, sol, Y


def api_tables(solver, config, market, whole, whole_table):
    """The tables of the bsde command from solve_*_lsmc on the whole batch
    sample_paths(config), transposed to knot-major, with every knot's rows
    collected into whole fields and reduced one knot column at a time.  The
    quadratic command means each swept row between the ends before the shot
    is known, and subtracts the mean of sol.shift from it."""
    if solver == "linear":
        batch, paths = whole_batch(config)
        sol, Y, Z = whole(solve_linear_lsmc, paths, market)
        report = [sol.residual, sol.c if np.ndim(sol.c) == 0 else "",
                  ordered_mean(Y[:, 0]), market.X0]
        oracle = whole(solve_linear_closed_form, paths, market)[1:]
        return {"bsde_linear.csv": (KNOT_HEADER, whole_table(Y, Z, batch.grid, oracle)),
                "bsde_linear_report.csv": (["residual", "normalizer_mc", "Y0_mean", "X0"], [report])}
    tables, sol, Y = shot_tables(config, market, whole, whole_table)
    rows = tables["bsde_quadratic.csv"][1]
    for i in range(1, len(rows) - 1):
        rows[i][1] = ordered_mean(Y[:, i]) - ordered_mean(sol.shift)
    return tables


@pytest.mark.parametrize("solver, insider, market", [
    ("linear", UNIT, MARKET),
    ("linear", NONE, MARKET),
    ("linear", NONE, JUMP),
    ("quadratic", UNIT, IMPACT),
    ("quadratic", PIECEWISE, IMPACT),
    ("quadratic", NONE, IMPACT),
    ("quadratic", PIECEWISE, JUMP),
    ("quadratic", NONE, JUMP),
])
def test_cli_tables_equal_the_whole_batch_api(solver, insider, market, whole, whole_table):
    config = config_of(insider, 9000, market)
    args = argparse.Namespace(threads=2)
    handler = cli._cmd_bsde_linear if solver == "linear" else cli._cmd_bsde_quadratic
    code, tables = handler(args, config)
    assert code == 0
    # the linear command solves in the small trader's market
    expect = api_tables(solver, config, market.without_impact() if solver == "linear" else market,
                        whole, whole_table)
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits
    assert repr(tables) == repr(expect)


QUADRATIC_CASES = [(UNIT, IMPACT), (PIECEWISE, IMPACT), (NONE, IMPACT), (PIECEWISE, JUMP), (NONE, JUMP)]


@pytest.mark.parametrize("insider, market", QUADRATIC_CASES)
def test_quadratic_mean_y_is_the_mean_of_the_whole_shot_l(insider, market, whole, whole_table):
    # the command's mean_Y of a knot between the ends is its swept mean less
    # the shift's mean, within a few ulps of the mean of the shot L; the
    # ends and every other cell are the bytes of a whole shot L
    config = config_of(insider, 9000, market)
    code, tables = cli._cmd_bsde_quadratic(argparse.Namespace(threads=1), config)
    assert code == 0
    expect, _, _ = shot_tables(config, market, whole, whole_table)
    rows, want = tables["bsde_quadratic.csv"][1], expect["bsde_quadratic.csv"][1]
    assert len(rows) == len(want) == config.n_steps + 1
    for i, (row, cells) in enumerate(zip(rows, want)):
        assert abs(row[1] - cells[1]) <= 1e-15
        if i in (0, len(rows) - 1):
            assert repr(row[1]) == repr(cells[1])
        assert repr(row[:1] + row[2:]) == repr(cells[:1] + cells[2:])
    for name in ("bsde_quadratic_trace.csv", "bsde_quadratic_value.csv"):
        assert repr(tables[name]) == repr(expect[name])


def _peak_bytes(argv, tmp_path):
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["enlargement", "none"])
def test_bsde_quadratic_holds_about_two_path_sized_arrays(tmp_path, kind):
    # dW is one (n_paths x m) array, the checkpoints and one chunk of the
    # state 12 rows; the design and the per-step rows add under two thirds
    # of one.  A whole state, dWH, PathBatch, L or Z or full controls would
    # each add one or more.
    n_paths, n_steps = 6 * _BLOCK, 40
    peak = _peak_bytes(["bsde-quadratic", "--kind", kind, "--n-paths", str(n_paths),
                        "--n-steps", str(n_steps), "--seed", "3"], tmp_path)
    assert peak <= 2.5 * n_paths * (n_steps + 1) * 8


@pytest.mark.parametrize("kind", ["enlargement", "none"])
def test_bsde_linear_holds_about_two_path_sized_arrays(tmp_path, kind):
    # dW is one (n_paths x m) array, the checkpoints and one chunk of the
    # state 12 rows; the sweep, the oracle and the reductions hold rows
    # only.  A whole state or dWH, or a whole Y or Z of the solve or of the
    # oracle, would add one.
    n_paths, n_steps = 6 * _BLOCK, 40
    peak = _peak_bytes(["bsde-linear", "--kind", kind, "--n-paths", str(n_paths),
                        "--n-steps", str(n_steps), "--seed", "3"], tmp_path)
    assert peak <= 2.5 * n_paths * (n_steps + 1) * 8


@pytest.mark.parametrize("command", [["bsde-linear", "--kind", "none"], ["bsde-linear"], ["bsde-quadratic"],
                                     ["bsde-quadratic", "--phi", "0:1,0.5:3", "--varrho", "0.030625"]], ids=" ".join)
def test_lsmc_bytes_do_not_depend_on_blas_or_worker_threads(command, tmp_path):
    # OpenBLAS reads its thread count when numpy is loaded, so every setting runs in a process of its own
    src = str(pathlib.Path(cli.__file__).parents[1])
    outputs = {}
    for blas, threads in itertools.product("12", "12"):
        out = tmp_path / f"blas{blas}-threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "insiderlab.cli", *command, "--n-paths", "9000", "--n-steps", "20",
                        "--seed", "3", "--threads", threads, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs[blas, threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    reference = outputs.pop(("1", "1"))
    assert len(reference) >= 2
    for crossing, files in outputs.items():
        assert files == reference, crossing
