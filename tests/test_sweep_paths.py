"""The coarse-to-fine, knot-major LSMC input: its determinism, its bridge
fill and the law of its increments, and the commands' tables against the
whole fields of the same input."""

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
from insiderlab.paths import _BLOCK, state_weight
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


def rows_of(paths):
    """Copies of every knot's state and every step's dW and dWH, read forward."""
    m = paths.grid.index_T
    return ([paths.level(i).copy() for i in range(m + 1)], [paths.dW(i).copy() for i in range(m)],
            [paths.dWH(i).copy() for i in range(m)])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_paths", [1, _BLOCK - 1, _BLOCK + 1, 9000])
@pytest.mark.parametrize("insider", [PIECEWISE, NONE, UNIT])
def test_the_first_paths_of_an_input_are_the_input_of_that_many_paths(insider, n_paths, threads, batch_of):
    # path i's draws depend only on (seed, i, grid): the first n_paths paths
    # of a larger input are the n_paths-path input, at any worker count; the
    # paths fill whole RNG blocks, part of one, or end mid-block in the smaller
    # input only.  JUMP adds a breakpoint knot.
    for market in (MARKET, JUMP):
        small = stream_sweep_paths(config_of(insider, n_paths, market), threads)
        large = stream_sweep_paths(config_of(insider, 9777, market))
        m = small.grid.index_T
        assert small.insider == insider and small.checkpoints.flags.c_contiguous
        assert (small.Y0 is None) == (large.Y0 is None) == (not insider.has_signal())
        if insider.has_signal():
            assert small.Y0.tobytes() == large.Y0[:n_paths].tobytes()
        level, dW, dWH = rows_of(large)
        for i in range(m, -1, -1):
            assert small.level(i).tobytes() == level[i][:n_paths].tobytes(), (market, i)
            if i < m:
                assert small.dW(i).tobytes() == dW[i][:n_paths].tobytes(), (market, i)
                assert small.dWH(i).tobytes() == dWH[i][:n_paths].tobytes(), (market, i)
        # the drift formed from the state is information_drift's, bit for bit
        batch, iota_left = batch_of(small), iota(market, small.grid.knots[:m])
        phitilde, row = _phitilde(small, market), np.empty(n_paths)
        for i in range(m):
            expect = np.broadcast_to(iota_left[i] + batch.phi[:, i], (n_paths,))
            assert np.array_equal(np.broadcast_to(phitilde(i, row), (n_paths,)), expect), (market, i)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("insider", [NONE, UNIT, PIECEWISE], ids=["none", "unit", "piecewise"])
@pytest.mark.parametrize("n_steps", [2, 3, 7, 8, 48, 50])
def test_chunks_regenerate_the_same_rows_in_any_order(n_steps, insider, threads):
    # checkpoints every ceil(sqrt(m + 1)) knots, with m + 1 a multiple of
    # that stride or not, and at every change of the weight; JUMP adds a
    # breakpoint knot.  The paths fill one RNG block and part of a second.
    rng = np.random.default_rng(n_steps)
    for market in (MARKET, JUMP):
        config = config_of(insider, _BLOCK + 777, market, n_steps)
        level, dW, dWH = rows_of(stream_sweep_paths(config))
        paths = stream_sweep_paths(config, threads)
        m = paths.grid.index_T
        backward, forward = range(m, -1, -1), range(m + 1)
        for i in [*backward, *forward, *rng.permutation(m + 1), *rng.integers(0, m + 1, size=m)]:
            assert paths.level(i).tobytes() == level[i].tobytes(), (market, i)
            if i < m:
                assert paths.dW(i).tobytes() == dW[i].tobytes(), (market, i)
                assert paths.dWH(i).tobytes() == dWH[i].tobytes(), (market, i)
                assert not paths.level(i).flags.writeable and not paths.dWH(i).flags.writeable


@pytest.mark.parametrize("insider", [NONE, UNIT, PIECEWISE], ids=["none", "unit", "piecewise"])
@pytest.mark.parametrize("n_steps", [2, 7, 50])
def test_each_filled_chunk_ends_on_its_checkpoint(n_steps, insider):
    for market in (MARKET, JUMP):
        paths = stream_sweep_paths(config_of(insider, _BLOCK + 777, market, n_steps))
        m, knots, w = paths.grid.index_T, paths.checkpoint_knots, paths.weight
        assert knots[0] == 0 and knots[-1] == m and len(knots) >= m // _stride(m) + 1
        # the weight is constant on every chunk, so a chunk's state is w times its W
        assert all(len(set(w[a:b])) == 1 for a, b in zip(knots, knots[1:]))
        for k, (a, b) in enumerate(zip(knots, knots[1:])):
            # the bridge ends on the chunk's increment: the state at its end
            # knot, formed as inside the chunk, is the next checkpoint
            end = paths.checkpoints[k] + w[a] * paths.increments[k]
            assert end.tobytes() == paths.level(b).tobytes(), (market, k)
            # and the chunk's increments add up to it
            total = sum(paths.dW(i).copy() for i in range(a, b))
            np.testing.assert_allclose(total, paths.increments[k], rtol=0.0, atol=1e-14 * (b - a))
            for i in range(a + 1, b):
                inside = paths.checkpoints[k] + w[a] * paths._chunk(k)[i - a - 1]
                assert paths.level(i).tobytes() == inside.tobytes(), (market, i)


@pytest.mark.parametrize("insider", [UNIT, InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant(
    (0.0, 0.5), (1.0, 3.0)))], ids=["unit", "piecewise"])
def test_increments_have_the_law_of_brownian_increments(insider):
    # every step's dW has mean 0 and variance dt and is uncorrelated with the
    # next step's, within 4 SE at 100,000 paths, across chunk ends as inside
    # them; the piecewise weight adds a checkpoint at its change
    paths = stream_sweep_paths(config_of(insider, 100_000, n_steps=50))
    m, dt = paths.grid.index_T, paths.grid.dt
    z, prev = [], None
    for i in range(m):
        dw = paths.dW(i).copy()
        for values, target in ((dw, 0.0), (dw * dw, dt[i])):
            mean, se = mean_se(values)
            z.append(((mean - target) / se, "mean" if target == 0.0 else "variance", i))
        if prev is not None:
            mean, se = mean_se(prev * dw)
            z.append((mean / se, "lag-1", i))
        prev = dw
    worst = max(z, key=lambda item: abs(item[0]))
    assert abs(worst[0]) < 4.0, worst
    assert len(z) == 3 * m - 1


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("insider", [UNIT, PIECEWISE, NONE], ids=["unit", "piecewise", "none"])
def test_horizon_sweep_inputs_equal_one_stream_per_horizon(insider, threads):
    # one draw for every horizon: each input has the state, dW and Y0 bytes
    # of stream_sweep_paths of its own config, whose signal has the config's
    # weight (unit without a signal), and all share one coarse draw; JUMP
    # adds a breakpoint knot
    horizons = [1.2, 1.5, 2.0, 5.0, 12.0]
    for market in (MARKET, JUMP):
        config = config_of(insider, _BLOCK + 777, market)
        sweeps = list(stream_horizon_paths(config, horizons, threads))
        assert len(sweeps) == len(horizons)
        for t0, paths in zip(horizons, sweeps):
            signal = InsiderSpec.enlargement(T0=t0, phi_weight=insider.phi_weight)
            alone = stream_sweep_paths(replace(config, insider=signal))
            m = alone.grid.index_T
            assert paths.insider == signal
            level, dW, _ = rows_of(alone)
            for i in range(m + 1):
                assert paths.level(i).tobytes() == level[i].tobytes(), (market, t0, i)
                if i < m:
                    assert paths.dW(i).tobytes() == dW[i].tobytes(), (market, t0, i)
            assert paths.Y0.tobytes() == alone.Y0.tobytes()
            assert paths.weight.tobytes() == state_weight(replace(config, insider=signal), alone.grid).tobytes()
            # drawn once: the horizons share the coarse draw and the weight
            assert paths.checkpoints is sweeps[0].checkpoints and paths.increments is sweeps[0].increments
            assert paths.weight is sweeps[0].weight
        assert len({paths.Y0.tobytes() for paths in sweeps}) == len(horizons)


def test_horizon_sweep_validates_every_horizon_before_the_draw(monkeypatch):
    # the weight has mass on [T, 2] but none on [T, 1.2]
    weight = PiecewiseConstant((0.0, 1.0, 1.3), (1.0, 0.0, 1.0))
    config = config_of(InsiderSpec.enlargement(T0=2.0, phi_weight=weight), 100)
    monkeypatch.setattr("insiderlab.bsde.draw_blocks", lambda *a, **k: pytest.fail("drew paths"))
    with pytest.raises(ValidationError) as err:
        next(stream_horizon_paths(config, [2.0, 1.2]))
    assert err.value.code == "phi_tail_norm"


def whole_batch(config, batch_of):
    """The sweep input stream_sweep_paths(config) and the whole batch of its paths."""
    paths = stream_sweep_paths(config)
    return batch_of(paths), paths


def shot_tables(config, market, whole, whole_table, batch_of):
    """(tables, sol, Y): the tables of bsde-quadratic from solve_quadratic_lsmc
    on the sweep input, reduced one knot column at a time from the whole shot
    L, the swept rows Y less sol.shift at every knot."""
    batch, paths = whole_batch(config, batch_of)
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


def api_tables(solver, config, market, whole, whole_table, batch_of):
    """The tables of the bsde command from solve_*_lsmc on the sweep input
    stream_sweep_paths(config), with every knot's rows collected into whole
    fields and reduced one knot column at a time.  The
    quadratic command means each swept row between the ends before the shot
    is known, and subtracts the mean of sol.shift from it."""
    if solver == "linear":
        batch, paths = whole_batch(config, batch_of)
        sol, Y, Z = whole(solve_linear_lsmc, paths, market)
        report = [sol.residual, sol.c if np.ndim(sol.c) == 0 else "",
                  ordered_mean(Y[:, 0]), market.X0]
        oracle = whole(solve_linear_closed_form, paths, market)[1:]
        return {"bsde_linear.csv": (KNOT_HEADER, whole_table(Y, Z, batch.grid, oracle)),
                "bsde_linear_report.csv": (["residual", "normalizer_mc", "Y0_mean", "X0"], [report])}
    tables, sol, Y = shot_tables(config, market, whole, whole_table, batch_of)
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
def test_cli_tables_equal_the_whole_batch_api(solver, insider, market, whole, whole_table, batch_of):
    config = config_of(insider, 9000, market)
    args = argparse.Namespace(threads=2)
    handler = cli._cmd_bsde_linear if solver == "linear" else cli._cmd_bsde_quadratic
    code, tables = handler(args, config)
    assert code == 0
    # the linear command solves in the small trader's market
    expect = api_tables(solver, config, market.without_impact() if solver == "linear" else market,
                        whole, whole_table, batch_of)
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits
    assert repr(tables) == repr(expect)


QUADRATIC_CASES = [(UNIT, IMPACT), (PIECEWISE, IMPACT), (NONE, IMPACT), (PIECEWISE, JUMP), (NONE, JUMP)]


@pytest.mark.parametrize("insider, market", QUADRATIC_CASES)
def test_quadratic_mean_y_is_the_mean_of_the_whole_shot_l(insider, market, whole, whole_table, batch_of):
    # the command's mean_Y of a knot between the ends is its swept mean less
    # the shift's mean, within a few ulps of the mean of the shot L; the
    # ends and every other cell are the bytes of a whole shot L
    config = config_of(insider, 9000, market)
    code, tables = cli._cmd_bsde_quadratic(argparse.Namespace(threads=1), config)
    assert code == 0
    expect, _, _ = shot_tables(config, market, whole, whole_table, batch_of)
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


# The input holds its checkpoints, the chunks' increments and one chunk,
# about 3 sqrt(m) rows of n_paths (20 at m = 40), and the solve 11 to 23
# more (the sweep's basis and knot rows, the driver's, the shot's): 31 to 43
# rows in all, 0.75 to 1.05 of the bound's unit; a whole (n_paths, m) field
# such as dW, dWH, the state, L, Z or full controls would add about m + 1 = 41.


@pytest.mark.parametrize("kind", ["enlargement", "none"])
def test_bsde_quadratic_holds_about_two_path_sized_arrays(tmp_path, kind):
    n_paths, n_steps = 6 * _BLOCK, 40
    peak = _peak_bytes(["bsde-quadratic", "--kind", kind, "--n-paths", str(n_paths),
                        "--n-steps", str(n_steps), "--seed", "3"], tmp_path)
    assert peak <= 1.5 * n_paths * (n_steps + 1) * 8


@pytest.mark.parametrize("kind", ["enlargement", "none"])
def test_bsde_linear_holds_about_two_path_sized_arrays(tmp_path, kind):
    # the oracle and the reductions work in the sweep's rows
    n_paths, n_steps = 6 * _BLOCK, 40
    peak = _peak_bytes(["bsde-linear", "--kind", kind, "--n-paths", str(n_paths),
                        "--n-steps", str(n_steps), "--seed", "3"], tmp_path)
    assert peak <= 1.5 * n_paths * (n_steps + 1) * 8


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
