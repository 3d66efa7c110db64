"""The streamed `simulate` and `martingale` paths against the same per-path
kernels run on a whole batch from sample_paths."""

import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
)
from insiderlab.bsde import log_pi_star, stream_horizon_paths, stream_sweep_paths
from insiderlab.paths import (
    _BLOCK,
    _L2_BYTES,
    _drift_rows,
    _for_each_block,
    build_grid,
    decompose,
    information_drift,
    l2_rows,
    partial_signals,
    sample_paths,
    stream_paths,
)
from insiderlab import simulate
from insiderlab.simulate import (
    _default_checkpoints,
    entropy_identity_check,
    estimate_J,
    game_terms,
    martingale_diagnostic,
    stream_game,
    stream_martingale,
    weighted_increments,
)
from insiderlab.strategies import (
    StrategyKind,
    StrategyProfile,
    build_profile,
    market_for,
    pi_insider_nonrobust,
    pi_small_insider_robust,
    theta_small_insider_robust,
)

MARKET = MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)
UNIT = InsiderSpec.enlargement(T0=2.0)
PIECEWISE = InsiderSpec.enlargement(T0=2.0, phi_weight=PiecewiseConstant((0.0, 1.5), (1.0, 2.0)))
NONE = InsiderSpec.none()

# (regime, insider, pi factor): every closed-form regime, a piecewise signal
# weight, no insider, and pi scaled as by `martingale --perturb-pi`
CASES = [
    ("no_insider_robust", NONE, 1.0),
    ("no_insider_nonrobust", NONE, 1.0),
    ("small_insider_robust", UNIT, 1.0),
    ("small_insider_nonrobust", UNIT, 1.0),
    ("large_insider_nonrobust", UNIT, 1.0),
    ("small_insider_robust", PIECEWISE, 1.0),
    ("small_insider_nonrobust", PIECEWISE, 1.0),
    ("small_insider_robust", UNIT, 1.5),
]


def regime(kind, insider, pi_factor=1.0, market=MARKET):
    market = market_for(StrategyKind(kind), market)

    def profile_of(batch, out):
        profile = build_profile(StrategyKind(kind), batch, market, insider, out)
        return profile if pi_factor == 1.0 else profile.scaled(pi_factor=pi_factor)

    return market, profile_of


@pytest.mark.parametrize("n_paths", [1, _BLOCK - 1, _BLOCK + 1, 9000])
@pytest.mark.parametrize("kind, insider, pi_factor", CASES)
def test_streamed_results_equal_whole_batch_bit_for_bit(n_paths, kind, insider, pi_factor, kernel_rows):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=10, n_paths=n_paths, seed=97)
    market, profile_of = regime(kind, insider, pi_factor)
    batch = sample_paths(config)
    out, work = kernel_rows(batch)
    profile = profile_of(batch, out)
    j_terms, penalty, entropy = game_terms(batch, profile, market, work)
    checkpoints = _default_checkpoints(batch.grid)
    whole = (
        estimate_J(j_terms),
        entropy_identity_check(penalty, entropy),
        martingale_diagnostic(weighted_increments(batch, profile, market, checkpoints, work), checkpoints),
    )
    streamed = (*stream_game(config, profile_of, market),
                stream_martingale(config, profile_of, market))
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits
    assert repr(streamed) == repr(whole)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind, insider, pi_factor", CASES)
def test_multi_tile_blocks_equal_whole_batch_bit_for_bit(kind, insider, pi_factor, threads, kernel_rows):
    # at 100 steps a tile is 648 paths, so block 0 is drawn in 7 tiles (the
    # last one short) and block 1 in 2: each worker's buffers and workspace
    # serve several tiles, and a short tile reuses the rows of a long one
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=100, n_paths=_BLOCK + 700, seed=97)
    grid = build_grid(config)
    assert l2_rows(grid.index_T + 1) == 648
    tiles = []
    stream_paths(config, grid, lambda rows, tile: tiles.append(rows.stop - rows.start))
    assert sorted(tiles) == sorted([648] * 6 + [_BLOCK - 6 * 648, 648, 700 - 648])
    market, profile_of = regime(kind, insider, pi_factor)
    batch = sample_paths(config)
    out, work = kernel_rows(batch)
    profile = profile_of(batch, out)
    j_terms, penalty, entropy = game_terms(batch, profile, market, work)
    checkpoints = _default_checkpoints(batch.grid)
    whole = (
        estimate_J(j_terms),
        entropy_identity_check(penalty, entropy),
        martingale_diagnostic(weighted_increments(batch, profile, market, checkpoints, work), checkpoints),
    )
    streamed = (*stream_game(config, profile_of, market, threads),
                stream_martingale(config, profile_of, market, threads))
    assert repr(streamed) == repr(whole)


# the pointwise closed forms (pi, theta) of the informed regimes, as
# functions of (market, insider, y0, b_t, t); None for the zero theta
POINTWISE = {
    "small_insider_robust": (pi_small_insider_robust, theta_small_insider_robust),
    "small_insider_nonrobust": (pi_insider_nonrobust, None),
    "large_insider_nonrobust": (pi_insider_nonrobust, None),
}


@pytest.mark.parametrize("kind", sorted({kind for kind, _, _ in CASES}))
def test_build_profile_writes_the_pointwise_closed_form_to_out(kind):
    # rows of nan, so a cell the profile leaves unwritten shows
    insider = NONE if kind.startswith("no_insider") else PIECEWISE
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=20, n_paths=700, seed=5)
    market, profile_of = regime(kind, insider)
    batch = sample_paths(config)
    shape = (batch.n_paths, batch.grid.index_T)
    out = (np.full(shape, np.nan), np.full(shape, np.nan))
    profile = profile_of(batch, out)
    if kind not in POINTWISE:  # an uninformed profile is the shared rows and writes neither
        assert np.isnan(out).all() and profile.pi.shape == profile.theta.shape == (1, shape[1])
        return
    args = (market, insider, batch.Y0[:, None], batch.level[:, :-1], batch.grid.knots[:-1])
    for name, form, row in zip(("pi", "theta"), POINTWISE[kind], out):
        got = getattr(profile, name)
        expect = np.zeros_like(got) if form is None else form(*args)
        # repr tells -0.0 from 0.0, so equal reprs mean equal bits
        assert repr(got.tolist()) == repr(expect.tolist()), name
        assert np.shares_memory(got, row) == (form is not None), name


@pytest.mark.parametrize("threads", [1, 2])
def test_each_worker_keeps_one_buffer_set_and_one_workspace(threads, monkeypatch):
    # 16 tiles over three blocks; a worker draws, profiles and reduces every
    # tile it runs in the same memory.  The arrays seen are kept alive, so
    # memory made anew for a tile could not come back at an old address
    config = ScenarioConfig(market=MARKET, insider=UNIT, n_steps=100, n_paths=2 * _BLOCK + 700, seed=3)
    market, profile_of = regime("small_insider_robust", UNIT)
    seen, kernel = [], simulate.game_terms

    def recorded(batch, profile, market, work):
        seen.append((batch.dW, batch.level, profile.pi, profile.theta, work))
        return kernel(batch, profile, market, work)

    def owner(array):
        return id(array if array.base is None else array.base)

    monkeypatch.setattr(simulate, "game_terms", recorded)
    stream_game(config, profile_of, market, threads)
    assert len(seen) == 16
    assert 1 <= len({tuple(map(owner, arrays)) for arrays in seen}) <= threads


def test_more_workers_than_cores_give_the_serial_bytes():
    # every block writes its own rows of the shared per-path vectors; a rapid
    # thread switch interval makes a lost or misplaced write likely to show
    config = ScenarioConfig(market=MARKET, insider=UNIT, n_steps=10, n_paths=9 * _BLOCK - 5,
                            seed=11)
    market, profile_of = regime("small_insider_robust", UNIT)

    def run(threads):
        return (*stream_game(config, profile_of, market, threads),
                stream_martingale(config, profile_of, market, threads))

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run(4)
    finally:
        sys.setswitchinterval(interval)
    assert repr(threaded) == repr(serial)


@pytest.mark.parametrize("stream", [stream_game, stream_martingale])
@pytest.mark.parametrize("n_paths", [-3, 0])
def test_invalid_config_is_rejected_before_any_allocation(stream, n_paths):
    config = ScenarioConfig(market=MARKET, insider=UNIT, n_steps=10, n_paths=n_paths, seed=1)
    market, profile_of = regime("small_insider_robust", UNIT)
    with pytest.raises(ValidationError) as exc:
        stream(config, profile_of, market)
    assert exc.value.code == "n_paths_min"


@pytest.mark.parametrize("insider", [UNIT, NONE])
@pytest.mark.parametrize("threads", [1, 2])
def test_stream_paths_tiles_are_rows_of_sample_paths(insider, threads):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=200, n_paths=9000, seed=3)
    whole = sample_paths(config)
    seen = []

    def check(rows, batch):
        for name in ("dW", "Y0", "level", "dWH"):
            array = getattr(batch, name)
            assert np.array_equal(array, getattr(whole, name)[rows]), name
            assert array.nbytes <= _L2_BYTES, name
        phi = whole.phi[rows] if whole.phi.shape[0] > 1 else whole.phi
        assert np.array_equal(batch.phi, phi)
        seen.append((rows.start, rows.stop))

    stream_paths(config, build_grid(config), check, threads)
    seen.sort()
    # the tiles partition [0, n), and none crosses an RNG block boundary
    assert [lo for lo, _ in seen] == [0] + [hi for _, hi in seen[:-1]] and seen[-1][1] == 9000
    assert all(lo // _BLOCK == (hi - 1) // _BLOCK for lo, hi in seen)
    # 326-path tiles: 13 in each full block and 3 in the last 808 paths
    assert len(seen) == 29


def test_failing_block_raises_and_cancels_the_blocks_not_started():
    # block 0 fails at once while each other block takes 50 ms, so the error
    # reaches the caller with most of the eight blocks still queued
    n_blocks, ran = 8, []

    def fn(block, rows):
        ran.append(block)
        if block == 0:
            raise RuntimeError("block 0 failed")
        time.sleep(0.05)

    with pytest.raises(RuntimeError, match="block 0 failed"):
        _for_each_block(n_blocks * _BLOCK, fn, threads=2)
    started = len(ran)
    assert started < n_blocks
    time.sleep(0.2)  # a block left queued would have run by now
    assert len(ran) == started


@pytest.mark.parametrize("insider", [UNIT, PIECEWISE, NONE])
@pytest.mark.parametrize("stream", ["game", "sweep"])
def test_running_signal_computed_once_per_tile(stream, insider, count_calls):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=200, n_paths=9000, seed=3)
    calls = count_calls(partial_signals)
    if stream == "game":
        market, profile_of = regime("small_insider_robust" if insider.has_signal() else "no_insider_robust",
                                    insider)
        stream_game(config, profile_of, market)
    else:
        stream_sweep_paths(config)
    assert len(calls) == 29  # one per tile: 13 + 13 + 3 tiles of at most 326 paths


@pytest.mark.parametrize("insider", [UNIT, PIECEWISE])
@pytest.mark.parametrize("stream", ["game", "sweep"])
def test_signal_drift_rows_formed_once_per_stream(stream, insider, count_calls):
    # every tile forms its drift from rows kept on the grid, and a solve on
    # the sweep input reads the same rows
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=200, n_paths=9000, seed=3)
    builds, tiles = count_calls(_drift_rows), count_calls(partial_signals)
    if stream == "game":
        market, profile_of = regime("small_insider_robust", insider)
        stream_game(config, profile_of, market)
    else:
        log_pi_star(stream_sweep_paths(config), MARKET)
    assert len(tiles) == 29
    assert len(builds) == 1


@pytest.mark.parametrize("insider", [UNIT, PIECEWISE])
def test_sweep_tiles_form_no_drift_and_no_dwh(insider, count_calls):
    # the sweep inputs regenerate phi and dWH from the state, one or five
    # horizons from one tile pass; the game stream's tiles still form both
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=200, n_paths=9000, seed=3)
    calls = count_calls(information_drift), count_calls(decompose)
    stream_sweep_paths(config)
    assert calls == ([], [])
    tiles = count_calls(partial_signals)
    assert len(list(stream_horizon_paths(config, [1.2, 1.5, 2.0, 5.0, 12.0]))) == 5
    assert calls == ([], []) and len(tiles) == 29
    market, profile_of = regime("small_insider_robust", insider)
    stream_game(config, profile_of, market)
    assert [len(c) for c in calls] == [29, 29]


@pytest.mark.parametrize("other", [
    ScenarioConfig(market=MARKET, insider=InsiderSpec.enlargement(T0=3.0), n_steps=20, n_paths=5000, seed=7),
    ScenarioConfig(market=replace(MARKET, mu0=PiecewiseConstant.constant(0.1)), insider=UNIT, n_steps=20,
                   n_paths=5000, seed=7),
    ScenarioConfig(market=MARKET, insider=InsiderSpec.enlargement(T0=2.0, phi_weight=2.0), n_steps=20,
                   n_paths=5000, seed=7),
])
def test_back_to_back_streams_on_equal_shape_grids_match_their_own_runs(other, kernel_rows):
    # the time-axis rows are kept per grid; rows kept under anything but the
    # grid and the inputs they are formed from would serve one stream the
    # other's rows, as the two grids have equal knots
    first = ScenarioConfig(market=MARKET, insider=UNIT, n_steps=20, n_paths=5000, seed=7)

    def reference(config):
        """game_terms and weighted_increments of a whole batch under the
        profile formed by the public closed forms."""
        market = market_for(StrategyKind.SMALL_INSIDER_ROBUST, config.market)
        batch = sample_paths(config)
        t_left = batch.grid.knots[:-1]
        args = (market, config.insider, batch.Y0[:, None], batch.level[:, :-1], t_left)
        profile = StrategyProfile(pi=pi_small_insider_robust(*args), theta=theta_small_insider_robust(*args),
                                  grid=batch.grid)
        checkpoints, work = _default_checkpoints(batch.grid), kernel_rows(batch)[1]
        j_terms, penalty, entropy = game_terms(batch, profile, market, work)
        return (estimate_J(j_terms), entropy_identity_check(penalty, entropy),
                martingale_diagnostic(weighted_increments(batch, profile, market, checkpoints, work), checkpoints))

    def streamed(config):
        market, profile_of = regime("small_insider_robust", config.insider, market=config.market)
        return (*stream_game(config, profile_of, market), stream_martingale(config, profile_of, market))

    assert np.array_equal(build_grid(first).knots, build_grid(other).knots)
    for config in (first, other, first, other):
        assert repr(streamed(config)) == repr(reference(config))


def test_drift_rows_kept_on_one_grid_follow_the_signal_weight():
    # streams on one grid whose signals differ only in phi_w: rows kept under
    # the grid alone would serve the second stream the first one's drift
    configs = [ScenarioConfig(market=MARKET, insider=insider, n_steps=20, n_paths=500, seed=7)
               for insider in (UNIT, InsiderSpec.enlargement(T0=2.0, phi_weight=2.0), UNIT)]
    grid = build_grid(configs[0])
    for config in configs:
        whole = sample_paths(config)

        def check(rows, tile):
            assert np.array_equal(tile.dWH, whole.dWH[rows])

        stream_paths(config, grid, check)


def _peak_bytes(n_blocks):
    config = ScenarioConfig(market=MARKET, insider=UNIT, n_steps=20, n_paths=n_blocks * _BLOCK,
                            seed=5)
    market, profile_of = regime("small_insider_robust", UNIT)
    tracemalloc.start()
    try:
        stream_game(config, profile_of, market)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_simulate_memory_does_not_grow_with_paths():
    # only the (n_paths,) per-path vectors grow; a whole batch would grow 4x
    assert _peak_bytes(16) <= 1.5 * _peak_bytes(4)
