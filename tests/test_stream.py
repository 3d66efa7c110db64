"""The streamed `simulate` and `martingale` paths against the whole-batch API."""

import sys
import tracemalloc

import numpy as np
import pytest

from insiderlab.model import (
    InsiderSpec,
    MarketParams,
    PiecewiseConstant,
    ScenarioConfig,
    ValidationError,
)
from insiderlab.bsde import stream_sweep_paths
from insiderlab.paths import _BLOCK, build_grid, partial_signals, sample_paths, stream_paths
from insiderlab.simulate import (
    entropy_identity_check,
    estimate_J,
    martingale_diagnostic,
    simulate_density,
    simulate_wealth,
    stream_game,
    stream_martingale,
)
from insiderlab.strategies import StrategyKind, build_profile, market_for

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


def regime(kind, insider, pi_factor=1.0):
    market = market_for(StrategyKind(kind), MARKET)

    def profile_of(batch):
        profile = build_profile(StrategyKind(kind), batch, market, insider)
        return profile if pi_factor == 1.0 else profile.scaled(pi_factor=pi_factor)

    return market, profile_of


@pytest.mark.parametrize("n_paths", [1, _BLOCK - 1, _BLOCK + 1, 9000])
@pytest.mark.parametrize("kind, insider, pi_factor", CASES)
def test_streamed_results_equal_whole_batch_bit_for_bit(n_paths, kind, insider, pi_factor):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=10, n_paths=n_paths, seed=97)
    market, profile_of = regime(kind, insider, pi_factor)
    batch = sample_paths(config)
    profile = profile_of(batch)
    density = simulate_density(batch, profile)
    whole = (
        estimate_J(batch, profile, simulate_wealth(batch, profile, market), density, market),
        entropy_identity_check(batch, profile, density),
        martingale_diagnostic(batch, profile, market),
    )
    streamed = (*stream_game(config, profile_of, market),
                stream_martingale(config, profile_of, market))
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits
    assert repr(streamed) == repr(whole)


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
def test_stream_paths_blocks_are_rows_of_sample_paths(insider, threads):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=10, n_paths=9000, seed=3)
    whole = sample_paths(config)
    seen = []

    def check(rows, batch):
        for name in ("dW", "Y0", "level", "dWH"):
            assert np.array_equal(getattr(batch, name), getattr(whole, name)[rows]), name
        phi = whole.phi[rows] if whole.phi.shape[0] > 1 else whole.phi
        assert np.array_equal(batch.phi, phi)
        seen.append((rows.start, rows.stop))

    stream_paths(config, build_grid(config), check, threads)
    assert sorted(seen) == [(0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, 9000)]


@pytest.mark.parametrize("insider", [UNIT, PIECEWISE, NONE])
@pytest.mark.parametrize("stream", ["game", "sweep"])
def test_running_signal_computed_once_per_block(stream, insider, count_calls):
    config = ScenarioConfig(market=MARKET, insider=insider, n_steps=10, n_paths=9000, seed=3)
    calls = count_calls(partial_signals)
    if stream == "game":
        market, profile_of = regime("small_insider_robust" if insider.has_signal() else "no_insider_robust",
                                    insider)
        stream_game(config, profile_of, market)
    else:
        stream_sweep_paths(config)
    assert len(calls) == 3  # one per RNG block


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
