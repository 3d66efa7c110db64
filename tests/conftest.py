import sys

import pytest

from insiderlab.model import InsiderSpec, MarketParams, ScenarioConfig
from insiderlab.paths import sample_paths

# Shared scenario: mu0 = 0.15, sigma = 0.35, r = 0, T = 1, X0 = 1,
# information horizon T0 = 2 with unit signal weight.
IOTA = 0.15 / 0.35
IOTA_SQ = IOTA**2


@pytest.fixture(scope="session")
def market():
    return MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.0, T=1.0, X0=1.0)


@pytest.fixture(scope="session")
def market_impact():
    # varrho = sigma^2/4 halves sigma_tilde
    return MarketParams(r=0.0, mu0=0.15, sigma=0.35, varrho=0.25 * 0.35**2, T=1.0, X0=1.0)


@pytest.fixture(scope="session")
def insider():
    return InsiderSpec.enlargement(T0=2.0)


@pytest.fixture(scope="session")
def no_insider():
    return InsiderSpec.none()


@pytest.fixture(scope="session")
def batch_100k(market, insider):
    """Enlargement ensemble used by the statistical module tests."""
    cfg = ScenarioConfig(
        market=market, insider=insider, n_steps=200, n_paths=100_000, seed=710321
    )
    return sample_paths(cfg)


@pytest.fixture(scope="session")
def batch_flat_100k(market, no_insider):
    """No-signal ensemble on [0, T]."""
    cfg = ScenarioConfig(
        market=market, insider=no_insider, n_steps=200, n_paths=100_000, seed=355117
    )
    return sample_paths(cfg)


@pytest.fixture(scope="session")
def batch_small(market, insider):
    """Cheap enlargement ensemble for exact (non-statistical) identities."""
    cfg = ScenarioConfig(
        market=market, insider=insider, n_steps=50, n_paths=512, seed=42
    )
    return sample_paths(cfg)


@pytest.fixture(scope="session")
def batch_lsmc_flat(market, no_insider):
    """No-signal ensemble at the backward-solver test resolution."""
    cfg = ScenarioConfig(
        market=market, insider=no_insider, n_steps=50, n_paths=100_000, seed=424242
    )
    return sample_paths(cfg)


@pytest.fixture(scope="session")
def batch_lsmc_enl(market, insider):
    """Enlargement ensemble at the backward-solver test resolution."""
    cfg = ScenarioConfig(
        market=market, insider=insider, n_steps=50, n_paths=100_000, seed=424243
    )
    return sample_paths(cfg)


@pytest.fixture(scope="session")
def brownian_levels(market, no_insider):
    """W at the knots of a fine uniform grid, for the anticipating tests."""
    cfg = ScenarioConfig(
        market=market, insider=no_insider, n_steps=4096, n_paths=2000, seed=911250
    )
    batch = sample_paths(cfg)
    return batch.grid, batch.level


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) returns a list that grows by one on every call of fn
    made through any insiderlab module that holds it by name."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("insiderlab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    return install
