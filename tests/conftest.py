import sys

import numpy as np
import pytest

from insiderlab.bsde import knot_table, solve_linear_closed_form, stream_sweep_paths
from insiderlab.model import InsiderSpec, MarketParams, ScenarioConfig
from insiderlab.paths import PathBatch, decompose, information_drift, sample_paths
from insiderlab.simulate import ordered_mean

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
def config_small(market, insider):
    """Cheap enlargement ensemble for exact (non-statistical) identities."""
    return ScenarioConfig(market=market, insider=insider, n_steps=50, n_paths=512, seed=42)


@pytest.fixture(scope="session")
def config_lsmc_flat(market, no_insider):
    """No-signal ensemble at the backward-solver test resolution."""
    return ScenarioConfig(market=market, insider=no_insider, n_steps=50, n_paths=100_000, seed=424242)


@pytest.fixture(scope="session")
def config_lsmc_enl(market, insider):
    """Enlargement ensemble at the backward-solver test resolution."""
    return ScenarioConfig(market=market, insider=insider, n_steps=50, n_paths=100_000, seed=424243)


def _batch_of(paths):
    """The sweep input's own paths as a whole PathBatch: its dW and state
    rows at every knot, path-major, and with a signal the tail column Y0 -
    B_T, from which the drift and dWH are formed by information_drift and
    decompose, as sample_paths forms them.  The batch's drift is then the
    one log_pi_star and the driver form from level(i) by signal_drift, bit
    for bit."""
    grid, m, n = paths.grid, paths.grid.index_T, paths.n_paths
    signal = paths.Y0 is not None
    dW, level = np.empty((n, m + 1 if signal else m)), np.empty((n, m + 1))
    dWH = np.empty((n, m)) if signal else dW[:, :m]
    for i in range(m + 1):
        level[:, i] = paths.level(i)
    for i in range(m):
        dW[:, i] = paths.dW(i)
    if signal:
        dW[:, m] = paths.Y0 - level[:, m]
        information_drift(grid, level, paths.Y0, paths.insider, out=dWH)
        decompose(grid, dW, dWH, dWH)
    return PathBatch(grid=grid, dW=dW, Y0=paths.Y0 if signal else np.zeros(n), level=level, dWH=dWH,
                     insider=paths.insider)


# The small ensemble as a whole PathBatch from sample_paths; each LSMC
# ensemble as the knot-major sweep input the backward solvers take and as
# the PathBatch of the same paths (_batch_of).


@pytest.fixture(scope="session")
def batch_small(config_small):
    return sample_paths(config_small)


@pytest.fixture(scope="session")
def sweep_small(config_small):
    return stream_sweep_paths(config_small)


@pytest.fixture(scope="session")
def batch_lsmc_flat(sweep_lsmc_flat):
    return _batch_of(sweep_lsmc_flat)


@pytest.fixture(scope="session")
def sweep_lsmc_flat(config_lsmc_flat):
    return stream_sweep_paths(config_lsmc_flat)


@pytest.fixture(scope="session")
def batch_lsmc_enl(sweep_lsmc_enl):
    return _batch_of(sweep_lsmc_enl)


@pytest.fixture(scope="session")
def sweep_lsmc_enl(config_lsmc_enl):
    return stream_sweep_paths(config_lsmc_enl)


@pytest.fixture(scope="session")
def batch_of():
    """The PathBatch of a sweep input's own paths; see _batch_of."""
    return _batch_of


@pytest.fixture(scope="session")
def unit_iota_market():
    """iota = 1, so that the no-signal state int_0^t iota dW is W_t bit for bit."""
    return MarketParams(r=0.0, mu0=1.0, sigma=1.0, varrho=0.0, T=1.0, X0=1.0)


@pytest.fixture(scope="session")
def brownian_levels(unit_iota_market, no_insider):
    """W at the knots of a fine uniform grid, for the anticipating tests."""
    cfg = ScenarioConfig(
        market=unit_iota_market, insider=no_insider, n_steps=4096, n_paths=2000, seed=911250
    )
    batch = sample_paths(cfg)
    return batch.grid, batch.level


def _kernel_rows(batch):
    """Fresh rows for one profile and one kernel call on `batch`: the pair
    `out` of (n_paths, index_T) rows that build_profile writes to, and the
    flat `work` row of n_paths * (index_T + 1) floats of the per-path
    kernels, which a kernel's result may lie in."""
    n, m = batch.n_paths, batch.grid.index_T
    return np.empty((2, n, m)), np.empty(n * (m + 1))


@pytest.fixture(scope="session")
def kernel_rows():
    """(out, work) = kernel_rows(batch), fresh at every call; see _kernel_rows."""
    return _kernel_rows


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


def _whole(solve, paths, market):
    """(result, Y, Z): solve(paths, market, observe) with the rows
    (Y_i, Z_i) it hands to observe copied into whole fields, Y
    (n_paths, index_T + 1) and Z (n_paths, index_T), transposed views of
    knot-major arrays.  solve_linear_closed_form's knot function is run over
    every knot the same way, into two rows of its own, with Z = c Y formed
    from its factor c without a signal.  The quadratic solver hands on its
    sweep before the shot, so its Y is that sweep's L; the shot L is Y less
    result.shift at every knot, Y - result.shift[:, None]."""
    m, n = paths.grid.index_T, paths.n_paths
    Y, Z = np.empty((m + 1, n)), np.empty((m, n))

    def observe(i, y, z, work):
        Y[i] = y
        if z is not None:
            Z[i] = z

    if solve is solve_linear_closed_form:
        result, out = solve(paths, market), np.empty((2, n))
        for i in range(m, -1, -1):
            y, z = result(i, out)
            if paths.Y0 is None and z is not None:  # the factor c of Z = c Y
                z = z * y
            observe(i, y, z, None)
    else:
        result = solve(paths, market, observe)
    return result, Y.T, Z.T


@pytest.fixture(scope="session")
def whole():
    """The LSMC solvers' whole fields, collected knot by knot; see _whole."""
    return _whole


def _table(Y, Z, grid, oracle=None):
    """knot_table's rows at every knot of the whole fields Y and Z, and of
    the oracle's pair of whole fields, one path column at a time; without an
    oracle, the row bsde-quadratic lays out from the ordered means."""
    m = grid.index_T
    rows, work = [], np.empty(Y.shape[0])
    for i in range(m + 1):
        z = Z[:, i] if i < m else None
        if oracle is None:
            rows.append([float(grid.knots[i]), ordered_mean(Y[:, i]), "" if z is None else ordered_mean(z), "", "", ""])
        else:
            pair = (oracle[0][:, i], oracle[1][:, i] if i < m else None)
            rows.append(knot_table(grid.knots[i], Y[:, i], z, pair, work))
    return rows


@pytest.fixture(scope="session")
def whole_table():
    """The knot table of whole fields; see _table."""
    return _table
