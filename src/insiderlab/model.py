"""Market and insider configuration.

The market has a risk-free rate r(t), a base drift mu0(t), a volatility
sigma(t) and a price-impact coefficient varrho(t): a position pi shifts the
risky drift to mu0(t) + varrho(t)*pi.  All coefficients are deterministic
piecewise-constant functions of time, which keeps every time integral exact.

Derived symbols used throughout the package:

    iota(t)        = (mu0(t) - r(t)) / sigma(t)      market price of risk
    sigma_tilde(t) = sigma(t) - 2*varrho(t)/sigma(t) impact-adjusted volatility

The insider, when present, observes Y0 = int_0^T0 phi(u) dW_u at time zero
for some weight function phi on [0, T0] with T0 beyond the trading horizon T.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "PiecewiseConstant",
    "MarketParams",
    "InsiderKind",
    "InsiderSpec",
    "ScenarioConfig",
    "ValidationError",
    "DomainError",
    "quiet",
    "require_finite",
    "iota",
    "sigma_tilde",
    "phi_norm_sq",
    "breakpoints",
    "validate",
]


class ValidationError(ValueError):
    """Configuration violates an invariant. `code` is machine-readable."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class DomainError(ValueError):
    """Evaluation requested outside the declared time domain."""


# numpy's float warnings off, for results that require_finite checks instead
quiet = functools.partial(np.errstate, over="ignore", invalid="ignore", divide="ignore")


def require_finite(code: str, what: str, *values) -> None:
    """ValidationError `code` when any of the arrays or scalars holds a nan
    or an infinity."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValidationError(code, f"{what} is not a finite float")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function on [0, inf).

    `breakpoints` must start at 0.0 and increase strictly; the function takes
    `values[k]` on [breakpoints[k], breakpoints[k+1]).  A constant function is
    the single-breakpoint case.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) == 0 or len(bp) != len(vals):
            raise ValidationError("piecewise_shape", "need one value per breakpoint")
        if bp[0] != 0.0:
            raise ValidationError("piecewise_origin", "first breakpoint must be 0")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValidationError("piecewise_order", "breakpoints must increase strictly")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls((0.0,), (float(value),))

    def __call__(self, t):
        """Evaluate at scalar or array t >= 0."""
        if np.ndim(t) == 0:  # a scalar is one bisection, without numpy's per-call cost
            return self.values[max(bisect.bisect_right(self.breakpoints, t) - 1, 0)]
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = np.asarray(self.values, dtype=float)[idx]
        return out

    def integral(self, a, b: float, power: int = 1):
        """Exact integral of f(t)**power over [a, b]; `a` may be an array of
        lower limits, which gives an array of integrals."""
        if np.ndim(a) == 0:
            return self._scalar_integral(float(a), float(b), power)
        lo = np.asarray(a, dtype=float)
        if np.any(lo > b):
            raise DomainError(f"integral bounds reversed: [{a}, {b}]")
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values) ** power
        # piece k runs over [bp[k], end[k]) once cut at b; rest[k] integrates end[k]..b
        end = np.minimum(np.append(bp[1:], np.inf), b)
        whole = vals * np.maximum(end - bp, 0.0)
        rest = np.append(np.cumsum(whole[:0:-1])[::-1], 0.0)
        k = np.clip(np.searchsorted(bp, lo, side="right") - 1, 0, len(bp) - 1)
        return vals[k] * (end[k] - lo) + rest[k]

    def _scalar_integral(self, a: float, b: float, power: int) -> float:
        """integral for one lower limit: one bisection and Python floats, with
        the array path's operations in its order, so the two agree bit for bit
        (numpy squares for power 2)."""
        if a > b:
            raise DomainError(f"integral bounds reversed: [{a}, {b}]")
        bp, n = self.breakpoints, len(self.breakpoints)
        vals = [v * v if power == 2 else v**power for v in self.values]

        def end(j):
            return min(bp[j + 1], b) if j + 1 < n else b

        k = max(bisect.bisect_right(bp, a) - 1, 0)
        rest = 0.0  # the pieces after k, summed from the last one down
        for j in range(n - 1, k, -1):
            piece = vals[j] * max(end(j) - bp[j], 0.0)
            rest = piece if j == n - 1 else rest + piece
        return vals[k] * (end(k) - a) + rest


def _as_function(x) -> PiecewiseConstant:
    if isinstance(x, PiecewiseConstant):
        return x
    return PiecewiseConstant.constant(float(x))


@dataclass(frozen=True)
class MarketParams:
    """Market coefficients on [0, T] plus initial wealth.

    Units: r, mu0, varrho are rates (1/time); sigma scales like 1/sqrt(time);
    T is a time; X0 a currency amount.
    """

    r: PiecewiseConstant
    mu0: PiecewiseConstant
    sigma: PiecewiseConstant
    varrho: PiecewiseConstant
    T: float
    X0: float

    def __post_init__(self):
        for name in ("r", "mu0", "sigma", "varrho"):
            object.__setattr__(self, name, _as_function(getattr(self, name)))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "X0", float(self.X0))

    def has_impact(self) -> bool:
        return any(v != 0.0 for v in self.varrho.values)

    def without_impact(self) -> "MarketParams":
        """The same market seen by a small trader: varrho = 0."""
        return replace(self, varrho=PiecewiseConstant.constant(0.0))

    def require_no_impact(self, what: str) -> None:
        if self.has_impact():
            raise ValidationError("impact_not_allowed", f"{what} requires varrho = 0")


class InsiderKind(Enum):
    NO_INSIDER = "none"
    INITIAL_ENLARGEMENT = "enlargement"


@dataclass(frozen=True)
class InsiderSpec:
    """Information regime.

    For INITIAL_ENLARGEMENT the trader knows Y0 = int_0^T0 phi dW from time
    zero; `phi_weight` is the deterministic weight (default constant 1) and T0
    the information horizon, strictly beyond the market horizon T.
    """

    kind: InsiderKind = InsiderKind.NO_INSIDER
    T0: float | None = None
    phi_weight: PiecewiseConstant = field(default_factory=lambda: PiecewiseConstant.constant(1.0))

    def __post_init__(self):
        object.__setattr__(self, "phi_weight", _as_function(self.phi_weight))
        if self.T0 is not None:
            object.__setattr__(self, "T0", float(self.T0))

    @classmethod
    def none(cls) -> "InsiderSpec":
        return cls(kind=InsiderKind.NO_INSIDER)

    @classmethod
    def enlargement(cls, T0: float, phi_weight=1.0) -> "InsiderSpec":
        return cls(kind=InsiderKind.INITIAL_ENLARGEMENT, T0=T0, phi_weight=_as_function(phi_weight))

    def has_signal(self) -> bool:
        return self.kind is InsiderKind.INITIAL_ENLARGEMENT

    def require_signal(self, what: str) -> None:
        if not self.has_signal():
            raise ValidationError("signal_required", f"{what} needs an insider signal")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full run configuration: market + insider + discretisation + RNG seed."""

    market: MarketParams
    insider: InsiderSpec
    robust: bool = True
    n_steps: int = 200
    n_paths: int = 10_000
    seed: int = 0


# -- derived symbol evaluation ------------------------------------------------


def _check_time(market: MarketParams, t) -> None:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > market.T):
        raise DomainError(f"time outside [0, {market.T}]")


def iota(market: MarketParams, t):
    """Market price of risk (mu0(t) - r(t)) / sigma(t)."""
    _check_time(market, t)
    return (market.mu0(t) - market.r(t)) / market.sigma(t)


def sigma_tilde(market: MarketParams, t):
    """Impact-adjusted volatility sigma(t) - 2*varrho(t)/sigma(t)."""
    _check_time(market, t)
    return market.sigma(t) - 2.0 * market.varrho(t) / market.sigma(t)


def phi_norm_sq(insider: InsiderSpec, s, t: float):
    """Exact int_s^t phi(u)^2 du of the signal weight; `s` may be an array."""
    return insider.phi_weight.integral(s, t, power=2)


def breakpoints(market: MarketParams, weight: PiecewiseConstant | None = None) -> list[float]:
    """Sorted breakpoints inside (0, T) of the coefficients, and of the signal
    weight when given: the inner ends of the pieces of [0, T] on which all of
    them are constant, where every time integral is exact."""
    fns = [market.r, market.mu0, market.sigma, market.varrho]
    if weight is not None:
        fns.append(weight)
    return sorted({b for fn in fns for b in fn.breakpoints if 0.0 < b < market.T})


# -- validation ---------------------------------------------------------------

# the lower bound eps that validate enforces on sigma
_SIGMA_FLOOR = 1e-6


def _validate_market(market: MarketParams) -> None:
    if not np.isfinite(market.T) or market.T <= 0.0:
        raise ValidationError("horizon_positive", f"T must be positive, got {market.T}")
    if not np.isfinite(market.X0) or market.X0 <= 0.0:
        raise ValidationError("wealth_positive", f"X0 must be positive, got {market.X0}")
    for name in ("r", "mu0", "sigma", "varrho"):
        fn: PiecewiseConstant = getattr(market, name)
        if not all(np.isfinite(v) for v in fn.values):
            raise ValidationError("coefficient_bounded", f"{name} must be finite on [0, T]")
    # check at the start of every piece, so every constant segment is covered
    for t in [0.0, *breakpoints(market)]:
        sig = market.sigma(t)
        rho = market.varrho(t)
        if sig < _SIGMA_FLOOR:
            raise ValidationError("sigma_floor", f"sigma({t}) = {sig} below floor {_SIGMA_FLOOR}")
        if rho < 0.0 or rho >= 0.5 * sig**2:
            raise ValidationError(
                "varrho_range", f"need 0 <= varrho < sigma^2/2, got varrho({t}) = {rho}"
            )


def _validate_insider(insider: InsiderSpec, T: float) -> None:
    if insider.kind is InsiderKind.NO_INSIDER:
        return
    if insider.T0 is None or not np.isfinite(insider.T0):
        raise ValidationError("t0_required", "enlargement requires a finite T0")
    if insider.T0 <= T:
        raise ValidationError("t0_after_horizon", f"need T0 > T, got T0 = {insider.T0}, T = {T}")
    if not all(np.isfinite(v) for v in insider.phi_weight.values):
        raise ValidationError("phi_bounded", "signal weight must be finite")
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned about
        tail, norm = (phi_norm_sq(insider, s, insider.T0) for s in (T, 0.0))
    if tail <= 0.0:
        raise ValidationError("phi_tail_norm", "signal weight must have mass on [T, T0]")
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValidationError(
            "phi_norm_finite", f"||phi_w||^2 on [0, T0] must be finite and positive, got {norm}"
        )


def validate(config: ScenarioConfig) -> None:
    """Raise ValidationError (with a machine-readable code) on any violation."""
    _validate_market(config.market)
    _validate_insider(config.insider, config.market.T)
    if config.n_steps < 2:
        raise ValidationError("n_steps_min", f"need n_steps >= 2, got {config.n_steps}")
    if config.n_paths < 1:
        raise ValidationError("n_paths_min", f"need n_paths >= 1, got {config.n_paths}")
    if not (0 <= int(config.seed) < 2**64):
        raise ValidationError("seed_range", "seed must fit in 64 bits")
