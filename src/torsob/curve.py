"""The critical 2D interpolation curve and its approximants.

The sharp constant in the borderline interpolation inequality on the
zero-mean 2-torus admits the parametric representation

    Theta(mu) = f(mu)^2 / (4 pi^2 g(mu)),    delta(mu) = h(mu) / g(mu),

over the admissible screening parameters mu in (-inf, -1] u (0, inf); the
map delta is strictly increasing in eps = 1/mu on [-1, inf), which makes
delta a global coordinate on the curve with range [1, inf).  This module
provides the exact curve, its inverse solve mu(delta), three closed-form
approximants (the logarithmic model theta0, its exponentially corrected
refinement, and the double-logarithmic asymptotic), the tangent-condition
sign check that orders the first two approximants, and the sharp additive
constant L of the double-log upper bound together with its maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import brentq, grid_max
from .errors import DomainError, TorsobError
from .lattice import (
    DEFAULT_CONFIG,
    PrecisionConfig,
    _z2_moment,
    beta_constant,
    critical_sums,
)

__all__ = [
    "ThetaSample",
    "LConstantReport",
    "MODELS",
    "FOUR_MODE_THETA",
    "delta_critical",
    "theta_point",
    "mu_of_delta",
    "theta_model",
    "tangent_condition",
    "gap",
    "find_L",
    "loglog_lower_constant",
]

MODELS = ("exact", "theta0", "exp_corrected", "loglog_asymptotic")

#: Theta at the degenerate endpoint delta = 1, where the extremal collapses
#: onto the four lowest modes |k| = 1: Theta = 1/pi^2.
FOUR_MODE_THETA = 1.0 / math.pi**2

_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class ThetaSample:
    """One point on (an approximation of) the curve delta -> Theta, with the
    Theta error bound propagated from the lattice sums (0.0 in closed form)."""

    mu: float
    delta: float
    theta: float
    model: str
    abs_error_bound: float

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise DomainError(f"ThetaSample: unknown model {self.model!r}")
        if not (self.delta >= 1.0 - 1e-12):
            raise DomainError(f"ThetaSample: delta must be >= 1, got {self.delta!r}")
        if not (self.theta > 0.0):
            raise DomainError(f"ThetaSample: theta must be positive, got {self.theta!r}")


@dataclass(frozen=True)
class LConstantReport:
    """Result of maximizing 4 pi Theta(delta) - log delta - log(1 + log delta)."""

    L: float
    delta_star: float
    mu_star: float
    lower_bound: float
    samples: tuple[ThetaSample, ...]

    def __post_init__(self) -> None:
        if not (self.L > self.lower_bound):
            raise DomainError("LConstantReport: L must exceed its lower bound")
        if not (math.isfinite(self.delta_star) and self.delta_star > 1.0):
            raise DomainError("LConstantReport: delta_star must be finite and > 1")


def delta_critical() -> float:
    """delta at eps = 1/mu = 0: the ratio of the fourth to the sixth
    inverse-power lattice moments."""
    return _z2_moment(2).value / _z2_moment(3).value


def loglog_lower_constant() -> float:
    """The proven lower bound (beta + pi)/pi for the double-log constant L."""
    return (beta_constant().value + math.pi) / math.pi


# ---------------------------------------------------------------------------
# exact curve
# ---------------------------------------------------------------------------


def theta_point(mu: float, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThetaSample:
    """Exact curve sample at screening parameter mu.

    mu = -1 is understood as the resonant limit: the extremal degenerates
    onto the |k| = 1 shell, giving delta = 1 and Theta = 1/pi^2 without any
    lattice summation.
    """
    if mu == -1.0:
        return ThetaSample(-1.0, 1.0, FOUR_MODE_THETA, "exact", 0.0)
    tr = critical_sums(mu, "auto", cfg)
    f, g = tr.f.value, tr.g.value
    theta = f * f / (_FOUR_PI_SQ * g)
    err = 2.0 * abs(f) * tr.f.abs_error_bound / (_FOUR_PI_SQ * g) + theta * tr.g.abs_error_bound / g
    return ThetaSample(mu, tr.h.value / g, theta, "exact", err)


def _solve_eps(delta: float, cfg: PrecisionConfig) -> float:
    """Solve delta(eps) = delta for eps in [-1, inf), where the map is
    strictly increasing."""
    dc = delta_critical()
    fun = lambda e: theta_point(1.0 / e, cfg).delta - delta
    if delta < dc:
        lo, hi = -1.0 + 1e-15, -1e-15
    else:
        # large-eps behaviour delta ~ eps/log(eps): bootstrap a bracket
        guess = delta * max(math.log(delta) + 2.0, 2.0)
        lo, hi = guess, guess
        for _ in range(200):
            if fun(lo) <= 0.0:
                break
            lo /= 1.9
        else:
            raise TorsobError(f"mu_of_delta: no lower bracket for delta={delta!r}")
        for _ in range(200):
            if fun(hi) >= 0.0:
                break
            hi *= 1.9
        else:
            raise TorsobError(f"mu_of_delta: no upper bracket for delta={delta!r}")
        if lo == hi:
            return lo
    eps = brentq(fun, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    achieved = theta_point(1.0 / eps, cfg).delta
    if abs(achieved - delta) > cfg.root_tol * max(delta, 1.0) + 1e-11 * delta:
        raise TorsobError(
            f"mu_of_delta: root residual {abs(achieved - delta):.3e} exceeds "
            f"tolerance at delta={delta!r}"
        )
    return eps


def mu_of_delta(delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Inverse of the exact parametric map: the mu with delta(mu) = delta.

    The solve runs in eps = 1/mu, where strict monotonicity holds; delta = 1
    returns the resonant endpoint mu = -1 exactly.
    """
    if not (delta >= 1.0):
        raise DomainError(f"mu_of_delta: need delta >= 1, got {delta!r}")
    if delta == 1.0:
        return -1.0
    eps = _solve_eps(delta, cfg)
    return 1.0 / eps


# ---------------------------------------------------------------------------
# closed-form approximants
# ---------------------------------------------------------------------------


def _theta0_pair(mu: float) -> tuple[float, float]:
    """(delta, Theta) for the logarithmic model at parameter mu > 0."""
    beta = beta_constant().value
    a = math.pi * math.log(1.0 / mu) + beta + mu
    b = math.pi * math.log(1.0 / mu) + beta - math.pi + 2.0 * mu
    delta = (math.pi / mu - 1.0) / b
    theta = a * a / (_FOUR_PI_SQ * b)
    return delta, theta


def _exp_pair(mu: float) -> tuple[float, float]:
    """(delta, Theta) for the exponentially corrected model at mu > 0."""
    beta = beta_constant().value
    ex = math.exp(-_TWO_PI / math.sqrt(mu))
    a = math.pi * math.log(1.0 / mu) + beta + mu - 4.0 * math.pi * mu**0.25 * ex
    b = (
        math.pi * math.log(1.0 / mu)
        + beta
        - math.pi
        + 2.0 * mu
        - 4.0 * math.pi**2 * mu**-0.25 * ex
    )
    delta = (math.pi / mu - 1.0 + 4.0 * math.pi**2 * mu**-1.25 * ex) / b
    theta = a * a / (_FOUR_PI_SQ * b)
    return delta, theta


# lazily verified monotone inversion state per approximant
_MODEL_RANGE: dict[str, tuple[float, float]] = {}  # tag -> (mu_min, mu_max)


def _model_pair(tag: str):
    return _theta0_pair if tag == "theta0" else _exp_pair


def _verify_model_range(tag: str, mu_min: float) -> tuple[float, float]:
    """Establish (and cache) a mu-interval on which the approximant's delta
    map is strictly decreasing, so that monotone inversion is justified.
    The upper end is the root of delta_model(mu) = 1, taken on the side
    where the map, evaluated through exp(log mu) as _invert_model does, is
    <= 1, so that delta = 1 itself inverts."""
    pair = _model_pair(tag)
    got = _MODEL_RANGE.get(tag)
    if got is not None and got[0] <= mu_min:
        return got
    if got:
        mu_max = got[1]
    else:
        mu_max = brentq(lambda m: pair(m)[0] - 1.0, 0.5, 3.0, xtol=1e-14)
        while pair(math.exp(math.log(mu_max)))[0] > 1.0:
            mu_max = math.nextafter(mu_max, math.inf)
    grid = np.exp(np.linspace(math.log(mu_min), math.log(mu_max), 512))
    deltas = np.array([pair(m)[0] for m in grid])
    if not np.all(np.diff(deltas) < 0.0):
        raise DomainError(
            f"theta_model({tag}): delta map not monotone on "
            f"[{mu_min:g}, {mu_max:g}]; inversion refused"
        )
    _MODEL_RANGE[tag] = (mu_min, mu_max)
    return mu_min, mu_max


def _invert_model(tag: str, delta: float) -> float:
    """mu with delta_model(mu) = delta, on the lazily verified range."""
    pair = _model_pair(tag)
    mu_min = _MODEL_RANGE.get(tag, (1e-6, None))[0]
    while pair(mu_min)[0] < delta:
        mu_min *= 0.1
        if mu_min < 1e-250:
            raise DomainError(
                f"theta_model({tag}): delta={delta!r} beyond invertible range"
            )
    mu_min, mu_max = _verify_model_range(tag, mu_min)
    return brentq(
        lambda lm: pair(math.exp(lm))[0] - delta,
        math.log(mu_min),
        math.log(mu_max),
        xtol=1e-14,
        rtol=8.9e-16,
        maxiter=200,
    )


def theta_model(
    model: str, delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> float:
    """Theta(delta) under the requested model.

    exact            -- invert the parametric curve and sum the lattice
    theta0           -- logarithmic closed form, inverted through its own
                        delta map (monotonicity verified before use)
    exp_corrected    -- exponentially corrected closed form, same scheme
    loglog_asymptotic-- (1/4pi)(log d + log log d + (beta+pi)/pi
                                + log log d / log d), requiring delta > 1
    """
    if model not in MODELS:
        raise DomainError(f"theta_model: unknown model {model!r}")
    if model == "loglog_asymptotic":
        if not (delta > 1.0):
            raise DomainError(
                "theta_model(loglog_asymptotic): requires delta > 1"
            )
        ld = math.log(delta)
        lld = math.log(ld)
        return (ld + lld + loglog_lower_constant() + lld / ld) / (4.0 * math.pi)
    if not (delta >= 1.0):
        raise DomainError(f"theta_model: need delta >= 1, got {delta!r}")
    if model == "exact":
        if delta == 1.0:
            return FOUR_MODE_THETA
        return theta_point(mu_of_delta(delta, cfg), cfg).theta
    lm = _invert_model(model, delta)
    return _model_pair(model)(math.exp(lm))[1]


def tangent_condition(mu: float) -> float:
    """Closed-form tangency expression whose negative sign certifies that
    the exponentially corrected model undercuts the logarithmic one locally.

    Valid (and expected negative) for mu in (0, 1).
    """
    if not (0.0 < mu < 1.0):
        raise DomainError(f"tangent_condition: need mu in (0, 1), got {mu!r}")
    beta = beta_constant().value
    lg = math.log(1.0 / mu)
    a = math.pi * lg + beta + mu
    b = math.pi * lg + beta - math.pi + 2.0 * mu
    c = (
        math.pi**2 * lg
        + math.pi * beta
        - 2.0 * math.pi**2
        + 5.0 * math.pi * mu
        - 2.0 * mu * mu
    )
    return -(a * c) / (2.0 * math.pi**2 * mu**1.5 * b**3)


def gap(delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Theta0(delta) - Theta(delta): the amount by which the logarithmic
    model overestimates the exact curve.

    The mathematical gap is nonnegative, but it falls exponentially in
    delta, and once it drops below the rounding of two O(1) floats the
    computed difference can be negative by a few ulp of Theta (down to
    -4.4e-16 for delta in [1.5, 1e3]).  No error bound is returned."""
    if not (delta >= 1.0):
        raise DomainError(f"gap: need delta >= 1, got {delta!r}")
    return theta_model("theta0", delta, cfg) - theta_model("exact", delta, cfg)


# ---------------------------------------------------------------------------
# the sharp double-log constant
# ---------------------------------------------------------------------------


def _loglog_objective(delta: float, theta: float) -> float:
    return 4.0 * math.pi * theta - (math.log(delta) + math.log1p(math.log(delta)))


def find_L(cfg: PrecisionConfig = DEFAULT_CONFIG) -> LConstantReport:
    """Maximize 4 pi Theta - log delta - log(1 + log delta) along the
    parametric curve, in x with eps = 1/mu = sinh(x): one monotone
    coordinate over both branches, where delta and Theta come from the same
    lattice sums and no point needs a root solve.  A 1000-point scan from
    x = asinh(-1) (the closed-form endpoint delta = 1) to asinh(700) (delta
    about 110; no point falls on eps = 0) is golden-polished in x to a
    bracket of ``cfg.maximizer_tol``; mu_star is the argmax itself.

    The tail delta > 100 is excluded after checking programmatically that
    the objective there stays clearly below the interior maximum, as the
    double-log expansion predicts.
    """
    samples: list[ThetaSample] = []

    def objective(x: float) -> float:
        # sinh(asinh(-1)) == -1.0 exactly, which theta_point takes as mu = -1
        sample = theta_point(1.0 / math.sinh(x), cfg)
        samples.append(sample)
        return _loglog_objective(sample.delta, sample.theta)

    xs = np.linspace(math.asinh(-1.0), math.asinh(700.0), 1000)
    values = np.array([objective(float(x)) for x in xs])
    x_star, _ = grid_max(objective, xs, values, xtol=cfg.maximizer_tol)
    if x_star in (xs[0], xs[-1]):
        raise TorsobError("find_L: maximum not interior to the search grid")
    mu_star = 1.0 / math.sinh(x_star)
    star = theta_point(mu_star, cfg)
    L = _loglog_objective(star.delta, star.theta)

    # programmatic tail exclusion: past the scan (delta about 149, 383 and
    # 1107) the objective has dropped and keeps decaying like
    # log log delta / log delta
    tail_vals = [objective(math.asinh(e)) for e in (1e3, 3e3, 1e4)]
    if not all(v < L - 0.05 for v in tail_vals):
        raise TorsobError("find_L: tail values do not stay below the maximum")
    if not (tail_vals[0] > tail_vals[1] > tail_vals[2]):
        raise TorsobError("find_L: tail of the objective is not decaying")

    return LConstantReport(
        L=L,
        delta_star=star.delta,
        mu_star=mu_star,
        lower_bound=loglog_lower_constant(),
        samples=tuple(samples),
    )
