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

Every lookup by delta, here and in :mod:`torsob.algebraic`, inverts a
monotone map through one bracketed solve, :func:`_delta_root`, and depends
only on its model, delta and configuration, never on earlier calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._optim import brentq, envelope_max
from .errors import DomainError, ToleranceUnreachableError
from .lattice import (
    DEFAULT_CONFIG,
    PrecisionConfig,
    SumTriple,
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
    """The maximum L of 4 pi Theta - log delta - log(1 + log delta), within abs_error_bound."""

    L: float
    delta_star: float
    mu_star: float
    lower_bound: float
    abs_error_bound: float

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


def _theta_sample(tr: SumTriple, d: int) -> ThetaSample:
    """The exact sample of a d-dimensional sharp curve at the parameter of
    the lattice sums tr: Theta = f^2/((2 pi)^d g) and delta = h/g, with the
    Theta bound propagated from the bounds of f and g."""
    f, g = tr.f.value, tr.g.value
    scale = _TWO_PI**d
    theta = f * f / (scale * g)
    err = 2.0 * abs(f) * tr.f.abs_error_bound / (scale * g) + theta * tr.g.abs_error_bound / g
    return ThetaSample(tr.mu, tr.h.value / g, theta, "exact", err)


def _tangent_row(tr: SumTriple, d: int, scale: float) -> tuple[tuple, ThetaSample]:
    """The sample of the sums tr and its :func:`envelope_max` row, Theta scaled
    by scale: weighted Cauchy-Schwarz on u(0) = sum u_k gives Theta <= f (1 +
    mu delta)/(2 pi)^d, tangent at h/g, with f moved out by its bound."""
    s = _theta_sample(tr, d)
    rel = tr.h.abs_error_bound / abs(tr.h.value) + tr.g.abs_error_bound / abs(tr.g.value)
    c0 = scale * (tr.f.value + math.copysign(tr.f.abs_error_bound, tr.mu)) / _TWO_PI**d
    delta_err = 1.05 * rel * s.delta + 4.0 * math.ulp(s.delta)
    return (scale * s.theta, scale * s.abs_error_bound, s.delta, delta_err, c0, c0 * tr.mu), s


def theta_point(mu: float, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThetaSample:
    """Exact curve sample at screening parameter mu.

    mu = -1 is understood as the resonant limit: the extremal degenerates
    onto the |k| = 1 shell, giving delta = 1 and Theta = 1/pi^2 without any
    lattice summation.
    """
    if mu == -1.0:
        return ThetaSample(-1.0, 1.0, FOUR_MODE_THETA, "exact", 0.0)
    return _theta_sample(critical_sums(mu, "auto", cfg), 2)


def _ladder(start: float, op, by: float, n: int = 200):
    """start and the n - 1 candidate ends after it, each op(previous, by)."""
    return itertools.islice(itertools.accumulate(itertools.repeat(by), op, initial=start), n)


def _delta_root(
    delta_at, delta: float, los, his, falling: bool, xtol: float, slack: float,
    name: str, check=None,
) -> float:
    """The coordinate x at which delta_at, monotone (falling if falling) and
    memoized, reaches delta.  The bracket ends are the first of los
    and of his not on the wrong side of delta (a NaN stops the search, and
    Brent's method rejects it); both iterables step outward and are finite.
    check(lo, hi), if given, sees the bracket before Brent's method runs;
    the root must reproduce delta within slack * delta.  A missing bracket
    or a larger residual raises :class:`ToleranceUnreachableError`."""
    sign = -1.0 if falling else 1.0
    fun = lambda x: delta_at(x) - delta  # noqa: E731
    lo = next((x for x in los if not sign * fun(x) > 0.0), None)
    if lo is None:
        raise ToleranceUnreachableError(f"{name}: no lower bracket for delta={delta!r}")
    hi = next((x for x in his if not sign * fun(x) < 0.0), None)
    if hi is None:
        raise ToleranceUnreachableError(f"{name}: no upper bracket for delta={delta!r}")
    if check is not None:
        check(lo, hi)
    x = brentq(fun, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=300)
    residual = abs(fun(x))
    if residual > slack * delta:
        raise ToleranceUnreachableError(
            f"{name}: root residual {residual:.3e} exceeds tolerance at delta={delta!r}"
        )
    return x


def _solve_eps(delta: float, cfg: PrecisionConfig) -> ThetaSample:
    """Solve delta(eps) = delta for eps in [-1, inf), where the map is
    strictly increasing, and return the curve sample at the root.  Each
    eps is summed once."""
    at = functools.cache(lambda e: theta_point(1.0 / e, cfg))
    if delta < delta_critical():
        los, his = (-1.0 + 1e-15,), (-1e-15,)
    else:
        # large-eps behaviour delta ~ eps/log(eps): bootstrap a bracket
        guess = delta * max(math.log(delta) + 2.0, 2.0)
        los, his = _ladder(guess, operator.truediv, 1.9), _ladder(guess, operator.mul, 1.9)
    return at(_delta_root(lambda e: at(e).delta, delta, los, his, False, 1e-15, 1e-11,
                          "mu_of_delta"))


def mu_of_delta(delta: float, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Inverse of the exact parametric map: the mu with delta(mu) = delta.

    The solve runs in eps = 1/mu, where strict monotonicity holds; delta = 1
    returns the resonant endpoint mu = -1 exactly.
    """
    if not (delta >= 1.0):
        raise DomainError(f"mu_of_delta: need delta >= 1, got {delta!r}")
    return _model_sample("exact", delta, cfg).mu


# ---------------------------------------------------------------------------
# closed-form approximants
# ---------------------------------------------------------------------------


def _log_coefficients(mu: float) -> tuple[float, float, float]:
    """(log(1/mu), a, b) of the logarithmic model at mu > 0:
    a = pi log(1/mu) + beta + mu and b = pi log(1/mu) + beta - pi + 2 mu."""
    beta = beta_constant().value
    lg = math.log(1.0 / mu)
    return lg, math.pi * lg + beta + mu, math.pi * lg + beta - math.pi + 2.0 * mu


def _theta0_pair(mu: float) -> tuple[float, float]:
    """(delta, Theta) for the logarithmic model at parameter mu > 0."""
    _, a, b = _log_coefficients(mu)
    delta = (math.pi / mu - 1.0) / b
    theta = a * a / (_FOUR_PI_SQ * b)
    return delta, theta


def _exp_pair(mu: float) -> tuple[float, float]:
    """(delta, Theta) for the exponentially corrected model at mu > 0: the
    logarithmic a and b less their e^{-2 pi/sqrt(mu)} corrections."""
    ex = math.exp(-_TWO_PI / math.sqrt(mu))
    if ex == 0.0:  # the corrections are exactly 0, and mu**-1.25 may overflow
        return _theta0_pair(mu)
    _, a, b = _log_coefficients(mu)
    a = a - 4.0 * math.pi * mu**0.25 * ex
    b = b - 4.0 * math.pi**2 * mu**-0.25 * ex
    delta = (math.pi / mu - 1.0 + 4.0 * math.pi**2 * mu**-1.25 * ex) / b
    theta = a * a / (_FOUR_PI_SQ * b)
    return delta, theta


# per approximant, the log-mu interval on which its delta map is verified
# monotone; its upper end is the root of delta_model = 1
_MODEL_RANGE: dict[str, tuple[float, float]] = {}


def _model_pair(tag: str):
    return _theta0_pair if tag == "theta0" else _exp_pair


def _verify_model_range(tag: str, lo: float = math.inf) -> float:
    """The log mu at which the approximant's delta map reaches 1, after a
    check that the map falls strictly on a 512-point grid from lo to there,
    unless a verified interval already reaches lo: monotone inversion is
    then justified.  The end is taken on the side where the map, evaluated
    through exp(log mu) as _invert_model does, is <= 1, so that delta = 1
    itself inverts."""
    pair = _model_pair(tag)
    if tag not in _MODEL_RANGE:
        mu_max = brentq(lambda m: pair(m)[0] - 1.0, 0.5, 3.0, xtol=1e-14)
        while pair(math.exp(math.log(mu_max)))[0] > 1.0:
            mu_max = math.nextafter(mu_max, math.inf)
        _MODEL_RANGE[tag] = (math.log(mu_max), math.log(mu_max))
    verified, hi = _MODEL_RANGE[tag]
    if lo < verified:
        deltas = np.array([pair(m)[0] for m in np.exp(np.linspace(lo, hi, 512))])
        if not np.all(np.diff(deltas) < 0.0):
            raise DomainError(
                f"theta_model({tag}): delta map not monotone on "
                f"[{math.exp(lo):g}, {math.exp(hi):g}]; inversion refused"
            )
        _MODEL_RANGE[tag] = (lo, hi)
    return hi


def _invert_model(tag: str, delta: float) -> float:
    """log mu with delta_model(mu) = delta, bracketed between the first of
    mu = 1e-6, 1e-7, ..., 1e-250 at or above delta and the root of
    delta_model = 1, on a verified range."""
    pair = _model_pair(tag)
    return _delta_root(
        functools.cache(lambda lm: pair(math.exp(lm))[0]), delta,
        map(math.log, _ladder(1e-6, operator.mul, 0.1, 245)), (_verify_model_range(tag),),
        True, 1e-14, 1e-11, f"theta_model({tag})",
        lambda lo, _: _verify_model_range(tag, lo),
    )


def _model_sample(model: str, delta: float, cfg: PrecisionConfig) -> ThetaSample:
    """The sample at which the exact curve or a closed-form model reaches
    delta >= 1: the root of its own solve, or the endpoint mu = -1."""
    if not (1.0 <= delta < math.inf):
        raise DomainError(f"theta_model: need finite delta >= 1, got {delta!r}")
    if model == "exact":
        return theta_point(-1.0) if delta == 1.0 else _solve_eps(delta, cfg)
    mu = math.exp(_invert_model(model, delta))
    dd, theta = _model_pair(model)(mu)
    return ThetaSample(mu, dd, theta, model, 0.0)


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
        if not (1.0 < delta < math.inf):
            raise DomainError(
                f"theta_model(loglog_asymptotic): need finite delta > 1, got {delta!r}"
            )
        ld = math.log(delta)
        lld = math.log(ld)
        return (ld + lld + loglog_lower_constant() + lld / ld) / (4.0 * math.pi)
    return _model_sample(model, delta, cfg).theta


def tangent_condition(mu: float) -> float:
    """Closed-form tangency expression whose negative sign certifies that
    the exponentially corrected model undercuts the logarithmic one locally.

    Valid (and expected negative) for mu in (0, 1); below about 1e-210
    the value leaves double range and :class:`DomainError` is raised.
    """
    if not (0.0 < mu < 1.0):
        raise DomainError(f"tangent_condition: need mu in (0, 1), got {mu!r}")
    beta = beta_constant().value
    lg, a, b = _log_coefficients(mu)
    c = (
        math.pi**2 * lg
        + math.pi * beta
        - 2.0 * math.pi**2
        + 5.0 * math.pi * mu
        - 2.0 * mu * mu
    )
    den = 2.0 * math.pi**2 * mu**1.5 * b**3
    value = -(a * c) / den if den else -math.inf  # mu**1.5 may underflow
    if not math.isfinite(value):
        raise DomainError(f"tangent_condition: value at mu={mu!r} is beyond double range")
    return value


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


def find_L(cfg: PrecisionConfig = DEFAULT_CONFIG) -> LConstantReport:
    """Maximize 4 pi Theta - log delta - log(1 + log delta) along the
    parametric curve, in x with eps = 1/mu = sinh(x): one monotone
    coordinate over both branches, where delta and Theta come from the same
    lattice sums and no point needs a root solve.

    :func:`~torsob._optim.envelope_max` runs on 32 seeds from asinh(-1)
    (delta = 1, excluded) to asinh(2e6) (delta about 1.4e5), down to 1e-9
    in x around its best sample, whose own values are L, delta_star and
    mu_star.  Below the first seed, its line less the concave logs is
    convex and bounds the objective by its value at 1.  Past the last,
    f(mu) = pi log(1/mu) + beta + mu - 2 pi b0(mu), with the image sum
    b0 = sum' K0 > 0, puts the line at mu = 1/(delta log delta) at most
    1 + c + (log log delta + c)/log delta, c = (beta + mu)/pi, decreasing
    for delta > 3.3.
    """
    rows_at: dict[float, tuple] = {}

    def probe(xs: np.ndarray) -> tuple:
        pairs = [_tangent_row(critical_sums(1.0 / math.sinh(x), "auto", cfg), 2, 4.0 * math.pi)
                 for x in xs]
        rows_at.update(zip(xs, (row for row, _ in pairs)))
        return tuple(zip(*pairs))

    xs = np.linspace(math.asinh(-1.0), math.asinh(2e6), 33)[1:]
    loglog = lambda delta: np.log(delta) + np.log1p(np.log(delta))  # noqa: E731
    star, lower, upper = envelope_max(probe, loglog, xs)
    L = 4.0 * math.pi * star.theta - (math.log(star.delta) + math.log1p(math.log(star.delta)))
    _, _, delta_hi, delta_err, _, _ = rows_at[xs[-1]]
    beta, ld = beta_constant(), math.log(delta_hi - delta_err)
    c = (beta.value + beta.abs_error_bound + 1.0 / ((delta_hi - delta_err) * ld)) / math.pi
    ends = max(sum(rows_at[xs[0]][4:]), 1.0 + c + (math.log(ld) + c) / ld)
    if not ends + 16.0 * math.ulp(ends) < lower:  # rounded outward
        raise ToleranceUnreachableError(
            f"find_L: the bound {ends!r} past the search does not fall below L"
        )
    return LConstantReport(
        L=L,
        delta_star=star.delta,
        mu_star=star.mu,
        lower_bound=loglog_lower_constant(),
        abs_error_bound=max(L - lower, upper - L),
    )
