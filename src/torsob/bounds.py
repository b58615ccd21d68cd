"""Elementary upper bounds for the critical interpolation constant.

Two textbook strategies bound the sharp curve Theta(delta) from above, and
both lose against it in a quantifiable way:

* the fractional-embedding route pays a factor that tends to the Lambert-W
  constant alpha ~ 1.544 in the squared-log leading term (and a factor e in
  the single-log form C(eps) delta^eps);
* the mode-splitting route, which cuts Fourier space at a radius N and
  optimizes N, recovers the correct log delta + log log delta shape and
  misses only in the additive constant.

This module computes the sharp embedding constant C(eps), the A/B
comparison at the extremals that exhibits the alpha loss, the closed form
of alpha itself, and the optimized mode-splitting bound P(delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import golden_min
from .errors import DomainError, ResourceLimitError, ToleranceUnreachableError
from .lattice import (
    DEFAULT_CONFIG,
    PrecisionConfig,
    TailDescriptor,
    _dot,
    _largest_two_squares,
    _partial_sums_at,
    _shells,
    _z2_moment,
    critical_sums,
    hardy_sum,
    tail_bracket,
)
from .specfun import lambert_w

__all__ = [
    "ElementaryComparison",
    "embedding_constant",
    "elementary_comparison",
    "alpha_constant",
    "mode_splitting_bound",
    "first_method_bound",
]

_FOUR_PI_SQ = 4.0 * math.pi**2

#: search interval for the eps-infimum (the infimum sits at small eps, but
#: never at 0 where C blows up)
_EPS_LO, _EPS_HI = 1e-4, 0.5


def embedding_constant(eps: float) -> float:
    """Sharp constant C(eps) of the fractional embedding controlling the
    sup norm: C(eps) = (sum' |k|^{-2(1+eps)})/(4 pi^2) = 1/(4 pi eps) + O(1)."""
    if not (eps > 0.0):
        raise DomainError(f"embedding_constant: need eps > 0, got {eps!r}")
    return hardy_sum(eps).value / _FOUR_PI_SQ


@dataclass(frozen=True)
class ElementaryComparison:
    """A(mu) = f(mu)^2 (what the extremal achieves) against the best
    fractional-embedding bound B(mu) for the same quantity."""

    mu: float
    A: float
    B: float
    eps_argmin: float

    def __post_init__(self) -> None:
        if self.B < self.A * (1.0 - 1e-9):
            raise DomainError(
                "ElementaryComparison: B must upper-bound A "
                f"(got A={self.A!r}, B={self.B!r})"
            )


def _mixed_sum(mu: float, eps: float, cfg: PrecisionConfig) -> float:
    """sum' of |k|^{-2(1-eps)}/(1 + mu |k|^2): the mixed norm driving the
    B side, summed directly with a rigorous tail bracket."""
    radius = int(max(96, math.ceil(3.0 / math.sqrt(mu)) + 2))
    if radius > 3400:
        raise ToleranceUnreachableError(
            f"elementary_comparison: mu={mu:g} needs a tail radius beyond the "
            "point budget"
        )
    q, c = _shells(2, radius)
    desc = TailDescriptor(kind="hardy_mixed", mu=mu, eps=eps)
    body = _dot(c, desc.evaluate(q))
    lo, hi = tail_bracket(float(radius), desc, cfg)
    return body + 0.5 * (lo + hi)


def elementary_comparison(
    mu: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> ElementaryComparison:
    """Compare A(mu) = f(mu)^2 with B(mu) = inf_eps C(eps) * (mixed norm).

    The infimum is a golden-section search in log eps over [1e-4, 1/2]; as
    mu decreases, B/A tends to the Lambert-W constant alpha.
    """
    if not (0.0 < mu <= 0.5):
        raise DomainError(f"elementary_comparison: need mu in (0, 0.5], got {mu!r}")
    f = critical_sums(mu, "auto", cfg).f.value
    A = f * f

    def objective(log_eps: float) -> float:
        eps = math.exp(log_eps)
        return hardy_sum(eps).value * _mixed_sum(mu, eps, cfg)

    log_eps, B = golden_min(
        objective, math.log(_EPS_LO), math.log(_EPS_HI), xtol=1e-6
    )
    return ElementaryComparison(mu=mu, A=A, B=B, eps_argmin=math.exp(log_eps))


def alpha_constant() -> float:
    """The loss factor alpha = (e^{W(-2e^-2)+2} - 1)/(W(-2e^-2)+2)^2 of the
    fractional-embedding route (W = principal Lambert branch); ~1.5441."""
    w = lambert_w(0, -2.0 * math.exp(-2.0)).value
    t = w + 2.0
    return (math.exp(t) - 1.0) / (t * t)


# ---------------------------------------------------------------------------
# mode splitting
# ---------------------------------------------------------------------------

_EXACT_ENUM_LIMIT = 1e5  # N*^2 below this: enumerate every representable radius
_POINT_CAP = 4e9  # squared-radius cap for the candidate sweep


def mode_splitting_bound(delta: float) -> tuple[float, float]:
    """The optimized split bound P(delta) and its minimizing cut radius.

    P(delta) = (1/4 pi^2) min_N (sqrt(S_low(N)) + sqrt(delta) sqrt(S_high(N)))^2
    with S_low = sum over 0 < |k| <= N of |k|^-2 and S_high the complementary
    |k|^-4 tail.  Both sums are step functions of N, so only exact shell
    radii (squared norms representable as a sum of two squares) are cuts;
    ties break toward the smaller radius.  With n*^2 = delta log delta, the
    minimum runs over every shell radius with N^2 <= max(16 n*^2, 400)
    while n*^2 < 1e5, by running sums over the shell table (S_high as
    Z2(2) less the whole table plus the shells above each cut, smallest
    first).  Above that it runs over the integer points of a geometric grid
    of 700 points on [n*^2/6, 6 n*^2], where both sums equal those of the
    shell at or below, from the row kernel :func:`~torsob.lattice._partial_sums_at`:
    each lattice row closed in k2 less its Euler-Maclaurin tail (first
    omitted term below 2.5e-16 of the tail), the rows past the cut as
    pi zeta(3, isqrt(N^2) + 1), and S_high summed from its own terms.  Only
    the winning point is snapped to its shell.  Returns (P, N_min).
    """
    if not (delta >= 1.0):
        raise DomainError(f"mode_splitting_bound: need delta >= 1, got {delta!r}")
    n_star2 = delta * math.log(max(delta, 2.0))
    if 6.0 * n_star2 > _POINT_CAP:
        raise ResourceLimitError(
            f"mode_splitting_bound: delta={delta:g} needs cut radii beyond "
            "the lattice point budget"
        )
    if n_star2 < _EXACT_ENUM_LIMIT:
        # every shell is a cut: cumulative sums over the cached shell table
        m_cap = int(max(16.0 * n_star2, 400.0))
        q, c = _shells(2, math.isqrt(m_cap) + 1)
        n = int(np.searchsorted(q, float(m_cap), side="right"))
        cands, c = q[:n], c[:n]
        S2 = np.cumsum(c / cands)
        t4 = c / (cands * cands)
        # the |k|^-4 tail above each cut, summed smallest term first; the
        # complement Z2(2) - cumsum would lose the small tail to cancellation
        tail = np.zeros(n)
        tail[:-1] = np.cumsum(t4[:0:-1])[::-1]
        S_high = (_z2_moment(2).value - math.fsum(t4)) + tail
    else:
        # ties go to the first, smallest point, and so to the smaller shell
        raw = np.geomspace(n_star2 / 6.0, 6.0 * n_star2, 700).astype(np.int64)
        cands = np.unique(raw).astype(np.float64)
        S2, S_high = _partial_sums_at(cands)
    S_high = np.maximum(S_high, 0.0)
    vals = (np.sqrt(S2) + math.sqrt(delta) * np.sqrt(S_high)) ** 2 / _FOUR_PI_SQ
    i = int(np.argmin(vals))
    return float(vals[i]), math.sqrt(_largest_two_squares(int(cands[i])))


def first_method_bound(delta: float) -> float:
    """The single-log bound min over eps of C(eps) delta^eps; for large
    delta this exceeds (1/4 pi) log delta by a factor tending to e."""
    if not (delta >= 1.0):
        raise DomainError(f"first_method_bound: need delta >= 1, got {delta!r}")

    def objective(log_eps: float) -> float:
        eps = math.exp(log_eps)
        return embedding_constant(eps) * delta**eps

    _, val = golden_min(objective, math.log(_EPS_LO), math.log(_EPS_HI), xtol=1e-8)
    return val
