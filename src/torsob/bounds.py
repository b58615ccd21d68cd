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
from itertools import chain

import numpy as np

from ._optim import golden_min
from .errors import DomainError, ResourceLimitError, ToleranceUnreachableError
from .lattice import (
    DEFAULT_CONFIG,
    PrecisionConfig,
    _dot,
    _largest_two_squares,
    _partial_sums_at,
    _SHELL_BLOCK,
    _screened_tail,
    _shell_block,
    _shells,
    _z2_moment,
    critical_sums,
    hardy_sum,
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


def _mixed_sum(mu: float, eps: float, cfg: PrecisionConfig) -> tuple[float, float]:
    """M(mu, eps) = sum' |k|^{-2(1-eps)}/(1 + mu |k|^2), the mixed norm of
    the B side, and its error bound.

    The shells up to T = max(48, 8/sqrt(mu) + 1), or cfg.max_radius if
    that is smaller, are summed directly.  Past T, x = mu |k|^2 >= mu T^2
    >= 9, and :func:`~torsob.lattice._screened_tail` with weight exponent
    s = 1 - eps completes the sum by the 1/x expansion on clipped tail
    moments, down to cfg.target_abs_tol/12.
    """
    T = min(max(48, int(8.0 / math.sqrt(mu)) + 1), cfg.max_radius)
    if mu * T * T < 9.0:
        raise ToleranceUnreachableError(
            f"elementary_comparison: mu={mu:g} needs a radius beyond "
            f"max_radius={cfg.max_radius}"
        )
    q, c = _shells(2, T)
    value = _dot(c, q ** (eps - 1.0) / (1.0 + mu * q))
    value, _, _, ctrl, floor = _screened_tail(
        2, 1, 1.0 - eps, mu, T, cfg.target_abs_tol / 12.0, {}, value
    )
    return value, ctrl[0] + floor[0]


def elementary_comparison(
    mu: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> ElementaryComparison:
    """Compare A(mu) = f(mu)^2 with B(mu) = inf_eps C(eps) * M(mu, eps).

    M is the mixed norm of :func:`_mixed_sum`: shells up to about 8/sqrt(mu)
    and the tail by the 1/x expansion on clipped tail moments.  Its stated
    bound, set by the moments' subtraction noise times mu^{-m}, is 8.9e-12
    at the argmin for mu = 0.3 and 6.6e-8 at mu = 0.01, eps = 0.1.  The infimum
    is a golden-section search in log eps over [1e-4, 1/2]; as mu
    decreases, B/A tends to the Lambert-W constant alpha.
    """
    if not (0.0 < mu <= 0.5):
        raise DomainError(f"elementary_comparison: need mu in (0, 0.5], got {mu!r}")
    f = critical_sums(mu, "auto", cfg).f.value
    A = f * f

    def objective(log_eps: float) -> float:
        eps = math.exp(log_eps)
        return hardy_sum(eps).value * _mixed_sum(mu, eps, cfg)[0]

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
    while n*^2 < 1e5, by two passes that stream the shells block by block
    and keep no table (:func:`_split_over_shells`: S_high as Z2(2) less
    every shell up to the last cut, plus the shells above each cut,
    smallest first); the winning cut is itself a shell.  Above that it
    runs over the integer points of a geometric grid of 700 points on
    [n*^2/6, 6 n*^2], where both sums equal those of the
    shell at or below, from the row kernel :func:`~torsob.lattice._partial_sums_at`:
    each lattice row closed in k2 less its Euler-Maclaurin tail (first
    omitted term below 2.5e-16 of the tail), the rows past the cut as
    pi zeta(3, isqrt(N^2) + 1), and S_high summed from its own terms.  Only
    the winning point is snapped to its shell.  Returns (P, N_min).
    """
    if not (1.0 <= delta < math.inf):
        raise DomainError(f"mode_splitting_bound: need finite delta >= 1, got {delta!r}")
    n_star2 = delta * math.log(max(delta, 2.0))
    if 6.0 * n_star2 > _POINT_CAP:
        raise ResourceLimitError(
            f"mode_splitting_bound: delta={delta:g} needs cut radii beyond "
            "the lattice point budget"
        )
    if n_star2 < _EXACT_ENUM_LIMIT:
        return _split_over_shells(delta, int(max(16.0 * n_star2, 400.0)))
    # ties go to the first, smallest point, and so to the smaller shell
    raw = np.geomspace(n_star2 / 6.0, 6.0 * n_star2, 700).astype(np.int64)
    cands = np.unique(raw).astype(np.float64)
    vals = _split_objective(delta, *_partial_sums_at(cands))
    i = int(np.argmin(vals))
    return float(vals[i]), math.sqrt(_largest_two_squares(int(cands[i])))


def _split_objective(delta: float, S2: np.ndarray, S_high: np.ndarray) -> np.ndarray:
    """P's objective at cuts with sums S_low = S2 and S_high."""
    S_high = np.maximum(S_high, 0.0)
    return (np.sqrt(S2) + math.sqrt(delta) * np.sqrt(S_high)) ** 2 / _FOUR_PI_SQ


def _split_over_shells(delta: float, m_cap: int) -> tuple[float, float]:
    """(P, N) of the split objective minimized over every shell q <= m_cap.

    Two passes stream the blocks of :func:`~torsob.lattice._shell_block`
    over (0, m_cap] and keep no table.  The ascending one records S_low
    below each block and sums the |k|^-4 terms exactly (math.fsum); the
    descending one sums the |k|^-4 tail above each cut, smallest term first
    (the complement Z2(2) - running sum would lose the small tail to
    cancellation), and keeps the first minimum.  Each running sum is an
    np.cumsum with the carry of the blocks before it prepended, so every cut
    sees the additions, in the order, of one cumsum over the whole table.
    """
    blocks = [(lo, min(lo + _SHELL_BLOCK, m_cap)) for lo in range(0, m_cap, _SHELL_BLOCK)]
    carries = []  # S_low below each block

    def t4_terms():
        s2 = 0.0
        for lo, hi in blocks:
            carries.append(s2)
            q, c = _shell_block(2, lo, hi)
            s2 = float(np.cumsum(np.concatenate(([s2], c / q)))[-1])
            yield (c / (q * q)).tolist()

    beyond = _z2_moment(2).value - math.fsum(chain.from_iterable(t4_terms()))
    best, cut, tail = math.inf, 0.0, 0.0  # tail: the |k|^-4 sum above the block
    for (lo, hi), s2 in zip(blocks[::-1], carries[::-1]):
        q, c = _shell_block(2, lo, hi)
        if not len(q):
            continue
        t4 = c / (q * q)
        S2 = np.cumsum(np.concatenate(([s2], c / q)))[1:]
        above = np.cumsum(np.concatenate(([tail], t4[:0:-1])))[::-1]
        tail = float(above[0] + t4[0])
        vals = _split_objective(delta, S2, beyond + above)
        i = int(np.argmin(vals))
        if vals[i] <= best:  # ties go to the lower block
            best, cut = float(vals[i]), float(q[i])
    return best, math.sqrt(cut)


def first_method_bound(delta: float) -> float:
    """The single-log bound min over eps of C(eps) delta^eps; for large
    delta this exceeds (1/4 pi) log delta by a factor tending to e."""
    if not (1.0 <= delta < math.inf):
        raise DomainError(f"first_method_bound: need finite delta >= 1, got {delta!r}")

    def objective(log_eps: float) -> float:
        eps = math.exp(log_eps)
        return embedding_constant(eps) * delta**eps

    _, val = golden_min(objective, math.log(_EPS_LO), math.log(_EPS_HI), xtol=1e-8)
    return val
