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
    _dot,
    _partial_sums_at,
    _SHELL_BLOCK,
    _screened_tail,
    _shell_block,
    _shells,
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

#: search interval for elementary_comparison's eps-infimum (the infimum sits
#: at small eps, but never at 0 where C blows up)
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

_EXACT_ENUM_LIMIT = 1e5  # n*^2 from this on: prune the shell blocks before streaming
_POINT_CAP = 4e9  # cap on 6 n*^2, the longest cut the pruning seeds the row kernel with
_SEED_ENDS = 32  # geometric block ends on [n*^2/6, 6 n*^2] the pruning starts from
#: a block survives while its bracket is within this of the best evaluated
#: cut; the kernel's sums are within 1e-15 relative
_BRACKET_SLACK = 1e-12


def mode_splitting_bound(delta: float) -> tuple[float, float]:
    """The optimized split bound P(delta) and its minimizing cut radius.

    P(delta) = (1/4 pi^2) min_N (sqrt(S_low(N)) + sqrt(delta) sqrt(S_high(N)))^2
    with S_low = sum over 0 < |k| <= N of |k|^-2 and S_high the complementary
    |k|^-4 tail.  Both sums are step functions of N, so only exact shell
    radii (squared norms representable as a sum of two squares) are cuts;
    ties break toward the smaller radius.  The cut sums come from the row
    kernel :func:`~torsob.lattice._partial_sums_at`: each lattice row closed
    in k2 less its Euler-Maclaurin tail (first omitted term below 2.5e-16
    of the tail), the rows past the cut as pi zeta(3, isqrt(N^2) + 1), and
    S_high summed from its own terms, never as Z2(2) less a partial sum.
    With n*^2 = delta log delta, the minimum runs over every shell radius
    with N^2 <= m_cap = max(16 n*^2, 100^2), streamed block by block from
    the kernel's sums at the block starts (:func:`_split_over_shells`); the
    winning cut is itself a shell.

    While n*^2 < 1e5 every block is streamed.  From there on the blocks
    are pruned first.  The kernel gives a = S_low and b = S_high at a few
    dozen geometric block ends on [n*^2/6, 6 n*^2].  A cut m in
    (m_i, m_j] between two of them has S_low(m) = a_i + X with X >= 0, and
    each shell q > m_i that adds c/q to S_low takes c/q^2 < (c/q)/m_i from
    S_high, so S_high(m) >= max(b_i - X/m_i, b_j).  The objective on that bound is
    concave in X up to the kink X = m_i (b_i - b_j) and increasing past
    it, so every cut of the gap has

        4 pi^2 P(m) >= min(4 pi^2 P(m_i), (sqrt(a_i + m_i (b_i - b_j)) + sqrt(delta b_j))^2),

    whose slack is second order in the gap width.  The outer gaps take no
    kernel call at their outer ends: with m_i = 0 the bracket is
    delta S_high(m_j), and b_j = 0 bounds S_high up to m_cap.  Every gap
    whose bracket is within 1e-12 of the best evaluated cut is bisected at
    a block end until it is one block wide; only the surviving blocks are
    streamed.  Returns (P, N_min).
    """
    if not (1.0 <= delta < math.inf):
        raise DomainError(f"mode_splitting_bound: need finite delta >= 1, got {delta!r}")
    n_star2 = delta * math.log(max(delta, 2.0))
    if 6.0 * n_star2 > _POINT_CAP:
        raise ResourceLimitError(
            f"mode_splitting_bound: delta={delta:g} needs row-kernel cuts up "
            f"to 6 n*^2 = {6.0 * n_star2:.3g}, beyond its budget"
        )
    m_cap = int(max(16.0 * n_star2, 1e4))
    if n_star2 < _EXACT_ENUM_LIMIT:
        return _split_over_shells(delta, 0, m_cap)
    # block end k is min(k B, m_cap); ends 0 and m_cap are not evaluated
    seeds = np.geomspace(n_star2 / 6.0, 6.0 * n_star2, _SEED_ENDS) // _SHELL_BLOCK
    seeds = np.unique(seeds[seeds > 0]).astype(np.int64)
    k = np.concatenate(([0], seeds, [-(-m_cap // _SHELL_BLOCK)]))
    m = np.minimum(k * _SHELL_BLOCK, m_cap)
    a, b = (np.concatenate(([0.0], s, [0.0])) for s in _partial_sums_at(m[1:-1]))
    f = np.concatenate(([math.inf], _split_objective(delta, a[1:-1], b[1:-1]), [math.inf]))
    while True:
        kink = a[:-1] + m[:-1] * (b[:-1] - b[1:])
        bracket = np.minimum(f[:-1], _split_objective(delta, kink, b[1:]))
        live = bracket <= f.min() * (1.0 + _BRACKET_SLACK)
        wide = live & (np.diff(k) > 1)
        if not wide.any():
            break
        k_new = (k[:-1][wide] + k[1:][wide]) // 2
        m_new = np.minimum(k_new * _SHELL_BLOCK, m_cap)
        a_new, b_new = _partial_sums_at(m_new)
        order = np.argsort(np.concatenate((k, k_new)))
        k, m, a, b, f = (
            np.concatenate(pair)[order]
            for pair in ((k, k_new), (m, m_new), (a, a_new), (b, b_new),
                         (f, _split_objective(delta, a_new, b_new)))
        )
    # stream each run of adjacent surviving blocks; ties go to the lower run
    gaps = np.flatnonzero(live)
    first = np.concatenate(([True], np.diff(gaps) > 1))
    last = np.concatenate((first[1:], [True]))
    best, cut = math.inf, 0.0
    for lo, hi in zip(m[gaps[first]], m[gaps[last] + 1]):
        P, N = _split_over_shells(delta, int(lo), int(hi))
        if P < best:
            best, cut = P, N
    return best, cut


def _split_objective(delta: float, S2: np.ndarray, S_high: np.ndarray) -> np.ndarray:
    """P's objective at cuts with sums S_low = S2 and S_high."""
    S_high = np.maximum(S_high, 0.0)
    return (np.sqrt(S2) + math.sqrt(delta) * np.sqrt(S_high)) ** 2 / _FOUR_PI_SQ


def _split_over_shells(delta: float, m_lo: int, m_cap: int) -> tuple[float, float]:
    """(P, N) of the split objective minimized over every shell q in
    (m_lo, m_cap] (m_lo = 0 or a multiple of _SHELL_BLOCK of at least
    100^2, m_cap >= 100^2); (inf, 0) if there is none.

    One descending pass streams the blocks of
    :func:`~torsob.lattice._shell_block` over (m_lo, m_cap] and keeps no
    table.  One call of the row kernel
    :func:`~torsob.lattice._partial_sums_at` on the block starts (from
    m_lo on, where S_low is 0 for m_lo = 0) and on m_cap gives S_low below
    each block and the |k|^-4 tail above the top, so neither sum is taken
    as a difference.  Within a block, S_low runs up from its start and
    S_high down from the block above, smallest term first, each one
    np.cumsum with its carry prepended; the first minimum is kept.
    """
    starts = range(m_lo, m_cap, _SHELL_BLOCK)
    cuts = [*starts[1:], m_cap]
    if m_lo:
        cuts.insert(0, m_lo)
    S2_at, S_high_at = _partial_sums_at(np.array(cuts, dtype=np.float64))
    lows = [*S2_at[:-1]] if m_lo else [0.0, *S2_at[:-1]]  # S_low below each block
    best, cut, tail = math.inf, 0.0, float(S_high_at[-1])  # tail: |k|^-4 above the block
    for lo, s2 in zip(starts[::-1], lows[::-1]):
        q, c = _shell_block(2, lo, min(lo + _SHELL_BLOCK, m_cap))
        if not len(q):
            continue
        t4 = c / (q * q)
        S2 = np.cumsum(np.concatenate(([s2], c / q)))[1:]
        above = np.cumsum(np.concatenate(([tail], t4[:0:-1])))[::-1]
        tail = float(above[0] + t4[0])
        vals = _split_objective(delta, S2, above)
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

    # the bound holds for every eps in (0, 1] (Cauchy-Schwarz with weight
    # |k|^{2(1+eps)}, then Holder between the |k|^2 and |k|^4 norms); below
    # delta ~ 3.9 the argmin lies above 1/2, and below ~ 1.62 at the end
    # eps = 1, which golden_min never evaluates
    _, val = golden_min(objective, math.log(_EPS_LO), 0.0, xtol=1e-8)
    return min(val, objective(0.0))
