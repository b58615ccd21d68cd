"""Lattice sums over Z^d punctured at the origin.

This module owns every infinite lattice sum in the package:

* the 2D critical triple  f(mu) = sum' 1/(k^2(1+mu k^2)),
  g(mu) = sum' 1/(k^2(1+mu k^2)^2),  h(mu) = sum' 1/(1+mu k^2)^2,
  with two independent evaluation routes (direct summation with rigorous
  integral-sandwich tails, and an exponentially convergent Bessel-image
  form valid for mu > 0);
* the general algebraic triple for exponent pairs (d, n) with 2n - d > 0:
  f = sum' 1/(1+mu|k|^{2n}),  g = sum' 1/(1+mu|k|^{2n})^2,
  h = (f - g)/mu = sum' |k|^{2n}/(1+mu|k|^{2n})^2;
* the Hardy-factorized sum  sum' |k|^{-2(1+eps)} = 4 zeta(1+eps) beta(1+eps)
  over Z^2;
* partial sums, rigorous tail brackets, and sum-of-two-squares counting.

Four kernels sit under these sums, each written once: the shell table
(:func:`_shells`, distinct |k|^2 with multiplicities, grown annulus by
annulus from :func:`_shell_block`, which counts fixed blocks of squared
norms), the full-lattice moments (:func:`_full_moment`: 2 zeta(2j) for
d = 1, 4 zeta(j) beta(j) for d = 2, literals and a direct shell sum for
d = 3), the tail moments taken as full-lattice moment minus partial sum,
clipped into their integral bracket (:func:`_clipped_moment`), and the
screened tail (:func:`_screened_tail`).  Every dot product (BLAS call) of
the package goes through :func:`_dot`, whose summation order does not
depend on the BLAS thread count.

Error accounting: every returned component carries an absolute error bound
assembled from its tail error, explicit bounds on omitted expansion orders,
and a rounding allowance proportional to the accumulated magnitude.  Three
mechanisms close a tail past an enumeration radius: the cell sandwich
(:func:`_power_tail_bracket`; :func:`tail_bracket` scales it by a screen's
envelope) puts a power tail sum' |k|^-p between two closed-form integrals
over annuli that cover the lattice cells; the clipped moments
(:func:`_clipped_moment`) subtract a partial sum from the full-lattice
moment and charge the noise of that cancellation, near 1e-14 of the
moment, whenever it is below the sandwich width; and one function,
:func:`_screened_tail`, completes every direct sum
sum' q^{-s} (1 + mu q^n)^{-p} (the critical triple with s = 1, n = 1, the
(d, n) triple with s = 0, and the mixed norm of :mod:`torsob.bounds` with
s = 1 - eps).  With x = mu q^n large on the tail, it expands
1/(1 + x) = sum_m (-1)^{m+1} x^{-m} into moments and bounds the omitted
orders by the first of them, times a geometric factor, for either sign of
mu; :func:`_shell_sums` sums the same terms over the shells up to the
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError, ToleranceUnreachableError
from .specfun import (
    _BESSEL_REL_BOUND,
    EULER_GAMMA,
    SpecialValue,
    _bessel_k01,
    _hurwitz_zeta,
    zeta_dirichlet,
)

__all__ = [
    "PrecisionConfig",
    "DEFAULT_CONFIG",
    "SumTriple",
    "CaseDN",
    "critical_sums",
    "general_sums",
    "hardy_sum",
    "beta_constant",
    "tail_bracket",
    "r2_count",
    "next_representable",
    "is_representable",
]


# ---------------------------------------------------------------------------
# configuration and result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionConfig:
    """The accuracy target and the enumeration cap of the lattice sums."""

    target_abs_tol: float = 1e-12
    max_radius: int = 6000

    def __post_init__(self) -> None:
        if not self.target_abs_tol > 0:
            raise DomainError("PrecisionConfig: target_abs_tol must be positive")
        if self.max_radius < 8:
            raise DomainError("PrecisionConfig: max_radius must be >= 8")


DEFAULT_CONFIG = PrecisionConfig()


@dataclass(frozen=True)
class SumTriple:
    """The (f, g, h) triple at one parameter value, with error bounds."""

    mu: float
    f: SpecialValue
    g: SpecialValue
    h: SpecialValue
    method: str  # "direct" or "accelerated"


@dataclass(frozen=True)
class CaseDN:
    """Dimension/derivative-order pair (d, n); admissible iff 2n - d > 0."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and isinstance(self.n, int)):
            raise DomainError("CaseDN: d and n must be integers")
        if self.d < 1 or self.n < 1:
            raise DomainError("CaseDN: d and n must be positive")
        if 2 * self.n - self.d <= 0:
            raise DomainError(
                f"CaseDN: inadmissible pair (d={self.d}, n={self.n}); need 2n - d > 0"
            )


# ---------------------------------------------------------------------------
# the one dot product of the package
# ---------------------------------------------------------------------------

# OpenBLAS's ddot runs on one thread for n <= 10000 and splits longer
# vectors over its thread pool, which changes the summation order
_DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i of two 1-D float64 arrays, in an order fixed by the
    code and not by the BLAS thread count.

    The vectors are cut into blocks of _DOT_BLOCK, each reduced by np.dot
    (one thread, so its order is the kernel's), and the block partials are
    added exactly by math.fsum and rounded once; up to _DOT_BLOCK elements
    there is one block, and the result is np.dot's (but for the sign of a
    zero sum).  In any order, with u = 2^-53 and B = min(n, _DOT_BLOCK),

        |_dot(a, b) - a.b| <= u |a.b| + (1 + u) gamma_B sum_i |a_i b_i|,

    gamma_B = B u / (1 - B u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.1 and 4.2).
    """
    return math.fsum(
        float(np.dot(a[s : s + _DOT_BLOCK], b[s : s + _DOT_BLOCK]))
        for s in range(0, len(a), _DOT_BLOCK)
    )


# ---------------------------------------------------------------------------
# shell enumeration (cached): distinct squared radii with multiplicities
# ---------------------------------------------------------------------------

_SHELL_CACHE: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}

# point-count safety caps per dimension for a single enumeration
_POINT_BUDGET = {1: 40_000_000, 2: 150_000_000, 3: 40_000_000}
_MAX_BESSEL_TERMS = 200_000  # image-point cap of the accelerated critical sums


def _budget_radius(d: int) -> int:
    """Largest enumeration radius whose (2T+1)^d box fits the point budget."""
    return int((_POINT_BUDGET[d] ** (1.0 / d) - 1.0) / 2.0)


def _shells(d: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct squared norms q = |k|^2 with 0 < q <= radius^2 and their
    multiplicities, for k in Z^d.  Cached per dimension; the cache only
    grows.

    A radius within the cached one is a slice of the cached table.  A larger
    one appends the annulus :func:`_shell_block` (d, r0^2, radius^2) to the
    cached table of radius r0 (r0 = 0 when there is none), so each squared
    norm is enumerated once per session, in scratch of one block whatever
    the radius.  The counts are exact integers in float64, so growing by
    any ladder of radii gives the table that one build at the final radius
    gives, byte for byte."""
    radius = int(radius)
    cached = _SHELL_CACHE.get(d)
    if cached is not None and cached[0] >= radius:
        _, q, c = cached
        cut = np.searchsorted(q, radius * radius, side="right")
        return q[:cut], c[:cut]
    if d > 1 and (2 * radius + 1) ** d > _POINT_BUDGET[d]:
        raise ResourceLimitError(
            f"shell enumeration for d={d}, radius={radius} exceeds point budget"
        )
    r0 = cached[0] if cached is not None else 0
    q, c = _shell_block(d, r0 * r0, radius * radius)
    if cached is not None:
        q = np.concatenate((cached[1], q))
        c = np.concatenate((cached[2], c))
    _SHELL_CACHE[d] = (radius, q, c)
    return q, c


_SHELL_BLOCK = 1 << 15  # squared norms counted at a time by _shell_block


def _shell_block(d: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The shells of Z^d with lo < q = |k|^2 <= hi (0 <= lo), as float64
    (q, count) in increasing q.

    d = 1 is the closed form q = k^2 with count 2.  For d = 2 and 3 the
    range is cut into blocks of _SHELL_BLOCK squared norms, each counted
    into one array of that length, so the scratch is one block's whatever
    hi is:

    * d = 2 counts the octant pairs 0 <= a <= b with a^2 + b^2 in the
      block by one np.bincount, each pair standing for 4 points when a = 0
      or a = b and for 8 otherwise;
    * d = 3 runs over the third coordinate k = 0, 1, ... of the cached
      d = 2 table of radius isqrt(hi), origin included: the points
      (k', +-k) land on k^2 + q' with count (1 if k = 0 else 2) * c', added
      one plane at a time.

    Every count is an integer below 2^53, so the float sums are exact in
    any order.
    """
    if d == 1:
        k = np.arange(math.isqrt(lo) + 1, math.isqrt(hi) + 1, dtype=np.float64)
        return k * k, np.full(len(k), 2.0)
    if d == 3:
        q2, c2 = _shells(2, math.isqrt(hi))
        q2 = np.concatenate(([0], q2.astype(np.int64)))  # the origin of the plane
        c2 = np.concatenate(([1.0], c2))
    qs, cs = [], []
    for s in range(lo, hi, _SHELL_BLOCK):
        e = min(s + _SHELL_BLOCK, hi)
        if d == 2:
            # row a of the octant holds the b >= a with s < a^2 + b^2 <= e
            a = np.arange(math.isqrt(e // 2) + 1, dtype=np.int64)
            a2 = a * a
            b_lo = np.maximum(a, _isqrt(np.maximum(s - a2, 0)) + 1)
            n = np.maximum(_isqrt(e - a2) - b_lo + 1, 0)
            a = np.repeat(a, n)
            b = np.repeat(b_lo - np.cumsum(n) + n, n)
            b += np.arange(len(b))
            weights = np.where((a == 0) | (a == b), 4.0, 8.0)
            a *= a
            b *= b
            a += b
            a -= s + 1  # the slot of a^2 + b^2 in the block
            counts = np.bincount(a, weights=weights, minlength=e - s)
        else:
            # plane k of the third coordinate holds the d = 2 shells q'
            # with s < k^2 + q' <= e; they are distinct, so are their slots
            counts = np.zeros(e - s)
            k2 = np.arange(math.isqrt(e) + 1) ** 2
            i_lo = np.searchsorted(q2, s - k2, side="right")
            i_hi = np.searchsorted(q2, e - k2, side="right")
            for k in range(len(k2)):
                i, j = i_lo[k], i_hi[k]
                counts[q2[i:j] + (k2[k] - s - 1)] += (2.0 if k else 1.0) * c2[i:j]
        hit = np.flatnonzero(counts > 0)
        qs.append((hit + (s + 1)).astype(np.float64))
        cs.append(counts[hit])
    if not qs:
        return np.empty(0), np.empty(0)
    q = np.concatenate(qs)
    qs.clear()  # so that at most one of the two tables is held twice
    return q, np.concatenate(cs)


def _isqrt(m: np.ndarray) -> np.ndarray:
    """isqrt of each integer 0 <= m < 2^52 (the float sqrt floors exactly)."""
    return np.floor(np.sqrt(m)).astype(np.int64)


# ---------------------------------------------------------------------------
# rigorous tail brackets: sum_{|k| > R} S(|k|) via cell-covering integrals
# ---------------------------------------------------------------------------
#
# Each lattice cell (unit cube centred at k) lies inside the annulus
# |k| - sqrt(d)/2 <= s <= |k| + sqrt(d)/2, so for radially decreasing S,
#
#   omega_d int_{R+sqrt(d)} (s - sqrt(d)/2)^{d-1} S(s) ds
#       <= sum_{|k|>R} S(|k|)
#       <= omega_d int_{R-sqrt(d)} (s + sqrt(d)/2)^{d-1} S(s) ds,
#
# with omega_d = 2 pi^{d/2} / Gamma(d/2) the unit-sphere surface area.


def _omega(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _power_tail_bracket(d: int, p: float, radius: float) -> tuple[float, float]:
    """Bracket sum_{|k| > radius} |k|^{-p} over Z^d, requiring p > d."""
    if p <= d:
        raise DomainError(f"power tail needs p > d, got p={p}, d={d}")
    rd = math.sqrt(d)
    half = rd / 2.0
    om = _omega(d)

    def moment(a: float, m: int) -> float:
        # int_a^inf s^{m-p} ds  (finite since p > d >= m+1 for the m used)
        return a ** (m + 1 - p) / (p - m - 1.0)

    def side(a: float, c: float) -> float:
        # om * int_a^inf (s + c)^{d-1} s^{-p} ds, binomially expanded
        total = 0.0
        for j in range(d):
            total += math.comb(d - 1, j) * c ** (d - 1 - j) * moment(a, j)
        return om * total

    lo_a = radius + rd
    hi_a = max(radius - rd, half)
    lower = max(side(lo_a, -half), 0.0)
    upper = side(hi_a, +half)
    return lower, upper


def tail_bracket(R: float, mu: float) -> tuple[float, float]:
    """Rigorous lower/upper bounds for the sum over |k| > R of Z^2 of the
    screened-g summand S(|k|) = 1/(|k|^2 (1 + mu |k|^2)^2), mu > 0.

    Past R, S(r) = mu^-2 r^-6 (mu r^2/(1 + mu r^2))^2, and the last factor
    rises from its value at R towards 1, so the |k|^-6 cell sandwich
    scaled by mu^-2 (mu R^2/(1 + mu R^2))^2 and by mu^-2 brackets the sum.
    """
    if not (R >= 2.0):
        raise DomainError("tail_bracket: need R >= 2")
    if not mu > 0.0:
        raise DomainError("tail_bracket: need mu > 0 (monotone screen)")
    lower, upper = _power_tail_bracket(2, 6.0, R)
    w = R * R / (1.0 + mu * R * R)  # the lower factor's square root; at most R^2
    return lower * w * w, upper / mu / mu  # the upper is inf, not an error, at tiny mu


# ---------------------------------------------------------------------------
# the 2D critical triple
# ---------------------------------------------------------------------------
#
# With q = |k|^2 and x = mu q the summands are
#   f = sum' 1/(q (1 + x)),  g = sum' 1/(q (1 + x)^2),
#   h = sum' 1/(1 + x)^2 = (f - g)/mu.
# For mu < -1 every 1 + x is at most 1 + mu < 0, so all terms are finite;
# mu in [-1, 0) corresponds to 1 + x vanishing on or crossing a shell (at
# mu = -1 on q = 1) and is rejected.  The curve module serves the resonant
# endpoint mu = -1 in closed form.


def _z2_moment(j: float) -> SpecialValue:
    """Full-lattice moment sum' over Z^2 of |k|^{-2j} = 4 zeta(j) beta(j),
    for every real j > 1."""
    z, b = zeta_dirichlet(float(j))
    v = 4.0 * z.value * b.value
    err = 4.0 * (
        abs(z.value) * b.abs_error_bound + abs(b.value) * z.abs_error_bound
    ) + 4e-16 * abs(v)
    return SpecialValue(v, err)


_Z3_CACHE: dict[int, SpecialValue] = {}

# sum' over Z^3 of |k|^{-2j} for j = 2..7, correctly rounded
_Z3_LITERALS = tuple(map(float.fromhex, (
    "0x1.08845dbd650b2p+4", "0x1.0cdc8faaeb9a8p+3", "0x1.bc881df8ef071p+2",
    "0x1.9b45890e6526bp+2", "0x1.8cf0028c5963fp+2", "0x1.8648a6123ae21p+2",
)))


def _z3_moment(j: int) -> SpecialValue:
    """Full-lattice moment sum' over Z^3 of |k|^{-2j} (integer j >= 2).

    j = 2..7 are literals; from j = 8 on, math.fsum adds the shells with
    |k| <= 16 and the midpoint of the cell sandwich past 16, whose
    half-width is at most 8.4e-17 of the sum."""
    got = _Z3_CACHE.get(j)
    if got is not None:
        return got
    if 2 <= j < 8:
        out = _Z3_LITERALS[j - 2]
    else:
        q, c = _shells(3, 16)
        lo, hi = _power_tail_bracket(3, 2.0 * j, 16.0)
        out = math.fsum(np.append(c * q ** (-float(j)), 0.5 * (lo + hi)))
    sv = SpecialValue(out, 1e-13 * abs(out) + 1e-15)
    _Z3_CACHE[j] = sv
    return sv


def _full_moment(d: int, j: float) -> SpecialValue:
    """Full-lattice moment sum' over Z^d of |k|^{-2j} (d = 1, 2, 3; 2j > d):
    2 zeta(2j), :func:`_z2_moment` or :func:`_z3_moment`."""
    if d == 1:
        z, _ = zeta_dirichlet(2.0 * j)
        return SpecialValue(2.0 * z.value, 2.0 * z.abs_error_bound)
    if d == 2:
        return _z2_moment(j)
    if d == 3:
        return _z3_moment(j)
    raise DomainError(f"full-lattice moments need d in {{1, 2, 3}}, got d={d!r}")


def _clipped_moment(
    d: int, j: float, q: np.ndarray, c: np.ndarray, lo: float, hi: float
) -> tuple[float, float, float]:
    """The tail moment sum_{|k| > T} |k|^{-2j} over Z^d (d = 2, 3), given
    the shell table (q, c) up to T and the integral bracket [lo, hi].

    The full-lattice moment minus the partial sum has a T-independent
    subtraction noise near 1e-14.  If that noise is below the bracket width,
    the difference clipped into [lo, hi] is the estimate and the noise its
    error; otherwise the bracket midpoint and half-width are.  The noise is
    at least its floor, the part without the partial sum, so when the floor
    alone reaches the width the partial sum is never formed.  Returns
    (estimate, error, noise): error == noise exactly in the first case, and
    noise is the floor alone when the floor decided.
    """
    full = _full_moment(d, j)
    floor = full.abs_error_bound + 1.6e-15 * abs(full.value)
    if floor >= hi - lo:
        return 0.5 * (lo + hi), 0.5 * (hi - lo), floor
    partial = _dot(c, q ** (-float(j)))
    noise = full.abs_error_bound + 1.6e-15 * (abs(full.value) + partial)
    if noise < hi - lo:
        return min(max(full.value - partial, lo), hi), noise, noise
    return 0.5 * (lo + hi), 0.5 * (hi - lo), noise


def _critical_direct(mu: float, cfg: PrecisionConfig) -> SumTriple:
    """The critical triple by the shell pass and :func:`_screened_tail` with
    d = 2, n = 1 and weight q^{-1}; h = (f - g)/mu.  T grows by 1.6 from
    max(48, 8 sqrt(1/|mu|) + 1), so |mu| q >= 64 on the tail.  Truncation
    and subtraction noise are held against the target; the rounding
    allowance of the shell sums is reported only, as it scales with the
    values, which blow up near the resonance.  The series runs to
    1e-16 of the smallest shell sum, or to tol/12 if that is lower."""
    tol = cfg.target_abs_tol
    T = max(48, int(8.0 * math.sqrt(abs(1.0 / mu))) + 1)
    tails: dict = {}
    while True:
        if T > cfg.max_radius:
            raise ToleranceUnreachableError(
                f"critical_sums(direct): cannot certify {tol:g} at mu={mu:g} "
                f"within max_radius={cfg.max_radius} (accelerated method "
                "converges exponentially for mu > 0)"
            )
        shell = _shell_sums(2, 1, 1, [mu], T)[0]
        stop = min(tol / 12.0, 1e-16 * min(abs(v) for v in shell))
        *tail, ctrl, noise = _screened_tail(2, 1, 1, mu, T, stop, tails)
        f, g, fg = (a + b for a, b in zip(shell, tail))
        held = [e + nz for e, nz in zip(ctrl, noise)]
        held[2] /= abs(mu)
        if max(held) <= tol:
            h = fg / mu
            rnd = [4e-15 * abs(v) for v in shell]
            err_h = held[2] + rnd[2] / abs(mu) + 4e-16 * abs(h)
            return SumTriple(
                mu,
                SpecialValue(f, held[0] + rnd[0]),
                SpecialValue(g, held[1] + rnd[1]),
                SpecialValue(h, err_h),
                "direct",
            )
        # A larger T shrinks the bracket widths, but not the subtraction
        # noise of a moment, so order m can get no closer than
        # min(noise, half-width at max_radius).  If those floors miss the
        # target, stop now instead of enumerating ever larger disks.
        flo = [0.0, 0.0, 0.0]
        m = 1
        while ("moment", m + 1, T) in tails:
            lo, hi = _power_tail_bracket(2, 2.0 * (m + 1), float(cfg.max_radius))
            fl = abs(mu) ** -m * min(tails["moment", m + 1, T][2], 0.5 * (hi - lo))
            flo = [e + w * fl for e, w in zip(flo, (1, m - 1, m))]
            m += 1
        noise_floor = max(flo[0], flo[1], flo[2] / abs(mu))
        if noise_floor > tol:
            raise ToleranceUnreachableError(
                f"critical_sums(direct): error floor {noise_floor:.2e} exceeds "
                f"target {tol:g} at mu={mu:g}; use the accelerated method or "
                "relax target_abs_tol"
            )
        T = int(T * 1.6) + 1


def _critical_accelerated(mu: float, cfg: PrecisionConfig) -> SumTriple:
    if not mu > 0.0:
        raise DomainError("critical_sums: accelerated method requires mu > 0")
    try:
        h_scale = 2.0 * math.pi**2 * mu ** (-1.5)  # the factor of b1 in h
    except OverflowError:
        h_scale = math.inf
    if h_scale == math.inf:
        raise DomainError("critical_sums: mu underflows double precision")
    tol = cfg.target_abs_tol
    beta = beta_constant().value
    sm = math.sqrt(mu)
    t1 = 2.0 * math.pi / sm  # Bessel argument per unit image radius

    # image radius: ring bound count * K(t1 M) must drop under the target.
    target = tol / 64.0
    M = 2
    while True:
        arg = t1 * M
        if arg > 700.0:
            ring = 0.0
        else:
            ring = 9.0 * M * M * math.sqrt(math.pi / (2.0 * arg)) * math.exp(-arg)
        if ring < target or M * M * math.pi > _MAX_BESSEL_TERMS:
            break
        M += 1
    if M * M * math.pi > _MAX_BESSEL_TERMS:
        raise ToleranceUnreachableError(
            f"critical_sums(accelerated): image budget exhausted at mu={mu:g}"
        )
    q, c = _shells(2, M + 1)  # the tail bound below starts past radius M + 1
    r = np.sqrt(q)
    args = t1 * r
    keep = args < 740.0
    k0, k1 = _bessel_k01(args[keep])
    b0 = _dot(c[keep], k0)
    b1 = _dot(c[keep], r[keep] * k1)
    # geometric bound for everything beyond radius M (ratio e^{-t1} per step)
    argM = t1 * (M + 1)
    if argM > 700.0:
        tail_b = 0.0
    else:
        tail_b = (
            12.0
            * (M + 2) ** 2
            * math.sqrt(math.pi / (2.0 * argM))
            * math.exp(-argM)
            / max(1.0 - math.exp(-t1), 0.5)
        )

    f = math.pi * math.log(1.0 / mu) + beta + mu - 2.0 * math.pi * b0
    h = math.pi / mu - 1.0 + h_scale * b1
    g = f - mu * h
    # truncation pieces (held against the target) vs rounding allowances
    # (reported only; they scale with the values themselves).  Every image
    # term is positive, so the kernel's relative bound carries over to b0
    # and b1.
    trunc_f = 2.0 * math.pi * tail_b
    trunc_h = h_scale * tail_b * (M + 2)
    round_f = 2.0 * math.pi * _BESSEL_REL_BOUND * b0 + 4e-16 * (
        abs(f) + math.pi * abs(math.log(mu)) + beta
    )
    round_h = h_scale * _BESSEL_REL_BOUND * b1 + 4e-16 * (
        abs(h) + math.pi / mu
    )
    if max(trunc_f, trunc_h, trunc_f + mu * trunc_h) > tol:
        raise ToleranceUnreachableError(
            f"critical_sums(accelerated): certified error exceeds {tol:g} at mu={mu:g}"
        )
    err_f = trunc_f + round_f
    err_h = trunc_h + round_h
    err_g = err_f + mu * err_h + 4e-16 * abs(g)
    return SumTriple(
        mu,
        SpecialValue(f, err_f),
        SpecialValue(g, err_g),
        SpecialValue(h, err_h),
        "accelerated",
    )


def critical_sums(
    mu: float, method: str = "auto", cfg: PrecisionConfig = DEFAULT_CONFIG
) -> SumTriple:
    """The critical 2D triple (f, g, h) at screening parameter mu.

    Admissible mu: positive reals, or the negative branch mu < -1, where
    all summands stay finite.  mu in [-1, 0) hits a pole on a lattice
    shell (at mu = -1 the |k| = 1 shell) and is rejected; the curve serves
    the resonant endpoint mu = -1 in closed form.

    method: "direct", "accelerated" (mu > 0 only), or "auto".
    """
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"critical_sums: mu must be finite and nonzero, got {mu!r}")
    if -1.0 <= mu < 0.0:
        raise DomainError(
            f"critical_sums: mu={mu:g} lies in the resonance band [-1, 0)"
        )
    if method == "auto":
        method = "accelerated" if 0.0 < mu <= 4.0 else "direct"
    if method == "accelerated":
        return _critical_accelerated(mu, cfg)
    if method == "direct":
        return _critical_direct(mu, cfg)
    raise DomainError(f"critical_sums: unknown method {method!r}")


# ---------------------------------------------------------------------------
# general (d, n) triple
# ---------------------------------------------------------------------------

_BASE_RADIUS = {1: 64, 2: 48, 3: 32}
_BLOCK = 1 << 14  # elements in one row block of the batched shell pass


def general_sums(
    case: CaseDN, mu: float, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> SumTriple:
    """The algebraic triple for exponents (d, n) at screening mu > 0.

    f and g are summed directly with expansion tails controlled by
    closed-form integral brackets; h is recovered from the exact identity
    h = (f - g)/mu, with the difference accumulated term-by-term (never
    formed by subtraction) so that its error stays relative to h itself,
    even when mu is many orders of magnitude below 1.
    """
    return _general_sums_batch(case, [mu], cfg)[0]


def _screened_tail(d, n, s, mu, T, stop, tails, f=0.0, g=0.0, fg=0.0):
    """The screened sums sum' q^{-s} (1 + mu q^n)^{-p} over Z^d, q = |k|^2,
    for p = 1 (f) and p = 2 (g) and their difference fg = f - g, given
    their parts over |k| <= T and completed beyond T by
    1/(1+x) = sum_m (-1)^{m+1} x^{-m}, x = mu q^n (coefficients m - 1 for
    1/(1+x)^2 and m for the difference), with |mu|^{-m} in log space.  The
    order-m moment is the tail sum of q^{-(m n + s)}.  The caller's radius
    keeps |x| >= 64 on the tail (>= 9 for the f of the mixed norm in
    :mod:`torsob.bounds`): for mu > 0 the terms alternate and decrease, for
    mu < 0 they share one sign and fall geometrically, and in either case
    an order whose bracket top is below stop ends the series, 1.25 times
    that top covering the rest.  Moments are exact (Hurwitz zeta, d = 1) or
    clipped (:func:`_clipped_moment`) and, like brackets, kept in tails
    under (kind, moment exponent, T).  Returns (f, g, fg, ctrl, floor): the
    errors that a larger T reduces, and the rounding (4e-15 of the given
    sums) and subtraction noise that none does."""

    table = ()  # the shells up to T, looked up at the first clipped moment
    log_mu = math.log(abs(mu))
    cf = cg = cfg = 0.0
    nf, ng, nfg = 4e-15 * abs(f), 4e-15 * abs(g), 4e-15 * abs(fg)
    m = 0
    while True:
        m += 1
        j = m * n + s  # 2j > d: CaseDN admits only 2n > d, and s >= 0
        key = ("bracket", j, T)
        if key not in tails:
            tails[key] = _power_tail_bracket(d, 2.0 * j, float(T))
        lo, hi = tails[key]
        u = math.exp(-m * log_mu + math.log(hi)) if hi > 0.0 else 0.0
        if u * m <= stop:
            cf, cg, cfg = cf + 1.25 * u, cg + 1.25 * m * u, cfg + 1.25 * (m + 1.0) * u
            break
        sign = -1.0 if mu < 0.0 or m % 2 == 0 else 1.0
        key = ("moment", j, T)
        if d == 1:
            if key not in tails:
                tails[key] = 2.0 * _hurwitz_zeta(2.0 * j, float(T + 1))
            moment = tails[key]
            term = math.exp(-m * log_mu + math.log(moment)) if moment > 0.0 else 0.0
            noise_m, ctrl_m = 8e-16 * term, 0.0
        else:
            if key not in tails:
                table = table or _shells(d, T)
                tails[key] = _clipped_moment(d, j, *table, lo, hi)
            est, err, noise = tails[key]
            scaled = math.exp(-m * log_mu + math.log(err)) if err > 0.0 else 0.0
            # subtraction noise is a floor; a bracket half-width shrinks with T
            noise_m, ctrl_m = (scaled, 0.0) if err == noise else (0.0, scaled)
            term = math.exp(-m * log_mu + math.log(est)) if est > 0.0 else 0.0
        # order m enters f, g and fg with weights 1, -(m - 1) and m
        f, g, fg = f + sign * term, g + sign * (1.0 - m) * term, fg + sign * m * term
        cf, cg, cfg = cf + ctrl_m, cg + (m - 1.0) * ctrl_m, cfg + m * ctrl_m
        nf, ng, nfg = nf + noise_m, ng + (m - 1.0) * noise_m, nfg + m * noise_m
        if m >= 8:
            # Fires for n = 1 at small mu, where x on the tail starts near
            # its floor (64 at T = 8z, 9 for the mixed norm) and the terms
            # fall like (mu T^2)^-m, times T in d = 1: it ends 312 of the 408
            # tails of remainder_constant(CaseDN(1, 1)) and sets the (1, 1)
            # radius at small mu (1,922 where 1,201 would do at z = 150).
            cf, cg, cfg = cf + u, cg + m * u, cfg + (m + 1.0) * u
            break
    return f, g, fg, [cf, cg, cfg], [nf, ng, nfg]


def _shell_sums(d: int, n: int, s, mus, T: int) -> list[list[float]]:
    """[f, g, fg] over 0 < |k| <= T of :func:`_screened_tail`'s sums, for
    each mu of mus (all of one sign), in row blocks of mus sharing the
    shells.  A row is built in column chunks of _DOT_BLOCK shells, never
    whole, and math.fsum adds the chunks' :func:`_dot` partials: the bits
    of the whole-row :func:`_dot` that a single mu uses.  f - g sums
    t (1 - t) without cancellation, t = 1/(1 + x): for mu > 0 as
    t/(1 + 1/x), which keeps every digit of x/(1 + x) even where x << 1
    and 1 - t would round to 0; for mu < 0 as t (1 - t), as 1 - t > 1
    there while 1 + 1/x cancels at x = -1."""
    q, c = _shells(d, T)
    w = c / q**s if s else c
    step = max(1, _BLOCK // len(q))
    out = []
    # overflow -> inf -> term underflows to 0, correctly
    with np.errstate(over="ignore", divide="ignore"):
        qn = q**n
        for b in range(0, len(mus), step):
            mu_col = np.array(mus[b : b + step], dtype=np.float64)[:, None]
            parts = [([], [], []) for _ in mu_col]
            for j in range(0, len(q), _DOT_BLOCK):
                w_j = w[j : j + _DOT_BLOCK]
                x = mu_col * qn[j : j + _DOT_BLOCK]
                t = 1.0 / (1.0 + x)
                if mus[0] < 0.0:
                    fg = t * (1.0 - t)
                else:
                    fg = np.divide(1.0, x, out=x)  # in place: x is not needed again
                    fg += 1.0
                    fg = np.divide(t, fg, out=fg)
                for acc, t_i, fg_i in zip(parts, t, fg):
                    for part, v in zip(acc, (t_i, t_i * t_i, fg_i)):
                        part.append(_dot(w_j, v))
            out.extend([math.fsum(part) for part in acc] for acc in parts)
    return out


def _general_radius(case: CaseDN, mu, tol: float, cap: int, tails: dict) -> int:
    """The radius of general_sums at mu, from the tail terms alone: the first
    T -> 1.6 T + 1 from about 8z whose controllable errors meet tol, or cap."""
    d, n = case.d, case.n
    if not (mu > 0.0) or not math.isfinite(mu):
        raise DomainError(f"general_sums: mu must be positive and finite, got {mu!r}")
    # overflow guard: mu * |k|^{2n} is formed in floating point
    if math.log(mu) < -700.0 * 1.02:
        raise DomainError("general_sums: mu underflows double precision")
    z = mu ** (-1.0 / (2.0 * n))  # radius where the screen turns over
    T = max(_BASE_RADIUS[d], int(8.0 * z) + 1)
    if T > cap:
        # the tail expansion needs the screen strong on the whole tail, so the
        # enumeration must reach ~8z; past the cap no certified answer exists
        raise ToleranceUnreachableError(
            f"general_sums: screening radius {T} for (d={d}, n={n}, "
            f"mu={mu:g}) exceeds the enumeration cap {cap}"
        )
    while max(_screened_tail(d, n, 0, mu, T, tol / 12.0, tails)[3][:2]) > tol and T < cap:
        T = min(int(T * 1.6) + 1, cap)
    return T


def _general_sums_batch(case: CaseDN, mus, cfg: PrecisionConfig, tails=None) -> list[SumTriple]:
    """[general_sums(case, mu, cfg) for mu in mus], bit for bit.  Every
    radius is picked (or refused) before any shell is summed; the mus at
    one radius share one :func:`_shell_sums` pass.  The tail terms of each
    (order, radius) are computed once per call, or per dict tails passed to
    several calls."""
    d, n = case.d, case.n
    if d > 3:
        raise DomainError("general_sums: dimensions d > 3 are not supported")
    tol = cfg.target_abs_tol
    cap = min(cfg.max_radius, _budget_radius(d))
    tails = {} if tails is None else tails
    radii = [_general_radius(case, mu, tol, cap, tails) for mu in mus]
    shell_sums: list = [None] * len(radii)
    for T in sorted(set(radii), reverse=True):
        rows = [i for i, r in enumerate(radii) if r == T]
        for i, shell in zip(rows, _shell_sums(d, n, 0, [mus[i] for i in rows], T)):
            shell_sums[i] = shell

    out = []
    for mu, T, shell in zip(mus, radii, shell_sums):
        f, g, fg, ctrl, floor = _screened_tail(d, n, 0, mu, T, tol / 12.0, tails, *shell)
        # past tol T is the cap, which cannot grow; the bounds stay
        # rigorous, so they are returned while tiny relative to the values
        # themselves (the d = 3 small-mu regime lands here)
        if max(ctrl[:2]) > tol and not (
            ctrl[0] <= 1e-7 * max(1.0, abs(f)) and ctrl[1] <= 1e-7 * max(1.0, abs(g))
        ):
            raise ToleranceUnreachableError(
                f"general_sums: cannot certify {tol:g} for (d={d}, n={n}, "
                f"mu={mu:g}) within enumeration radius {cap}"
            )
        h = fg / mu
        err_h = (ctrl[2] + floor[2]) / mu + 4e-16 * abs(h)
        f_sv, g_sv = (SpecialValue(v, e + fl) for v, e, fl in zip((f, g), ctrl, floor))
        out.append(SumTriple(mu, f_sv, g_sv, SpecialValue(h, err_h), "direct"))
    return out


# ---------------------------------------------------------------------------
# Hardy sum, beta constant, partial sums
# ---------------------------------------------------------------------------


def hardy_sum(eps: float) -> SpecialValue:
    """sum' over Z^2 of |k|^{-2(1+eps)} via the factorization
    4 zeta(1+eps) beta_D(1+eps) (Hardy; valid for every eps > 0)."""
    if not (eps > 0.0):
        raise DomainError(f"hardy_sum: need eps > 0, got {eps!r}")
    return _z2_moment(1.0 + eps)


def beta_constant() -> SpecialValue:
    """The finite part beta of the lattice sum sum' |k|^{-2} after removing
    its logarithmic divergence: beta = pi (2 gamma + 2 log 2 + 3 log pi
    - 4 log Gamma(1/4))."""
    v = math.pi * (
        2.0 * EULER_GAMMA
        + 2.0 * math.log(2.0)
        + 3.0 * math.log(math.pi)
        - 4.0 * math.lgamma(0.25)
    )
    return SpecialValue(v, 5e-14)


_PAIR_BLOCK = 1 << 15  # (cut, row) pairs in one block of _partial_sums_at

#: (u - sin u)/u^3 = sum_{k >= 1} (-1)^(k+1) v^(k-1)/(2k+1)! in v = u^2,
#: highest power first; for u <= pi the omitted terms are below 1e-17 of it
_U_SIN_U = tuple((-1.0) ** (k + 1) / math.factorial(2 * k + 1) for k in range(14, 0, -1))


def _row_tails(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T2 = sum_{k >= x} 1/(k^2 + a^2) and T4 = sum_{k >= x} 1/(k^2 + a^2)^2
    for integer-valued float arrays a >= 0, x >= 1 with a^2 + x^2 >= 100^2.

    Euler-Maclaurin from x with the f', f''' and f^(5) terms.  With
    phi = arctan(a/x) the integrals from x are phi/a and (u - sin u)/(4 a^3)
    = 2 (phi/a)^3 (u - sin u)/u^3, u = 2 phi <= pi, the last factor summed
    as its Taylor series so that nothing cancels at small a/x; a = 0 takes
    the limits 1/x and 1/(3 x^3).  The poles +-ia of the summands lie a
    distance r = sqrt(a^2 + x^2) >= 100 from [x, inf): |f^(7)| is at most
    8!/r^9 for T2 and 7! C(10, 3)/r^11 for T4, so the first omitted term,
    B8 f^(7)/8!, is below r^-8/30 of T2 and 2.5 r^-8 of T4 (2.5e-16 at
    r = 100).
    """
    t = a / x
    phi = np.arctan(t)
    i2 = np.divide(phi, t, out=np.ones_like(t), where=t > 0.0)
    i2 /= x
    # (u - sin u)/u^3 at v = u^2 = 4 phi^2, by Horner
    v = phi
    v *= 4.0 * phi
    p = np.full_like(v, _U_SIN_U[0])
    for coef in _U_SIN_U[1:]:
        p *= v
        p += coef
    x2 = x * x
    g = a * a
    g += x2
    np.reciprocal(g, out=g)  # g = 1/r^2
    c = x2
    c *= g  # c = x^2/r^2
    xg = x * g
    # T2 = i2 + g/2 + x g^2 (1/6 - g (2c - 1)/30 + g^2 (16c^2 - 16c + 3)/126)
    t2 = 16.0 * c
    t2 -= 16.0
    t2 *= c
    t2 += 3.0
    t2 *= g * (1.0 / 126.0)
    t2 -= c / 15.0
    t2 += 1.0 / 30.0
    t2 *= g
    t2 += 1.0 / 6.0
    t2 *= xg
    t2 += 0.5
    t2 *= g
    # T4 = i4 + g^2/2 + x g^3 (1/3 - g (8c - 3)/30 + 2 g^2 (24c^2 - 20c + 3)/63)
    t4 = 24.0 * c
    t4 -= 20.0
    t4 *= c
    t4 += 3.0
    t4 *= g * (2.0 / 63.0)
    t4 -= c * (8.0 / 30.0)
    t4 += 0.1
    t4 *= g
    t4 += 1.0 / 3.0
    t4 *= xg
    t4 += 0.5
    t4 *= g
    t4 *= g
    t2 += i2
    i2 *= i2 * i2
    i2 *= p
    t4 += 2.0 * i2  # i4
    return t2, t4


def _partial_sums_at(m_list: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S2(m), the sum of |k|^-2 over 0 < |k|^2 <= m, and S_high(m), the sum
    of |k|^-4 over |k|^2 > m, for an array of integers m >= 100^2.

    Row k1 = +-a of a cut holds |k2| <= K = isqrt(m - a^2).  Each row is
    closed in k2: its part of S2 is the full row
    sum_{k2} 1/(a^2 + k2^2) = pi coth(pi a)/a (2 zeta(2) for a = 0, which
    drops k2 = 0) less twice the tail T2 over k2 > K, and its part of
    S_high is twice the tail T4.  As m >= 100^2, each tail starts at
    a^2 + k2^2 > 100^2 and is summed by Euler-Maclaurin (:func:`_row_tails`,
    first omitted term below 2.5e-16 of it).  The rows |k1| > A = isqrt(m) are whole: with
    sum_{k2} 1/(a^2 + k2^2)^2 = pi coth(pi a)/(2a^3)
    + pi^2 csch^2(pi a)/(2a^2) they add up to pi zeta(3, A + 1) plus their
    e^{-2 pi a} parts, summed up to a = 8.  So S_high is summed term by
    term and never taken as Z2(2) less a partial sum.  The (cut, row)
    pairs go through in blocks of whole cuts, at most 2^15 pairs each
    unless one cut is longer, reduced by a pairwise np.add.reduceat;
    nothing is kept between calls.  A cut below 100^2 (whose tails would
    start inside the radius the Euler-Maclaurin bound needs), from 2^52
    on (where isqrt by float sqrt fails) or not an integer is refused
    before any row is allocated.
    """
    m = np.asarray(m_list, dtype=np.float64)
    if not (len(m) and np.all((m >= 100.0**2) & (m < 2.0**52) & (m == np.floor(m)))):
        raise DomainError(
            "_partial_sums_at: need a nonempty array of integers m with "
            "100^2 <= m < 2^52"
        )
    A = np.floor(np.sqrt(m))  # exact for m < 2^52
    n_rows = A.astype(np.int64) + 1
    ends = np.cumsum(n_rows)
    # half of each full row, (pi/2) coth(pi a)/a, and zeta(2) for a = 0
    rows = np.arange(1.0, A.max() + 1.0)
    half_full = np.concatenate(([math.pi**2 / 6.0], 0.5 * math.pi / (rows * np.tanh(math.pi * rows))))
    # the rows past the cut; their e^{-2 pi a} parts are below 1e-21 from a = 9 on
    rows = np.arange(1.0, 9.0)
    ex = (
        math.pi * (1.0 / np.tanh(math.pi * rows) - 1.0) / rows**3
        + (math.pi / (rows * np.sinh(math.pi * rows))) ** 2
    )
    ex_past = np.append(ex[::-1].cumsum()[::-1], 0.0)  # sum over a > A, for A = 0 .. 8
    beyond = np.array([math.pi * _hurwitz_zeta(3.0, Ai + 1.0) for Ai in A])
    beyond += ex_past[np.minimum(A, 8.0).astype(np.int64)]

    S2 = np.empty(len(m))
    S_high = np.empty(len(m))
    j = 0
    while j < len(m):
        begin = ends[j] - n_rows[j]
        k = max(j + 1, int(np.searchsorted(ends, begin + _PAIR_BLOCK, side="right")))
        counts = n_rows[j:k]
        starts = ends[j:k] - counts - begin
        a = np.arange(float(ends[k - 1] - begin))
        a -= np.repeat(starts.astype(np.float64), counts)
        x = np.repeat(m[j:k], counts)
        x -= a * a
        np.sqrt(x, out=x)
        np.floor(x, out=x)
        x += 1.0  # the first k2 past the cut
        head = half_full[a.astype(np.int64)]
        t2, t4 = _row_tails(a, x)
        head -= t2
        # rows +-a count four times (both signs of k1 and of k2), row 0 twice
        S2[j:k] = 4.0 * np.add.reduceat(head, starts) - 2.0 * head[starts]
        S_high[j:k] = 4.0 * np.add.reduceat(t4, starts) - 2.0 * t4[starts] + beyond[j:k]
        j = k
    return S2, S_high


# ---------------------------------------------------------------------------
# sum-of-two-squares counting
# ---------------------------------------------------------------------------


def r2_count(m: int) -> int:
    """Number of lattice points k in Z^2 \\ {0} with |k|^2 <= m."""
    if m < 0:
        raise DomainError("r2_count: m must be nonnegative")
    m = int(m)
    if m == 0:
        return 0
    total = 0
    for k1 in range(0, math.isqrt(m) + 1):
        rem = m - k1 * k1
        r = math.isqrt(rem)
        total += 2 * r + 1 if k1 == 0 else 2 * (2 * r + 1)
    return total - 1  # drop the origin


def is_representable(m: int) -> bool:
    """True when m is a sum of two integer squares (0 allowed)."""
    if m < 0:
        return False
    for a in range(0, math.isqrt(m) + 1):
        b2 = m - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return True
    return False


def _largest_two_squares(m: int) -> int:
    """The largest sum of two squares <= m < 2^52: the maximum over a of
    a^2 + isqrt(m - a^2)^2, in blocks of a (float sqrt floors exactly)."""
    if not 0 <= m < 2**52:
        raise DomainError(f"_largest_two_squares: need 0 <= m < 2^52, got {m!r}")
    best, top = 0, math.isqrt(m) + 1
    for s in range(0, top, _BLOCK):
        a2 = np.arange(s, min(s + _BLOCK, top), dtype=np.float64) ** 2
        best = max(best, int(np.max(a2 + np.floor(np.sqrt(m - a2)) ** 2)))
    return best


def next_representable(m: int) -> int:
    """Least integer strictly greater than m that is a sum of two squares."""
    if m < 0:
        raise DomainError("next_representable: m must be positive")
    k = int(m) + 1
    while not is_representable(k):
        k += 1
    return k
