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
  over Z^2, plus an independent incomplete-gamma (theta-splitting)
  evaluation used as a cross-method oracle;
* partial sums, rigorous tail brackets, and sum-of-two-squares counting.

Three kernels sit under these sums, each written once: the shell table
(:func:`_shells`, distinct |k|^2 with multiplicities, built one coordinate
at a time from the closed-form d = 1 table), the theta splitting of the
full-lattice moments (:func:`_epstein_theta_split`), and the tail moments
taken as full-lattice moment minus partial sum, clipped into their
integral bracket (:func:`_clipped_moment`).  Every dot product (BLAS call)
of the package goes through :func:`_dot`, whose summation order does not
depend on the BLAS thread count.

Error accounting: every returned component carries an absolute error bound
assembled from its tail error, explicit bounds on omitted expansion orders,
and a rounding allowance proportional to the accumulated magnitude.  Three
mechanisms close a tail past an enumeration radius: the cell sandwich
(:func:`_power_tail_bracket`, :func:`tail_bracket`) puts a radially
decreasing tail between two closed-form integrals over annuli that cover
the lattice cells; the clipped moments (:func:`_clipped_moment`) subtract a
partial sum from the full-lattice moment and charge the noise of that
cancellation, near 1e-14 of the moment, whenever it is below the sandwich
width; and the 1/x expansion 1/(1 + x) = sum_m (-1)^{m+1} x^{-m}, with
x = mu |k|^{2n} large on the tail, turns a screened tail into moments and
bounds its omitted orders by the first of them (or by a geometric factor
where the signs do not alternate).
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
    "hardy_sum_theta_split",
    "beta_constant",
    "partial_inverse_square_sum",
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

    d = 1 is the closed form q = k^2 with count 2.  Each further coordinate
    k_d = k is added to the table of one dimension less, origin included:
    the points (k', +-k) with |k'|^2 <= radius^2 - k^2 land on the squared
    norms k^2 + q' with count (1 if k = 0 else 2) * c'.  The counts are
    accumulated as int32 and converted to float64 once, so every order of
    accumulation gives the same table."""
    radius = int(radius)
    cached = _SHELL_CACHE.get(d)
    if cached is not None and cached[0] >= radius:
        _, q, c = cached
        cut = np.searchsorted(q, radius * radius, side="right")
        return q[:cut], c[:cut]

    if d == 1:
        k = np.arange(1, radius + 1, dtype=np.float64)
        q = k * k
        c = np.full(radius, 2.0)
    else:
        if (2 * radius + 1) ** d > _POINT_BUDGET[d]:
            raise ResourceLimitError(
                f"shell enumeration for d={d}, radius={radius} exceeds point budget"
            )
        r2 = radius * radius
        q_prev = np.arange(radius + 1, dtype=np.int64) ** 2  # d = 1 with origin
        c_prev = np.full(radius + 1, 2, dtype=np.int32)
        c_prev[0] = 1
        for _ in range(d - 1):
            counts = np.zeros(r2 + 1, dtype=np.int32)
            for k in range(radius + 1):
                # q_prev is sorted and distinct, so these indices are too
                n = np.searchsorted(q_prev, r2 - k * k, side="right")
                counts[k * k + q_prev[:n]] += (2 if k else 1) * c_prev[:n]
            q_prev = np.nonzero(counts)[0]
            c_prev = counts[q_prev]
            del counts
        q = q_prev[1:].astype(np.float64)  # entry 0 is the origin
        c = c_prev[1:].astype(np.float64)
    _SHELL_CACHE[d] = (radius, q, c)
    return q, c


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

    This is the cell sandwich above for d = 2, at a = R + sqrt 2 (lower)
    and a = R - sqrt 2 (upper), with the radial integrals int_a^inf s S ds
    and int_a^inf S ds in closed form through
    S(s) = 1/s^2 - mu/(1 + mu s^2) - mu/(1 + mu s^2)^2.
    """
    if not (R >= 2.0):
        raise DomainError("tail_bracket: need R >= 2")
    if not mu > 0.0:
        raise DomainError("tail_bracket: need mu > 0 (monotone screen)")
    sm = math.sqrt(mu)

    def integrals(a: float) -> tuple[float, float]:
        t = mu * a * a
        first = 0.5 * (math.log1p(1.0 / t) - 1.0 / (1.0 + t))
        atan_tail = (math.pi / 2.0 - math.atan(sm * a)) / sm  # int ds/(1 + mu s^2)
        h_tail = (  # int ds/(1 + mu s^2)^2
            math.pi / (4.0 * sm)
            - a / (2.0 * (1.0 + mu * a * a))
            - math.atan(sm * a) / (2.0 * sm)
        )
        return first, 1.0 / a - mu * atan_tail - mu * h_tail

    c = math.sqrt(2.0) / 2.0
    i1_lo, i2_lo = integrals(R + math.sqrt(2.0))
    i1_hi, i2_hi = integrals(max(R - math.sqrt(2.0), c))
    lower = 2.0 * math.pi * (i1_lo - c * i2_lo)
    upper = 2.0 * math.pi * (i1_hi + c * i2_hi)
    return max(lower, 0.0), upper


# ---------------------------------------------------------------------------
# the 2D critical triple
# ---------------------------------------------------------------------------
#
# With eps = 1/mu the summands factor through q = |k|^2:
#   f = eps * sum' 1/(q(q+eps)),
#   g = eps^2 * sum' 1/(q(q+eps)^2),
#   h = eps^2 * sum' 1/(q+eps)^2.
# The parametrization is regular on eps in [-1, 0) u (0, inf); mu in (-1, 0)
# corresponds to eps < -1 where 1 + mu q vanishes on a lattice shell, and is
# rejected.  At eps = -1 (mu = -1) the q = 1 shell is the exact resonance and
# is excluded; the curve module reinstates its analytic limit.


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


def _epstein_theta_split(d: int, s) -> float:
    """sum' over Z^d of |k|^{-2s} (d = 2, 3) by incomplete-gamma theta
    splitting (Crandall's representation), at 30 digits:

    Z(2s) = pi^s/Gamma(s) [ 1/(s - d/2) - 1/s
            + sum' { (pi q)^{-s} Gamma(s, pi q) + (pi q)^{s-d/2} Gamma(d/2 - s, pi q) } ]

    s may be any exact mpmath input; it is rounded to 30 digits.  The shell
    sum converges like e^{-pi q}; beyond the radii 5 (d = 2) and 4 (d = 3)
    it leaves about 1e-35 and 1e-22, far below double precision."""
    import mpmath as mp

    with mp.workdps(30):
        s = mp.mpf(s)
        half_d = mp.mpf(d) / 2
        q, c = _shells(d, 5 if d == 2 else 4)
        acc = mp.mpf(0)
        for qi, ci in zip(q, c):
            piq = mp.pi * mp.mpf(qi)
            acc += mp.mpf(ci) * (
                (piq ** (-s)) * mp.gammainc(s, piq)
                + (piq ** (s - half_d)) * mp.gammainc(half_d - s, piq)
            )
        return float((mp.pi**s / mp.gamma(s)) * (1 / (s - half_d) - 1 / s + acc))


def _z3_moment(j: int) -> SpecialValue:
    """Full-lattice moment sum' over Z^3 of |k|^{-2j} by theta splitting."""
    got = _Z3_CACHE.get(j)
    if got is not None:
        return got
    out = _epstein_theta_split(3, j)
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


def _tail_moments(q: np.ndarray, c: np.ndarray, T: int) -> tuple[dict, dict, dict, dict]:
    """Tail moments  sum_{q > T^2} (mult) q^{-j}, j = 2..6, over Z^2 with
    certified errors (see :func:`_clipped_moment`).  Returns (estimates,
    errors, bracket upper bounds, subtraction noise levels)."""
    mids: dict[int, float] = {}
    errs: dict[int, float] = {}
    ups: dict[int, float] = {}
    noises: dict[int, float] = {}
    for j in (2, 3, 4, 5, 6):
        lo, hi = _power_tail_bracket(2, 2 * j, float(T))
        mids[j], errs[j], noises[j] = _clipped_moment(2, j, q, c, lo, hi)
        ups[j] = hi
    return mids, errs, ups, noises


def _critical_direct(mu: float, cfg: PrecisionConfig) -> SumTriple:
    eps = 1.0 / mu
    exclude_q1 = mu == -1.0
    abs_eps = abs(eps)
    tol = cfg.target_abs_tol

    # initial truncation radius: tail series in eps/q needs q > 2|eps|;
    # the second guess aims the j=3 omitted term near the tolerance.
    T = max(
        48,
        int(2.0 * math.sqrt(abs_eps)) + 2,
        int((max(abs_eps, 1.0) ** 3 / max(tol, 1e-14)) ** 0.125) + 1,
    )
    while True:
        if T > cfg.max_radius:
            raise ToleranceUnreachableError(
                f"critical_sums(direct): cannot certify {tol:g} at mu={mu:g} "
                f"within max_radius={cfg.max_radius} (accelerated method "
                "converges exponentially for mu > 0)"
            )
        q_all, c_all = _shells(2, T)
        if exclude_q1:
            # drop the resonant |k|^2 = 1 shell (4 points) where q + eps = 0
            keep = q_all > 1.5
            q, c = q_all[keep], c_all[keep]
        else:
            q, c = q_all, c_all
        qe = q + eps
        s1 = _dot(c, 1.0 / (q * qe))
        s2 = _dot(c, 1.0 / (q * qe * qe))
        s3 = _dot(c, 1.0 / (qe * qe))

        # tail moments are over the full lattice; the excluded resonant
        # shell (if any) sits far inside the truncation radius.
        mids, merr, mup, mnoise = _tail_moments(q_all, c_all, T)
        e2 = eps * eps
        geom = 1.0 / (1.0 - abs_eps / (T * T))  # series safety factor
        t1 = mids[2] - eps * mids[3] + e2 * mids[4]
        t2 = mids[3] - 2.0 * eps * mids[4] + 3.0 * e2 * mids[5]
        t3 = mids[2] - 2.0 * eps * mids[3] + 3.0 * e2 * mids[4]
        r1 = merr[2] + abs_eps * merr[3] + e2 * merr[4] + abs_eps**3 * mup[5] * geom
        r2_ = (
            merr[3]
            + 2.0 * abs_eps * merr[4]
            + 3.0 * e2 * merr[5]
            + 4.0 * abs_eps**3 * mup[6] * geom
        )
        r3 = (
            merr[2]
            + 2.0 * abs_eps * merr[3]
            + 3.0 * e2 * merr[4]
            + 4.0 * abs_eps**3 * mup[5] * geom
        )

        f = eps * (s1 + t1)
        g = e2 * (s2 + t2)
        h = e2 * (s3 + t3)
        # rounding allowances scale with the value itself; they are reported
        # but not held against the target (near the resonance the values
        # blow up and only relative accuracy is meaningful there).
        round_f = 4e-15 * abs_eps * abs(s1)
        round_g = 4e-15 * e2 * abs(s2)
        round_h = 4e-15 * e2 * abs(s3)
        err_f = abs_eps * r1
        err_g = e2 * r2_
        err_h = e2 * r3
        if max(err_f, err_g, err_h) <= tol:
            return SumTriple(
                mu,
                SpecialValue(f, err_f + round_f),
                SpecialValue(g, err_g + round_g),
                SpecialValue(h, err_h + round_h),
                "direct",
            )
        # Growing T shrinks bracket widths and omitted-order pieces, but the
        # subtraction noise in each moment difference is T-independent, so
        # the best achievable error for moment j is min(noise_j, half-width
        # at max_radius).  If even that floor misses the target, stop now
        # instead of enumerating ever larger disks.
        flo = {}
        for j in (2, 3, 4, 5):
            wlo, whi = _power_tail_bracket(2, 2 * j, float(cfg.max_radius))
            flo[j] = min(mnoise[j], 0.5 * (whi - wlo))
        noise_floor = max(
            abs_eps * (flo[2] + abs_eps * flo[3] + e2 * flo[4]),
            e2 * (flo[3] + 2.0 * abs_eps * flo[4] + 3.0 * e2 * flo[5]),
            e2 * (flo[2] + 2.0 * abs_eps * flo[3] + 3.0 * e2 * flo[4]),
        )
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
    q, c = _shells(2, M)
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

    Admissible mu: positive reals, or the negative branch mu <= -1 (where
    all summands stay finite; at mu = -1 exactly, the resonant |k| = 1
    shell is excluded and only the regular part is returned).  mu in
    (-1, 0) hits a pole on a lattice shell and is rejected.

    method: "direct", "accelerated" (mu > 0 only), or "auto".
    """
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"critical_sums: mu must be finite and nonzero, got {mu!r}")
    if -1.0 < mu < 0.0:
        raise DomainError(
            f"critical_sums: mu={mu:g} lies in the resonance band (-1, 0)"
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


def _general_tail(case, mu, T, tol, tails, f=0.0, g=0.0, fg=0.0):
    """The sums f, g and fg = f - g over |k| <= T, completed beyond T by
    1/(1+x) = sum_m (-1)^{m+1} x^{-m} (coefficients m - 1 for 1/(1+x)^2 and
    m for the difference) with mu^{-m} in log space.  As x >= 8^{2n} >= 64
    on the tail, the terms alternate and decrease, and an order provably
    below tol ends the series with its bound.  Moments are exact (Hurwitz
    zeta, d = 1) or clipped (:func:`_clipped_moment`) and, like brackets,
    kept in tails.  Returns (f, g, fg, ctrl, floor): the errors that a larger
    T reduces, which depend on mu and T alone, and the rounding and
    subtraction noise that none does, reported but not held against tol."""
    d, n = case.d, case.n

    def shared(kind: str, m: int, compute):
        if (kind, m, T) not in tails:
            tails[kind, m, T] = compute()
        return tails[kind, m, T]

    log_mu = math.log(mu)
    sums, ctrl, floor = [f, g, fg], [0.0, 0.0, 0.0], [4e-15 * f, 4e-15 * g, 4e-15 * fg]
    m = 0
    while True:
        m += 1
        p = 2.0 * n * m  # > d, as CaseDN admits only 2n > d
        lo, hi = shared("bracket", m, lambda: _power_tail_bracket(d, p, float(T)))
        u_skip = math.exp(-m * log_mu + math.log(hi)) if hi > 0.0 else 0.0
        if u_skip * m <= tol / 12.0:
            # this and (by the x >= 64 decay) all higher orders are
            # negligible; 1.25 covers the geometric rest
            ctrl = [e + 1.25 * w * u_skip for e, w in zip(ctrl, (1, m, m + 1.0))]
            break
        sign = -1.0 if m % 2 == 0 else 1.0
        if d == 1:
            moment = shared("moment", m, lambda: 2.0 * _hurwitz_zeta(p, float(T + 1)))
            term = math.exp(-m * log_mu + math.log(moment)) if moment > 0.0 else 0.0
            floor_err, ctrl_err = 8e-16 * term, 0.0
        else:
            est, err, noise = shared(
                "moment", m, lambda: _clipped_moment(d, m * n, *_shells(d, T), lo, hi)
            )
            scaled = math.exp(-m * log_mu + math.log(err)) if err > 0.0 else 0.0
            # subtraction noise is a floor; a bracket half-width shrinks with T
            floor_err, ctrl_err = (scaled, 0.0) if err == noise else (0.0, scaled)
            term = math.exp(-m * log_mu + math.log(est)) if est > 0.0 else 0.0
        # order m enters f, g and fg with weights 1, -(m - 1) and m
        sums = [v + sign * w * term for v, w in zip(sums, (1, 1.0 - m, m))]
        ctrl = [e + w * ctrl_err for e, w in zip(ctrl, (1, m - 1.0, m))]
        floor = [e + w * floor_err for e, w in zip(floor, (1, m - 1.0, m))]
        if m >= 8:  # defensive: the skip rule always fires well before
            ctrl = [e + w * u_skip for e, w in zip(ctrl, (1, m, m + 1.0))]
            break
    return (*sums, ctrl, floor)


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
    while max(_general_tail(case, mu, T, tol, tails)[3][:2]) > tol and T < cap:
        T = min(int(T * 1.6) + 1, cap)
    return T


def _general_sums_batch(case: CaseDN, mus, cfg: PrecisionConfig, tails=None) -> list[SumTriple]:
    """[general_sums(case, mu, cfg) for mu in mus], bit for bit.  Every
    radius is picked (or refused) before any shell is summed; the mus at
    one radius share a shell pass in row blocks, each row reduced by the
    :func:`_dot` a single mu uses; the tail terms of each (order, radius) are
    computed once per call, or per dict tails passed to several calls."""
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
        q, c = _shells(d, T)
        step = max(1, _BLOCK // len(q))
        # overflow -> inf -> term underflows to 0, correctly.  f - g sums
        # t (1 - t) without cancellation: 1 - t = 1/(1 + 1/x) keeps every
        # digit of x/(1 + x) even where x << 1 and 1 - t would round to 0
        with np.errstate(over="ignore", divide="ignore"):
            qn = q**n
            for block in (rows[s : s + step] for s in range(0, len(rows), step)):
                x = np.array([mus[i] for i in block], dtype=np.float64)[:, None] * qn
                t = 1.0 / (1.0 + x)
                fg = np.divide(1.0, x, out=x)  # in place: x is not needed again
                fg += 1.0
                fg = np.divide(t, fg, out=fg)
                for i, t_i, fg_i in zip(block, t, fg):
                    shell_sums[i] = [_dot(c, v) for v in (t_i, t_i * t_i, fg_i)]
                del x, t, fg, t_i, fg_i  # free the block: a row view keeps its array

    out = []
    for mu, T, shell in zip(mus, radii, shell_sums):
        f, g, fg, ctrl, floor = _general_tail(case, mu, T, tol, tails, *shell)
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


def hardy_sum_theta_split(eps: float) -> SpecialValue:
    """Independent evaluation of the same lattice sum by incomplete-gamma
    theta splitting (:func:`_epstein_theta_split` with d = 2, s = 1 + eps),
    used as a cross-method oracle for :func:`hardy_sum`."""
    import mpmath as mp

    if not (eps > 0.0):
        raise DomainError(f"hardy_sum_theta_split: need eps > 0, got {eps!r}")
    out = _epstein_theta_split(2, mp.fadd(1, eps, exact=True))
    return SpecialValue(out, max(1e-13 * abs(out), 1e-14))


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


#: the smallest cut of the row kernel: from there every row tail starts at
#: a^2 + k2^2 >= _EM_RADIUS^2, where Euler-Maclaurin holds to 2.5e-16
_EM_RADIUS = 100
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
    nothing is kept between calls.
    """
    m = np.rint(np.asarray(m_list, dtype=np.float64))
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


def partial_inverse_square_sum(N: float) -> float:
    """Sum of 1/|k|^2 over lattice points 0 < |k| <= N: below N = 100 the
    shells summed directly, from there the one-cut S2 of
    :func:`_partial_sums_at`, full rows less their tails."""
    if not (N >= 1.0):
        raise DomainError(f"partial_inverse_square_sum: need N >= 1, got {N!r}")
    if N > 30000:
        raise ResourceLimitError(
            f"partial_inverse_square_sum: N={N:g} exceeds the point budget"
        )
    m = math.floor(N * N)
    if m < _EM_RADIUS**2:
        q, c = _shells(2, _EM_RADIUS)
        return math.fsum(c[q <= m] / q[q <= m])
    return float(_partial_sums_at(np.array([float(m)]))[0][0])


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
