"""Special-function kernel: Bessel K0/K1, Lambert W, zeta, Dirichlet beta.

Every public routine returns a :class:`SpecialValue` carrying the computed
number together with an a-posteriori absolute error bound, so that callers
can propagate certified accuracy through lattice sums and root solves.

References for the classical material:

* modified Bessel functions: Abramowitz & Stegun, Handbook of Mathematical
  Functions, ch. 9; DLMF ch. 10.
* Lambert W: Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W
  function", Adv. Comput. Math. 5 (1996) 329-359.
* Dirichlet beta acceleration: Cohen, Rodriguez Villegas & Zagier,
  "Convergence acceleration of alternating series", Exp. Math. 9 (2000).
* Riemann and Hurwitz zeta: the Cephes routines ``zetac`` and ``zeta``
  (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989),
  ported operation for operation, so the values are the ones
  ``scipy.special.zeta`` returns, without importing scipy.
* Bessel K0/K1: torsob's own vectorized kernel :func:`_bessel_k01`, with
  one stated relative error bound, :data:`_BESSEL_REL_BOUND`.  For x >= 1
  it is the trapezoid rule on the integral form of K_nu after the
  substitution x (cosh s - 1) = v^2/2, which converges geometrically with
  a computable bound (Trefethen & Weideman, "The exponentially convergent
  trapezoidal rule", SIAM Review 56 (2014) 385-458, Thm. 5.1); for x < 1
  the ascending series A&S 9.6.13 and 9.6.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SpecialValue",
    "EULER_GAMMA",
    "CATALAN",
    "bessel_k",
    "lambert_w",
    "zeta_dirichlet",
    "dirichlet_beta",
    "dirichlet_beta_prime_at_1",
]

#: Euler-Mascheroni constant, 20 correct digits.
EULER_GAMMA = 0.57721566490153286061

# Bessel K underflows to an exact IEEE zero around x ~ 745; beyond ~740 the
# true value is below 1e-318 and we report exactly 0 with that bound.
_BESSEL_UNDERFLOW_X = 740.0


@dataclass(frozen=True)
class SpecialValue:
    """A floating-point value with a nonnegative absolute error bound."""

    value: float
    abs_error_bound: float

    def __post_init__(self) -> None:
        if math.isfinite(self.value) and not (
            self.abs_error_bound >= 0.0 and math.isfinite(self.abs_error_bound)
        ):
            raise ValueError("abs_error_bound must be finite and >= 0")

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Bessel K0 / K1
# ---------------------------------------------------------------------------

#: unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53

# Trapezoid nodes v_k = k h, k = 0..36 (h = 1/4, v <= 9), held tail first
# as columns, so that the sequential sums below add the smallest terms
# first.  v_k^2 is exact; the weights h e^{-v_k^2/2} (half weight at v = 0)
# are each one correctly scaled exp.
_TRAP_H = 0.25
_TRAP_VMAX = 9.0
_TRAP_K = np.arange(int(_TRAP_VMAX / _TRAP_H), -1, -1)
_TRAP_V2 = ((_TRAP_K * _TRAP_H) ** 2)[:, None]
_TRAP_W = np.array([_TRAP_H * math.exp(-0.5 * v2) for v2 in _TRAP_V2[:, 0]])[:, None]
_TRAP_W[-1] *= 0.5


def _bessel_error_parts() -> dict[str, float]:
    """The three parts of the kernel's relative error bound for x >= 1.

    With x (cosh s - 1) = v^2/2,

        K0(x) = e^{-x} x^{-1/2} int_0^inf F0(v) dv,
        F0(v) = e^{-v^2/2} (1 + v^2/4x)^{-1/2},   F1 = F0 (1 + v^2/2x)

    for K1.  Both are even and analytic in the strip |Im v| < a for any
    a < 2 sqrt(x), the branch point 2i sqrt(x).  The strip and truncation
    parts fall with x, so they are taken at x = 1, the smallest argument of
    this branch.

    * strip: the trapezoid error on R is at most 2M/(e^{2 pi a/h} - 1)
      (Trefethen & Weideman, Thm. 5.1), with M the largest integral of |F|
      along a line in the strip.  At v = u + ib, |b| <= a, |e^{-v^2/2}| <=
      e^{(a^2 - u^2)/2}, |1 + v^2/4x| >= 1 - a^2/4x and |1 + v^2/2x| <=
      1 + (u^2 + a^2)/2x, so for both orders
      M <= sqrt(2 pi) e^{a^2/2} (1 - a^2/4x)^{-1/2} (1 + (1 + a^2)/2x).
      Divided by int_R F >= sqrt(2 pi)(1 - 1/8x), from (1 + t)^{-1/2} >=
      1 - t/2.  a = 1.9 at h = 1/4.
    * truncation: F1 <= e^{-v^2/2} (1 + v^2/2) for x >= 1, so the nodes
      past v = 9 add at most int_9^inf e^{-v^2/2} (1 + v^2/2) dv
      <= e^{-81/2} (9/2 + 3/18), over half the same lower bound.
    * rounding, in units u = 2^-53, an exp counting one ulp (2 u): a term
      t0 = w/sqrt(1 + y), y = v^2/4x, of the K0 sum S0 carries 5.5 u (1/4x,
      y, 1 + y, sqrt, the weight's exp and the division) and a term of
      B = sum t0 y, K1 = e^{-x} (S0 + 2B)/sqrt(x), 8.5 u.
      The sequential tail-first sums add u times their partial sums, at
      most rho u with rho = sum (k+1) t_k / sum t_k over the head index k;
      that mean is largest as x -> inf, where t_k is the weight (times k^2
      for B).  The prefactor e^{-x}/sqrt(x) and the last product add 5 u,
      S0 + 2B one more.
    """
    h, vmax, x, a = _TRAP_H, _TRAP_VMAX, 1.0, 1.9
    lower = math.sqrt(2.0 * math.pi) * (1.0 - 1.0 / (8.0 * x))
    m = (
        math.sqrt(2.0 * math.pi)
        * math.exp(0.5 * a * a)
        / math.sqrt(1.0 - a * a / (4.0 * x))
        * (1.0 + (1.0 + a * a) / (2.0 * x))
    )
    strip = 2.0 * m / math.expm1(2.0 * math.pi * a / h) / lower
    truncation = math.exp(-0.5 * vmax * vmax) * (0.5 * vmax + 1.5 / vmax) / (0.5 * lower)
    k = _TRAP_K.astype(float)
    w = _TRAP_W[:, 0]
    rho0 = float(np.sum((k + 1.0) * w) / np.sum(w))
    rho_b = float(np.sum((k + 1.0) * k * k * w) / np.sum(k * k * w))
    n = max(10.5 + rho0, 14.5 + rho_b)
    rounding = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return {"strip": strip, "truncation": truncation, "rounding": rounding}


#: Relative error bound of :func:`_bessel_k01` (about 2.4e-15), for both
#: orders and every 0 < x < 740 whose K is a normal float; a subnormal K
#: (x above about 703) carries at most 5e-324 absolute on top of it.
_BESSEL_REL_BOUND = sum(_bessel_error_parts().values())


def _bessel_k01_series(x: float) -> tuple[float, float]:
    """(K0(x), K1(x)) for 0 < x < 1 from the ascending series A&S 9.6.13
    and 9.6.11 with psi(k+1) = H_k - gamma:

        K0 = -(log(x/2) + gamma) I0(x) + sum_k H_k t^k/(k!)^2,
        K1 = 1/x + (log(x/2) + gamma) I1(x)
             - (x/4) sum_k (2 H_k + 1/(k+1)) t^k/(k!(k+1)!),   t = x^2/4.

    Eleven terms leave a remainder below 1e-21 relative.  Every K0 term is
    positive here, and K1 cancels by at most a factor 2.3 (at x = 1), so
    the rounding error stays far inside :data:`_BESSEL_REL_BOUND`.
    """
    t = 0.25 * x * x
    lg = math.log(0.5 * x) + EULER_GAMMA
    p = 1.0  # t^k/(k!)^2
    hk = 0.0  # harmonic number H_k
    i0 = s0 = i1 = s1 = 0.0
    for k in range(11):
        if k:
            p *= t / (k * k)
            hk += 1.0 / k
        q = p / (k + 1)  # t^k/(k!(k+1)!)
        i0 += p
        s0 += p * hk
        i1 += q
        s1 += q * (2.0 * hk + 1.0 / (k + 1))
    return s0 - lg * i0, 1.0 / x + lg * (0.5 * x) * i1 - 0.25 * x * s1


def _bessel_k01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K0(x), K1(x)) for a 1-D array of arguments 0 < x < 740.

    x >= 1 runs the trapezoid rule on 37 nodes (see
    :func:`_bessel_error_parts`), both orders from one pass; x < 1 runs the
    series :func:`_bessel_k01_series`.  Each value is within
    :data:`_BESSEL_REL_BOUND` relative of the true K, plus 5e-324 absolute
    where K is subnormal.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1.0
    if small.any():
        k0, k1 = np.empty_like(x), np.empty_like(x)
        for i in np.flatnonzero(small):
            k0[i], k1[i] = _bessel_k01_series(float(x[i]))
        if not small.all():
            k0[~small], k1[~small] = _bessel_k01(x[~small])
        return k0, k1
    y = _TRAP_V2 * (0.25 / x)
    t = _TRAP_W / np.sqrt(1.0 + y)
    s0 = np.cumsum(t, axis=0)[-1]  # cumsum: sequential, tail first
    t *= y
    b = np.cumsum(t, axis=0)[-1]
    # e^{-x} first: where it is subnormal the last product rounds once
    e = np.exp(-x)
    sx = np.sqrt(x)
    return e * (s0 / sx), e * ((s0 + 2.0 * b) / sx)


def bessel_k(order: int, x: float) -> SpecialValue:
    """Modified Bessel function of the second kind, order 0 or 1.

    Parameters
    ----------
    order : int
        0 or 1.
    x : float
        Strictly positive argument.

    Returns
    -------
    SpecialValue
        K_order(x) from :func:`_bessel_k01`.  For 0 < x < 740 the bound is
        :data:`_BESSEL_REL_BOUND` (about 2.4e-15) relative plus 5e-324
        absolute, which covers the subnormal values past x of about 703;
        K1 overflows to inf below x of about 1e-308.  From x = 740 on the
        true value is below 1e-318, reported as exactly 0.0 with the
        threshold as its bound.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_k: order must be 0 or 1, got {order!r}")
    if not (x > 0.0):
        raise DomainError(f"bessel_k: argument must be positive, got {x!r}")
    if x >= _BESSEL_UNDERFLOW_X:
        # e^-x sqrt(pi/2x) < 1e-318 here: the value is not representable.
        return SpecialValue(0.0, 1e-317)
    v = float(_bessel_k01(np.array([x]))[order][0])
    return SpecialValue(v, _BESSEL_REL_BOUND * abs(v) + 5e-324)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

_INV_E = math.exp(-1.0)


def _w_branch_point_series(x: float, sign: float) -> float:
    # Series about the branch point x = -1/e in p = +-sqrt(2(ex+1)),
    # Corless et al. eq. (4.22): W = -1 + p - p^2/3 + 11 p^3/72 - ...
    arg = 2.0 * (math.e * x + 1.0)
    p = sign * math.sqrt(max(arg, 0.0))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))


def _w_initial_guess(branch: int, x: float) -> float:
    if branch == 0:
        if x < -0.32:
            return _w_branch_point_series(x, +1.0)
        if x < 1.0:
            # few terms of the Maclaurin series W = x - x^2 + 3x^3/2 - ...
            return x * (1.0 - x * (1.0 - 1.5 * x))
        lx = math.log(x)
        llx = math.log(lx) if lx > 1.0 else 0.0
        return lx - llx + llx / lx if lx > 1.0 else lx
    # branch -1, x in [-1/e, 0)
    if x < -0.27:
        return _w_branch_point_series(x, -1.0)
    # log-log expansion near 0-: W ~ L1 - L2 + L2/L1, L1 = log(-x), L2 = log(-L1)
    l1 = math.log(-x)
    l2 = math.log(-l1)
    return l1 - l2 + l2 / l1


def lambert_w(branch: int, x: float) -> SpecialValue:
    """Real Lambert W on branch 0 or -1, by Halley iteration.

    Solves w e^w = x.  Branch 0 requires x >= -1/e; branch -1 requires
    -1/e <= x < 0 and returns w <= -1.
    """
    if branch not in (0, -1):
        raise DomainError(f"lambert_w: branch must be 0 or -1, got {branch!r}")
    if not math.isfinite(x):
        raise DomainError(f"lambert_w: x must be finite, got {x!r}")
    if branch == 0:
        if x < -_INV_E - 4e-17:
            raise DomainError(f"lambert_w: x={x!r} below branch point -1/e")
        if x == 0.0:
            return SpecialValue(0.0, 0.0)
    else:
        if not (-_INV_E - 4e-17 <= x < 0.0):
            raise DomainError(f"lambert_w: branch -1 needs -1/e <= x < 0, got {x!r}")
    if x < -_INV_E:
        x = -_INV_E  # swallow one-ulp excursions below the branch point
    if abs(x + _INV_E) < 1e-16:
        return SpecialValue(-1.0, 3e-9)  # sqrt-type sensitivity at the branch point

    w = _w_initial_guess(branch, x)
    for _ in range(80):
        ew = math.exp(w)
        r = w * ew - x
        if r == 0.0:
            break
        d1 = ew * (w + 1.0)
        # Halley step: r / (d1 - r*(w+2)/(2w+2))
        step = r / (d1 - r * (w + 2.0) / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 2e-16 * max(1.0, abs(w)):
            break
    ew = math.exp(w)
    resid = w * ew - x
    deriv = abs(ew * (w + 1.0))
    err = abs(resid) / deriv if deriv > 0 else abs(resid)
    return SpecialValue(w, max(err, 4e-16 * max(1.0, abs(w))))


# ---------------------------------------------------------------------------
# zeta and Dirichlet beta
# ---------------------------------------------------------------------------


#: Cephes' MACHEP: the relative stopping threshold of its series.
_MACHEP = 2.0**-53

# Cephes zetac: zeta(j) - 1 for integer j = 2..30, rational approximations
# for 1 < s <= 10 (P/Q in 1/s) and for 10 < s <= 50 (A/B in s,
# exponentiated).
_ZETAC_INT = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
    1.862659723513049e-09, 9.313274324196682e-10,
)
_ZETAC_P = (
    585746514569.7253, 257534127756.10257, 48778115956.79482,
    5153995380.238857, 341646073.5147541, 16083700.68806565,
    592785.4673421095, 15112.916996493883, 201.82244448599795,
)
_ZETAC_Q = (
    390497676373.37115, 52285823536.82722, 5644515172.712806,
    339006746.0153504, 17941037.150012646, 566666.8251313848,
    16038.297681094413, 196.4362372233873,
)
_ZETAC_A = (
    8707285.674845902, 176506865.67034647, 26088950670.748325,
    529806374009.8948, 22688815611923.824, 331884402932705.06,
    5137789979758682.0, -1981236881339071.8, -9.927638100399835e16,
    7.829053761808706e16, 9.267862757689277e16,
)
_ZETAC_B = (
    -7926254.105637411, -160529969.93292022, -23766926097.55432,
    -480319584350.4552, -20782096175417.332, -296075404507272.25,
    -4862991036946091.0, 5345895096757899.0, 5.714641110922976e16,
    -1.7991559765867656e16,
)
# Cephes zeta: Euler-Maclaurin divisors (2k)! / B_2k of the correction terms
_HURWITZ_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    # polevl with an implied leading coefficient 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _riemann_zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1, as 1 + Cephes zetac(s)."""
    if s >= 127.0:
        zc = 0.0  # Cephes' cutoff; 1 + zetac(s) is 1 well before it
    elif s == math.floor(s) and s < 31.0:
        zc = _ZETAC_INT[int(s) - 2]
    elif s <= 10.0:
        b = math.pow(2.0, s) * (s - 1.0)
        w = 1.0 / s
        zc = (s * _polevl(w, _ZETAC_P)) / (b * _p1evl(w, _ZETAC_Q))
    elif s <= 50.0:
        b = math.pow(2.0, -s)
        w = _polevl(s, _ZETAC_A) / _p1evl(s, _ZETAC_B)
        zc = math.exp(w) + b
    else:
        # odd terms summed directly; the even ones are 2^-s zeta(s)
        acc = 0.0
        a = 1.0
        while True:
            a += 2.0
            b = math.pow(a, -s)
            acc += b
            if not b / acc > _MACHEP:
                break
        b = math.pow(2.0, -s)
        zc = (acc + b) / (1.0 - b)
    return 1.0 + zc


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) = sum_{k>=0} (k + q)^-x for x > 1, q > 0: Cephes'
    Euler-Maclaurin summation, nine or more direct terms (until k + q > 9)
    and up to twelve correction terms."""
    if not (x > 1.0 and q > 0.0):
        raise DomainError(f"hurwitz zeta: need x > 1 and q > 0, got ({x!r}, {q!r})")
    if q > 1e8:
        # leading terms of the large-q expansion (DLMF 25.11.43)
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    try:
        s = math.pow(q, -x)
    except OverflowError:
        return math.inf  # as in C: the first term is inf and ends the sum
    if s == 0.0:
        return 0.0  # every term underflows (Cephes reaches this through 0/0)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _HURWITZ_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _cvz_alternating(s: float, n: int = 48) -> float:
    # Cohen-Rodriguez Villegas-Zagier acceleration of
    # sum_{k>=0} (-1)^k (2k+1)^(-s); converges ~ 5.83^-n for all s > 0.
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * float(2 * k + 1) ** (-s)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return acc / d


def dirichlet_beta(s: float) -> SpecialValue:
    """Dirichlet beta L-series sum (-1)^k/(2k+1)^s for s > 0."""
    if not (s > 0.0):
        raise DomainError(f"dirichlet_beta: need s > 0, got {s!r}")
    v = _cvz_alternating(s)
    return SpecialValue(v, max(4e-15 * abs(v), 1e-16))


#: Catalan's constant beta_D(2).
CATALAN = dirichlet_beta(2.0).value


def zeta_dirichlet(s: float) -> tuple[SpecialValue, SpecialValue]:
    """Riemann zeta and Dirichlet beta at a common argument s > 1."""
    if not (s > 1.0):
        raise DomainError(f"zeta_dirichlet: zeta requires s > 1, got {s!r}")
    z = _riemann_zeta(s)
    return SpecialValue(z, 4e-15 * abs(z)), dirichlet_beta(s)


def dirichlet_beta_prime_at_1() -> SpecialValue:
    """beta_D'(1) = (pi/4)(gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))."""
    v = (math.pi / 4.0) * (
        EULER_GAMMA
        + 2.0 * math.log(2.0)
        + 3.0 * math.log(math.pi)
        - 4.0 * math.lgamma(0.25)
    )
    return SpecialValue(v, 1e-14)
