"""Scalar references that only the tests call: the full-lattice moments
and the Hardy sum by theta splitting in mpmath, the partial inverse-square
sum on top of a library kernel, the critical triple in mpmath (at
|mu| > 1 by its power series, at 0 < mu <= 4 by Bessel image sums), and
the split bound's two cut sums and objective at 40 digits by polygamma
rows.
"""

import functools
import math

import mpmath as mp
import numpy as np

from torsob.errors import DomainError, ResourceLimitError
from torsob.lattice import _partial_sums_at, _shells
from torsob.specfun import SpecialValue

#: the smallest cut of the row kernel: from there every row tail starts at
#: a^2 + k2^2 >= _EM_RADIUS^2, where Euler-Maclaurin holds to 2.5e-16
_EM_RADIUS = 100


def epstein_theta_split(d: int, s, dps: int = 30) -> float:
    """sum' over Z^d of |k|^{-2s} (d = 2, 3) by incomplete-gamma theta
    splitting (Crandall's representation), at dps digits, rounded once:

    Z(2s) = pi^s/Gamma(s) [ 1/(s - d/2) - 1/s
            + sum' { (pi q)^{-s} Gamma(s, pi q) + (pi q)^{s-d/2} Gamma(d/2 - s, pi q) } ]

    s may be any exact mpmath input; it is rounded to dps digits.  The
    shell sum converges like e^{-pi q}; it runs to the radius R with
    R^2 + 1 > dps log(10)/pi (R = 5 at 30 digits, 6 at 40), so the shells
    it leaves out are below 10^-dps."""
    with mp.workdps(dps):
        s = mp.mpf(s)
        half_d = mp.mpf(d) / 2
        q, c = _shells(d, math.isqrt(math.ceil(dps * math.log(10) / math.pi)) + 1)
        acc = mp.mpf(0)
        for qi, ci in zip(q, c):
            piq = mp.pi * mp.mpf(qi)
            acc += mp.mpf(ci) * (
                (piq ** (-s)) * mp.gammainc(s, piq)
                + (piq ** (s - half_d)) * mp.gammainc(half_d - s, piq)
            )
        return float((mp.pi**s / mp.gamma(s)) * (1 / (s - half_d) - 1 / s + acc))


def hardy_sum_theta_split(eps: float) -> SpecialValue:
    """sum' over Z^2 of |k|^{-2(1+eps)} by incomplete-gamma theta splitting
    (:func:`epstein_theta_split` with d = 2, s = 1 + eps), a route
    independent of the library's ``hardy_sum``."""
    if not (eps > 0.0):
        raise DomainError(f"hardy_sum_theta_split: need eps > 0, got {eps!r}")
    out = epstein_theta_split(2, mp.fadd(1, eps, exact=True))
    return SpecialValue(out, max(1e-13 * abs(out), 1e-14))


def partial_inverse_square_sum(N: float) -> float:
    """Sum of 1/|k|^2 over lattice points 0 < |k| <= N: below N = 100 the
    shells summed directly, from there the one-cut S2 of
    ``lattice._partial_sums_at``, full rows less their tails."""
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


@functools.lru_cache(maxsize=None)
def _z2_less_lowest_shell(j: int):
    """Z2(j) - 4 = 4 zeta(j) beta(j) - 4 at 60 digits: the lattice sum of
    |k|^{-2j} over Z^2 without its four points at |k| = 1.  The absolute
    error is below 1e-58 for every j, which is what the series below need."""
    with mp.workdps(60):
        return 4 * mp.zeta(j) * mp.dirichlet(j, [0, 1, 0, -1]) - 4


def critical_triple_mp(mu: float):
    """The critical triple (f, g, h) at |mu| > 1 to 50 digits, as mpf.

    The q = |k|^2 = 1 shell is taken in closed form, 4/(1+mu), 4/(1+mu)^2
    and 4/(1+mu)^2; the rest is the power series in eps = 1/mu,

        f - 4/(1+mu)   = eps   sum_k (-eps)^k (Z2(k+2) - 4),
        g - 4/(1+mu)^2 = eps^2 sum_k (k+1) (-eps)^k (Z2(k+3) - 4),
        h - 4/(1+mu)^2 = eps^2 sum_k (k+1) (-eps)^k (Z2(k+2) - 4),

    with Z2(j) = 4 zeta(j) beta(j) (Borwein, Glasser, McPhedran, Wan &
    Zucker, Lattice Sums Then and Now, 2013).  Z2(j) - 4 is below 9 2^-j
    for j >= 2, so the series fall with ratio |eps|/2 <= 1/2; they stop
    where that bound on the rest is below 1e-58.
    """
    if not abs(mu) > 1.0:
        raise DomainError(f"critical_triple_mp: need |mu| > 1, got {mu!r}")
    with mp.workdps(60):
        m = mp.mpf(mu)
        eps = 1 / m
        r = abs(eps) / 2
        terms = int(mp.ceil(mp.log(mp.mpf(10) ** -62) / mp.log(r))) + 20
        f = g = h = mp.mpf(0)
        for k in range(terms):
            a = (-eps) ** k
            f += a * _z2_less_lowest_shell(k + 2)
            g += (k + 1) * a * _z2_less_lowest_shell(k + 3)
            h += (k + 1) * a * _z2_less_lowest_shell(k + 2)
        one = 1 + m
        return (
            4 / one + eps * f,
            4 / one**2 + eps**2 * g,
            4 / one**2 + eps**2 * h,
        )


def bessel_k01_mp(x, cosh_nodes, h):
    """(K0(x), K1(x)) for mpf x > 0 by the trapezoidal rule on
    K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt with step h, cosh_nodes
    the values cosh(j h), j = 0, 1, ..., up to x cosh(j h) > 130.

    The integrand is even and entire, so the rule's error is that of the
    Fourier transform at 2 pi/h, about e^{-pi^2/h} (1e-69 at h = 1/16);
    the nodes left out are below e^{-130} in all.  mpmath's besselk takes
    up to 0.2 s per value at 50 digits for x in [20, 60], this rule about
    1 ms."""
    k0 = k1 = mp.mpf(0)
    for c in cosh_nodes:
        if x * c > 130:
            break
        e = mp.exp(-x * c)
        k0 += e
        k1 += e * c
    e = mp.exp(-x) / 2  # the node t = 0 has weight 1/2
    return h * (k0 - e), h * (k1 - e)


def critical_triple_images_mp(mu: float):
    """The critical triple (f, g, h) at 0 < mu <= 4 to 40 digits, as mpf.

    The formulas of the accelerated route, with t1 = 2 pi/sqrt(mu),

        f = pi log(1/mu) + beta + mu - 2 pi sum' K0(t1 |k|),
        h = pi/mu - 1 + 2 pi^2 mu^{-3/2} sum' |k| K1(t1 |k|),
        g = f - mu h,

    with beta = pi (2 gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4)) and
    K0, K1 from :func:`bessel_k01_mp` at 50 digits.  The images run to the
    radius R with t1 R >= 120; past it each ring of at most 9 R points
    carries under e^{-t1 R} sqrt(R), so the rest is below 1e-45 of the
    values.
    """
    if not (0.0 < mu <= 4.0):
        raise DomainError(f"critical_triple_images_mp: need 0 < mu <= 4, got {mu!r}")
    with mp.workdps(50):
        m = mp.mpf(mu)
        t1 = 2 * mp.pi / mp.sqrt(m)
        step = mp.mpf(1) / 16
        # t1 |k| >= t1 >= pi, so cosh t <= 130/pi ends every node list
        cosh_nodes = [mp.cosh(j * step) for j in range(int(mp.acosh(130 / mp.pi) / step) + 2)]
        q, c = _shells(2, int(mp.ceil(120 / t1)))
        b0 = b1 = mp.mpf(0)
        for qi, ci in zip(q, c):
            r = mp.sqrt(int(qi))
            k0, k1 = bessel_k01_mp(t1 * r, cosh_nodes, step)
            b0 += int(ci) * k0
            b1 += int(ci) * r * k1
        beta = mp.pi * (
            2 * mp.euler + 2 * mp.log(2) + 3 * mp.log(mp.pi) - 4 * mp.log(mp.gamma(mp.mpf(1) / 4))
        )
        f = mp.pi * mp.log(1 / m) + beta + m - 2 * mp.pi * b0
        h = mp.pi / m - 1 + 2 * mp.pi**2 * m ** mp.mpf(-1.5) * b1
        return f, f - m * h, h


def s_high_40_digits(m: int) -> mp.mpf:
    """sum of |k|^-4 over |k|^2 > m at 40 digits, without the row kernel.

    Row k1 = +-a (a >= 1) past K = isqrt(m - a^2) is
    T4 = -Im psi(z)/(2a^3) - Re psi'(z)/(2a^2) at z = K + 1 - ia (partial
    fractions of 1/(k^2 + a^2)^2), row 0 past A = isqrt(m) is zeta(4, A + 1),
    and the rows |k1| > A add up to pi zeta(3, A + 1) plus their
    e^{-2 pi a} parts.
    """
    with mp.workdps(40):
        A = math.isqrt(m)
        rows = mp.mpf(0)
        for a in range(1, A + 1):
            z = mp.mpc(math.isqrt(m - a * a) + 1, -a)
            rows -= mp.im(mp.psi(0, z)) / (2 * a**3) + mp.re(mp.psi(1, z)) / (2 * a**2)
        total = 2 * mp.zeta(4, A + 1) + 4 * rows + mp.pi * mp.zeta(3, A + 1)
        for a in range(A + 1, 12):
            total += mp.pi * (mp.coth(mp.pi * a) - 1) / a**3 + (mp.pi / (a * mp.sinh(mp.pi * a))) ** 2
        return total


def s_low_40_digits(m: int) -> mp.mpf:
    """sum of |k|^-2 over 0 < |k|^2 <= m at 40 digits, without the row kernel.

    Row k1 = +-a (a >= 1) up to K = isqrt(m - a^2) is the full row
    pi coth(pi a)/a less twice its tail Im psi(K + 1 + ia)/a (partial
    fractions of 1/(k^2 + a^2)); row 0 up to A = isqrt(m) is
    2 (zeta(2) - zeta(2, A + 1)).
    """
    with mp.workdps(40):
        A = math.isqrt(m)
        rows = mp.mpf(0)
        for a in range(1, A + 1):
            z = mp.mpc(math.isqrt(m - a * a) + 1, a)
            rows += (mp.pi * mp.coth(mp.pi * a) - 2 * mp.im(mp.psi(0, z))) / a
        return 2 * (mp.zeta(2) - mp.zeta(2, A + 1)) + 2 * rows


def split_objective_40_digits(delta: float, m: int) -> mp.mpf:
    """The split objective (sqrt(S_low) + sqrt(delta S_high))^2/(4 pi^2) at
    the cut |k|^2 <= m, from :func:`s_low_40_digits` and
    :func:`s_high_40_digits`, at 40 digits."""
    with mp.workdps(40):
        s_low, s_high = s_low_40_digits(m), s_high_40_digits(m)
        return (mp.sqrt(s_low) + mp.sqrt(mp.mpf(delta) * s_high)) ** 2 / (4 * mp.pi**2)
