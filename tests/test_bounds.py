"""Upper bounds on Theta(delta): embedding route, elementary comparison,
mode splitting, and the single-log minimization."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from torsob import lattice
from torsob.algebraic import deviation, shifted_deviation, theta_dn
from torsob.bounds import (
    _mixed_sum,
    alpha_constant,
    elementary_comparison,
    embedding_constant,
    first_method_bound,
    mode_splitting_bound,
)
from torsob.curve import loglog_lower_constant, theta_model
from torsob.errors import DomainError, ResourceLimitError, ToleranceUnreachableError
from torsob.lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    _largest_two_squares,
    _partial_sums_at,
    _shells,
    beta_constant,
    is_representable,
)
from torsob.specfun import lambert_w, zeta_dirichlet

from scalar_oracles import partial_inverse_square_sum


def epstein(p: float) -> float:
    z, b = zeta_dirichlet(p / 2.0)
    return 4.0 * z.value * b.value


# ---------------------------------------------------------------- alpha


def test_alpha_closed_form():
    w = lambert_w(0, -2.0 * math.exp(-2.0)).value
    truth = (math.exp(w + 2.0) - 1.0) / (w + 2.0) ** 2
    assert abs(alpha_constant() - truth) < 1e-14
    assert abs(alpha_constant() - 1.5441386523708702) < 1e-14


# ---------------------------------------------------- embedding constant


def test_embedding_constant_closed_forms():
    assert abs(embedding_constant(1.0) - epstein(4.0) / (4.0 * math.pi**2)) < 1e-12
    assert abs(embedding_constant(0.5) - epstein(3.0) / (4.0 * math.pi**2)) < 1e-10


def test_embedding_constant_monotone_decreasing():
    vals = [embedding_constant(e) for e in (0.25, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_embedding_constant_domain():
    with pytest.raises(DomainError):
        embedding_constant(0.0)
    with pytest.raises(DomainError):
        embedding_constant(-1.0)


# ------------------------------------------------- elementary comparison


def test_elementary_comparison_dominance_and_limit():
    ratios = []
    for mu in (0.3, 0.1, 0.05):
        ec = elementary_comparison(mu)
        assert ec.B >= ec.A > 0.0
        assert 0.0 < ec.eps_argmin <= 1.0
        ratios.append(ec.B / ec.A)
    # B/A decreases toward the loss factor alpha as mu -> 0 (slow, log rate)
    assert ratios[0] > ratios[1] > ratios[2] > alpha_constant()


def test_elementary_comparison_frozen():
    # B = C(eps) M at the argmin, where M = 11.276335059354915490438249896
    # (MIXED_REFERENCES below)
    ec = elementary_comparison(0.3)
    assert abs(ec.A - 44.45258590471209) < 1e-8
    assert abs(ec.B - 121.23279528610561) < 1e-8


# M(mu, eps) in mpmath at 45 digits: the shells to T summed exactly, the tail
# by the 1/x series on the moments 4 zeta(j) beta(j) less their partial sums;
# T = 300 and T = 600 agree to 26 digits or more at each point
MIXED_REFERENCES = [
    (0.3, 0.39104410759435, 11.276335059354915),
    (0.05, 0.2, 17.399484845804677),
    (0.3, 0.05, 7.0040598159549569),
    (0.01, 0.1, 21.758843986976258),
]


@pytest.mark.parametrize("mu, eps, ref", MIXED_REFERENCES)
def test_mixed_sum_within_stated_bound_of_40_digit_references(mu, eps, ref):
    value, bound = _mixed_sum(mu, eps, DEFAULT_CONFIG)
    assert abs(value - ref) <= bound
    assert bound <= (1e-10 if (mu, eps) == MIXED_REFERENCES[0][:2] else 1e-7)


def test_mixed_sum_refuses_a_tail_it_cannot_expand():
    # at max_radius 8, mu |k|^2 on the tail starts at 0.64 < 9
    with pytest.raises(ToleranceUnreachableError):
        _mixed_sum(0.01, 0.1, PrecisionConfig(max_radius=8))


def test_elementary_comparison_domain():
    with pytest.raises(DomainError):
        elementary_comparison(0.7)  # needs mu in (0, 0.5]
    with pytest.raises(DomainError):
        elementary_comparison(0.0)


# --------------------------------------------------------- mode splitting


def brute_split(delta: float) -> tuple[float, float]:
    """Exhaustive minimization over every shell radius with |k|^2 up to the
    cap of the exact candidate sweep, max(16 delta log delta, 400)."""
    shell_cap = int(max(16.0 * delta * math.log(max(delta, 2.0)), 400.0))
    kmax = math.isqrt(shell_cap)
    k = np.arange(-kmax, kmax + 1)
    q = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    q = q[(q > 0) & (q <= shell_cap)]
    shells = np.unique(q)
    total4 = epstein(4.0)
    best, best_n = math.inf, 0.0
    low2 = 0.0
    low4 = 0.0
    counts = np.bincount(q, minlength=shells.max() + 1)
    for m in shells:
        c = counts[m]
        low2 += c / m
        low4 += c / m**2
        val = (math.sqrt(low2) + math.sqrt(delta) * math.sqrt(total4 - low4)) ** 2
        if val < best - 1e-15:
            best, best_n = val, math.sqrt(m)
    return best / (4.0 * math.pi**2), best_n


@pytest.mark.parametrize("delta", [2.0, 6.0, 10.0, 300.0, 2e3])
def test_mode_splitting_matches_brute(delta):
    # thousands of shells at the larger deltas: the cumulative sums over the
    # shell table against a per-shell loop
    P, N = mode_splitting_bound(delta)
    Pb, Nb = brute_split(delta)
    assert abs(P - Pb) < 1e-10
    assert abs(N - Nb) < 1e-12


@pytest.mark.parametrize("delta", [1e4, 1.07e4])
def test_mode_splitting_value_matches_fsum_at_cut(delta):
    # at the returned cut, P from correctly rounded sums over the lattice;
    # the |k|^-4 tail is only ~pi/N^2, so a plain running sum of S4 taken
    # from Z2(2) would be off by ~1e-11 relative here
    P, N = mode_splitting_bound(delta)
    m = round(N * N)
    kmax = math.isqrt(m)
    k = np.arange(-kmax, kmax + 1)
    q = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    shells, counts = np.unique(q[(q > 0) & (q <= m)], return_counts=True)
    shells = shells.astype(np.float64)
    low2 = math.fsum(counts / shells)
    high4 = epstein(4.0) - math.fsum(counts / shells**2)
    ref = (math.sqrt(low2) + math.sqrt(delta * high4)) ** 2 / (4.0 * math.pi**2)
    assert abs(P - ref) < 3e-12 * ref


def _s_high_40_digits(m: int) -> mp.mpf:
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


def _s_low_direct(m: int) -> float:
    """sum of |k|^-2 over 0 < |k|^2 <= m, one lattice row at a time."""
    rows = []
    for a in range(math.isqrt(m) + 1):
        k = np.arange(1.0, math.isqrt(m - a * a) + 1.0)
        row = 2.0 * float(np.sum(1.0 / (a * a + k * k)))
        rows.append(row if a == 0 else 2.0 * (row + 1.0 / (a * a)))
    return math.fsum(rows)


def test_s_high_reference_against_catalan():
    # the polygamma rows against Z2(2) = 4 zeta(2) G less the inside, at 40 digits
    for m in (1, 2, 50, 99, 1000):
        with mp.workdps(40):
            K = math.isqrt(m)
            inside = mp.fsum(
                mp.mpf(1) / (a * a + b * b) ** 2
                for a in range(-K, K + 1)
                for b in range(-K, K + 1)
                if 0 < a * a + b * b <= m
            )
            truth = 4 * mp.zeta(2) * mp.catalan - inside
            assert abs(_s_high_40_digits(m) - truth) < mp.mpf(10) ** -30 * truth


@pytest.mark.parametrize(
    "delta, cut", [(1.08e4, 136777), (1e5, 1506866), (1e6, 17534677)]
)
def test_mode_splitting_above_switch_matches_40_digit_sums(delta, cut):
    # the cut of the parent row loop, and P from S_high summed at 40 digits
    # by polygammas and S_low by direct rows; Z2(2) - S4 missed by 1e-11 to 4e-9
    P, N = mode_splitting_bound(delta)
    m = round(N * N)
    assert m == cut
    s_low = _s_low_direct(m)
    s_high = float(_s_high_40_digits(m))
    S2, S_high = _partial_sums_at(np.array([float(m)]))
    assert abs(S2[0] - s_low) < 1e-15 * s_low
    assert abs(S_high[0] - s_high) < 1e-15 * s_high
    ref = (math.sqrt(s_low) + math.sqrt(delta * s_high)) ** 2 / (4.0 * math.pi**2)
    assert abs(P - ref) < 1e-13 * ref


def test_row_kernel_matches_shell_sums_at_every_shell():
    # every shell from the kernel's smallest cut m = 1e4 up to m = 2e5,
    # across the enumeration switch: S2 against the running sum of the path
    # below the switch (itself off by up to 7.7e-15 there), S_high against
    # the shells above each cut summed smallest first plus the 40-digit tail
    # past the last shell.  Without the f^(5) Euler-Maclaurin term S_high is
    # off by 9e-14 near m = 1e4
    m_cap = 200_000
    q, c = _shells(2, math.isqrt(m_cap) + 1)
    n = int(np.searchsorted(q, float(m_cap), side="right"))
    q, c = q[:n], c[:n]
    cuts = q >= 1e4
    S2, S_high = _partial_sums_at(q[cuts])
    S2_run = np.cumsum(c / q)[cuts]
    assert np.max(np.abs(S2 - S2_run) / S2_run) < 1e-14
    t4 = c / (q * q)
    with mp.workdps(40):
        inside = mp.fsum(mp.mpf(int(ci)) / int(qi) ** 2 for ci, qi in zip(c, q))
        past = float(4 * mp.zeta(2) * mp.catalan - inside)
    above = np.zeros(n)
    above[:-1] = np.cumsum(t4[:0:-1])[::-1]
    ref = (past + above)[cuts]
    assert np.max(np.abs(S_high - ref) / ref) < 1e-14


def test_row_kernel_peak_memory():
    # the delta = 1e6 cut list as mode_splitting_bound builds it, the raw
    # grid points; blocks of whole cuts keep the kernel's working set to a
    # few MiB
    n_star2 = 1e6 * math.log(1e6)
    raw = np.geomspace(n_star2 / 6.0, 6.0 * n_star2, 700).astype(np.int64)
    cands = np.unique(raw).astype(np.float64)
    tracemalloc.start()
    try:
        _partial_sums_at(cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_mode_splitting_frozen():
    P, N = mode_splitting_bound(2.0)
    assert abs(P - 0.38183122552141724) < 1e-12
    assert abs(N - math.sqrt(2.0)) < 1e-12
    P6, N6 = mode_splitting_bound(6.0)
    assert abs(P6 - 0.4971840517592267) < 1e-12
    assert abs(N6 - math.sqrt(20.0)) < 1e-12


@pytest.mark.parametrize(
    "delta, P_hex, N_hex",
    [
        (2.0, "0x1.86fec3c8d308ap-2", "0x1.6a09e667f3bcdp+0"),
        (10.0, "0x1.184373a272d45p-1", "0x1.ad5336963eefcp+2"),
        (1e3, "0x1.ee7c0c9632e21p-1", "0x1.90bd43dd0834ap+6"),
        (5e3, "0x1.1b097fd8aa951p+0", "0x1.e5eaeda23bdd6p+7"),
        (1e4, "0x1.2a511c946959fp+0", "0x1.6277f73e4474dp+8"),
        (1.07e4, "0x1.2bcdf78c004c0p+0", "0x1.6fb5300c37014p+8"),
    ],
)
def test_mode_splitting_below_switch_frozen_bits(delta, P_hex, N_hex):
    # every cut below the switch is a shell (1.07e4 is the last delta
    # before it); these are the bits of one cumsum over the whole shell
    # table, which the block-streamed passes must reproduce
    assert delta * math.log(delta) < 1e5
    P, N = mode_splitting_bound(delta)
    assert (P.hex(), N.hex()) == (P_hex, N_hex)


def test_split_bound_below_switch_peak_memory(monkeypatch):
    # the cuts up to 16 n*^2 ~ 1.5e6 are streamed block by block; a table
    # of their 315k shells with its running sums would take about 19 MiB
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    tracemalloc.start()
    try:
        mode_splitting_bound(1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 2 not in lattice._SHELL_CACHE


def test_mode_splitting_monotone_across_enumeration_switch():
    # n*^2 = delta log delta crosses the exact-enumeration limit 1e5 between
    # 1.07e4 and 1.08e4; the sampled minimum above it may not undercut the
    # exact one below it
    deltas = [9e3, 1e4, 1.07e4, 1.08e4, 1.2e4]
    assert deltas[2] * math.log(deltas[2]) < 1e5 < deltas[3] * math.log(deltas[3])
    Ps = [mode_splitting_bound(d)[0] for d in deltas]
    assert all(a <= b for a, b in zip(Ps, Ps[1:]))


def test_prev_representable_matches_scalar_test():
    # the largest sum of two squares <= m, in one vectorized pass, against
    # lattice.is_representable one integer at a time, on small m, sums of
    # two squares, and m up to 1e8
    m_max = 10**8
    rng = np.random.default_rng(7)
    sample = list(range(1, 40)) + [int(m) for m in rng.integers(40, m_max, 40)]
    sample += [9991**2 + 37**2, 10**8, 2 * 7071**2, 3 * 7**8, m_max - 1]
    for m in sample:
        p = _largest_two_squares(m)
        assert 1 <= p <= m
        assert is_representable(p)
        assert not any(is_representable(j) for j in range(p + 1, m + 1))
        if is_representable(m):
            assert p == m


def test_mode_splitting_dominates_theta():
    for delta in (1.0, 2.0, 10.0, 100.0):
        P, _ = mode_splitting_bound(delta)
        assert P >= theta_model("exact", delta)


def test_mode_splitting_low_sum_consistency():
    # the low part of the split is the partial inverse-square sum
    assert abs(partial_inverse_square_sum(1.0) - 4.0) < 1e-13


def split_continuum(delta: float) -> float:
    """Continuum model of the split bound.

    With S_low(m) ~ pi log m + beta and S_high(m) ~ pi/m for a cut at
    |k|^2 = m, writing a = S_low the minimum over m sits at m = delta a/pi,
    where S_high = pi^2/a.  Hence 4 pi^2 P = a + 2 pi + pi^2/a with the
    fixed point a = pi log(delta a/pi) + beta (a contraction, slope pi/a).
    """
    beta = beta_constant().value
    a = math.pi * math.log(delta) + beta
    for _ in range(100):
        a = math.pi * math.log(delta * a / math.pi) + beta
    return (a + 2.0 * math.pi + math.pi**2 / a) / (4.0 * math.pi**2)


def loglog_prediction(delta: float) -> float:
    return (
        math.log(delta) + math.log(math.log(delta)) + loglog_lower_constant()
    ) / (4.0 * math.pi)


@pytest.mark.parametrize("delta", [1e3, 1e5])
def test_mode_splitting_matches_continuum_model(delta):
    # an independent route to P: no lattice enumeration, only beta
    P, _ = mode_splitting_bound(delta)
    assert abs(P - split_continuum(delta)) < 1e-6


def test_split_continuum_excess_tends_to_one_over_four_pi():
    # a + 2 pi = pi (log delta + log log delta) + beta + 2 pi + o(1), so the
    # excess of P over the double-log prediction decreases to 1/(4 pi),
    # below (1 + log 2)/(4 pi) at every delta
    excess = [
        split_continuum(d) - loglog_prediction(d)
        for d in (1e3, 1e5, 1e6, 1e30, 1e300)
    ]
    assert all(a > b for a, b in zip(excess, excess[1:]))
    assert excess[0] < (1.0 + math.log(2.0)) / (4.0 * math.pi) - 0.01
    assert 0.0 < excess[-1] - 1.0 / (4.0 * math.pi) < 2e-3


def test_mode_splitting_domain():
    with pytest.raises(DomainError):
        mode_splitting_bound(0.5)


# ------------------------------------------------------ single-log bound


def test_first_method_frozen():
    assert abs(first_method_bound(2.0) - 0.32360644349722284) < 1e-10
    assert abs(first_method_bound(6.0) - 0.548393615051356) < 1e-10
    assert abs(first_method_bound(10.0) - 0.6616250613964029) < 1e-10


def test_first_method_dominates_theta():
    for delta in (1.5, 2.0, 6.0, 10.0, 50.0):
        assert first_method_bound(delta) >= theta_model("exact", delta)


def test_first_method_is_a_min_over_eps():
    # no single eps may beat the reported minimum
    delta = 6.0
    fm = first_method_bound(delta)
    for eps in (0.05, 0.1, 0.2, 0.4):
        assert fm <= embedding_constant(eps) * delta**eps * (1.0 + 1e-12) + 1e-12


def test_first_method_log_factor_tends_to_e():
    ratio = first_method_bound(1e8) / (math.log(1e8) / (4.0 * math.pi))
    assert math.e < ratio < 1.1 * math.e


def test_first_method_domain():
    with pytest.raises(DomainError):
        first_method_bound(0.9)


@pytest.mark.parametrize("fn", [
    mode_splitting_bound,
    first_method_bound,
    lambda delta: theta_dn(CaseDN(2, 3), delta),
    lambda delta: deviation(CaseDN(2, 3), delta),
    lambda delta: shifted_deviation(CaseDN(2, 3), delta),
], ids=["mode_splitting_bound", "first_method_bound", "theta_dn", "deviation",
        "shifted_deviation"])
@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_non_finite_delta_is_a_domain_error(fn, delta):
    with pytest.raises(DomainError, match="need finite delta >= 1"):
        fn(delta)


def test_mode_splitting_finite_delta_past_the_cap_is_a_resource_limit():
    with pytest.raises(ResourceLimitError):
        mode_splitting_bound(1e8)
