"""Lattice-sum engine: dual-route agreement, identities, tail brackets, counting.

The screened triple over Z^2 \\ {0} with q = |k|^2:

    f(mu) = sum' 1/(q(1+mu q)),  g(mu) = sum' 1/(q(1+mu q)^2),
    h(mu) = sum' 1/(1+mu q)^2,   and exactly  g = f - mu h.

The general (d,n) triple screens with q^n:

    f = sum' 1/(1+mu q^n),  g = sum' 1/(1+mu q^n)^2,  h = (f-g)/mu.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsob import lattice
from torsob.errors import (
    DomainError,
    ResourceLimitError,
    ToleranceUnreachableError,
    TorsobError,
)
from torsob.lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    beta_constant,
    critical_sums,
    general_sums,
    hardy_sum,
    is_representable,
    next_representable,
    r2_count,
    tail_bracket,
)
from torsob.specfun import dirichlet_beta_prime_at_1, zeta_dirichlet

from scalar_oracles import (
    bessel_k01_mp,
    critical_triple_images_mp,
    critical_triple_mp,
    epstein_theta_split,
    general_triple_rows_mp,
    hardy_sum_theta_split,
    partial_inverse_square_sum,
)

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219
CFG10 = PrecisionConfig(target_abs_tol=1e-10)


def epstein(p: float) -> float:
    """sum' |k|^{-p} over Z^2 by the multiplicative factorization."""
    z, b = zeta_dirichlet(p / 2.0)
    return 4.0 * z.value * b.value


# ------------------------------------------------------------ constants


def test_beta_constant_closed_form():
    truth = math.pi * (
        2.0 * EULER_GAMMA + 2.0 * math.log(2.0) + 3.0 * math.log(math.pi)
        - 4.0 * math.lgamma(0.25)
    )
    sv = beta_constant()
    assert abs(sv.value - truth) < 1e-14
    assert abs(sv.value - 2.584981759579253) < 1e-14


def test_beta_constant_beta_prime_identity():
    # pi*gamma + 4*beta_D'(1) reproduces the same constant
    alt = math.pi * EULER_GAMMA + 4.0 * dirichlet_beta_prime_at_1().value
    assert abs(beta_constant().value - alt) < 1e-12


# ------------------------------------------------------- critical triple


def test_critical_identity_frozen_mu_star():
    s = critical_sums(0.1221104705136475)
    assert abs(s.f.value - 9.313324718412723) < 2e-12
    assert abs(s.f.value - s.mu * s.h.value - s.g.value) < 1e-12 * abs(s.f.value)
    # the curve quantities derived from the triple
    delta = s.h.value / s.g.value
    theta = s.f.value**2 / (4.0 * math.pi**2 * s.g.value)
    assert abs(delta - 3.9288361657183553) < 5e-11
    assert abs(theta - 0.3490872233533581) < 5e-12


@given(st.floats(min_value=-2.7, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_critical_identity_property(logmu):
    mu = math.exp(logmu)
    s = critical_sums(mu)
    scale = max(abs(s.f.value), abs(mu * s.h.value))
    assert abs(s.f.value - mu * s.h.value - s.g.value) < 1e-11 * scale
    assert s.f.value > 0 and s.g.value > 0 and s.h.value > 0


@pytest.mark.parametrize("mu", [0.05, 0.3, 3.0])
def test_critical_dual_route(mu):
    s1 = critical_sums(mu, method="direct", cfg=CFG10)
    s2 = critical_sums(mu, method="accelerated", cfg=CFG10)
    assert s1.method == "direct" and s2.method == "accelerated"
    for a, b in ((s1.f, s2.f), (s1.g, s2.g), (s1.h, s2.h)):
        assert abs(a.value - b.value) < 1e-10 * max(1.0, abs(a.value))


@pytest.mark.parametrize(
    "mu", [-1.0000001, -1.00001, -1.001, -1.5, -20.0, 4.5, 6.0, 50.0]
)
def test_critical_direct_within_its_bound_of_50_digit_references(mu):
    # near the resonance 1 + mu q is tiny on q = 1; the shell pass forms it
    # exactly there and sums f - g as t (1 - t), which does not cancel
    s = critical_sums(mu, method="direct")
    for sv, ref in zip((s.f, s.g, s.h), critical_triple_mp(mu)):
        assert abs(mp.mpf(sv.value) - ref) <= sv.abs_error_bound


def test_image_oracle_matches_series_oracle():
    # the two 40-digit routes to the triple agree where both hold, and the
    # oracle's Bessel K agrees with mpmath's besselk
    for mu in (1.05, 4.0):
        for a, b in zip(critical_triple_images_mp(mu), critical_triple_mp(mu)):
            assert abs(a - b) < mp.mpf(10) ** -45 * abs(b)
    with mp.workdps(50):
        step = mp.mpf(1) / 16
        nodes = [mp.cosh(j * step) for j in range(80)]
        for x in (mp.pi, mp.mpf(20)):
            for k, ref in zip(bessel_k01_mp(x, nodes, step), (mp.besselk(0, x), mp.besselk(1, x))):
                assert abs(k - ref) < mp.mpf(10) ** -45 * ref


@pytest.mark.parametrize(
    "grid, oracle",
    [(np.linspace(1.05, 4.0, 60), critical_triple_mp),
     (np.geomspace(1e-3, 1.0, 40), critical_triple_images_mp),
     (np.geomspace(1e-7, 1e-3, 20), critical_triple_images_mp),
     ([1.0, 2.0], critical_triple_images_mp)],
    ids=["1.05-4", "1e-3-1", "1e-7-1e-3", "1-and-2"],
)
def test_accelerated_triple_within_its_bounds(grid, oracle):
    # the Bessel images broke f's bound at 24 of the 60 mu, 3 of the 40 and
    # at mu = 1 and 2, from the rounding of beta; the closed rows carry no
    # beta.  The tiny-mu grid is where the exact curve at delta up to 1e6
    # calls the route
    for mu in map(float, grid):
        s = critical_sums(mu, "accelerated")
        for sv, ref in zip((s.f, s.g, s.h), oracle(mu)):
            assert abs(mp.mpf(sv.value) - ref) <= sv.abs_error_bound, mu


def test_accelerated_h_row0_does_not_cancel_past_mu_one():
    # past mu = 1 row 0 of h less its k = 0 term 1 cancelled, and h was up
    # to 1.85e-15 relative off on this grid; its series keeps it to an ulp
    for mu in np.linspace(1.05, 4.0, 60):
        h = critical_sums(float(mu), "accelerated").h.value
        ref = critical_triple_mp(float(mu))[2]
        assert abs(mp.mpf(h) - ref) <= 6e-16 * ref, mu


def test_critical_small_mu_log_asymptote():
    # f(mu) = pi log(1/mu) + beta + mu + O(mu^2 log) as mu -> 0
    mu = 0.01
    f = critical_sums(mu).f.value
    pred = math.pi * math.log(1.0 / mu) + beta_constant().value + mu
    assert abs(f - pred) < 1e-6


def test_critical_large_mu_power_asymptote():
    # f(mu) = Z(4)/mu - Z(6)/mu^2 + O(mu^-3)
    mu = 200.0
    f = critical_sums(mu).f.value
    pred = epstein(4.0) / mu - epstein(6.0) / mu**2
    assert abs(f - pred) < 1.2 * epstein(8.0) / mu**3


def test_critical_negative_branch():
    # mu < -1 is the analytic continuation; [-1, 0) is the resonance band
    s = critical_sums(-2.0)
    assert abs(s.f.value - s.mu * s.h.value - s.g.value) < 1e-11 * abs(s.f.value)
    with pytest.raises(DomainError):
        critical_sums(-0.5)
    # at mu = -1 the |k| = 1 shell is a pole; the curve serves that
    # endpoint in closed form
    with pytest.raises(DomainError, match=r"resonance band \[-1, 0\)"):
        critical_sums(-1.0)
    with pytest.raises(DomainError):
        critical_sums(0.0)


@pytest.mark.parametrize("mu", [1e-205, 1e-300, 5e-324])
def test_critical_tiny_mu_underflows_like_general_sums(mu):
    # 2 pi^2 mu^-1.5 in h leaves double range from mu = 2.3e-205 down
    with pytest.raises(DomainError, match="mu underflows double precision"):
        critical_sums(mu)
    s = critical_sums(1e-204)
    assert all(math.isfinite(sv.value) for sv in (s.f, s.g, s.h))


def test_critical_error_bounds_reported():
    s = critical_sums(0.7)
    for sv in (s.f, s.g, s.h):
        assert 0.0 < sv.abs_error_bound <= 1e-11


def test_critical_direct_error_floor():
    # at small mu the direct route cannot certify 1e-12 and must say so
    with pytest.raises(ToleranceUnreachableError):
        critical_sums(0.1, method="direct")


def test_critical_unknown_method():
    with pytest.raises(DomainError):
        critical_sums(0.1, method="bogus")


# ------------------------------------------------------- general triple


def test_general_sums_brute_1d():
    mu, n = 0.5, 2
    s = general_sums(CaseDN(1, n), mu)
    ks = np.arange(1, 10000, dtype=float)
    t = 1.0 / (1.0 + mu * ks ** (2 * n))
    bf, bg = 2.0 * t.sum(), 2.0 * (t * t).sum()
    assert abs(s.f.value - bf) < 5e-11
    assert abs(s.g.value - bg) < 5e-11
    assert abs(s.h.value - (bf - bg) / mu) < 2e-10


def test_general_sums_brute_2d():
    mu, n = 0.9, 3
    s = general_sums(CaseDN(2, n), mu)
    k = np.arange(-650, 651)
    q = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    q[650, 650] = np.inf
    t = 1.0 / (1.0 + mu * q**n)
    assert abs(s.f.value - t.sum()) < 2e-11
    assert abs(s.g.value - (t * t).sum()) < 2e-11


def test_general_sums_identity_property():
    for (d, n), mu in [((1, 3), 0.02), ((2, 2), 1.7), ((3, 2), 0.4)]:
        s = general_sums(CaseDN(d, n), mu)
        assert abs(s.f.value - s.g.value - mu * s.h.value) < 1e-11 * abs(s.f.value)


@pytest.mark.parametrize("d, n, mu", [(1, 100, 1.3**-200), (2, 100, 1.5**-100)])
def test_general_sums_h_keeps_shells_with_small_x(d, n, mu):
    # the |k| = 1 shell sits at x = mu |k|^{2n} near 1e-23 and 2e-18, where
    # 1 - 1/(1 + x) rounds to 0, yet it carries almost all of h; compare with
    # a 50-digit sum over |k_i| <= 6 (the omitted terms are below 1e-40)
    with mp.workdps(50):
        ks = [mp.mpf(k) ** 2 for k in range(-6, 7)]
        qs = ks if d == 1 else [a + b for a in ks for b in ks]
        m = mp.mpf(mu)
        ref = float(mp.fsum(q**n / (1 + m * q**n) ** 2 for q in qs if q > 0))
    h = general_sums(CaseDN(d, n), mu).h
    assert abs(h.value - ref) <= h.abs_error_bound
    assert abs(h.value - ref) <= 4e-16 * ref


@pytest.mark.parametrize(
    "d, n, z, bits",
    [
        # rows; at 40 digits f = 470.2388980384689744781,
        # g = 234.6194490192344872391, h = 5301437.602932775708825
        (1, 1, 150.0, (
            "0x1.d63d286bfe4d9p+8", "0x1.090a66bcbf0bap-40",
            "0x1.d53d286bfe4d9p+7", "0x1.35302286dee2fp-41",
            "0x1.4392f6696735bp+22", "0x1.9477b403c1032p-27",
        )),
        # the d = 3 radius cap, where the 1e-7 relative rule returns the sums
        (3, 2, 12.0, (
            "0x1.78d7d196630d1p+14", "0x1.43af607ca48bfp-12",
            "0x1.78cbd194b1b36p+12", "0x1.43a8b4d82a929p-12",
            "0x1.65b8a7f24922fp+28", "0x1.99a5bbb74c67ep+3",
        )),
        # rows; at 40 digits f = 33.18725266362863266279,
        # g = 21.79597342807181545448, h = 8304.24256272092035169
        (2, 3, 3.0, (
            "0x1.097f7e5312fdcp+5", "0x1.47b82b0f68977p-43",
            "0x1.5cbc4ea220db2p+4", "0x1.177465c94f310p-43",
            "0x1.0381f0c4b94cbp+13", "0x1.36500da7fa60ap-35",
        )),
    ],
)
def test_general_sums_frozen_bits(d, n, z, bits):
    s = general_sums(CaseDN(d, n), z ** (-2.0 * n))
    assert tuple(x.hex() for sv in (s.f, s.g, s.h) for x in (sv.value, sv.abs_error_bound)) == bits


def test_general_sums_cap_raises():
    # d = 3 at tiny mu needs an enumeration radius beyond any sane budget
    with pytest.raises(ToleranceUnreachableError):
        general_sums(CaseDN(3, 2), 1e-18)


#: the (d, n) cases of the remainder-constant table
GATE_CASES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (2, 10), (3, 6))


def _triple_fields(tr):
    return (tr.mu, tr.method) + tuple(
        (sv.value, sv.abs_error_bound) for sv in (tr.f, tr.g, tr.h)
    )


@pytest.mark.parametrize("d, n", GATE_CASES)
def test_general_sums_batch_is_the_scalar_call_bit_for_bit(d, n, monkeypatch):
    # z = mu^{-1/2n} is the screening radius; the upper ends take d <= 2
    # far onto the rows and bring d = 3 onto its cap of 170, where the
    # 1e-7 relative rule returns the sums
    case, cfg = CaseDN(d, n), DEFAULT_CONFIG
    rng = np.random.default_rng(100 * d + n)
    z_hi = {1: 150.0, 2: 25.0, 3: 12.0}[d]
    zs = np.concatenate([[0.3, z_hi], rng.uniform(0.3, z_hi, 22)])
    mus = [float(z ** (-2.0 * n)) for z in zs]
    ladder = []  # (z, radius) of every run of the radius ladder
    real = lattice._general_radius

    def recorded(case, mu, z, *rest):
        ladder.append((z, real(case, mu, z, *rest)))
        return ladder[-1][1]

    monkeypatch.setattr(lattice, "_general_radius", recorded)
    batch = lattice._general_sums_batch(case, mus, cfg)
    assert [_triple_fields(t) for t in batch] == [
        _triple_fields(general_sums(case, mu)) for mu in mus
    ]
    if d <= 2:
        # the rows take z >= 1, and the shells below it stay at their base radius
        assert ladder == []
        assert {t.method for t in batch} == {"direct", "accelerated"}
    else:
        cap = min(cfg.max_radius, lattice._budget_radius(d))
        assert any(T > max(lattice._BASE_RADIUS[d], int(8.0 * z) + 1) for z, T in ladder)
        assert any(T == cap for _, T in ladder)


def test_general_sums_batch_spans_row_blocks():
    # 400 mus of (2, 3) hold more complex elements than a _BLOCK chunk, so
    # they fill many row blocks, each padded to the batch's longest row
    # count, where a scalar call pads to its own
    case = CaseDN(2, 3)
    zs = np.random.default_rng(23).uniform(1.0, 25.0, 400)
    mus = [float(z ** -6.0) for z in zs]
    rows = lattice._row_count(3, float(zs.max())) + 1
    assert len(mus) * rows * len(lattice._unit_roots(3)[0]) > lattice._BLOCK
    batch = lattice._general_sums_batch(case, mus, DEFAULT_CONFIG)
    assert {t.method for t in batch} == {"accelerated"}
    assert [_triple_fields(t) for t in batch] == [
        _triple_fields(general_sums(case, mu)) for mu in mus
    ]


@pytest.mark.parametrize("n, z", [(2, 6.0), (3, 25.0), (10, 3.0)])
def test_general_rows_oracle_keeps_its_digits_with_more_rows(n, z):
    # 40 more closed rows and a series from further out agree to 1e-30
    mu = z ** (-2.0 * n)
    near = general_triple_rows_mp(2, n, mu)
    far = general_triple_rows_mp(2, n, mu, extra=40)
    for a, b in zip(near, far):
        assert abs(a - b) <= 1e-30 * abs(a)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 10)])
def test_general_sums_within_bounds_of_the_40_digit_rows(d, n):
    # just below and above the row switch, at 3 and 6, and one large z
    below, above = lattice._ROW_SWITCH * (1.0 - 1e-3), lattice._ROW_SWITCH * (1.0 + 1e-3)
    for z in (below, above, 3.0, 6.0, 150.0 if d == 1 else 25.0):
        mu = z ** (-2.0 * n)
        s = general_sums(CaseDN(d, n), mu)
        assert s.method == ("direct" if z < lattice._ROW_SWITCH else "accelerated")
        for sv, ref in zip((s.f, s.g, s.h), general_triple_rows_mp(d, n, mu)):
            assert abs(sv.value - ref) <= sv.abs_error_bound


@pytest.mark.parametrize(
    "d, n, bad",
    [
        (2, 3, 0.0),
        (2, 3, -1.0),
        (1, 2, math.nan),
        (1, 2, math.inf),
        (2, 2, 1e-320),  # mu |k|^{2n} would underflow
        (3, 2, 1e-18),  # screening radius past the d = 3 cap
    ],
)
def test_general_sums_batch_bad_mu_raises_like_the_scalar_call(d, n, bad):
    case = CaseDN(d, n)
    with pytest.raises(TorsobError) as scalar:
        general_sums(case, bad)
    with pytest.raises(TorsobError) as batch:
        lattice._general_sums_batch(case, [0.5, bad, 2.0, -3.0], DEFAULT_CONFIG)
    assert type(batch.value) is type(scalar.value)
    assert str(batch.value) == str(scalar.value)
    assert lattice._general_sums_batch(case, [], DEFAULT_CONFIG) == []


def test_case_dn_admissibility():
    CaseDN(1, 1)
    CaseDN(2, 2)
    CaseDN(3, 2)
    with pytest.raises(DomainError):
        CaseDN(2, 1)  # needs 2n - d > 0
    with pytest.raises(DomainError):
        CaseDN(3, 1)
    with pytest.raises(DomainError):
        CaseDN(4, 2)
    with pytest.raises(DomainError):
        CaseDN(1, 0)


# ------------------------------------------------------------ Hardy sums


def test_hardy_closed_form():
    assert abs(hardy_sum(1.0).value - epstein(4.0)) < 1e-12


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_hardy_split_agreement(eps):
    a = hardy_sum(eps)
    b = hardy_sum_theta_split(eps)
    assert abs(a.value - b.value) < 1e-9


def test_hardy_domain():
    with pytest.raises(DomainError):
        hardy_sum(0.0)
    with pytest.raises(DomainError):
        hardy_sum(-0.3)


@pytest.mark.parametrize("j", [2, 3, 4, 7, 8])
def test_z3_moment_inside_shell_bracket(j):
    # the moment against a direct partial sum over |k| <= T plus the
    # integral bracket on the rest; j = 7 and 8 straddle the seam between
    # the literals and the direct sum, and there T = 10 keeps the bracket
    # over 1000 ulps wide (at T = 40 it is below one ulp)
    T = 40 if j < 7 else 10
    q, c = lattice._shells(3, T)
    partial = math.fsum(c * q ** (-float(j)))
    lo, hi = lattice._power_tail_bracket(3, 2 * j, float(T))
    assert partial + lo < lattice._z3_moment(j).value < partial + hi


@pytest.mark.parametrize("j", range(2, 8))
def test_z3_literals_are_the_rounded_theta_splitting(j):
    # each literal is the 40-digit theta splitting, rounded once
    assert lattice._Z3_LITERALS[j - 2] == epstein_theta_split(3, j, dps=40)
    assert lattice._z3_moment(j).value == lattice._Z3_LITERALS[j - 2]


def test_z3_direct_moments_equal_the_theta_splitting():
    # from j = 8 on the shells up to 16 and the bracket midpoint past it
    # give the 40-digit theta splitting, rounded once, bit for bit; the
    # bracket half-width stays below 8.4e-17 of the moment
    for j in range(8, 61):
        got = lattice._z3_moment(j)
        ref = epstein_theta_split(3, j, dps=40)
        assert got.value == ref, j
        assert abs(got.value - ref) <= got.abs_error_bound
        lo, hi = lattice._power_tail_bracket(3, 2 * j, 16.0)
        assert 0.5 * (hi - lo) <= 8.4e-17 * got.value, j


def test_clipped_moment_skips_the_partial_sum_below_its_noise_floor(monkeypatch):
    # for |k|^{-12} past T = 48 the bracket is far narrower than the full
    # moment's noise floor, so the partial sum could not change the answer
    q, c = lattice._shells(2, 48)
    lo, hi = lattice._power_tail_bracket(2, 12, 48.0)
    full = lattice._z2_moment(6)
    floor = full.abs_error_bound + 1.6e-15 * abs(full.value)
    assert floor >= hi - lo

    def no_dot(a, b):
        raise AssertionError("partial sum formed")

    monkeypatch.setattr(lattice, "_dot", no_dot)
    got = lattice._clipped_moment(2, 6, q, c, lo, hi)
    assert got == (0.5 * (lo + hi), 0.5 * (hi - lo), floor)


# ------------------------------------------------------------ shell table


def brute_shells(d, r):
    """Distinct 0 < |k|^2 <= r^2 and their counts over the (2r+1)^d box."""
    k = np.arange(-r, r + 1)
    q = sum(np.meshgrid(*([k * k] * d), indexing="ij")).ravel()
    q, c = np.unique(q[(q > 0) & (q <= r * r)], return_counts=True)
    return q.astype(np.float64), c.astype(np.float64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 7, 13])
def test_shells_match_brute_force(d, r, monkeypatch):
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    q, c = lattice._shells(d, r)
    want_q, want_c = brute_shells(d, r)
    assert q.dtype == c.dtype == np.float64
    assert q.tobytes() == want_q.tobytes()
    assert c.tobytes() == want_c.tobytes()


@pytest.mark.parametrize("d, big", [(1, 500), (2, 300), (3, 60)])
def test_shells_sliced_from_cache_equal_fresh(d, big, monkeypatch):
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    lattice._shells(d, big)
    cached = lattice._SHELL_CACHE[d]
    for r in (0, 1, 2, 7, 13, big // 2 + 1):
        q, c = lattice._shells(d, r)
        assert lattice._SHELL_CACHE[d] is cached  # served from the big table
        lattice._SHELL_CACHE.clear()
        fresh_q, fresh_c = lattice._shells(d, r)
        assert q.tobytes() == fresh_q.tobytes()
        assert c.tobytes() == fresh_c.tobytes()
        lattice._SHELL_CACHE[d] = cached


@pytest.mark.parametrize(
    "d, ladder, plane_radius",
    [(2, (5, 48, 77, 200), None), (3, (7, 32, 52), None), (3, (7, 32, 52), 80)],
)
def test_shells_grown_by_a_ladder_equal_fresh(d, ladder, plane_radius, monkeypatch):
    # each rung appends only its annulus; blocks of 97 squared norms split
    # every growth step, and for d = 3 the d = 2 table it reads is grown
    # along, or already cached at a larger radius
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    monkeypatch.setattr(lattice, "_SHELL_BLOCK", 97)
    if plane_radius:
        lattice._shells(2, plane_radius)
    for r in ladder:
        lattice._shells(d, r)
    radius, q, c = lattice._SHELL_CACHE[d]
    assert radius == ladder[-1]
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    fresh_q, fresh_c = lattice._shells(d, radius)
    want_q, want_c = brute_shells(d, radius)
    assert q.tobytes() == fresh_q.tobytes() == want_q.tobytes()
    assert c.tobytes() == fresh_c.tobytes() == want_c.tobytes()


@pytest.mark.parametrize(
    "d, ladder", [(1, (3, 40, 41)), (2, (5, 48, 77, 200)), (3, (7, 32, 52))]
)
def test_shells_enumerate_each_squared_norm_once(d, ladder, monkeypatch):
    # a climb enumerates (0, R^2] once in all, for d = 3 and for the d = 2
    # table under it; slices of the cache enumerate nothing
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    spans = {1: [], 2: [], 3: []}
    block = lattice._shell_block

    def counted(dim, lo, hi):
        spans[dim].append((lo, hi))
        return block(dim, lo, hi)

    monkeypatch.setattr(lattice, "_shell_block", counted)
    for r in ladder + ladder[:2]:
        lattice._shells(d, r)
    top = ladder[-1] ** 2
    assert sum(hi - lo for lo, hi in spans[d]) == top
    assert len(spans[d]) == len(ladder)
    if d == 3:
        assert sum(hi - lo for lo, hi in spans[2]) == top


@pytest.mark.parametrize("d, r", [(3, 171), (2, 6124)])
def test_shells_over_budget_raise_before_allocating(d, r, monkeypatch):
    monkeypatch.setattr(lattice, "_SHELL_CACHE", {})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            lattice._shells(d, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one r^2 count array would be 8 (r^2 + 1) bytes
    assert lattice._SHELL_CACHE == {}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_budget_radius_is_the_largest_box_within_the_budget(d):
    T, budget = lattice._budget_radius(d), lattice._POINT_BUDGET[d]
    assert (2 * T + 1) ** d <= budget < (2 * T + 3) ** d


# ---------------------------------------------------------- tail brackets


def brute_tail(weight, R, big=3000):
    k = np.arange(-big, big + 1)
    q = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    q[big, big] = np.inf
    mask = q > R * R
    return float(weight(q[mask]).sum())


def test_tail_bracket_plain_encloses():
    # the cell sandwich for |k|^-4: wide, but rigorous
    lo, hi = lattice._power_tail_bracket(2, 4.0, 50.0)
    truth = brute_tail(lambda q: q**-2.0, 50.0)
    assert lo <= truth + 4e-7 and truth <= hi + 1e-12
    assert 0.0 < hi - lo < 5e-4


@pytest.mark.parametrize("mu", [0.3, 10.0, 1e3, 1e4, 1e7, 1e12])
@pytest.mark.parametrize("R", [40.0, 80.0, 200.0])
def test_tail_bracket_screened_g_encloses(R, mu):
    # the sandwich behind the field's l2 radius; the box of brute_tail
    # misses only |k| > 1000, where the summand is below |k|^-6 / mu^2
    lo, hi = tail_bracket(R, mu)
    truth = brute_tail(lambda q: 1.0 / (q * (1.0 + mu * q) ** 2), R, big=1000)
    missed = lattice._power_tail_bracket(2, 6.0, 1000.0)[1] / mu**2
    assert 0.0 < lo <= truth + missed
    assert truth <= hi


def test_tail_bracket_monotone_in_radius():
    prev = tail_bracket(40.0, 0.3)
    for R in (80.0, 160.0):
        cur = tail_bracket(R, 0.3)
        assert cur[1] < prev[1]
        prev = cur


@pytest.mark.parametrize("mu", [1e-300, 1e-200, 1e300])
def test_tail_bracket_finite_mu_never_raises(mu):
    lo, hi = tail_bracket(64.0, mu)
    assert 0.0 <= lo <= hi


def test_tail_bracket_validation():
    with pytest.raises(DomainError):
        tail_bracket(50.0, 0.0)  # the screen must be monotone
    with pytest.raises(DomainError):
        tail_bracket(1.5, 0.3)


# ------------------------------------------------- counting and partials


def test_r2_cumulative_small_values():
    # R2(m) counts nonzero lattice points in the closed disk |k|^2 <= m
    assert [r2_count(m) for m in range(0, 11)] == [0, 4, 8, 8, 12, 20, 20, 20, 24, 28, 36]
    assert r2_count(25) - r2_count(24) == 12  # the |k|^2 = 25 shell


def test_r2_shell_jacobi_divisor_formula():
    for m in range(1, 300):
        d1 = sum(1 for t in range(1, m + 1) if m % t == 0 and t % 4 == 1)
        d3 = sum(1 for t in range(1, m + 1) if m % t == 0 and t % 4 == 3)
        assert r2_count(m) - r2_count(m - 1) == 4 * (d1 - d3)


def test_r2_gauss_circle():
    M = 5000
    assert abs(r2_count(M) - math.pi * M) < 10.0 * math.sqrt(M)


def test_representable_matches_r2_shells():
    reps = [m for m in range(1, 30) if is_representable(m)]
    assert reps == [m for m in range(1, 30) if r2_count(m) > r2_count(m - 1)]
    assert reps[:7] == [1, 2, 4, 5, 8, 9, 10]


@given(st.integers(min_value=0, max_value=4000))
@settings(max_examples=60, deadline=None)
def test_next_representable_property(m):
    nxt = next_representable(m)
    assert nxt > m and is_representable(nxt)
    assert all(not is_representable(t) for t in range(m + 1, nxt))


def test_partial_inverse_square_brute():
    # below N = 100 the shells are summed directly, from there the row kernel
    for N in (1.0, 1.5, 10.0, 37.3, 99.99, 100.0, 130.5):
        K = math.floor(N)
        with mp.workdps(40):
            truth = mp.fsum(
                mp.mpf(1) / (i * i + j * j)
                for i in range(-K, K + 1)
                for j in range(-K, K + 1)
                if 0 < i * i + j * j <= N * N
            )
        assert abs(partial_inverse_square_sum(N) - truth) < 1e-15 * truth


def test_partial_inverse_square_log_growth():
    # sum_{|k|<=N} 1/|k|^2 grows like 2 pi log N
    d = partial_inverse_square_sum(800.0) - partial_inverse_square_sum(400.0)
    assert abs(d - 2.0 * math.pi * math.log(2.0)) < 0.02


# ------------------------------------------------------------- config


def test_precision_config_validation():
    with pytest.raises(DomainError):
        PrecisionConfig(target_abs_tol=-1.0)
    with pytest.raises(DomainError):
        PrecisionConfig(max_radius=0)
