"""Higher-order interpolation curves Theta_{d,n}, their power-law expansions,
and the remainder constants K_d(n).

Conventions pinned here:
  deviation(case, delta)  = Theta_{d,n}(delta) - c_d(n) delta^{d/2n}
  shifted_deviation       = deviation + remainder_upper_bound(case)
  K_d(n)                  = -max_delta deviation  (attained or at infinity)
"""

import math

import pytest

from torsob import algebraic as al
from torsob import lattice
from torsob.errors import DomainError, ToleranceUnreachableError, TorsobError
from torsob.curve import _theta_sample
from torsob.lattice import CaseDN, PrecisionConfig, general_sums
from torsob.specfun import zeta_dirichlet


def zeta(p: float) -> float:
    return zeta_dirichlet(p / 2.0)[0].value


def epstein(p: float) -> float:
    z, b = zeta_dirichlet(p / 2.0)
    return 4.0 * z.value * b.value


# --------------------------------------------------------- shell anchors


def test_lowest_shell_theta_closed_forms():
    assert abs(al.lowest_shell_theta(1) - 1.0 / math.pi) < 1e-15
    assert abs(al.lowest_shell_theta(2) - 1.0 / math.pi**2) < 1e-15
    assert abs(al.lowest_shell_theta(3) - 6.0 / (2.0 * math.pi) ** 3) < 1e-15


def test_delta_plateau_moment_ratios():
    # the mu -> inf floor of delta is sum' |k|^{-2n} / sum' |k|^{-4n}
    assert abs(al.delta_plateau(CaseDN(1, 1)) - zeta(4) / zeta(8)) < 1e-13
    assert abs(al.delta_plateau(CaseDN(1, 2)) - zeta(8) / zeta(16)) < 1e-13
    assert abs(al.delta_plateau(CaseDN(2, 2)) - epstein(4) / epstein(8)) < 1e-13
    assert abs(al.delta_plateau(CaseDN(2, 3)) - epstein(6) / epstein(12)) < 1e-13


def test_delta_plateau_frozen_3d():
    assert abs(al.delta_plateau(CaseDN(3, 2)) - 2.380186168833987) < 1e-12


def test_delta_plateau_needs_a_supported_dimension():
    # the full-lattice moments exist for d = 1, 2, 3 only; d = 4 is refused,
    # not answered with the d = 3 moments
    with pytest.raises(DomainError):
        al.delta_plateau(CaseDN(4, 3))
    with pytest.raises(DomainError):
        lattice._full_moment(5, 3)


@pytest.mark.parametrize("d", [4, 5])
def test_remainder_constant_needs_a_supported_dimension(d):
    # refused before any search, as general_sums and theta_dn refuse it
    with pytest.raises(DomainError, match="remainder_constant: need d in"):
        al.remainder_constant(CaseDN(d, 3))


# ----------------------------------------------------------- theta curve


def test_theta_dn_at_one_is_lowest_shell():
    for d, n in ((1, 2), (2, 2), (3, 2), (2, 3)):
        tp = al.theta_dn(CaseDN(d, n), 1.0)
        assert abs(tp.theta - al.lowest_shell_theta(d)) < 1e-14
        assert tp.delta == 1.0


def test_theta_dn_frozen_22():
    tp = al.theta_dn(CaseDN(2, 2), 2.0)
    assert abs(tp.theta - 0.28781210454064665) < 1e-11
    assert abs(tp.mu - 1.2951199909388673) < 1e-9


@pytest.mark.parametrize(
    "dn,mu_hex,theta_hex",
    [
        # by rows; at 50 digits Theta(10) = 0.5662399803777616063263 at
        # mu = 0.02898258382025446004335, and at the mu below Theta is
        # 0.5662399803777623384321 (0.13 ulp under the theta below)
        ((1, 3), "0x1.dad9c46a572dep-6", "0x1.21ea34ead201fp-1"),
        ((3, 2), "0x1.6eeb1977f31fdp-2", "0x1.1345836e042b5p-1"),
    ],
)
def test_theta_dn_frozen_bits(dn, mu_hex, theta_hex):
    tp = al.theta_dn(CaseDN(*dn), 10.0)
    assert (tp.mu.hex(), tp.theta.hex()) == (mu_hex, theta_hex)


@pytest.mark.parametrize("dn,delta", [((2, 2), 10.0), ((1, 3), 2.0), ((3, 2), 30.0)])
def test_theta_dn_error_bound_covers_a_tighter_sum(dn, delta):
    c = CaseDN(*dn)
    assert al.theta_dn(c, 1.0).abs_error_bound == 0.0  # closed form
    tp = al.theta_dn(c, delta)
    tight = _theta_sample(general_sums(c, tp.mu, PrecisionConfig(target_abs_tol=1e-14)), c.d).theta
    assert 0.0 < tp.abs_error_bound < 1e-10
    assert abs(tight - tp.theta) <= tp.abs_error_bound


@pytest.mark.parametrize("dn,delta", [((2, 2), 2.0), ((2, 3), 10.0), ((1, 3), 3.0)])
def test_theta_dn_sums_each_point_once(dn, delta, monkeypatch):
    calls = []
    real = al._general_sums_batch

    def counted(case, mus, *args, **kwargs):
        calls.extend(mus)
        return real(case, mus, *args, **kwargs)

    monkeypatch.setattr(al, "_general_sums_batch", counted)
    sample = al.theta_dn(CaseDN(*dn), delta)
    assert calls and len(set(calls)) == len(calls)
    assert sample.mu in calls  # the root was one of the evaluated points


def test_theta_dn_round_trip_and_monotone():
    c = CaseDN(2, 2)
    vals = []
    for delta in (1.5, 2.0, 4.0, 9.0):
        tp = al.theta_dn(c, delta)
        assert abs(tp.delta - delta) < 1e-9 * delta
        vals.append(tp.theta)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_theta_dn_plateau_gap_rejected():
    # between delta = 1 (lowest shell) and the plateau no mu > 0 exists
    c = CaseDN(2, 2)
    with pytest.raises(DomainError):
        al.theta_dn(c, 1.1)
    with pytest.raises(DomainError):
        al.theta_dn(c, al.delta_plateau(c))
    al.theta_dn(c, al.delta_plateau(c) * 1.001)  # just above: fine


# ------------------------------------------------ deviations and shifts


def test_shift_is_the_closed_form_bound():
    for (d, n), delta in [((2, 3), 3.0), ((2, 3), 7.0), ((1, 3), 2.0), ((2, 2), 4.0)]:
        c = CaseDN(d, n)
        shift = al.shifted_deviation(c, delta) - al.deviation(c, delta)
        assert abs(shift - al.remainder_upper_bound(c)) < 1e-14


def test_remainder_upper_bound_d2_closed_form():
    # for d = 2 the closed bound is n/(4 pi^2 (n-1))
    for n in (2, 3, 10):
        c = CaseDN(2, n)
        assert abs(al.remainder_upper_bound(c) - n / (4.0 * math.pi**2 * (n - 1))) < 1e-14


def test_deviation_equals_minus_K_at_argmax():
    rep = al.remainder_constant(CaseDN(1, 3))
    assert rep.attained
    assert abs(al.deviation(CaseDN(1, 3), rep.delta_argmax) + rep.K) < 1e-11


def test_deviation_frozen_23():
    assert abs(al.deviation(CaseDN(2, 3), 3.0) - (-0.0343673207040501)) < 1e-10
    assert abs(al.shifted_deviation(CaseDN(2, 3), 3.0) - 0.003628123161826563) < 1e-10


# ------------------------------------------------------------ constants


@pytest.mark.parametrize(
    "d,n,truth",
    [
        (1, 1, 1.0 / math.pi),
        (1, 2, 2.0 / (3.0 * math.pi)),
        (2, 2, 1.0 / (2.0 * math.pi**2)),
    ],
)
def test_remainder_constant_at_infinity_cases(d, n, truth):
    rep = al.remainder_constant(CaseDN(d, n))
    assert abs(rep.K - truth) < 1e-11
    assert not rep.attained
    assert rep.delta_argmax == math.inf
    assert rep.sign == "positive"
    assert rep.K <= rep.upper_bound + 1e-14


def test_remainder_constant_attained_13():
    rep = al.remainder_constant(CaseDN(1, 3))
    assert rep.attained and rep.sign == "positive"
    assert abs(rep.K - 0.18123641402139923) < 5e-9
    assert abs(rep.delta_argmax - 1.4336814670823528) < 5e-6
    assert abs(rep.upper_bound - 0.19098593171027442) < 1e-13


def test_remainder_constant_uncertified_tail_is_unreachable(monkeypatch):
    # the search range is not grown: a tail that certifies neither way
    # raises
    monkeypatch.setattr(al, "_tail_samples", lambda *args: (False, math.inf))
    with pytest.raises(ToleranceUnreachableError, match="not certified"):
        al.remainder_constant(CaseDN(1, 3))


def test_leading_constants_frozen():
    assert abs(al.leading_constant(CaseDN(1, 1)) - 1.0) < 1e-14
    assert abs(al.leading_constant(CaseDN(2, 2)) - 0.25) < 1e-14
    assert abs(al.leading_constant(CaseDN(2, 3)) - 0.18185393932862023) < 1e-13
    assert abs(al.leading_constant(CaseDN(1, 3)) - 0.5230641944047323) < 1e-13


def test_expansion_matches_curve_far_out():
    c = CaseDN(2, 2)
    assert abs(al.expansion_dn(c, 1e4) - al.theta_dn(c, 1e4).theta) < 1e-5


# ------------------------------------------------------------- crossings


def test_positive_crossings_23_frozen():
    lo, hi = al.positive_crossings(CaseDN(2, 3))
    assert abs(lo - 1.980920982833298) < 1e-6
    assert abs(hi - 13.20006609821916) < 1e-5


def test_positive_crossings_23_sign_pattern():
    c = CaseDN(2, 3)
    assert al.shifted_deviation(c, 1.5) < 0.0
    assert al.shifted_deviation(c, 5.0) > 0.0
    assert al.shifted_deviation(c, 50.0) < 0.0


@pytest.mark.parametrize("dn", [(2, 3), (1, 3)])
def test_positive_crossings_ends_are_roots(dn):
    # each end is delta at a root solved on the curve parameter, so the
    # shifted deviation there (re-solved through theta_dn) is zero to
    # rounding
    c = CaseDN(*dn)
    for end in al.positive_crossings(c):
        assert abs(al.shifted_deviation(c, end)) <= 1e-13


def test_positive_crossings_13():
    lo, hi = al.positive_crossings(CaseDN(1, 3))
    assert abs(lo - 1.0422025256027998) < 1e-6
    assert abs(hi - 3.20017008601611) < 1e-5
    c = CaseDN(1, 3)
    mid = math.sqrt(lo * hi)
    assert al.shifted_deviation(c, mid) > 0.0


def test_remainder_constant_shares_tail_moments(monkeypatch):
    # every input of a clipped tail moment is (d, order, radius), so one
    # batched call computes each once: about 230 calls, against 11,538 when
    # each scan point computed its own
    calls = []
    clipped = lattice._clipped_moment

    def counted(*args):
        calls.append(args[:2])
        return clipped(*args)

    monkeypatch.setattr(lattice, "_clipped_moment", counted)
    al.remainder_constant(CaseDN(2, 2))
    assert 0 < len(calls) <= 1000


def test_searches_state_d_le_2_bounds_within_the_target(monkeypatch):
    # every d <= 2 sample of the gate-case K searches and of the (2,3)
    # crossings states f and g within target_abs_tol (or the call raises)
    stated = []
    batch = lattice._general_sums_batch

    def recorded(case, mus, *args):
        out = batch(case, mus, *args)
        stated.extend((case, t.f.abs_error_bound, t.g.abs_error_bound) for t in out)
        return out

    monkeypatch.setattr(al, "_general_sums_batch", recorded)
    for dn in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (2, 10)):
        al.remainder_constant(CaseDN(*dn))
    al.positive_crossings(CaseDN(2, 3))
    tol = lattice.DEFAULT_CONFIG.target_abs_tol
    assert len(stated) > 1800
    assert [s for s in stated if max(s[1:]) > tol] == []


@pytest.mark.parametrize(
    "dn", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (2, 10), (3, 6)]
)
def test_remainder_constant_sums_few_points(dn, monkeypatch):
    # the envelope search bisects only where a tangent-line bound beats both
    # the best sample and the limit -U: 253-542 points per attained gate
    # case, against 1,504-7,734 for the fixed-density scan with its golden
    # polish; in the at-infinity class no bound beats -U, so the 200 seeds
    # and the 3 tail probes are all, in 2 batches
    points = []
    batch = lattice._general_sums_batch

    def counted(case, mus, *args):
        points.append(len(mus))
        return batch(case, mus, *args)

    monkeypatch.setattr(al, "_general_sums_batch", counted)
    report = al.remainder_constant(CaseDN(*dn))
    assert sum(points) <= 1000
    if dn in ((1, 1), (1, 2), (2, 2)):
        assert not report.attained
        assert points == [200, 3]
