"""Parametric curve Theta(delta): models, inversion, gap, tangency, sharp constant.

The exact curve is delta(mu) = h/g, Theta(mu) = f^2/(4 pi^2 g) over the
screened triple; closed-form models approximate it with increasing fidelity
(theta0, exp_corrected) or asymptotically (loglog_asymptotic).
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from torsob import curve
from torsob._optim import golden_min
from torsob.curve import (
    FOUR_MODE_THETA,
    MODELS,
    delta_critical,
    find_L,
    gap,
    loglog_lower_constant,
    mu_of_delta,
    tangent_condition,
    theta_model,
    theta_point,
)
from torsob.errors import DomainError
from torsob.lattice import beta_constant
from torsob.specfun import zeta_dirichlet

MU_STAR = 0.1221104705136475
DELTA_STAR = 3.9288361657183553
THETA_STAR = 0.3490872233533581


# ----------------------------------------------------------- exact curve


def test_four_mode_endpoint():
    tp = theta_point(-1.0)
    assert tp.delta == 1.0
    assert abs(tp.theta - 1.0 / math.pi**2) < 1e-15
    assert FOUR_MODE_THETA == pytest.approx(1.0 / math.pi**2, abs=1e-16)


def test_theta_point_frozen_mu_star():
    tp = theta_point(MU_STAR)
    assert abs(tp.delta - DELTA_STAR) < 2e-11
    assert abs(tp.theta - THETA_STAR) < 2e-12
    assert tp.model == "exact"


def test_resonance_band_rejected():
    with pytest.raises(DomainError):
        theta_point(-0.5)


def test_delta_critical_moment_ratio():
    z4a, b4 = zeta_dirichlet(2.0)
    z6a, b6 = zeta_dirichlet(3.0)
    ratio = (z4a.value * b4.value) / (z6a.value * b6.value)
    assert abs(delta_critical() - ratio) < 1e-12
    assert abs(delta_critical() - 1.2936088833041828) < 1e-13


def test_branch_split_at_delta_critical():
    # above the moment ratio the positive branch is used, below the negative
    assert mu_of_delta(2.0) > 0.0
    assert mu_of_delta(1.2) < -1.0


@pytest.mark.parametrize(
    "delta,mu",
    [
        (2.0, 0.52054486310305),
        (3.0, 0.20025729782679624),
        (4.0, 0.1184022201026829),
    ],
)
def test_mu_of_delta_frozen(delta, mu):
    assert abs(mu_of_delta(delta) - mu) < 1e-10


@given(st.floats(min_value=0.1, max_value=4.6))
@settings(max_examples=25, deadline=None)
def test_mu_of_delta_round_trip(logd):
    delta = math.exp(logd)
    mu = mu_of_delta(delta)
    assert abs(theta_point(mu).delta - delta) < 1e-9 * delta


@pytest.mark.parametrize(
    "delta,mu_hex,theta_hex",
    [
        (1.2, "-0x1.fed99bfb1c0f7p+1", "0x1.73d3f047dd143p-3"),  # negative branch
        (5e4, "0x1.95f5f9d94c792p-20", "0x1.37b1fd0ab5923p+0"),
    ],
)
def test_exact_lookup_frozen_bits(delta, mu_hex, theta_hex):
    assert mu_of_delta(delta).hex() == mu_hex
    assert theta_model("exact", delta).hex() == theta_hex


def test_mu_of_delta_domain():
    with pytest.raises(DomainError):
        mu_of_delta(0.9)  # delta < 1 is impossible (Cauchy-Schwarz)


# ---------------------------------------------------------------- models


def test_models_tuple():
    assert MODELS == ("exact", "theta0", "exp_corrected", "loglog_asymptotic")
    with pytest.raises(DomainError):
        theta_model("bogus", 2.0)


@pytest.mark.parametrize(
    "model,delta,theta_hex,mu",
    [
        ("theta0", 2.0, "0x1.10ff681095397p-2", None),
        ("exp_corrected", 1.5, None, 1.1947679030775304),
    ],
)
def test_model_lookup_ignores_earlier_calls(model, delta, theta_hex, mu, monkeypatch):
    # a lookup far out (mu near 1e-33) must not move the bracket of a later one
    monkeypatch.setattr(curve, "_MODEL_RANGE", {})
    fresh = (theta_model(model, delta), curve._invert_model(model, delta))
    assert theta_hex is None or fresh[0].hex() == theta_hex
    assert mu is None or math.exp(fresh[1]) == mu
    monkeypatch.setattr(curve, "_MODEL_RANGE", {})
    theta_model(model, 1e30)
    assert (theta_model(model, delta), curve._invert_model(model, delta)) == fresh


@pytest.mark.parametrize(
    "delta,truth",
    [
        (1.0, 0.10132118364233778),
        (2.0, 0.26651186311040814),
        (4.0, 0.35111590832941114),
    ],
)
def test_exact_model_frozen(delta, truth):
    assert abs(theta_model("exact", delta) - truth) < 1e-12


@pytest.mark.parametrize(
    "delta,truth",
    [
        (1.0, 0.17796516932166057),
        (2.0, 0.2665992984887508),
        (4.0, 0.35111591154057703),
    ],
)
def test_theta0_model_frozen(delta, truth):
    assert abs(theta_model("theta0", delta) - truth) < 1e-12


def test_theta0_closed_form_through_own_map():
    # the logarithmic model is the parametric pair
    #   delta0(mu) = (pi/mu - 1)/b,  Theta0(mu) = a^2/(4 pi^2 b),
    #   a = pi log(1/mu) + beta + mu,  b = a - pi + mu,
    # inverted through its own delta map.  Re-derive mu for delta = 2 by
    # bisection on the stated map and compare.
    beta = beta_constant().value

    def pair(mu):
        a = math.pi * math.log(1.0 / mu) + beta + mu
        b = a - math.pi + mu
        return (math.pi / mu - 1.0) / b, a * a / (4.0 * math.pi**2 * b)

    lo, hi = 1e-6, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pair(mid)[0] > 2.0:
            lo = mid
        else:
            hi = mid
    assert abs(theta_model("theta0", 2.0) - pair(0.5 * (lo + hi))[1]) < 1e-10


def test_exp_corrected_brackets_exact():
    # theta0 overshoots, the exponentially corrected model undershoots
    for delta in (2.0, 4.0):
        e = theta_model("exact", delta)
        t0 = theta_model("theta0", delta)
        ec = theta_model("exp_corrected", delta)
        assert ec < e < t0
        assert abs(ec - e) < 2.0 * abs(t0 - e)


@pytest.mark.parametrize("model", ["theta0", "exp_corrected"])
def test_closed_form_models_invert_at_delta_one(model):
    # delta = 1 is the upper end of the verified inversion range; the root
    # there must be bracketed although the model's delta map is only
    # 1 +- a few ulp at the computed end point
    t1 = theta_model(model, 1.0)
    assert 0.0 < t1 < theta_model(model, 1.0 + 1e-9)
    assert abs(theta_model(model, 1.0 + 1e-9) - t1) < 1e-8
    assert t1 < theta_model(model, 1.5)


def test_loglog_model_closed_form():
    d = 10.0
    pred = (
        math.log(d)
        + math.log(math.log(d))
        + (beta_constant().value + math.pi) / math.pi
        + math.log(math.log(d)) / math.log(d)
    ) / (4.0 * math.pi)
    assert abs(theta_model("loglog_asymptotic", d) - pred) < 1e-14
    with pytest.raises(DomainError):
        theta_model("loglog_asymptotic", 1.0)


@pytest.mark.parametrize("model", ["loglog_asymptotic", "exact", "theta0", "exp_corrected"])
@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_theta_model_non_finite_delta_is_a_domain_error(model, delta):
    with pytest.raises(DomainError):
        theta_model(model, delta)


def test_exp_corrected_model_answers_where_its_corrections_vanish():
    # at delta = 1e246 the e^{-2pi/sqrt(mu)} corrections are exactly 0 on
    # the whole monotonicity grid, and mu**-1.25 would overflow there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = theta_model("exp_corrected", 1e246)
    want = theta_model("theta0", 1e246)
    assert abs(got - want) <= 1e-12 * want


def test_models_converge_at_large_delta():
    d = 5e3
    e = theta_model("exact", d)
    # closed-form models are exponentially close to the exact curve out here
    assert abs(theta_model("theta0", d) - e) < 1e-12
    assert abs(theta_model("exp_corrected", d) - e) < 1e-12
    # the asymptotic series converges only at (log log / log)^2 speed
    ll_err = abs(theta_model("loglog_asymptotic", d) - e)
    scale = (math.log(math.log(d)) / math.log(d)) ** 2 / (4.0 * math.pi)
    assert ll_err < 1.5 * scale


# ------------------------------------------------------------------ gap


def test_gap_frozen_at_four():
    assert abs(gap(4.0) - 3.211165888750145e-09) < 1e-12


def test_gap_positive_where_resolvable():
    # the gap is exponentially small in delta; beyond ~6 it drops under
    # double-precision resolution, so strict positivity is only checkable
    # on the early range
    for d in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        assert gap(d) > 0.0
    for d in (8.0, 20.0, 50.0):
        assert gap(d) >= -1e-11


def test_gap_shrinks_with_delta():
    assert gap(2.0) > gap(3.0) > gap(4.0) > 0.0


# ------------------------------------------------- tangency and constants


def test_tangent_condition_frozen():
    assert abs(tangent_condition(0.01) - (-10.867267798919714)) < 1e-9
    assert abs(tangent_condition(0.1) - (-0.6183982379632418)) < 1e-9


@pytest.mark.parametrize("mu", [1e-210, 1e-216, 1e-300])
def test_tangent_condition_beyond_double_range_is_a_domain_error(mu):
    # the value passes -1.8e308 near mu = 1e-210, and mu**1.5 underflows to
    # 0 near 1e-216
    with pytest.raises(DomainError):
        tangent_condition(mu)


def test_tangent_condition_bits_inside_double_range():
    assert tangent_condition(1e-200) == -1.1004989777600805e296
    assert tangent_condition(0.1) == -0.6183982379632418


def test_tangent_condition_negative_on_range():
    for mu in (1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3):
        assert tangent_condition(mu) < 0.0


def test_loglog_lower_constant():
    beta = beta_constant().value
    assert abs(loglog_lower_constant() - (beta + math.pi) / math.pi) < 1e-14
    assert abs(loglog_lower_constant() - 1.8228252496788484) < 1e-14


def test_mu_star_is_local_max_of_defect():
    # defect F(mu) = Theta - (1/4pi)(log d + log(1 + log d)); its sup over
    # the curve, times 4 pi, is the sharp double-log constant
    def defect(mu):
        tp = theta_point(mu)
        return tp.theta - (
            math.log(tp.delta) + math.log1p(math.log(tp.delta))
        ) / (4.0 * math.pi)

    f0 = defect(MU_STAR)
    assert f0 > defect(MU_STAR * 1.05)
    assert f0 > defect(MU_STAR / 1.05)
    assert abs(4.0 * math.pi * f0 - 2.1562255281542130) < 1e-9


def test_find_L_reports_its_own_curve_sample():
    rep = find_L()
    star = theta_point(rep.mu_star)
    assert rep.delta_star == star.delta
    assert rep.L == 4.0 * math.pi * star.theta - (
        math.log(star.delta) + math.log1p(math.log(star.delta))
    )


def test_find_L_needs_no_root_solve(monkeypatch):
    calls = []
    real = curve.critical_sums

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def no_solve(*args, **kwargs):
        raise AssertionError("find_L inverted delta -> mu")

    monkeypatch.setattr(curve, "critical_sums", counted)
    monkeypatch.setattr(curve, "_solve_eps", no_solve)
    find_L()
    # the envelope search: 32 seeds to delta about 1.4e5, then bisection
    # where a tangent-line bound beats the best sample (the 1000-point
    # scan with its golden polish and tail probes took 1039)
    assert len(calls) <= 200


def test_find_L_encloses_the_supremum():
    # the enclosure holds the value of the 1000-point scan that preceded
    # the envelope search
    rep = find_L()
    assert rep.abs_error_bound <= 0.5e-10
    assert abs(rep.L - 2.1562255281542146) <= rep.abs_error_bound


def test_find_L_matches_closed_form_models():
    # an independent route to L: maximize the same objective over the
    # closed-form models, which depend on beta alone and sit within ~1e-8
    # of the exact curve near delta* (see gap(4))
    L = find_L().L
    for model in ("theta0", "exp_corrected"):
        _, neg_L_model = golden_min(
            lambda d: math.log(d)
            + math.log1p(math.log(d))
            - 4.0 * math.pi * theta_model(model, d),
            3.0,
            5.0,
        )
        assert abs(-neg_L_model - L) < 1e-6


@pytest.mark.parametrize("delta", [2.0, 4.0, 40.0])
def test_exact_lookup_sums_each_point_once(delta, monkeypatch):
    calls = []
    real = curve.critical_sums

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(curve, "critical_sums", counted)
    theta = theta_model("exact", delta)
    assert calls and len(set(calls)) == len(calls)
    # the value is the root sample's own, not a fresh sum at its mu
    assert theta == theta_point(mu_of_delta(delta)).theta
