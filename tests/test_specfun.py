"""Special-function kernel: frozen-value regressions and inverse properties.

Oracle values come from mpmath at 40 digits (frozen below) and from closed
forms (DLMF 25.11, 5.4; Abramowitz & Stegun 9.6-9.8).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from torsob.errors import DomainError
from torsob.specfun import (
    SpecialValue,
    bessel_k,
    dirichlet_beta,
    dirichlet_beta_prime_at_1,
    lambert_w,
    zeta_dirichlet,
)

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219


def check_sv(sv: SpecialValue, truth: float, slack: float = 4.0) -> None:
    """The reported error bound must be honest and not absurdly loose."""
    assert abs(sv.value - truth) <= slack * max(sv.abs_error_bound, 4e-16 * abs(truth))
    assert sv.abs_error_bound >= 0.0
    assert math.isfinite(sv.value)


# ---------------------------------------------------------------- Lambert W


def test_lambert_w_omega():
    check_sv(lambert_w(0, 1.0), 0.5671432904097838)


def test_lambert_w_zero():
    assert lambert_w(0, 0.0).value == 0.0


def test_lambert_w_minus_branch_frozen():
    # mpmath.lambertw(-0.1, -1)
    check_sv(lambert_w(-1, -0.1), -3.577152063957297)


def test_lambert_w_branch_point():
    x = -1.0 / math.e
    assert abs(lambert_w(0, x).value + 1.0) < 1e-7
    assert abs(lambert_w(-1, x).value + 1.0) < 1e-7


@pytest.mark.parametrize("x", [-0.367, -0.2, -1e-3])
def test_lambert_w_minus_branch_inverse(x):
    w = lambert_w(-1, x).value
    assert w <= -1.0
    assert abs(w * math.exp(w) - x) < 1e-12 * max(1.0, abs(x))


@given(st.floats(min_value=-0.35, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_lambert_w_principal_inverse(x):
    w = lambert_w(0, x).value
    assert abs(w * math.exp(w) - x) < 1e-11 * max(1.0, abs(x))


def test_lambert_w_domain_errors():
    with pytest.raises(DomainError):
        lambert_w(0, -0.5)  # below the branch point
    with pytest.raises(DomainError):
        lambert_w(-1, 0.5)  # minus branch lives on [-1/e, 0)
    with pytest.raises(DomainError):
        lambert_w(2, 1.0)  # only real branches supported


@pytest.mark.parametrize("branch", [0, -1])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_lambert_w_non_finite_is_a_domain_error(branch, x):
    with pytest.raises(DomainError):
        lambert_w(branch, x)


# ---------------------------------------------------------- Dirichlet beta


def test_dirichlet_beta_one():
    check_sv(dirichlet_beta(1.0), math.pi / 4.0)


def test_dirichlet_beta_catalan():
    check_sv(dirichlet_beta(2.0), CATALAN)


def test_dirichlet_beta_three():
    check_sv(dirichlet_beta(3.0), math.pi**3 / 32.0)


def test_dirichlet_beta_half_frozen():
    # mpmath: 0.66769145718960917666...
    check_sv(dirichlet_beta(0.5), 0.6676914571896092, slack=8.0)


def test_dirichlet_beta_prime_at_1_closed_form():
    truth = (math.pi / 4.0) * (
        EULER_GAMMA + 2.0 * math.log(2.0) + 3.0 * math.log(math.pi)
        - 4.0 * math.lgamma(0.25)
    )
    check_sv(dirichlet_beta_prime_at_1(), truth)
    assert abs(truth - 0.1929013167969134) < 1e-15


# ------------------------------------------------------------- zeta pairs


def test_zeta_pair_at_2():
    z, b = zeta_dirichlet(2.0)
    check_sv(z, math.pi**2 / 6.0)
    check_sv(b, CATALAN)


def test_zeta_pair_at_4():
    z, _ = zeta_dirichlet(4.0)
    check_sv(z, math.pi**4 / 90.0)


def test_zeta_pair_frozen_three_halves():
    z, b = zeta_dirichlet(1.5)
    check_sv(z, 2.612375348685488, slack=8.0)
    check_sv(b, 0.8645026534612018, slack=8.0)


def test_zeta_pole_rejected_without_laurent():
    with pytest.raises(DomainError):
        zeta_dirichlet(1.0)


# ---------------------------------------------------------------- Bessel K


@pytest.mark.parametrize(
    "order,x,truth",
    [
        (0, 1.0, 0.4210244382407083),    # mpmath besselk(0,1)
        (0, 0.1, 2.4270690247020166),
        (1, 1.0, 0.6019072301972346),
        (1, 2.5, 0.0738908163477471),
        (0, 20.0, 5.741237815336055e-10),
    ],
)
def test_bessel_k_frozen(order, x, truth):
    sv = bessel_k(order, x)
    assert abs(sv.value - truth) <= 4e-15 * max(1.0, abs(truth)) + sv.abs_error_bound


def test_bessel_k_recurrence():
    # K_{0}'(x) = -K_1(x); probe with a central difference
    x, h = 1.7, 1e-6
    d = (bessel_k(0, x + h).value - bessel_k(0, x - h).value) / (2 * h)
    assert abs(d + bessel_k(1, x).value) < 1e-9


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(2, 1.0)
