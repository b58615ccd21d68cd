"""Large-order scaling limits of the deviation curves.

d = 1 screens at mu = z^{-2n}; the n -> inf profile is a sawtooth of
parabolic teeth with range [-1/pi, 0].  d = 2 screens at mu = z^{-n}; the
limit profile is piecewise built from the cumulative lattice count R2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsob import largen
from torsob.errors import DomainError
from torsob.lattice import is_representable


# ------------------------------------------------------------- 1D limit


def test_limit_1d_first_branch_is_zero():
    delta, theta, F = largen.limit_1d(1.2)
    assert delta == 1.0 and F == 0.0
    assert theta == 2.0  # two active modes below the first breakpoint


def test_limit_1d_parabola_frozen():
    delta, theta, F = largen.limit_1d(1.9)
    assert abs(delta - 1.805) < 1e-12
    assert abs(F - (-0.2562394583779515)) < 1e-15
    assert abs(F - (1.0 - 1.9**2 / 2.0) / math.pi) < 1e-15


def test_limit_1d_higher_tooth():
    delta, theta, F = largen.limit_1d(3.5)
    assert abs(delta - 3.5**2 / 4.0) < 1e-12
    assert theta == 6.0
    assert abs(F - (3.0 - 3.5**2 / 4.0) / math.pi) < 1e-15


def test_limit_1d_integer_rejected():
    for z in (2.0, 3.0, 7.0):
        with pytest.raises(DomainError):
            largen.limit_1d(z)
    with pytest.raises(DomainError):
        largen.limit_1d(1.0)


@given(st.floats(min_value=1.001, max_value=9.999))
@settings(max_examples=80, deadline=None)
def test_limit_1d_range_property(z):
    if abs(z - round(z)) < 1e-6:
        return
    _, _, F = largen.limit_1d(z)
    assert -1.0 / math.pi - 1e-12 <= F <= 0.0


def test_limit_1d_infimum_approached():
    # F -> -1/pi as z -> (l+1)^- on every tooth
    _, _, F = largen.limit_1d(2.0 - 1e-9)
    assert abs(F + 1.0 / math.pi) < 1e-6


def test_limit_1d_delta_continuity():
    for l in (1, 2, 3):
        b = math.sqrt(l * (l + 1))
        assert abs(largen.limit_1d(b - 1e-13)[0] - largen.limit_1d(b + 1e-13)[0]) < 1e-12
        e = l + 1
        assert abs(largen.limit_1d(e - 1e-13)[0] - largen.limit_1d(e + 1e-13)[0]) < 1e-12


# ------------------------------------------------------------- 2D limit


def test_limit_2d_first_branch_closed_form():
    assert abs(largen.limit_2d(1.2) - (4.0 - math.pi) / (4.0 * math.pi**2)) < 1e-15


def test_limit_2d_frozen():
    assert abs(largen.limit_2d(1.5) - 0.011796528153146649) < 1e-15
    assert abs(largen.limit_2d(3.0) - 0.023593056306293297) < 1e-15


def test_limit_2d_piecewise_formula():
    # between representables 2 and 4, midpoint sqrt(8): flat then parabolic
    flat = (8.0 - math.pi * 2.0) / (4.0 * math.pi**2)
    assert abs(largen.limit_2d(2.5) - flat) < 1e-15
    z = 3.3
    assert abs(largen.limit_2d(z) - (8.0 - math.pi * z**2 / 4.0) / (4.0 * math.pi**2)) < 1e-15


def test_limit_2d_representable_rejected():
    for z in (1.0, 2.0, 4.0, 5.0, 9.0):
        with pytest.raises(DomainError):
            largen.limit_2d(z)
    # non-representable integers are interior points of a branch: allowed
    largen.limit_2d(3.0)
    largen.limit_2d(7.0)


# ------------------------------------------------------- finite n, d = 1


def test_scaled_deviation_1d_frozen_grid():
    got = [largen.scaled_deviation(1, 10, float(z)) for z in np.linspace(1.2, 4.8, 5)]
    want = [
        -0.07150377285904308,
        -0.11781980575147166,
        -0.1620193999557643,
        -0.17892373451635124,
        -0.177013830805556,
    ]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_scaled_deviation_1d_tracks_limit():
    for z in (1.3, 2.6, 3.4):
        F = largen.limit_1d(z)[2]
        d10 = abs(largen.scaled_deviation(1, 10, z) - F)
        d100 = abs(largen.scaled_deviation(1, 100, z) - F)
        assert d100 < d10


def test_scaled_deviation_large_z_no_overflow():
    # mu = z^{-2n} underflow territory: must still return a finite value
    v = largen.scaled_deviation(1, 100, 9.5)
    assert math.isfinite(v)


# ------------------------------------------------------- finite n, d = 2


def test_scaled_deviation_2d_frozen():
    got = [largen.scaled_deviation(2, 100, z) for z in (1.5, 2.0, 2.5)]
    want = [0.0066243865939511065, 0.016716081088822138, 0.0354553961232294]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_scaled_deviation_2d_minima_near_representables():
    # finite-n minima sit just below each representable breakpoint
    for l2 in (2, 5):
        assert is_representable(l2)
        zz = np.linspace(l2 - 0.9, l2 - 1e-3, 90)
        vv = [largen.scaled_deviation(2, 100, float(z)) for z in zz]
        zmin = float(zz[int(np.argmin(vv))])
        assert l2 - 0.4 < zmin < l2


def test_scaled_deviation_domain():
    with pytest.raises(DomainError):
        largen.scaled_deviation(1, 10, 0.9)
    with pytest.raises(DomainError):
        largen.scaled_deviation(3, 10, 1.5)
    with pytest.raises(DomainError):
        largen.scaled_deviation(2, 0, 1.5)

