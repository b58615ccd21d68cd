"""The image route to the torus Green function, a test reference for the
closed-form rows of ``field.g0_value``.

For every screening mu > 0,

    sum' e^{i k.x}/k^2 = sum' e^{i k.x}/(k^2 (1 + mu k^2))
                         + 2 pi sum_{m in Z^2} K0(|x - 2 pi m|/sqrt(mu)) - mu,

the screened series (``field._synth_rows``) plus the K0 image sum, which
is summed here one point and one ring at a time with scipy's K0.
"""

import math

import numpy as np
from scipy.special import k0

from torsob import field


def image_sum_ring_loop(x1, x2, mu):
    """sum over m in Z^2 of K0(|x - 2 pi m| / sqrt(mu)), ring by ring in
    n = max(|m1|, |m2|), stopping at the first ring n >= 1 that contributes
    below 1e-14 of the accumulated value."""
    sq = math.sqrt(mu)
    total = float(k0(math.hypot(x1, x2) / sq))
    for ring in range(1, 40):
        contrib = 0.0
        for m1 in range(-ring, ring + 1):
            for m2 in range(-ring, ring + 1) if abs(m1) == ring else (-ring, ring):
                r = math.hypot(x1 - 2.0 * math.pi * m1, x2 - 2.0 * math.pi * m2)
                contrib += float(k0(r / sq))
        total += contrib
        if contrib < 1e-14 * (1.0 + abs(total)):
            return total
    raise AssertionError("ring loop did not converge")


def screened_green(x1, x2, mu):
    """sum' e^{i k.x}/(k^2 (1 + mu k^2)) at one point x != 0."""
    t1, t2 = sorted((abs(x1), abs(x2)))
    return float(field._synth_rows(np.array([t1]), t2, mu)[0])


def g0_image_route(x1, x2, mu):
    """sum' e^{i k.x}/k^2 at x != 0 by the image route at screening mu."""
    return screened_green(x1, x2, mu) + 2.0 * math.pi * image_sum_ring_loop(x1, x2, mu) - mu
