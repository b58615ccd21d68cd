"""The ``fields`` workload: extremal fields, inequality verification and the
Green function.

``extremal_field`` at a large mu with a short certified radius and at a
small mu whose radius reaches the tens of thousands, at two resolutions;
``verify_inequality`` with all three inequalities on seeded random
finite-mode fields and on a truncated extremal; ``g0_value`` on seeded
points.  Truncated Fourier synthesis and its radius certification do most of
the work; ``constants`` and ``bounds`` never call into ``field``.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as O
from harness import Op

#: (mu, resolution): certified radii about 1.0e4 and 2.4e4
EXTREMALS = ((10.0, 128), (0.5, 64))
#: the maximizer mu* of L, for the truncated extremal
MU_STAR = 0.1221104705136475
TRUNCATION = 40
INEQUALITIES = (("log_theta0", None), ("log_doublelog", None), ("algebraic", (2, 2)))


def make_inputs(seed: int) -> dict:
    import torsob as T

    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(30):
        modes: dict[tuple[int, int], complex] = {}
        while len(modes) < 20:
            k = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
            if k == (0, 0) or k in modes:
                continue
            re, im = rng.normal(size=2)
            modes[k] = complex(re, im)
            modes[(-k[0], -k[1])] = complex(re, -im)
        fields.append(T.FourierInput(modes))
    truncated = {
        (k1, k2): 2.0 * math.pi / (q * (1.0 + MU_STAR * q))
        for k1 in range(-TRUNCATION, TRUNCATION + 1)
        for k2 in range(-TRUNCATION, TRUNCATION + 1)
        if 0 < (q := k1 * k1 + k2 * k2) <= TRUNCATION**2
    }
    points = [(math.pi, math.pi)]
    while len(points) < 12:
        x = tuple(float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        if max(abs(x[0]), abs(x[1])) >= 0.3:
            points.append(x)
    nodes = []
    while len(nodes) < 4:
        i, j = (int(v) for v in rng.integers(0, 64, 2))
        if max(abs(i - 32), abs(j - 32)) >= 8:
            nodes.append((i, j))
    return {
        "fields": fields,
        "truncated": T.FourierInput(truncated),
        "points": points,
        "nodes": nodes,
    }


def _check_extremal(fg, mu: float, nodes) -> None:
    f, g, h = O.screened_sums(mu)
    values, res = fg.values, fg.resolution
    scale = float(np.max(np.abs(values)))
    if not abs(float(np.mean(values))) <= 1e-12 * scale:
        raise AssertionError(f"grid mean {np.mean(values)!r} is not 0")
    origin = float(values[res // 2, res // 2])
    if not abs(origin - f) <= 1e-5 * f:
        raise AssertionError(f"origin node {origin!r} vs f(mu) = {f!r}")
    if not abs(fg.delta() - h / g) <= 1e-8:
        raise AssertionError(f"delta() = {fg.delta()!r} vs h/g = {h / g!r}")
    ax = fg.axis()
    for i, j in nodes:
        # node indices are drawn on a 64-grid; scale to this resolution
        i, j = i * res // 64, j * res // 64
        ref = O.green_series((float(ax[i]), float(ax[j])), mu)
        if not abs(float(values[i, j]) - ref) <= 1e-5 * f:
            raise AssertionError(f"node ({i},{j}) {values[i, j]!r} vs series {ref!r}")


def _check_holds(rep) -> None:
    if not rep.holds:
        raise AssertionError(f"{rep.which} fails: lhs {rep.lhs!r} > rhs {rep.rhs!r}")


def _check_g0(value: float, x) -> None:
    ref = O.green_series(x, None)
    if not abs(value - ref) <= 1e-9:
        raise AssertionError(f"g0{x} = {value!r}, row series {ref!r}")
    if x == (math.pi, math.pi) and not abs(value + math.pi * math.log(2.0)) <= 1e-9:
        raise AssertionError(f"g0(pi, pi) = {value!r}, not -pi log 2")


def operations(inputs: dict) -> list[Op]:
    import torsob as T

    ops = []
    for mu, res in EXTREMALS:
        ops.append(Op(f"extremal_field[{mu:g},{res}]",
                      lambda mu=mu, res=res: T.extremal_field(mu, res),
                      lambda r, mu=mu: _check_extremal(r, mu, inputs["nodes"])))
    named = [(f"random{i}", fi) for i, fi in enumerate(inputs["fields"])]
    named.append(("truncated", inputs["truncated"]))
    for label, fi in named:
        for which, case in INEQUALITIES:
            case_obj = T.CaseDN(*case) if case else None
            ops.append(Op(f"verify[{label},{which}]",
                          lambda fi=fi, which=which, c=case_obj: T.verify_inequality(fi, which, c),
                          _check_holds))
    for x in inputs["points"]:
        ops.append(Op(f"g0_value[{x[0]:.4f},{x[1]:.4f}]", lambda x=x: T.g0_value(x),
                      lambda r, x=x: _check_g0(r, x)))
    return ops
