"""Command-line front end: every computation as reproducible table/report
emission.

Each handler ``cmd_<sub>(args, cfg)`` only computes and returns a
:class:`Payload`; one dispatcher, :func:`main`, loads the config, builds the
manifest from the parsed arguments and writes every output.

Output model: with ``--output BASE`` each subcommand writes its payloads to
``BASE.csv`` / ``BASE.json`` (as applicable) plus ``BASE.manifest.json``;
without it the primary payload goes to stdout.  The manifest records the
command line, the resolved numeric configuration, the tool version, the
wall time, and a sha256 checksum per written file.  Every CSV carries a
header comment with the checksum of the manifest core (subcommand,
parameters, config and version -- the parts that determine the numbers),
so a table can be traced back to the invocation that made it; the core
hash deliberately excludes wall time, which must never change the numbers.
Its parameters are every parsed argument of the subcommand but
``--output`` and ``--gnuplot`` (routing) and ``--config``, ``--tol`` and
``--max-radius`` (recorded resolved, under ``config``), plus what a handler
reads from its input files (``verify``'s ``input_sha256``).

Exit codes: 2 for domain errors (bad arguments, malformed files), 3 when a
requested accuracy cannot be certified within resource limits, 1 for I/O
failures.  Diagnostics are a single machine-parsable stderr line of the
form ``torsob: <kind>: <message>``.

Numbers are printed as shortest round-trip decimals (never more than 17
significant digits).  Identical invocation and config produce byte
identical CSV/JSON bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .algebraic import (
    delta_plateau,
    deviation,
    leading_constant,
    positive_crossings,
    remainder_constant,
    shifted_deviation,
)
from .bounds import alpha_constant, first_method_bound, mode_splitting_bound
from .curve import _model_sample, find_L, loglog_lower_constant, theta_model
from .errors import InputFormatError, TorsobError
from .field import FourierInput, extremal_field, verify_inequality
from .largen import limit_1d, limit_2d, scaled_deviation
from .lattice import (
    DEFAULT_CONFIG,
    CaseDN,
    PrecisionConfig,
    beta_constant,
)
from .specfun import CATALAN, dirichlet_beta_prime_at_1

_MODEL_MAP = {
    "exact": "exact",
    "theta0": "theta0",
    "exp": "exp_corrected",
    "loglog": "loglog_asymptotic",
}

#: the config keys in declaration (manifest) order, typed by their defaults
_CONFIG_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(PrecisionConfig)}

#: parsed attributes that are not parameters of the computation: the
#: dispatch, the output routing, and the config sources
_NOT_PARAMETERS = frozenset(
    {"subcommand", "func", "output", "gnuplot", "config", "tol", "max_radius"}
)

#: the most points a grid spec may ask for; numpy fails to allocate far larger grids
_MAX_GRID_STEPS = 10**6


class Payload(NamedTuple):
    """What a subcommand computed: the CSV table as (header, rows, notes),
    the JSON object, the gnuplot (style, title) of the table, and the
    manifest parameters read from input files."""

    table: tuple | None = None
    obj: dict | None = None
    plot: tuple | None = None
    inputs: dict = {}


# ---------------------------------------------------------------------------
# small shared plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Shortest decimal that round-trips (repr of a Python float)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def parse_grid(text: str) -> np.ndarray:
    """Parse 'a:b:steps' or 'a:b:steps,log' into an inclusive grid."""
    spec = text.strip()
    log = False
    if spec.endswith(",log"):
        log, spec = True, spec[: -len(",log")]
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputFormatError(
            f"grid spec must look like a:b:steps[,log], got {text!r}"
        )
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputFormatError(f"unparsable grid spec {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise InputFormatError(f"grid spec needs finite a <= b, got {text!r}")
    if not 1 <= steps <= _MAX_GRID_STEPS:
        raise InputFormatError(f"grid spec needs 1 <= steps <= {_MAX_GRID_STEPS}, got {text!r}")
    if log:
        if a <= 0.0:
            raise InputFormatError("log grid needs a strictly positive start")
        return np.geomspace(a, b, steps)
    return np.linspace(a, b, steps)


def _load_config(args) -> PrecisionConfig:
    values: dict[str, float | int] = {}
    path = args.config
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise InputFormatError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                )
            key, val = key.strip(), val.strip()
            caster = _CONFIG_FIELDS.get(key)
            if caster is None:
                raise InputFormatError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                num = float(val)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}:{lineno}: unparsable value for {key!r}"
                ) from exc
            if caster is int and not num.is_integer():  # inf and nan too
                raise InputFormatError(
                    f"{path}:{lineno}: {key!r} must be an integer, got {val!r}"
                )
            values[key] = int(num) if caster is int else num
    if args.tol is not None:
        values["target_abs_tol"] = args.tol
    if args.max_radius is not None:
        values["max_radius"] = args.max_radius
    return PrecisionConfig(**values) if values else DEFAULT_CONFIG


def _core_sha(core: dict) -> str:
    blob = json.dumps(core, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _csv_table(subcommand, sha, header, rows, notes=()) -> str:
    lines = [f"# torsob {__version__} {subcommand}"]
    lines.extend(f"# {note}" for note in notes)
    lines.append(f"# manifest sha256: {sha}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


_GNUPLOT_BODY = {
    "curve": "plot {csv} using 1:2 with lines title '{title}'\n",
    "bounds": (
        "plot {csv} using 1:2 with lines title 'sharp curve', \\\n"
        "     '' using 1:3 with lines title 'mode splitting', \\\n"
        "     '' using 1:4 with lines title 'single log'\n"
    ),
    "grid": (
        "set view map\nset size square\n"
        "splot {csv} using 1:2:3 with points pt 5 ps 0.5 palette notitle\n"
    ),
}


def _emit(args, core: dict, payload: Payload) -> None:
    """Send the payload to stdout or to the --output file family; the CSV
    header carries the sha256 of the manifest core."""
    sha = _core_sha(core)
    table = payload.table
    csv_text = None if table is None else _csv_table(core["subcommand"], sha, *table)
    if args.output is None:
        if payload.obj is not None:
            print(json.dumps(payload.obj, indent=2, allow_nan=False))
        if csv_text is not None:
            sys.stdout.write(csv_text)
        return
    base = Path(args.output)
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    def put(suffix: str, data: str) -> None:
        path = Path(str(base) + suffix)
        path.write_text(data, encoding="utf-8")
        written[path.name] = hashlib.sha256(data.encode("utf-8")).hexdigest()

    if csv_text is not None:
        put(".csv", csv_text)
    if payload.obj is not None:
        obj = dict(payload.obj, manifest_sha256=sha)
        put(".json", json.dumps(obj, indent=2, allow_nan=False) + "\n")
    if getattr(args, "gnuplot", False):
        style, title = payload.plot
        body = _GNUPLOT_BODY[style].format(
            csv=repr(str(base) + ".csv"), title=title
        )
        put(
            ".gnuplot",
            f"# generated by torsob {__version__}\n"
            "set datafile separator ','\nset key left top\n" + body,
        )
    manifest = dict(core)
    manifest["command"] = list(args._argv)
    manifest["manifest_sha256"] = sha
    manifest["wall_time_s"] = round(time.perf_counter() - args._t0, 3)
    manifest["outputs"] = written
    Path(str(base) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_theta(args, cfg) -> Payload:
    model = _MODEL_MAP[args.model]
    rows = []
    for d in parse_grid(args.delta_grid):
        d = float(d)
        if model == "loglog_asymptotic":
            # no curve parameter, and negative near delta = 1
            rows.append((d, theta_model(model, d, cfg), math.nan, 0.0))
        else:
            s = _model_sample(model, d, cfg)
            rows.append((d, s.theta, s.mu, s.abs_error_bound))
    return Payload(
        (("delta", "theta", "mu", "err_bound"), rows, (f"model: {args.model}",)),
        plot=("curve", f"Theta ({args.model})"),
    )


def cmd_constants(args, cfg) -> Payload:
    b = beta_constant()
    bp = dirichlet_beta_prime_at_1()
    rep = find_L(cfg)
    obj = {
        "beta": {
            "value": b.value,
            "abs_error_bound": b.abs_error_bound,
            "method": "closed form pi(2 gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))",
        },
        "beta_prime_at_1": {
            "value": bp.value,
            "abs_error_bound": bp.abs_error_bound,
            "method": "closed form (pi/4)(gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))",
        },
        "loglog_lower_bound": {
            "value": loglog_lower_constant(),
            "method": "(beta + pi)/pi",
        },
        "L": {
            "value": rep.L,
            "abs_error_bound": rep.abs_error_bound,
            "method": "maximum of 4 pi Theta - log delta - log(1 + log delta) along the "
            "curve: tangent-line branch-and-bound in asinh(1/mu), closed-form ends",
        },
        "delta_star": {"value": rep.delta_star, "method": "h/g at mu_star"},
        "mu_star": {"value": rep.mu_star, "method": "argmax of the same objective"},
        "alpha": {
            "value": alpha_constant(),
            "method": "Lambert-W closed form of the single-log loss factor",
        },
        "catalan": {"value": CATALAN, "method": "Dirichlet beta at 2"},
    }
    return Payload(obj=obj)


def cmd_kdn(args, cfg) -> Payload:
    case = CaseDN(args.d, args.n)
    rep = remainder_constant(case, cfg)
    at_infinity = math.isinf(rep.delta_argmax)
    obj = {
        "d": case.d,
        "n": case.n,
        "K": rep.K,
        "upper_bound": rep.upper_bound,
        "leading_constant": leading_constant(case),
        "sign": rep.sign,
        "attained": rep.attained,
        "class": "at-infinity" if at_infinity else "attained",
        "delta_argmax": None if at_infinity else rep.delta_argmax,
    }
    if rep.sign == "positive" and rep.attained:
        try:
            lo, hi = positive_crossings(case, cfg)
            obj["positive_window"] = [lo, hi]
        except TorsobError as exc:
            obj["positive_window"] = None
            obj["positive_window_note"] = " ".join(str(exc).split())

    if args.delta_grid is not None:
        grid = parse_grid(args.delta_grid)
    else:
        lo = max(delta_plateau(case) * 1.05, 1.001)
        hi = 400.0 if at_infinity else max(100.0, 4.0 * rep.delta_argmax)
        grid = np.geomspace(lo, hi, 160)
    fun = shifted_deviation if args.shifted_convention else deviation
    rows = [(float(d), fun(case, float(d), cfg)) for d in grid]
    convention = "shifted (limit 0)" if args.shifted_convention else "plain (limit -2n/((2pi)^d(2n-d)))"
    notes = (f"case: d={case.d} n={case.n}", f"convention: {convention}")
    return Payload(
        (("delta", "deviation"), rows, notes), obj,
        plot=("curve", f"F_{{{case.d},{case.n}}}"),
    )


def cmd_limit(args, cfg) -> Payload:
    grid = parse_grid(args.z_grid)
    notes = (f"d: {args.d}", f"n: {args.n}")
    if args.n == "inf":
        if args.d == 1:
            header = ("z", "value", "delta_inf", "theta_inf")
            rows = []
            for z in grid:
                dlt, th, val = limit_1d(float(z))
                rows.append((float(z), val, dlt, th))
        else:
            header = ("z", "value")
            rows = [(float(z), limit_2d(float(z))) for z in grid]
    else:
        n = int(args.n)
        header = ("z", "value")
        rows = [
            (float(z), scaled_deviation(args.d, n, float(z), cfg)) for z in grid
        ]
    return Payload((header, rows, notes), plot=("curve", f"F_{{{args.d},{args.n}}}(z)"))


def cmd_field(args, cfg) -> Payload:
    fg = extremal_field(args.mu, args.resolution, cfg)
    ax = fg.axis()
    rows = []
    for i in range(fg.resolution):
        xi = float(ax[i])
        vi = fg.values[i]
        for j in range(fg.resolution):
            rows.append((xi, float(ax[j]), float(vi[j])))
    obj = {
        "mu": fg.mu,
        "resolution": fg.resolution,
        "sup_value": fg.sup_value,
        "l2_norm_sq": fg.l2_norm_sq,
        "grad_norm_sq": fg.grad_norm_sq,
        "lap_norm_sq": fg.lap_norm_sq,
        "delta": fg.delta(),
    }
    notes = (f"mu: {_fmt(fg.mu)}", f"resolution: {fg.resolution}")
    return Payload((("x", "y", "value"), rows, notes), obj, plot=("grid", "u"))


def _parse_inequality(token: str) -> tuple[str, CaseDN | None]:
    if token == "log0":
        return "log_theta0", None
    if token == "loglog":
        return "log_doublelog", None
    if token.startswith("alg:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise InputFormatError(
                f"algebraic inequality must look like alg:D:N, got {token!r}"
            )
        try:
            d, n = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputFormatError(f"unparsable alg:D:N token {token!r}") from exc
        return "algebraic", CaseDN(d, n)
    raise InputFormatError(
        f"unknown inequality {token!r}; choose log0, loglog or alg:D:N"
    )


def cmd_verify(args, cfg) -> Payload:
    input_sha = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
    which, case = _parse_inequality(args.inequality)
    rep = verify_inequality(FourierInput.from_file(args.input), which, case, cfg)
    obj = {
        "inequality": args.inequality,
        "which": rep.which,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "margin": rep.margin,
        "holds": rep.holds,
        "delta": rep.delta,
        "case": None if case is None else {"d": case.d, "n": case.n},
    }
    return Payload(obj=obj, inputs={"input_sha256": input_sha})


def cmd_bounds(args, cfg) -> Payload:
    rows = [
        (d, theta_model("exact", d, cfg), mode_splitting_bound(d)[0], first_method_bound(d))
        for d in map(float, parse_grid(args.delta_grid))
    ]
    header = ("delta", "theta_exact", "P_modesplit", "first_method_bound")
    return Payload((header, rows, ()), plot=("bounds", ""))


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        metavar="BASE",
        help="write BASE.csv/BASE.json plus BASE.manifest.json instead of stdout",
    )
    common.add_argument(
        "--config", metavar="FILE",
        help="'key = value' lines setting target_abs_tol and max_radius",
    )
    common.add_argument(
        "--tol", type=float, help="override target_abs_tol from the config"
    )
    common.add_argument(
        "--max-radius", type=int, help="override max_radius from the config"
    )
    # only the subcommands with a CSV table take --gnuplot, so the others
    # refuse it before computing or writing anything
    plottable = argparse.ArgumentParser(add_help=False)
    plottable.add_argument(
        "--gnuplot",
        action="store_true",
        help="also write a BASE.gnuplot script for the CSV (needs --output; "
        "theta, kdn, limit, field and bounds only)",
    )

    parser = argparse.ArgumentParser(
        prog="torsob",
        description="Sharp constants, extremal curves and remainder terms "
        "for critical Sobolev-type interpolation inequalities on tori.",
    )
    parser.add_argument("--version", action="version", version=f"torsob {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "theta", parents=[common, plottable],
        help="curve table delta -> Theta under a model",
    )
    p.add_argument("--model", choices=sorted(_MODEL_MAP), required=True)
    p.add_argument("--delta-grid", required=True, metavar="A:B:STEPS[,log]")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser(
        "constants", parents=[common], help="JSON report of the named constants"
    )
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser(
        "kdn", parents=[common, plottable],
        help="remainder constant K_d(n) and deviation curve",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shifted-convention", action="store_true")
    p.add_argument("--delta-grid", metavar="A:B:STEPS[,log]")
    p.set_defaults(func=cmd_kdn)

    p = sub.add_parser(
        "limit", parents=[common, plottable],
        help="large-n scaled deviation or its limit",
    )
    p.add_argument("--d", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", required=True, metavar="N|inf")
    p.add_argument("--z-grid", required=True, metavar="A:B:STEPS[,log]")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser(
        "field", parents=[common, plottable],
        help="extremal field grid as x,y,value CSV",
    )
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser(
        "verify", parents=[common], help="check one inequality on Fourier data"
    )
    # declared in the manifest's parameter order
    p.add_argument("--inequality", required=True, metavar="log0|loglog|alg:D:N")
    p.add_argument("--input", required=True, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "bounds", parents=[common, plottable],
        help="elementary upper bounds next to the sharp curve",
    )
    p.add_argument("--delta-grid", required=True, metavar="A:B:STEPS[,log]")
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    args._argv = raw
    args._t0 = time.perf_counter()
    if args.subcommand == "limit" and args.n != "inf":
        try:
            int(args.n)
        except ValueError:
            parser.error(f"--n must be a positive integer or 'inf', got {args.n!r}")
    try:
        cfg = _load_config(args)
        if getattr(args, "gnuplot", False) and args.output is None:
            raise InputFormatError("--gnuplot needs --output to name the data file")
        payload = args.func(args, cfg)
        core = {
            "tool": "torsob",
            "version": __version__,
            "subcommand": args.subcommand,
            "parameters": {**params, **payload.inputs},
            "config": {name: getattr(cfg, name) for name in _CONFIG_FIELDS},
        }
        _emit(args, core, payload)
        return 0
    except TorsobError as exc:
        kind = {2: "domain-error", 3: "tolerance-unreachable"}.get(
            exc.exit_code, "error"
        )
        msg = " ".join(str(exc).split())
        print(f"torsob: {kind}: {msg}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"torsob: io-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
