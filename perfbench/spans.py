"""Spans and counts for the traced benchmark run.

``install(tracer)`` replaces each layer function of torsob by a wrapper that
records a span (name, start, end, parent) around the call, plus the counts
named in ``LAYER_METRICS``.  Modules bind names with ``from .lattice import
critical_sums``, so the wrapper replaces every module's binding of the
function, not only the defining one.  Nothing here is imported by an
untraced run.

Spans are kept in memory as ``[name, start, end, parent_index]`` lists and
written out when the run ends.  A layer's self time is its span minus the
part of that interval that its child spans cover.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

#: (module, function, span name) for every wrapped layer function.
LAYERS = (
    ("lattice", "_shells", "lattice.shells"),
    ("lattice", "critical_sums", "lattice.critical_sums"),
    ("lattice", "general_sums", "lattice.general_sums"),
    ("lattice", "tail_bracket", "lattice.tail_bracket"),
    ("curve", "mu_of_delta", "curve.mu_of_delta"),
    ("curve", "find_L", "curve.find_L"),
    ("algebraic", "remainder_constant", "algebraic.remainder_constant"),
    ("algebraic", "positive_crossings", "algebraic.positive_crossings"),
    ("bounds", "mode_splitting_bound", "bounds.mode_splitting_bound"),
    ("bounds", "_partial_sums_at", "bounds.partial_sums_at"),
    ("bounds", "first_method_bound", "bounds.first_method_bound"),
    ("bounds", "elementary_comparison", "bounds.elementary_comparison"),
    ("largen", "scaled_deviation", "largen.scaled_deviation"),
    ("largen", "limit_1d", "largen.limit_1d"),
    ("largen", "limit_2d", "largen.limit_2d"),
    ("field", "extremal_field", "field.extremal_field"),
    ("field", "_synth_rows", "field.synth_rows"),
    ("field", "_certified_radius", "field.certified_radius"),
    ("field", "verify_inequality", "field.verify_inequality"),
    ("field", "g0_value", "field.g0_value"),
)

#: CLI handlers, wrapped only inside CLI children.
CLI_LAYERS = tuple(
    ("cli", f"cmd_{sub}", f"cli.{sub}")
    for sub in ("theta", "constants", "kdn", "limit", "field", "verify", "bounds")
) + (("cli", "_emit", "cli.emit"),)

#: name -> unit of every per-layer metric; the ``.s`` metrics are self
#: times in seconds, summed over one round.
LAYER_METRICS = {
    "import.torsob_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_optimize_s": "s",
    "cli.theta.s": "s",
    "cli.constants.s": "s",
    "cli.kdn.s": "s",
    "cli.limit.s": "s",
    "cli.bounds.s": "s",
    "cli.field.s": "s",
    "cli.verify.s": "s",
    "cli.import.s": "s",
    "cli.emit.s": "s",
    "lattice.shells.s": "s",
    "lattice.shells.calls": "count",
    "lattice.shells.miss_points": "count",
    "lattice.shells.peak_mb": "MB",
    "lattice.critical_sums.s": "s",
    "lattice.critical_sums.calls": "count",
    "lattice.critical_sums.direct_calls": "count",
    "lattice.general_sums.s": "s",
    "lattice.general_sums.calls": "count",
    "lattice.tail_bracket.s": "s",
    "lattice.tail_bracket.calls": "count",
    "curve.mu_of_delta.s": "s",
    "curve.mu_of_delta.calls": "count",
    "curve.find_L.s": "s",
    "curve.find_L.critical_sums_calls": "count",
    "algebraic.remainder_constant.s": "s",
    "algebraic.remainder_constant.general_sums_calls": "count",
    "algebraic.positive_crossings.s": "s",
    "optim.golden.evals": "count",
    "bounds.mode_splitting_bound.s": "s",
    "bounds.partial_sums_at.s": "s",
    "bounds.partial_sums_at.rows": "count",
    "bounds.representable_tests": "count",
    "bounds.first_method_bound.s": "s",
    "bounds.elementary_comparison.s": "s",
    "field.extremal_field.s": "s",
    "field.synth_rows.s": "s",
    "field.certified_radius": "radius",
    "field.verify_inequality.s": "s",
    "field.g0_value.s": "s",
}


class Tracer:
    """In-memory spans, counts and maxima of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.shell_misses: set[tuple[int, int]] = set()

    def take(self) -> dict:
        """Return everything recorded so far and start afresh."""
        group = {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        return group

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args) runs first and its value goes to
        after(args, result, token), which records counts."""
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            counts[calls] += 1
            if after:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span around the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()


def _rebind(orig, new) -> None:
    """Point every torsob module's binding of orig at new."""
    for modname, mod in list(sys.modules.items()):
        if modname != "torsob" and not modname.startswith("torsob."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap the layer functions of the loaded torsob modules."""
    import torsob  # noqa: F401  (loads every library module)
    from torsob import _optim, lattice

    hooks = _hooks(tracer, lattice)
    for modname, fname, span_name in LAYERS + (CLI_LAYERS if cli else ()):
        mod = sys.modules[f"torsob.{modname}"]
        orig = getattr(mod, fname)
        before, after = hooks.get(span_name, (None, None))
        _rebind(orig, tracer.span(span_name, orig, before, after))

    # counted, not spanned: a span per test or per evaluation would move
    # their time out of the caller's self time
    orig_rep = lattice.is_representable

    def is_representable(m):
        if tracer.active["bounds.mode_splitting_bound"]:
            tracer.counts["bounds.representable_tests"] += 1
        return orig_rep(m)

    _rebind(orig_rep, is_representable)

    orig_golden = _optim.golden_min

    def golden_min(func, lo, hi, *args, **kwargs):
        def counted(x):
            tracer.counts["optim.golden.evals"] += 1
            return func(x)

        return orig_golden(counted, lo, hi, *args, **kwargs)

    _rebind(orig_golden, golden_min)


def _hooks(tracer: Tracer, lattice) -> dict:
    counts = tracer.counts

    def shells_before(args):
        d, radius = int(args[0]), int(args[1])
        cached = lattice._SHELL_CACHE.get(d)
        return cached is None or cached[0] < radius

    def shells_after(args, result, miss):
        if miss:
            counts["lattice.shells.miss_points"] += int(result[1].sum())
            tracer.shell_misses.add((int(args[0]), int(args[1])))

    def critical_after(args, result, _):
        if result.method == "direct":
            counts["lattice.critical_sums.direct_calls"] += 1
        if tracer.active["curve.find_L"]:
            counts["curve.find_L.critical_sums_calls"] += 1

    def general_after(args, result, _):
        if tracer.active["algebraic.remainder_constant"]:
            counts["algebraic.remainder_constant.general_sums_calls"] += 1

    def rows_after(args, result, _):
        counts["bounds.partial_sums_at.rows"] += math.isqrt(int(args[0][-1])) + 1

    def radius_after(args, result, _):
        tracer.note_max("field.certified_radius", float(result))

    return {
        "lattice.shells": (shells_before, shells_after),
        "lattice.critical_sums": (None, critical_after),
        "lattice.general_sums": (None, general_after),
        "bounds.partial_sums_at": (None, rows_after),
        "field.certified_radius": (None, radius_after),
    }


def shell_peak_mb(tracer: Tracer) -> float:
    """Peak traced allocation of the largest shell enumeration missed so far.

    Each miss is replayed once on an empty cache with tracemalloc on, after
    the timed work: tracemalloc slows the enumeration loop about tenfold, so
    it never runs inside a span.  The shell cache is left empty.
    """
    from torsob import lattice

    shells = getattr(lattice._shells, "__wrapped__", lattice._shells)
    peak = 0.0
    for d, radius in sorted(tracer.shell_misses):
        lattice._SHELL_CACHE.clear()
        tracemalloc.start()
        try:
            shells(d, radius)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    lattice._SHELL_CACHE.clear()
    tracer.shell_misses.clear()
    return peak


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        # sweep the children by start; each adds what lies past the reach
        # of those before it
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(groups: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round from its span groups (the benchmark
    process, and one group per CLI child).

    ``cli.<sub>.s`` is the handler's time without its output emission, which
    ``cli.emit.s`` reports; every other ``.s`` metric is a self time.
    """
    out = {name: 0.0 for name in LAYER_METRICS}
    for group in groups:
        spans = group["spans"]
        own = self_times(spans)
        emit = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if name == "cli.emit" and parent >= 0:
                emit[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            key = name + ".s"
            if key in out:
                handler = name.startswith("cli.") and name != "cli.emit"
                out[key] += (end - start) - emit[i] if handler else own[i]
        for key, value in group["counts"].items():
            if key in out:
                out[key] += value
        for key, value in group["maxima"].items():
            if key in out:
                out[key] = max(out[key], value)
        for key, value in group.get("values", {}).items():
            if key in out:
                out[key] += value
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of torsob, scipy.special and scipy.optimize
    from the ``-X importtime`` lines of one interpreter."""
    wanted = {
        "torsob": "import.torsob_s",
        "scipy.special": "import.scipy_special_s",
        "scipy.optimize": "import.scipy_optimize_s",
    }
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        pkg = parts[2].strip()
        if pkg in wanted and wanted[pkg] not in out:
            try:
                out[wanted[pkg]] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out
