"""Span tracing of the gnprob layers, applied from outside the library.

:meth:`Tracer.patched` replaces every public function of the library's
modules with a wrapper that records a span, in every module namespace
that binds it (``gnprob.coherence.solve_lp`` as well as
``gnprob.simplex.solve_lp``), and the evaluator methods of the measure
classes. Leaving the context restores the originals, so untraced passes
run the unmodified library.

A span is ``[name, start_ns, end_ns, parent, op_id, info]``, appended
when it starts, so a parent always precedes its children. ``info`` holds
what the layer metrics need from the call's arguments or result. The
self time of a span is its duration minus its direct children's, and
the self times of all spans of one op add up to the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

from gnprob.assessments import normalize_class

MODULES = (
    "gnprob",
    "gnprob.algebra",
    "gnprob.gn",
    "gnprob.assessments",
    "gnprob.coherence",
    "gnprob.simplex",
    "gnprob.extension",
    "gnprob.inequalities",
    "gnprob.cli",
)
METHODS = {
    "LayeredProbability": ("value", "lower", "upper", "prevision", "probability"),
    "CredalSet": ("lower", "upper"),
}
# Number converters run once per parsed value; their spans would outnumber
# and outweigh the work the other spans time.
SKIP = frozenset({"as_fraction", "normalize_class"})

CHECKS = ("coherence.check", "coherence.check_avoiding_sure_loss")
CLASSES = ("dF", "W", "convex", "1convex", "asl")
EVALUATORS = ("assessments.LayeredProbability.", "assessments.CredalSet.")
LEAF_EVALS = ("assessments.LayeredProbability.prevision", "assessments.LayeredProbability.probability")
GN_LEQ = ("gn.gn_leq_events", "gn.gn_leq_gambles")
INNER_OUTER = ("algebra.inner_event", "algebra.outer_event")
ROOT = "op"


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _lp_info(args, kwargs, result):
    return (len(_arg(args, kwargs, 1, "constraints", ())), len(_arg(args, kwargs, 0, "objective", ())), result)


def _check_class(args, kwargs, result):
    assessment = _arg(args, kwargs, 0, "assessment")
    return normalize_class(_arg(args, kwargs, 1, "consistency") or assessment.consistency or "W")


OBSERVERS = {
    "simplex.solve_lp": _lp_info,
    "coherence.check": _check_class,
    "coherence.check_avoiding_sure_loss": lambda args, kwargs, result: "asl",
    "gn.gn_leq_events": lambda args, kwargs, result: bool(result),
    "gn.gn_leq_gambles": lambda args, kwargs, result: bool(result),
    "inequalities.monotonicity_audit": lambda args, kwargs, result: len(result),
    "cli.load_problem": lambda args, kwargs, result: _arg(args, kwargs, 0, "path"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._op = -1

    def reset(self) -> None:
        self.spans = []
        self._stack[:] = [-1]
        self._op = -1

    def _wrap(self, fn, name: str):
        clock = time.perf_counter_ns
        stack = self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            record = [name, clock(), 0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[5] = observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Trace every public library function and evaluator method."""
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("gnprob.")
                    and not obj.__name__.startswith("_")
                    and obj.__name__ not in SKIP
                    and not inspect.isgeneratorfunction(obj)
                    and id(obj) not in wrappers
                ):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
        saved = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        assessments = importlib.import_module("gnprob.assessments")
        for cls_name, methods in METHODS.items():
            cls = getattr(assessments, cls_name)
            for method in methods:
                original = cls.__dict__.get(method)
                if original is not None:
                    saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, f"assessments.{cls_name}.{method}"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; ``info`` gets its answer."""
        self._op += 1
        record = [ROOT, time.perf_counter_ns(), 0, -1, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans) -> list[int]:
    """Duration minus direct children's durations, per span, in ns."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _busy(spans, match) -> int:
    """Total duration of matching spans with no matching ancestor, in ns."""
    inside = [False] * len(spans)
    total = 0
    for i, (name, start, end, parent, *_) in enumerate(spans):
        hit = match(name)
        outer = parent >= 0 and inside[parent]
        inside[i] = hit or outer
        if hit and not outer:
            total += end - start
    return total


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of one pass: (counts, times).

    Counts depend only on the inputs and must repeat exactly; times are
    in seconds (milliseconds where the name says so)."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]

    def count(match):
        return sum(1 for n in names if match(n))

    def self_s(match):
        return sum(t for n, t in zip(names, selfs) if match(n)) / 1e9

    def busy_s(match):
        return _busy(spans, match) / 1e9

    def layer(prefix):
        return lambda n: n.startswith(prefix + ".")

    # info stays None when the call raised
    lps = [s for s in spans if s[0] == "simplex.solve_lp" and s[5] is not None]
    results = [s[5][2] for s in lps]
    bits = [_bits(v) for r in results if r.objective is not None for v in (r.objective, *r.solution)]

    check_root: list = [None] * len(spans)
    per_class = {c: [0, 0, 0] for c in CLASSES}  # checks, LPs, ns
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        root = check_root[parent] if parent >= 0 else None
        if root is None and name in CHECKS and info in per_class:
            root = i
            per_class[info][0] += 1
            per_class[info][2] += end - start
        check_root[i] = root
        if name == "simplex.solve_lp" and root is not None:
            per_class[spans[root][5]][1] += 1
    checks = sum(v[0] for v in per_class.values())

    leq = [s for s in spans if s[0] in GN_LEQ]
    audits = [s for s in spans if s[0] == "inequalities.monotonicity_audit"]
    parses = [s for s in spans if s[0] == "cli.load_problem" and s[5] is not None]
    outputs = [s[5].out for s in spans if s[0] == ROOT and hasattr(s[5], "out")]

    counts = {
        "simplex.lps": len(lps),
        "simplex.rows": sum(s[5][0] for s in lps),
        "simplex.cols": sum(s[5][1] for s in lps),
        "simplex.max_bits": max(bits, default=0),
        "simplex.positive_ratio": _ratio(sum(1 for r in results if r.objective is not None and r.objective > 0), len(lps)),
        "coherence.lps_per_check": _ratio(sum(v[1] for v in per_class.values()), checks),
        "assessments.evals": count(lambda n: n in LEAF_EVALS),
        "gn.leq_calls": len(leq),
        "gn.related_ratio": _ratio(sum(1 for s in leq if s[5]), len(leq)),
        "inequalities.violations": sum(s[5] or 0 for s in audits),
        "algebra.inner_outer_calls": count(lambda n: n in INNER_OUTER),
        "extension.calls": count(layer("extension")),
        "cli.commands": count(lambda n: n == "cli.main"),
        "cli.parse_bytes": sum(os.path.getsize(s[5]) for s in parses),
        "cli.output_bytes": sum(len(out.encode()) for out in outputs),
        "trace.spans": count(lambda n: n != ROOT),
    }
    simplex_busy = busy_s(lambda n: n == "simplex.solve_lp")
    times = {
        "simplex.busy_s": simplex_busy,
        "simplex.ms_per_lp": _ratio(simplex_busy * 1e3, len(lps)),
        "coherence.self_s": self_s(layer("coherence")),
        "coherence.verify_s": busy_s(lambda n: n == "coherence.conditioned_max"),
        "assessments.eval_busy_s": busy_s(lambda n: n.startswith(EVALUATORS)),
        "assessments.envelope_self_s": self_s(lambda n: n.startswith("assessments.CredalSet.")),
        "gn.leq_busy_s": busy_s(lambda n: n in GN_LEQ),
        "inequalities.audit_self_s": self_s(lambda n: n == "inequalities.monotonicity_audit"),
        "algebra.inner_outer_busy_s": busy_s(lambda n: n in INNER_OUTER),
        "extension.self_s": self_s(layer("extension")),
        "cli.parse_s": busy_s(lambda n: n == "cli.load_problem"),
        "cli.self_s": self_s(layer("cli")),
    }
    for cls, (n_checks, n_lps, ns) in per_class.items():
        counts[f"coherence.{cls}.lps_per_check"] = _ratio(n_lps, n_checks)
        times[f"coherence.{cls}.check_ms"] = _ratio(ns / 1e6, n_checks)
    return counts, times
