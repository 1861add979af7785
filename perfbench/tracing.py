"""Per-layer tracing of the library from outside it.

Each traced function is replaced by a wrapper at every module attribute of
the package that holds it, because the modules import each other's functions
by name (`haltonlab.cli.linear_form_scan`, `haltonlab.discrepancy.halton_point`,
`haltonlab.fourier.crt_inverses`, ...).

Coarse calls record a span (name, start, end, parent span, query id); spans
stay in memory and are written once, at exit.  Per-point and per-term calls
(`halton_point`, `in_elementary_interval`, `crt_inverses`, ...) only add to
aggregate counters, so the overhead stays bounded.  Both kinds take part in
self-time accounting: a call's self time is its duration minus the time of
the traced calls made inside it, and each call's self time goes to its layer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("radical", "residue", "discrepancy", "fourier", "padic", "cli")

# (module, function, layer, group, records a span)
TRACED = (
    ("radical", "point_set", "radical", "point_set", True),
    ("radical", "halton_point", "radical", "point_set", False),
    ("residue", "crt_inverses", "residue", "crt_inverses", False),
    ("residue", "corner_residue", "residue", "corner_residue", False),
    ("residue", "in_elementary_interval", "residue", "in_elementary_interval", False),
    ("discrepancy", "l2_discrepancy_squared", "discrepancy", "l2", True),
    ("discrepancy", "star_discrepancy", "discrepancy", "star", True),
    ("discrepancy", "local_discrepancy", "discrepancy", "local", True),
    ("discrepancy", "truncated_discrepancy", "discrepancy", "decomposition", True),
    ("discrepancy", "decomposition_layers", "discrepancy", "decomposition", True),
    ("discrepancy", "decomposition_term", "discrepancy", "decomposition", False),
    ("discrepancy", "truncate_digits", "discrepancy", "decomposition", False),
    ("fourier", "decomposition_term_fourier", "fourier", "term", True),
    ("padic", "linear_form_scan", "padic", "scan", True),
    ("padic", "lte_valuation", "padic", "lte", False),
    ("cli", "main", "cli", "main", True),
)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bases_tuple(bases) -> tuple[int, ...]:
    as_tuple = getattr(bases, "as_tuple", None)
    return tuple(as_tuple()) if as_tuple else tuple(int(b) for b in bases)


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.active = False
        self.query_id = -1
        self.spans: list = []
        self._stack: list[list[int]] = []   # per open call: [child_ns]
        self._span_stack: list[int] = []    # indexes of open spans
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.requested: dict[tuple, set] = defaultdict(set)
        self.layer_of: dict[str, str] = {}
        self.group_of: dict[str, str] = {}
        self._originals: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, layer, group, span in TRACED:
            mod = sys.modules.get(f"haltonlab.{mod_name}")
            fn = getattr(mod, fn_name, None) if mod else None
            if fn is None:
                continue
            key = f"{mod_name}.{fn_name}"
            self.layer_of[key] = layer
            self.group_of[key] = f"{layer}.{group}"
            wrapper = self._wrap(key, fn, span, getattr(self, f"_on_{fn_name}", None))
            for name, module in list(sys.modules.items()):
                if name != "haltonlab" and not name.startswith("haltonlab."):
                    continue
                for attr, val in list(vars(module).items()):
                    if val is fn:
                        setattr(module, attr, wrapper)
                        self._originals.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, key, fn, record_span: bool, hook):
        tracer = self
        stack = self._stack
        spans = self.spans
        span_stack = self._span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            if record_span:
                parent = span_stack[-1] if span_stack else -1
                index = len(spans)
                spans.append(None)
                span_stack.append(index)
            result = None
            ok = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                tracer.calls[key] += 1
                tracer.self_ns[key] += own
                tracer.incl_ns[key] += dur
                if record_span:
                    span_stack.pop()
                    spans[index] = (key, t0, t1, parent, tracer.query_id)
                if hook is not None:
                    hook(args, kwargs, result, ok, own)

        return wrapper

    # -- counters at the call boundaries -------------------------------------

    def _request(self, bases, start: int, count: int) -> None:
        self.counts["radical.points"] += count
        self.requested[_bases_tuple(bases)].update(range(start, start + count))

    def _on_point_set(self, args, kwargs, result, ok, own) -> None:
        if ok and result.kind != "explicit":
            self._request(result.bases, result.start, result.count)

    def _on_truncated_discrepancy(self, args, kwargs, result, ok, own) -> None:
        if ok:
            self._request(_arg(args, kwargs, 3, "bases"),
                          _arg(args, kwargs, 1, "q_start"),
                          _arg(args, kwargs, 2, "n_count"))

    def _on_l2_discrepancy_squared(self, args, kwargs, result, ok, own) -> None:
        ps = _arg(args, kwargs, 0, "pointset")
        self.counts["discrepancy.l2.pairs"] += ps.count ** 2
        if not ok:
            self.counts["discrepancy.l2.errors"] += 1
        mode = result.mode if ok else (_arg(args, kwargs, 1, "mode") or "exact")
        route = "float" if mode == "float" else ("exact2" if ps.dim <= 2 else "exactN")
        self.counts[f"discrepancy.l2.{route}.busy_ns"] += own

    def _on_star_discrepancy(self, args, kwargs, result, ok, own) -> None:
        ps = _arg(args, kwargs, 0, "pointset")
        self.counts["discrepancy.star.corners"] += 2 * (ps.count + 1) ** 2

    def _on_local_discrepancy(self, args, kwargs, result, ok, own) -> None:
        self.counts["discrepancy.local.point_tests"] += \
            _arg(args, kwargs, 1, "pointset").count

    def _on_decomposition_term_fourier(self, args, kwargs, result, ok, own) -> None:
        """Counts the P - 1 frequencies only when the loop over them runs,
        i.e. when both last kept digits of the corner are nonzero."""
        x = _arg(args, kwargs, 0, "x")
        r = _arg(args, kwargs, 1, "r")
        bases = _bases_tuple(_arg(args, kwargs, 4, "bases"))
        if not ok or any(math.floor(Fraction(xi) * p ** ri) % p == 0
                         for xi, p, ri in zip(x, bases, r)):
            return
        self.counts["fourier.term.frequencies"] += math.prod(
            p ** ri for p, ri in zip(bases, r)) - 1

    def _on_linear_form_scan(self, args, kwargs, result, ok, own) -> None:
        if ok:
            self.counts["padic.scan.instances"] += (
                result.examined + result.skipped_mismatched + result.skipped_zero)

    # -- results -------------------------------------------------------------

    def group_busy_s(self, group: str) -> float:
        return sum(ns for key, ns in self.self_ns.items()
                   if self.group_of[key] == group) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, ns in self.self_ns.items():
            out[self.layer_of[key]] += ns / 1e9
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, qid in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, qid]) + "\n")
