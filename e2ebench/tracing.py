"""Span tracing from outside the library, and the per-layer metrics it yields.

instrument() replaces the module-level functions at each layer boundary with
wrappers that record a span: (id, parent id, operation id, name, start ns,
end ns, info).  Names are patched in the namespace of the module that *calls*
them (the library imports names by value), and restored on exit.  Spans stay
in memory; the caller writes them out at the end of the run.

A span's self time is its duration minus the time its child spans cover.
Span names are "<layer>.<function>"; the layers are the package's modules.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("complexes", "product", "collapse", "maps", "kernels", "invariants", "certificates")
CHECKERS = ("invariants.is_farber", "invariants.is_categorical")
CLASS_QUERIES = ("maps.same_contiguity_class", "maps.class_constant_witness")
ROUTES = ("component", "slice", "collapse", "bfs")


class Recorder:
    """Collects spans of one traced sweep; the benchmark sets .op per operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack = [0]
        self._last_id = 0

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            self._last_id += 1
            sid = self._last_id
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                detail = info(args, kwargs, out) if info is not None and out is not None else None
                spans.append((sid, parent, self.op, name, start, end, detail))

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code (the operation root)."""
        self._last_id += 1
        sid = self._last_id
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end, None))


def write_spans(spans, path) -> None:
    """Spans as JSON lines: a header naming the fields, then one array per span.

    Times are ns from the first span's start.
    """
    origin = min((s[4] for s in spans), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "info"]}) + "\n")
        for sid, parent, op, name, start, end, detail in spans:
            fh.write(json.dumps([sid, parent, op, name, start - origin, end - origin, detail]) + "\n")


# -- what each boundary records besides its interval ------------------------------


def _check_mode(args, kwargs, out):
    want = kwargs.get("want_witness", args[3] if len(args) > 3 else True)
    return ["certify" if want else "check", out[0].value]


def _class_result(args, kwargs, out):
    return [out.verdict.value, out.explored]


def _bfs_states(args, kwargs, out):
    return len(out[1])


def _length(args, kwargs, out):
    return len(out)


def _boundaries():
    """(calling module, attribute, span name, info) for every patched name."""
    from simplicial_tc import _kernels, certificates, collapse, invariants, maps
    from simplicial_tc._kernels import pure

    table = [
        (invariants, "categorical_square", "product.categorical_square", None),
        (invariants, "subcomplex", "complexes.subcomplex", None),
        (invariants, "maximal_admissible_sets", "invariants.maximal_admissible_sets", None),
        (invariants, "min_cover", "invariants.min_cover", None),
        (invariants, "is_farber", "invariants.is_farber", _check_mode),
        (invariants, "is_categorical", "invariants.is_categorical", _check_mode),
        (invariants, "is_strongly_collapsible", "collapse.is_strongly_collapsible", None),
        (invariants, "contraction_witness", "collapse.contraction_witness", None),
        (invariants, "same_contiguity_class", "maps.same_contiguity_class", _class_result),
        (invariants, "class_constant_witness", "maps.class_constant_witness", _class_result),
        (invariants, "witness_between_constants", "maps.witness_between_constants", None),
        # contraction_witness and is_strongly_collapsible look core up in their
        # own module; maps._retraction_chain imports it from there at call time.
        (collapse, "core", "collapse.core", None),
        (maps, "_bfs", "maps._bfs", _bfs_states),
        # _MapSpace calls the kernel through the module object it selected.
        (pure, "neighbors", "kernels.neighbors", _length),
        (certificates, "categorical_square", "product.categorical_square", None),
        (certificates, "subcomplex", "complexes.subcomplex", None),
    ]
    if _kernels._fast is not None:
        table.append((_kernels._fast, "neighbors", "kernels.neighbors", _length))
    return table


@contextmanager
def instrument(recorder: Recorder):
    """Patch every layer boundary to record into recorder; restore on exit."""
    saved = []
    try:
        for module, attr, name, info in _boundaries():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, info))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics -------------------------------------------------------------------


def _route(child_names: set[str]) -> str:
    """Decision route of one admissibility check, read off its child spans."""
    if child_names & set(CLASS_QUERIES):
        return "bfs"
    if "collapse.contraction_witness" in child_names:
        return "collapse"
    if "collapse.is_strongly_collapsible" in child_names:
        return "slice"
    return "component"


def analyse(spans) -> dict:
    """Totals per span name and per operation, layer self times, check routes."""
    child_time: dict[int, int] = {}
    child_names: dict[int, set[str]] = {}
    for sid, parent, op, name, start, end, detail in spans:
        child_time[parent] = child_time.get(parent, 0) + (end - start)
        child_names.setdefault(parent, set()).add(name)
    by_name: dict[str, dict] = {}
    per_op: dict[int, dict[str, list[int]]] = {}
    layer_self = dict.fromkeys((*LAYERS, "bench"), 0)
    mode_ns = {"check": 0, "certify": 0}
    routes: dict[int, dict[str, int]] = {}
    for sid, parent, op, name, start, end, detail in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0)
        entry = by_name.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "details": []})
        entry["calls"] += 1
        entry["ns"] += dur
        entry["self_ns"] += own
        if detail is not None:
            entry["details"].append(detail)
        slot = per_op.setdefault(op, {}).setdefault(name, [0, 0])
        slot[0] += dur
        slot[1] += own
        layer_self[name.split(".", 1)[0]] += own
        if name in CHECKERS:
            mode_ns[detail[0]] += dur
            if detail[0] == "check":
                per = routes.setdefault(op, dict.fromkeys(ROUTES, 0))
                per[_route(child_names.get(sid, set()))] += 1
    return {
        "by_name": by_name,
        "per_op": per_op,
        "layer_self_ns": layer_self,
        "mode_ns": mode_ns,
        "routes": routes,
    }
