"""One closed-loop client driving the public API over a workload's cases.

A sweep runs every case once, in order, on a single thread; each operation
starts when the previous one has returned.  Before a sweep the library's
lru caches are emptied, so every sweep does the work of a fresh process and
repeated sweeps measure the same thing.  Cache hit ratios are read from
cache_info() at the end of the sweep, so they need no tracing.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

from gate import check_operation
from tracing import Recorder, instrument


@dataclass(frozen=True)
class Api:
    """The library entry points the benchmark calls, traced or not."""

    parse_complex: object
    tc: object
    scat: object
    emit_tc: object
    emit_scat: object
    dumps: object
    verify_certificate: object

    @classmethod
    def plain(cls) -> "Api":
        import simplicial_tc as stc

        return cls(
            stc.parse_complex, stc.tc, stc.scat, stc.emit_tc, stc.emit_scat, stc.dumps,
            stc.verify_certificate,
        )

    def traced(self, recorder: Recorder) -> "Api":
        layer = {
            "parse_complex": "complexes",
            "tc": "invariants",
            "scat": "invariants",
            "emit_tc": "certificates",
            "emit_scat": "certificates",
            "dumps": "certificates",
            "verify_certificate": "certificates",
        }
        return Api(
            **{attr: recorder.wrap(f"{mod}.{attr}", getattr(self, attr)) for attr, mod in layer.items()}
        )


def lru_caches() -> dict:
    """The library's memo tables, looked up before any name is patched."""
    from simplicial_tc import collapse, complexes, maps

    return {
        "core": collapse.core,
        "contraction_witness": collapse.contraction_witness,
        "is_strongly_collapsible": collapse.is_strongly_collapsible,
        "class_query": maps._class_query,
        "retraction_chain": maps._retraction_chain,
        "ids_from_mask": complexes.ids_from_mask,
    }


@dataclass
class OpRecord:
    name: str
    latency_s: float = 0.0
    tc_s: float = 0.0
    scat_s: float = 0.0
    certify_s: float = 0.0
    cert_bytes: int = 0
    tc_checks: int = 0
    scat_checks: int = 0
    maximal_sets: int = 0
    answer: tuple = ()
    problems: list[str] = field(default_factory=list)


@dataclass
class Sweep:
    ops: list[OpRecord]
    caches: dict[str, tuple[int, int]]  # name -> (hits, misses)
    spans: list[tuple] | None = None

    def total(self, attr: str) -> float:
        return sum(getattr(op, attr) for op in self.ops)


def run_op(case, api: Api, budget: int) -> OpRecord:
    rec = OpRecord(case.name)
    clock = time.perf_counter
    t0 = clock()
    K = api.parse_complex(case.text)
    t1 = clock()
    tc_res = api.tc(K) if case.run_tc else None
    t2 = clock()
    scat_res = api.scat(K)
    t3 = clock()
    texts = [("scat", api.dumps(api.emit_scat(K, scat_res, budget)))]
    if tc_res is not None:
        texts.insert(0, ("tc", api.dumps(api.emit_tc(K, tc_res, budget))))
    verdicts = [(kind, *api.verify_certificate(json.loads(text))) for kind, text in texts]
    t4 = clock()
    rec.latency_s, rec.scat_s, rec.certify_s = t4 - t0, t3 - t2, t4 - t3
    rec.tc_s = t2 - t1 if tc_res is not None else 0.0
    rec.cert_bytes = sum(len(text.encode()) for _, text in texts)
    results = [r for r in (tc_res, scat_res) if r is not None]
    rec.tc_checks = tc_res.checks if tc_res is not None else 0
    rec.scat_checks = scat_res.checks
    rec.maximal_sets = sum(len(r.maximal) for r in results)
    rec.answer = tuple((r.status.value, r.value) for r in results) + tuple(v[1] for v in verdicts)
    rec.problems = check_operation(case, tc_res, scat_res, verdicts)
    return rec


def run_sweep(cases, budget: int, caches: dict, traced: bool = False) -> Sweep:
    for fn in caches.values():
        fn.cache_clear()
    gc.collect()
    api = Api.plain()
    recorder = Recorder() if traced else None
    ops = []
    if recorder is None:
        for case in cases:
            ops.append(_guarded(case, api, budget))
    else:
        api = api.traced(recorder)
        with instrument(recorder):
            for i, case in enumerate(cases):
                recorder.op = i
                with recorder.span("bench.op"):
                    ops.append(_guarded(case, api, budget))
    info = {name: fn.cache_info() for name, fn in caches.items()}
    return Sweep(
        ops,
        {name: (ci.hits, ci.misses) for name, ci in info.items()},
        recorder.spans if recorder is not None else None,
    )


def _guarded(case, api: Api, budget: int) -> OpRecord:
    # An exception out of the library fails this operation, not the run.
    try:
        return run_op(case, api, budget)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc(file=sys.stderr)
        return OpRecord(case.name, problems=[f"raised {exc!r}"])
