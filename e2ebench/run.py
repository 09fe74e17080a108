"""End-to-end and per-layer benchmark of tc()/scat() over seeded workloads.

Usage (from the repository root):

  python3 e2ebench/run.py --workload tc-square --seed 1 --seconds 30 --trace 0

One process, one closed-loop client, threads=1.  The run starts sweeps over
the workload's cases (see sweep.py) until --seconds have passed, and reports
medians over sweeps.  With --trace 1 it alternates untraced
and traced sweeps: per-layer metrics come from the traced ones, and the
tracing overhead is the difference of the two medians.

stdout ends with two lines: a full report ({"report": ...}: run metadata,
every end-to-end metric, per-case rows, cache hit ratios and, when traced,
every per-layer metric and layer self times), then the result line
{"correct", "attempted", "failed", "metrics"} carrying the metrics named in
BENCHMARK.json.  Spans of the last traced sweep are written as JSON lines to
e2ebench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from sweep import lru_caches, run_sweep
from tracing import CLASS_QUERIES, LAYERS, ROUTES, analyse, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MAX_CASE_ROWS = 20  # per-case rows are reported for workloads this small


def _ratio(num, den):
    return num / den if den else 0.0


# -- set-up ------------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Import the library and generate the workload's inputs: the set-up work."""
    import simplicial_tc  # noqa: F401

    return workloads.build(workload, seed)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start, import and generate inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# -- run metadata --------------------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "simplicial_tc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    from simplicial_tc import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backends_available": list(_kernels.available_backends()),
        # the backend a map space into C4^2 (16 vertices) gets
        "kernel_backend_selected": _kernels.select(16).__name__.rsplit(".", 1)[-1].lstrip("_"),
        "kernel_env": os.environ.get("SIMPLICIAL_TC_KERNEL"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "client": "closed loop, 1 client, threads=1",
    }


# -- metrics ------------------------------------------------------------------------


def percentile_ms(latencies: list[float], q: int) -> float | None:
    """The q-th percentile in ms, only when at least 10 samples lie beyond it."""
    n = len(latencies)
    if n * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def end_to_end(plain, everything, setup_times: list[float]) -> dict:
    """Timings from the untraced sweeps; failures counted over every sweep."""
    latencies = [op.latency_s for s in plain for op in s.ops]
    attempted = sum(len(s.ops) for s in everything)
    failed = sum(1 for s in everything for op in s.ops if op.problems)
    return {
        "wall_s": statistics.median([s.total("latency_s") for s in plain]),
        "tc_s": statistics.median([s.total("tc_s") for s in plain]),
        "scat_s": statistics.median([s.total("scat_s") for s in plain]),
        "certify_s": statistics.median([s.total("certify_s") for s in plain]),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p99_ms": percentile_ms(latencies, 99),
        "op_samples": len(latencies),
        "setup_s": statistics.median(setup_times),
        "setup_samples": len(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": _ratio(failed, attempted),
        "sweeps": len(plain),
    }


def cache_ratios(sweeps) -> dict:
    out = {}
    for name in sweeps[0].caches:
        hits = sum(s.caches[name][0] for s in sweeps)
        misses = sum(s.caches[name][1] for s in sweeps)
        out[name] = _ratio(hits, hits + misses)
    return out


def per_layer(sweep, plain_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sweep, and per-case rows of the trace."""
    a = analyse(sweep.spans)
    by = a["by_name"]

    def calls(*names):
        return sum(by[n]["calls"] for n in names if n in by)

    def secs(*names, own=False):
        return sum(by[n]["self_ns" if own else "ns"] for n in names if n in by) / 1e9

    def details(*names):
        return [d for n in names if n in by for d in by[n]["details"]]

    checks = sum(op.tc_checks + op.scat_checks for op in sweep.ops)
    routes = {r: sum(per[r] for per in a["routes"].values()) for r in ROUTES}
    explored = [d[1] for d in details(*CLASS_QUERIES)]
    neighbors_out = sum(details("kernels.neighbors"))
    new_states = sum(n - 1 for n in details("maps._bfs"))
    ratios = cache_ratios([sweep])
    traced_wall = sweep.total("latency_s")
    metrics = {
        "invariants.checks": checks,
        "invariants.check_spans": sum(a["routes"][op][r] for op in a["routes"] for r in ROUTES),
        "invariants.lattice_self_s": secs("invariants.maximal_admissible_sets", own=True),
        "invariants.yes_ratio": _ratio(sum(op.maximal_sets for op in sweep.ops), checks),
        "invariants.check_s": a["mode_ns"]["check"] / 1e9,
        "invariants.certify_s": a["mode_ns"]["certify"] / 1e9,
        "invariants.min_cover_s": secs("invariants.min_cover"),
        **{f"invariants.route.{r}": routes[r] for r in ROUTES},
        "collapse.contraction_witness_s": secs("collapse.contraction_witness"),
        "collapse.core_hit_ratio": ratios["core"],
        "collapse.contraction_witness_hit_ratio": ratios["contraction_witness"],
        "maps.class_queries": calls(*CLASS_QUERIES),
        "maps.class_query_s": secs(*CLASS_QUERIES),
        "maps.bfs_states_sum": sum(explored),
        "maps.bfs_states_max": max(explored, default=0),
        "maps.class_query_hit_ratio": ratios["class_query"],
        "kernels.neighbors_calls": calls("kernels.neighbors"),
        "kernels.neighbors_s": secs("kernels.neighbors"),
        "kernels.neighbors_out": neighbors_out,
        "kernels.new_state_ratio": _ratio(new_states, neighbors_out),
        "complexes.parse_s": secs("complexes.parse_complex"),
        "complexes.subcomplex_calls": calls("complexes.subcomplex"),
        "complexes.subcomplex_s": secs("complexes.subcomplex"),
        "complexes.ids_from_mask_hit_ratio": ratios["ids_from_mask"],
        "product.square_s": secs("product.categorical_square"),
        "certificates.emit_s": secs("certificates.emit_tc", "certificates.emit_scat", "certificates.dumps"),
        "certificates.verify_s": secs("certificates.verify_certificate"),
        "certificates.bytes": sum(op.cert_bytes for op in sweep.ops),
        "trace.spans": len(sweep.spans),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_ratio": _ratio(traced_wall - plain_wall, plain_wall),
    }
    for layer in (*LAYERS, "bench"):
        metrics[f"layer.{layer}.self_s"] = a["layer_self_ns"][layer] / 1e9

    rows = {}
    if len(sweep.ops) <= MAX_CASE_ROWS:
        for i, op in enumerate(sweep.ops):
            per = a["per_op"].get(i, {})

            def total(*names, own=False):
                return sum(per[n][1 if own else 0] for n in names if n in per) / 1e9

            row = {**a["routes"].get(i, {}), "tc_s": total("invariants.tc")}
            row["contraction_witness_s"] = total("collapse.contraction_witness")
            row["class_query_s"] = total(*CLASS_QUERIES)
            row["lattice_self_s"] = total("invariants.maximal_admissible_sets", own=True)
            if row["tc_s"]:
                three = row["contraction_witness_s"] + row["class_query_s"] + row["lattice_self_s"]
                row["three_layer_share_of_tc"] = three / row["tc_s"]
            rows[op.name] = row
    return metrics, rows


def case_rows(sweeps) -> dict:
    """Per-case medians over untraced sweeps, with the exact check counts."""
    rows = {}
    if len(sweeps[0].ops) > MAX_CASE_ROWS:
        return rows
    for i, op in enumerate(sweeps[0].ops):
        rows[op.name] = {
            "tc_s": statistics.median([s.ops[i].tc_s for s in sweeps]),
            "scat_s": statistics.median([s.ops[i].scat_s for s in sweeps]),
            "certify_s": statistics.median([s.ops[i].certify_s for s in sweeps]),
            "tc_checks": op.tc_checks,
            "scat_checks": op.scat_checks,
            "answer": op.answer,
        }
    return rows


# -- the run ---------------------------------------------------------------------------


def measure(cases, seconds: float, trace: bool, budget: int) -> tuple[list, list]:
    """Sweeps while time is left (the last one may overrun); returns (plain, traced)."""
    caches = lru_caches()
    plain, traced = [], []
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        for kind in kinds:
            (traced if kind else plain).append(run_sweep(cases, budget, caches, traced=kind))
        if time.perf_counter() - start >= seconds:
            return plain, traced


def build_report(args, plain, traced, setup_times) -> dict:
    e2e = end_to_end(plain, plain + traced, setup_times)
    report = {
        "meta": metadata(args),
        "end_to_end": e2e,
        "setup_samples_s": setup_times,
        "sweeps_s": {
            key: [s.total(key) for s in plain] for key in ("latency_s", "tc_s", "scat_s", "certify_s")
        },
        "cases": case_rows(plain),
        "cache_hit_ratio": cache_ratios(plain),
        "failures": [
            {"case": op.name, "problems": op.problems}
            for s in plain + traced for op in s.ops if op.problems
        ][:20],
    }
    answers = {tuple(op.answer for op in s.ops) for s in plain + traced}
    report["verdicts_agree"] = len(answers) == 1
    if traced:
        layer_runs = [per_layer(s, e2e["wall_s"]) for s in traced]
        report["per_layer"] = {
            k: statistics.median([m[k] for m, _ in layer_runs]) for k in layer_runs[0][0]
        }
        report["per_layer_sweeps"] = len(layer_runs)
        report["trace_cases"] = layer_runs[-1][1]
        counts = ("invariants.checks", "maps.bfs_states_sum", "kernels.neighbors_calls")
        report["counts_repeat"] = all(
            m[k] == layer_runs[0][0][k] for m, _ in layer_runs for k in counts
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "simplicial_tc" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.probe_setup:
        prepare(args.workload, args.seed)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = measure_setup(args.workload, args.seed)
    cases = prepare(args.workload, args.seed)
    from simplicial_tc import DEFAULT_BUDGET

    plain, traced = measure(cases, args.seconds, bool(args.trace), DEFAULT_BUDGET)
    report = build_report(args, plain, traced, setup_times)
    if traced:
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        write_spans(traced[-1].spans, spans_path)
        report["spans_file"] = str(spans_path)

    e2e = report["end_to_end"]
    source = report["per_layer"] if args.trace else e2e
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = e2e["failed"] == 0 and report["verdicts_agree"] and report.get("counts_repeat", True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": e2e["attempted"], "failed": e2e["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
