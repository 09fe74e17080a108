"""Regenerate pinned.json: the answers the benchmark's correctness gate expects.

Usage: python3 e2ebench/pin.py        (from the repository root)

corpus_small maps every isomorphism type a corpus-small input can have (at
most 3 facets of at most 3 vertices, at most 7 vertices; see
workloads.shape_key) to a representative, its TC and scat, and how often the
random generator of the test corpus produces it.  scat_2d lists the scat-2d pool: the
7-vertex torus, the 6-vertex RP^2 and random connected, not strongly
collapsible pure 2-complexes on 8 vertices with 10-12 triangles, drawn from a
fixed pool seed.

Values are computed by the library and checked here against facts that do
not depend on it: TC = 0 and scat = 0 exactly when the core is one vertex,
scat <= TC, and a disconnected input has no Farber cover.  Run it only on a
commit whose answers are trusted; the pinned file is what later commits are
held to.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from simplicial_tc import build_complex, scat, tc  # noqa: E402

from gate import core_is_one_vertex  # noqa: E402
from workloads import PINNED_PATH, RP2_6, TORUS7, shape_key  # noqa: E402

POOL_SEED = 20240611
POOL_SIZE = 8
SHAPE_SAMPLES = 200_000


def need(cond: bool, what) -> None:
    if not cond:
        raise SystemExit(f"pinning check failed for {what}")


def is_connected(facets) -> bool:
    facets = [frozenset(f) for f in facets]
    verts = set().union(*facets)
    seen = {next(iter(verts))}
    grew = True
    while grew:
        grew = False
        for f in facets:
            if f & seen and not f <= seen:
                seen |= f
                grew = True
    return seen == verts


def random_small_complex(rng: random.Random, max_vertices=7, max_facets=3, max_facet_size=3):
    """Facets (vertex-id tuples) of a random complex; same law as the test corpus."""
    n = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_size, n))
        facets.append(tuple(rng.sample(range(n), size)))
    used = sorted({v for f in facets for v in f})
    dense = {v: i for i, v in enumerate(used)}
    return [tuple(dense[v] for v in f) for f in facets]


def corpus_shapes() -> dict[str, list[tuple[int, ...]]]:
    """One representative facet list per isomorphism type (keyed by shape_key)."""
    shapes = {}
    for m in (1, 2, 3):
        regions = range(1, 1 << m)
        for counts in product(range(4), repeat=len(regions)):
            if sum(counts) > 7:
                continue
            facets = [[] for _ in range(m)]
            v = 0
            for region, c in zip(regions, counts):
                for _ in range(c):
                    for k in range(m):
                        if region >> k & 1:
                            facets[k].append(v)
                    v += 1
            sets = [frozenset(f) for f in facets]
            if any(not 1 <= len(f) <= 3 for f in sets):
                continue
            if any(a <= b for a, b in product(sets, repeat=2) if a is not b):
                continue
            shapes.setdefault(shape_key(sets), [tuple(sorted(f)) for f in sets])
    return shapes


def pin_value(facets) -> dict:
    K = build_complex([[str(v) for v in f] for f in facets])
    t, s = tc(K), scat(K)
    collapsible = core_is_one_vertex(facets)
    if not is_connected(facets):
        need(t.status.value == "not-coverable", facets)
        tc_value = None
    else:
        need(t.status.value == "exact", facets)
        tc_value = t.value
        need((tc_value == 0) == collapsible and s.value <= tc_value, facets)
    need(s.status.value == "exact" and (s.value == 0) == collapsible, facets)
    return {"tc": tc_value, "scat": s.value}


def shape_frequencies() -> dict[str, float]:
    """How often random_small_complex() yields each shape (Monte Carlo estimate)."""
    rng = random.Random(POOL_SEED)
    counts: dict[str, int] = {}
    for _ in range(SHAPE_SAMPLES):
        key = shape_key(random_small_complex(rng))
        counts[key] = counts.get(key, 0) + 1
    return {key: n / SHAPE_SAMPLES for key, n in counts.items()}


def random_pool() -> list[list[tuple[int, ...]]]:
    rng = random.Random(POOL_SEED)
    triangles = list(combinations(range(8), 3))
    pool: list[list[tuple[int, ...]]] = []
    while len(pool) < POOL_SIZE:
        facets = sorted(rng.sample(triangles, rng.randint(10, 12)))
        if len({v for f in facets for v in f}) != 8 or not is_connected(facets):
            continue
        if core_is_one_vertex(facets) or facets in pool:
            continue
        pool.append(facets)
    return pool


def main() -> None:
    freq = shape_frequencies()
    corpus = {}
    for key, facets in sorted(corpus_shapes().items()):
        corpus[key] = {"facets": [list(f) for f in facets], "freq": round(freq.get(key, 0.0), 6)}
        corpus[key].update(pin_value(facets))
    named = [("torus-7", TORUS7), ("rp2-6", RP2_6)]
    named += [(f"random-{i}", f) for i, f in enumerate(random_pool())]
    scat_2d = []
    for name, facets in named:
        K = build_complex([[str(v) for v in f] for f in facets])
        s = scat(K)
        need(s.status.value == "exact" and s.value >= 1, name)
        scat_2d.append({"name": name, "facets": [list(f) for f in facets], "scat": s.value})
        print(f"{name}: scat = {s.value} ({s.checks} checks)", flush=True)
    data = {"pool_seed": POOL_SEED, "scat_2d": scat_2d, "corpus_small": corpus}
    PINNED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} corpus shapes and {len(scat_2d)} scat-2d complexes")


if __name__ == "__main__":
    main()
