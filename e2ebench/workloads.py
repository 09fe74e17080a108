"""Seeded inputs for the end-to-end benchmark, with their pinned answers.

Each workload turns a seed into a list of Cases.  A Case carries only the
text form of one complex (what the program receives) plus the answers the
benchmark expects back; the library never sees the seed.

  tc-square     C3, C4 and the boundary of the 3-simplex under a seeded vertex
                relabelling and facet/vertex order: the scale cliff of tc().
  scat-2d       scat() on the 7-vertex torus, the 6-vertex RP^2 and a fixed
                pool of random 8-vertex pure 2-complexes (pinned.json), under
                seeded labels that keep the vertex order.
  corpus-small  ~1500 seeded random complexes (<= 7 vertices, <= 3 facets of
                <= 3 vertices, disconnected ones included), stratified by
                isomorphism type; answers come from pinned.json.

Where the vertex order is not kept, relabelling moves every vertex id and the
canonical facet order the library derives from labels, so the search runs in
a different order each seed; the answers stay the same, and so do the check
counts of tc-square (5048 on C4 for every labelling) and, within 1%, the
total of corpus-small.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

WORKLOADS = ("tc-square", "scat-2d", "corpus-small")
CORPUS_SIZE = 1500
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"


@dataclass(frozen=True)
class Case:
    name: str
    text: str  # facet-per-line input, as a user would write it
    run_tc: bool
    expect_tc: int | None  # None: not coverable (disconnected input)
    expect_scat: int


# -- fixed complexes -----------------------------------------------------------

CYCLE3 = [(0, 1), (1, 2), (0, 2)]
CYCLE4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
BOUNDARY_TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
# Moebius' 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
# The 6-vertex real projective plane (hemi-icosahedron).
RP2_6 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]

# TC and scat of the tc-square cases (each is a circle or a 2-sphere; the
# values match the repository's acceptance suite for the hollow triangle).
TC_SQUARE = (
    ("C3", CYCLE3, 2, 1),
    ("C4", CYCLE4, 2, 1),
    ("boundary-tetrahedron", BOUNDARY_TETRAHEDRON, 2, 1),
)


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- combinatorics the gate and the generators share -----------------------------


def maximal_facets(facets) -> list[frozenset]:
    """Inclusion-maximal distinct members of a family of vertex sets."""
    uniq = {frozenset(f) for f in facets}
    return [f for f in uniq if not any(f < g for g in uniq)]


def shape_key(facets) -> str:
    """Isomorphism type of a complex with at most 3 facets.

    With m facets every vertex is described by the nonempty set of facets
    containing it, and the complex is determined up to isomorphism by how
    many vertices fall in each of these 2^m - 1 regions.  The key is the
    least region-count vector over all orderings of the facets.
    """
    fs = maximal_facets(facets)
    m = len(fs)
    if m > 3:
        raise ValueError("shape_key handles at most 3 facets")
    verts = set().union(*fs)
    best = None
    for order in permutations(range(m)):
        counts = [0] * (1 << m)
        for v in verts:
            counts[sum(1 << k for k, i in enumerate(order) if v in fs[i])] += 1
        cand = tuple(counts[1:])
        if best is None or cand < best:
            best = cand
    return f"{m}:" + ",".join(map(str, best))


# -- relabelling -------------------------------------------------------------------


def _fresh_labels(rng: random.Random, n: int) -> list[str]:
    labels: set[str] = set()
    while len(labels) < n:
        labels.add("".join(rng.choices(string.ascii_lowercase, k=3)))
    out = sorted(labels)
    rng.shuffle(out)
    return out


def _render(rng: random.Random, facets, n_vertices: int, keep_order: bool = False) -> str:
    """Seeded relabelling plus facet and within-facet order, as input text.

    With keep_order the new labels sort like the vertex ids, so the library
    assigns the same ids and facet order whatever the seed.
    """
    labels = _fresh_labels(rng, n_vertices)
    if keep_order:
        labels.sort()
    rows = [[labels[v] for v in f] for f in facets]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    return "\n".join(" ".join(row) for row in rows) + "\n"


def _n_vertices(facets) -> int:
    return max(max(f) for f in facets) + 1


# -- the three workloads -------------------------------------------------------------


def tc_square(seed: int, tiny: bool = False) -> list[Case]:
    rng = random.Random(f"tc-square/{seed}")
    cases = TC_SQUARE[:1] if tiny else TC_SQUARE
    return [
        Case(name, _render(rng, facets, _n_vertices(facets)), True, tc_value, scat_value)
        for name, facets, tc_value, scat_value in cases
    ]


def scat_2d(seed: int, tiny: bool = False) -> list[Case]:
    """The scat-2d pool; relabelled, but with the vertex order kept.

    Reordering the vertices of the random pool complexes moves their check
    counts by up to 2.9x (304 to 881 for one of them), which would swamp the
    change being measured; kept order makes the work equal across seeds.
    """
    rng = random.Random(f"scat-2d/{seed}")
    pool = load_pinned()["scat_2d"]
    if tiny:
        pool = [p for p in pool if p["name"] == "rp2-6"]
    cases = []
    for p in pool:
        facets = [tuple(f) for f in p["facets"]]
        text = _render(rng, facets, _n_vertices(facets), keep_order=True)
        cases.append(Case(p["name"], text, False, None, p["scat"]))
    return cases


def corpus_small(seed: int, tiny: bool = False) -> list[Case]:
    """Every shape, as often as the random generator yields it per CORPUS_SIZE draws.

    Fixing how many inputs of each isomorphism type a sweep holds (at least
    one of each) keeps the work nearly equal across seeds; the seed draws
    the labels, vertex ids, facet order and the order of the operations.
    """
    rng = random.Random(f"corpus-small/{seed}")
    cases = []
    for key, shape in sorted(load_pinned()["corpus_small"].items()):
        facets = [tuple(f) for f in shape["facets"]]
        copies = 1 if tiny else max(1, round(CORPUS_SIZE * shape["freq"]))
        for copy in range(copies):
            text = _render(rng, facets, _n_vertices(facets))
            cases.append(Case(f"{key}/{copy}", text, True, shape["tc"], shape["scat"]))
    rng.shuffle(cases)
    return cases


def build(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    if workload == "tc-square":
        return tc_square(seed, tiny)
    if workload == "scat-2d":
        return scat_2d(seed, tiny)
    if workload == "corpus-small":
        return corpus_small(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
