"""Finite abstract simplicial complexes stored by their facets.

A complex owns a dense vertex table (string labels, ids 0..n-1) and an
antichain of facet bitmasks.  Simplices are plain ints: bit v set means
vertex v is in the simplex.  Everything downstream (contiguity checks,
product construction, collapses) reduces to subset tests on these masks,
which is why the representation is a bitset and not a set-of-frozensets.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from typing import Any, Iterable, Sequence

from .errors import InvalidInput, ParseError

Mask = int

_RESERVED_CHARS = ("|", "#")


def mask_from_ids(ids: Iterable[int]) -> Mask:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


@lru_cache(maxsize=1 << 16)
def ids_from_mask(mask: Mask) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def union_mask(masks: Iterable[Mask]) -> Mask:
    """The OR of a family of masks; 0 for an empty family."""
    return reduce(operator.or_, masks, 0)


def _antichain(masks: Iterable[Mask]) -> tuple[Mask, ...]:
    """Inclusion-maximal members of a family of masks."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    keep: list[Mask] = []
    for i, m in enumerate(uniq):
        if not any(m != other and m & ~other == 0 for other in uniq[i + 1 :]):
            keep.append(m)
    return tuple(keep)


def _canonical_facet_order(labels: tuple[str, ...], masks: Iterable[Mask]) -> tuple[Mask, ...]:
    """Sort facets lexicographically by their sorted label tuples."""
    return tuple(sorted(masks, key=lambda m: tuple(sorted(labels[v] for v in ids_from_mask(m)))))


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise InvalidInput(f"vertex labels must be nonempty strings, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise InvalidInput(f"vertex label {label!r} contains whitespace")
    for ch in _RESERVED_CHARS:
        if ch in label:
            raise InvalidInput(f"vertex label {label!r} contains reserved character {ch!r}")
    return label


@dataclass(frozen=True)
class Complex:
    """Immutable simplicial complex: a vertex label table plus facet masks.

    Invariants (checked on construction): ids are dense, facets form an
    antichain, and every vertex lies in at least one facet.
    """

    labels: tuple[str, ...]
    facets: tuple[Mask, ...]

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise InvalidInput("empty complex is not supported")
        if len(set(self.labels)) != n:
            raise InvalidInput("duplicate vertex labels")
        if not self.facets:
            raise InvalidInput("complex needs at least one facet")
        full = (1 << n) - 1
        for m in self.facets:
            if m == 0:
                raise InvalidInput("empty facet")
            if m & ~full:
                raise InvalidInput("facet references a vertex id outside the label table")
        if union_mask(self.facets) != full:
            raise InvalidInput("some vertex lies in no facet")
        fl = self.facets
        for i, a in enumerate(fl):
            for b in fl[i + 1 :]:
                if a & ~b == 0 or b & ~a == 0:
                    raise InvalidInput("facets must form an antichain")

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def id(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise InvalidInput(f"unknown vertex label {label!r}") from None

    def simplex_mask(self, labels: Iterable[str]) -> Mask:
        return mask_from_ids(self.id(lab) for lab in labels)

    def facet_label_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(sorted(self.labels[v] for v in ids_from_mask(m))) for m in self.facets
        )

    def is_simplex(self, mask: Mask) -> bool:
        if mask == 0:
            return False
        for f in self.facets:  # a plain loop: any() over a generator costs more on a few facets
            if mask & ~f == 0:
                return True
        return False

    @cached_property
    def facet_vertex_ids(self) -> tuple[tuple[int, ...], ...]:
        """Vertex id tuple per facet (hot-path companion to the masks)."""
        return tuple(ids_from_mask(m) for m in self.facets)

    @cached_property
    def vertex_facets(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the indices of the facets containing it."""
        per = [[] for _ in range(self.n_vertices)]
        for j, m in enumerate(self.facets):
            for v in ids_from_mask(m):
                per[v].append(j)
        return tuple(tuple(p) for p in per)

    @cached_property
    def component_masks(self) -> tuple[Mask, ...]:
        """For each vertex, the vertex mask of its edge-path component.

        Facets are cliques of the 1-skeleton, so a component is a union of
        facets chained by shared vertices: each facet in turn merges with
        every component found so far that it meets.
        """
        comps: list[Mask] = []
        for f in self.facets:
            met = [c for c in comps if c & f]
            comps = [c for c in comps if not c & f]
            comps.append(union_mask(met) | f)
        per = [0] * self.n_vertices
        for c in comps:
            for v in ids_from_mask(c):
                per[v] = c
        return tuple(per)

    @cached_property
    def cocycles(self) -> tuple[frozenset[Mask], ...]:
        """A basis of the F2 1-cocycles that vanish on a spanning forest of the 1-skeleton.

        Each cocycle is the set of edge masks (two bits) where it is 1.  Every
        cocycle class has exactly one member that is 0 on the forest, so there
        is one basis cocycle per class of H^1(K; F2), and none when H^1 = 0.
        The unknowns are the values on the other edges; each triangle (every
        3-subset of every facet, whatever the facet's dimension) asks that
        they sum to 0 around it.  Bitmask Gaussian elimination keeps those
        rows in reduced form (each pivot bit in one row only), and each free
        unknown set to 1 gives one basis cocycle.
        """
        facet_ids = self.facet_vertex_ids
        edges = sorted({1 << a | 1 << b for ids in facet_ids for a, b in combinations(ids, 2)})
        root = list(range(self.n_vertices))

        def find(v: int) -> int:
            while root[v] != v:
                v = root[v]
            return v

        off_forest: list[Mask] = []  # edges closing a cycle of the forest grown so far
        for e in edges:
            a, b = ids_from_mask(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                off_forest.append(e)
            else:
                root[ra] = rb
        column = {e: 1 << i for i, e in enumerate(off_forest)}
        rows: dict[int, int] = {}  # pivot bit -> its row
        for a, b, c in {t for ids in facet_ids for t in combinations(ids, 3)}:
            row = column.get(1 << a | 1 << b, 0) ^ column.get(1 << a | 1 << c, 0)
            row ^= column.get(1 << b | 1 << c, 0)
            for p, r in rows.items():
                if row & p:
                    row ^= r
            if row:
                p = row & -row
                for q, r in rows.items():
                    if r & p:
                        rows[q] = r ^ row
                rows[p] = row
        basis = []
        for i in range(len(off_forest)):
            free = 1 << i
            if free in rows:
                continue
            vector = free | union_mask(p for p, r in rows.items() if r & free)
            basis.append(frozenset(e for j, e in enumerate(off_forest) if vector >> j & 1))
        return tuple(basis)


# -- constructors ---------------------------------------------------------


def _assemble_complex(facet_list: Iterable[Iterable[str]], check_labels: bool) -> Complex:
    raw = [set(f) for f in facet_list]
    if not raw:
        raise InvalidInput("empty complex is not supported")
    for f in raw:
        if not f:
            raise InvalidInput("empty facet")
        for lab in f:
            if check_labels:
                _check_label(lab)
            elif not isinstance(lab, str) or not lab:
                raise InvalidInput(f"vertex labels must be nonempty strings, got {lab!r}")
    labels = tuple(sorted(set().union(*raw)))
    index = {lab: i for i, lab in enumerate(labels)}
    masks = _antichain(mask_from_ids(index[lab] for lab in f) for f in raw)
    return Complex(labels, _canonical_facet_order(labels, masks))


def build_complex(facet_list: Iterable[Iterable[str]]) -> Complex:
    """Build a complex from facet label sets; keeps the inclusion-maximal ones.

    Labels are interned to dense ids in sorted label order, so equal inputs
    yield identical (canonical) complexes.  Labels here are user input, so the
    reserved characters ('|', '#', whitespace) are rejected; certificate
    re-validation assembles complexes through a laxer internal path because
    product complexes legitimately carry pair labels.
    """
    return _assemble_complex(facet_list, check_labels=True)


def is_simplex(K: Complex, s: Mask | Iterable[int]) -> bool:
    """True iff s (mask or iterable of vertex ids) is contained in some facet."""
    mask = s if isinstance(s, int) else mask_from_ids(s)
    return K.is_simplex(mask)


def subcomplex(K: Complex, simplices: Iterable[Mask]) -> Complex:
    """Full subcomplex generated by the given simplices of K.

    Vertices keep their labels; ids are re-densified in parent-id order.
    """
    masks = list(simplices)
    if not masks:
        raise InvalidInput("subcomplex needs at least one generating simplex")
    for m in masks:
        if not K.is_simplex(m):
            raise InvalidInput("generator is not a simplex of the ambient complex")
    return _complex_on(K, _antichain(masks))


def _complex_on(K: Complex, facets: Sequence[Mask]) -> Complex:
    """The complex on a facet antichain of K: labels kept, ids re-densified in parent-id order."""
    used = ids_from_mask(union_mask(facets))
    old_to_new = {old: new for new, old in enumerate(used)}
    labels = tuple(K.labels[old] for old in used)
    masks = tuple(mask_from_ids(old_to_new[v] for v in ids_from_mask(m)) for m in facets)
    return Complex(labels, _canonical_facet_order(labels, masks))


def embedding_ids(sub: Complex, K: Complex) -> tuple[int, ...]:
    """Parent vertex id in K for each vertex of sub (matched by label)."""
    return tuple(K.id(lab) for lab in sub.labels)


def is_subcomplex(sub: Complex, K: Complex) -> bool:
    try:
        emb = embedding_ids(sub, K)
    except InvalidInput:
        return False
    return all(
        K.is_simplex(mask_from_ids(emb[v] for v in ids_from_mask(m))) for m in sub.facets
    )


# -- symmetry ---------------------------------------------------------------


def _refined_colours(K: Complex) -> list[int]:
    """A colour per vertex that every automorphism of K keeps (colour refinement).

    Each round colours a vertex by its old colour and the multiset of the
    colour multisets of the facets holding it; colours are ranks among the
    distinct signatures, so they do not depend on the labels.  Rounds stop
    when no colour class splits.
    """
    n = K.n_vertices
    colour = [0] * n
    classes = 1
    while True:
        signature = []
        for v in range(n):
            held = (sorted(colour[u] for u in K.facet_vertex_ids[j]) for j in K.vertex_facets[v])
            signature.append((colour[v], tuple(sorted(map(tuple, held)))))
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        colour = [rank[s] for s in signature]
        if len(rank) == classes:
            return colour
        classes = len(rank)


def automorphisms(K: Complex, limit: int) -> list[tuple[int, ...]]:
    """Up to limit vertex permutations of K that map its facets onto its facets.

    Entry v of each is the image of vertex v.  A backtracking search assigns
    the vertices in breadth-first order from a vertex of the rarest colour
    (_refined_colours), each to an unused vertex of its colour, and backs
    off as soon as an edge or non-edge among the assigned vertices is not
    kept, or a facet whose vertices are all assigned does not map to a
    facet.  A vertex bijection that maps every facet to a facet maps the
    facets onto the facets, since there are as many of each.  Returns the
    automorphisms in the order found, the first limit of them when there
    are more.
    """
    n = K.n_vertices
    colour = _refined_colours(K)
    same = [[w for w in range(n) if colour[w] == c] for c in colour]
    adjacent = [union_mask(K.facets[j] for j in K.vertex_facets[v]) & ~(1 << v) for v in range(n)]

    def rarity(v: int) -> tuple[int, int]:
        return len(same[v]), v

    order: list[int] = []
    seen = 0
    for root in sorted(range(n), key=rarity):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        start = len(order)
        order.append(root)
        while start < len(order):  # breadth-first through root's component
            near = sorted(ids_from_mask(adjacent[order[start]] & ~seen), key=rarity)
            seen |= mask_from_ids(near)
            order += near
            start += 1
    place = {v: t for t, v in enumerate(order)}
    completes: list[list[Mask]] = [[] for _ in range(n)]  # facets whose last vertex is order[t]
    for m, ids in zip(K.facets, K.facet_vertex_ids):
        completes[max(place[v] for v in ids)].append(m)
    facets = frozenset(K.facets)
    before = [mask_from_ids(order[:t]) for t in range(n)]

    image = [0] * n
    tried = [0] * n  # how many candidates depth t has tried
    used = 0
    found: list[tuple[int, ...]] = []
    t = 0
    while t >= 0:
        if t == n:
            found.append(tuple(image))
            if len(found) == limit:
                break
            t -= 1
            used ^= 1 << image[order[t]]
            continue
        v = order[t]
        candidates = same[v]
        i = tried[t]
        while i < len(candidates):
            w = candidates[i]
            i += 1
            if used >> w & 1:
                continue
            mapped = 0
            for u in ids_from_mask(adjacent[v] & before[t]):
                mapped |= 1 << image[u]
            if mapped != adjacent[w] & used:
                continue
            image[v] = w
            for m in completes[t]:
                img = 0
                for u in ids_from_mask(m):
                    img |= 1 << image[u]
                if img not in facets:
                    break
            else:
                break
        else:  # no candidate left: back off
            tried[t] = 0
            t -= 1
            if t >= 0:
                used ^= 1 << image[order[t]]
            continue
        tried[t] = i
        used |= 1 << w
        t += 1
    return found


# -- connectivity ---------------------------------------------------------


def is_edge_path_connected(K: Complex) -> bool:
    """True iff the 1-skeleton of K is a connected graph."""
    return K.component_masks[0] == (1 << K.n_vertices) - 1


def edge_path(K: Complex, u: int, v: int) -> list[int] | None:
    """Shortest vertex sequence u..v with consecutive vertices spanning an edge."""
    if u == v:
        return [u]
    if not K.component_masks[u] >> v & 1:
        return None
    prev: dict[int, int] = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for j in K.vertex_facets[x]:
            for w in ids_from_mask(K.facets[j]):
                if w not in prev:
                    prev[w] = x
                    if w == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    queue.append(w)
    return None


# -- text / JSON round trip ------------------------------------------------


def parse_complex(text: str) -> Complex:
    """Parse the facet-per-line text format, or the JSON object form.

    The format is sniffed from the first non-blank character: '{' means JSON
    ({"facets": [["a","b"], ...]}), anything else is treated as text with
    whitespace-separated labels and '#' comments.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_text(text: str) -> Complex:
    facets: list[list[str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        for tok in toks:
            try:
                _check_label(tok)
            except InvalidInput as exc:
                raise ParseError(str(exc), line=lineno) from None
        facets.append(toks)
    if not facets:
        raise ParseError("no facets found")
    return build_complex(facets)


def _parse_json(text: str) -> Complex:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(data, dict) or "facets" not in data:
        raise ParseError('JSON complex must be an object with a "facets" key')
    return build_complex(_label_lists(data["facets"], '"facets"'))


def _labels(row: Any, what: str) -> list[str]:
    """row, checked to be a JSON array of label strings."""
    if not isinstance(row, list):
        raise ParseError(f"{what} must be a list of labels")
    for lab in row:
        if not isinstance(lab, str):
            raise ParseError(f"vertex label {lab!r} is not a string")
    return row


def _label_lists(rows: Any, what: str) -> list[list[str]]:
    """rows, checked to be a JSON array of arrays of label strings."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a list of label lists")
    return [_labels(r, what) for r in rows]


def serialize_complex(K: Complex, form: str = "text") -> str:
    """Canonical serialization: facets sorted lexicographically by label tuples."""
    rows = sorted(K.facet_label_sets())
    if form == "text":
        return "\n".join(" ".join(row) for row in rows) + "\n"
    if form == "json":
        return json.dumps({"facets": [list(row) for row in rows]}, sort_keys=True)
    raise InvalidInput(f"unknown serialization form {form!r}")
