"""Independent brute-force oracles used to pin expected values.

Everything here works from first principles on tiny instances: simplices via
explicit downward closure, contiguity over all faces (not just facets), map
enumeration by filtering the full assignment product, components by quadratic
graph construction.  Nothing below imports the search machinery it is used to
check.
"""

from __future__ import annotations

import itertools
from collections import deque

from simplicial_tc import Complex


def facet_sets(K: Complex) -> list[frozenset[int]]:
    return [frozenset(ids) for ids in K.facet_vertex_ids]


def downward_closure(K: Complex) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for f in facet_sets(K):
        verts = sorted(f)
        for r in range(1, len(verts) + 1):
            out.update(frozenset(c) for c in itertools.combinations(verts, r))
    return out


def oracle_is_simplex(K: Complex, vertices) -> bool:
    return frozenset(vertices) in downward_closure(K)


def oracle_valid_maps(dom: Complex, cod: Complex) -> list[tuple[int, ...]]:
    closure = downward_closure(cod)
    facets = facet_sets(dom)
    out = []
    for assignment in itertools.product(range(cod.n_vertices), repeat=dom.n_vertices):
        if all(frozenset(assignment[v] for v in f) in closure for f in facets):
            out.append(assignment)
    return out


def oracle_are_contiguous(dom: Complex, cod: Complex, f, g) -> bool:
    cod_closure = downward_closure(cod)
    for sigma in downward_closure(dom):
        union = frozenset(f[v] for v in sigma) | frozenset(g[v] for v in sigma)
        if union not in cod_closure:
            return False
    return True


def oracle_neighbors(dom: Complex, cod: Complex, f) -> list[tuple[int, ...]]:
    return [
        g
        for g in oracle_valid_maps(dom, cod)
        if g != tuple(f) and oracle_are_contiguous(dom, cod, f, g)
    ]


def oracle_component(dom: Complex, cod: Complex, f) -> set[tuple[int, ...]]:
    """Connected component of f in the contiguity graph, built quadratically."""
    maps = oracle_valid_maps(dom, cod)
    start = tuple(f)
    seen = {start}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in maps:
            if b not in seen and oracle_are_contiguous(dom, cod, a, b):
                seen.add(b)
                queue.append(b)
    return seen


def oracle_component_masks(K: Complex) -> tuple[int, ...]:
    """For each vertex id, the mask of its component: a BFS over the edges of the facet label sets."""
    adjacent: dict[str, set[str]] = {lab: set() for lab in K.labels}
    for facet in K.facet_label_sets():
        for a, b in itertools.combinations(facet, 2):
            adjacent[a].add(b)
            adjacent[b].add(a)
    out = []
    for start in K.labels:
        seen = {start}
        queue = deque([start])
        while queue:
            for b in adjacent[queue.popleft()] - seen:
                seen.add(b)
                queue.append(b)
        out.append(sum(1 << K.id(lab) for lab in seen))
    return tuple(out)


def complexes_isomorphic(A: Complex, B: Complex) -> bool:
    """Whether some vertex bijection maps A's facet sets onto B's.

    Brute force over bijections, built one vertex at a time and cut as soon
    as a vertex's facet sizes or its edges to the vertices placed before it
    do not match.
    """
    n = A.n_vertices
    if n != B.n_vertices or len(A.facets) != len(B.facets):
        return False
    fa = set(facet_sets(A))
    fb = set(facet_sets(B))

    def sizes(facets, v):
        return sorted(len(f) for f in facets if v in f)

    def edges(facets):
        return {frozenset(e) for f in facets for e in itertools.combinations(f, 2)}

    size_a, size_b = [sizes(fa, v) for v in range(n)], [sizes(fb, v) for v in range(n)]
    if sorted(size_a) != sorted(size_b):
        return False
    edge_a, edge_b = edges(fa), edges(fb)
    perm: list[int] = []

    def extend() -> bool:
        v = len(perm)
        if v == n:
            return {frozenset(perm[x] for x in f) for f in fa} == fb
        for w in range(n):
            if w in perm or size_b[w] != size_a[v]:
                continue
            if any((frozenset((x, v)) in edge_a) != (frozenset((perm[x], w)) in edge_b) for x in range(v)):
                continue
            perm.append(w)
            if extend():
                return True
            perm.pop()
        return False

    return extend()


def oracle_automorphisms(K: Complex) -> set[tuple[int, ...]]:
    """Every vertex permutation of K that maps its facet sets onto its facet sets, by brute force."""
    facets = set(facet_sets(K))
    return {
        perm
        for perm in itertools.permutations(range(K.n_vertices))
        if {frozenset(perm[v] for v in f) for f in facets} == facets
    }


# -- the object-level strong-collapse loops ------------------------------------
#
# References for the library's bitmask collapse: list every dominated pair,
# delete, rebuild the whole complex, repeat.  oracle_core deletes the lowest
# pair's vertex, one at a time; oracle_round_core deletes by the library's
# round rule.


def oracle_dominated_vertices(K: Complex) -> list[tuple[int, int]]:
    """All (v, u), v != u, with u in every facet that contains v."""
    facets = facet_sets(K)
    out = []
    for v in range(K.n_vertices):
        star = [f for f in facets if v in f]
        for u in sorted(frozenset.intersection(*star) - {v}):
            out.append((v, u))
    return out


def delete_vertex(K: Complex, v: int) -> Complex:
    """K without v: truncate its facets, keep the maximal ones, re-densify ids."""
    truncated = {f - {v} for f in facet_sets(K)} - {frozenset()}
    maximal = [f for f in truncated if not any(f < g for g in truncated)]
    used = sorted(frozenset().union(*maximal))
    labels = tuple(K.labels[old] for old in used)
    new_id = {old: new for new, old in enumerate(used)}
    masks = [sum(1 << new_id[w] for w in f) for f in maximal]
    masks.sort(key=lambda m: tuple(sorted(labels[w] for w in range(len(labels)) if m >> w & 1)))
    return Complex(labels, tuple(masks))


def oracle_core(K: Complex) -> tuple[tuple[tuple[int, int], ...], Complex]:
    """Lowest dominated pair first; steps in ids of K, and the final complex."""
    current = K
    steps = []
    while True:
        doms = oracle_dominated_vertices(current)
        if not doms:
            return tuple(steps), current
        v, u = min(doms)
        steps.append((K.id(current.labels[v]), K.id(current.labels[u])))
        current = delete_vertex(current, v)


def oracle_round_core(K: Complex) -> tuple[tuple[tuple[tuple[int, int], ...], ...], Complex]:
    """Deletion in rounds; each round's steps in ids of K, and the final complex.

    A round lists the dominated pairs once, then walks their vertices in
    id order: v is taken, with the lowest of its dominators the round has
    not taken, unless v is a dominator chosen earlier in the round or has
    no dominator left.  Then every vertex taken is deleted, one at a time.
    delete_vertex keeps the relative order of the ids, so "id order" is the
    order in K throughout.
    """
    current = K
    rounds = []
    while True:
        doms = oracle_dominated_vertices(current)
        if not doms:
            return tuple(rounds), current
        steps: list[tuple[int, int]] = []
        for v in sorted({v for v, _ in doms}):
            if v in (u for _, u in steps):
                continue
            left = [u for w, u in doms if w == v and u not in (t for t, _ in steps)]
            if left:
                steps.append((v, min(left)))
        labels = current.labels
        rounds.append(tuple((K.id(labels[v]), K.id(labels[u])) for v, u in steps))
        for v, _ in steps:
            current = delete_vertex(current, current.id(labels[v]))


# -- the slice rule as a scan over placed facets -----------------------------------
#
# The reference for ProductComplex.has_full_slice: the rule as the library
# first stated it, one subset test per placed facet of K and facet of the
# subcomplex.


def oracle_full_slice(K: Complex, facets) -> bool:
    """Some row {a} x K or column K x {a} of K^2 lies in the subcomplex facets generate.

    facets are simplices of K^2 as masks over its pair ids q = u*n + v.  A
    slice lies in the subcomplex when every copy of a facet of K placed in
    it ({a} x F or F x {a}) lies in one of facets; that needs every vertex of
    the slice first.
    """
    n = K.n_vertices
    column = [sum(1 << (u * n) for u in ids) for ids in K.facet_vertex_ids]
    placed = [tuple(f << (a * n) for f in K.facets) for a in range(n)]
    placed += [tuple(c << a for c in column) for a in range(n)]
    union = 0
    for m in facets:
        union |= m
    for targets in placed:
        whole = 0
        for t in targets:
            whole |= t
        if whole & ~union == 0 and all(any(t & ~m == 0 for m in facets) for t in targets):
            return True
    return False


# -- first cohomology over F2 ------------------------------------------------------
#
# The reference for Complex.cocycles: count the 1-cocycles and 1-coboundaries
# of K by enumerating every edge function and every vertex function.


def oracle_edges(K: Complex) -> list[frozenset[int]]:
    return sorted((s for s in downward_closure(K) if len(s) == 2), key=sorted)


def oracle_triangles(K: Complex) -> list[list[frozenset[int]]]:
    """The three edges of each triangle of K."""
    return [
        [frozenset(e) for e in itertools.combinations(sorted(t), 2)]
        for t in downward_closure(K)
        if len(t) == 3
    ]


def oracle_is_cocycle(triangles, ones) -> bool:
    """Whether the edge function that is 1 on the edges in ones sums to 0 around every triangle."""
    return all(sum(e in ones for e in t) % 2 == 0 for t in triangles)


def oracle_coboundaries(K: Complex) -> set[frozenset[frozenset[int]]]:
    """Every coboundary of a vertex function, as the set of edges where it is 1."""
    edges = oracle_edges(K)
    out = set()
    for values in itertools.product((0, 1), repeat=K.n_vertices):
        out.add(frozenset(e for e in edges if sum(values[v] for v in e) % 2))
    return out


def oracle_h1_dimension(K: Complex) -> int:
    """dim H^1(K; F2) = log2 |Z^1| - log2 |B^1|, by enumerating edge functions (at most 15 edges)."""
    edges = oracle_edges(K)
    if len(edges) > 15:
        raise ValueError("the oracle enumerates 2^edges functions; keep it to 15 edges")
    triangles = oracle_triangles(K)
    cocycles = sum(
        oracle_is_cocycle(triangles, {e for e, bit in zip(edges, bits) if bit})
        for bits in itertools.product((0, 1), repeat=len(edges))
    )
    return (cocycles.bit_length() - 1) - (len(oracle_coboundaries(K)).bit_length() - 1)
