"""The contiguity kernel: bitmask steps in the graph of simplicial maps.

A map space is a pair (domain complex, codomain complex); states are vertex
assignments encoded as bytes (one codomain id per domain vertex).

neighbors() is the step of every class search.  It moves the map at one
vertex v to another codomain vertex c such that, for every domain facet F
holding v, f(F) | {c} is a codomain simplex.  The codomain vertices that
extend a simplex m are the union of the codomain facets containing m (0 when
m is no simplex), cached per context, so the candidates at v are one AND of
those unions over the facets at v.  Such a move g is contiguous to f, and g
is simplicial because each g(F) lies in f(F) | {c}.  Single-vertex moves
reach the whole contiguity class: for contiguous f and g, changing the
vertices from f(v) to g(v) one at a time keeps every facet image inside the
simplex f(F) | g(F).

contiguous_maps() enumerates every assignment g != f such that for each
domain facet F the joint image f(F) | g(F) is a codomain simplex (any such
g is automatically a simplicial map) by backtracking over the vertices in
order: the candidates for g(v) are one AND, over the facets F at v, of the
extensions of F's joint image so far (f(F) plus g on the earlier vertices).
Both functions use the one cached extensions table.

Both functions list their results in a fixed order: neighbors() by (vertex,
new value), contiguous_maps() lexicographically by assignment.
"""

from __future__ import annotations

_BYTE = tuple(bytes((i,)) for i in range(256))


class Context:
    __slots__ = ("n_dom", "n_cod", "facet_vertices", "vertex_facets", "cod_facets", "_extend")

    def __init__(self, facet_vertices, vertex_facets, cod_facets, n_dom, n_cod):
        self.n_dom = n_dom
        self.n_cod = n_cod
        self.facet_vertices = tuple(tuple(f) for f in facet_vertices)
        self.vertex_facets = tuple(tuple(v) for v in vertex_facets)
        self.cod_facets = tuple(cod_facets)
        self._extend: dict[int, int] = {}


def _extensions(ctx: Context, mask: int) -> int:
    """The codomain vertices c with mask | {c} a simplex: 0 if mask is none."""
    ext = ctx._extend.get(mask)
    if ext is None:
        ext = 0
        for f in ctx.cod_facets:
            if mask & ~f == 0:
                ext |= f
        ctx._extend[mask] = ext
    return ext


def neighbors(ctx: Context, a: bytes) -> list[bytes]:
    """The maps that differ from a at exactly one vertex and are contiguous to it."""
    ext = []
    for verts in ctx.facet_vertices:
        m = 0
        for v in verts:
            m |= 1 << a[v]
        ext.append(_extensions(ctx, m))

    out: list[bytes] = []
    for v, facs in enumerate(ctx.vertex_facets):
        allowed = ~(1 << a[v])
        for j in facs:
            allowed &= ext[j]
        if allowed:
            head, tail = a[:v], a[v + 1 :]
            while allowed:
                low = allowed & -allowed
                out.append(head + _BYTE[low.bit_length() - 1] + tail)
                allowed ^= low
    return out


def contiguous_maps(ctx: Context, a: bytes) -> list[bytes]:
    nd = ctx.n_dom
    base = []
    for verts in ctx.facet_vertices:
        m = 0
        for v in verts:
            m |= 1 << a[v]
        base.append(m)

    everything = (1 << ctx.n_cod) - 1
    out: list[bytes] = []
    g = bytearray(nd)

    def rec(v: int, masks: list[int]) -> None:
        if v == nd:
            gb = bytes(g)
            if gb != a:
                out.append(gb)
            return
        facs = ctx.vertex_facets[v]
        allowed = everything
        for j in facs:
            allowed &= _extensions(ctx, masks[j])
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            nxt = list(masks)
            for j in facs:
                nxt[j] |= bit
            g[v] = bit.bit_length() - 1
            rec(v + 1, nxt)

    rec(0, base)
    return out
