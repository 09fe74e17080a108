"""The contiguity kernel: one bitmask step in the graph of simplicial maps.

States are vertex assignments encoded as bytes (one codomain id per domain
vertex).  neighbors() moves the map at one vertex v to another codomain
vertex c such that, for every domain facet F holding v, f(F) | {c} is a
codomain simplex.  The codomain vertices that extend a simplex m are the
union of the codomain facets containing m (0 when m is no simplex), cached
per context, so the candidates at v are one AND of those unions over the
facets at v.  Such a move g is contiguous to f, and g is simplicial because
each g(F) lies in f(F) | {c}.  Single-vertex moves reach the whole
contiguity class: for contiguous f and g, changing the vertices from f(v)
to g(v) one at a time keeps every facet image inside the simplex
f(F) | g(F).  Moves are listed by (vertex, new value).
"""

from __future__ import annotations

_BYTE = tuple(bytes((i,)) for i in range(256))


class Context:
    __slots__ = ("facet_vertices", "vertex_facets", "cod_facets", "_extend")

    def __init__(self, facet_vertices, vertex_facets, cod_facets):
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
