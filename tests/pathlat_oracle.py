"""Truncation by comparing every pair of path tuples, and sibling
witnesses by listing every cover.

truncate is the route the library ran before it recorded parent links:
the paths are grown level by level as tuples of edge ids, and each cell
of the meet table compares the two tuples' prefixes.
sibling_cover_witnesses runs, at each f below e, the route the library
ran before it walked down from e along the covers: it lists the interval
[f, e], sorts it into a chain and takes all covers of each element on
the chain from order_oracle's table scan, so it shares no code with the
library's cover kernel.  unreachable_vertices is the search the library
ran before it indexed the in-edges: it rescans every edge for each
vertex it reaches.  ancestor_chain_table is the meet table truncate filled
before it built down rows only: row i holds i at each ancestor a of
path i, and row a holds i at i.  The tests hold the library's versions
to all four, and the table derived from a truncation's rows to the last.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache

import order_oracle
from slat.core import Semilattice
from slat.errors import BadDepthError, BadPairError, FormatError, NotRootedError
from slat.pathlat import RootedGraph, _path_labels


def unreachable_vertices(G: RootedGraph) -> list[str]:
    reached = {G.root}
    frontier = [G.root]
    while frontier:
        v = frontier.pop()
        for _, src, tgt in G.edges:
            if tgt == v and src not in reached:
                reached.add(src)
                frontier.append(src)
    return [v for v in G.vertices if v not in reached]


def truncate(G: RootedGraph, depth: int) -> Semilattice:
    if unreachable_vertices(G):
        raise NotRootedError(f"unreachable vertices: {unreachable_vertices(G)}")
    if not isinstance(depth, int) or depth < 1:
        raise BadDepthError(f"depth must be a positive integer, got {depth!r}")
    paths: list[tuple[str, ...]] = [()]
    frontier: list[tuple[tuple[str, ...], str]] = [((), G.root)]
    for _ in range(depth):
        grown: list[tuple[tuple[str, ...], str]] = []
        for prefix, at in frontier:
            grown.extend((prefix + (eid,), src) for eid, src, tgt in G.edges if tgt == at)
        frontier = grown
        paths.extend(p for p, _ in grown)

    labels = ["0"] + _path_labels(paths)
    if len(set(labels)) != len(labels):
        raise FormatError("edge ids produce colliding path labels")
    n = len(labels)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(paths, start=1):
        for j, q in enumerate(paths, start=1):
            if p[:len(q)] == q:
                table[i][j] = i  # p extends q, the longer path is lower
            elif q[:len(p)] == p:
                table[i][j] = j
            else:
                table[i][j] = 0
    return Semilattice(tuple(labels), tuple(tuple(r) for r in table), zero=0, one=1)


def ancestor_chain_table(G: RootedGraph, depth: int) -> tuple[tuple[int, ...], ...]:
    """The meet table of the truncation, filled along recorded parent links."""
    parent = [0, 0]  # indexed by element; 0 is the zero, 1 the root
    frontier = [(1, G.root)]
    for _ in range(depth):
        grown = []
        for i, at in frontier:
            for _, src, tgt in G.edges:
                if tgt == at:
                    grown.append((len(parent), src))
                    parent.append(i)
        frontier = grown
    n = len(parent)
    table = [[0] * n for _ in range(n)]
    for i in range(1, n):
        a = i
        while a:
            table[i][a] = table[a][i] = i  # i extends a, the longer path is lower
            a = parent[a]
    return tuple(map(tuple, table))


def cover_table(S: Semilattice) -> dict[int, frozenset]:
    """order_oracle.covers_hat of every non-zero element."""
    return dict(_cover_table(S))


@lru_cache(maxsize=2)  # sibling_cover_witnesses reads the table at every pair
def _cover_table(S: Semilattice) -> dict[int, frozenset]:
    return {g: order_oracle.covers_hat(S, g) for g in S.nonzero()}


def sibling_cover_witnesses(S: Semilattice, e: int):
    """sibling_cover_witness(S, e, f) at every non-zero f < e, as the
    witness or as its refusal (the error's type name and message); and
    the witnesses alone, as sibling_cover_witnesses(S, e) gives them."""
    answers: dict[int, list[int] | tuple[str, str]] = {}
    for f in S.nonzero():
        if f != e and S.leq(f, e):
            try:
                answers[f] = _sibling_cover_witness(S, e, f)
            except BadPairError as exc:
                answers[f] = (type(exc).__name__, str(exc))
    return answers, {f: w for f, w in answers.items() if isinstance(w, list)}


def _sibling_cover_witness(S: Semilattice, e: int, f: int) -> list[int]:
    """The witness read off the chain [f, e] and the cover table of S."""
    if f == S.zero or f == e or not S.leq(f, e):
        raise BadPairError(
            f"need 0 != f < e, got f={S.labels[f]!r} e={S.labels[e]!r}")
    # Greatest first: on a chain this is its order, and on any other interval
    # some neighbours in the sorted list are not a cover pair.
    interval = sorted((g for g in S.elements() if S.leq(f, g) and S.leq(g, e)),
                      key=cmp_to_key(lambda g, h: -1 if S.leq(h, g) else 1))
    covers = _cover_table(S)
    witness: list[int] = []
    for g, child in zip(interval, interval[1:]):
        if child not in covers[g]:
            raise BadPairError(
                f"interval [{S.labels[f]!r}, {S.labels[e]!r}] is not a cover chain")
        witness.extend(s for s in sorted(covers[g]) if s != child and s != S.zero)
    return witness
