"""Truncation by comparing every pair of path tuples.

This is the route the library ran before truncate recorded parent
links: the paths are grown level by level as tuples of edge ids, and
each cell of the meet table compares the two tuples' prefixes.  The
tests hold the parent-link truncation to it.
"""

from __future__ import annotations

from slat.core import Semilattice
from slat.errors import BadDepthError, FormatError, NotRootedError
from slat.pathlat import RootedGraph, _path_labels, unreachable_vertices, validate_rooted


def truncate(G: RootedGraph, depth: int) -> Semilattice:
    if not validate_rooted(G):
        raise NotRootedError(f"unreachable vertices: {unreachable_vertices(G)}")
    if not isinstance(depth, int) or depth < 1:
        raise BadDepthError(f"depth must be a positive integer, got {depth!r}")
    paths: list[tuple[str, ...]] = [()]
    frontier: list[tuple[tuple[str, ...], str]] = [((), G.root)]
    for _ in range(depth):
        grown: list[tuple[tuple[str, ...], str]] = []
        for prefix, at in frontier:
            for eid, src, _ in G.edges_into(at):
                grown.append((prefix + (eid,), src))
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
