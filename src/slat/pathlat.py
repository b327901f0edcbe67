"""Path semilattices of rooted directed graphs.

Edges have first-class identifiers; loops and parallel edges are fine.
Paths are walked backwards from the root: a path is a sequence of edges
whose first edge targets the root and where each next edge targets the
source of the previous one.  Shorter paths sit higher (reverse prefix
order), the empty path is the top, and truncating at a finite depth and
adjoining a zero yields a bounded meet semilattice in which distinct
non-orthogonal elements are always comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Semilattice, _check_pair_below, _lower_covers, _members, _row_at
from .errors import (
    BadDepthError,
    BadPairError,
    FormatError,
    NotRootedError,
    TooLargeError,
    ZeroElementError,
)

# slat graph on the 2048-element two-loop truncation at depth 10 peaks
# near 21 MB of resident memory (Python 3.11, Linux x86-64).  A truncation
# stores its down/up/star rows only and classification reads nothing else:
# under tracemalloc the truncation keeps 1.7 MiB and building it peaks at
# 1.8 MiB.  Each further level of two loops doubles the elements and
# quadruples the bits of the rows; reading the meet table derives n x n
# entries.
MAX_ELEMENTS = 2048

_RESERVED_IDS = {"0", "^"}


@dataclass(frozen=True)
class RootedGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (id, source, target)
    root: str

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise FormatError("duplicate vertices")
        if self.root not in self.vertices:
            raise FormatError(f"root {self.root!r} is not a declared vertex")
        ids = [e[0] for e in self.edges]
        if len(set(ids)) != len(ids):
            raise FormatError("duplicate edge identifiers")
        for eid, src, tgt in self.edges:
            if not eid or any(c.isspace() for c in eid) or set(eid) & set("#<=."):
                raise FormatError(f"bad edge id {eid!r}")
            if eid in _RESERVED_IDS:
                raise FormatError(f"edge id {eid!r} is reserved")
            if src not in self.vertices or tgt not in self.vertices:
                raise FormatError(f"edge {eid!r} references undeclared vertices")

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices), f"root: {self.root}"]
        lines.extend(f"edge {eid} {src} {tgt}" for eid, src, tgt in self.edges)
        return "\n".join(lines) + "\n"


def parse_rooted_graph(text: str) -> RootedGraph:
    """Parse the graph text format: vertices, root, one edge per line."""
    vertices: tuple[str, ...] | None = None
    root: str | None = None
    edges: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise FormatError("duplicate vertices line")
            vertices = tuple(line[len("vertices:"):].split())
        elif line.startswith("root:"):
            if root is not None:
                raise FormatError("duplicate root line")
            parts = line[len("root:"):].split()
            if len(parts) != 1:
                raise FormatError("root line must name exactly one vertex")
            root = parts[0]
        elif line.startswith("edge "):
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"bad edge line {line!r}, expected 'edge id src tgt'")
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise FormatError(f"unrecognized line {line!r}")
    if vertices is None or root is None:
        raise FormatError("graph needs a vertices line and a root line")
    return RootedGraph(vertices, tuple(edges), root)


def _in_edges(G: RootedGraph) -> dict[str, list[tuple[str, str, str]]]:
    """The edges into each vertex, in declaration order."""
    into: dict[str, list[tuple[str, str, str]]] = {v: [] for v in G.vertices}
    for edge in G.edges:
        into[edge[2]].append(edge)
    return into


def root_distances(G: RootedGraph) -> dict[str, int]:
    """Length of a shortest directed path from each vertex to the root,
    for the vertices that have one: a breadth-first search backwards
    along the in-edges, linear in the size of the graph."""
    into = _in_edges(G)
    dist = {G.root: 0}
    frontier = [G.root]
    while frontier:
        grown = []
        for v in frontier:
            for _, src, _ in into[v]:
                if src not in dist:
                    dist[src] = dist[v] + 1
                    grown.append(src)
        frontier = grown
    return dist


def unreachable_vertices(G: RootedGraph) -> list[str]:
    """Vertices with no directed path to the root."""
    reached = root_distances(G)
    return [v for v in G.vertices if v not in reached]


def validate_rooted(G: RootedGraph) -> bool:
    """Every vertex reaches the root."""
    return not unreachable_vertices(G)


def zero_disjunctive_graph(G: RootedGraph) -> bool:
    """Graph-side criterion: every in-degree is zero or at least two."""
    if lost := unreachable_vertices(G):
        raise NotRootedError(f"unreachable vertices: {lost}")
    return all(len(edges) != 1 for edges in _in_edges(G).values())


def _path_labels(paths: list[tuple[str, ...]]) -> list[str]:
    ids = {eid for p in paths for eid in p}
    sep = "" if all(len(eid) == 1 for eid in ids) else "."
    out = []
    for p in paths:
        out.append("^" if not p else sep.join(p))
    return out


def truncate(G: RootedGraph, depth: int) -> Semilattice:
    """Bounded meet semilattice of backward paths of length at most depth.

    Element 0 is the adjoined zero, element 1 is the empty path at the
    root.  Two paths meet at the longer one when one extends the other
    and at zero otherwise.  Path labels concatenate edge ids (dotted when
    ids are not single symbols); '0' and '^' name the bounds.

    Paths are grown level by level, each recording its parent's index.
    Growth stops once no path can be extended, and TooLargeError refuses
    a truncation of more than MAX_ELEMENTS elements after the level that
    crosses the bound.

    The instance is lawful by construction, so it is not validated: its
    labels, bounds and down rows go to Semilattice._from_rows, which
    checks nothing.  RootedGraph refuses empty ids, ids with whitespace
    or any of '#<=.', and the reserved ids '0' and '^', so every path
    label, its ids joined by '' or '.', is non-empty and free of
    whitespace, '<', '#' and '='.  The collision check below makes the
    labels distinct, and there are at least two, '0' and '^'.  The zero
    is 0 and the one is 1.  Below a path i lie the zero and the paths
    that extend i, which are i and the paths whose ancestor chain passes
    through i: its subtree in the parent list.  Each row starts as
    {0, i}, and each path from the last to the first ORs its row into
    its parent's.  A path has a greater index than its parent, because a
    level is appended after the level before it, so a row is complete,
    holding the zero and the whole subtree, before it is OR-ed up.  The
    root's parent is the zero, whose row is reset to {0}.
    """
    if lost := unreachable_vertices(G):
        raise NotRootedError(f"unreachable vertices: {lost}")
    if not isinstance(depth, int) or depth < 1:
        raise BadDepthError(f"depth must be a positive integer, got {depth!r}")
    into = _in_edges(G)
    paths: list[tuple[str, ...]] = [(), ()]  # indexed by element; 0 is the zero
    parent = [0, 0]
    frontier = [(1, G.root)]
    for d in range(1, depth + 1):
        grown = []
        for i, at in frontier:
            for eid, src, _ in into[at]:
                grown.append((len(paths), src))
                paths.append(paths[i] + (eid,))
                parent.append(i)
        if not grown:
            break
        if len(paths) > MAX_ELEMENTS:
            raise TooLargeError(f"truncations are built for up to {MAX_ELEMENTS} elements, "
                                f"depth {d} already has {len(paths)}")
        frontier = grown

    labels = ["0"] + _path_labels(paths[1:])
    if len(set(labels)) != len(labels):
        raise FormatError("edge ids produce colliding path labels")
    down = [1 | 1 << i for i in range(len(labels))]
    for i in range(len(labels) - 1, 0, -1):
        down[parent[i]] |= down[i]
    down[0] = 1  # the root's row went into parent[1], the zero
    return Semilattice._from_rows(tuple(labels), 0, 1, tuple(down))


def level(S: Semilattice, e: int) -> int | float:
    """Size of the up-set; on truncations this is path length plus one.

    Zero sits below everything, so its level is the infinity sentinel.
    """
    if e == S.zero:
        return math.inf
    return _row_at(S, S.up, e).bit_count()


def covers_hat(S: Semilattice, e: int) -> frozenset:
    """Elements directly below e, with nothing strictly between."""
    if _row_at(S, S.down, e) == 1 << S.zero:  # only the zero has nothing else below it
        raise ZeroElementError("zero has no lower covers")
    return frozenset(_members(_lower_covers(S, e)))


def sibling_cover_witness(S: Semilattice, e: int, f: int) -> list[int]:
    """Constructive witness family for 0 != f < e on a truncation.

    Walks down from e to f one cover at a time.  At each g the child is
    the one lower cover of g inside up(f), and the step collects the
    other covers, in index order.  Every collected element is below e and
    orthogonal to f, and e refines into the collected family plus f.
    Some cover of g > f lies above f, and if only one does, every element
    of [f, g) lies below it; so the walk meets two covers inside up(f)
    exactly when the interval [f, e] is not a chain, and refuses it.
    """
    _check_pair_below(S, e, f)
    witness: list[int] = []
    g = e
    while g != f:
        covers = _lower_covers(S, g)
        child = covers & S.up[f]
        if child & child - 1:
            raise BadPairError(
                f"interval [{S.labels[f]!r}, {S.labels[e]!r}] is not a cover chain")
        witness.extend(_members(covers ^ child))
        g = child.bit_length() - 1
    return witness


def sibling_cover_witnesses(S: Semilattice, e: int) -> dict[int, list[int]]:
    """sibling_cover_witness(S, e, f) for every f below e that it answers,
    from one descent.

    The walk from e to f and the walk from e to a lower cover c of f
    share every step but the last, so the witness of c is the witness of
    f plus the other covers of f, in index order.  The descent takes each
    element once, from the one cover above it inside down(e), and
    _lower_covers runs once per element below e instead of once per step
    of every walk.  An f is left out exactly where sibling_cover_witness
    refuses it, when [f, e] is not a chain; for f a lower cover of a g
    with [g, e] a chain, [f, e] is a chain iff it is [g, e] plus f.
    """
    up, down_e, zero = S.up, _row_at(S, S.down, e), S.zero
    if down_e == 1 << zero:  # e is the zero
        raise ZeroElementError("zero has no lower covers")
    witnesses: dict[int, list[int]] = {}
    stack = [(e, [])]
    while stack:
        g, witness = stack.pop()
        covers = _lower_covers(S, g)
        above = up[g] & down_e
        for c in _members(covers & ~(1 << zero)):
            if up[c] & down_e == above | 1 << c:
                witnesses[c] = witness + _members(covers ^ 1 << c)
                stack.append((c, witnesses[c]))
    return witnesses
