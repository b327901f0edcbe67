"""Rooted graphs and their truncated path semilattices."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import pathlat_oracle
from conftest import BENCH_INPUTS, assert_rows_match_validated_rebuild
from corpus import THREE_LOOP
from slat import pathlat
from slat.catalog import canonical_key
from slat.classify import is_zero_disjunctive
from slat.cli import main
from slat.core import Semilattice, arrow, down, star
from slat.errors import (
    BadDepthError,
    BadPairError,
    FormatError,
    NotRootedError,
    TooLargeError,
    ZeroElementError,
)
from slat.filters import principal_filter
from slat.pathlat import (
    MAX_ELEMENTS,
    RootedGraph,
    covers_hat,
    level,
    parse_rooted_graph,
    root_distances,
    sibling_cover_witness,
    sibling_cover_witnesses,
    truncate,
    unreachable_vertices,
    validate_rooted,
    zero_disjunctive_graph,
)
from slat.stone import build_space, hausdorff_witness
from test_oracles import drive

TWO_LOOP_TEXT = """
# one vertex, two loops
vertices: t
root: t
edge a t t
edge b t t
"""

BENCH_GRAPHS = sorted(p for p in BENCH_INPUTS.glob("*.txt") if p.read_text().startswith("vertices:"))


def by_label(S: Semilattice, lab: str) -> int:
    return S.index(lab)


def test_parse_and_round_trip(two_loop):
    G = parse_rooted_graph(TWO_LOOP_TEXT)
    assert G == two_loop
    assert parse_rooted_graph(G.to_text()) == G
    # the corpus truncates the graphs the benchmark reads
    for name, G in corpus.GRAPHS.items():
        assert parse_rooted_graph((BENCH_INPUTS / f"{name}.txt").read_text(encoding="utf-8")) == G


def test_graph_validation():
    with pytest.raises(FormatError):
        RootedGraph(("t", "t"), (), "t")
    with pytest.raises(FormatError):
        RootedGraph(("t",), (), "u")
    with pytest.raises(FormatError):
        RootedGraph(("t",), (("0", "t", "t"),), "t")  # reserved id
    with pytest.raises(FormatError):
        RootedGraph(("t",), (("^", "t", "t"),), "t")
    with pytest.raises(FormatError):
        RootedGraph(("t",), (("x.y", "t", "t"),), "t")  # separator in id
    with pytest.raises(FormatError):
        RootedGraph(("t",), (("e", "t", "u"),), "t")  # undeclared endpoint
    with pytest.raises(FormatError):
        RootedGraph(("t",), (("e", "t", "t"), ("e", "t", "t")), "t")


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_rooted_graph("vertices: t\nroot: t u")
    with pytest.raises(FormatError):
        parse_rooted_graph("vertices: t")
    with pytest.raises(FormatError):
        parse_rooted_graph("vertices: t\nroot: t\nedge a t")


def test_rootedness(two_loop, single_edge):
    assert validate_rooted(two_loop)
    assert validate_rooted(single_edge)
    assert unreachable_vertices(two_loop) == []
    # s cannot reach the root along edges: r -> s direction only
    G = RootedGraph(("r", "s"), (("e", "r", "s"),), "r")
    assert unreachable_vertices(G) == ["s"]
    assert not validate_rooted(G)
    with pytest.raises(NotRootedError):
        truncate(G, 1)
    with pytest.raises(NotRootedError):
        zero_disjunctive_graph(G)


def test_graph_level_predicates(two_loop, single_edge):
    assert zero_disjunctive_graph(two_loop)  # in-degree 2 at the only vertex
    assert not zero_disjunctive_graph(single_edge)  # r has in-degree 1
    assert not hasattr(pathlat, "pseudofinite_graph")  # it held on every finite graph


def test_truncate_depth_validation(two_loop):
    with pytest.raises(BadDepthError):
        truncate(two_loop, 0)
    with pytest.raises(BadDepthError):
        truncate(two_loop, -3)


def test_truncate_two_loop_shapes(two_loop, vee):
    S1 = truncate(two_loop, 1)
    assert len(S1) == 4
    assert set(S1.labels) == {"0", "^", "a", "b"}
    assert canonical_key(S1) == canonical_key(vee)

    S2 = truncate(two_loop, 2)
    assert set(S2.labels) == {"0", "^", "a", "b", "aa", "ab", "ba", "bb"}
    # prefix order: longer words sit lower
    assert S2.leq(by_label(S2, "aa"), by_label(S2, "a"))
    assert S2.meet(by_label(S2, "a"), by_label(S2, "aa")) == by_label(S2, "aa")
    assert S2.meet(by_label(S2, "aa"), by_label(S2, "ab")) == S2.zero
    assert S2.meet(by_label(S2, "aa"), by_label(S2, "b")) == S2.zero


def test_truncate_single_edge_is_three_chain(single_edge, chain3):
    S = truncate(single_edge, 1)
    assert len(S) == 3
    assert canonical_key(S) == canonical_key(chain3)


def test_multichar_edge_ids_join_with_dots():
    G = RootedGraph(("t",), (("e1", "t", "t"), ("e2", "t", "t")), "t")
    S = truncate(G, 2)
    assert "e1.e2" in S.labels
    assert "e1" in S.labels


def test_level(two_loop):
    S = truncate(two_loop, 2)
    assert level(S, S.one) == 1
    assert level(S, by_label(S, "a")) == 2
    assert level(S, by_label(S, "aa")) == 3
    assert level(S, S.zero) == math.inf


def test_level_strictly_decreases_upward(two_loop):
    for depth in (1, 2, 3):
        S = truncate(two_loop, depth)
        for e in S.nonzero():
            for f in S.nonzero():
                if e != f and S.leq(f, e):
                    assert level(S, f) > level(S, e)


def test_equal_levels_are_orthogonal_or_equal(two_loop):
    for depth in (1, 2, 3):
        S = truncate(two_loop, depth)
        for e in S.nonzero():
            for f in S.nonzero():
                if level(S, e) == level(S, f) and e != f:
                    assert S.meet(e, f) == S.zero


def test_unambiguous(two_loop, single_edge):
    # non-orthogonal elements are comparable in a path semilattice
    for G in (two_loop, single_edge):
        for depth in (1, 2, 3):
            S = truncate(G, depth)
            for e in S.nonzero():
                for f in S.nonzero():
                    if S.meet(e, f) != S.zero:
                        assert S.leq(e, f) or S.leq(f, e)


def test_covers_hat(two_loop, chain3):
    S = truncate(two_loop, 2)
    assert covers_hat(S, S.one) == frozenset(
        {by_label(S, "a"), by_label(S, "b")})
    assert covers_hat(S, by_label(S, "aa")) == frozenset({S.zero})
    assert covers_hat(chain3, chain3.one) == frozenset({chain3.index("a")})
    with pytest.raises(ZeroElementError):
        covers_hat(S, S.zero)


def test_sibling_cover_witness_fixtures(two_loop):
    S = truncate(two_loop, 2)
    root, a, aa = S.one, by_label(S, "a"), by_label(S, "aa")
    assert [S.labels[w] for w in sibling_cover_witness(S, root, aa)] == ["b", "ab"]
    assert [S.labels[w] for w in sibling_cover_witness(S, a, aa)] == ["ab"]
    assert [S.labels[w] for w in sibling_cover_witness(S, root, a)] == ["b"]


def test_sibling_cover_witness_validates(two_loop):
    # the constructive witness satisfies the trapping semantics
    for depth in (1, 2, 3):
        S = truncate(two_loop, depth)
        for e in S.nonzero():
            for f in S.nonzero():
                if e == f or not S.leq(f, e) or level(S, f) > depth:
                    continue  # strict pairs away from the frontier
                W = sibling_cover_witness(S, e, f)
                region = (down(S, [e]) & star(S, f)) - {S.zero}
                assert set(W) <= region
                assert arrow(S, e, list(W) + [f])


# covers_hat, the order line of to_text, sibling_cover_witness on every
# strict non-zero pair and sibling_cover_witnesses of each e, against the
# table scans, through the registry in test_oracles.py.  Truncations number
# parents first, so the cover kernel's climb is at most one step on them;
# each instance is also checked under shuffled indices.

@pytest.mark.parametrize("graph, depths", [
    ("two-loop", range(1, 8)),
    ("three-loop", range(1, 5)),
    ("one-loop", range(1, 41)),
], ids=["two-loop", "three-loop", "one-loop"])
def test_sibling_cover_witness_matches_all_covers_oracle(graph, depths, request):
    drive(request, *(corpus.truncation(graph, depth) for depth in depths))


def test_sibling_cover_witness_matches_oracle_off_chains(request):
    # catalog intervals need not be chains: both routes refuse the same pairs
    drive(request, *corpus.catalog(6))


def test_sibling_cover_witness_bad_pairs(two_loop):
    S = truncate(two_loop, 2)
    with pytest.raises(ZeroElementError):
        sibling_cover_witnesses(S, S.zero)
    a = by_label(S, "a")
    with pytest.raises(BadPairError):
        sibling_cover_witness(S, a, a)
    with pytest.raises(BadPairError):
        sibling_cover_witness(S, a, S.one)
    with pytest.raises(BadPairError):
        sibling_cover_witness(S, a, S.zero)


def test_truncation_hausdorff_witness(two_loop):
    S = truncate(two_loop, 2)
    space = build_space(S)
    F_aa = principal_filter(S, by_label(S, "aa"))
    F_ab = principal_filter(S, by_label(S, "ab"))
    e, f = hausdorff_witness(space, F_aa, F_ab)
    assert (S.labels[e], S.labels[f]) == ("aa", "ab")


def test_truncation_sizes(two_loop):
    # two loops: 2^0 + ... + 2^d non-zero paths plus zero
    for d in (1, 2, 3, 4):
        S = truncate(two_loop, d)
        assert len(S) == sum(2 ** k for k in range(d + 1)) + 1


def test_truncate_stops_once_no_path_grows(single_edge):
    # the frontier empties after one level, so a huge depth costs nothing
    assert truncate(single_edge, 10 ** 9) == truncate(single_edge, 1)


def test_truncate_refuses_more_than_max_elements(two_loop):
    assert len(truncate(two_loop, 10)) == MAX_ELEMENTS == 2048
    with pytest.raises(TooLargeError, match="^truncations are built for up to 2048 elements, "
                                            "depth 11 already has 4096$"):
        truncate(two_loop, 11)
    with pytest.raises(TooLargeError, match="depth 7 already has 3281$"):
        truncate(THREE_LOOP, 10 ** 9)


@st.composite
def rooted_graphs(draw) -> RootedGraph:
    """1-3 vertices, up to four edges with loops, parallel edges and
    single- and multi-character ids; not every draw is rooted."""
    vertices = ("r", "s", "t")[:draw(st.integers(1, 3))]
    ids = draw(st.lists(st.sampled_from(("a", "b", "c", "e1", "e2", "xy")), max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    return RootedGraph(vertices, tuple((eid, draw(ends), draw(ends)) for eid in ids), vertices[0])


@settings(max_examples=300, deadline=None)
@given(rooted_graphs())
def test_to_text_round_trips_on_random_graphs(G):
    assert parse_rooted_graph(G.to_text()) == G


@settings(max_examples=300, deadline=None)
@given(rooted_graphs())
def test_root_distances_are_shortest_backward_paths(G):
    dist = root_distances(G)
    assert unreachable_vertices(G) == pathlat_oracle.unreachable_vertices(G)
    assert sorted(dist) == sorted(set(G.vertices) - set(unreachable_vertices(G)))
    assert dist[G.root] == 0
    for _, src, tgt in G.edges:
        if tgt in dist:  # an edge shortens no distance by more than one step
            assert dist[src] <= dist[tgt] + 1
    for v, d in dist.items():  # and each distance is met by some edge
        assert v == G.root or any(d == dist.get(tgt, -2) + 1 for _, src, tgt in G.edges if src == v)


@settings(max_examples=300, deadline=None)
@given(rooted_graphs(), st.integers(1, 4))
def test_graph_criterion_matches_truncation_past_every_distance(G, extra):
    # Once the depth exceeds every vertex's distance to the root, the
    # in-degree criterion is the truncation's 0-disjunctivity.
    assume(validate_rooted(G))
    depth = max(root_distances(G).values()) + extra
    assert zero_disjunctive_graph(G) == is_zero_disjunctive(truncate(G, depth))


def test_unreachable_vertices_is_linear_in_the_edges():
    # A chain of 3000 vertices into the root: the old search rescanned all
    # edges per vertex, about nine million steps.  Count edge reads instead.
    n = 3000
    vertices = tuple(f"v{i}" for i in range(n))

    class CountingEdges(tuple):
        reads = 0

        def __iter__(self):
            for edge in tuple.__iter__(self):
                CountingEdges.reads += 1
                yield edge

    edges = CountingEdges((f"e{i}", vertices[i + 1], vertices[i]) for i in range(n - 1))
    G = RootedGraph(vertices, edges, "v0")
    CountingEdges.reads = 0
    assert unreachable_vertices(G) == []
    assert root_distances(G)[vertices[-1]] == n - 1
    assert CountingEdges.reads <= 2 * len(edges)


@settings(max_examples=300, deadline=None)
@given(rooted_graphs(), st.integers(1, 4))
def test_truncate_matches_prefix_compare_oracle(G, depth):
    assume(validate_rooted(G))
    S = truncate(G, depth)
    assert S == pathlat_oracle.truncate(G, depth)
    assert_rows_match_validated_rebuild(S)


@pytest.mark.parametrize("graph, depths", [
    ("two-loop", range(1, 9)),
    ("three-loop", range(1, 6)),
], ids=["two-loop", "three-loop"])
def test_loop_truncations_match_prefix_compare_oracle(graph, depths, request):
    drive(request, *((corpus.GRAPHS[graph], depth) for depth in depths))
    for depth in depths:
        assert_rows_match_validated_rebuild(corpus.truncation(graph, depth))


@pytest.mark.parametrize("path", BENCH_GRAPHS, ids=lambda p: p.stem)
def test_graph_cli_output_matches_oracle_truncation(path, monkeypatch, capsys):
    for depth in range(1, 7):
        argv = ["graph", str(path), "--depth", str(depth)]
        assert main(argv) == 0
        got = capsys.readouterr()
        with monkeypatch.context() as patched:
            patched.setattr(pathlat, "truncate", pathlat_oracle.truncate)
            assert main(argv) == 0
        assert capsys.readouterr() == got
