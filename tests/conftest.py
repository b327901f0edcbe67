"""Shared fixtures: the small semilattices and graphs every module
exercises, and the instance sets that fast routes are held to oracles on."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from slat import classify, stone
from slat.catalog import CatalogSpec, enumerate_catalog
from slat.core import Semilattice
from slat.pathlat import RootedGraph, parse_rooted_graph, truncate

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def catalog_instances() -> list[Semilattice]:
    """Every isomorphism class of at most seven elements."""
    return list(enumerate_catalog(CatalogSpec(max_size=7)))


def relabeled(S: Semilattice, rng: random.Random) -> Semilattice:
    """S with its element indices shuffled, so that index order need not
    extend the order of S."""
    new = list(S.elements())
    rng.shuffle(new)
    old = sorted(S.elements(), key=new.__getitem__)
    return Semilattice(tuple(S.labels[i] for i in old),
                       tuple(tuple(new[S.meet(i, j)] for j in old) for i in old),
                       new[S.zero], new[S.one])


def assert_rows_match_validated_rebuild(S: Semilattice) -> None:
    """S equals the validated construction from its own table, and so do
    its down, up and star rows, which equality ignores."""
    T = Semilattice(S.labels, S.meet_table, S.zero, S.one)
    assert S == T
    assert (S.down, S.up, S.star) == (T.down, T.up, T.star)


def random_instances() -> list[Semilattice]:
    """Seeded random instances, three each of sizes 8 to 12, each also
    under a seeded relabeling."""
    rng = random.Random(8)
    return [T for n in range(8, 13)
            for S in enumerate_catalog(CatalogSpec(max_size=n, mode="random", sample_count=3, seed=n))
            for T in (S, relabeled(S, rng))]


def bench_truncation_inputs() -> list[tuple[RootedGraph, int]]:
    """The graphs and depths of the truncations the path-space benchmark
    builds: the two-loop graph at depths 1 to 7 and the three-loop graph
    at depths 1 to 4."""
    out = []
    for name, depths in (("two-loop", range(1, 8)), ("three-loop", range(1, 5))):
        G = parse_rooted_graph((BENCH_INPUTS / f"{name}.txt").read_text(encoding="utf-8"))
        out += [(G, depth) for depth in depths]
    return out


def bench_truncations() -> list[Semilattice]:
    """The truncations the path-space benchmark builds."""
    return [truncate(G, depth) for G, depth in bench_truncation_inputs()]


INSTANCE_SETS = {"catalog-7": catalog_instances, "random-8-12": random_instances,
                 "bench-truncations": bench_truncations}


@pytest.fixture
def vee() -> Semilattice:
    # two atoms under a common top, meet(a, b) = 0
    return Semilattice.from_order(
        ("0", "a", "b", "1"),
        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    )


@pytest.fixture
def chain3() -> Semilattice:
    return Semilattice.from_order(("0", "a", "1"), (("0", "a"), ("a", "1")))


@pytest.fixture
def chain4() -> Semilattice:
    return Semilattice.from_order(
        ("0", "a", "b", "1"), (("0", "a"), ("a", "b"), ("b", "1"))
    )


@pytest.fixture
def bool1() -> Semilattice:
    # the two-element semilattice {0, 1}
    return Semilattice.from_order(("0", "1"), (("0", "1"),))


@pytest.fixture
def bool2() -> Semilattice:
    # powerset of a two-element set, ordered by inclusion
    return Semilattice.from_order(
        ("0", "p", "q", "1"),
        (("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")),
    )


@pytest.fixture
def two_loop() -> RootedGraph:
    # one vertex, two loops: backward paths are all words over {a, b}
    return RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")


@pytest.fixture
def single_edge() -> RootedGraph:
    return RootedGraph(("r", "s"), (("a", "s", "r"),), "r")


@pytest.fixture
def lose_a_tight_filter(monkeypatch):
    """Fault injection: classification sees every tight filter but the first."""
    tight_filters = classify.tight_filters
    monkeypatch.setattr(classify, "tight_filters", lambda S: tight_filters(S)[1:])


@pytest.fixture
def lose_an_ultrafilter(monkeypatch):
    """Fault injection: the ultrafilter space misses its first point."""
    enumerate_ultrafilters = stone.enumerate_ultrafilters
    monkeypatch.setattr(stone, "enumerate_ultrafilters", lambda S: enumerate_ultrafilters(S)[1:])


@pytest.fixture
def blind_zero_disjunctive(monkeypatch):
    """Fault injection: every constrained set comes back as {0}, so no
    instance with a strict non-zero pair looks 0-disjunctive."""
    monkeypatch.setattr(classify, "constrained_set", lambda S, X, Y: frozenset({S.zero}))


@pytest.fixture
def untrap_every_pair(monkeypatch):
    """Fault injection: the refinement relation never holds, so every
    strict non-zero pair looks untrapped."""
    monkeypatch.setattr(classify, "arrow", lambda S, f, es: False)


def idx(S: Semilattice, label: str) -> int:
    return S.index(label)


def labels(S: Semilattice, xs) -> frozenset:
    return frozenset(S.labels[i] for i in xs)
