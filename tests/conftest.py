"""Shared fixtures: the small semilattices and graphs every module
exercises, and fault injections into the library.

The instances that library routes are held to their oracles on, and the
loop graphs, are built once per session in corpus.py; the registry of
(library route, oracle) pairs is in test_oracles.py."""

from __future__ import annotations

import pytest

import corpus
from slat import classify, stone
from slat.core import Semilattice
from slat.pathlat import RootedGraph

def assert_rows_match_validated_rebuild(S: Semilattice) -> None:
    """S equals the validated construction from its own table, and so do
    its down, up and star rows, which equality ignores."""
    T = Semilattice(S.labels, S.meet_table, S.zero, S.one)
    assert S == T
    assert (S.down, S.up, S.star) == (T.down, T.up, T.star)


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
    return corpus.TWO_LOOP


@pytest.fixture
def single_edge() -> RootedGraph:
    return corpus.SINGLE_EDGE


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
    """Fault injection: no element lies below e orthogonal to f, so every
    trapping candidate is empty and every strict non-zero pair looks
    untrapped."""
    monkeypatch.setattr(classify, "_below_orthogonal", lambda S, m, Y: 1 << S.zero)


def idx(S: Semilattice, label: str) -> int:
    return S.index(label)


def labels(S: Semilattice, xs) -> frozenset:
    return frozenset(S.labels[i] for i in xs)
