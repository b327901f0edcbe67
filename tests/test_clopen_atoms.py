"""The clopen algebra read off its atoms, against the pairwise scans.

clopen_algebra decides that the clopens form a Boolean algebra by
counting them against their atoms, and dense_check asks density of the
atoms alone.  A hypothesis property holds the atom criterion to the
pairwise closure loop on random complement-closed families; both
library routes are compared with the scans in stone_oracle.py on the
catalog up to 7 elements, seeded random instances of sizes 8 to 11 and
three graph truncations.  Fault injection shows both raise sites of
clopen_algebra fire, and the size guard in opens() refuses a
32-point space while a 16-point one still finishes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stone_oracle as oracle
from conftest import relabeled
from slat import stone
from slat.catalog import CatalogSpec, enumerate_catalog
from slat.cli import main
from slat.core import Semilattice
from slat.errors import TheoremViolationError, TooLargeError
from slat.pathlat import RootedGraph, truncate

TWO_LOOP = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")
THREE_LOOP = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t"), ("c", "t", "t")), "t")
ONE_LOOP = RootedGraph(("t",), (("a", "t", "t"),), "t")


def _instances():
    yield from enumerate_catalog(CatalogSpec(max_size=7))
    for n in range(8, 12):
        yield from enumerate_catalog(CatalogSpec(max_size=n, mode="random", sample_count=10, seed=n))
    yield truncate(TWO_LOOP, 3)
    yield truncate(THREE_LOOP, 2)
    yield truncate(ONE_LOOP, 6)


def _complement_closed(universe: frozenset, sets) -> set[frozenset]:
    return {frozenset(), universe} | set(sets) | {universe - C for C in sets}


@st.composite
def complement_closed_families(draw):
    """A family over at most 6 points that holds {} and every complement.

    Half are drawn freely, which are seldom closed; half are all unions
    of the blocks of a random partition, with one complementary pair
    perhaps removed and one perhaps added, so both verdicts turn up.
    """
    n = draw(st.integers(0, 6))
    universe = frozenset(range(n))
    subsets = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    if draw(st.booleans()):
        return universe, _complement_closed(universe, draw(st.lists(subsets, max_size=8)))
    blocks: dict[int, set[int]] = {}
    for p in range(n):
        blocks.setdefault(draw(st.integers(0, p)), set()).add(p)
    family = {frozenset()}
    for block in blocks.values():
        family |= {C | block for C in family}
    removed = draw(subsets)
    if draw(st.booleans()) and removed not in (frozenset(), universe):
        family -= {removed, universe - removed}
    if draw(st.booleans()):
        family = _complement_closed(universe, family | {draw(subsets)})
    return universe, family


@settings(max_examples=400, deadline=None)
@given(complement_closed_families())
def test_atom_criterion_matches_pairwise_closure(case):
    universe, family = case
    atoms = stone._boolean_atoms(universe, list(family))
    assert (atoms is not None) == oracle.closed_pairwise(family)
    if atoms is not None:
        assert list(atoms) == oracle.minimal_members(family)
        assert sum(len(A) for A in atoms) == len(universe)
        assert frozenset().union(*atoms) == universe
        for C in family:
            assert C == frozenset().union(*(A for A in atoms if A <= C))


def test_atom_criterion_sees_both_verdicts():
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        universe = frozenset(range(rng.randint(1, 5)))
        sets = [frozenset(p for p in universe if rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
        family = _complement_closed(universe, sets)
        closed = oracle.closed_pairwise(family)
        assert (stone._boolean_atoms(universe, list(family)) is not None) == closed
        verdicts[closed] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


@pytest.mark.parametrize("S", list(_instances()), ids=lambda S: f"n{len(S)}")
def test_clopen_algebra_and_density_match_the_scans(S):
    for T in (S, relabeled(S, random.Random(len(S)))):
        space = stone.build_space(T)
        algebra = stone.clopen_algebra(space)
        assert algebra.elements == oracle.clopen_elements(space)
        assert list(algebra.atoms) == oracle.minimal_members(algebra.elements)
        assert stone.dense_check(space) == oracle.dense_check(space)


def test_density_fails_at_an_atom_without_a_base_set(vee):
    # Built by hand, not by build_space: the zero owns point 0, so the
    # atom {0} holds no base set of a non-zero element.
    a, b = vee.index("a"), vee.index("b")
    base = [frozenset()] * 4
    base[vee.zero], base[a], base[vee.one] = frozenset({0}), frozenset({1}), frozenset({0, 1})
    space = stone.UltrafilterSpace(vee, stone.build_space(vee).points, tuple(base))
    assert stone.kappa_injective(space) and base[b] == frozenset()
    assert stone.clopen_algebra(space).atoms == (frozenset({0}), frozenset({1}))
    assert not stone.dense_check(space)
    assert not oracle.dense_check(space)


@pytest.fixture
def m4() -> Semilattice:
    return Semilattice.from_order(
        ("0", "a", "b", "c", "d", "1"),
        tuple(("0", x) for x in "abcd") + tuple((x, "1") for x in "abcd"))


def _drop_open(monkeypatch, dropped: frozenset) -> None:
    """Fault injection: opens() loses one open set."""
    listed = stone.opens
    monkeypatch.setattr(stone, "opens", lambda space: [o for o in listed(space) if o != dropped])


def test_m4_clopens(m4):
    algebra = stone.clopen_algebra(stone.build_space(m4))
    assert len(algebra.elements) == 16
    assert algebra.atoms == tuple(frozenset({i}) for i in range(4))


def test_lost_open_breaks_closure(m4, monkeypatch):
    _drop_open(monkeypatch, frozenset({0, 1}))
    with pytest.raises(TheoremViolationError, match="^clopens not closed under set operations$"):
        stone.clopen_algebra(stone.build_space(m4))


def test_lost_universe_breaks_a_base_set(m4, monkeypatch):
    _drop_open(monkeypatch, frozenset(range(4)))
    with pytest.raises(TheoremViolationError, match="^base set of '0' is not clopen$"):
        stone.clopen_algebra(stone.build_space(m4))


def test_stone_cli_reports_broken_closure(m4, monkeypatch, tmp_path, capsys):
    path = tmp_path / "m4.slat"
    path.write_text(m4.to_text())
    _drop_open(monkeypatch, frozenset({0, 1}))
    assert main(["stone", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violation: clopens not closed under set operations\n"


def test_opens_refuses_large_spaces():
    space = stone.build_space(truncate(TWO_LOOP, 5))
    assert len(space.points) == 32
    with pytest.raises(TooLargeError, match="^opens are listed for up to 16 points, got 32$"):
        stone.opens(space)


def test_stone_cli_size_limits(tmp_path, capsys):
    for depth in (4, 5):
        (tmp_path / f"d{depth}.slat").write_text(truncate(TWO_LOOP, depth).to_text())
    assert main(["stone", str(tmp_path / "d5.slat")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: opens are listed for up to 16 points, got 32\n"

    assert main(["stone", str(tmp_path / "d4.slat")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for expected in ("points: 16", "clopens: 65536", "separative=true", "dense=true"):
        assert expected in lines

