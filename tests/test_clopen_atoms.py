"""The clopen algebra read off its atoms, against the listing scans.

clopen_algebra reads the atoms off each point's minimal neighbourhood,
and dense_check asks density of the atoms alone.  Both, and the clopen
listing, are compared with the scans in stone_oracle.py through the
registry in test_oracles.py, on each instance of the corpus slice
"clopens" (the catalog up to 7 elements, seeded random instances of
sizes 8 to 11 and three graph truncations) and its relabeled copy.
Every space build_space makes is discrete, so spaces built by hand, over
at most 6 points and mostly not discrete, reach the component step: a
hypothesis property holds the same routes to the same scans on them, and
a seeded run sees both verdicts.  Fault injection shows the raise site
of clopen_algebra fires, and the size guard in opens() refuses a
32-point space, while slat stone, which lists nothing there, answers.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import or_
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import stone_oracle as oracle
from corpus import TWO_LOOP
from slat import stone
from slat.cli import main
from slat.core import Semilattice
from slat.errors import TheoremViolationError, TooLargeError
from slat.filters import Filter
from slat.pathlat import truncate
from test_oracles import BY_NAME, _outcome, drive


def _hand_built(draw: Callable[[int, int], int]) -> stone.UltrafilterSpace:
    """A space whose base sets form a base, over n <= 6 points of a catalog
    semilattice, drawn with draw(lo, hi) from lo..hi.  Each point links to
    random points, or to none where the space is to be discrete, and U_p
    is all that p reaches.  n consecutive elements from a random start
    take the base sets U_p, so the base sets cover the points and hold
    every U_p; the other elements take random unions of the U_p.  The
    points are filters of n non-zero elements; only their number is read."""
    catalog = corpus.catalog()
    S = catalog[draw(0, len(catalog) - 1)]
    n = draw(1, min(6, len(S) - 1))
    linked = draw(0, 1)
    nbhd = [1 << p | draw(0, (1 << n) - 1) * linked for p in range(n)]
    for k in range(n):  # Warshall's transitive closure
        for p in range(n):
            if nbhd[p] >> k & 1:
                nbhd[p] |= nbhd[k]
    base = [reduce(or_, (U for U in nbhd if draw(0, 1)), 0) for _ in S.elements()]
    start = draw(0, len(S) - 1)
    for p, U in enumerate(nbhd):
        base[(start + p) % len(S)] = U
    return stone.UltrafilterSpace(S, tuple(Filter(S, g) for g in S.nonzero()[:n]), tuple(base))


def _assert_matches_the_scans(space: stone.UltrafilterSpace) -> None:
    """The registry's routes on a space, atoms or refusal, listing and
    density, against their oracles."""
    for name in ("clopen_algebra.atoms", "clopen_elements", "dense_check"):
        route = BY_NAME[name]
        assert _outcome(route.library, (space,)) == _outcome(route.oracle, (space,)), (name, space.base)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_clopen_algebra_matches_the_scans_on_hand_built_spaces(data):
    _assert_matches_the_scans(_hand_built(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_hand_built_spaces_see_both_verdicts():
    rng = random.Random(7)
    verdicts, dense = {True: 0, False: 0}, {True: 0, False: 0}
    merged = 0  # accepted spaces with an atom of more than one point
    for _ in range(600):
        space = _hand_built(rng.randint)
        _assert_matches_the_scans(space)
        try:
            atoms = stone.clopen_algebra(space).atoms
        except TheoremViolationError:
            verdicts[False] += 1
            continue
        verdicts[True] += 1
        merged += len(atoms) < len(space.points)
        if stone.kappa_injective(space):
            dense[stone.dense_check(space)] += 1
    assert min(verdicts.values()) > 100 and min(dense.values()) > 10 and merged > 20, (verdicts, dense, merged)


@pytest.mark.parametrize("name, i", corpus.params("clopens"))
def test_clopen_algebra_and_density_match_the_scans(name, i, request):
    drive(request, corpus.instances(name)[i], where=f"slice {name}, instance {i}")


def test_density_fails_at_an_atom_without_a_base_set(vee):
    # Built by hand, not by build_space: the zero owns point 0, so the
    # atom {0} holds no base set of a non-zero element.
    a, b = vee.index("a"), vee.index("b")
    base = [0] * 4
    base[vee.zero], base[a], base[vee.one] = 0b01, 0b10, 0b11
    space = stone.UltrafilterSpace(vee, stone.build_space(vee).points, tuple(base))
    assert stone.kappa_injective(space) and base[b] == 0
    assert stone.clopen_algebra(space).atoms == (0b01, 0b10)
    assert not stone.dense_check(space)
    assert not oracle.dense_check(space)


@pytest.fixture
def m4() -> Semilattice:
    return Semilattice.from_order(
        ("0", "a", "b", "c", "d", "1"),
        tuple(("0", x) for x in "abcd") + tuple((x, "1") for x in "abcd"))


def test_m4_clopens(m4):
    space = stone.build_space(m4)
    assert len(stone.clopen_elements(space)) == 16
    assert stone.clopen_algebra(space).atoms == tuple(1 << i for i in range(4))


def _chain_space(chain3: Semilattice) -> stone.UltrafilterSpace:
    """Fault injection: the space of both filters up(a), up(1) of 0 < a < 1.
    U_1 = K(1) = {0, 1} holds point 0, so the one atom is {0, 1}, and
    K(a) = {0} is open but not clopen."""
    a = chain3.index("a")
    base = [0] * 3
    base[a], base[chain3.one] = 0b01, 0b11
    return stone.UltrafilterSpace(chain3, (Filter(chain3, a), Filter(chain3, chain3.one)), tuple(base))


def test_non_discrete_space_breaks_a_base_set(chain3):
    space = _chain_space(chain3)
    with pytest.raises(TheoremViolationError, match="^base set of 'a' is not clopen$"):
        stone.clopen_algebra(space)
    with pytest.raises(TheoremViolationError, match="^base set of 'a' is not clopen$"):
        oracle.clopen_elements(space)


def test_stone_cli_reports_a_base_set_that_is_not_clopen(chain3, monkeypatch, tmp_path, capsys):
    path = tmp_path / "chain3.slat"
    path.write_text(chain3.to_text())
    monkeypatch.setattr(stone, "build_space", _chain_space)
    assert main(["stone", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violation: base set of 'a' is not clopen\n"


def test_opens_refuses_large_spaces():
    space = stone.build_space(truncate(TWO_LOOP, 5))
    assert len(space.points) == 32
    with pytest.raises(TooLargeError, match="^opens are listed for up to 16 points, got 32$"):
        stone.opens(space)


def test_stone_cli_size_limits(tmp_path, capsys):
    # slat stone lists no clopen past 6 points, so no size limit applies
    for depth, points in ((4, 16), (5, 32)):
        path = tmp_path / f"d{depth}.slat"
        path.write_text(truncate(TWO_LOOP, depth).to_text())
        assert main(["stone", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for expected in (f"points: {points}", f"clopens: {2 ** points}", "separative=true", "dense=true"):
            assert expected in lines
