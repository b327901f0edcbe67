"""Order core: construction, parsing, star/up/down, covers, refinement."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idx, labels
from slat.catalog import CatalogSpec, enumerate_catalog
from slat.core import (
    Semilattice,
    _members,
    arrow,
    constrained_set,
    down,
    is_cover,
    nonzero_pairs_below,
    parse_semilattice,
    star,
    up,
)
from slat.errors import (
    BadIndexError,
    CycleError,
    FormatError,
    InvalidSemilatticeError,
    NoBoundError,
    NoMeetError,
    NotSubsetError,
    ZeroSourceError,
)
from slat.stone import filterspace_nbhd

VEE_TEXT = """
# two atoms under a common top
elements: 0 a b 1
order: 0<a 0<b a<1 b<1
"""


def test_chain_meets_are_minima(chain3):
    a, one = idx(chain3, "a"), chain3.one
    assert chain3.meet(a, one) == a
    assert chain3.leq(a, one)
    assert not chain3.leq(one, a)


def test_vee_meet_of_atoms_is_zero(vee):
    assert vee.meet(idx(vee, "a"), idx(vee, "b")) == vee.zero
    assert not vee.leq(idx(vee, "a"), idx(vee, "b"))


def test_bottom_below_everything(vee):
    assert all(vee.leq(vee.zero, e) for e in vee.elements())
    assert all(vee.leq(e, vee.one) for e in vee.elements())


def test_meet_all_empty_family_is_one(vee):
    assert vee.meet_all([]) == vee.one
    assert vee.meet_all([idx(vee, "a"), idx(vee, "b")]) == vee.zero


def test_meet_laws_hold_on_fixtures(vee, chain4, bool2):
    for S in (vee, chain4, bool2):
        es = list(S.elements())
        for x, y, z in itertools.product(es, repeat=3):
            assert S.meet(x, y) == S.meet(y, x)
            assert S.meet(x, S.meet(y, z)) == S.meet(S.meet(x, y), z)
        for x in es:
            assert S.meet(x, x) == x
            assert S.meet(x, S.zero) == S.zero
            assert S.meet(x, S.one) == x


def test_invalid_table_rejected():
    # meet(a, b) = 1 is not a lower bound: fails idempotence-compatible laws
    with pytest.raises(InvalidSemilatticeError):
        Semilattice(
            labels=("0", "a", "b", "1"),
            meet_table=(
                (0, 0, 0, 0),
                (0, 1, 3, 1),
                (0, 3, 2, 2),
                (0, 1, 2, 3),
            ),
            zero=0,
            one=3,
        )


def test_non_commutative_table_rejected():
    with pytest.raises(InvalidSemilatticeError):
        Semilattice(
            labels=("0", "1"),
            meet_table=((0, 0), (1, 1)),
            zero=0,
            one=1,
        )


def test_from_order_rejects_cycles():
    with pytest.raises(CycleError):
        Semilattice.from_order(("x", "y"), (("x", "y"), ("y", "x")))


def test_from_order_requires_top():
    # meets all exist (0 is the glb of the atoms) but there is no maximum
    with pytest.raises(NoBoundError):
        Semilattice.from_order(("0", "a", "b"), (("0", "a"), ("0", "b")))


def test_from_order_requires_meets():
    # two incomparable elements share no lower bound at all
    with pytest.raises(NoMeetError):
        Semilattice.from_order(("x", "y"), ())
    # two maximal over two minimal: (c, d) has lower bounds a, b but no
    # greatest one
    with pytest.raises(NoMeetError):
        Semilattice.from_order(
            ("0", "a", "b", "c", "d", "1"),
            (
                ("0", "a"), ("0", "b"),
                ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                ("c", "1"), ("d", "1"),
            ),
        )


def test_parse_round_trip(vee, chain3, chain4, bool1):
    for S in (vee, chain3, chain4, bool1):
        assert parse_semilattice(S.to_text()) == S


def test_parse_vee_matches_from_order(vee):
    assert parse_semilattice(VEE_TEXT) == vee


def test_parse_meet_override():
    text = """
    elements: 0 x y 1
    order: 0<x 0<y x<1 y<1
    meet: x y = 0
    """
    S = parse_semilattice(text)
    assert S.meet(S.index("x"), S.index("y")) == S.zero


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_semilattice("order: a<b")  # no elements line
    with pytest.raises(FormatError):
        parse_semilattice("elements: a a\norder: ")
    with pytest.raises(FormatError):
        parse_semilattice("elements: a b\norder: a<c")
    with pytest.raises(FormatError):
        parse_semilattice("elements: a<b c\norder: ")


def test_star(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    assert labels(vee, star(vee, a)) == {"0", "b"}
    assert labels(vee, star(vee, one)) == {"0"}
    assert star(vee, vee.zero) == frozenset(vee.elements())
    assert star(vee, b) == frozenset({vee.zero, a})


def test_up_down(vee):
    a = idx(vee, "a")
    assert labels(vee, up(vee, [a])) == {"a", "1"}
    assert labels(vee, down(vee, [a])) == {"0", "a"}
    assert up(vee, []) == frozenset()
    assert down(vee, []) == frozenset()


def test_constrained_set(vee):
    a, one = idx(vee, "a"), vee.one
    assert labels(vee, constrained_set(vee, [one], [a])) == {"0", "b"}
    assert labels(vee, constrained_set(vee, [a], [])) == {"0", "a"}
    assert constrained_set(vee, [a], [a]) == frozenset({vee.zero})


def test_is_cover(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    assert is_cover(vee, [a, b], [one], [])
    assert not is_cover(vee, [a], [one], [])  # b meets nothing in {a}
    assert is_cover(vee, [], [a], [a])  # constrained set is {0}: vacuous
    with pytest.raises(NotSubsetError):
        is_cover(vee, [one], [a], [])  # 1 is not below a


def test_arrow(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    assert arrow(vee, one, [a, b])
    assert not arrow(vee, one, [a])  # x = b misses
    assert arrow(vee, a, [a])
    assert not arrow(vee, a, [])  # nothing refines into an empty family
    with pytest.raises(ZeroSourceError):
        arrow(vee, vee.zero, [a])


def test_arrow_monotone_in_family(vee):
    es = list(vee.elements())
    for f in vee.nonzero():
        for r in range(len(es) + 1):
            for fam in itertools.combinations(es, r):
                if arrow(vee, f, fam):
                    assert arrow(vee, f, fam + (vee.one,))


# Each public route that takes element indices, once with the bad index
# i in each of its index arguments, beside valid elements.
BAD_INDEX_CALLS = {
    "star": (lambda S, i: star(S, i),),
    "up": (lambda S, i: up(S, [S.zero, i]),),
    "down": (lambda S, i: down(S, (x for x in (S.one, i))),),
    "constrained_set": (lambda S, i: constrained_set(S, [S.one, i], []),
                        lambda S, i: constrained_set(S, [], [S.zero, i])),
    "is_cover": (lambda S, i: is_cover(S, [i], [S.one], []),
                 lambda S, i: is_cover(S, [], [i], []),
                 lambda S, i: is_cover(S, [], [S.one], [S.zero, i])),
    "arrow": (lambda S, i: arrow(S, i, [S.one]),
              lambda S, i: arrow(S, S.one, [S.zero, i])),
    "filterspace_nbhd": (lambda S, i: filterspace_nbhd(S, i, []),
                         lambda S, i: filterspace_nbhd(S, S.one, [S.zero, i])),
}


@pytest.mark.parametrize("end", ["negative", "past-the-end"])
@pytest.mark.parametrize("route", BAD_INDEX_CALLS)
def test_bad_index_is_refused(route, end, vee):
    # -1 is refused, not read as the last element, the top here
    i = -1 if end == "negative" else len(vee)
    for call in BAD_INDEX_CALLS[route]:
        with pytest.raises(BadIndexError, match=rf"^no element has index {i}: indices run from 0 to 3$") as refused:
            call(vee, i)
        # callers that caught the bare IndexError of a lookup past the end still do
        assert isinstance(refused.value, IndexError)


def test_nonzero_pairs_below(chain4):
    pairs = {
        (chain4.labels[e], chain4.labels[f])
        for e, f in nonzero_pairs_below(chain4)
    }
    assert pairs == {("1", "a"), ("1", "b"), ("b", "a")}


def test_labels_reject_bad_characters():
    for bad in ("a b", "x<y", "u#v", "p=q", ""):
        with pytest.raises(FormatError):
            Semilattice.from_order(("0", bad, "1"), (("0", bad), (bad, "1")))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_random_down_sets_give_semilattices(n, data):
    # random transitive order on 0..n-1 plus forced bounds; glb closure
    # either builds a lawful table or raises one of the declared errors
    names = tuple("e%d" % i for i in range(n))
    pool = [(names[i], names[j]) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    try:
        S = Semilattice.from_order(names, chosen)
    except (CycleError, NoBoundError, NoMeetError, InvalidSemilatticeError):
        return
    for x in S.elements():
        assert S.meet(x, S.one) == x
        assert S.meet(x, S.zero) == S.zero


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
def test_to_text_round_trips_on_random_lattices(n, seed):
    S, = enumerate_catalog(CatalogSpec(max_size=n, mode="random", sample_count=1, seed=seed))
    assert parse_semilattice(S.to_text()) == S


def test_members_matches_bit_scan():
    rng = random.Random(11)
    masks = [0, 1, 1 << 2047, (1 << 2048) - 1]
    for width in (9, 64, 2048):
        for k in (1, 7, 8, 9, 40):
            if k <= width:  # the top bit set, so each mask is width bits long
                masks += [1 << width - 1 | sum(1 << b for b in rng.sample(range(width - 1), k - 1))
                          for _ in range(10)]
    assert {m.bit_count() for m in masks} >= {0, 7, 8, 9, 2048}
    for m in masks:
        assert _members(m) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_derived_values_leave_equality_hash_and_repr_alone(vee):
    fresh = Semilattice(vee.labels, vee.meet_table, vee.zero, vee.one)
    twin = Semilattice(vee.labels, vee.meet_table, vee.zero, vee.one)
    before = hash(twin)
    assert twin.filter_generators
    assert "filter_generators" in vars(twin)
    assert "filter_generators" not in vars(fresh)
    assert twin == fresh and fresh == twin
    assert hash(twin) == hash(fresh) == before
    assert repr(twin) == repr(fresh)
    assert {twin: "kept"}[fresh] == "kept"
    assert "filter_generators" not in {f.name for f in dataclasses.fields(Semilattice)}
