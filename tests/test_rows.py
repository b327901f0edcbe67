"""The bitmask rows against the table scans they replaced.

Validation checks the O(n^2) row law down[meet(e, f)] == down[e] & down[f]
in place of the cubic associativity loop; the property test holds it to
that loop on random idempotent, commutative, bounded tables.  Every order
primitive that reads the rows is compared with its scan in
order_oracle.py on the catalog up to 7 elements, 30 seeded random
instances of size 10 and two graph truncations.  Truncations and the
one-atom extensions of catalog enumeration skip validation and bring
their own down rows; all three rows of each are held to the validated
rebuild of its table, and the meet table derived from its rows to the
table its builder filled before it built rows only, kept as an oracle,
also under a relabeling.  Classifying a truncation reads the rows
alone and derives no table.
"""

from __future__ import annotations

import ast
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalog_oracle
import order_oracle as oracle
import pathlat_oracle
from conftest import assert_rows_match_validated_rebuild, bench_truncation_inputs, relabeled
from slat import classify, core, filters, pathlat, stone
from slat.catalog import CatalogSpec, _admissible_up_sets, _sizes, _with_atom, enumerate_catalog
from slat.core import Semilattice
from slat.errors import InvalidSemilatticeError, NotSubsetError
from slat.pathlat import RootedGraph, truncate

SMALL_CATALOG = list(enumerate_catalog(CatalogSpec(max_size=7)))

TWO_LOOP = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")
THREE_LOOP = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t"), ("c", "t", "t")), "t")
ONE_LOOP = RootedGraph(("t",), (("a", "t", "t"),), "t")


def _instances():
    yield from SMALL_CATALOG
    yield from enumerate_catalog(CatalogSpec(max_size=10, mode="random", sample_count=30, seed=4))
    yield truncate(TWO_LOOP, 4)
    yield truncate(THREE_LOOP, 3)


INSTANCES = list(_instances())


def _table_labels(n: int) -> tuple[str, ...]:
    return ("0",) + tuple("abcde"[: n - 2]) + ("1",)


@st.composite
def bounded_tables(draw):
    """Idempotent, commutative tables with 0 absorbing and n-1 neutral.

    The interior entries are either drawn freely or copied from a catalog
    instance with at most one pair redrawn, so that lawful and unlawful
    tables both turn up.
    """
    if draw(st.booleans()):
        S = draw(st.sampled_from(SMALL_CATALOG))
        n, fixed = len(S), S.meet_table
    else:
        n, fixed = draw(st.integers(2, 7)), None
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = t[i][n - 1] = t[n - 1][i] = i
    interior = list(itertools.combinations(range(1, n - 1), 2))
    redrawn = draw(st.sampled_from(interior)) if fixed and interior and draw(st.booleans()) else None
    for i, j in interior:
        if fixed and (i, j) != redrawn:
            v = fixed[i][j]
        else:
            v = draw(st.integers(0, n - 1))
        t[i][j] = t[j][i] = v
    return _table_labels(n), tuple(map(tuple, t))


@settings(max_examples=400, deadline=None)
@given(bounded_tables())
def test_row_law_accepts_exactly_the_associative_tables(case):
    labels, t = case
    n = len(t)
    expected = oracle.associativity_violation(t)
    try:
        Semilattice(labels, t, zero=0, one=n - 1)
    except InvalidSemilatticeError as exc:
        assert expected is not None, exc
        message = str(exc)
        assert message.startswith("meet not associative at ")
        a, b, c = (labels.index(lab) for lab in ast.literal_eval(message.split(" at ", 1)[1]))
        assert t[t[a][b]][c] != t[a][t[b][c]], message
    else:
        assert expected is None


def test_rows_of_the_vee(vee):
    a, b = vee.index("a"), vee.index("b")
    bit = {e: 1 << e for e in vee.elements()}
    assert vee.down[a] == bit[vee.zero] | bit[a]
    assert vee.up[a] == bit[a] | bit[vee.one]
    assert vee.star[a] == bit[vee.zero] | bit[b]
    # The down rows are the stored order and take part in equality; up and
    # star are derived from them and stay out of it.  No row is in the repr.
    assert "down" not in repr(vee)
    assert vee == Semilattice(vee.labels, vee.meet_table, vee.zero, vee.one)
    assert vee != Semilattice._from_rows(vee.labels, vee.zero, vee.one,
                                         vee.down[:a] + (bit[a],) + vee.down[a + 1:])


def _subsets(rng: random.Random, S: Semilattice, k: int) -> list[list[int]]:
    es = list(S.elements())
    return [rng.sample(es, rng.randint(0, min(3, len(es)))) for _ in range(k)]


@pytest.mark.parametrize("S", INSTANCES, ids=lambda S: f"n{len(S)}")
def test_order_primitives_match_scans(S):
    rng = random.Random(len(S))
    for e in S.elements():
        assert core.star(S, e) == oracle.star(S, e)
        assert core.up(S, {e}) == oracle.up(S, {e})
        assert core.down(S, {e}) == oracle.down(S, {e})
        assert pathlat.level(S, e) == oracle.level(S, e)
        if e != S.zero:
            assert pathlat.covers_hat(S, e) == oracle.covers_hat(S, e)
    assert list(core.nonzero_pairs_below(S)) == oracle.nonzero_pairs_below(S)
    covers = " ".join(f"{S.labels[x]}<{S.labels[y]}" for x, y in oracle.covering_pairs(S))
    assert S.to_text().splitlines()[1] == "order: " + covers

    families = _subsets(rng, S, 40)
    for X in families:
        assert core.up(S, X) == oracle.up(S, X)
        assert core.down(S, X) == oracle.down(S, X)
        for f in rng.sample(S.nonzero(), min(4, len(S) - 1)):
            assert core.arrow(S, f, X) == oracle.arrow(S, f, X)
    for X, Y in zip(families, reversed(families)):
        target = core.constrained_set(S, X, Y)
        assert target == oracle.constrained_set(S, X, Y)
        for Z in (sorted(target), rng.sample(sorted(target), len(target) // 2), X):
            want = oracle.is_cover(S, Z, X, Y)
            if want is None:
                with pytest.raises(NotSubsetError):
                    core.is_cover(S, Z, X, Y)
            else:
                assert core.is_cover(S, Z, X, Y) == want


@pytest.mark.parametrize("S", INSTANCES, ids=lambda S: f"n{len(S)}")
def test_filter_and_classification_checks_match_scans(S):
    rng = random.Random(len(S))
    if len(S) <= 6:
        carriers = [frozenset(c) for r in range(len(S) + 1)
                    for c in itertools.combinations(S.elements(), r)]
    else:
        carriers = [frozenset(X) for X in _subsets(rng, S, 60)]
    for A in carriers:
        assert filters.is_filter(S, A) == oracle.is_filter(S, A)
    for F in filters.enumerate_filters(S):
        assert oracle.is_filter(S, F.carrier)
        assert filters.is_ultrafilter(S, F) == oracle.is_ultrafilter(S, F.carrier)
    for e in S.nonzero():
        assert filters.extend_to_ultrafilter(S, e).carrier == oracle.extend_to_ultrafilter(S, e)
    assert classify.meet_separation(S) == oracle.meet_separation(S)
    assert classify.is_zero_disjunctive(S) == oracle.is_zero_disjunctive(S)


@pytest.mark.parametrize("S", INSTANCES[:len(SMALL_CATALOG) + 10], ids=lambda S: f"n{len(S)}")
def test_opens_match_all_unions_of_base_sets(S):
    for T in (S, relabeled(S, random.Random(len(S)))):
        space = stone.build_space(T)
        distinct = sorted(set(space.base), key=lambda ps: (len(ps), tuple(sorted(ps))))
        unions = {frozenset().union(*combo)
                  for r in range(len(distinct) + 1)
                  for combo in itertools.combinations(distinct, r)}
        assert stone.opens(space) == sorted(unions, key=lambda ps: (len(ps), tuple(sorted(ps))))


def _assert_table_derived_as(S: Semilattice, table, rng: random.Random) -> None:
    """S, built from rows, derives the given table on first read, and so
    does the instance built from the rows of S relabeled."""
    assert "meet_table" not in vars(S)
    assert S.meet_table == table
    T = relabeled(S, rng)
    R = Semilattice._from_rows(T.labels, T.zero, T.one, T.down)
    assert "meet_table" not in vars(R)
    assert R.meet_table == T.meet_table


def test_depth_nine_truncation_validates():
    S = truncate(TWO_LOOP, 9)
    _assert_table_derived_as(S, pathlat_oracle.ancestor_chain_table(TWO_LOOP, 9), random.Random(9))
    assert_rows_match_validated_rebuild(S)
    assert len(S) == 1024
    assert pathlat.level(S, S.index("abababab")) == 9
    assert len(pathlat.covers_hat(S, S.one)) == 2


def _truncations(inputs):
    for G, depth in inputs:
        yield truncate(G, depth), pathlat_oracle.ancestor_chain_table(G, depth)


def _one_atom_candidates(max_size: int):
    """Every one-atom extension that enumeration tries, of sizes 3 to
    max_size, with the table the catalog patched for it."""
    for classes in _sizes(max_size - 1):
        for P in classes:
            for U in _admissible_up_sets(P):
                yield _with_atom(P, U), catalog_oracle.with_atom_table(P, U)


@pytest.mark.parametrize("build, count", [
    (lambda: _truncations([(TWO_LOOP, 10)]), 1),
    (lambda: _truncations([(THREE_LOOP, 6)]), 1),
    (lambda: _truncations((ONE_LOOP, depth) for depth in (*range(1, 65), 128, 255, 256)), 67),
    (lambda: _one_atom_candidates(9), 3555),
    (lambda: _truncations(bench_truncation_inputs()), 11),
], ids=["two-loop-10", "three-loop-6", "one-loop-to-256", "one-atom-3-9", "bench-truncations"])
def test_rows_built_instances_match_the_validated_rebuild(build, count):
    # Truncations and one-atom extensions skip validation and pass their
    # own down rows.  Equality compares the down rows but not up and star,
    # and the meet table is derived from the rows, so each is held to its
    # own check.  Two-loop depth 9 is checked with the other depth-nine
    # assertions above.
    rng = random.Random(count)
    built = 0
    for S, table in build():
        _assert_table_derived_as(S, table, rng)
        assert_rows_match_validated_rebuild(S)
        built += 1
    assert built == count


def test_classifying_a_truncation_derives_no_table():
    S = truncate(THREE_LOOP, 4)
    classify.is_compactable_finite(S)
    pathlat.sibling_cover_witnesses(S, S.one)
    stone.build_space(S)
    assert "meet_table" not in vars(S)


def test_a_truncation_keeps_no_table():
    tracemalloc.start()
    try:
        S = truncate(TWO_LOOP, 9)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(S) == 1024
    assert kept < 2 * 2 ** 20
