"""The bitmask rows against the table scans they replaced.

Validation checks the O(n^2) row law down[meet(e, f)] == down[e] & down[f]
in place of the cubic associativity loop; the property test holds it to
that loop on random idempotent, commutative, bounded tables.  Every order
primitive that reads the rows, and the filter and classification checks,
are compared with their scans in order_oracle.py through the registry in
test_oracles.py, on the corpus slice "rows" and the relabeled copies,
and the opens on the slice "opens".  Truncations and the one-atom
extensions of catalog enumeration skip validation and bring
their own down rows; all three rows of each are held to the validated
rebuild of its table, and the meet table derived from its rows to the
table its builder filled before it built rows only, kept as an oracle,
also under a relabeling.  Classifying a truncation, extending its
filters to ultrafilters and separating its points read the rows alone
and derive no table.
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
import corpus
import order_oracle as oracle
import pathlat_oracle
from conftest import assert_rows_match_validated_rebuild
from corpus import ONE_LOOP, THREE_LOOP, TWO_LOOP
from slat import classify, pathlat, stone
from slat.catalog import _admissible_up_sets, _sizes, _with_atom
from slat.core import Semilattice
from slat.errors import InvalidSemilatticeError
from slat.filters import extend_to_ultrafilter
from slat.pathlat import truncate
from test_oracles import OWNED_TESTS


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
        S = draw(st.sampled_from(corpus.catalog()))
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


test_order_primitives_match_scans = OWNED_TESTS["test_order_primitives_match_scans"]
test_filter_and_classification_checks_match_scans = OWNED_TESTS["test_filter_and_classification_checks_match_scans"]
test_opens_match_all_unions_of_base_sets = OWNED_TESTS["test_opens_match_all_unions_of_base_sets"]


def _assert_table_derived_as(S: Semilattice, table, rng: random.Random) -> None:
    """S, built from rows, derives the given table on first read, and so
    does the instance built from the rows of S relabeled."""
    assert "meet_table" not in vars(S)
    assert S.meet_table == table
    T = corpus.relabeled(S, rng)
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
    (lambda: _truncations((corpus.GRAPHS[graph], depth) for graph, depth in corpus.BENCH_TRUNCATIONS), 11),
    (lambda: _truncations([(TWO_LOOP, 8), (THREE_LOOP, 5)]), 2),
], ids=["two-loop-10", "three-loop-6", "one-loop-to-256", "one-atom-3-9", "bench-truncations",
        "two-loop-8-three-loop-5"])
def test_rows_built_instances_match_the_validated_rebuild(build, count):
    # Truncations and one-atom extensions skip validation and pass their
    # own down rows.  Equality compares the down rows but not up and star,
    # and the meet table is derived from the rows, so each is held to its
    # own check.  Two-loop depth 9 is checked with the other depth-nine
    # assertions above; two-loop 8 and three-loop 5 complete the truncation
    # route's pairs, which the bench truncations stop short of.
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


def test_ultrafilter_extension_and_separation_derive_no_table():
    S = truncate(TWO_LOOP, 6)
    for e in S.nonzero():
        extend_to_ultrafilter(S, e)
    space = stone.build_space(S)
    for F, G in itertools.pairwise(space.points):
        stone.hausdorff_witness(space, F, G)
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
