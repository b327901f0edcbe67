"""Classification: 0-disjunctive, separative, meet separation, trapping."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

import corpus
from conftest import idx
from slat.classify import (
    is_compactable_finite,
    is_separative,
    is_zero_disjunctive,
    meet_separation,
    satisfies_trapping,
    trapping_witness,
)
from slat.core import arrow, down, nonzero_pairs_below, star
from slat.errors import BadPairError, TheoremViolationError
from slat.pathlat import truncate
from test_oracles import OWNED_TESTS


def test_zero_disjunctive_fixtures(vee, chain3, bool1):
    assert is_zero_disjunctive(vee)
    assert not is_zero_disjunctive(chain3)
    assert is_zero_disjunctive(bool1)  # no pairs 0 != e < f: vacuous


def test_separative_fixtures(vee, chain3, bool1):
    assert is_separative(vee)
    assert not is_separative(chain3)
    assert is_separative(bool1)


def test_meet_separation_fixtures(vee, chain3, bool1):
    assert meet_separation(vee)
    assert not meet_separation(chain3)  # a and 1 meet exactly the same things
    assert meet_separation(bool1)  # g = 1 tells 0 from 1


def test_trapping_witness_vee(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    assert trapping_witness(vee, one, a) == [b]
    assert trapping_witness(vee, one, b) == [a]


def test_trapping_witness_chain3(chain3):
    assert trapping_witness(chain3, chain3.one, idx(chain3, "a")) is None


def test_trapping_witness_requires_strict_pair(vee):
    a = idx(vee, "a")
    with pytest.raises(BadPairError):
        trapping_witness(vee, a, a)
    with pytest.raises(BadPairError):
        trapping_witness(vee, a, vee.one)  # not f < e
    with pytest.raises(BadPairError):
        trapping_witness(vee, a, vee.zero)


def test_trapping_witness_semantics():
    # any witness W must sit inside down(e) ^ star(f) and refine e
    for S in corpus.catalog(6):
        for e, f in nonzero_pairs_below(S):
            W = trapping_witness(S, e, f)
            if W is None:
                continue
            region = (down(S, [e]) & star(S, f)) - {S.zero}
            assert set(W) <= region
            assert arrow(S, e, list(W) + [f])


def test_trapping_witness_complete():
    # when no witness is reported, no subset of the region works either
    for S in corpus.catalog(5):
        for e, f in nonzero_pairs_below(S):
            if trapping_witness(S, e, f) is not None:
                continue
            region = sorted((down(S, [e]) & star(S, f)) - {S.zero})
            for r in range(1, len(region) + 1):
                for W in itertools.combinations(region, r):
                    assert not arrow(S, e, list(W) + [f])


def test_satisfies_trapping_fixtures(vee, chain3, bool1):
    assert satisfies_trapping(vee)
    assert not satisfies_trapping(chain3)
    assert satisfies_trapping(bool1)


def test_equivalences_exhaustive():
    for S in corpus.catalog(6):
        zd = is_zero_disjunctive(S)
        assert is_separative(S) == zd
        assert meet_separation(S) == zd
        assert satisfies_trapping(S) == zd


def test_compactability_report(vee, chain3):
    rep = is_compactable_finite(vee)
    assert rep.booleans() == {
        "zero_disjunctive": True,
        "separative": True,
        "meet_separation": True,
        "trapping": True,
        "tight_equals_ultrafilters": True,
    }
    assert trapping_witness(vee, vee.one, idx(vee, "a")) == [idx(vee, "b")]

    rep3 = is_compactable_finite(chain3)
    bools = rep3.booleans()
    assert not bools["separative"]
    assert bools["tight_equals_ultrafilters"]
    assert trapping_witness(chain3, chain3.one, idx(chain3, "a")) is None


# Catalog instances and truncations number elements along the order, so
# the relabeled copies are the ones on which lower covers are found by
# climbing.
test_cover_pair_verdicts_match_all_pair_oracles = OWNED_TESTS["test_cover_pair_verdicts_match_all_pair_oracles"]


def test_classification_builds_no_per_pair_table():
    # Two-loop depth 8 has 512 elements and 3586 strict non-zero pairs;
    # a witness list kept per pair took 11 MiB here.
    S = truncate(corpus.TWO_LOOP, 8)
    S.filter_generators  # cached on first use, so warmed outside the count
    tracemalloc.start()
    try:
        is_compactable_finite(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_report_on_all_catalog_instances():
    # the internal cross-checks must never trip on lawful instances
    for S in corpus.catalog(6):
        rep = is_compactable_finite(S)
        assert rep.booleans()["tight_equals_ultrafilters"]


def test_tight_equals_ultra_cross_check_fires(vee, lose_a_tight_filter):
    with pytest.raises(TheoremViolationError, match="tight filters differ"):
        is_compactable_finite(vee)


@pytest.mark.parametrize("fault, reason", [
    ("blind_zero_disjunctive", "0-disjunctive=False but separative=True"),
    ("untrap_every_pair", "trapping=False but separative=True"),
])
def test_separative_cross_checks_fire(fault, reason, vee, request):
    request.getfixturevalue(fault)
    with pytest.raises(TheoremViolationError, match=f"^{reason} on a finite instance$"):
        is_compactable_finite(vee)
