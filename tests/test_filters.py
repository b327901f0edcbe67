"""Filters, ultrafilters, tightness.

The oracles here are written from the raw definitions: a subset scan for
filters, literal set-inclusion maximality for ultrafilters and the full
(X, Y, Z) triple enumeration for tightness.  Library answers must agree
on every catalog instance small enough to scan.  The filter listings are
compared with catalog_oracle.py through the registry in test_oracles.py,
on each corpus instance set; so is tightness, against the (pivot, Y)
subset scan and the cover test at every pivot.
"""

from __future__ import annotations

import itertools

import pytest

import corpus
from conftest import idx
from slat.core import Semilattice, constrained_set
from slat.errors import NotAFilterError, ZeroElementError
from slat.filters import (
    Filter,
    enumerate_filters,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    is_filter,
    is_tight,
    is_ultrafilter,
    principal_filter,
    tight_filters,
    tight_violations,
)
from slat.stone import filterspace_nbhd
from test_oracles import drive


def subset_scan_filters(S: Semilattice) -> set[frozenset]:
    """Independent filter oracle straight from the axioms."""
    found = set()
    es = list(S.elements())
    for r in range(1, len(es) + 1):
        for A in itertools.combinations(es, r):
            A = frozenset(A)
            if S.zero in A:
                continue
            meet_closed = all(S.meet(x, y) in A for x in A for y in A)
            up_closed = all(
                f in A for x in A for f in es if S.leq(x, f))
            if meet_closed and up_closed:
                found.add(A)
    return found


def oracle_tight(S: Semilattice, carrier: frozenset) -> bool:
    """Tightness by brute force over every (X, Y, Z) triple."""
    es = list(S.elements())
    inside = sorted(carrier)
    outside = [e for e in es if e not in carrier]
    for rx in range(len(inside) + 1):
        for X in itertools.combinations(inside, rx):
            for ry in range(len(outside) + 1):
                for Y in itertools.combinations(outside, ry):
                    target = constrained_set(S, X, Y)
                    members = sorted(target)
                    for rz in range(len(members) + 1):
                        for Z in itertools.combinations(members, rz):
                            covers = all(
                                any(S.meet(x, z) != S.zero for z in Z)
                                for x in target if x != S.zero)
                            if covers and not (set(Z) & carrier):
                                return False
    return True


@pytest.mark.parametrize("instances", corpus.INSTANCE_SETS)
def test_derived_values_and_listing_match_oracles(instances, request):
    drive(request, *corpus.instances(instances))


@pytest.mark.parametrize("instances", corpus.INSTANCE_SETS)
def test_ultrafilter_and_tight_listings_match_oracles(instances, request):
    drive(request, *corpus.instances(instances))


def test_returned_lists_are_fresh(vee, chain4):
    routes = [enumerate_filters, enumerate_ultrafilters, tight_filters,
              lambda S: filterspace_nbhd(S, S.one, [])]
    for S in (vee, chain4):
        for route in routes:
            first = route(S)
            expected = list(first)
            first.reverse()
            first.append(first[0])
            first[0] = None
            assert route(S) == expected


def test_is_filter_fixtures(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    assert is_filter(vee, frozenset({a, one}))
    assert not is_filter(vee, frozenset({a, b, one}))  # a ^ b = 0 missing
    assert not is_filter(vee, frozenset())
    assert not is_filter(vee, frozenset({vee.zero, one}))
    assert not is_filter(vee, frozenset({a}))  # not up-closed
    # indices outside the lattice, which the meet table would wrap or refuse
    assert not is_filter(vee, frozenset({-1}))
    assert not is_filter(vee, frozenset({a, one, len(vee)}))


def test_principal_filter(vee, chain3):
    assert principal_filter(vee, idx(vee, "a")).labels() == ("a", "1")
    assert principal_filter(vee, vee.one).labels() == ("1",)
    assert principal_filter(chain3, idx(chain3, "a")).labels() == ("a", "1")
    with pytest.raises(ZeroElementError):
        principal_filter(vee, vee.zero)


def test_enumerate_filters_fixtures(vee, chain3, bool1):
    assert [F.labels() for F in enumerate_filters(vee)] == [
        ("1",), ("a", "1"), ("b", "1")]
    assert [F.labels() for F in enumerate_filters(chain3)] == [
        ("1",), ("a", "1")]
    assert [F.labels() for F in enumerate_filters(bool1)] == [("1",)]


def test_enumerate_filters_matches_subset_scan():
    for S in corpus.catalog(6):
        got = {F.carrier for F in enumerate_filters(S)}
        assert got == subset_scan_filters(S)


def test_ultrafilter_criterion_fixtures(vee, chain3):
    a = idx(chain3, "a")
    assert is_ultrafilter(chain3, principal_filter(chain3, a))
    assert not is_ultrafilter(chain3, principal_filter(chain3, chain3.one))
    assert is_ultrafilter(vee, principal_filter(vee, idx(vee, "a")))
    with pytest.raises(NotAFilterError, match=r"^carrier \(1,\) fails the filter axioms$"):
        Filter.from_carrier(vee, frozenset({idx(vee, "a")}))


def test_ultrafilter_criterion_is_maximality():
    # criterion answer == literal maximality among all filters
    for S in corpus.catalog(6):
        all_filters = enumerate_filters(S)
        carriers = [F.carrier for F in all_filters]
        for F in all_filters:
            maximal = not any(F.carrier < other for other in carriers)
            assert is_ultrafilter(S, F) == maximal


def test_extend_to_ultrafilter(vee, chain3):
    assert extend_to_ultrafilter(vee, idx(vee, "a")).labels() == ("a", "1")
    assert extend_to_ultrafilter(chain3, chain3.one).labels() == ("a", "1")
    with pytest.raises(ZeroElementError):
        extend_to_ultrafilter(vee, vee.zero)


def test_extension_is_an_ultrafilter_containing_seed():
    for S in corpus.catalog(6):
        for e in S.nonzero():
            U = extend_to_ultrafilter(S, e)
            assert e in U
            assert is_ultrafilter(S, U)


def test_enumerate_ultrafilters_fixtures(vee, chain3, bool1):
    assert [F.labels() for F in enumerate_ultrafilters(vee)] == [
        ("a", "1"), ("b", "1")]
    assert [F.labels() for F in enumerate_ultrafilters(chain3)] == [("a", "1")]
    assert [F.labels() for F in enumerate_ultrafilters(bool1)] == [("1",)]


def test_tight_fixtures(vee, chain3):
    top_only = principal_filter(vee, vee.one)
    assert not is_tight(vee, top_only)
    assert is_tight(vee, principal_filter(vee, idx(vee, "a")))
    assert not is_tight(chain3, principal_filter(chain3, chain3.one))


def test_tight_violation_details(vee):
    assert list(tight_violations(vee, principal_filter(vee, vee.one))) == [vee.one]


def test_tight_violations_empty_for_tight_filter(vee):
    assert list(tight_violations(vee, principal_filter(vee, idx(vee, "a")))) == []


def test_tight_filters_fixtures(vee, chain3, bool1):
    assert [F.labels() for F in tight_filters(vee)] == [("a", "1"), ("b", "1")]
    assert [F.labels() for F in tight_filters(chain3)] == [("a", "1")]
    assert [F.labels() for F in tight_filters(bool1)] == [("1",)]


def test_tightness_matches_triple_enumeration_oracle():
    # sizes up to 5 keep the full (X, Y, Z) scan cheap
    for S in corpus.catalog(5):
        for F in enumerate_filters(S):
            assert is_tight(S, F) == oracle_tight(S, F.carrier), (
                S.to_text(), F.labels())


def test_ultrafilters_are_tight_everywhere():
    for S in corpus.catalog(6):
        ultras = {F.carrier for F in enumerate_ultrafilters(S)}
        tights = {F.carrier for F in tight_filters(S)}
        assert ultras <= tights
        assert tights == ultras  # finite instances: the two classes agree


def test_filter_iteration_and_membership(vee):
    F = principal_filter(vee, idx(vee, "a"))
    assert list(F) == sorted(F.carrier)
    assert idx(vee, "a") in F
    assert vee.zero not in F
