"""Filters, ultrafilters, tightness.

The oracles here are written from the raw definitions: a subset scan for
filters, literal set-inclusion maximality for ultrafilters, the full
(X, Y, Z) triple enumeration for tightness, the (pivot, Y) subset scan
that the single-element tightness criterion replaced, and that
criterion's cover test at every pivot, which the test at the generator
replaced.  Library answers must agree on every catalog instance small
enough to scan.
"""

from __future__ import annotations

import itertools
import random

import pytest

import catalog_oracle
import order_oracle
from conftest import INSTANCE_SETS, idx, relabeled
from slat.catalog import CatalogSpec, enumerate_catalog
from slat.core import Semilattice, _below_orthogonal, _members, constrained_set
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
from slat.pathlat import RootedGraph, truncate
from slat.stone import filterspace_nbhd


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


def scan_tight_pivots(S: Semilattice, carrier: frozenset) -> list[int]:
    """Pivots x in F for which some Y outside F admits a cover avoiding F.

    For each pivot this scans every subset Y of the non-zero elements
    outside F and asks whether the members of the constrained set of
    ({x}, Y) that avoid F cover it.  Exponential in the size of the
    complement.
    """
    outside = sorted(set(S.elements()) - carrier - {S.zero})
    pivots = []
    for pivot in sorted(carrier):
        for r in range(len(outside) + 1):
            if any(_avoiding_cover(S, carrier, constrained_set(S, {pivot}, Y))
                   for Y in itertools.combinations(outside, r)):
                pivots.append(pivot)
                break
    return pivots


def pivot_violations(S: Semilattice, F: Filter) -> list[int]:
    """The cover test of tight_violations at every pivot x in F.

    At x the target is down(x) - F - {0}; it covers iff only zero lies
    below x orthogonal to all of it.  The library runs the test once, at
    the generator.
    """
    zero = 1 << S.zero
    avoid = S.up[S.meet_all(F.carrier)] | zero
    return [x for x in sorted(F.carrier)
            if _below_orthogonal(S, x, _members(S.down[x] & ~avoid)) == zero]


def _avoiding_cover(S: Semilattice, carrier: frozenset, target: frozenset) -> bool:
    candidate = target - carrier - {S.zero}
    return all(any(S.meet(x, z) != S.zero for z in candidate)
               for x in target if x != S.zero)


def _scan_instances():
    """Catalog up to 7, 30 random instances up to 9 and two truncations,
    each also under a seeded relabeling."""
    two_loop = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")
    three_loop = RootedGraph(
        ("t",), (("a", "t", "t"), ("b", "t", "t"), ("c", "t", "t")), "t")
    rng = random.Random(2)
    for S in (*enumerate_catalog(CatalogSpec(max_size=7)),
              *enumerate_catalog(CatalogSpec(max_size=9, mode="random", sample_count=30, seed=2)),
              truncate(two_loop, 3), truncate(three_loop, 2)):
        yield S
        yield relabeled(S, rng)


@pytest.mark.parametrize("instances", INSTANCE_SETS)
def test_derived_values_and_listing_match_oracles(instances):
    rng = random.Random(3)
    for S in (T for S in INSTANCE_SETS[instances]() for T in (S, relabeled(S, rng))):
        assert S.up_sets == tuple(order_oracle.up(S, {e}) for e in S.elements())
        listed = catalog_oracle.enumerate_filters(S)
        assert [S.up_sets[g] for g in S.filter_generators] == [F.carrier for F in listed]
        assert enumerate_filters(S) == listed
        assert [principal_filter(S, g) for g in S.filter_generators] == listed


@pytest.mark.parametrize("instances", INSTANCE_SETS)
def test_ultrafilter_and_tight_listings_match_oracles(instances):
    rng = random.Random(4)
    for S in (T for S in INSTANCE_SETS[instances]() for T in (S, relabeled(S, rng))):
        listed = catalog_oracle.enumerate_filters(S)
        assert enumerate_ultrafilters(S) == [F for F in listed if order_oracle.is_ultrafilter(S, F.carrier)]
        assert tight_filters(S) == [F for F in listed if not pivot_violations(S, F)]


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
    for S in enumerate_catalog(CatalogSpec(max_size=6)):
        got = {F.carrier for F in enumerate_filters(S)}
        assert got == subset_scan_filters(S)


def test_ultrafilter_criterion_fixtures(vee, chain3):
    a = idx(chain3, "a")
    assert is_ultrafilter(chain3, principal_filter(chain3, a))
    assert not is_ultrafilter(chain3, principal_filter(chain3, chain3.one))
    assert is_ultrafilter(vee, principal_filter(vee, idx(vee, "a")))
    with pytest.raises(NotAFilterError):
        is_ultrafilter(vee, Filter(vee, frozenset({idx(vee, "a")})))


def test_ultrafilter_criterion_is_maximality():
    # criterion answer == literal maximality among all filters
    for S in enumerate_catalog(CatalogSpec(max_size=6)):
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
    for S in enumerate_catalog(CatalogSpec(max_size=6)):
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
    for S in enumerate_catalog(CatalogSpec(max_size=5)):
        for F in enumerate_filters(S):
            assert is_tight(S, F) == oracle_tight(S, F.carrier), (
                S.to_text(), F.labels())


def test_tightness_matches_subset_scan_oracle():
    for S in _scan_instances():
        for F in enumerate_filters(S):
            pivots = scan_tight_pivots(S, F.carrier)
            assert list(tight_violations(S, F)) == pivots, (S.to_text(), F.labels())
            assert pivot_violations(S, F) == pivots, (S.to_text(), F.labels())
            assert is_tight(S, F) == (not pivots)


def test_ultrafilters_are_tight_everywhere():
    for S in enumerate_catalog(CatalogSpec(max_size=6)):
        ultras = {F.carrier for F in enumerate_ultrafilters(S)}
        tights = {F.carrier for F in tight_filters(S)}
        assert ultras <= tights
        assert tights == ultras  # finite instances: the two classes agree


def test_filter_iteration_and_membership(vee):
    F = principal_filter(vee, idx(vee, "a"))
    assert list(F) == sorted(F.carrier)
    assert idx(vee, "a") in F
    assert vee.zero not in F
