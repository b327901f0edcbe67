"""Filters, ultrafilters, tightness.

The comparisons bound from test_oracles.OWNED_TESTS hold the filter
listing, the ultrafilter criterion (also against literal maximality),
the extension to an ultrafilter and tightness (also against the full
(X, Y, Z) triple scan) to their oracles, and check on the catalog that
the tight filters are the ultrafilters.
"""

from __future__ import annotations

import pytest

from conftest import idx
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
from test_oracles import OWNED_TESTS

test_derived_values_and_listing_match_oracles = OWNED_TESTS["test_derived_values_and_listing_match_oracles"]
test_ultrafilter_and_tight_listings_match_oracles = OWNED_TESTS["test_ultrafilter_and_tight_listings_match_oracles"]
test_enumerate_filters_matches_subset_scan = OWNED_TESTS["test_enumerate_filters_matches_subset_scan"]
test_ultrafilter_criterion_is_maximality = OWNED_TESTS["test_ultrafilter_criterion_is_maximality"]
test_extension_is_an_ultrafilter_containing_seed = OWNED_TESTS["test_extension_is_an_ultrafilter_containing_seed"]
test_tightness_matches_triple_enumeration_oracle = OWNED_TESTS["test_tightness_matches_triple_enumeration_oracle"]
test_ultrafilters_are_tight_everywhere = OWNED_TESTS["test_ultrafilters_are_tight_everywhere"]


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


def test_ultrafilter_criterion_fixtures(vee, chain3):
    a = idx(chain3, "a")
    assert is_ultrafilter(chain3, principal_filter(chain3, a))
    assert not is_ultrafilter(chain3, principal_filter(chain3, chain3.one))
    assert is_ultrafilter(vee, principal_filter(vee, idx(vee, "a")))
    with pytest.raises(NotAFilterError, match=r"^carrier \(1,\) fails the filter axioms$"):
        Filter.from_carrier(vee, frozenset({idx(vee, "a")}))


def test_extend_to_ultrafilter(vee, chain3):
    assert extend_to_ultrafilter(vee, idx(vee, "a")).labels() == ("a", "1")
    assert extend_to_ultrafilter(chain3, chain3.one).labels() == ("a", "1")
    with pytest.raises(ZeroElementError):
        extend_to_ultrafilter(vee, vee.zero)


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


def test_filter_iteration_and_membership(vee):
    F = principal_filter(vee, idx(vee, "a"))
    assert list(F) == sorted(F.carrier)
    assert idx(vee, "a") in F
    assert vee.zero not in F
