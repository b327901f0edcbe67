"""Every fast route against its brute-force oracle, from one registry.

A Route pairs a library callable with its oracle, the calls to make on
one instance and the corpus slices it runs on.  check() makes each call
on the instance and on its relabeled copy; a SlatError counts as a
result, so a refusal must match in type and message.  A mismatch names
the slice, the index there, whether it is the copy, and the text of a
small instance.  Route adapters hand the library's int masks of points
to the comparison as the oracles' frozensets.  A theorem route holds a
library route to the oracle of an equivalent property.  Each route runs
on each instance once, under the first slice of its corpus that holds
it: in the test OWN_IDS gives that slice, else in
test_route_matches_oracle.  The audit reads every tests/*_oracle.py and
fails on a public function there that is the oracle of no route and not
in COMPARED_ELSEWHERE.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import random
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable

import pytest

import catalog_oracle
import corpus
import order_oracle
import pathlat_oracle
import stone_oracle
import suite_oracle
from slat import classify, core, filters, pathlat, stone
from slat.core import Semilattice, _members
from slat.errors import NotSubsetError, SlatError
from slat.filters import Filter


@dataclass(frozen=True)
class Route:
    name: str
    library: Callable
    oracle: Callable
    corpus: tuple[str, ...]  # the slices of corpus.SLICES it runs on
    args: Callable = lambda S: [(S,)]  # an instance -> the argument tuples to call both with


def _each(S: Semilattice, xs) -> list[tuple]:
    return [(S, x) for x in xs]


def _singletons(S: Semilattice) -> list[tuple]:
    return _each(S, ({e} for e in S.elements()))


def _subsets(rng: random.Random, S: Semilattice, k: int) -> list[list[int]]:
    return [rng.sample(range(len(S)), rng.randint(0, min(3, len(S)))) for _ in range(k)]


@cache
def _draws(S: Semilattice) -> tuple[list, ...]:
    """Calls on 40 seeded families of at most three elements: the families,
    four pivots for each, each pair of families, and cover candidates."""
    rng = random.Random(len(S))
    families = _subsets(rng, S, 40)
    arrows = [(S, f, X) for X in families for f in rng.sample(S.nonzero(), min(4, len(S) - 1))]
    pairs = [(S, X, Y) for X, Y in zip(families, reversed(families))]
    covers = [(S, Z, X, Y) for _, X, Y in pairs for target in [sorted(order_oracle.constrained_set(S, X, Y))]
              for Z in (target, rng.sample(target, len(target) // 2), X)]
    return _each(S, families), arrows, pairs, covers


def _filter_carriers(S: Semilattice) -> list[tuple]:
    return _each(S, (F.carrier for F in catalog_oracle.enumerate_filters(S)))


def _carriers(S: Semilattice) -> list[tuple]:
    """Every subset up to six elements, else 60 seeded ones; and every filter."""
    subsets = [c for r in range(len(S) + 1) for c in itertools.combinations(S.elements(), r)] \
        if len(S) <= 6 else _subsets(random.Random(len(S)), S, 60)
    return _each(S, map(frozenset, subsets)) + _filter_carriers(S)


def _neighbourhoods(S: Semilattice):
    """Every family of at most two elements below e.  Where that is more
    than 80 families, the empty family and eight seeded families of one or
    two; and past 64 elements e is the top and 24 seeded others."""
    rng = random.Random(len(S))
    for e in S.nonzero() if len(S) <= 64 else [S.one, *rng.sample(S.nonzero(), 24)]:
        below = [x for x in S.elements() if S.leq(x, e)]
        families = [es for r in range(3) for es in itertools.combinations(below, r)]
        if len(families) > 80:
            families = [(), *(rng.sample(below, 1 + i % 2) for i in range(8))]
        yield from ((S, e, es) for es in families)


def _vectors(S: Semilattice) -> list[tuple]:
    """Every 0/1 vector, three that are not, and floats and bools equal to 0 and 1."""
    vectors = list(itertools.product((0, 1), repeat=len(S)))
    vectors += [(2,) * len(S), (0,) * (len(S) - 1), tuple(range(len(S)))]
    vectors += [tuple(map(float, v)) for v in vectors[:64]] + [tuple(map(bool, v)) for v in vectors[:64]]
    return _each(S, vectors)


@lru_cache(maxsize=2)  # the routes of an instance and its copy run in turn
def _space(S: Semilattice) -> list[tuple]:
    return [(stone.build_space(S),)]


def _is_cover(S, Z, X, Y) -> bool | None:
    try:
        return core.is_cover(S, Z, X, Y)
    except NotSubsetError:
        return None


def _order_line(S: Semilattice) -> list[tuple[int, int]]:
    head, *pairs = S.to_text().splitlines()[1].split()
    assert head == "order:"
    return [tuple(map(S.index, pair.split("<"))) for pair in pairs]


def _sibling_witnesses(S: Semilattice, e: int) -> tuple[dict, dict]:
    """sibling_cover_witness at every non-zero f < e, and the descent from e."""
    below = (f for f in S.nonzero() if f != e and S.leq(f, e))
    return ({f: _outcome(pathlat.sibling_cover_witness, (S, e, f)) for f in below},
            pathlat.sibling_cover_witnesses(S, e))


def _violations(S: Semilattice, A: frozenset) -> list[int]:
    return list(filters.tight_violations(S, Filter.from_carrier(S, A)))


def _is_ultrafilter(S: Semilattice, A: frozenset) -> bool:
    return filters.is_ultrafilter(S, Filter.from_carrier(S, A))


def _extension_verdicts(S: Semilattice, e: int) -> tuple[bool, bool]:
    """Whether the extension of e holds e, and whether it is an ultrafilter."""
    U = filters.extend_to_ultrafilter(S, e)
    return e in U, filters.is_ultrafilter(S, U)


def _points(masks) -> list[frozenset]:
    """Each mask of point indices as the frozenset of its points."""
    return [frozenset(_members(m)) for m in masks]


# the sets the listings, the Stone points and the cover-pair verdicts run on
LISTINGS = ("catalog-7", "random-8-12", "bench-truncations")
# the truncations the cover routes were first checked on, by graph
LOOP_TRUNCATIONS = {"two-loop": "two-loop-1-7", "three-loop": "three-loop-1-4", "one-loop": "one-loop-1-40"}
# the truncations and catalog intervals the cover routes run on
COVERS = (*LOOP_TRUNCATIONS.values(), "catalog-6")

ROUTES = (
    # the one order builder, against the parser that built the full meet table
    Route("parse_semilattice", core.parse_semilattice, order_oracle.parse_semilattice, ("texts",),
          lambda text: [(text,)]),
    # the order primitives, on the rows
    Route("star", core.star, order_oracle.star, ("rows",), lambda S: _each(S, S.elements())),
    Route("up", core.up, order_oracle.up, ("rows",), lambda S: _singletons(S) + _draws(S)[0]),
    Route("down", core.down, order_oracle.down, ("rows",), lambda S: _singletons(S) + _draws(S)[0]),
    Route("level", pathlat.level, order_oracle.level, ("rows",), lambda S: _each(S, S.elements())),
    Route("covers_hat", pathlat.covers_hat, order_oracle.covers_hat, ("rows",), lambda S: _each(S, S.nonzero())),
    Route("nonzero_pairs_below", lambda S: list(core.nonzero_pairs_below(S)), order_oracle.nonzero_pairs_below,
          ("rows",)),
    Route("covering_pairs", _order_line, order_oracle.covering_pairs, ("rows", *COVERS)),
    Route("arrow", core.arrow, order_oracle.arrow, ("rows",), lambda S: _draws(S)[1]),
    # the kernel that classification and the suite call
    Route("arrow.kernel", core._refines, order_oracle.arrow, ("rows",), lambda S: _draws(S)[1]),
    Route("constrained_set", core.constrained_set, order_oracle.constrained_set, ("rows",), lambda S: _draws(S)[2]),
    Route("is_cover", _is_cover, order_oracle.is_cover, ("rows",), lambda S: _draws(S)[3]),
    # filters and classification
    Route("is_filter", filters.is_filter, order_oracle.is_filter, ("rows",), _carriers),
    Route("is_ultrafilter", _is_ultrafilter, order_oracle.is_ultrafilter, ("rows",), _filter_carriers),
    # the meet criterion, against literal maximality among all filters
    Route("is_ultrafilter.maximality", _is_ultrafilter, catalog_oracle.is_maximal_filter, ("catalog-6",),
          _filter_carriers),
    Route("extend_to_ultrafilter", lambda S, e: filters.extend_to_ultrafilter(S, e).carrier,
          order_oracle.extend_to_ultrafilter, ("rows",), lambda S: _each(S, S.nonzero())),
    # the theorem: the extension of e holds e and is an ultrafilter
    Route("extend_to_ultrafilter.is_ultrafilter", _extension_verdicts, lambda S, e: (True, True), ("catalog-6",),
          lambda S: _each(S, S.nonzero())),
    Route("meet_separation", classify.meet_separation, order_oracle.meet_separation, ("rows",)),
    Route("is_zero_disjunctive", classify.is_zero_disjunctive, order_oracle.is_zero_disjunctive,
          ("rows", *LISTINGS)),
    Route("satisfies_trapping", classify.satisfies_trapping, order_oracle.satisfies_trapping, LISTINGS),
    # the theorem, on the oracles' side too: trapping iff 0-disjunctive
    Route("trapping_is_zero_disjunctive", classify.satisfies_trapping, order_oracle.is_zero_disjunctive, LISTINGS),
    Route("enumerate_filters", filters.enumerate_filters, catalog_oracle.enumerate_filters, ("rows", *LISTINGS)),
    # the listing, against the subsets that satisfy the filter axioms
    Route("enumerate_filters.subset_scan", lambda S: {F.carrier for F in filters.enumerate_filters(S)},
          catalog_oracle.subset_scan_filters, ("catalog-6",)),
    Route("filter_generators", lambda S: [filters.principal_filter(S, g) for g in S.filter_generators],
          catalog_oracle.enumerate_filters, ("rows", *LISTINGS)),
    Route("enumerate_ultrafilters", filters.enumerate_ultrafilters, catalog_oracle.enumerate_ultrafilters, LISTINGS),
    Route("tight_filters", filters.tight_filters, catalog_oracle.tight_filters, ("tight-scan", *LISTINGS)),
    # the theorem on finite instances: the tight filters are the ultrafilters
    Route("tight_filters_are_ultrafilters", filters.tight_filters, catalog_oracle.enumerate_ultrafilters,
          ("catalog-6",)),
    Route("is_tight", lambda S, A: filters.is_tight(S, Filter.from_carrier(S, A)),
          catalog_oracle.tight_by_triple_scan, ("catalog-5",), _filter_carriers),
    Route("tight_violations", _violations, catalog_oracle.scan_tight_pivots, ("tight-scan",), _filter_carriers),
    Route("tight_violations.pivots", _violations, catalog_oracle.pivot_violations, ("tight-scan",),
          _filter_carriers),
    Route("filterspace_nbhd", stone.filterspace_nbhd, catalog_oracle.filterspace_nbhd, ("neighbourhoods",),
          _neighbourhoods),
    # the mask kernel that the suite calls, against the generators the oracle lists
    Route("filterspace_nbhd.generators", lambda S, e, es: _members(stone._nbhd_generators(S, e, es)),
          lambda S, e, es: sorted(F.generator for F in catalog_oracle.filterspace_nbhd(S, e, es)),
          ("neighbourhoods",), _neighbourhoods),
    # the Stone space
    Route("build_space.points", lambda S: list(stone.build_space(S).points), catalog_oracle.enumerate_ultrafilters,
          LISTINGS),
    Route("build_space.base", lambda S: tuple(_points(stone.build_space(S).base)), stone_oracle.base_sets,
          LISTINGS),
    # the oracle checks the space that build_space made, and finds no violation
    Route("build_space.laws", lambda space: None, stone_oracle.base_law_violation, ("base-laws",), _space),
    Route("opens", lambda space: _points(stone.opens(space)), stone_oracle.base_set_unions, ("opens",), _space),
    Route("clopen_elements", lambda space: tuple(_points(stone.clopen_elements(space))),
          stone_oracle.clopen_elements, ("clopens",), _space),
    Route("clopen_algebra.atoms", lambda space: _points(stone.clopen_algebra(space).atoms),
          stone_oracle.clopen_atoms, ("clopens",), _space),
    Route("dense_check", stone.dense_check, stone_oracle.dense_check, ("clopens",), _space),
    Route("is_representation", stone.is_representation, suite_oracle.is_representation, ("representations",),
          _vectors),
    # truncations and their covers
    Route("truncate", pathlat.truncate, pathlat_oracle.truncate, tuple(corpus.TRUNCATE_SLICES.values()),
          lambda pair: [pair]),
    Route("cover_table", lambda S: {g: pathlat.covers_hat(S, g) for g in S.nonzero()}, pathlat_oracle.cover_table,
          COVERS),
    Route("sibling_cover_witnesses", _sibling_witnesses, pathlat_oracle.sibling_cover_witnesses, COVERS,
          lambda S: _each(S, S.nonzero())),
)
BY_NAME = {route.name: route for route in ROUTES}


def _per_instance(name: str) -> list:
    """A param (slice, index) per instance, with the id n<size>, built at
    collection; if building the slice raises, as a library fault can make
    it, one param (slice, None) fails in the test instead."""
    try:
        return [pytest.param(name, i, id=f"n{len(S)}") for _, i, S in corpus.instances(name)]
    except Exception:  # reported by the test
        return [pytest.param(name, None, id=name)]


def _per_slice(ids: dict[str, str]) -> list:
    return [pytest.param(name, None, id=id) for id, name in ids.items()]


# The comparisons that keep the test ids they had before every route
# named its corpus: each test, where it runs and the routes it runs there.
# It runs on one slice, or on params (slice, index or None for the whole
# slice).  Each module binds its tests from OWNED_TESTS.
_LISTED = _per_slice({name: name for name in LISTINGS})
_COVER_ROUTES = ("cover_table", "covering_pairs", "sibling_cover_witnesses")
OWN_IDS = {
    "test_rows.py::test_order_primitives_match_scans": (_per_instance("rows"), (
        "star", "up", "down", "level", "covers_hat", "nonzero_pairs_below", "covering_pairs", "arrow",
        "constrained_set", "is_cover")),
    "test_rows.py::test_filter_and_classification_checks_match_scans": (_per_instance("rows"), (
        "is_filter", "is_ultrafilter", "extend_to_ultrafilter", "meet_separation", "is_zero_disjunctive",
        "enumerate_filters", "filter_generators")),
    "test_rows.py::test_opens_match_all_unions_of_base_sets": (_per_instance("opens"), ("opens",)),
    "test_clopen_atoms.py::test_clopen_algebra_and_density_match_the_scans": (_per_instance("clopens"), (
        "clopen_elements", "clopen_algebra.atoms", "dense_check")),
    "test_classify.py::test_cover_pair_verdicts_match_all_pair_oracles": (_LISTED, (
        "is_zero_disjunctive", "satisfies_trapping", "trapping_is_zero_disjunctive")),
    "test_filters.py::test_derived_values_and_listing_match_oracles": (_LISTED, (
        "enumerate_filters", "filter_generators")),
    "test_filters.py::test_ultrafilter_and_tight_listings_match_oracles": (_LISTED, (
        "enumerate_ultrafilters", "tight_filters")),
    "test_filters.py::test_enumerate_filters_matches_subset_scan": ("catalog-6", ("enumerate_filters.subset_scan",)),
    "test_filters.py::test_ultrafilter_criterion_is_maximality": ("catalog-6", ("is_ultrafilter.maximality",)),
    "test_filters.py::test_extension_is_an_ultrafilter_containing_seed": ("catalog-6", (
        "extend_to_ultrafilter.is_ultrafilter",)),
    "test_filters.py::test_tightness_matches_triple_enumeration_oracle": ("catalog-5", ("is_tight",)),
    "test_filters.py::test_ultrafilters_are_tight_everywhere": ("catalog-6", ("tight_filters_are_ultrafilters",)),
    "test_stone.py::test_build_space_points_match_ultrafilter_oracle": (_LISTED, (
        "build_space.points", "build_space.base")),
    "test_pathlat.py::test_sibling_cover_witness_matches_all_covers_oracle": (_per_slice(LOOP_TRUNCATIONS),
                                                                              _COVER_ROUTES),
    "test_pathlat.py::test_sibling_cover_witness_matches_oracle_off_chains": ("catalog-6", _COVER_ROUTES),
    "test_pathlat.py::test_loop_truncations_match_prefix_compare_oracle": (_per_slice(corpus.TRUNCATE_SLICES),
                                                                           ("truncate",)),
}
OWNED = {(route, name) for where, routes in OWN_IDS.values() for route in routes
         for name in ({where} if isinstance(where, str) else {p.values[0] for p in where})}

COMPARED_ELSEWHERE = {
    "order_oracle.associativity_violation": "test_rows.py::test_row_law_accepts_exactly_the_associative_tables",
    "catalog_oracle.instances_of_size": "test_catalog.py::test_extension_matches_the_relation_scan",
    "catalog_oracle.random_instance": "test_catalog.py::test_random_instances_match_the_table_route",
    "catalog_oracle.canonical_key": "test_catalog.py::test_canonical_key_partitions_like_the_permutation_oracle",
    "catalog_oracle.with_atom_table": "test_rows.py::test_rows_built_instances_match_the_validated_rebuild",
    "pathlat_oracle.ancestor_chain_table": "test_rows.py::test_rows_built_instances_match_the_validated_rebuild",
    "pathlat_oracle.unreachable_vertices": "test_pathlat.py::test_root_distances_are_shortest_backward_paths",
    "stone_oracle.extension_violation": "test_stone.py::test_extend_hom_is_a_boolean_hom_on_injective_instances",
    "suite_oracle.verdicts": "test_suite.py::test_mask_checks_match_frozenset_oracle",
    "cantor_oracle.normalize_two_phase": "test_cantor_normal_form.py::test_normal_form_matches_two_phase",
    "cantor_oracle.four_rule_violation":
        "test_cantor_normal_form.py::test_constructor_accepts_what_the_four_rules_accept",
    "cantor_oracle.complement_by_prefix_scan": "test_cantor_normal_form.py::test_complement_matches_prefix_scan",
    "cantor_oracle.reduce_one_pass": "test_cantor_normal_form.py::test_operations_match_word_oracles",
    "cantor_oracle.meet_by_pair_scan": "test_cantor_normal_form.py::test_operations_match_word_oracles",
    "cantor_oracle.complement_by_word_descent": "test_cantor_normal_form.py::test_operations_match_word_oracles",
    "cantor_oracle.eval_by_operations": "test_cantor.py::test_eval_matches_the_closure_parser",
    "cantor_oracle.is_single_cylinder_complemented_by_words":
        "test_cantor.py::test_single_cylinder_complemented_matches_listing_the_complement",
    "cantor_oracle.membership_by_scan": "test_cantor.py::test_membership_walk_matches_word_scan",
    "cantor_oracle.tokenize_by_scan": "test_cantor.py::test_token_pattern_matches_character_scan",
    "cantor_oracle.shortlex": "test_cantor_normal_form.py::test_word_listing_matches_the_oracle_on_wide_tries",
    "cantor_oracle.cover_set": "test_cantor.py::test_ops_match_cover_semantics",
    "cantor_oracle.clopen_cover": "test_cantor.py::test_ops_match_cover_semantics",
    "cantor_oracle.random_expr": "test_cantor.py::test_seeded_expressions_against_oracle",
    "cantor_oracle.check_expr_against_oracle": "test_cantor.py::test_seeded_expressions_against_oracle",
}


def _outcome(f: Callable, args: tuple):
    try:
        return f(*args)
    except SlatError as exc:
        return type(exc).__name__, str(exc)


def _named(route: Route, where: str, x, args: tuple) -> str:
    text = f"\n{x.to_text()}" if isinstance(x, Semilattice) and len(x) < 20 else ""
    return f"{route.name} on {where}: {args!r}"[:2000] + text


def check(route: Route, instance, where: str) -> None:
    """Compare the route with its oracle on the instance and its copy;
    where names the instance in a failure."""
    for x, shown in zip(corpus.copies(instance), (where, f"{where}, relabeled copy")):
        for args in route.args(x):
            assert _outcome(route.library, args) == _outcome(route.oracle, args), _named(route, shown, x, args)


def _run(route: Route, keep: Callable[[str, int], bool]) -> None:
    """Check the route on the instances of its corpus that keep accepts
    by the slice and index where each is first found."""
    for name, i, instance in corpus.instances(*route.corpus):
        if keep(name, i):
            check(route, instance, f"slice {name}, instance {i}")


def _owned_test(where, routes: tuple[str, ...]) -> Callable:
    """The test that runs the routes on the slice where, or on the slice
    or the instance that each of its params names."""
    def test(name, i):
        for route in routes:
            _run(BY_NAME[route], lambda at, j: at == name and i in (None, j))
    return (lambda: test(where, None)) if isinstance(where, str) else pytest.mark.parametrize("name, i", where)(test)


OWNED_TESTS = {test_id.split("::")[1]: _owned_test(*entry) for test_id, entry in OWN_IDS.items()}


@pytest.mark.parametrize("route", [r for r in ROUTES if {(r.name, name) for name in r.corpus} - OWNED],
                         ids=lambda r: r.name)
def test_route_matches_oracle(route):
    _run(route, lambda name, i: (route.name, name) not in OWNED)


def test_parse_route_fails_when_the_builder_drops_the_last_pair(monkeypatch):
    build = core._from_order
    monkeypatch.setattr(core, "_from_order", lambda labels, pairs, meets=(): build(labels, list(pairs)[:-1], meets))
    with pytest.raises(AssertionError, match="^parse_semilattice on slice texts, instance "):
        test_route_matches_oracle(BY_NAME["parse_semilattice"])


def _test(test_id: str):
    path, name = test_id.split("::")
    return getattr(importlib.import_module(path.removesuffix(".py")), name, None)


def test_every_oracle_is_compared():
    modules = [importlib.import_module(path.stem) for path in sorted(Path(__file__).parent.glob("*_oracle.py"))]
    oracles = {f"{m.__name__}.{name}" for m in modules for name, f in vars(m).items()
               if inspect.isfunction(f) and f.__module__ == m.__name__ and not name.startswith("_")}
    registered = {f"{r.oracle.__module__}.{r.oracle.__name__}" for r in ROUTES}
    assert oracles - registered - set(COMPARED_ELSEWHERE) == set(), "oracles with no comparison"
    assert set(COMPARED_ELSEWHERE) <= oracles - registered, "stale or registered oracles in the map"
    assert all(callable(_test(test_id)) for test_id in COMPARED_ELSEWHERE.values())
    assert all(r.corpus and set(r.corpus) <= set(corpus.SLICES) for r in ROUTES), "routes that nothing runs"
    assert all(_test(test_id) is OWNED_TESTS[test_id.split("::")[1]] for test_id in OWN_IDS), "unbound tests"
    assert OWNED <= {(r.name, name) for r in ROUTES for name in r.corpus}, "owned slices outside a corpus"
    assert len(BY_NAME) == len(ROUTES)
