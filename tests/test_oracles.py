"""Every fast route against its brute-force oracle, from one registry.

A Route pairs a library callable with its oracle, the calls to make on
one instance and the corpus slices that test_route_matches_oracle runs it
on, one test id per route.  check() makes each call on the instance and
on its relabeled copy; a SlatError counts as a result, so a refusal must
match in type and message.  A mismatch names the instance: where it was
taken from, whether it is the relabeled copy, and its text when short.
The library keeps sets of points as int masks, and the route adapters
hand them to the comparison as the oracles' frozensets.  The
parametrized comparisons that held these routes before keep their ids
and run the routes DRIVERS gives them.  The audit fails when a public
function of an oracle module is the oracle of no route and is not in
COMPARED_ELSEWHERE, the oracles compared on hypothesis draws, fault
injections, fresh builds or whole sets.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import random
from dataclasses import dataclass
from functools import cache, lru_cache
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
    args: Callable = lambda S: [(S,)]  # an instance -> the argument tuples to call both with
    corpus: tuple[str, ...] = ()


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


def _points(masks) -> list[frozenset]:
    """Each mask of point indices as the frozenset of its points."""
    return [frozenset(_members(m)) for m in masks]


ROUTES = (
    # the order primitives, on the rows
    Route("star", core.star, order_oracle.star, lambda S: _each(S, S.elements())),
    Route("up", core.up, order_oracle.up, lambda S: _singletons(S) + _draws(S)[0]),
    Route("down", core.down, order_oracle.down, lambda S: _singletons(S) + _draws(S)[0]),
    Route("level", pathlat.level, order_oracle.level, lambda S: _each(S, S.elements())),
    Route("covers_hat", pathlat.covers_hat, order_oracle.covers_hat, lambda S: _each(S, S.nonzero())),
    Route("nonzero_pairs_below", lambda S: list(core.nonzero_pairs_below(S)), order_oracle.nonzero_pairs_below),
    Route("covering_pairs", _order_line, order_oracle.covering_pairs),
    Route("arrow", core.arrow, order_oracle.arrow, lambda S: _draws(S)[1]),
    # the kernel that classification and the suite call
    Route("arrow.kernel", core._refines, order_oracle.arrow, lambda S: _draws(S)[1], ("rows",)),
    Route("constrained_set", core.constrained_set, order_oracle.constrained_set, lambda S: _draws(S)[2]),
    Route("is_cover", _is_cover, order_oracle.is_cover, lambda S: _draws(S)[3]),
    # filters and classification
    Route("is_filter", filters.is_filter, order_oracle.is_filter, _carriers),
    Route("is_ultrafilter", lambda S, A: filters.is_ultrafilter(S, Filter.from_carrier(S, A)),
          order_oracle.is_ultrafilter, _filter_carriers),
    Route("extend_to_ultrafilter", lambda S, e: filters.extend_to_ultrafilter(S, e).carrier,
          order_oracle.extend_to_ultrafilter, lambda S: _each(S, S.nonzero())),
    Route("meet_separation", classify.meet_separation, order_oracle.meet_separation),
    Route("is_zero_disjunctive", classify.is_zero_disjunctive, order_oracle.is_zero_disjunctive),
    Route("satisfies_trapping", classify.satisfies_trapping, order_oracle.satisfies_trapping),
    # the theorem, on the oracles' side too: trapping iff 0-disjunctive
    Route("trapping_is_zero_disjunctive", classify.satisfies_trapping, order_oracle.is_zero_disjunctive),
    Route("enumerate_filters", filters.enumerate_filters, catalog_oracle.enumerate_filters),
    Route("filter_generators", lambda S: [filters.principal_filter(S, g) for g in S.filter_generators],
          catalog_oracle.enumerate_filters),
    Route("enumerate_ultrafilters", filters.enumerate_ultrafilters, catalog_oracle.enumerate_ultrafilters),
    Route("tight_filters", filters.tight_filters, catalog_oracle.tight_filters, corpus=("tight-scan",)),
    Route("tight_violations", _violations, catalog_oracle.scan_tight_pivots, _filter_carriers, ("tight-scan",)),
    Route("tight_violations.pivots", _violations, catalog_oracle.pivot_violations, _filter_carriers,
          ("tight-scan",)),
    Route("filterspace_nbhd", stone.filterspace_nbhd, catalog_oracle.filterspace_nbhd, _neighbourhoods,
          ("neighbourhoods",)),
    # the mask kernel that the suite calls, against the generators the oracle lists
    Route("filterspace_nbhd.generators", lambda S, e, es: _members(stone._nbhd_generators(S, e, es)),
          lambda S, e, es: sorted(F.generator for F in catalog_oracle.filterspace_nbhd(S, e, es)),
          _neighbourhoods, ("neighbourhoods",)),
    # the Stone space
    Route("build_space.points", lambda S: list(stone.build_space(S).points), catalog_oracle.enumerate_ultrafilters),
    Route("build_space.base", lambda S: tuple(_points(stone.build_space(S).base)), stone_oracle.base_sets),
    # the oracle checks the space that build_space made, and finds no violation
    Route("build_space.laws", lambda space: None, stone_oracle.base_law_violation, _space, ("base-laws",)),
    Route("opens", lambda space: _points(stone.opens(space)), stone_oracle.base_set_unions, _space),
    Route("clopen_elements", lambda space: tuple(_points(stone.clopen_elements(space))),
          stone_oracle.clopen_elements, _space),
    Route("clopen_algebra.atoms", lambda space: _points(stone.clopen_algebra(space).atoms),
          stone_oracle.clopen_atoms, _space),
    Route("dense_check", stone.dense_check, stone_oracle.dense_check, _space),
    Route("is_representation", stone.is_representation, suite_oracle.is_representation, _vectors,
          ("representations",)),
    # truncations and their covers
    Route("truncate", pathlat.truncate, pathlat_oracle.truncate, lambda pair: [pair]),
    Route("cover_table", lambda S: {g: pathlat.covers_hat(S, g) for g in S.nonzero()}, pathlat_oracle.cover_table),
    Route("sibling_cover_witnesses", _sibling_witnesses, pathlat_oracle.sibling_cover_witnesses,
          lambda S: _each(S, S.nonzero())),
)
BY_NAME = {route.name: route for route in ROUTES}

# The parametrized comparisons that held these routes before keep their
# ids, one per instance (425 ids in test_rows.py and test_clopen_atoms.py)
# or per instance set or graph (the other seven tests), so that a failure
# or a slow case in CI's --durations names its instance, and the ids that
# test histories record stay; each runs the routes named here.
_COVERS = ("cover_table", "covering_pairs", "sibling_cover_witnesses")
DRIVERS = {
    "test_rows.py::test_order_primitives_match_scans": (
        "star", "up", "down", "level", "covers_hat", "nonzero_pairs_below", "covering_pairs", "arrow",
        "constrained_set", "is_cover"),
    "test_rows.py::test_filter_and_classification_checks_match_scans": (
        "is_filter", "is_ultrafilter", "extend_to_ultrafilter", "meet_separation", "is_zero_disjunctive",
        "enumerate_filters", "filter_generators"),
    "test_rows.py::test_opens_match_all_unions_of_base_sets": ("opens",),
    "test_clopen_atoms.py::test_clopen_algebra_and_density_match_the_scans": (
        "clopen_elements", "clopen_algebra.atoms", "dense_check"),
    "test_classify.py::test_cover_pair_verdicts_match_all_pair_oracles": (
        "is_zero_disjunctive", "satisfies_trapping", "trapping_is_zero_disjunctive"),
    "test_filters.py::test_derived_values_and_listing_match_oracles": ("enumerate_filters", "filter_generators"),
    "test_filters.py::test_ultrafilter_and_tight_listings_match_oracles": ("enumerate_ultrafilters", "tight_filters"),
    "test_stone.py::test_build_space_points_match_ultrafilter_oracle": ("build_space.points", "build_space.base"),
    "test_pathlat.py::test_sibling_cover_witness_matches_all_covers_oracle": _COVERS,
    "test_pathlat.py::test_sibling_cover_witness_matches_oracle_off_chains": _COVERS,
    "test_pathlat.py::test_loop_truncations_match_prefix_compare_oracle": ("truncate",),
}

COMPARED_ELSEWHERE = {
    "order_oracle.associativity_violation": "test_rows.py::test_row_law_accepts_exactly_the_associative_tables",
    "catalog_oracle.instances_of_size": "test_catalog.py::test_extension_matches_the_relation_scan",
    "catalog_oracle.canonical_key": "test_catalog.py::test_canonical_key_partitions_like_the_permutation_oracle",
    "catalog_oracle.with_atom_table": "test_rows.py::test_rows_built_instances_match_the_validated_rebuild",
    "pathlat_oracle.ancestor_chain_table": "test_rows.py::test_rows_built_instances_match_the_validated_rebuild",
    "pathlat_oracle.unreachable_vertices": "test_pathlat.py::test_root_distances_are_shortest_backward_paths",
    "stone_oracle.extension_violation": "test_stone.py::test_extend_hom_is_a_boolean_hom_on_injective_instances",
    "suite_oracle.verdicts": "test_suite.py::test_mask_checks_match_frozenset_oracle",
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


def drive(request: pytest.FixtureRequest, *instances, where: str | None = None) -> None:
    """Run the routes DRIVERS gives the requesting test on each instance.
    A failure names the instance by where, or else by the test's id and
    the instance's place among those given."""
    names = DRIVERS[f"{request.path.name}::{request.function.__name__}"]
    for i, instance in enumerate(instances):
        for name in names:
            check(BY_NAME[name], instance, where or f"{request.node.name}, instance {i}")


@pytest.mark.parametrize("route", [r for r in ROUTES if r.corpus], ids=lambda r: r.name)
def test_route_matches_oracle(route):
    for i, instance in enumerate(corpus.instances(*route.corpus)):
        check(route, instance, f"slice {'+'.join(route.corpus)}, instance {i}")


def _test_exists(test_id: str) -> bool:
    path, name = test_id.split("::")
    return callable(getattr(importlib.import_module(path.removesuffix(".py")), name, None))


def test_every_oracle_is_compared():
    modules = (order_oracle, catalog_oracle, stone_oracle, pathlat_oracle, suite_oracle)
    oracles = {f"{m.__name__}.{name}" for m in modules for name, f in vars(m).items()
               if inspect.isfunction(f) and f.__module__ == m.__name__ and not name.startswith("_")}
    registered = {f"{r.oracle.__module__}.{r.oracle.__name__}" for r in ROUTES}
    assert oracles - registered - set(COMPARED_ELSEWHERE) == set(), "oracles with no comparison"
    assert set(COMPARED_ELSEWHERE) <= oracles - registered, "stale or registered oracles in the map"
    assert all(map(_test_exists, [*COMPARED_ELSEWHERE.values(), *DRIVERS]))
    driven = {name for names in DRIVERS.values() for name in names}
    assert driven <= set(BY_NAME), "drivers name routes the registry does not hold"
    assert {r.name for r in ROUTES if not r.corpus} <= driven, "routes that nothing runs"
    assert len(BY_NAME) == len(ROUTES)
