"""The frozenset routes of the suite's five heaviest checks.

These are the bodies the suite ran before its checks moved to int
bitmasks: refinement against base-set covering and its monotonicity,
the reduction of a constraint to its meet, neighbourhoods on points,
and the representation scan with a representation test that asks
S.meet for each pair.  They call the library through the same bindings
as the suite (suite._refines, suite._below_orthogonal, stone.*), so a
fault injected there reaches both routes, and the tests hold the suite's
verdicts to these on clean and on faulty libraries alike.  The masks
those kernels return are read here as frozensets of elements.
"""

from __future__ import annotations

import itertools

from slat import stone, suite
from slat.core import Semilattice, _members, down, star
from slat.filters import enumerate_filters, enumerate_ultrafilters

CHECKS = (
    "refinement_matches_base_cover",
    "refinement_monotone",
    "representations_are_filters",
    "constraint_reduces_to_meet",
    "nbhd_agrees_on_points",
)


def _subsets(xs, max_size):
    for r in range(min(len(xs), max_size) + 1):
        yield from itertools.combinations(xs, r)


def is_representation(S: Semilattice, values: tuple[int, ...]) -> bool:
    return (len(values) == len(S) and all(v in (0, 1) for v in values)
            and values[S.zero] == 0 and values[S.one] == 1
            and all(values[S.meet(e, f)] == values[e] * values[f]
                    for e in S.elements() for f in S.elements()))


def verdicts(S: Semilattice) -> dict[str, bool]:
    """Pass (True) or fail of each check in CHECKS on one instance."""
    space = stone.build_space(S)
    base = [frozenset(_members(b)) for b in space.base]  # the points, from the space's masks
    all_filters = enumerate_filters(S)
    point_of = {U.carrier: i for i, U in enumerate(enumerate_ultrafilters(S))}
    out = {}

    results: dict[tuple[int, frozenset], bool] = {}
    ok = True
    for f in S.nonzero():
        for es in _subsets(list(S.elements()), 3):
            got = suite._refines(S, f, es)
            want = base[f] <= frozenset().union(*(base[e] for e in es)) \
                if es else not base[f]
            results[(f, frozenset(es))] = got
            if got != want:
                ok = False
    out["refinement_matches_base_cover"] = ok

    elements = frozenset(S.elements())
    out["refinement_monotone"] = all(
        results[(f, A)] <= results[(f, A | {x})]
        for (f, A) in results if len(A) < 3
        for x in elements - A)

    ok = True
    for F in all_filters:
        if stone.filter_of_rep(S, stone.rep_of_filter(S, F)) != F:
            ok = False
    rep_count = 0
    for bits in itertools.product((0, 1), repeat=len(S)):
        if is_representation(S, bits):
            rep_count += 1
            if stone.rep_of_filter(S, stone.filter_of_rep(S, stone.Representation(S, bits))).values != bits:
                ok = False
    out["representations_are_filters"] = ok and rep_count == len(all_filters)

    below = [down(S, {x}) for x in S.elements()]
    orthogonal = [star(S, y) for y in S.elements()]
    by_meet: dict[tuple[int, tuple[int, ...]], frozenset] = {}
    ok = True
    for X in _subsets(list(S.elements()), 2):
        below_X = elements.intersection(*(below[x] for x in X))
        m = S.meet_all(X)
        for Y in _subsets(list(S.elements()), 2):
            if (m, Y) not in by_meet:
                by_meet[m, Y] = frozenset(_members(suite._below_orthogonal(S, m, Y)))
            if below_X.intersection(*(orthogonal[y] for y in Y)) != by_meet[m, Y]:
                ok = False
    out["constraint_reduces_to_meet"] = ok

    ok = True
    for e in S.nonzero():
        strictly_below = [x for x in S.elements() if S.leq(x, e)]
        for es in _subsets(strictly_below, 2):
            hood = [frozenset(_members(S.up[g])) for g in _members(stone._nbhd_generators(S, e, es))]
            hood_points = {point_of[A] for A in hood if A in point_of}
            for A in hood:
                if A not in point_of:
                    continue
                picks = []
                for x in es:
                    picks.append(min(c for c in A if S.meet(c, x) == S.zero))
                i = S.meet_all([e] + picks)
                if i not in A or not base[i] <= hood_points:
                    ok = False
    out["nbhd_agrees_on_points"] = ok
    return out
