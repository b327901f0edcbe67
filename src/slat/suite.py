"""Exhaustive verification battery over catalog instances.

Each check computes both sides of a claimed equivalence through
independent routes (order scans on one side, ultrafilter-space data on
the other) and reports disagreements as counterexamples, serialized in
the same text format the parser accepts so a failure replays directly.

Sets of elements and of points are int bitmasks (bit i for element or
point i), as the library stores them: base sets, the up rows of filter
generators, and the down and star rows.  Where a library route has a
mask kernel, the suite calls the kernel (core._refines for arrow,
core._below_orthogonal for constrained_set, stone._nbhd_generators for
filterspace_nbhd), so no frozenset or Filter is built only to be read
back.  Each check still reaches its two sides by independent routes.
The frozenset bodies of the heaviest checks are kept as the test oracle
tests/suite_oracle.py.

What a check asks the library is fixed by what it verifies, so the
suite's cost is its library calls.  On n elements an instance asks
is_representation of all 2^n vectors of 0s and 1s, and the arrow kernel
of each non-zero f with each family of at most three elements.  The heavy
checks make their calls through one map over the argument lists, and
what depends only on n is built once per size (_size_tables): the
families of at most three elements, the masks that step them up by one
element, and the 2^n vectors themselves.

The calls stay, and so the work goes into making each one cheap: the
kernels run their loops in one frame, with their index checks written
in, and the suite skips only its own work, such as a neighbourhood with
no points to check, never a call.  The 2^n scan stays too: a wrong
is_representation may err on a single vector, such as the all-ones
one, which sends zero to 1 and which no search that prunes on the laws
would ever ask.  test_suite.py pins the number of calls to each route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import repeat
from operator import and_, or_
from typing import NamedTuple

from . import classify, stone
from .catalog import CatalogSpec, enumerate_catalog
from .core import Semilattice, _below_orthogonal, _members, _refines, _transpose, nonzero_pairs_below
from .errors import SlatError
from .filters import (
    enumerate_filters,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    is_filter,
    is_tight,
    is_ultrafilter,
    tight_filters,
)


@dataclass
class VerificationReport:
    instances: dict[int, int] = field(default_factory=dict)
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [pass, fail]
    counterexamples: list[tuple[str, str, str]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.counterexamples

    def record(self, name: str, passed: bool, S: Semilattice, detail: str) -> None:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if passed else 1] += 1
        if not passed:
            self.counterexamples.append((name, S.to_text(), detail))

    def render(self, kv: bool = False) -> str:
        lines = []
        if kv:
            for n in sorted(self.instances):
                lines.append(f"instances_size_{n}={self.instances[n]}")
            for name, (p, f) in self.checks.items():
                lines.append(f"check_{name}_pass={p}")
                lines.append(f"check_{name}_fail={f}")
            lines.append(f"counterexamples={len(self.counterexamples)}")
            lines.append(f"result={'pass' if self.ok() else 'fail'}")
        else:
            for n in sorted(self.instances):
                lines.append(f"instances size={n} count={self.instances[n]}")
            for name, (p, f) in self.checks.items():
                lines.append(f"check {name}: pass={p} fail={f}")
            lines.append(f"counterexamples: {len(self.counterexamples)}")
            for name, text, detail in self.counterexamples:
                lines.append(f"--- {name}: {detail}")
                lines.extend("    " + ln for ln in text.strip().splitlines())
            lines.append("result: " + ("pass" if self.ok() else "fail"))
        return "\n".join(lines) + "\n"


def _subsets(xs, max_size):
    for r in range(min(len(xs), max_size) + 1):
        yield from itertools.combinations(xs, r)


class _SizeTables(NamedTuple):
    """What the checks sweep that depends only on the size n.  A family
    of elements A is bit A (A read as a mask) of a 2^n-bit family mask."""

    pairs: tuple[tuple[int, ...], ...]  # the families of at most two elements
    families: tuple[tuple[int, ...], ...]  # the families of at most three elements
    family_bits: tuple[int, ...]  # family A -> 1 << A
    holding: tuple[int, ...]  # element x -> the families that hold x
    lacking: tuple[int, ...]  # element x -> the families of at most two that lack x
    vectors: tuple[tuple[int, ...], ...]  # the 2^n vectors of 0s and 1s, in product order


@cache
def _size_tables(n: int) -> _SizeTables:
    elements = range(n)
    families = tuple(_subsets(elements, 3))
    family_bits = tuple(1 << sum(1 << x for x in es) for es in families)
    holding = [0] * n
    lacking = [0] * n
    for es, bit in zip(families, family_bits):
        for x in elements:
            if x in es:
                holding[x] |= bit
            elif len(es) < 3:
                lacking[x] |= bit
    return _SizeTables(tuple(_subsets(elements, 2)), families, family_bits, tuple(holding), tuple(lacking),
                       tuple(itertools.product((0, 1), repeat=n)))


def _check_instance(S: Semilattice, report: VerificationReport) -> None:
    space = stone.build_space(S)
    elements = S.elements()
    base, up, orthogonal = space.base, S.up, S.star
    ultra = enumerate_ultrafilters(S)
    zd = classify.is_zero_disjunctive(S)
    sep = stone.kappa_injective(space)

    # Filters are exactly the non-zero principal up-sets.
    if len(S) <= 6:
        scanned = {frozenset(sub) for sub in _subsets(elements, len(S)) if is_filter(S, sub)}
        listed = {F.carrier for F in enumerate_filters(S)}
        report.record("filters_are_principal", scanned == listed, S,
                      f"scan={sorted(map(sorted, scanned))} listed={sorted(map(sorted, listed))}")

    # Ultrafilter criterion agrees with literal maximality.
    all_filters = enumerate_filters(S)
    rows = [up[F.generator] for F in all_filters]
    agree = all(is_ultrafilter(S, F) == (not any(row != other and not row & ~other for other in rows))
                for F, row in zip(all_filters, rows))
    report.record("ultrafilter_criterion_is_maximality", agree, S,
                  "criterion and maximality disagree")

    # Every non-zero element extends to an ultrafilter containing it.
    ok = True
    ultra_generators = {F.generator for F in ultra}
    for e in S.nonzero():
        U = extend_to_ultrafilter(S, e)
        if not up[U.generator] >> e & 1 or U.generator not in ultra_generators:
            ok = False
            break
    report.record("extension_reaches_ultrafilter", ok, S, "extension broke")

    # Ultrafilters are tight, and tight filters are exactly ultrafilters.
    report.record("ultrafilters_are_tight",
                  all(is_tight(S, F) for F in ultra), S, "an ultrafilter is not tight")
    tight = tight_filters(S)
    report.record("tight_equals_ultrafilters",
                  {F.generator for F in tight} == ultra_generators, S,
                  f"tight={[F.labels() for F in tight]} ultra={[F.labels() for F in ultra]}")

    # The classification properties coincide, three ways.
    report.record("zero_disjunctive_iff_separative", zd == sep, S,
                  f"zero_disjunctive={zd} separative={sep}")
    strict = all(base[f] != base[e] and not base[f] & ~base[e] for e, f in nonzero_pairs_below(S))
    report.record("strict_base_monotonicity_iff_zero_disjunctive",
                  strict == zd, S, "monotonicity mismatch")
    report.record("meet_separation_iff_zero_disjunctive",
                  classify.meet_separation(S) == zd, S, "separation mismatch")
    report.record("trapping_iff_separative",
                  classify.satisfies_trapping(S) == sep, S, "trapping mismatch")

    # Trapping witnesses, where they exist, genuinely witness.
    ok = True
    for e, f in nonzero_pairs_below(S):
        W = classify.trapping_witness(S, e, f)
        if W is None:
            continue
        if not W or not all(S.leq(w, e) and orthogonal[f] >> w & 1 and w != S.zero for w in W):
            ok = False
            break
        if not _refines(S, e, W + [f]):
            ok = False
            break
    report.record("trapping_witnesses_valid", ok, S, "witness family fails its contract")

    # Refinement matches base-set covering for all small families: a
    # family's base sets cover K(f) iff each point of K(f) lies in the
    # base set of a member, that is iff the family meets the elements
    # that hold the point; and the empty family covers only an empty
    # K(f).  So hits[p] marks the families whose base sets hold point p,
    # and the families that cover K(f) are the AND of hits over K(f).
    tables = _size_tables(len(S))
    families = tables.families
    all_families = sum(tables.family_bits)
    hits = [reduce(or_, map(tables.holding.__getitem__, _members(held)), 0)
            for held in _transpose(base, len(space.points))]
    # Refinement is monotone in the family.  The families form a downward
    # closed set, so every A < B among them is a chain of one-element
    # steps inside it, and checking the steps checks every pair.  Adding
    # x to a family A that lacks it moves its bit from A to A + 2^x, so
    # one shift per element steps every true family at once, and the
    # families stepped to must all be true.
    shifts = [(lacking, 1 << x) for x, lacking in enumerate(tables.lacking)]
    ok = mono = True
    for f in S.nonzero():
        true = sum(itertools.compress(tables.family_bits, map(_refines, repeat(S), repeat(f), families)))
        ok = ok and true == reduce(and_, map(hits.__getitem__, _members(base[f])), all_families)
        mono = mono and not any((true & lacking) << by & ~true for lacking, by in shifts)
    report.record("refinement_matches_base_cover", ok, S, "refinement mismatch")
    report.record("refinement_monotone", mono, S, "monotonicity broke")

    # Order embeds in base-set containment via singleton refinement.
    ok = all(
        (not base[e] & ~base[f]) == _refines(S, e, [f])
        for e in S.nonzero() for f in S.nonzero())
    report.record("order_bridge", ok, S, "containment vs refinement mismatch")

    # Base sets obey the meet law (also verified inside build_space).
    ok = all(
        base[S.meet_all((e, f))] == base[e] & base[f]
        for e in S.elements() for f in S.elements())
    report.record("base_meet_law", ok, S, "base sets break the meet law")

    # Distinct points separate by disjoint base sets.
    ok = True
    for F, G in itertools.combinations(space.points, 2):
        e, f = stone.hausdorff_witness(space, F, G)
        if not up[F.generator] >> e & 1 or not up[G.generator] >> f & 1 or base[e] & base[f]:
            ok = False
    report.record("hausdorff_witnesses", ok, S, "separation failed")

    # Clopens decompose into base sets; with injectivity that is the
    # embedding-and-joins picture, which holds exactly when separative.
    # Only the atoms are tried: join_decomposition(C) picks every base set
    # inside C, so if every atom is a union of base sets, every clopen is.
    algebra = stone.clopen_algebra(space)
    decomposes = True
    for C in algebra.atoms:
        try:
            parts = stone.join_decomposition(space, C)
        except SlatError:
            decomposes = False
            break
        if reduce(or_, (base[e] for e in parts), 0) != C:
            decomposes = False
            break
    report.record("clopens_decompose", decomposes, S, "a clopen failed to decompose")
    embedded = stone.kappa_injective(space) and decomposes
    report.record("embedding_with_joins_iff_separative", embedded == sep, S,
                  f"embedded={embedded} separative={sep}")

    # Dense embedding exists exactly for 0-disjunctive instances.
    dense = stone.kappa_injective(space) and stone._dense_atoms(space, algebra)
    report.record("dense_embedding_iff_zero_disjunctive", dense == zd, S,
                  f"dense={dense} zero_disjunctive={zd}")

    # Filters and representations are the same data, both directions.  A
    # round trip that raises, because one side refuses what the other
    # produced, fails this check; it is not an input error.  Every 0/1
    # vector is asked: a wrong is_representation may err on one vector
    # only, such as the all-ones one that no search pruned on the laws
    # would reach.
    ok = True
    rep_count = 0
    try:
        for F in all_filters:
            if stone.filter_of_rep(S, stone.rep_of_filter(S, F)) != F:
                ok = False
        for bits in filter(partial(stone.is_representation, S), tables.vectors):
            rep_count += 1
            if stone.rep_of_filter(S, stone.filter_of_rep(S, stone.Representation(S, bits))).values != bits:
                ok = False
        ok = ok and rep_count == len(all_filters)
        detail = f"{rep_count} representations vs {len(all_filters)} filters"
    except SlatError as exc:
        ok, detail = False, f"a round trip raised: {exc}"
    report.record("representations_are_filters", ok, S, detail)

    # Constraining by a finite set equals constraining by its meet: the
    # set side intersects down-sets and orthogonal sets as defined, once
    # per distinct down row that the X give, and the meet side asks the
    # library's kernel once per distinct (meet, Y), mask for mask.
    full = (1 << len(S)) - 1
    small = tables.pairs
    below = S.down
    orthogonal_Y = [reduce(and_, map(orthogonal.__getitem__, Y), full) for Y in small]
    rows = dict.fromkeys((reduce(and_, map(below.__getitem__, X), full), S.meet_all(X)) for X in small)
    by_meet: dict[int, list[int]] = {}
    ok = True
    for below_X, m in rows:
        if m not in by_meet:
            by_meet[m] = list(map(_below_orthogonal, repeat(S), repeat(m), small))
        ok = ok and [below_X & o for o in orthogonal_Y] == by_meet[m]
    report.record("constraint_reduces_to_meet", ok, S, "reduction mismatch")

    # Filter-space neighbourhoods restrict to unions of base sets on points.
    point_of = {F.generator: i for i, F in enumerate(space.points)}
    points = sum(1 << g for g in point_of)  # the generators of the points
    # pick[g][x] is the smallest member of the point up(g) orthogonal to
    # x, or None where there is none.
    pick = {}
    for U in space.points:
        row = up[U.generator]
        pick[U.generator] = [(c & -c).bit_length() - 1 if (c := row & o) else None for o in orthogonal]
    ok = True
    for e in S.nonzero():
        sets = list(_subsets(_members(below[e]), 2))
        for es, hood in zip(sets, map(stone._nbhd_generators, repeat(S), repeat(e), sets)):
            hood &= points
            if not hood:  # no point of the space to check
                continue
            hood = _members(hood)
            hood_points = sum(1 << point_of[g] for g in hood)
            for g in hood:
                picks = [pick[g][x] for x in es]
                if None in picks:
                    ok = False
                    continue
                i = S.meet_all([e, *picks])
                if not up[g] >> i & 1 or base[i] & ~hood_points:
                    ok = False
    report.record("nbhd_agrees_on_points", ok, S, "interior witness failed")


def run_suite(spec: CatalogSpec) -> VerificationReport:
    """Run the battery over the whole catalog for this spec."""
    report = VerificationReport()
    for S in enumerate_catalog(spec):
        report.instances[len(S)] = report.instances.get(len(S), 0) + 1
        _check_instance(S, report)
    return report
