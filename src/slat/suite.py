"""Exhaustive verification battery over catalog instances.

Each check computes both sides of a claimed equivalence through
independent routes (order scans on one side, ultrafilter-space data on
the other) and reports disagreements as counterexamples, serialized in
the same text format the parser accepts so a failure replays directly.

Inside the heaviest checks, sets of elements and of points are int
bitmasks (bit i for element or point i), converted once per instance
from what the library returns; the library routes are still called
with their members, so only the representation inside each route
changes and the two routes stay independent.  The frozenset bodies are
kept as the test oracle tests/suite_oracle.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable

from . import classify, stone
from .catalog import CatalogSpec, enumerate_catalog
from .core import Semilattice, _members, arrow, constrained_set, down, nonzero_pairs_below, star
from .errors import SlatError
from .filters import (
    Filter,
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


def _strict_base_monotone(S: Semilattice, space: stone.UltrafilterSpace) -> bool:
    return all(
        space.base[f] < space.base[e]
        for e, f in nonzero_pairs_below(S))


def _mask(xs: Iterable[int]) -> int:
    return reduce(or_, (1 << x for x in xs), 0)


def _check_instance(S: Semilattice, report: VerificationReport) -> None:
    space = stone.build_space(S)
    elements = S.elements()
    base = [_mask(b) for b in space.base]  # point masks
    orthogonal = [_mask(star(S, y)) for y in elements]
    ultra = enumerate_ultrafilters(S)
    zd = classify.is_zero_disjunctive(S)
    sep = stone.kappa_injective(space)

    # Filters are exactly the non-zero principal up-sets.
    if len(S) <= 6:
        scanned = set()
        for r in range(1, len(S) + 1):
            for sub in itertools.combinations(S.elements(), r):
                if is_filter(S, frozenset(sub)):
                    scanned.add(frozenset(sub))
        listed = {F.carrier for F in enumerate_filters(S)}
        report.record("filters_are_principal", scanned == listed, S,
                      f"scan={sorted(map(sorted, scanned))} listed={sorted(map(sorted, listed))}")

    # Ultrafilter criterion agrees with literal maximality.
    all_filters = enumerate_filters(S)
    agree = True
    for F in all_filters:
        maximal = not any(F.carrier < G.carrier for G in all_filters)
        if is_ultrafilter(S, F) != maximal:
            agree = False
            break
    report.record("ultrafilter_criterion_is_maximality", agree, S,
                  "criterion and maximality disagree")

    # Every non-zero element extends to an ultrafilter containing it.
    ok = True
    ultra_carriers = {F.carrier for F in ultra}
    for e in S.nonzero():
        U = extend_to_ultrafilter(S, e)
        if e not in U.carrier or U.carrier not in ultra_carriers:
            ok = False
            break
    report.record("extension_reaches_ultrafilter", ok, S, "extension broke")

    # Ultrafilters are tight, and tight filters are exactly ultrafilters.
    report.record("ultrafilters_are_tight",
                  all(is_tight(S, F) for F in ultra), S, "an ultrafilter is not tight")
    tight = tight_filters(S)
    report.record("tight_equals_ultrafilters",
                  {F.carrier for F in tight} == ultra_carriers, S,
                  f"tight={[F.labels() for F in tight]} ultra={[F.labels() for F in ultra]}")

    # The classification properties coincide, three ways.
    report.record("zero_disjunctive_iff_separative", zd == sep, S,
                  f"zero_disjunctive={zd} separative={sep}")
    report.record("strict_base_monotonicity_iff_zero_disjunctive",
                  _strict_base_monotone(S, space) == zd, S, "monotonicity mismatch")
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
        if not W or not all(S.leq(w, e) and S.meet(w, f) == S.zero and w != S.zero for w in W):
            ok = False
            break
        if not arrow(S, e, W + [f]):
            ok = False
            break
    report.record("trapping_witnesses_valid", ok, S, "witness family fails its contract")

    # Refinement matches base-set covering for all small families: a
    # family's base sets cover K(f) iff no point of K(f) lies outside
    # their union, and the empty family covers only an empty K(f).
    families = [(es, _mask(es), reduce(or_, (base[e] for e in es), 0))
                for es in _subsets(elements, 3)]
    # Refinement is monotone in the family.  The families form a downward
    # closed set, so every A < B among them is a chain of one-element
    # steps inside it, and checking the steps checks every pair.  A false
    # result bounds nothing, so only the true ones are stepped from:
    # step[k] marks the families one element above family k, and the
    # families that the true ones step to must all be true.
    index = {A: k for k, (_, A, _) in enumerate(families)}
    step = [reduce(or_, (1 << index[A | 1 << x] for x in elements if not A >> x & 1), 0)
            if len(es) < 3 else 0
            for es, A, _ in families]
    ok = mono = True
    for f in S.nonzero():
        true = 0
        for k, (es, _, cover) in enumerate(families):
            got = arrow(S, f, es)
            if got:
                true |= 1 << k
            if got != (not base[f] & ~cover):
                ok = False
        stepped = reduce(or_, map(step.__getitem__, _members(true)), 0)
        mono = mono and not stepped & ~true
    report.record("refinement_matches_base_cover", ok, S, "refinement mismatch")
    report.record("refinement_monotone", mono, S, "monotonicity broke")

    # Order embeds in base-set containment via singleton refinement.
    ok = all(
        (space.base[e] <= space.base[f]) == arrow(S, e, [f])
        for e in S.nonzero() for f in S.nonzero())
    report.record("order_bridge", ok, S, "containment vs refinement mismatch")

    # Base sets obey the meet law (also verified inside build_space).
    ok = all(
        space.base[S.meet(e, f)] == space.base[e] & space.base[f]
        for e in S.elements() for f in S.elements())
    report.record("base_meet_law", ok, S, "base sets break the meet law")

    # Distinct points separate by disjoint base sets.
    ok = True
    for F, G in itertools.combinations(space.points, 2):
        e, f = stone.hausdorff_witness(space, F, G)
        if e not in F.carrier or f not in G.carrier or space.base[e] & space.base[f]:
            ok = False
    report.record("hausdorff_witnesses", ok, S, "separation failed")

    # Clopens decompose into base sets; with injectivity that is the
    # embedding-and-joins picture, which holds exactly when separative.
    algebra = stone.clopen_algebra(space)
    decomposes = True
    for C in algebra.elements:
        try:
            parts = stone.join_decomposition(space, C)
        except SlatError:
            decomposes = False
            break
        if frozenset().union(*(space.base[e] for e in parts)) != C:
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
    # produced, fails this check; it is not an input error.
    ok = True
    rep_count = 0
    try:
        for F in all_filters:
            if stone.filter_of_rep(S, stone.rep_of_filter(S, F)) != F:
                ok = False
        for bits in itertools.product((0, 1), repeat=len(S)):
            if stone.is_representation(S, bits):
                rep_count += 1
                if stone.rep_of_filter(S, stone.filter_of_rep(S, stone.Representation(S, bits))).values != bits:
                    ok = False
        ok = ok and rep_count == len(all_filters)
        detail = f"{rep_count} representations vs {len(all_filters)} filters"
    except SlatError as exc:
        ok, detail = False, f"a round trip raised: {exc}"
    report.record("representations_are_filters", ok, S, detail)

    # Constraining by a finite set equals constraining by its meet: the
    # set side intersects down-sets and orthogonal sets as defined, the
    # meet side asks the library once per distinct (meet, Y).
    full = (1 << len(S)) - 1
    below = [_mask(down(S, {x})) for x in elements]
    small = list(_subsets(elements, 2))
    orthogonal_Y = [reduce(and_, (orthogonal[y] for y in Y), full) for Y in small]
    by_meet: dict[int, list[int]] = {}
    ok = True
    for X in small:
        below_X = reduce(and_, (below[x] for x in X), full)
        m = S.meet_all(X)
        if m not in by_meet:
            by_meet[m] = [_mask(constrained_set(S, {m}, Y)) for Y in small]
        if [below_X & o for o in orthogonal_Y] != by_meet[m]:
            ok = False
    report.record("constraint_reduces_to_meet", ok, S, "reduction mismatch")

    # Filter-space neighbourhoods restrict to unions of base sets on points.
    point_of = {F.carrier: i for i, F in enumerate(space.points)}
    carrier = [_mask(F.carrier) for F in space.points]
    ok = True
    for e in S.nonzero():
        strictly_below = [x for x in elements if S.leq(x, e)]
        for es in _subsets(strictly_below, 2):
            hood = [point_of[F.carrier] for F in stone.filterspace_nbhd(S, e, es)
                    if F.carrier in point_of]
            hood_points = _mask(hood)
            for p in hood:
                # pick the smallest member of the point orthogonal to each x
                choices = [carrier[p] & orthogonal[x] for x in es]
                if not all(choices):
                    ok = False
                    continue
                i = S.meet_all([e] + [(c & -c).bit_length() - 1 for c in choices])
                if not carrier[p] >> i & 1 or base[i] & ~hood_points:
                    ok = False
    report.record("nbhd_agrees_on_points", ok, S, "interior witness failed")


def run_suite(spec: CatalogSpec) -> VerificationReport:
    """Run the battery over the whole catalog for this spec."""
    report = VerificationReport()
    for S in enumerate_catalog(spec):
        report.instances[len(S)] = report.instances.get(len(S), 0) + 1
        _check_instance(S, report)
    return report
