"""Exhaustive verification battery over catalog instances.

Each check computes both sides of a claimed equivalence through
independent routes (order scans on one side, ultrafilter-space data on
the other) and reports disagreements as counterexamples, serialized in
the same text format the parser accepts so a failure replays directly.

Sets of elements and of points are int bitmasks (bit i for element or
point i), as the library stores them: base sets, the up rows of filter
generators, and the down and star rows.  The library routes are still
called with their members, so the two routes of each check stay
independent.  The frozenset bodies of the heaviest checks are kept as
the test oracle tests/suite_oracle.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from . import classify, stone
from .catalog import CatalogSpec, enumerate_catalog
from .core import Semilattice, _members, arrow, constrained_set, nonzero_pairs_below
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
    families = [(es, sum(1 << e for e in es), reduce(or_, (base[e] for e in es), 0))
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
        (not base[e] & ~base[f]) == arrow(S, e, [f])
        for e in S.nonzero() for f in S.nonzero())
    report.record("order_bridge", ok, S, "containment vs refinement mismatch")

    # Base sets obey the meet law (also verified inside build_space).
    ok = all(
        base[S.meet(e, f)] == base[e] & base[f]
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
    below = S.down
    small = list(_subsets(elements, 2))
    orthogonal_Y = [reduce(and_, (orthogonal[y] for y in Y), full) for Y in small]
    by_meet: dict[int, list[int]] = {}
    ok = True
    for X in small:
        below_X = reduce(and_, (below[x] for x in X), full)
        m = S.meet_all(X)
        if m not in by_meet:
            by_meet[m] = [sum(1 << x for x in constrained_set(S, {m}, Y)) for Y in small]
        if [below_X & o for o in orthogonal_Y] != by_meet[m]:
            ok = False
    report.record("constraint_reduces_to_meet", ok, S, "reduction mismatch")

    # Filter-space neighbourhoods restrict to unions of base sets on points.
    point_of = {F.generator: i for i, F in enumerate(space.points)}
    ok = True
    for e in S.nonzero():
        strictly_below = [x for x in elements if S.leq(x, e)]
        for es in _subsets(strictly_below, 2):
            hood = [F.generator for F in stone.filterspace_nbhd(S, e, es) if F.generator in point_of]
            hood_points = sum(1 << point_of[g] for g in hood)
            for g in hood:
                # pick the smallest member of the point up(g) orthogonal to each x
                choices = [up[g] & orthogonal[x] for x in es]
                if not all(choices):
                    ok = False
                    continue
                i = S.meet_all([e] + [(c & -c).bit_length() - 1 for c in choices])
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
