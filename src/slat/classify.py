"""Decidable classification properties of finite bounded meet semilattices.

The properties here are pairwise linked on finite instances: being
0-disjunctive, having an injective base-set map, and admitting trapping
witnesses for every strict pair all coincide.  Report generation refuses
to return a report whose internal cross-checks disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stone
from .core import (
    Semilattice, _below_orthogonal, _check_pair_below, _members, _nonzero_cover_pairs, _refines,
    constrained_set)
from .errors import TheoremViolationError
from .filters import tight_filters


def is_zero_disjunctive(S: Semilattice) -> bool:
    """Whenever 0 != f < e, some non-zero element below e avoids f.

    Only pairs (e, c) with c a lower cover of e are tested.  Given
    0 != f < e, take a lower cover c of e with f <= c.  Anything that
    avoids c also avoids f, since x meet f <= x meet c, so the non-zero
    element below e that avoids c avoids f too.
    """
    # The public constrained_set, not its kernel _below_orthogonal: the
    # benchmark's smoke test (PREDICTIONS in bench/test_bench.py) expects
    # core.constrained_set to be called on the catalog and graph-classify
    # workloads, so this call stays until that test is re-pinned.
    return all(len(constrained_set(S, (e,), (c,))) > 1 for e, c in _nonzero_cover_pairs(S))


def is_separative(S: Semilattice) -> bool:
    """Distinct elements own distinct base sets in the ultrafilter space."""
    return stone.kappa_injective(stone.build_space(S))


def meet_separation(S: Semilattice) -> bool:
    """Any two distinct elements are told apart by a third.

    For e != f some g meets exactly one of them non-trivially.  The
    symmetric form is deliberate; the one-sided variant degenerates.
    Such a g exists iff star(e) != star(f), so the star rows must be
    pairwise distinct.
    """
    return len(set(S.star)) == len(S)


def trapping_witness(S: Semilattice, e: int, f: int) -> list[int] | None:
    """Witness family for the pair 0 != f < e, or None.

    The candidate is maximal: every non-zero element below e orthogonal
    to f.  If e does not refine into candidate + {f}, no smaller family
    works either, and when the candidate is empty there is nothing to
    witness with, so the pair is untrapped.
    """
    _check_pair_below(S, e, f)
    W = _members(_below_orthogonal(S, e, (f,)) & ~(1 << S.zero))
    if W and _refines(S, e, W + [f]):
        return W
    return None


def satisfies_trapping(S: Semilattice) -> bool:
    """Every pair 0 != f < e has a trapping witness.

    Only pairs (e, c) with c a lower cover of e are tested.  Given
    0 != f < e, take a lower cover c of e with f <= c, and write M(e, y)
    for the candidate of (e, y).  M(e, c) lies inside M(e, f), because
    star(c) is inside star(f).  Now let x != 0 be below e.  As e refines
    into M(e, c) + {c}, either x meets a member of M(e, c), or x meet c
    != 0.  In the second case, either x meets f, or x meet c is a
    non-zero member of M(e, f) that x meets.  So e refines into
    M(e, f) + {f}.
    """
    return all(trapping_witness(S, e, c) is not None for e, c in _nonzero_cover_pairs(S))


@dataclass(frozen=True)
class ClassificationReport:
    """The classification verdicts of a finite instance."""

    zero_disjunctive: bool
    separative: bool
    meet_separation: bool
    trapping: bool
    tight_equals_ultrafilters: bool

    def booleans(self) -> dict[str, bool]:
        # The fields in declaration order.  dataclasses.asdict gives the
        # same dict but deep-copies each value, some 30 times slower.
        return dict(vars(self))


def is_compactable_finite(S: Semilattice) -> ClassificationReport:
    """Classify a finite instance, failing loudly on internal mismatch.

    On finite instances tight filters and ultrafilters must coincide, and
    the 0-disjunctive, separative and trapping verdicts must agree; a
    disagreement means a bug, not a finding, hence the raise.  The
    ultrafilter space is built once: the separative verdict and the
    ultrafilters are both read from it.  A filter is its generator, so
    the two listings are compared as sets of generators.
    """
    zd = is_zero_disjunctive(S)
    space = stone.build_space(S)
    sep = stone.kappa_injective(space)
    ms = meet_separation(S)
    trap = satisfies_trapping(S)
    ultra = {U.generator for U in space.points}
    tight = {F.generator for F in tight_filters(S)}
    teu = ultra == tight
    if zd != sep:
        raise TheoremViolationError(
            f"0-disjunctive={zd} but separative={sep} on a finite instance")
    if trap != sep:
        raise TheoremViolationError(
            f"trapping={trap} but separative={sep} on a finite instance")
    if not teu:
        odd = sorted(tuple(_members(S.up[g])) for g in ultra ^ tight)
        raise TheoremViolationError(
            f"tight filters differ from ultrafilters at carriers {odd}")
    return ClassificationReport(zd, sep, ms, trap, teu)
