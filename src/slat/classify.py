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
    Semilattice, _below_orthogonal, _check_pair_below, _members, arrow, constrained_set,
    nonzero_pairs_below)
from .errors import TheoremViolationError
from .filters import tight_filters


def is_zero_disjunctive(S: Semilattice) -> bool:
    """Whenever 0 != e < f, some non-zero element below f avoids e."""
    return all(len(constrained_set(S, (f,), (e,))) > 1 for f, e in nonzero_pairs_below(S))


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
    if W and arrow(S, e, W + [f]):
        return W
    return None


def satisfies_trapping(S: Semilattice) -> bool:
    return all(trapping_witness(S, e, f) is not None for e, f in nonzero_pairs_below(S))


@dataclass(frozen=True)
class ClassificationReport:
    """Classification verdicts plus the per-pair trapping witnesses.

    witnesses holds one entry per strict non-zero pair (e, f), carrying
    the witness family or None when the pair is untrapped.
    """

    zero_disjunctive: bool
    separative: bool
    meet_separation: bool
    trapping: bool
    tight_equals_ultrafilters: bool
    witnesses: tuple[tuple[tuple[int, int], tuple[int, ...] | None], ...]

    def booleans(self) -> dict[str, bool]:
        return {
            "zero_disjunctive": self.zero_disjunctive,
            "separative": self.separative,
            "meet_separation": self.meet_separation,
            "trapping": self.trapping,
            "tight_equals_ultrafilters": self.tight_equals_ultrafilters,
        }


def is_compactable_finite(S: Semilattice) -> ClassificationReport:
    """Classify a finite instance, failing loudly on internal mismatch.

    On finite instances tight filters and ultrafilters must coincide, and
    the 0-disjunctive, separative and trapping verdicts must agree; a
    disagreement means a bug, not a finding, hence the raise.  The
    ultrafilter space is built once: the separative verdict and the
    ultrafilters are both read from it.
    """
    zd = is_zero_disjunctive(S)
    space = stone.build_space(S)
    sep = stone.kappa_injective(space)
    ms = meet_separation(S)
    witnesses = tuple(
        ((e, f), tuple(w) if (w := trapping_witness(S, e, f)) is not None else None)
        for e, f in nonzero_pairs_below(S))
    trap = all(w is not None for _, w in witnesses)
    ultra = {U.carrier for U in space.points}
    tight = {F.carrier for F in tight_filters(S)}
    teu = ultra == tight
    if zd != sep:
        raise TheoremViolationError(
            f"0-disjunctive={zd} but separative={sep} on a finite instance")
    if trap != sep:
        raise TheoremViolationError(
            f"trapping={trap} but separative={sep} on a finite instance")
    if not teu:
        odd = sorted(tuple(sorted(c)) for c in ultra ^ tight)
        raise TheoremViolationError(
            f"tight filters differ from ultrafilters at carriers {odd}")
    return ClassificationReport(zd, sep, ms, trap, teu, witnesses)
