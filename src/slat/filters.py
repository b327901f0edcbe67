"""Filters of a finite bounded meet semilattice.

A filter is a non-empty, meet-closed, upward-closed set of elements that
excludes zero.  In a finite semilattice every filter is the up-set of its
smallest member, its generator, and distinct non-zero generators give
distinct filters; the test suite asserts this against a raw subset scan.
So a Filter is the pair (lattice, generator), its members are the set
bits of up[generator], and listings read the generators in the order
S.filter_generators keeps.  Being principal also lets tightness be
decided one element at a time, with no scan over excluded sets; the
tests keep that scan as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .core import Semilattice, _below_orthogonal, _members, _row_at, _set_key
from .errors import NotAFilterError, ZeroElementError


@dataclass(frozen=True)
class Filter:
    """The filter up(generator) of a non-zero element; carrier is a
    read-only frozenset view of its members."""

    lattice: Semilattice
    generator: int

    def __post_init__(self) -> None:
        S = self.lattice
        if _row_at(S, S.down, self.generator) == 1 << S.zero:  # only the zero's row is {0}
            raise ZeroElementError("zero generates no filter")

    @classmethod
    def from_carrier(cls, S: Semilattice, A: Iterable[int]) -> "Filter":
        """The filter whose members are A, or NotAFilterError."""
        A = frozenset(A)
        if not is_filter(S, A):
            raise NotAFilterError(f"carrier {tuple(sorted(A))} fails the filter axioms")
        return cls(S, S.meet_all(A))

    @classmethod
    def _of(cls, S: Semilattice, g: int) -> "Filter":
        """The filter up(g) of a g that the caller knows is non-zero, as
        every listed generator is; nothing is checked."""
        F = object.__new__(cls)
        F.__dict__.update(lattice=S, generator=g)
        return F

    @cached_property
    def carrier(self) -> frozenset:
        return frozenset(self)

    def __iter__(self) -> Iterator[int]:
        return iter(_members(self.lattice.up[self.generator]))

    def labels(self) -> tuple[str, ...]:
        return self.lattice.labels_for(self)

    def sort_key(self) -> tuple:
        return _set_key(self.lattice.up[self.generator])


def is_filter(S: Semilattice, A: Iterable[int]) -> bool:
    """Check the filter axioms for a carrier set.

    A finite filter holds its meet g and everything above it, so it is
    the up-set of g; conversely every up-set of a non-zero g is a filter.
    Every member of A lies above g, so A is up(g) iff the two have
    equally many members.
    """
    A = frozenset(A)
    if not A or S.zero in A or min(A) < 0 or max(A) >= len(S):
        return False
    return S.up[S.meet_all(A)].bit_count() == len(A)


def _require_filter(S: Semilattice, F: Filter) -> None:
    if F.lattice is not S and F.lattice != S:
        raise NotAFilterError(f"filter {F.labels()} belongs to another semilattice")


def principal_filter(S: Semilattice, e: int) -> Filter:
    """The up-set of a non-zero element."""
    return Filter(S, e)


def enumerate_filters(S: Semilattice) -> list[Filter]:
    """All filters up(g), g != 0, smallest carriers first (S.filter_generators)."""
    return [Filter._of(S, g) for g in S.filter_generators]


def is_ultrafilter(S: Semilattice, F: Filter) -> bool:
    """Maximality via the meet criterion.

    F is an ultrafilter iff it already contains every element whose meet
    with each member of F is non-zero.  The suite asserts this agrees
    with literal maximality among all filters.  Every member of F lies
    above its generator g, so b meets all of F non-trivially iff b meets
    g non-trivially: F is maximal iff each b lies above g or in star(g).
    """
    _require_filter(S, F)
    g = F.generator
    return S.up[g] | S.star[g] == (1 << len(S)) - 1


def extend_to_ultrafilter(S: Semilattice, e: int) -> Filter:
    """Grow the principal filter of e to an ultrafilter.

    Deterministic: repeatedly adjoin the smallest-index element compatible
    with the current generator.  The generator strictly decreases, so this
    terminates with the meet criterion satisfied.  Each meet is read off
    the down rows, so no meet table is derived.
    """
    if _row_at(S, S.down, e) == 1 << S.zero:  # as in Filter, with e checked
        raise ZeroElementError("zero extends to no ultrafilter")
    g = e
    full = (1 << len(S)) - 1
    while candidates := full ^ (S.up[g] | S.star[g]):
        g = S.meet_all((g, (candidates & -candidates).bit_length() - 1))
    return principal_filter(S, g)


def enumerate_ultrafilters(S: Semilattice) -> list[Filter]:
    return [F for F in enumerate_filters(S) if is_ultrafilter(S, F)]


def tight_violations(S: Semilattice, F: Filter) -> Iterator[int]:
    """Yield, in index order, each x in F whose down-set is covered by
    down(x) - F - {0}: all of F when its generator g is not an atom,
    nothing when it is.

    This is the single-element criterion: F is tight iff nothing is
    yielded.  A finite pivot set X in F constrains like its meet, which
    lies in F, so single pivots suffice.  The general definition also
    lets an excluded set Y disjoint from F shrink the constrained set,
    but for F = up(g) that adds no violation.  If some (x, Y) had a cover Z avoiding F while g is an
    atom, then g, which lies below x and meets nothing outside F, would
    be a non-zero member of the constrained set meeting no member of Z.
    So any violation makes g a non-atom, and then Y = {} gives one at
    every x in F: each non-zero e below x either lies outside F or sits
    above g and meets the non-zero elements below g.  So the cover test
    runs once, at g, where down(g) - F - {0} is down(g) - {g, 0}: it
    covers iff g is not an atom.
    """
    _require_filter(S, F)
    g = F.generator
    zero = 1 << S.zero
    # down(g) - {g, 0} covers iff only zero is orthogonal to all of it.
    if _below_orthogonal(S, g, _members(S.down[g] & ~(1 << g | zero))) == zero:
        yield from F


def is_tight(S: Semilattice, F: Filter) -> bool:
    """A filter is tight when no cover of a set it constrains avoids it.

    On a finite semilattice this reduces to the single-element criterion
    of tight_violations, so tight filters are exactly the ultrafilters.
    """
    return next(tight_violations(S, F), None) is None


def tight_filters(S: Semilattice) -> list[Filter]:
    return [F for F in enumerate_filters(S) if is_tight(S, F)]
