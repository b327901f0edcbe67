"""The ultrafilter space of a finite bounded meet semilattice.

Points are ultrafilters.  Each element e owns the base set K(e) of
ultrafilters containing it, and base sets generate the topology.  A set
of points is an int mask, bit i for point i.  The clopen algebra is its
atoms, and the Boolean laws and density are read off them.  Nothing
assumes the space is discrete; that it comes out discrete on finite
instances is observed by the test suite, not baked in.  Only listings
are exponential, and opens() refuses spaces over MAX_POINTS points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .core import Semilattice, _members, _refuse_index, _set_key, _transpose
from .errors import (
    BadBasisError,
    NotAFilterError,
    NotAHomomorphismError,
    NotARepresentationError,
    PreconditionFailedError,
    SamePointError,
    TheoremViolationError,
    TooLargeError,
    UndecomposableError,
)
from .filters import (
    Filter,
    _require_filter,
    enumerate_ultrafilters,
    is_ultrafilter,
)

MAX_POINTS = 16
_BITS = frozenset((0, 1))  # floats and bools equal to 0 and 1 hash as them


@dataclass(frozen=True)
class UltrafilterSpace:
    lattice: Semilattice
    points: tuple[Filter, ...]
    base: tuple[int, ...]  # indexed by element: the mask of the points whose filter holds it

    @cached_property
    def _point_of(self) -> dict[int, int]:
        return {U.generator: i for i, U in enumerate(self.points)}

    def point_index(self, F: Filter) -> int:
        i = self._point_of.get(F.generator)
        if i is None or self.points[i] != F:
            raise ValueError("not a point of this space")
        return i


def build_space(S: Semilattice) -> UltrafilterSpace:
    """Materialize the ultrafilter space: its points and base sets.

    K(e), the base set of e, holds the points whose ultrafilter holds e.
    The base-set laws hold by construction and are not re-checked here;
    the suite's base_meet_law check tests them.  Every point is up(g) for
    a non-zero g, so 0 lies in no point and 1 in every point: K(0) is
    empty and K(1) is the whole space.  A filter holds e and f iff it
    holds meet(e, f), being meet-closed and upward closed, so
    K(meet(e, f)) = K(e) & K(f).  That every non-zero element lies in
    some ultrafilter is a theorem about the enumeration (see
    extend_to_ultrafilter), so that one is checked.  Point i holds e iff
    e is in the up row of its generator, so the base sets are the
    transpose of the points' up rows.
    """
    points = tuple(enumerate_ultrafilters(S))
    base = tuple(_transpose([S.up[U.generator] for U in points], len(S)))
    for e in S.nonzero():
        if not base[e]:
            raise TheoremViolationError(
                f"non-zero element {S.labels[e]!r} lies in no ultrafilter")
    return UltrafilterSpace(S, points, base)


def kappa(space: UltrafilterSpace, e: int) -> int:
    """Base set of an element: the mask of the points whose ultrafilter contains it."""
    if not (0 <= e < len(space.lattice)):
        raise ValueError(f"element index {e} out of range")
    return space.base[e]


def kappa_injective(space: UltrafilterSpace) -> bool:
    return len(set(space.base)) == len(space.base)


def hausdorff_witness(space: UltrafilterSpace, F: Filter, G: Filter) -> tuple[int, int]:
    """Elements (e, f) with e in F, f in G and disjoint base sets.

    Deterministic: e is the smallest index in F but not G, and f is the
    smallest member of G orthogonal to e, which exists by maximality.
    """
    if F == G:
        raise SamePointError("need two distinct points")
    space.point_index(F)
    space.point_index(G)
    S = space.lattice
    only_F = S.up[F.generator] & ~S.up[G.generator]
    e = (only_F & -only_F).bit_length() - 1
    in_G = S.up[G.generator] & S.star[e]
    f = (in_G & -in_G).bit_length() - 1
    if space.base[e] & space.base[f]:
        raise TheoremViolationError("separating base sets intersect")
    return (e, f)


def opens(space: UltrafilterSpace) -> list[int]:
    """Every open set: all unions of base sets, exactly.

    Closes {} under union with each distinct base set in turn, so the
    work grows with the number of opens, not of base-set families.
    """
    if len(space.points) > MAX_POINTS:  # up to 2^points opens
        raise TooLargeError(f"opens are listed for up to {MAX_POINTS} points, got {len(space.points)}")
    found = {0}
    for b in set(space.base):
        found |= {o | b for o in found}
    return sorted(found, key=_set_key)


@dataclass(frozen=True)
class ClopenAlgebra:
    """The Boolean algebra of clopen point masks, as its atoms, whose unions are the clopens."""

    universe: int
    atoms: tuple[int, ...]

    def complement(self, a: int) -> int:
        return self.universe & ~a


def clopen_algebra(space: UltrafilterSpace) -> ClopenAlgebra:
    """The clopen atoms, read off the points' minimal neighbourhoods.

    The base sets are taken to form a base, as build_space's do (K(1) is
    every point, K(e) & K(f) = K(meet(e, f))).  Then U_p, the AND of the
    base sets holding p, is the least open set holding p, so a set is
    clopen iff no link p - q for q in U_p leaves it: iff it is a union of
    the links' connected components.  These are the atoms, singletons on
    a space from build_space, and each base set, being open, must be such
    a union.  Nothing is listed."""
    n = len(space.points)
    universe = (1 << n) - 1
    nbhd = [reduce(and_, map(space.base.__getitem__, _members(holding)), universe)
            for holding in _transpose(space.base, n)]
    links = [u | v for u, v in zip(nbhd, _transpose(nbhd, n))]

    def reach(ps: int) -> int:  # ps and the points one link away
        return reduce(or_, map(links.__getitem__, _members(ps)), 0)

    for e, K in enumerate(space.base):
        if reach(K) & ~K:
            raise TheoremViolationError(
                f"base set of {space.lattice.labels[e]!r} is not clopen")
    atoms, left = [], universe
    while left:
        atom = left & -left
        while (grown := reach(atom)) != atom:
            atom = grown
        atoms.append(atom)
        left &= ~atom
    return ClopenAlgebra(universe, tuple(sorted(atoms, key=_set_key)))


def clopen_elements(space: UltrafilterSpace) -> list[int]:
    """Every clopen: the opens that are unions of atoms, on a space from
    build_space every open.  opens() refuses spaces over MAX_POINTS points."""
    atoms = clopen_algebra(space).atoms
    return [C for C in opens(space) if all(not A & C or not A & ~C for A in atoms)]


def join_decomposition(space: UltrafilterSpace, C: int) -> list[int]:
    """Write a clopen, a mask of points, as a union of base sets, greedily.

    Takes every non-zero element whose base set sits inside C and checks
    the union comes back exactly.  The empty clopen decomposes as the
    empty list.  Point sets that are not unions of base sets are rejected.
    """
    S = space.lattice
    picks = [e for e in S.nonzero() if not space.base[e] & ~C]
    if reduce(or_, (space.base[e] for e in picks), 0) != C:
        raise UndecomposableError(
            f"point set {_members(C)} is not a union of base sets")
    return picks


def dense_check(space: UltrafilterSpace) -> bool:
    """Does the lattice embed densely into its clopen algebra?  The base-set
    map must be injective, so the lattice sits inside the algebra, and every
    non-empty clopen must hold a non-empty base set of a non-zero element."""
    return kappa_injective(space) and _dense_atoms(space, clopen_algebra(space))


def _dense_atoms(space: UltrafilterSpace, algebra: ClopenAlgebra) -> bool:
    """Does every non-empty clopen hold a non-empty base set of a non-zero
    element?  Each one holds an atom, and atoms are clopens, so only the
    atoms are tested.  The atoms partition the points, so a non-empty
    base set can lie only in the atom of its lowest point: one pass marks
    that atom when the set lies inside it, and every atom must be marked.
    On a space from build_space that cannot fail: an atom is a non-empty
    union of base sets, and K(0) is empty.  By hand it can
    (test_density_fails_at_an_atom_without_a_base_set)."""
    atoms = algebra.atoms
    atom_at = _transpose(atoms, len(space.points))  # point -> the bit of its atom's index
    marked = 0
    for e in space.lattice.nonzero():
        if b := space.base[e]:
            atom = atoms[atom_at[(b & -b).bit_length() - 1].bit_length() - 1]
            if not b & ~atom:
                marked |= atom
    return marked == algebra.universe


@dataclass(frozen=True)
class Representation:
    """A 0/1 assignment preserving bounds and meets."""

    lattice: Semilattice
    values: tuple[int, ...]


def is_representation(S: Semilattice, values: tuple[int, ...]) -> bool:
    """Do the 0/1 values keep the bounds and every meet, value(meet(e, f))
    = value(e) * value(f)?  Given the bounds, the laws are the filter
    axioms for the 1-set F: F holds 1 and not 0; if e is in F and e <= f,
    value(e) = value(meet(e, f)) = value(e) * value(f) puts f in F; and F
    holds meet(e, f) when it holds e and f.  Conversely a filter holds
    meet(e, f) iff it holds e and f.  So is_filter's test decides: F lies
    in up(m), m its meet, and is a filter iff up(m) has |F| members, the
    count of 1s.  The down row of m is the AND of the down rows of F,
    which is not empty as it holds one; no list of F is built."""
    values = tuple(values)
    if not (len(values) == len(S.labels) and values[S.zero] == 0 and values[S.one] == 1
            and _BITS.issuperset(values)):
        return False
    m = S._element_of_row[reduce(and_, itertools.compress(S.down, values))]
    return S.up[m].bit_count() == values.count(1)


def rep_of_filter(S: Semilattice, F: Filter) -> Representation:
    """Characteristic function of a filter."""
    _require_filter(S, F)
    return Representation(S, tuple(S.up[F.generator] >> e & 1 for e in S.elements()))


def filter_of_rep(S: Semilattice, rep: Representation) -> Filter:
    """Preimage of 1, the filter up(g) of g the meet of the 1-set (see
    is_representation).  Filter refuses g = 0, which only a wrong test passes."""
    if rep.lattice is not S and rep.lattice != S or not is_representation(S, rep.values):
        raise NotARepresentationError("values fail the representation laws")
    return Filter(S, S.meet_all(itertools.compress(S.elements(), rep.values)))


def filterspace_nbhd(S: Semilattice, e: int, es: Iterable[int]) -> list[Filter]:
    """Basic neighbourhood in the space of all filters.

    Filters containing e and omitting each listed element; the listed
    elements must sit below e.  Smallest carriers first, as in
    enumerate_filters: one pass over S.filter_generators keeps that
    order.
    """
    keep = _nbhd_generators(S, e, tuple(es))
    return [Filter._of(S, g) for g in S.filter_generators if keep >> g & 1]


def _nbhd_generators(S: Semilattice, e: int, es: Sequence[int]) -> int:
    """The mask of the generators of filterspace_nbhd(S, e, es).

    Every filter is up(g) for a non-zero g, which holds e iff g <= e and
    omits x iff g is not below x, so the generators are read off the down
    rows.  The indices are checked where the rows are read, at one sign
    test per element, written into this loop as in core._below_orthogonal:
    the suite calls this kernel and builds no Filter, and reading the rows
    through core._row_at and a core._rows generator makes each call about
    twice as slow.
    """
    down = S.down
    if not 0 <= e < len(down):
        _refuse_index(S, e)
    below, drop = down[e], 1 << S.zero
    for x in es:
        if x < 0:
            _refuse_index(S, x)
        try:
            drop |= down[x]
        except IndexError:
            _refuse_index(S, x)
    if drop & ~below:  # some down(x) leaves down(e): x is not below e
        bad = [x for x in es if not below >> x & 1]
        raise BadBasisError(
            f"basis elements {S.labels_for(bad)} are not below {S.labels[e]!r}")
    return below & ~drop


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Powerset algebra on a finite atom set; elements are atom subsets."""

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be distinct")

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return frozenset(self.atoms)

    def elements(self) -> list[frozenset]:
        return sorted((frozenset(c) for r in range(len(self.atoms) + 1)
                       for c in itertools.combinations(self.atoms, r)),
                      key=lambda c: (len(c), sorted(c)))

    def complement(self, a: frozenset) -> frozenset:
        return self.top - a


def _check_bounded_hom(S: Semilattice, B: FiniteBooleanAlgebra,
                       alpha: Mapping[int, frozenset]) -> None:
    for e in S.elements():
        if e not in alpha:
            raise NotAHomomorphismError(f"no image for element {S.labels[e]!r}")
        if not frozenset(alpha[e]) <= B.top:
            raise NotAHomomorphismError(f"image of {S.labels[e]!r} uses unknown atoms")
    if frozenset(alpha[S.zero]) != B.bottom:
        raise NotAHomomorphismError("zero must map to the bottom")
    if frozenset(alpha[S.one]) != B.top:
        raise NotAHomomorphismError("one must map to the top")
    for e in S.elements():
        for f in S.elements():
            if frozenset(alpha[S.meet_all((e, f))]) != frozenset(alpha[e]) & frozenset(alpha[f]):
                raise NotAHomomorphismError(
                    f"meets not preserved at ({S.labels[e]!r}, {S.labels[f]!r})")


def extend_hom(S: Semilattice, B: FiniteBooleanAlgebra,
               alpha: Mapping[int, frozenset]) -> dict[int, frozenset]:
    """Extend a bounded homomorphism through the clopen algebra.

    Requires the base-set map to be injective and, for every atom of B,
    the pullback {e : atom in alpha(e)} to be an ultrafilter.  The
    extension sends a clopen C to the atoms whose pullback point lies in
    C.  It is the preimage map of atom -> pullback point, so it keeps the
    bounds, complements, meets and joins.  It matches alpha on base sets:
    a point lies in K(e) iff its ultrafilter holds e (build_space), and the
    pullback at an atom holds e iff the atom is in alpha(e).  It is unique:
    every clopen is open, so a union of base sets, and a Boolean
    homomorphism that matches alpha on base sets is fixed on their unions.
    None of this is re-checked here; the tests hold the result to the laws.
    """
    _check_bounded_hom(S, B, alpha)
    space = build_space(S)
    if not kappa_injective(space):
        raise PreconditionFailedError("base-set map is not injective, no embedding to extend")

    pull_point: dict[str, int] = {}
    for atom in B.atoms:
        try:
            F = Filter.from_carrier(S, (e for e in S.elements() if atom in alpha[e]))
        except NotAFilterError:
            raise PreconditionFailedError(
                f"pullback at atom {atom!r} is not a filter") from None
        if not is_ultrafilter(S, F):
            raise PreconditionFailedError(
                f"pullback at atom {atom!r} is not an ultrafilter")
        pull_point[atom] = space.point_index(F)

    return {C: frozenset(atom for atom in B.atoms if C >> pull_point[atom] & 1)
            for C in clopen_elements(space)}
