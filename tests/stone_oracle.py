"""The clopen algebra and the density test by pairwise scans.

These are the routines the library ran before it read the clopen
algebra off its atoms: the clopens are listed as the opens with open
complement, closure is checked over every pair of them, and density
scans every non-empty clopen against every base set.  The tests hold
the atom-based versions to them.  clopen_atoms are the minimal non-empty
members of that closure-checked family, and base_set_unions lists the
opens as every union of base sets.

base_sets reads each base set off the ultrafilters that
catalog_oracle.enumerate_ultrafilters lists.

extension_violation is the check extend_hom once ran on its own result:
the Boolean homomorphism laws over every pair of clopens, agreement with
the map on base sets, and the join-decomposition route.

base_law_violation is the check build_space once ran on its own result:
the base sets at the bounds, and the meet law over every pair.

The library keeps each set of points as an int mask, bit i for point i;
these routines read the base sets, the opens and the extension's
clopens as frozensets of point indices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import catalog_oracle
from slat.core import Semilattice, _members
from slat.errors import TheoremViolationError
from slat.stone import (
    FiniteBooleanAlgebra,
    UltrafilterSpace,
    join_decomposition,
    kappa_injective,
    opens,
)


def _points(mask: int) -> frozenset:
    return frozenset(_members(mask))


def _base(space: UltrafilterSpace) -> list[frozenset]:
    return [_points(b) for b in space.base]


def _closed_pairwise(family) -> bool:
    """Is the family closed under union and intersection, pair by pair?"""
    got = set(family)
    return all(a & b in got and a | b in got for a in got for b in got)


def _minimal_members(family) -> list[frozenset]:
    """The non-empty members with no non-empty member strictly inside."""
    nonempty = [C for C in family if C]
    return sorted((C for C in nonempty if not any(D < C for D in nonempty)),
                  key=lambda ps: (len(ps), tuple(sorted(ps))))


def clopen_elements(space: UltrafilterSpace) -> tuple[frozenset, ...]:
    """Opens with open complement, sorted, after the pairwise closure check."""
    return _clopen_elements(space)


# clopen_atoms and dense_check rescan the space that clopen_elements just
# listed, and the listing is exponential in the points
@lru_cache(maxsize=4)
def _clopen_elements(space: UltrafilterSpace) -> tuple[frozenset, ...]:
    os = set(map(_points, opens(space)))
    universe = frozenset(range(len(space.points)))
    elems = sorted((o for o in os if universe - o in os),
                   key=lambda ps: (len(ps), tuple(sorted(ps))))
    got = set(elems)
    base = _base(space)
    for e in space.lattice.elements():
        if base[e] not in got:
            raise TheoremViolationError(
                f"base set of {space.lattice.labels[e]!r} is not clopen")
    if not _closed_pairwise(elems):
        raise TheoremViolationError("clopens not closed under set operations")
    return tuple(elems)


def clopen_atoms(space: UltrafilterSpace) -> list[frozenset]:
    return _minimal_members(clopen_elements(space))


def base_set_unions(space: UltrafilterSpace) -> list[frozenset]:
    """Every union of base sets, sorted as opens() lists them."""
    distinct = sorted(set(_base(space)), key=lambda ps: (len(ps), tuple(sorted(ps))))
    unions = {frozenset().union(*combo)
              for r in range(len(distinct) + 1)
              for combo in itertools.combinations(distinct, r)}
    return sorted(unions, key=lambda ps: (len(ps), tuple(sorted(ps))))


def base_sets(S: Semilattice) -> tuple[frozenset, ...]:
    """The points, numbered as the ultrafilters are listed, in each element's filters."""
    ultras = catalog_oracle.enumerate_ultrafilters(S)
    return tuple(frozenset(i for i, U in enumerate(ultras) if e in U.carrier) for e in S.elements())


def dense_check(space: UltrafilterSpace) -> bool:
    """Injective base map, and every non-empty clopen holds a non-empty base set."""
    if not kappa_injective(space):
        return False
    S, base = space.lattice, _base(space)
    nonzero_bases = [base[e] for e in S.nonzero() if base[e]]
    return all(any(b <= C for b in nonzero_bases)
               for C in clopen_elements(space) if C)


def base_law_violation(space: UltrafilterSpace) -> str | None:
    """Which base-set law the space breaks, if any."""
    S, base = space.lattice, _base(space)
    if base[S.zero] or base[S.one] != frozenset(range(len(space.points))):
        return "base sets at the bounds are wrong"
    for e in S.elements():
        for f in S.elements():
            if base[S.meet(e, f)] != base[e] & base[f]:
                return f"base sets fail the meet law at ({S.labels[e]!r}, {S.labels[f]!r})"
    return None


def extension_violation(space: UltrafilterSpace, B: FiniteBooleanAlgebra,
                        alpha, beta) -> str | None:
    """Which law the extension beta of alpha breaks, if any."""
    S, base = space.lattice, _base(space)
    clopens = clopen_elements(space)
    universe = frozenset(range(len(space.points)))
    beta = {_points(C): image for C, image in beta.items()}
    if set(beta) != set(clopens):
        return "domain is not the clopens"
    for e in S.elements():
        if beta[base[e]] != frozenset(alpha[e]):
            return f"disagrees with the map at {S.labels[e]!r}"
    if beta[frozenset()] != B.bottom or beta[universe] != B.top:
        return "breaks the bounds"
    for C in clopens:
        if beta[universe - C] != B.complement(beta[C]):
            return "breaks complement"
        for D in clopens:
            if beta[C & D] != beta[C] & beta[D] or beta[C | D] != beta[C] | beta[D]:
                return "breaks meet or join"
    for C in clopens:
        parts = join_decomposition(space, sum(1 << p for p in C))
        if frozenset().union(*(frozenset(alpha[e]) for e in parts)) != beta[C]:
            return "decomposition route disagrees"
    return None
