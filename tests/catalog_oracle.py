"""Brute-force routes the catalog and the filter space ran before they were sped up.

instances_of_size walks every relation on the interior along a fixed
linear extension, keeps the transitive ones whose every pair has a
greatest lower bound, and returns one instance per class, relabeled by
the library's canonical key as the catalog returns them.
canonical_key permutes the whole interior, with no invariant cells.
enumerate_filters builds every principal up-set afresh and sorts the
filters, where the library reads the up-sets and their order that the
semilattice keeps; filterspace_nbhd scans that listing, and
enumerate_ultrafilters keeps the filters that order_oracle finds maximal.
scan_tight_pivots decides tightness by the (pivot, Y) subset scan that
the single-element criterion replaced, and pivot_violations runs that
criterion's cover test at every pivot, which the test at the generator
replaced; tight_filters keeps the filters it finds none for.  The tests
hold the library's versions to all of these.  with_atom_table is the meet
table of a one-atom extension as the catalog patched it from the
smaller table, before extensions were built from down rows only; the
tests hold the table derived from those rows to it.  random_instance
draws the catalog's random instances through the full meet table, as
the catalog did before its one order builder.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable

import order_oracle
from order_oracle import _meet_table_of
from slat.catalog import _canonical_instance, _interior_labels
from slat.catalog import canonical_key as library_key
from slat.core import Semilattice, _below_orthogonal, _members, constrained_set, up
from slat.filters import Filter


def _is_transitive(rel: set[tuple[int, int]], mids: range) -> bool:
    return all((a, c) in rel
               for a, b in rel for c in mids if (b, c) in rel)


def instances_of_size(n: int) -> list[Semilattice]:
    """Every class of size n, from a scan of the 2^pairs interior relations."""
    mids = range(1, n - 1)
    pairs = [(a, b) for a in mids for b in mids if a < b]
    labels = _interior_labels(n)
    keys = set()
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if not _is_transitive(rel, mids):
            continue
        table = _meet_table_of(labels, rel)
        if table is None:
            continue
        keys.add(library_key(Semilattice(labels, table, zero=0, one=n - 1)))
    return [_canonical_instance(k) for k in sorted(keys)]


def random_instance(n: int, rng: random.Random) -> Semilattice:
    """The catalog's random instance of size n as it was built through
    the full meet table, with the same draws from rng."""
    mids = range(1, n - 1)
    pairs = [(a, b) for a in mids for b in mids if a < b]
    labels = _interior_labels(n)
    while True:
        rel = {p for p in pairs if rng.random() < 0.5}
        table = _meet_table_of(labels, rel)
        if table is not None:
            return Semilattice(labels, table, zero=0, one=n - 1)


def canonical_key(S: Semilattice) -> tuple:
    """Least flattened meet table over all relabelings fixing the bounds."""
    n = len(S)
    interior = [i for i in S.elements() if i not in (S.zero, S.one)]
    best = None
    for perm in itertools.permutations(interior):
        old_of_new = [S.zero, *perm, S.one]
        new_of_old = {old: new for new, old in enumerate(old_of_new)}
        enc = tuple(
            new_of_old[S.meet(old_of_new[i], old_of_new[j])]
            for i in range(n) for j in range(n))
        if best is None or enc < best:
            best = enc
    return (n, best)


def enumerate_filters(S: Semilattice) -> list[Filter]:
    """The filter up(e) of every non-zero e, smallest carriers first."""
    return list(_filters(S))


# filterspace_nbhd scans the listing once per (e, es), and the listing
# routes and their arguments list the same instance in turn
@lru_cache(maxsize=4)
def _filters(S: Semilattice) -> tuple[Filter, ...]:
    return tuple(sorted((Filter.from_carrier(S, up(S, {e})) for e in S.nonzero()), key=Filter.sort_key))


def filterspace_nbhd(S: Semilattice, e: int, es: Iterable[int]) -> list[Filter]:
    """Filters containing e and omitting every listed element, by a scan of all filters."""
    es = tuple(es)
    return [F for F in enumerate_filters(S)
            if e in F.carrier and all(x not in F.carrier for x in es)]


def enumerate_ultrafilters(S: Semilattice) -> list[Filter]:
    """The filters that no other filter strictly contains, by the set scan."""
    return [F for F in enumerate_filters(S) if order_oracle.is_ultrafilter(S, F.carrier)]


def scan_tight_pivots(S: Semilattice, carrier: frozenset) -> list[int]:
    """Pivots x in F for which some Y outside F admits a cover avoiding F.

    For each pivot this scans every subset Y of the non-zero elements
    outside F and asks whether the members of the constrained set of
    ({x}, Y) that avoid F cover it.  Exponential in the size of the
    complement.
    """
    outside = sorted(set(S.elements()) - carrier - {S.zero})
    pivots = []
    for pivot in sorted(carrier):
        for r in range(len(outside) + 1):
            if any(_avoiding_cover(S, carrier, constrained_set(S, {pivot}, Y))
                   for Y in itertools.combinations(outside, r)):
                pivots.append(pivot)
                break
    return pivots


def _avoiding_cover(S: Semilattice, carrier: frozenset, target: frozenset) -> bool:
    candidate = target - carrier - {S.zero}
    return all(any(S.meet(x, z) != S.zero for z in candidate)
               for x in target if x != S.zero)


def pivot_violations(S: Semilattice, carrier: frozenset) -> list[int]:
    """The cover test of tight_violations at every pivot x in F.

    At x the target is down(x) - F - {0}; it covers iff only zero lies
    below x orthogonal to all of it.  The library runs the test once, at
    the generator.
    """
    zero = 1 << S.zero
    avoid = S.up[S.meet_all(carrier)] | zero
    return [x for x in sorted(carrier)
            if _below_orthogonal(S, x, _members(S.down[x] & ~avoid)) == zero]


def tight_filters(S: Semilattice) -> list[Filter]:
    """The filters with no violating pivot."""
    return [F for F in enumerate_filters(S) if not pivot_violations(S, F.carrier)]


def with_atom_table(P: Semilattice, U: int) -> tuple[tuple[int, ...], ...]:
    """P's table with an atom a = n-1 below exactly U and the one moved to n.

    A meet x^y = 0 with x, y in U becomes a, and a^y is a for y in U and
    zero otherwise.
    """
    n = len(P)
    a = n - 1
    in_U = [U >> y & 1 for y in range(n)]
    rows = []
    for x, old in enumerate(P.meet_table):
        row = [v if v < a else n for v in old]
        if in_U[x]:
            row = [a if v == 0 and in_U[y] else v for y, v in enumerate(row)]
        row.insert(a, a if in_U[x] else 0)
        rows.append(tuple(row))
    atom = [a if b else 0 for b in in_U]
    atom.insert(a, a)
    rows.insert(a, tuple(atom))
    return tuple(rows)
