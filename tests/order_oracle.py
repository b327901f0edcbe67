"""Order primitives by direct scans of the meet table.

These are the routines the library ran before it derived down/up/star
bitmask rows once per semilattice.  Each reads the order straight from
the table (e <= f iff meet(e, f) == e) with its own loop, so the tests
can hold the row-based versions to them.
"""

from __future__ import annotations

import math
from typing import Iterable

from slat.core import Semilattice


def associativity_violation(t) -> tuple[int, int, int] | None:
    """First triple, in index order, where the table is not associative."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            for k in range(n):
                if t[tij][k] != t[i][t[j][k]]:
                    return (i, j, k)
    return None


def star(S: Semilattice, e: int) -> frozenset:
    return frozenset(f for f in S.elements() if S.meet(e, f) == S.zero)


def up(S: Semilattice, X: Iterable[int]) -> frozenset:
    X = frozenset(X)
    return frozenset(e for e in S.elements() if any(S.leq(x, e) for x in X))


def down(S: Semilattice, X: Iterable[int]) -> frozenset:
    X = frozenset(X)
    return frozenset(e for e in S.elements() if any(S.leq(e, x) for x in X))


def constrained_set(S: Semilattice, X: Iterable[int], Y: Iterable[int]) -> frozenset:
    X = frozenset(X)
    Y = frozenset(Y)
    return frozenset(
        e for e in S.elements()
        if all(S.leq(e, x) for x in X) and all(S.meet(e, y) == S.zero for y in Y))


def is_cover(S: Semilattice, Z: Iterable[int], X: Iterable[int], Y: Iterable[int]) -> bool | None:
    """Cover test; None when Z is not inside the constrained set."""
    target = constrained_set(S, X, Y)
    Z = frozenset(Z)
    if not Z <= target:
        return None
    return all(
        any(S.meet(e, z) != S.zero for z in Z)
        for e in target if e != S.zero)


def arrow(S: Semilattice, f: int, es: Iterable[int]) -> bool:
    targets = tuple(es)
    return all(
        any(S.meet(x, e) != S.zero for e in targets)
        for x in S.nonzero() if S.leq(x, f))


def nonzero_pairs_below(S: Semilattice) -> list[tuple[int, int]]:
    return [(e, f) for e in S.nonzero() for f in S.nonzero() if f != e and S.leq(f, e)]


def is_filter(S: Semilattice, A: Iterable[int]) -> bool:
    A = frozenset(A)
    if not A or S.zero in A:
        return False
    if any(not (0 <= e < len(S)) for e in A):
        return False
    for e in A:
        for f in A:
            if S.meet(e, f) not in A:
                return False
        for f in S.elements():
            if S.leq(e, f) and f not in A:
                return False
    return True


def is_ultrafilter(S: Semilattice, carrier: frozenset) -> bool:
    for b in S.elements():
        if b in carrier:
            continue
        if all(S.meet(b, c) != S.zero for c in carrier):
            return False
    return True


def extend_to_ultrafilter(S: Semilattice, e: int) -> frozenset:
    g = e
    while True:
        candidates = [b for b in S.elements()
                      if S.meet(b, g) != S.zero and not S.leq(g, b)]
        if not candidates:
            return up(S, {g})
        g = S.meet(g, candidates[0])


def meet_separation(S: Semilattice) -> bool:
    for e in S.elements():
        for f in S.elements():
            if e == f:
                continue
            if not any(
                    (S.meet(e, g) == S.zero) != (S.meet(f, g) == S.zero)
                    for g in S.elements()):
                return False
    return True


def is_zero_disjunctive(S: Semilattice) -> bool:
    for f, e in nonzero_pairs_below(S):
        if not any(
                x != S.zero and S.leq(x, f) and S.meet(x, e) == S.zero
                for x in S.elements()):
            return False
    return True


def satisfies_trapping(S: Semilattice) -> bool:
    """Every strict non-zero pair is trapped by the non-zero elements
    below its top that avoid its bottom."""
    for e, f in nonzero_pairs_below(S):
        M = [x for x in S.nonzero() if S.leq(x, e) and S.meet(x, f) == S.zero]
        if not M or not arrow(S, e, M + [f]):
            return False
    return True


def level(S: Semilattice, e: int) -> int | float:
    if e == S.zero:
        return math.inf
    return len(up(S, {e}))


def covers_hat(S: Semilattice, e: int) -> frozenset:
    below = [f for f in S.elements() if f != e and S.leq(f, e)]
    return frozenset(
        f for f in below
        if not any(g != f and g != e and S.leq(f, g) and S.leq(g, e) for g in S.elements()))


def covering_pairs(S: Semilattice) -> list[tuple[int, int]]:
    """Pairs x < y with nothing strictly between, x-major, as to_text lists them."""
    n = len(S)
    return [
        (x, y) for x in range(n) for y in range(n)
        if x != y and S.leq(x, y)
        and not any(S.leq(x, z) and S.leq(z, y) and z not in (x, y) for z in range(n))]
