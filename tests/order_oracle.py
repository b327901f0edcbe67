"""Order primitives by direct scans of the meet table.

These are the routines the library ran before it derived down/up/star
bitmask rows once per semilattice.  Each reads the order straight from
the table (e <= f iff meet(e, f) == e) with its own loop, so the tests
can hold the row-based versions to them.

parse_semilattice is the parser the library ran before its one order
builder: it closes the order pairs by Warshall's algorithm, builds the
full meet table (_meet_table, which the catalog's random instances went
through as _meet_table_of), reads the bounds off the table and hands it
to the validating table constructor.  Its meet lines are overrides that
win over the order, so it is compared only on files without them.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from slat.core import Semilattice, _check_label
from slat.errors import CycleError, FormatError, NoBoundError, NoMeetError


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


def _meet_table(labels: Sequence[str], pairs: Iterable[tuple[int, int]],
                preset: Mapping[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Meet table of the order generated by index pairs (a, b) meaning a <= b.

    The reflexive-transitive closure is kept as down rows, so the meet of
    i and j is the element whose row is below[i] & below[j].  Preset
    entries win.  Cycles raise CycleError; NoMeetError names the first
    pair, in row order, that has no meet.
    """
    n = len(labels)
    below = [1 << i for i in range(n)]
    for a, b in pairs:
        below[b] |= 1 << a
    for k in range(n):  # Warshall closure
        for i in range(n):
            if below[i] >> k & 1:
                below[i] |= below[k]
    for i in range(n):
        for j in range(i + 1, n):
            if below[i] == below[j]:
                raise CycleError(f"order pairs force {labels[i]!r} = {labels[j]!r}")
    by_row = {row: m for m, row in enumerate(below)}
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            g = preset[i, j] if (i, j) in preset else by_row.get(below[i] & below[j])
            if g is None:
                raise NoMeetError(
                    f"no meet for ({labels[i]!r}, {labels[j]!r}): "
                    "not determined by the declared order or meet lines")
            row.append(g)
        table.append(tuple(row))
    return tuple(table)


def _meet_table_of(labels: tuple[str, ...],
                   rel: set[tuple[int, int]]) -> tuple[tuple[int, ...], ...] | None:
    """Meet table of the interior relation plus the bounds, None if a pair has no meet."""
    # Interior indices are 1..n-2; 0 is the bottom and n-1 the top.
    n = len(labels)
    bounds = [(0, j) for j in range(n)] + [(j, n - 1) for j in range(n)]
    try:
        return _meet_table(labels, bounds + list(rel), {})
    except NoMeetError:
        return None


def _assemble(labels: Sequence[str], pairs: list[tuple[str, str]],
              overrides: Mapping[tuple[str, str], str]) -> Semilattice:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise FormatError("duplicate labels")
    for lab in labels:
        _check_label(lab)
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    def lookup(lab: str) -> int:
        if lab not in idx:
            raise FormatError(f"unknown label {lab!r}")
        return idx[lab]

    order = [(lookup(a), lookup(b)) for a, b in pairs]
    preset = {}
    for (a, b), c in overrides.items():
        preset[lookup(a), lookup(b)] = preset[lookup(b), lookup(a)] = lookup(c)
    table = _meet_table(labels, order, preset)

    mins = [z for z in range(n) if all(table[z][e] == z for e in range(n))]
    maxs = [u for u in range(n) if all(table[u][e] == e for e in range(n))]
    if not mins or not maxs:
        raise NoBoundError("the order has no global minimum or no global maximum")
    return Semilattice(labels, table, mins[0], maxs[0])


def parse_semilattice(text: str) -> Semilattice:
    """The text format read through the full meet table; meet lines override entries."""
    labels: tuple[str, ...] | None = None
    pairs: list[tuple[str, str]] = []
    overrides: dict[tuple[str, str], str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"expected 'key: ...' but got {line!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "elements":
            if labels is not None:
                raise FormatError("duplicate elements line")
            labels = tuple(rest.split())
            if not labels:
                raise FormatError("elements line declares nothing")
        elif key == "order":
            for tok in rest.split():
                if tok.count("<") != 1:
                    raise FormatError(f"bad order token {tok!r}, expected a<b")
                a, b = tok.split("<")
                if not a or not b:
                    raise FormatError(f"bad order token {tok!r}, expected a<b")
                pairs.append((a, b))
        elif key == "meet":
            parts = rest.split()
            if len(parts) != 4 or parts[2] != "=":
                raise FormatError(f"bad meet line {rest!r}, expected 'meet: a b = c'")
            overrides[(parts[0], parts[1])] = parts[3]
        else:
            raise FormatError(f"unknown section {key!r}")
    if labels is None:
        raise FormatError("missing elements line")
    return _assemble(labels, pairs, overrides)
