"""Finite bounded meet semilattices and their order-theoretic primitives.

Elements are dense integer indices 0..n-1; labels are presentation only.
The meet table is the canonical internal form: the partial order and the
bounds are derived from it via  e <= f  iff  meet(e, f) == e.

All operations are exact and run exhaustive loops.  They stay fast up to
around EXHAUSTIVE_SIZE_TARGET elements; nothing caps the size hard, the
command line surface just warns above the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleError,
    FormatError,
    InvalidSemilatticeError,
    NoBoundError,
    NoMeetError,
    NotSubsetError,
    ZeroSourceError,
)

# Subsets of element indices.  A plain frozenset keeps set algebra cheap.
ElementSet = frozenset

EXHAUSTIVE_SIZE_TARGET = 12

# Labels appear in the text format, so they must survive tokenization.
_FORBIDDEN_LABEL_CHARS = set("<#=")


def _check_label(label: str) -> None:
    if not label or any(c.isspace() for c in label) or set(label) & _FORBIDDEN_LABEL_CHARS:
        raise FormatError(f"bad label {label!r}: labels are non-empty and free of whitespace, '<', '#', '='")


@dataclass(frozen=True)
class Semilattice:
    """A bounded meet semilattice given by its full meet table.

    Construction validates everything: the table must be idempotent,
    commutative, associative, and the designated zero and one must be
    absorbing and neutral.  Invalid tables raise InvalidSemilatticeError.
    """

    labels: tuple[str, ...]
    meet_table: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n < 2:
            raise InvalidSemilatticeError("a bounded semilattice needs at least two elements")
        if len(set(self.labels)) != n:
            raise InvalidSemilatticeError("labels must be distinct")
        for lab in self.labels:
            _check_label(lab)
        if not (0 <= self.zero < n and 0 <= self.one < n) or self.zero == self.one:
            raise InvalidSemilatticeError("zero and one must be distinct valid indices")
        t = self.meet_table
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidSemilatticeError("meet table must be n x n")
        for row in t:
            for v in row:
                if not (0 <= v < n):
                    raise InvalidSemilatticeError("meet table entries must be element indices")
        for i in range(n):
            if t[i][i] != i:
                raise InvalidSemilatticeError(f"meet not idempotent at {self.labels[i]!r}")
            if t[i][self.zero] != self.zero:
                raise InvalidSemilatticeError(f"zero not absorbing at {self.labels[i]!r}")
            if t[i][self.one] != i:
                raise InvalidSemilatticeError(f"one not neutral at {self.labels[i]!r}")
            for j in range(i + 1, n):
                if t[i][j] != t[j][i]:
                    raise InvalidSemilatticeError(
                        f"meet not commutative at ({self.labels[i]!r}, {self.labels[j]!r})")
        for i in range(n):
            for j in range(n):
                tij = t[i][j]
                for k in range(n):
                    if t[tij][k] != t[i][t[j][k]]:
                        raise InvalidSemilatticeError(
                            "meet not associative at "
                            f"({self.labels[i]!r}, {self.labels[j]!r}, {self.labels[k]!r})")

    def __len__(self) -> int:
        return len(self.labels)

    def meet(self, e: int, f: int) -> int:
        return self.meet_table[e][f]

    def leq(self, e: int, f: int) -> bool:
        return self.meet_table[e][f] == e

    def elements(self) -> range:
        return range(len(self.labels))

    def nonzero(self) -> tuple[int, ...]:
        return tuple(e for e in self.elements() if e != self.zero)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FormatError(f"unknown label {label!r}") from None

    def labels_for(self, xs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in sorted(xs))

    def meet_all(self, xs: Iterable[int]) -> int:
        """Meet of a finite family; the empty family meets to one."""
        acc = self.one
        for x in xs:
            acc = self.meet_table[acc][x]
        return acc

    @classmethod
    def from_order(cls, labels: Sequence[str], pairs: Iterable[tuple[str, str]]) -> "Semilattice":
        """Build from strict-order pairs (a, b) meaning a < b.

        The reflexive-transitive closure is taken, cycles are rejected,
        every pair of elements must have a unique greatest lower bound,
        and the global minimum and maximum become zero and one.
        """
        return _assemble(labels, list(pairs), {})

    @classmethod
    def from_text(cls, text: str) -> "Semilattice":
        return parse_semilattice(text)

    def to_text(self) -> str:
        """Serialize in the text format parse_semilattice accepts.

        Emits the covering pairs of the order; the meet table is recovered
        exactly because meets are greatest lower bounds of the order.
        """
        covers = []
        n = len(self)
        for x in range(n):
            for y in range(n):
                if x == y or not self.leq(x, y):
                    continue
                if any(self.leq(x, z) and self.leq(z, y) and z not in (x, y) for z in range(n)):
                    continue
                covers.append(f"{self.labels[x]}<{self.labels[y]}")
        lines = ["elements: " + " ".join(self.labels)]
        if covers:
            lines.append("order: " + " ".join(covers))
        return "\n".join(lines) + "\n"


def _glb(leq: list[list[bool]], i: int, j: int) -> int | None:
    lower = [k for k in range(len(leq)) if leq[k][i] and leq[k][j]]
    for m in lower:
        if all(leq[k][m] for k in lower):
            return m
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

    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[lookup(a)][lookup(b)] = True
    for k in range(n):  # Warshall closure
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleError(f"order pairs force {labels[i]!r} = {labels[j]!r}")

    table = [[i if i == j else None for j in range(n)] for i in range(n)]
    for (a, b), c in overrides.items():
        table[lookup(a)][lookup(b)] = lookup(c)
        table[lookup(b)][lookup(a)] = lookup(c)
    for i in range(n):
        for j in range(n):
            if table[i][j] is None:
                g = _glb(leq, i, j) if pairs else None
                if g is None:
                    raise NoMeetError(
                        f"no meet for ({labels[i]!r}, {labels[j]!r}): "
                        "not determined by the declared order or meet lines")
                table[i][j] = g

    mins = [z for z in range(n) if all(table[z][e] == z for e in range(n))]
    maxs = [u for u in range(n) if all(table[u][e] == e for e in range(n))]
    if not mins or not maxs:
        raise NoBoundError("the order has no global minimum or no global maximum")
    return Semilattice(labels, tuple(tuple(row) for row in table), mins[0], maxs[0])


def parse_semilattice(text: str) -> Semilattice:
    """Parse the semilattice text format.

    One 'elements:' line, any number of 'order:' lines with a<b tokens,
    optional 'meet: a b = c' lines declaring or overriding single entries.
    '#' starts a comment.  Bounds are inferred from the resulting table.
    """
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


def star(S: Semilattice, e: int) -> ElementSet:
    """All elements whose meet with e is zero."""
    return frozenset(f for f in S.elements() if S.meet(e, f) == S.zero)


def up(S: Semilattice, X: Iterable[int]) -> ElementSet:
    """Upward closure: everything above some member of X."""
    X = frozenset(X)
    return frozenset(e for e in S.elements() if any(S.leq(x, e) for x in X))


def down(S: Semilattice, X: Iterable[int]) -> ElementSet:
    """Downward closure: everything below some member of X."""
    X = frozenset(X)
    return frozenset(e for e in S.elements() if any(S.leq(e, x) for x in X))


def constrained_set(S: Semilattice, X: Iterable[int], Y: Iterable[int]) -> ElementSet:
    """Elements below every member of X and orthogonal to every member of Y.

    Always contains zero.  An empty X constrains nothing, so the result is
    the set of elements orthogonal to all of Y.
    """
    X = frozenset(X)
    Y = frozenset(Y)
    return frozenset(
        e for e in S.elements()
        if all(S.leq(e, x) for x in X) and all(S.meet(e, y) == S.zero for y in Y))


def is_cover(S: Semilattice, Z: Iterable[int], X: Iterable[int], Y: Iterable[int]) -> bool:
    """Does Z cover the constrained set of (X, Y)?

    Z must be a subset of the constrained set.  Covering means every
    non-zero member of the constrained set meets some member of Z; when
    the constrained set is {0} this holds vacuously, even for empty Z.
    """
    target = constrained_set(S, X, Y)
    Z = frozenset(Z)
    if not Z <= target:
        extra = S.labels_for(Z - target)
        raise NotSubsetError(f"cover candidates {extra} lie outside the constrained set")
    return all(
        any(S.meet(e, z) != S.zero for z in Z)
        for e in target if e != S.zero)


def arrow(S: Semilattice, f: int, es: Iterable[int]) -> bool:
    """Finite refinement relation from f to the family es.

    True iff every non-zero element below f meets some member of es.
    Monotone in es.  An empty family is never refined into (f itself
    meets nothing), matching the base-set inclusion reading exactly.
    """
    if f == S.zero:
        raise ZeroSourceError("refinement source must be non-zero")
    targets = tuple(es)
    return all(
        any(S.meet(x, e) != S.zero for e in targets)
        for x in S.nonzero() if S.leq(x, f))


def nonzero_pairs_below(S: Semilattice) -> Iterator[tuple[int, int]]:
    """All pairs (e, f) with 0 != f < e, in deterministic index order."""
    for e in S.nonzero():
        for f in S.nonzero():
            if f != e and S.leq(f, e):
                yield (e, f)
