"""Finite bounded meet semilattices and their order-theoretic primitives.

Elements are dense integer indices 0..n-1; labels are presentation only.
An instance stores its order once, as int bitmask rows: down[e] holds
the elements below e.  Construction derives two more rows per element,
up[e] and star[e] (the elements whose meet with e is zero), in _set_rows.
The order primitives read them through one kernel, the elements below m
orthogonal to all of Y.  Every set of elements or of points is such a
mask inside the library; the order primitives return frozensets.
Element indices are checked where the rows are read: star, up, down,
constrained_set, is_cover, arrow and stone.filterspace_nbhd refuse a
negative index, or one past the last element, with BadIndexError, which
only _refuse_index raises.  The check is a sign test per index and the
row lookup's IndexError, inside the one pass each route already makes:
in _rows, and written into the loop of the kernel _below_orthogonal,
which so checks the family Y it is given too; its element m is its
caller's to vouch for.  A single index, as star and arrow take, is
range-tested by _row_at.
Listings sort masks by _set_key.  The meet of a family is the element
whose down row is the AND of the family's rows.  The n x n meet table
is a view: the public constructor keeps the table it validated, and an
instance built from rows derives it on first read (_derived_table).
Classification, tightness and build_space read only the rows.
The lower-cover relation has one kernel too, _lower_covers, which peels
maximal elements off a down-set: covers_hat, to_text, the sibling
witnesses of path semilattices and the cover pairs that classification
decides on all read it.
Two more values are derived lazily, on first use, and then kept: the
tuple that nonzero() returns, and filter_generators, the non-zero
elements in the order of their filters up(g) under Filter.sort_key.
Every filter of a finite instance is such an up(g), and a Filter is its
generator g, so filter listings and neighbourhoods read that order
instead of rebuilding it.  Like up, star and the meet table, neither
takes part in equality, hashing or repr.
Validation is O(n^2): an idempotent, commutative table is associative
iff down[meet(e, f)] == down[e] & down[f] for all e, f.  Every public
or parsed construction validates.  The two library routes that build
instances lawful by construction, path truncations and one-atom catalog
extensions, go through Semilattice._from_rows instead: it takes down
rows, labels and bounds that the caller proves, and checks nothing.

All operations are exact and nothing here caps the size.  The limits
live where the cost explodes, and refuse with TooLargeError before the
work starts: stone.opens (2^points opens), the catalog (exhaustive
sizes) and pathlat.truncate (three rows of n bits per element).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, eq, or_
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import (
    BadIndexError,
    BadPairError,
    CycleError,
    FormatError,
    InvalidSemilatticeError,
    NoBoundError,
    NoMeetError,
    NotSubsetError,
    ZeroSourceError,
)

# Labels appear in the text format, so they must survive tokenization.
_FORBIDDEN_LABEL_CHARS = set("<#=")

_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")
_ONE_BIT = re.compile("1")


def _row(flags: Iterable[bool]) -> int:
    """Bitmask with bit f set iff the f-th flag is true."""
    return int(bytes(flags).translate(_FLAG_DIGITS)[::-1], 2)


def _members(mask: int) -> list[int]:
    """Indices of the set bits, ascending.

    Up to eight set bits are peeled off lowest first, which is cheaper
    than writing out the binary digits.  Each peel costs big-int work over
    the whole mask, so a denser mask gets one regex scan of its digits.
    On a 2-vCPU host, peeling alone slows `slat graph` at depth 9 (dense
    1024-bit rows) by a quarter and scanning alone slows the catalog
    benchmark by 8%; the two cost the same near 16-24 set bits at widths
    from 10 to 2048 bits.
    """
    if mask.bit_count() > 8:
        return [m.start() for m in _ONE_BIT.finditer(bin(mask)[:1:-1])]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _set_key(mask: int) -> tuple:
    """The one order of set masks in listings: by size, then by members."""
    return (mask.bit_count(), _members(mask))


def _check_label(label: str) -> None:
    if not label or any(c.isspace() for c in label) or set(label) & _FORBIDDEN_LABEL_CHARS:
        raise FormatError(f"bad label {label!r}: labels are non-empty and free of whitespace, '<', '#', '='")


@dataclass(frozen=True, init=False)
class Semilattice:
    """A bounded meet semilattice, stored as its down rows.

    The public constructor takes the full meet table and validates
    everything: the table must be idempotent, commutative, associative,
    and the designated zero and one must be absorbing and neutral.
    Invalid tables raise InvalidSemilatticeError.  It keeps the validated
    table as the meet_table view and derives the down, up and star rows
    (see the module docstring).  Equality and hashing read the labels,
    the bounds and the down rows.  The one construction that skips the
    checks is the private _from_rows, for callers that prove their rows.
    """

    labels: tuple[str, ...]
    zero: int
    one: int
    down: tuple[int, ...] = field(repr=False)
    up: tuple[int, ...] = field(compare=False, repr=False)
    star: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, labels: tuple[str, ...], meet_table: tuple[tuple[int, ...], ...],
                 zero: int, one: int) -> None:
        # The table seeds the meet_table view; __post_init__ validates it.
        self.__dict__.update(labels=labels, meet_table=meet_table, zero=zero, one=one)
        self.__post_init__()

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
        rng = range(n)
        down = tuple(_row(map(eq, row, rng)) for row in t)  # meet(e, f) == f
        # The row law: with idempotence and commutativity it makes the rows
        # the down-sets of a partial order whose glb is the table.
        for e in rng:
            de, row = down[e], t[e]
            for f in range(e + 1, n):
                if down[row[f]] != de & down[f]:
                    a, b, c = _associativity_witness(t, down, e, f)
                    raise InvalidSemilatticeError(
                        "meet not associative at "
                        f"({self.labels[a]!r}, {self.labels[b]!r}, {self.labels[c]!r})")
        _set_rows(self, down)

    @classmethod
    def _from_rows(cls, labels: tuple[str, ...], zero: int, one: int,
                   down: tuple[int, ...]) -> "Semilattice":
        """The instance whose down rows the caller has proven.

        Nothing is checked.  The caller proves that its labels are two or
        more distinct, well-formed labels, that zero and one are distinct
        indices among them, and that down[e] is the down-set of e in a
        bounded semilattice with that zero and one: each caller's
        docstring gives its proof, and the tests hold both callers' rows
        and derived tables to the validated rebuild and to oracles.
        """
        S = object.__new__(cls)
        S.__dict__.update(labels=labels, zero=zero, one=one)
        _set_rows(S, down)
        return S

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """The n x n meet table, derived from the rows on first read."""
        return _derived_table(self)

    @cached_property
    def _element_of_row(self) -> dict[int, int]:
        """Each element keyed by its down row."""
        return {row: e for e, row in enumerate(self.down)}

    @cached_property
    def filter_generators(self) -> tuple[int, ...]:
        """The non-zero elements g, ordered as Filter.sort_key orders up(g):
        by size, then by the ascending member list."""
        up = self.up
        return tuple(sorted(self.nonzero(), key=lambda g: _set_key(up[g])))

    def __len__(self) -> int:
        return len(self.labels)

    def meet(self, e: int, f: int) -> int:
        return self.meet_table[e][f]

    def leq(self, e: int, f: int) -> bool:
        return self.down[f] >> e & 1 == 1

    def elements(self) -> range:
        return range(len(self.labels))

    @cached_property
    def _nonzero(self) -> tuple[int, ...]:
        return tuple(e for e in self.elements() if e != self.zero)

    def nonzero(self) -> tuple[int, ...]:
        return self._nonzero

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FormatError(f"unknown label {label!r}") from None

    def labels_for(self, xs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in sorted(xs))

    def meet_all(self, xs: Iterable[int]) -> int:
        """Meet of a finite family; the empty family meets to one.

        The down row of a meet is the AND of the meetands' rows.
        """
        down = self.down
        row = down[self.one]
        for x in xs:
            row &= down[x]
        return self._element_of_row[row]

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

        Emits the covering pairs of the order, x-major; the meet table is
        recovered exactly because meets are greatest lower bounds of the order.
        """
        covers = [f"{self.labels[x]}<{self.labels[y]}" for x, y in sorted(
            (x, y) for y in self.elements() for x in _members(_lower_covers(self, y)))]
        lines = ["elements: " + " ".join(self.labels)]
        if covers:
            lines.append("order: " + " ".join(covers))
        return "\n".join(lines) + "\n"


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The rows of the transposed bit matrix: bit i of out[j] is bit j of rows[i]."""
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def _set_rows(S: Semilattice, down: tuple[int, ...]) -> None:
    """Store the down rows of a lawful S with the up and star rows they give.

    up is the transpose of down.  meet(e, f) is zero iff no non-zero x
    lies below both e and f, so star[e] is the complement of the union of
    up[x] over the non-zero x in down[e].
    """
    n = len(down)
    up = _transpose(down, n)
    full, nonzero = (1 << n) - 1, ~(1 << S.zero)
    star = []
    for row in down:
        row &= nonzero
        meets = 0
        while row:
            low = row & -row
            meets |= up[low.bit_length() - 1]
            row ^= low
        star.append(full ^ meets)
    S.__dict__.update(down=down, up=tuple(up), star=tuple(star))


def _derived_table(S: Semilattice) -> tuple[tuple[int, ...], ...]:
    """The meet table of S, read off its rows in one pass.

    meet(e, a) is e for every a above e, so each non-zero e writes e at
    (e, a) and at (a, e) for a in up[e]: that fills every comparable pair
    of non-zero elements.  An incomparable f outside star[e] meets e at
    the element whose down row is down[e] & down[f].  Every other entry
    pairs zero with something, or two orthogonal elements, and is zero.
    On a chain or a tree that is O(n * depth) writes.
    """
    n, down, up, star = len(S), S.down, S.up, S.star
    table = [[S.zero] * n for _ in range(n)]
    full = (1 << n) - 1
    for e in S.nonzero():
        row, de = table[e], down[e]
        for a in _members(up[e]):
            row[a] = table[a][e] = e
        for f in _members(full & ~(up[e] | de | star[e])):
            row[f] = S._element_of_row[de & down[f]]
    return tuple(map(tuple, table))


def _associativity_witness(t, down, e: int, f: int) -> tuple[int, int, int]:
    """A triple (a, b, c) with meet(meet(a, b), c) != meet(a, meet(b, c)).

    t is idempotent and commutative, and the row law fails at (e, f).
    """
    m = t[e][f]
    diff = down[m] ^ (down[e] & down[f])
    x = (diff & -diff).bit_length() - 1
    if not down[m] >> x & 1:
        return (e, f, x)  # x lies below e and f but not below their meet
    a, b = (e, f) if t[e][x] != x else (f, e)  # x lies below m but not below a
    return (a, a, b) if t[a][m] != m else (a, m, x)


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


def _refuse_index(S: Semilattice, i: int) -> NoReturn:
    """The one refusal of an element index that names no element."""
    raise BadIndexError(f"no element has index {i}: indices run from 0 to {len(S) - 1}") from None


def _rows(S: Semilattice, rows: Sequence[int], xs: Iterable[int]) -> Iterator[int]:
    """rows[x] for each element index x in xs; any other index is refused
    by a sign test and the row lookup's IndexError."""
    for x in xs:
        if x < 0:
            _refuse_index(S, x)
        try:
            row = rows[x]
        except IndexError:
            _refuse_index(S, x)
        yield row


def _row_at(S: Semilattice, rows: Sequence[int], i: int) -> int:
    """rows[i] for an element index i; any other index is refused."""
    if not 0 <= i < len(rows):
        _refuse_index(S, i)
    return rows[i]


def _meet_of(S: Semilattice, X: Iterable[int]) -> int:
    """S.meet_all(X), with X's indices checked."""
    return S._element_of_row[reduce(and_, _rows(S, S.down, X), S.down[S.one])]


def _below_orthogonal(S: Semilattice, m: int, Y: Iterable[int]) -> int:
    """Mask of the elements below m orthogonal to every member of Y (zero included).

    The one order kernel behind this module and the modules built on it.
    The element m is the caller's to vouch for; Y's indices are checked
    as _rows checks them, written into the loop: the suite makes most of
    its calls here, and a generator per call made it about a third slower.
    """
    mask, star = S.down[m], S.star
    for y in Y:
        if y < 0:
            _refuse_index(S, y)
        try:
            mask &= star[y]
        except IndexError:
            _refuse_index(S, y)
    return mask


def _lower_covers(S: Semilattice, g: int) -> int:
    """Mask of the lower covers of g: the elements below g with nothing
    strictly between.  The one cover kernel of the library.

    Maximal elements are peeled off what is left of down(g) - {g}: climb
    from the least index left, through ever greater elements, to one with
    nothing left above it, keep it, clear its down-set, and repeat.

    Every climb ends at a cover.  An element leaves only when it lies
    below a kept one, and an element left over lies below no kept one.
    So if x is left and x < y < g, then y is left too, as a kept element
    above y would be above x; a climb that stops at x, with nothing left
    above it, stops at a cover.  A cover lies below no other element
    below g, so it leaves only when it is kept: every cover is kept.
    """
    up, down = S.up, S.down
    left = down[g] ^ 1 << g
    covers = 0
    while left:
        x = (left & -left).bit_length() - 1
        while above := up[x] & left ^ 1 << x:
            x = (above & -above).bit_length() - 1
        covers |= 1 << x
        left &= ~down[x]
    return covers


def _check_pair_below(S: Semilattice, e: int, f: int) -> None:
    """Refuse (e, f) with BadPairError unless 0 != f < e."""
    if f == S.zero or f == e or not S.leq(f, e):
        raise BadPairError(f"need 0 != f < e, got f={S.labels[f]!r} e={S.labels[e]!r}")


def star(S: Semilattice, e: int) -> frozenset:
    """All elements whose meet with e is zero."""
    return frozenset(_members(_row_at(S, S.star, e)))


def up(S: Semilattice, X: Iterable[int]) -> frozenset:
    """Upward closure: everything above some member of X."""
    return frozenset(_members(reduce(or_, _rows(S, S.up, X), 0)))


def down(S: Semilattice, X: Iterable[int]) -> frozenset:
    """Downward closure: everything below some member of X."""
    return frozenset(_members(reduce(or_, _rows(S, S.down, X), 0)))


def constrained_set(S: Semilattice, X: Iterable[int], Y: Iterable[int]) -> frozenset:
    """Elements below every member of X and orthogonal to every member of Y.

    Always contains zero.  An empty X constrains nothing, so the result is
    the set of elements orthogonal to all of Y.
    """
    return frozenset(_members(_below_orthogonal(S, _meet_of(S, X), Y)))


def is_cover(S: Semilattice, Z: Iterable[int], X: Iterable[int], Y: Iterable[int]) -> bool:
    """Does Z cover the constrained set of (X, Y)?

    Z must be a subset of the constrained set.  Covering means every
    non-zero member of the constrained set meets some member of Z; when
    the constrained set is {0} this holds vacuously, even for empty Z.
    So Z covers iff constraining by Y and Z together leaves only zero.
    """
    m, Y, Z = _meet_of(S, X), tuple(Y), frozenset(Z)
    target = _below_orthogonal(S, m, Y)
    left = _below_orthogonal(S, m, Y + tuple(Z))  # checks Z before the subset test reads it
    outside = S.labels_for(z for z in Z if not target >> z & 1)
    if outside:
        raise NotSubsetError(f"cover candidates {outside} lie outside the constrained set")
    return left == 1 << S.zero


def arrow(S: Semilattice, f: int, es: Iterable[int]) -> bool:
    """Finite refinement relation from f to the family es.

    True iff every non-zero element below f meets some member of es.
    Monotone in es.  An empty family is never refined into (f itself
    meets nothing), matching the base-set inclusion reading exactly.
    """
    if f == S.zero:
        raise ZeroSourceError("refinement source must be non-zero")
    _row_at(S, S.down, f)  # refuses an f that names no element
    return _refines(S, f, es)


def _refines(S: Semilattice, f: int, es: Iterable[int]) -> bool:
    """arrow(S, f, es) for a non-zero element f; es is checked as in _below_orthogonal."""
    return _below_orthogonal(S, f, es) == 1 << S.zero


def nonzero_pairs_below(S: Semilattice) -> Iterator[tuple[int, int]]:
    """All pairs (e, f) with 0 != f < e, in deterministic index order."""
    for e in S.nonzero():
        for f in _members(S.down[e] & ~(1 << e | 1 << S.zero)):
            yield (e, f)


def _nonzero_cover_pairs(S: Semilattice) -> Iterator[tuple[int, int]]:
    """All pairs (e, c) with c a non-zero lower cover of e, in
    deterministic index order: the strict non-zero pairs that have
    nothing strictly between."""
    for e in S.nonzero():
        for c in _members(_lower_covers(S, e) & ~(1 << S.zero)):
            yield (e, c)
