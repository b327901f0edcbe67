"""Catalog of small bounded meet semilattices, one per isomorphism class.

A finite bounded meet semilattice with a top is a lattice, and deleting
an atom from a finite lattice of n >= 3 elements leaves a lattice: a
meet that was the atom becomes zero.  So every lattice of size n is one
of size n-1 plus an atom a, and the strict up-set U of a meets two
conditions (Heitzig and Reinhold, Counting finite lattices, Algebra
Universalis 2002): U is non-empty, up-closed and leaves out zero, and
for x, y in U either x^y is in U or x^y is zero.  Conversely each such U
gives a lattice with a new atom below exactly U, whose meets are the old
ones except that x^y = 0 with x, y in U becomes a.

Enumeration therefore grows each size from the classes of the size
before, one admissible U at a time, and rejects isomorphs through a
canonical key that minimizes the meet-table encoding over the interior
relabelings that keep each element in its invariant cell, (|down|,
|up|).  Each class comes back relabeled to the table its key encodes.
Cells make the key cheap on most shapes; an interior antichain of k
elements is one cell and still costs k! permutations.  Nothing is kept
between enumerate_catalog calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import Semilattice, _meet_table, _members
from .errors import NoMeetError, TooLargeError

EXHAUSTIVE_LIMIT = 9

_INTERIOR_NAMES = "abcdefghij"

# Interior elements are labelled by single letters, so sizes stop here.
MAX_SIZE = len(_INTERIOR_NAMES) + 2


@dataclass(frozen=True)
class CatalogSpec:
    """What to enumerate: exhaustive up to max_size, or a seeded sample.

    Exhaustive mode yields every isomorphism class of size 2..max_size
    and refuses max_size beyond EXHAUSTIVE_LIMIT.  Random mode yields
    sample_count reproducible instances of exactly max_size elements and
    refuses max_size beyond MAX_SIZE.
    """

    max_size: int
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_size < 2:
            raise ValueError("max_size must be at least 2")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive" and self.max_size > EXHAUSTIVE_LIMIT:
            raise TooLargeError(
                f"exhaustive enumeration supports sizes up to {EXHAUSTIVE_LIMIT}, "
                f"got {self.max_size}")
        if self.max_size > MAX_SIZE:
            raise TooLargeError(
                f"catalog instances support sizes up to {MAX_SIZE}, got {self.max_size}")
        if self.mode == "random" and self.sample_count < 1:
            raise ValueError("random mode needs sample_count >= 1")


def _interior_labels(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(_INTERIOR_NAMES[: n - 2]) + ("1",)


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


def canonical_key(S: Semilattice) -> tuple:
    """Least meet-table encoding over relabelings that respect invariant cells.

    Isomorphisms fix the bounds and preserve each interior element's
    invariant (|down|, |up|), so they map the cell of interior elements
    sharing an invariant onto itself.  The key relabels zero to 0 and one
    to n-1, lays the cells out in invariant order, tries every
    permutation within each cell, and keeps the least flattened table.
    Row i of an encoding is the old row old_of_new[i], its entries picked
    in the new column order and renamed through new_of_old.  Isomorphic
    inputs reach the same encodings, and equal encodings are equal
    relabeled tables, so equal keys mean isomorphic instances.  The worst
    case, an interior antichain of k elements, is one cell and k!
    permutations.
    """
    n = len(S)
    invariant = {i: (S.down[i].bit_count(), S.up[i].bit_count())
                 for i in S.elements() if i not in (S.zero, S.one)}
    cells: dict[tuple[int, int], list[int]] = {}
    for i in sorted(invariant, key=invariant.__getitem__):
        cells.setdefault(invariant[i], []).append(i)
    table = S.meet_table
    new_of_old = [0] * n
    best: tuple | None = None
    for perms in itertools.product(*map(itertools.permutations, cells.values())):
        old_of_new = [S.zero, *itertools.chain.from_iterable(perms), S.one]
        for new, old in enumerate(old_of_new):
            new_of_old[old] = new
        pick, rename = itemgetter(*old_of_new), new_of_old.__getitem__
        enc = tuple(itertools.chain.from_iterable(
            map(rename, pick(table[old])) for old in old_of_new))
        if best is None or enc < best:
            best = enc
    assert best is not None
    return (n, tuple(sorted(invariant.values())), best)


def _canonical_instance(key: tuple) -> Semilattice:
    """The instance whose meet table is the encoding in key."""
    n, _, enc = key
    table = tuple(enc[i * n:(i + 1) * n] for i in range(n))
    return Semilattice(_interior_labels(n), table, zero=0, one=n - 1)


def _admissible_up_sets(P: Semilattice) -> Iterator[int]:
    """Masks of the sets U below which an atom can be added to P.

    P has its zero at 0 and its one at n-1.  U is non-empty, up-closed
    and leaves out zero, so it holds the one; and for x, y in U, x^y is
    in U or is zero.  Candidates are the interior subsets plus the one.
    """
    n = len(P)
    up, table = P.up, P.meet_table
    for interior in range(1 << (n - 2)):
        U = interior << 1 | 1 << (n - 1)
        members = _members(U)
        if any(up[x] & ~U for x in members):
            continue
        allowed = U | 1 << P.zero
        if all(allowed >> table[x][y] & 1
               for i, x in enumerate(members) for y in members[i + 1:]):
            yield U


def _with_atom(P: Semilattice, U: int) -> Semilattice:
    """P plus an atom a below exactly the members of U.

    The atom takes index n-1 and the one moves to n.  A meet x^y = 0 with
    x, y in U becomes a, and a^y is a for y in U and zero otherwise.

    P is lawful and U admissible, so the result is a lattice (see the
    module docstring) and is not validated: its labels, bounds and down
    rows go to Semilattice._from_rows, which checks nothing.  The labels
    are the fixed _interior_labels(n + 1): n + 1 distinct, well-formed
    labels, since enumeration stops at EXHAUSTIVE_LIMIT < MAX_SIZE.  The
    zero is 0 and the one is n.  Among the old elements the order is
    P's, as only meets x^y = 0 of two non-zero elements change, and
    neither was below the other.  The atom lies below exactly the
    members of U, and only the zero and the atom lie below it.  So each
    old row is P's with bit a set on the members of U, down[a] = {0, a},
    and the one's row is P's full row, whose bit n-1 now names a (the
    one is in U), plus bit n for the one itself.  No other old row has
    bit n-1, since only the one lies above the one.
    """
    n = len(P)
    a = n - 1
    down = [row | (U >> x & 1) << a for x, row in enumerate(P.down)]
    down.insert(a, 1 | 1 << a)
    down[n] |= 1 << n
    return Semilattice._from_rows(_interior_labels(n + 1), 0, n, tuple(down))


def _one_atom_extensions(classes: list[Semilattice]) -> list[Semilattice]:
    """The classes one size up from every class of one size, each
    relabeled to its canonical encoding, in key order."""
    keys = {canonical_key(_with_atom(P, U))
            for P in classes for U in _admissible_up_sets(P)}
    return [_canonical_instance(k) for k in sorted(keys)]


def _sizes(max_size: int) -> Iterator[list[Semilattice]]:
    """The classes of each size from 2 to max_size, each size grown from
    the one before."""
    classes = [Semilattice(_interior_labels(2), ((0, 0), (0, 1)), zero=0, one=1)]
    yield classes
    for _ in range(3, max_size + 1):
        classes = _one_atom_extensions(classes)
        yield classes


def _instances_of_size(n: int) -> list[Semilattice]:
    """Every class of size n, canonically relabeled, in key order."""
    for classes in _sizes(n):
        pass
    return classes


def _random_instance(n: int, rng: random.Random) -> Semilattice:
    mids = range(1, n - 1)
    pairs = [(a, b) for a in mids for b in mids if a < b]
    labels = _interior_labels(n)
    while True:
        rel = {p for p in pairs if rng.random() < 0.5}
        table = _meet_table_of(labels, rel)
        if table is not None:
            return Semilattice(labels, table, zero=0, one=n - 1)


def enumerate_catalog(spec: CatalogSpec) -> Iterator[Semilattice]:
    """Yield catalog instances deterministically.

    Exhaustive: sizes ascending, canonical key ascending inside a size.
    Random: the seeded sample, in generation order.
    """
    if spec.mode == "exhaustive":
        for classes in _sizes(spec.max_size):
            yield from classes
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.sample_count):
            yield _random_instance(spec.max_size, rng)
