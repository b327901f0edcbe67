"""Catalog of small bounded meet semilattices, one per isomorphism class.

A finite bounded meet semilattice is determined by the partial order on
its interior elements (everything except the bounds): the bounds relate
to all, and the meet table is the table of greatest lower bounds.  So
enumeration walks all transitive relations on the interior along a fixed
linear extension, keeps those where every pair has a greatest lower
bound, and rejects isomorphs through a canonical key that minimizes the
meet-table encoding over the interior relabelings that keep each element
in its invariant cell, (|down|, |up|).  Cells make the key cheap on most
shapes; an interior antichain of k elements is one cell and still costs
k! permutations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .core import Semilattice, _meet_table
from .errors import NoMeetError, TooLargeError

EXHAUSTIVE_LIMIT = 7

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


def _is_transitive(rel: set[tuple[int, int]], mids: range) -> bool:
    return all((a, c) in rel
               for a, b in rel for c in mids if (b, c) in rel)


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
    Isomorphic inputs reach the same encodings, and equal encodings are
    equal relabeled tables, so equal keys mean isomorphic instances.  The
    worst case, an interior antichain of k elements, is one cell and k!
    permutations.
    """
    n = len(S)
    invariant = {i: (S.down[i].bit_count(), S.up[i].bit_count())
                 for i in S.elements() if i not in (S.zero, S.one)}
    cells: dict[tuple[int, int], list[int]] = {}
    for i in sorted(invariant, key=invariant.__getitem__):
        cells.setdefault(invariant[i], []).append(i)
    best: tuple | None = None
    for perms in itertools.product(*map(itertools.permutations, cells.values())):
        old_of_new = [S.zero, *itertools.chain.from_iterable(perms), S.one]
        new_of_old = {old: new for new, old in enumerate(old_of_new)}
        enc = tuple(
            new_of_old[S.meet(old_of_new[i], old_of_new[j])]
            for i in range(n) for j in range(n))
        if best is None or enc < best:
            best = enc
    assert best is not None
    return (n, tuple(sorted(invariant.values())), best)


def _instances_of_size(n: int) -> list[Semilattice]:
    mids = range(1, n - 1)
    pairs = [(a, b) for a in mids for b in mids if a < b]
    labels = _interior_labels(n)
    found: dict[tuple, Semilattice] = {}
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if not _is_transitive(rel, mids):
            continue
        table = _meet_table_of(labels, rel)
        if table is None:
            continue
        S = Semilattice(labels, table, zero=0, one=n - 1)
        found.setdefault(canonical_key(S), S)
    return [found[k] for k in sorted(found)]


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
        for n in range(2, spec.max_size + 1):
            yield from _instances_of_size(n)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.sample_count):
            yield _random_instance(spec.max_size, rng)
