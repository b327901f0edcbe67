"""Catalog enumeration up to isomorphism."""

from __future__ import annotations

import hashlib

import pytest

import catalog_oracle
import corpus
from slat.catalog import CatalogSpec, _instances_of_size, canonical_key, enumerate_catalog
from slat.core import Semilattice
from slat.errors import TooLargeError

# OEIS A006966, lattices on n unlabeled elements
A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}


def counts(spec: CatalogSpec) -> dict[int, int]:
    out: dict[int, int] = {}
    for S in enumerate_catalog(spec):
        out[len(S)] = out.get(len(S), 0) + 1
    return out


def test_exhaustive_counts():
    assert counts(CatalogSpec(max_size=6)) == {n: A006966[n] for n in range(2, 7)}


def test_size_seven_regression():
    assert counts(CatalogSpec(max_size=7)) == {n: A006966[n] for n in range(2, 8)}


def test_small_sizes_are_the_known_shapes(vee, chain3, chain4, bool1):
    by_size: dict[int, set] = {}
    for S in enumerate_catalog(CatalogSpec(max_size=4)):
        by_size.setdefault(len(S), set()).add(canonical_key(S))
    assert by_size[2] == {canonical_key(bool1)}
    assert by_size[3] == {canonical_key(chain3)}
    assert by_size[4] == {canonical_key(chain4), canonical_key(vee)}


def test_canonical_key_is_iso_invariant(vee):
    swapped = Semilattice.from_order(
        ("bot", "y", "x", "top"),
        (("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")),
    )
    assert canonical_key(swapped) == canonical_key(vee)


def test_canonical_key_separates_shapes(vee, chain4):
    assert canonical_key(vee) != canonical_key(chain4)


def partition(keys: list) -> set[frozenset[int]]:
    """The classes of positions that share a key."""
    classes: dict = {}
    for i, k in enumerate(keys):
        classes.setdefault(k, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def test_canonical_key_partitions_like_the_permutation_oracle():
    base = [*corpus.catalog(), *corpus.sample(8, 20), *corpus.sample(9, 4), *corpus.sample(10, 1)]
    instances = [T for S in base for T in corpus.copies(S)]
    want = partition([catalog_oracle.canonical_key(S) for S in instances])
    assert partition([canonical_key(S) for S in instances]) == want
    assert len(want) < len(instances) // 2  # the random samples repeat some shapes


def test_size_eight_class_count():
    assert len(_instances_of_size(8)) == A006966[8]
    assert counts(CatalogSpec(max_size=8))[8] == A006966[8]


def test_size_nine_class_count():
    assert len(_instances_of_size(9)) == A006966[9]


@pytest.mark.parametrize("n", range(2, 8))
def test_extension_matches_the_relation_scan(n):
    grown, scanned = _instances_of_size(n), catalog_oracle.instances_of_size(n)
    assert grown == scanned
    assert ({catalog_oracle.canonical_key(S) for S in grown}
            == {catalog_oracle.canonical_key(S) for S in scanned})
    assert len(grown) == A006966[n]


def test_classes_come_back_canonically_relabeled():
    for S in _instances_of_size(7):
        n, _, enc = canonical_key(S)
        assert tuple(x for row in S.meet_table for x in row) == enc
        assert canonical_key(corpus.relabeled_copy(S)) == canonical_key(S)
        assert S.labels == ("0", *"abcde", "1") and (S.zero, S.one) == (0, n - 1)


def test_instances_are_lawful_and_deterministic():
    first = [S.to_text() for S in enumerate_catalog(CatalogSpec(max_size=5))]
    second = [S.to_text() for S in enumerate_catalog(CatalogSpec(max_size=5))]
    assert first == second
    assert len(first) == len(set(first))  # no duplicates


def test_catalog_listing_is_frozen():
    # Each class is listed as the least encoding over its cell
    # permutations, so a key that chose any other encoding, or listed the
    # classes in another order, changes these bytes.
    text = "".join(S.to_text() for S in corpus.catalog())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1f17f813df8ccc3a21f975eaf88f8715b44475993a61fd651a9f1b2454c3c9b9")


def test_exhaustive_size_cap():
    assert CatalogSpec(max_size=9).max_size == 9
    with pytest.raises(TooLargeError, match="up to 9"):
        CatalogSpec(max_size=10)


def test_random_size_cap():
    assert len(next(enumerate_catalog(
        CatalogSpec(max_size=12, mode="random", sample_count=1)))) == 12
    with pytest.raises(TooLargeError, match="up to 12"):
        CatalogSpec(max_size=13, mode="random", sample_count=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        CatalogSpec(max_size=1)
    with pytest.raises(ValueError):
        CatalogSpec(max_size=4, mode="weird")
    with pytest.raises(ValueError):
        CatalogSpec(max_size=4, mode="random", sample_count=0)


def test_random_mode_reproducible():
    spec = CatalogSpec(max_size=9, mode="random", sample_count=8, seed=11)
    a = [S.to_text() for S in enumerate_catalog(spec)]
    b = [S.to_text() for S in enumerate_catalog(spec)]
    assert a == b
    assert len(a) == 8
    for S in enumerate_catalog(spec):
        assert len(S) == 9  # samples are exactly at the requested size

    other = [
        S.to_text()
        for S in enumerate_catalog(
            CatalogSpec(max_size=9, mode="random", sample_count=8, seed=12))
    ]
    assert a != other  # practically certain for distinct seeds
