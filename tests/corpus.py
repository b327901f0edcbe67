"""The instances that library routes are held to their oracles on, each
built once per session: the catalog up to 7 elements, seeded random
samples, truncations of the loop graphs and one relabeled copy of each
semilattice.  A random sample of count k is the first k instances of the
sample with the same size and seed, so each (size, seed) is drawn once,
at the largest count taken.  A slice names the instances one comparison
runs on; slices share their instances.  A copy's permutation is drawn
from RELABEL_SEED and the instance's text, whatever ran first.  The
slice "texts" holds semilattice files for the parser: the catalog's and
the copies' to_text, the benchmark's input files, and fixed draws of
the semilattice_files strategy that the CLI fuzz also draws from.
"""

from __future__ import annotations

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from slat.catalog import CatalogSpec, enumerate_catalog
from slat.core import Semilattice
from slat.pathlat import RootedGraph, truncate

# one vertex, two loops: backward paths are all words over {a, b}
TWO_LOOP = RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")
THREE_LOOP = RootedGraph(("t",), tuple((x, "t", "t") for x in "abc"), "t")
ONE_LOOP = RootedGraph(("t",), (("a", "t", "t"),), "t")
SINGLE_EDGE = RootedGraph(("r", "s"), (("a", "s", "r"),), "r")
GRAPHS = {"two-loop": TWO_LOOP, "three-loop": THREE_LOOP, "one-loop": ONE_LOOP}

# the truncations the path-space benchmark builds
BENCH_TRUNCATIONS = (*(("two-loop", d) for d in range(1, 8)), *(("three-loop", d) for d in range(1, 5)))
SAMPLE_COUNTS = {(8, 8): 20, (9, 9): 10, (10, 10): 10, (11, 11): 10, (12, 12): 3, (9, 2): 30, (10, 4): 30,
                 (10, 5): 4}
RELABEL_SEED = 20


@cache
def _catalog() -> tuple[Semilattice, ...]:
    return tuple(enumerate_catalog(CatalogSpec(max_size=7)))


def catalog(max_size: int = 7) -> tuple[Semilattice, ...]:
    """Every class of at most max_size <= 7 elements, in the catalog's order."""
    assert max_size <= 7
    return tuple(S for S in _catalog() if len(S) <= max_size)


@cache
def _sample(size: int, seed: int) -> tuple[Semilattice, ...]:
    count = SAMPLE_COUNTS[size, seed]
    return tuple(enumerate_catalog(CatalogSpec(max_size=size, mode="random", sample_count=count, seed=seed)))


def sample(sizes: range | int, count: int, seed: int | None = None) -> tuple[Semilattice, ...]:
    """count random instances of each size n, drawn with seed n unless a seed is given."""
    sizes = range(sizes, sizes + 1) if isinstance(sizes, int) else sizes
    assert all(count <= SAMPLE_COUNTS[n, seed or n] for n in sizes)
    return tuple(S for n in sizes for S in _sample(n, seed or n)[:count])


@cache
def truncation(graph: str, depth: int) -> Semilattice:
    return truncate(GRAPHS[graph], depth)


def truncations(*pairs) -> tuple[Semilattice, ...]:
    return tuple(truncation(graph, depth) for graph, depth in pairs)


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FUZZ_DRAWS = 400

# Files built from each format's own tokens, half of them then spoilt by
# up to three stray tokens or lines: '<', '=', ':', comments, repeated keys, and
# non-ASCII text, no-break and line-separator spaces among it.
NOISE = ("<", "=", ":", "#", "# note", "a<", "<b", "a<b<1", "x:y", "é", "λ", "a\u00a0b", "\u2028",
         "elements: a", "order:", "meet: a b = 0", "vertices: t", "root:", "edge a t t")


def spoil(draw, lines: list[str]) -> str:
    strays = st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(NOISE)), min_size=1, max_size=3)
    for at, token in draw(strays) if draw(st.booleans()) else ():
        if at == len(lines):
            lines.append(token)
        else:
            lines[at] += " " + token
    return "\n".join(lines)


@st.composite
def semilattice_files(draw) -> str:
    """An elements line, a<b tokens that follow its order, and perhaps a meet line."""
    labels = draw(st.lists(st.sampled_from(("0", "a", "b", "c", "1", "é")), min_size=2, max_size=5,
                           unique=True))
    pairs = [f"{a}<{b}" for i, a in enumerate(labels) for b in labels[i + 1:]]
    lines = ["elements: " + " ".join(labels), "order: " + " ".join(draw(st.lists(st.sampled_from(pairs))))]
    if draw(st.booleans()):
        a, b, c = (draw(st.sampled_from(labels)) for _ in range(3))
        lines.append(f"meet: {a} {b} = {c}")
    return spoil(draw, lines)


def _fuzz_files() -> list[str]:
    """The FUZZ_DRAWS files of one derandomized run of semilattice_files,
    the same on every run of one hypothesis version."""
    drawn: list[str] = []

    @settings(max_examples=FUZZ_DRAWS, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(semilattice_files())
    def draw(text):
        drawn.append(text)

    draw()
    return drawn


def _texts() -> tuple[str, ...]:
    """Semilattice files: the catalog's and the copies' to_text, the
    benchmark's inputs (graph files among them, which the parser
    refuses) and the fuzz files without meet lines, whose meaning the
    table oracle does not share."""
    return (*(x.to_text() for S in catalog() for x in copies(S)),
            *(path.read_text(encoding="utf-8") for path in sorted(BENCH_INPUTS.rglob("*.txt"))),
            *(text for text in _fuzz_files() if "meet" not in text))


# the sets that the listings, the Stone points and the cover-pair verdicts run on
INSTANCE_SETS = ("catalog-7", "random-8-12", "bench-truncations")
SLICES = {
    "catalog-7": lambda: catalog(),
    "random-8-12": lambda: sample(range(8, 13), 3),
    "bench-truncations": lambda: truncations(*BENCH_TRUNCATIONS),
    "rows": lambda: (*catalog(), *sample(10, 30, seed=4), *truncations(("two-loop", 4), ("three-loop", 3))),
    "opens": lambda: (*catalog(), *sample(10, 10, seed=4)),
    "clopens": lambda: (*catalog(), *sample(range(8, 12), 10),
                        *truncations(("two-loop", 3), ("three-loop", 2), ("one-loop", 6))),
    "base-laws": lambda: (*catalog(), *sample(range(8, 12), 6), *truncations(
        *(("two-loop", d) for d in range(1, 9)), *(("three-loop", d) for d in range(1, 6)))),
    "tight-scan": lambda: (*catalog(), *sample(9, 30, seed=2), *truncations(("two-loop", 3), ("three-loop", 2))),
    "representations": lambda: (*catalog(6), *sample(range(8, 11), 2)),
    "neighbourhoods": lambda: (*catalog(), *sample(10, 4, seed=5), *sample(range(8, 13), 3),
                               *truncations(*BENCH_TRUNCATIONS)),
    "suite": lambda: (*catalog(), *sample(range(8, 13), 2)),
    "texts": _texts,
}


@cache
def instances(*names: str) -> tuple:
    """The union of the named slices, each instance once, in order."""
    return tuple({id(x): x for name in names for x in SLICES[name]()}.values())


def params(name: str) -> list:
    """A pytest param (name, i) for each instance i of the slice, with the
    id n<size>, which pytest numbers apart where sizes repeat.  The slice
    is built at collection.  Should building it raise, as a library fault
    can make it do, the one param (name, None) stands for the whole slice,
    and its test fails where it builds the slice again, so the fault fails
    tests instead of their collection."""
    try:
        built = instances(name)
    except Exception:  # reported by the test that rebuilds the slice
        return [pytest.param(name, None, id=name)]
    return [pytest.param(name, i, id=f"n{len(S)}") for i, S in enumerate(built)]


def relabeled(S: Semilattice, rng: random.Random) -> Semilattice:
    """S with its element indices shuffled, so that index order need not
    extend the order of S."""
    new = list(S.elements())
    rng.shuffle(new)
    old = sorted(S.elements(), key=new.__getitem__)
    return Semilattice(tuple(S.labels[i] for i in old),
                       tuple(tuple(new[S.meet(i, j)] for j in old) for i in old),
                       new[S.zero], new[S.one])


@cache
def relabeled_copy(S: Semilattice) -> Semilattice:
    return relabeled(S, random.Random(f"{RELABEL_SEED}\n{S.to_text()}"))


def copies(x) -> tuple:
    """A semilattice and its relabeled copy; any other input alone."""
    return (x, relabeled_copy(x)) if isinstance(x, Semilattice) else (x,)
