"""Acceptance criteria.

Five exact, tolerance-free checks.  Each test prints one PASS/FAIL line;
the only numeric bounds are the two wall-clock budgets (300 s for the
exhaustive catalog, 30 s for the random expression battery), pinned here
as hard limits.
"""

from __future__ import annotations

import itertools
import random
import time

import corpus
from cantor_oracle import check_expr_against_oracle, random_expr
from slat.cantor import (
    complement,
    eval_expr,
    is_single_cylinder_complemented,
    join,
    meet,
    normalize,
)
from slat.catalog import CatalogSpec, canonical_key, enumerate_catalog
from slat.classify import (
    is_separative,
    is_zero_disjunctive,
    satisfies_trapping,
    trapping_witness,
)
from slat.core import Semilattice, _members, arrow, down, nonzero_pairs_below, star
from slat.errors import PreconditionFailedError
from slat.filters import (
    enumerate_ultrafilters,
    is_tight,
    principal_filter,
    tight_filters,
)
from slat.pathlat import level, sibling_cover_witness, truncate, zero_disjunctive_graph
from slat.stone import (
    FiniteBooleanAlgebra,
    build_space,
    clopen_algebra,
    clopen_elements,
    dense_check,
    extend_hom,
    join_decomposition,
    kappa,
    kappa_injective,
)

CATALOG_BUDGET_SECONDS = 300.0
CANTOR_BUDGET_SECONDS = 30.0
EXPECTED_COUNTS = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15}


def _verdict(num: int, name: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _vee() -> Semilattice:
    return Semilattice.from_order(
        ("0", "a", "b", "1"),
        (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
    )


def _chain3() -> Semilattice:
    return Semilattice.from_order(("0", "a", "1"), (("0", "a"), ("a", "1")))


def test_acceptance_1_catalog_theorems():
    start = time.perf_counter()
    ok = True
    counts: dict[int, int] = {}
    for S in enumerate_catalog(CatalogSpec(max_size=6)):
        counts[len(S)] = counts.get(len(S), 0) + 1
        space = build_space(S)

        ultras = {F.carrier for F in enumerate_ultrafilters(S)}
        tights = {F.carrier for F in tight_filters(S)}
        ok = ok and tights == ultras
        ok = ok and all(is_tight(S, F) for F in enumerate_ultrafilters(S))

        zd = is_zero_disjunctive(S)
        base = [frozenset(_members(b)) for b in space.base]  # point masks as sets
        strict_mono = all(
            base[f] < base[e] for e, f in nonzero_pairs_below(S))
        ok = ok and is_separative(S) == zd and strict_mono == zd
        ok = ok and satisfies_trapping(S) == is_separative(S)

        nz = list(S.nonzero())
        for f in nz:
            for r in range(min(3, len(nz)) + 1):
                for es in itertools.combinations(nz, r):
                    union = frozenset().union(
                        *(base[e] for e in es)) if es else frozenset()
                    ok = ok and arrow(S, f, es) == (base[f] <= union)

        decomposable = True
        for C in clopen_elements(space):
            parts = join_decomposition(space, C)
            union = frozenset().union(
                *(base[e] for e in parts)) if parts else frozenset()
            decomposable = decomposable and union == frozenset(_members(C))
        ok = ok and (decomposable and kappa_injective(space)) == is_separative(S)
        ok = ok and dense_check(space) == zd
        if not ok:
            break

    elapsed = time.perf_counter() - start
    ok = ok and counts == EXPECTED_COUNTS and elapsed < CATALOG_BUDGET_SECONDS
    _verdict(1, "catalog_theorem_suite", ok,
             f"{sum(counts.values())} instances, {elapsed:.1f}s")


def test_acceptance_2_fixture_table():
    vee, chain3 = _vee(), _chain3()
    a, b = vee.index("a"), vee.index("b")
    ok = [F.labels() for F in enumerate_ultrafilters(vee)] == [("a", "1"), ("b", "1")]
    ok = ok and not is_tight(vee, principal_filter(vee, vee.one))
    ok = ok and is_separative(vee)
    ok = ok and trapping_witness(vee, vee.one, a) == [b]

    c3a = chain3.index("a")
    ok = ok and [F.labels() for F in enumerate_ultrafilters(chain3)] == [("a", "1")]
    ok = ok and not is_separative(chain3)
    sc = build_space(chain3)
    ok = ok and kappa(sc, c3a) == kappa(sc, chain3.one)
    ok = ok and not satisfies_trapping(chain3)
    ok = ok and trapping_witness(chain3, chain3.one, c3a) is None
    _verdict(2, "fixture_table", ok)


def test_acceptance_3_cantor_battery():
    ok = complement(normalize("ab", ["aa"])).words == ("b", "ab")
    ok = ok and not is_single_cylinder_complemented("ab", "aa")

    start = time.perf_counter()
    rng = random.Random(20260816)
    recent: dict[str, list] = {"ab": [], "abc": []}
    for i in range(1000):
        alphabet = "ab" if i % 2 == 0 else "abc"
        e = random_expr(rng, alphabet, 5)
        check_expr_against_oracle(alphabet, e)
        window = recent[alphabet]
        window.append(eval_expr(alphabet, e.text()))
        del window[:-3]
        if len(window) == 3:
            P, Q, R = window
            ok = ok and complement(complement(P)) == P
            ok = ok and complement(meet(P, Q)) == join(complement(P), complement(Q))
            ok = ok and complement(join(P, Q)) == meet(complement(P), complement(Q))
            ok = ok and meet(P, join(Q, R)) == join(meet(P, Q), meet(P, R))
            ok = ok and join(P, meet(Q, R)) == meet(join(P, Q), join(P, R))
            ok = ok and join(P, meet(P, Q)) == P and meet(P, join(P, Q)) == P
            ok = ok and meet(P, complement(P)).is_bottom()
            ok = ok and join(P, complement(P)).is_top()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < CANTOR_BUDGET_SECONDS
    _verdict(3, "cantor_random_battery", ok, f"1000 expressions, {elapsed:.1f}s")


def test_acceptance_4_path_lattices():
    two_loop, single_edge = corpus.TWO_LOOP, corpus.SINGLE_EDGE
    ok = zero_disjunctive_graph(two_loop)

    for depth in (1, 2, 3, 4, 5):
        S = truncate(two_loop, depth)  # construction re-checks all laws
        for e in S.nonzero():
            for f in S.nonzero():
                if S.meet(e, f) != S.zero:
                    ok = ok and (S.leq(e, f) or S.leq(f, e))  # unambiguous
        for e, f in nonzero_pairs_below(S):
            if level(S, f) > depth:
                continue  # frontier pair
            W = sibling_cover_witness(S, e, f)
            region = (down(S, [e]) & star(S, f)) - {S.zero}
            ok = ok and set(W) <= region and arrow(S, e, list(W) + [f])

    ok = ok and canonical_key(truncate(two_loop, 1)) == canonical_key(_vee())
    ok = ok and canonical_key(truncate(single_edge, 1)) == canonical_key(_chain3())
    _verdict(4, "path_lattices", ok)


def test_acceptance_5_stone_extension():
    vee = _vee()
    B = FiniteBooleanAlgebra(("p", "q"))
    a, b = vee.index("a"), vee.index("b")
    alpha = {
        vee.zero: frozenset(),
        a: frozenset({"p"}),
        b: frozenset({"q"}),
        vee.one: frozenset({"p", "q"}),
    }
    space = build_space(vee)
    beta = extend_hom(vee, B, alpha)
    ok = all(beta[kappa(space, e)] == alpha[e] for e in vee.elements())

    # uniqueness by brute force over all candidate maps
    algebra = clopen_algebra(space)
    clopens = clopen_elements(space)
    matches = 0
    for images in itertools.product(B.elements(), repeat=len(clopens)):
        m = dict(zip(clopens, images))
        if any(m[kappa(space, e)] != alpha[e] for e in vee.elements()):
            continue
        if any(
            m[C & D] != m[C] & m[D]
            or m[C | D] != m[C] | m[D]
            for C in clopens for D in clopens
        ):
            continue
        if any(m[algebra.complement(C)] != B.complement(m[C]) for C in clopens):
            continue
        matches += 1
        ok = ok and m == beta
    ok = ok and matches == 1

    collapse = dict(alpha)
    collapse[a] = frozenset()  # a and 0 map together: pullback at p degenerates
    try:
        extend_hom(vee, B, collapse)
        ok = False
    except PreconditionFailedError:
        pass
    _verdict(5, "stone_extension", ok)
