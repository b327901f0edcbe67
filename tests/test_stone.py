"""Ultrafilter space, clopen algebra, representations, hom extension."""

from __future__ import annotations

import itertools
import random
import re
from functools import reduce
from operator import or_

import pytest

import corpus
import stone_oracle
import suite_oracle
from conftest import idx
from slat import stone
from slat.catalog import CatalogSpec
from slat.cli import main
from slat.core import Semilattice
from slat.errors import (
    BadBasisError,
    NotAFilterError,
    NotAHomomorphismError,
    NotARepresentationError,
    PreconditionFailedError,
    SamePointError,
    TheoremViolationError,
    UndecomposableError,
)
from slat.filters import (
    enumerate_filters,
    enumerate_ultrafilters,
    is_tight,
    is_ultrafilter,
    principal_filter,
)
from slat.pathlat import truncate
from slat.stone import (
    FiniteBooleanAlgebra,
    Representation,
    UltrafilterSpace,
    build_space,
    clopen_algebra,
    clopen_elements,
    dense_check,
    extend_hom,
    filter_of_rep,
    filterspace_nbhd,
    hausdorff_witness,
    join_decomposition,
    kappa,
    kappa_injective,
    opens,
    rep_of_filter,
)
from slat.suite import run_suite
from test_oracles import drive


def point_of(space, label: str) -> int:
    S = space.lattice
    return space.point_index(principal_filter(S, S.index(label)))


def test_build_space_fixtures(vee, chain3, bool1):
    sv = build_space(vee)
    assert len(sv.points) == 2
    # base sets are masks of point indices
    assert sv.base[idx(vee, "a")].bit_count() == 1
    assert sv.base[idx(vee, "b")].bit_count() == 1
    assert sv.base[vee.zero] == 0
    assert sv.base[vee.one] == 0b11

    sc = build_space(chain3)
    assert len(sc.points) == 1
    assert sc.base[idx(chain3, "a")] == sc.base[chain3.one]

    assert len(build_space(bool1).points) == 1


@pytest.mark.parametrize("instances", corpus.INSTANCE_SETS)
def test_build_space_points_match_ultrafilter_oracle(instances, request):
    drive(request, *corpus.instances(instances))


def test_build_space_sees_a_lost_ultrafilter(vee, lose_an_ultrafilter):
    with pytest.raises(TheoremViolationError, match="^non-zero element 'a' lies in no ultrafilter$"):
        build_space(vee)


def test_kappa(vee):
    space = build_space(vee)
    assert kappa(space, idx(vee, "a")) == 1 << point_of(space, "a")
    assert kappa(space, vee.one) == 0b11
    assert kappa(space, vee.zero) == 0


def test_kappa_injective(vee, chain3):
    assert kappa_injective(build_space(vee))
    assert not kappa_injective(build_space(chain3))


def test_hausdorff_witness_vee(vee):
    space = build_space(vee)
    Fa = principal_filter(vee, idx(vee, "a"))
    Fb = principal_filter(vee, idx(vee, "b"))
    e, f = hausdorff_witness(space, Fa, Fb)
    assert (vee.labels[e], vee.labels[f]) == ("a", "b")
    assert e in Fa and f in Fb
    assert vee.meet(e, f) == vee.zero
    with pytest.raises(SamePointError):
        hausdorff_witness(space, Fa, Fa)


def test_hausdorff_witness_sees_intersecting_base_sets(vee):
    space = build_space(vee)
    base = list(space.base)
    base[idx(vee, "b")] = space.base[vee.one]  # K(a) & K(b) is no longer K(0)
    broken = UltrafilterSpace(vee, space.points, tuple(base))
    assert stone_oracle.base_law_violation(broken) == "base sets fail the meet law at ('a', 'b')"
    Fa = principal_filter(vee, idx(vee, "a"))
    Fb = principal_filter(vee, idx(vee, "b"))
    with pytest.raises(TheoremViolationError, match="^separating base sets intersect$"):
        hausdorff_witness(broken, Fa, Fb)


def test_hausdorff_witness_separates_all_pairs():
    for S in corpus.catalog(6):
        space = build_space(S)
        ultras = enumerate_ultrafilters(S)
        for F, G in itertools.permutations(ultras, 2):
            e, f = hausdorff_witness(space, F, G)
            assert e in F.carrier and f in G.carrier
            assert not (space.base[e] & space.base[f])


def test_opens_fixtures(vee, chain3, bool1):
    sv = build_space(vee)
    assert opens(sv) == [0, 0b01, 0b10, 0b11]
    assert opens(build_space(chain3)) == [0, 0b1]
    assert len(opens(build_space(bool1))) == 2


def test_clopen_algebra_fixtures(vee, chain3, bool1):
    assert len(clopen_elements(build_space(vee))) == 4
    assert len(clopen_elements(build_space(chain3))) == 2
    assert len(clopen_elements(build_space(bool1))) == 2


def test_clopen_algebra_is_boolean():
    for S in corpus.catalog(6):
        space = build_space(S)
        alg = clopen_algebra(space)
        elems = set(clopen_elements(space))
        for C in elems:
            assert alg.complement(C) in elems
            for D in elems:
                assert C & D in elems
                assert C | D in elems
        assert 0 in elems
        assert alg.universe in elems


def test_join_decomposition(vee, chain3, bool1):
    sv = build_space(vee)
    C = 0b11
    parts = join_decomposition(sv, C)
    assert parts
    assert all(e != vee.zero for e in parts)
    assert reduce(or_, (sv.base[e] for e in parts)) == C
    assert join_decomposition(sv, 0) == []

    sb = build_space(bool1)
    assert join_decomposition(sb, 0b1) == [bool1.one]

    sc = build_space(chain3)
    assert reduce(or_, (sc.base[e] for e in join_decomposition(sc, 0b1))) == 0b1


def test_join_decomposition_rejects_foreign_points(vee):
    space = build_space(vee)
    with pytest.raises(UndecomposableError):
        join_decomposition(space, 1 << 7)


def test_dense_check(vee, chain3, bool1):
    assert dense_check(build_space(vee))
    assert not dense_check(build_space(chain3))
    assert dense_check(build_space(bool1))


def test_representation_round_trip_fixture(vee):
    F = principal_filter(vee, idx(vee, "a"))
    rep = rep_of_filter(vee, F)
    expected = tuple(
        1 if vee.labels[e] in ("a", "1") else 0 for e in vee.elements())
    assert rep.values == expected
    assert filter_of_rep(vee, rep) == F


def test_representation_round_trip_everywhere():
    for S in corpus.catalog(6):
        filters = enumerate_filters(S)
        for F in filters:
            assert filter_of_rep(S, rep_of_filter(S, F)) == F
        # counts agree in the other direction too
        n = len(S)
        reps = [
            vals for vals in itertools.product((0, 1), repeat=n)
            if suite_oracle.is_representation(S, vals)]
        assert len(reps) == len(filters)


def test_equal_but_distinct_lattice_is_accepted(vee, chain4):
    twin = Semilattice(vee.labels, vee.meet_table, vee.zero, vee.one)
    assert twin is not vee and twin == vee
    F = principal_filter(twin, idx(twin, "a"))
    assert is_ultrafilter(vee, F) and is_tight(vee, F)
    rep = rep_of_filter(vee, F)
    assert filter_of_rep(vee, Representation(twin, rep.values)) == F
    # a lattice that is not equal is still refused
    with pytest.raises(NotAFilterError):
        rep_of_filter(chain4, F)
    with pytest.raises(NotAFilterError):
        is_ultrafilter(chain4, F)
    with pytest.raises(NotARepresentationError):
        filter_of_rep(chain4, Representation(twin, rep.values))


def test_bad_representations_rejected(vee):
    with pytest.raises(NotARepresentationError):
        filter_of_rep(vee, Representation(vee, (1, 0, 0, 1)))  # value 1 at zero
    with pytest.raises(NotARepresentationError):
        # 1 on both atoms but their meet is zero
        filter_of_rep(vee, Representation(vee, (0, 1, 1, 1)))


def test_filterspace_nbhd(vee):
    a, b, one = idx(vee, "a"), idx(vee, "b"), vee.one
    hoods = filterspace_nbhd(vee, one, [a])
    assert [F.labels() for F in hoods] == [("1",), ("b", "1")]
    assert [F.labels() for F in filterspace_nbhd(vee, one, [a, b])] == [("1",)]
    everything = filterspace_nbhd(vee, one, [])
    assert len(everything) == len(enumerate_filters(vee))
    with pytest.raises(BadBasisError):
        filterspace_nbhd(vee, a, [b])  # b is not below a


def test_point_index_rejects_non_points(vee):
    space = build_space(vee)
    assert [space.point_index(F) for F in space.points] == list(range(len(space.points)))
    with pytest.raises(ValueError, match="^not a point of this space$"):
        space.point_index(principal_filter(vee, vee.one))


def test_extend_hom_success(vee):
    B = FiniteBooleanAlgebra(("p", "q"))
    a, b = idx(vee, "a"), idx(vee, "b")
    alpha = {
        vee.zero: frozenset(),
        a: frozenset({"p"}),
        b: frozenset({"q"}),
        vee.one: frozenset({"p", "q"}),
    }
    space = build_space(vee)
    beta = extend_hom(vee, B, alpha)
    assert beta[kappa(space, a)] == frozenset({"p"})
    assert beta[kappa(space, vee.one)] == frozenset({"p", "q"})
    # beta extends alpha on every base set
    for e in vee.elements():
        assert beta[kappa(space, e)] == alpha[e]


def test_extend_hom_unique(vee):
    # brute force: among all maps clopens -> B, exactly one is a Boolean
    # hom agreeing with alpha on base sets
    B = FiniteBooleanAlgebra(("p", "q"))
    a, b = idx(vee, "a"), idx(vee, "b")
    alpha = {
        vee.zero: frozenset(),
        a: frozenset({"p"}),
        b: frozenset({"q"}),
        vee.one: frozenset({"p", "q"}),
    }
    space = build_space(vee)
    beta = extend_hom(vee, B, alpha)
    alg = clopen_algebra(space)
    clopens = clopen_elements(space)
    base_of = {e: kappa(space, e) for e in vee.elements()}
    candidates = 0
    for images in itertools.product(B.elements(), repeat=len(clopens)):
        m = dict(zip(clopens, images))
        if any(m[base_of[e]] != alpha[e] for e in vee.elements()):
            continue
        if any(
            m[C & D] != m[C] & m[D] or m[C | D] != m[C] | m[D]
            for C in clopens for D in clopens
        ):
            continue
        if any(m[alg.complement(C)] != B.complement(m[C]) for C in clopens):
            continue
        candidates += 1
        assert m == beta
    assert candidates == 1


def test_extend_hom_collapse_fails(vee):
    # sending the atom a to bottom leaves the pullback at p a non-maximal
    # filter, so there is nothing to extend
    B = FiniteBooleanAlgebra(("p", "q"))
    alpha = {
        vee.zero: frozenset(),
        idx(vee, "a"): frozenset(),
        idx(vee, "b"): frozenset({"q"}),
        vee.one: frozenset({"p", "q"}),
    }
    with pytest.raises(PreconditionFailedError):
        extend_hom(vee, B, alpha)


def test_extend_hom_needs_injective_base_map(chain3):
    B = FiniteBooleanAlgebra(("p",))
    alpha = {
        chain3.zero: frozenset(),
        idx(chain3, "a"): frozenset({"p"}),
        chain3.one: frozenset({"p"}),
    }
    with pytest.raises(PreconditionFailedError):
        extend_hom(chain3, B, alpha)


def test_extend_hom_constant_top_degenerate(bool1):
    B = FiniteBooleanAlgebra(("p",))
    alpha = {bool1.zero: frozenset(), bool1.one: frozenset({"p"})}
    beta = extend_hom(bool1, B, alpha)
    space = build_space(bool1)
    assert beta[kappa(space, bool1.one)] == frozenset({"p"})
    assert beta[0] == frozenset()


@pytest.mark.parametrize("label, image, message", [
    ("a", None, "no image for element 'a'"),
    ("a", {"p", "z"}, "image of 'a' uses unknown atoms"),
    ("0", {"p"}, "zero must map to the bottom"),
    ("1", {"p"}, "one must map to the top"),
    ("b", {"p"}, "meets not preserved at ('a', 'b')"),
])
def test_extend_hom_rejects_non_homomorphisms(vee, label, image, message):
    B = FiniteBooleanAlgebra(("p", "q"))
    alpha = {idx(vee, k): frozenset(v) for k, v in (("0", ""), ("a", "p"), ("b", "q"), ("1", "pq"))}
    if image is None:
        del alpha[idx(vee, label)]
    else:
        alpha[idx(vee, label)] = frozenset(image)
    with pytest.raises(NotAHomomorphismError, match=f"^{re.escape(message)}$"):
        extend_hom(vee, B, alpha)


def _pullback_homs(rng: random.Random, space, count: int):
    """Bounded homs into powersets whose pullbacks are ultrafilters.

    Each atom x of B is sent to a point p(x), and alpha(e) holds x iff
    p(x) is in K(e); the pullback at x is then the ultrafilter of p(x).
    """
    S = space.lattice
    for _ in range(count):
        atoms = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
        point = {x: rng.randrange(len(space.points)) for x in atoms}
        yield FiniteBooleanAlgebra(atoms), {
            e: frozenset(x for x in atoms if space.base[e] >> point[x] & 1) for e in S.elements()}


def test_extend_hom_is_a_boolean_hom_on_injective_instances(two_loop):
    rng = random.Random(3)
    instances = [S for S in corpus.catalog() if kappa_injective(build_space(S))]
    instances.append(truncate(two_loop, 2))
    assert len(instances) == 10
    for S in instances:
        space = build_space(S)
        for B, alpha in _pullback_homs(rng, space, 3):
            beta = extend_hom(S, B, alpha)
            assert stone_oracle.extension_violation(space, B, alpha, beta) is None


def test_extension_oracle_sees_every_wrong_image():
    # M3: three atoms under the top, so clopens {p, q} are not base sets
    m3 = Semilattice.from_order(
        ("0", "a", "b", "c", "1"), tuple(("0", x) for x in "abc") + tuple((x, "1") for x in "abc"))
    space = build_space(m3)
    B, alpha = next(_pullback_homs(random.Random(1), space, 1))
    beta = extend_hom(m3, B, alpha)
    assert len(beta) == 8
    for C in beta:
        wrong = dict(beta)
        wrong[C] = B.complement(beta[C])
        assert stone_oracle.extension_violation(space, B, alpha, wrong) is not None


def _count_opens(monkeypatch) -> list:
    calls = []
    listed = stone.opens

    def counted(space):
        calls.append(len(space.points))
        return listed(space)
    monkeypatch.setattr(stone, "opens", counted)
    return calls


@pytest.mark.parametrize("depth", [1, 3])
def test_stone_cli_lists_the_opens_once(depth, two_loop, monkeypatch, tmp_path, capsys):
    # the clopens are listed, through opens(), only up to 6 points
    path = tmp_path / "two-loop.slat"
    path.write_text(truncate(two_loop, depth).to_text())
    calls = _count_opens(monkeypatch)
    assert main(["stone", str(path)]) == 0
    assert calls == ([2 ** depth] if 2 ** depth <= 6 else [])
    assert "dense=true" in capsys.readouterr().out.splitlines()


def test_suite_lists_the_opens_once_per_instance(monkeypatch):
    # once per instance until the suite decomposed only the clopen atoms;
    # now it lists no opens at all
    calls = _count_opens(monkeypatch)
    report = run_suite(CatalogSpec(max_size=5))
    assert report.ok()
    assert sum(report.instances.values()) == 9 and calls == []
