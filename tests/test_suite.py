"""Verification battery over the catalog."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import corpus
import suite_oracle
from slat import core, stone, suite
from slat.catalog import CatalogSpec
from slat.cli import main
from slat.core import Semilattice
from slat.suite import VerificationReport, run_suite

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"

CHECK_NAMES = {
    "filters_are_principal",
    "ultrafilter_criterion_is_maximality",
    "extension_reaches_ultrafilter",
    "ultrafilters_are_tight",
    "tight_equals_ultrafilters",
    "zero_disjunctive_iff_separative",
    "strict_base_monotonicity_iff_zero_disjunctive",
    "meet_separation_iff_zero_disjunctive",
    "trapping_iff_separative",
    "trapping_witnesses_valid",
    "refinement_matches_base_cover",
    "refinement_monotone",
    "order_bridge",
    "base_meet_law",
    "hausdorff_witnesses",
    "clopens_decompose",
    "embedding_with_joins_iff_separative",
    "dense_embedding_iff_zero_disjunctive",
    "representations_are_filters",
    "constraint_reduces_to_meet",
    "nbhd_agrees_on_points",
}


def test_run_suite_small_catalog():
    report = run_suite(CatalogSpec(max_size=5))
    assert report.ok()
    assert report.instances == {2: 1, 3: 1, 4: 2, 5: 5}
    assert set(report.checks) == CHECK_NAMES
    total = sum(report.instances.values())
    for name, (passed, failed) in report.checks.items():
        assert failed == 0, name
        assert passed == total, name


def test_render_is_deterministic():
    a = run_suite(CatalogSpec(max_size=4)).render()
    b = run_suite(CatalogSpec(max_size=4)).render()
    assert a == b
    assert a.endswith("result: pass\n")


def test_render_kv_mode():
    text = run_suite(CatalogSpec(max_size=3)).render(kv=True)
    lines = text.strip().splitlines()
    assert all("=" in line for line in lines)
    pairs = dict(line.split("=", 1) for line in lines)
    assert pairs["result"] == "pass"
    assert pairs["counterexamples"] == "0"
    assert pairs["instances_size_3"] == "1"


def test_report_records_counterexamples(chain3):
    report = VerificationReport()
    report.record("demo", True, chain3, "")
    assert report.ok()
    report.record("demo", False, chain3, "left=1 right=2")
    assert not report.ok()
    assert report.checks["demo"] == [1, 1]
    rendered = report.render()
    assert "demo" in rendered and "left=1 right=2" in rendered
    # the counterexample carries a replayable serialization
    name, text, detail = report.counterexamples[0]
    assert Semilattice.from_text(text) == chain3
    assert rendered.endswith("result: fail\n")


def test_random_mode_suite():
    report = run_suite(CatalogSpec(max_size=8, mode="random", sample_count=5, seed=3))
    assert report.ok()
    assert report.instances == {8: 5}


def test_size_seven_kv_report_matches_golden():
    golden = json.loads(GOLDENS.read_text())["catalog --max-size 7 --report kv"]["stdout"]
    assert run_suite(CatalogSpec(max_size=7)).render(kv=True) == golden


_nbhd_generators = stone._nbhd_generators


def _drop_last_generator(S, e, es):
    # the largest carrier, often an ultrafilter, goes missing
    keep = _nbhd_generators(S, e, es)
    held = [g for g in S.filter_generators if keep >> g & 1]  # smallest carriers first
    return keep & ~(1 << held[-1]) if held else keep


def _rep_of_top_filter(S, F):
    # a genuine representation, but the one of {1} whatever F is
    return stone.Representation(S, tuple(int(e == S.one) for e in S.elements()))


# Faults in the library routes that the five mask checks call, as
# (module, name, replacement) for monkeypatch.setattr.  The suite calls
# the mask kernels of arrow, constrained_set and filterspace_nbhd, so
# those faults patch the kernels.
FAULTS = {
    # true on families of odd size only: a one-element step can lose it
    "arrow-odd-families": (suite, "_refines", lambda S, f, es: len(es) % 2 == 1),
    # every family refines, the empty one and non-covering ones included
    "arrow-always": (suite, "_refines", lambda S, f, es: True),
    "constraint-drops-Y": (suite, "_below_orthogonal", lambda S, m, Y: core._below_orthogonal(S, m, ())),
    "nbhd-drops-last": (stone, "_nbhd_generators", _drop_last_generator),
    # A wrong is_representation is not listed: the oracle scans with its
    # own, so it would disagree with the suite by design; see
    # test_wrong_is_representation_is_a_counterexample.
    "rep-of-top-filter": (stone, "rep_of_filter", _rep_of_top_filter),
}


def _fails_under(fault, check, monkeypatch) -> bool:
    monkeypatch.setattr(*FAULTS[fault])
    return run_suite(CatalogSpec(max_size=5)).checks[check][1] > 0


def test_refinement_monotone_fires(monkeypatch):
    assert _fails_under("arrow-odd-families", "refinement_monotone", monkeypatch)


def test_constraint_reduces_to_meet_fires(monkeypatch):
    assert _fails_under("constraint-drops-Y", "constraint_reduces_to_meet", monkeypatch)


def test_refinement_matches_base_cover_fires(monkeypatch):
    assert _fails_under("arrow-always", "refinement_matches_base_cover", monkeypatch)


def test_nbhd_agrees_on_points_fires(monkeypatch):
    assert _fails_under("nbhd-drops-last", "nbhd_agrees_on_points", monkeypatch)


def test_representations_are_filters_fires(monkeypatch):
    assert _fails_under("rep-of-top-filter", "representations_are_filters", monkeypatch)


_is_representation = stone.is_representation


def _accepts_all_ones(S, values):
    # also the vector sending zero to 1, whose preimage is no filter
    return _is_representation(S, values) or set(values) == {1}


def _rejects_top_filter(S, values):
    # refuses the representation of {1}, the smallest filter
    return _is_representation(S, values) and sum(values) != 1


@pytest.mark.parametrize("wrong", [_accepts_all_ones, _rejects_top_filter],
                         ids=["accepts-all-ones", "rejects-top-filter"])
def test_wrong_is_representation_is_a_counterexample(wrong, monkeypatch, capsys):
    # The round trip through a wrong is_representation raises
    # NotAFilterError or NotARepresentationError; the suite records it as
    # a failure of its check instead of letting it escape as an input error.
    monkeypatch.setattr(stone, "is_representation", wrong)
    report = run_suite(CatalogSpec(max_size=5))
    assert report.checks["representations_are_filters"] == [0, 9]
    assert all(p == 9 for name, (p, f) in report.checks.items()
               if name != "representations_are_filters")
    assert [name for name, _, _ in report.counterexamples] == ["representations_are_filters"] * 9
    assert all(detail.startswith("a round trip raised: ") for _, _, detail in report.counterexamples)
    assert main(["catalog", "--max-size", "5"]) == 1
    captured = capsys.readouterr()
    assert captured == (report.render(), "")
    assert "check representations_are_filters: pass=0 fail=9\n" in captured.out


def _suite_verdicts(S):
    report = VerificationReport()
    suite._check_instance(S, report)
    return {name: report.checks[name] == [1, 0] for name in suite_oracle.CHECKS}


@pytest.mark.parametrize("fault", [None, *FAULTS], ids=lambda f: f or "clean")
def test_mask_checks_match_frozenset_oracle(fault, monkeypatch):
    if fault:
        monkeypatch.setattr(*FAULTS[fault])
    failed = set()
    for i, S in enumerate(corpus.instances("suite")):
        got = _suite_verdicts(S)
        assert got == suite_oracle.verdicts(S), f"slice suite, instance {i}\n{S.to_text()}"
        failed.update(name for name, passed in got.items() if not passed)
    # each fault shows in at least one of the five checks
    assert bool(failed) == bool(fault)


# How often the suite calls each library route, through the bindings the
# fault tests patch (the kernels, where a route has one), on the size-7
# catalog and on one random size-10 instance.  A speedup must come from
# cheaper calls, never from fewer.  On n elements an instance asks
# is_representation of all 2^n vectors, and once more inside each
# filter_of_rep; arrow of each non-zero f with each family of at most
# three elements, with each singleton [f'] for the order bridge and with
# each trapping witness family; constrained_set of each distinct meet of
# at most two elements with each family Y of at most two; and
# filterspace_nbhd of each non-zero e with each family of at most two
# elements below it.
CALL_BUDGET = {
    (suite, "_refines"): (26_839, 1_665),
    (suite, "_below_orthogonal"): (13_256, 560),
    (stone, "_nbhd_generators"): (4_601, 224),
    (stone, "is_representation"): (8_792, 1_042),
    (stone, "rep_of_filter"): (844, 18),
    (stone, "filter_of_rep"): (844, 18),
}


def _counted(calls: Counter, name: str, route):
    def counted(*args):
        calls[name] += 1
        return route(*args)
    return counted


@pytest.mark.parametrize("column, spec", [
    (0, CatalogSpec(max_size=7)),
    (1, CatalogSpec(max_size=10, mode="random", sample_count=1, seed=5)),
], ids=["max-size-7", "random-size-10"])
def test_suite_makes_every_library_call(column, spec, monkeypatch):
    calls = Counter()
    for module, name in CALL_BUDGET:
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
    assert run_suite(spec).ok()
    assert calls == {name: budget[column] for (_, name), budget in CALL_BUDGET.items()}
