"""Verification battery over the catalog."""

from __future__ import annotations

import json
from pathlib import Path

from slat import core, suite
from slat.catalog import CatalogSpec
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


def test_refinement_monotone_fires(monkeypatch):
    # true on families of odd size only: a one-element step can lose it
    monkeypatch.setattr(suite, "arrow", lambda S, f, es: len(es) % 2 == 1)
    report = run_suite(CatalogSpec(max_size=4))
    assert report.checks["refinement_monotone"][1] > 0


def test_constraint_reduces_to_meet_fires(monkeypatch):
    monkeypatch.setattr(suite, "constrained_set",
                        lambda S, X, Y: core.constrained_set(S, X, ()))
    report = run_suite(CatalogSpec(max_size=4))
    assert report.checks["constraint_reduces_to_meet"][1] > 0
