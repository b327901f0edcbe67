"""Smoke checks of the benchmark on the tiny workloads.

    python3 -m pytest bench -q

The main check catches a traced function whose binding was missed (for
example a `from x import y` copy): every wrapped function must report
calls on the workload where it is predicted to move, and none where the
workload is predicted to bypass it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402

ALL = set(WORKLOADS)

# span name -> (workloads where it must be called, workloads where it must not be)
PREDICTIONS = {
    "filters.tight_violations": ({"graph-classify"}, {"path-space", "cantor-exprs"}),
    "core.constrained_set": ({"catalog", "graph-classify"}, {"path-space", "cantor-exprs"}),
    "core.validate": ({"path-space"}, {"cantor-exprs"}),
    "core.arrow": ({"path-space"}, {"cantor-exprs"}),
    "stone.build_space": ({"path-space"}, {"cantor-exprs"}),
    "stone.opens": ({"path-space"}, {"cantor-exprs"}),
    "stone.clopen_algebra": ({"path-space"}, {"cantor-exprs"}),
    "catalog.enumerate": ({"catalog"}, ALL - {"catalog"}),
    "catalog.canonical_key": ({"catalog"}, ALL - {"catalog"}),
    "suite.run_suite": ({"catalog"}, ALL - {"catalog"}),
    "classify.is_compactable_finite": ({"graph-classify"}, {"path-space", "cantor-exprs"}),
    "pathlat.truncate": ({"path-space"}, {"catalog", "cantor-exprs"}),
    "pathlat.sibling_cover_witness": ({"path-space"}, {"catalog", "cantor-exprs"}),
    "cantor.normalize": ({"cantor-exprs"}, ALL - {"cantor-exprs"}),
    "cantor.meet": ({"cantor-exprs"}, ALL - {"cantor-exprs"}),
    "cantor.join": ({"cantor-exprs"}, ALL - {"cantor-exprs"}),
    "cantor.complement": ({"cantor-exprs"}, ALL - {"cantor-exprs"}),
    "cli.main": ({"graph-classify"}, {"cantor-exprs"}),
}


def _traced_pass(items) -> tuple[Tracer, list]:
    tracer = Tracer()
    tracer.install()
    try:
        results = run.run_pass(items, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_land_where_predicted(name):
    items = WORKLOADS[name].build(0, True)
    plain = run.run_pass(items)
    for item, (output, error, _, _) in zip(items, plain):
        assert error is None and item.check(output) is None, item.name

    tracer, traced = _traced_pass(items)
    assert [r[0] for r in traced] == [r[0] for r in plain]
    for span, (moves, bypassed) in PREDICTIONS.items():
        if name in moves:
            assert tracer.calls[span] > 0, f"{span} not called on {name}"
        if name in bypassed:
            assert tracer.calls[span] == 0, f"{span} called on {name}"

    again, _ = _traced_pass(items)
    counts = {k: v for k, v in tracer.layer_metrics().items() if PER_LAYER[k][0] != "s"}
    assert counts == {k: v for k, v in again.layer_metrics().items() if PER_LAYER[k][0] != "s"}


def test_install_rebinds_every_copy_and_uninstall_restores():
    originals = {}
    for (mod, attr), _ in TRACED.items():
        owner = sys.modules[f"slat.{mod}"]
        if "." in attr:
            cls, meth = attr.split(".")
            originals[(mod, attr)] = vars(getattr(owner, cls))[meth]
        else:
            originals[(mod, attr)] = getattr(owner, attr)
    slat_modules = [m for n, m in sys.modules.items() if n == "slat" or n.startswith("slat.")]
    tracer = Tracer()
    tracer.install()
    try:
        for original in originals.values():
            holders = [m.__name__ for m in slat_modules if original in vars(m).values()]
            assert not holders, f"{original.__qualname__} still bound in {holders}"
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        owner = sys.modules[f"slat.{mod}"]
        if "." not in attr:
            assert getattr(owner, attr) is original


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(samples)
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(s > value for s in samples) == 10


def test_only_a_declared_known_error_keeps_the_run_correct():
    def fine(output):
        return None
    items = [Item("known", None, fine, known_error=RecursionError), Item("plain", None, fine)]
    outcomes = run.Outcomes(items)
    outcomes.add_pass([(None, RecursionError(), 0.1, 0.2), ("out", None, 0.1, 0.2)])
    assert (outcomes.failed, outcomes.wrong, outcomes.samples(True)) == (1, 0, [0.2])
    outcomes.add_pass([(None, ValueError(), 0.1, 0.2), (None, RecursionError(), 0.1, 0.2)])
    assert (outcomes.failed, outcomes.wrong) == (3, 2)


def test_host_speed_scale_averages_the_kernel_runs_in_and_next_to_an_interval():
    speed = reference.HostSpeed()
    speed.at = [1.0, 2.0, 2.3, 3.0, 10.0]
    speed.took = [0.001, 0.006, 0.003, 0.002, 0.001]
    # No run inside: the last run before and the first after.
    assert speed.scale(2.1, 2.2) == pytest.approx(reference.NOMINAL_S * 2 / 0.009)
    # Runs inside as well; those further away do not count.
    assert speed.scale(1.5, 2.5) == pytest.approx(reference.NOMINAL_S * 4 / 0.012)


def test_sampled_pass_leaves_the_kernel_out_of_item_times():
    def spin(state):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    items = [Item("spin", spin, lambda output: None)]
    (output, error, seconds, normalized), = run.run_pass(items)
    assert error is None and normalized > 0
    # The spin lasts 0.3 s of wall time, including the kernel runs that
    # interrupt it about every 50 ms; those are left out of its time.
    assert seconds < 0.3 - 0.003


@pytest.mark.parametrize("words, canonical", [
    (("a", "ba", "bb"), False),        # complete family {ba, bb} not collapsed
    (("a", "ab"), False),              # a is a prefix of ab
    (("ba", "a"), False),              # not shortlex
    (("a", "ba"), True),
    (("",), True),
])
def test_normal_form_check(words, canonical):
    assert (workloads._normal_form("ab", words) is None) is canonical
