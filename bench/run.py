"""Benchmark entry point for slat.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; slat is imported from its `src`
directory.  With --workload, one workload runs in this process: a
closed loop of whole passes over the workload's items, one item at a
time, for about --seconds (at least two passes).  Every item time is
also normalized by a fixed reference kernel timed right around it and,
for a long item, inside it (reference.py), which takes most of the
host's changing speed out of it.  An item's time is its
median over the passes; wall_s sums them, and item_p50_ms and
item_tail_ms describe their distribution, each printed raw and
normalized (norm_*).  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 untraced and traced passes
alternate and give the per-layer metrics, the tracing overhead and the
size ceilings.  Without --workload, every workload runs in its own fresh
process, one after another, and a summary follows.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
SETUP_SPAWNS = 3  # before each pass and after the last
# Item time after which the host's speed is sampled again.  Sampling costs
# about 3 ms, so short items share a sample: 25 cantor expressions do.
SEGMENT_S = 0.005


def _require_checkout() -> None:
    """Import slat from this checkout's sources, never from anywhere else."""
    missing = [p for p in ("src/slat/__init__.py", "tests/cantor_oracle.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: not a slat source checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import slat
    if Path(slat.__file__).resolve().parent != ROOT / "src" / "slat":
        sys.exit(f"bench: imported slat from {slat.__file__}, not from this checkout")


def measure_setup(spawns: int) -> list[float]:
    """Fresh interpreter to `import slat` done, timed `spawns` times."""
    argv = [sys.executable, "-c", "import slat, slat.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Outcomes:
    """Every item run of a workload: failures, and each item's times.

    An item's time is its median over the passes, raw and normalized.  An
    item that fails in any pass is left out of the latency samples; every
    failed run is counted.  A run is wrong when its output fails the item's
    check or it raises anything but the item's declared known error; one
    wrong run makes the workload incorrect.
    """

    def __init__(self, items) -> None:
        self.items = items
        self.raw: list[list[float]] = [[] for _ in items]
        self.norm: list[list[float]] = [[] for _ in items]
        self.ok = [True] * len(items)
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.wrong = 0
        self._verdicts: dict[int, tuple[object, str | None]] = {}

    def add_pass(self, results) -> None:
        for i, (output, error, seconds, normalized) in enumerate(results):
            self.attempted += 1
            self.raw[i].append(seconds)
            self.norm[i].append(normalized)
            if error is not None:
                known = self.items[i].known_error
                reason = f"raised {type(error).__name__}"
                if known is None or not isinstance(error, known):
                    reason += " (unexpected)"
                    self.wrong += 1
            else:
                reason = self._verdict(i, output)
                self.wrong += reason is not None
            if reason is not None:
                self.ok[i] = False
                key = f"{self.items[i].name}: {reason}"
                self.failures[key] = self.failures.get(key, 0) + 1

    def _verdict(self, i: int, output) -> str | None:
        # Outputs repeat across passes, so each distinct output is checked once.
        seen = self._verdicts.get(i)
        if seen is None or seen[0] != output:
            seen = (output, self.items[i].check(output))
            self._verdicts[i] = seen
        return seen[1]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def times(self, normalized: bool) -> list[float]:
        """Each item's median time over the passes, failed items included."""
        return [statistics.median(ts) for ts in (self.norm if normalized else self.raw)]

    def samples(self, normalized: bool) -> list[float]:
        return [t for t, ok in zip(self.times(normalized), self.ok) if ok]


def run_pass(items, tracer=None):
    """One closed-loop pass: each item starts when the previous one returns.

    Returns one (output, error, seconds, normalized seconds) per item.  An
    untraced pass samples the host's speed (reference.HostSpeed) after
    every item, or after a run of short items once they add up to
    SEGMENT_S, and leaves the samples' time out of the items they
    interrupted.  A traced pass is not sampled, so that the samples stay
    out of the per-layer times; its normalized time is its raw time.
    """
    # Start from no garbage, so that neither memory nor the collector's
    # work grows with the number of passes before this one.
    gc.collect()
    state: dict = {}
    speed = reference.HostSpeed()
    spans, spent = [], 0.0
    with contextlib.nullcontext() if tracer else speed:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            paused = speed.paused
            t0 = time.perf_counter()
            try:
                output, error = item.run(state), None
            except Exception as exc:  # an item that raises is a failed item, not a crash
                output, error = None, exc
            t1 = time.perf_counter()
            seconds = t1 - t0 - (speed.paused - paused)
            spans.append((output, error, t0, t1, seconds))
            spent += seconds
            if tracer is None and spent >= SEGMENT_S:
                speed.sample()
                spent = 0.0
    return [(output, error, seconds, seconds * (speed.scale(t0, t1) if speed.at else 1.0))
            for output, error, t0, t1, seconds in spans]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, beyond).  With ten samples or fewer there
    is no such percentile, and the maximum is returned with 0 beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS
    measure_setup(1)  # compiles the bytecode caches of a fresh checkout
    items = WORKLOADS[name].build(seed, False)
    # Keep the benchmark's own inputs out of the collector's way while timing.
    gc.collect()
    gc.freeze()
    print(f"workload={name} seed={seed} items/pass={len(items)} seconds={seconds:g} trace={int(traced)}")
    outcomes = Outcomes(items)
    if traced:
        return _run_traced(name, seed, items, seconds, outcomes)

    # Set-up runs are spread between the passes, so they meet the same
    # host load as the passes do.
    walls, setup = [], []
    deadline = time.perf_counter() + seconds
    # A pass starts only if one as long as the last still ends in time.
    while len(walls) < MIN_PASSES or time.perf_counter() + walls[-1] <= deadline:
        setup += measure_setup(SETUP_SPAWNS)
        t0 = time.perf_counter()
        results = run_pass(items)
        walls.append(time.perf_counter() - t0)
        outcomes.add_pass(results)
    setup += measure_setup(SETUP_SPAWNS)
    left_out = len(items) - sum(outcomes.ok)
    print(f"setup_s={statistics.median(setup):.6g} s  (median of {len(setup)}: "
          f"{' '.join(f'{x:.4f}' for x in setup)})")
    print(f"{len(walls)} passes of {len(items)} items; each item at its median over the passes, "
          f"{left_out} failed items left out of the latency samples; whole passes took "
          f"{' '.join(f'{x:.4f}' for x in walls)} s")
    metrics = {"setup_s": _metric(statistics.median(setup), "s")}
    for normalized in (False, True):
        prefix = "norm_" if normalized else ""
        samples = outcomes.samples(normalized)
        tail_value, tail_pct, beyond = tail(samples) if samples else (0.0, 0.0, 0)
        latency = {
            f"{prefix}wall_s": _metric(sum(outcomes.times(normalized)), "s"),
            f"{prefix}item_p50_ms": _metric(1000 * statistics.median(samples) if samples else 0.0, "ms"),
            f"{prefix}item_tail_ms": _metric(1000 * tail_value, "ms"),
        }
        for key, m in latency.items():
            note = f"  (p{tail_pct:.2f}, n={len(samples)}, {beyond} beyond)" if "tail" in key else ""
            print(f"{key}={m['value']:.6g} {m['unit']}{note}")
        if normalized:
            metrics.update(latency)
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"peak_rss_mb={metrics['peak_rss_mb']['value']:.6g} MB")
    _print_failures(outcomes)
    return _result(outcomes, metrics, outcomes.wrong == 0)


def _run_traced(name: str, seed: int, items, seconds: float, outcomes: Outcomes) -> dict:
    """Alternate untraced and traced passes; their outputs must agree."""
    import ceiling
    from tracing import PER_LAYER, Tracer
    tracer = Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    agree = True
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain = run_pass(items)
        tracer.reset()
        tracer.install()
        try:
            traced = run_pass(items, tracer)
        finally:
            tracer.uninstall()
        # Raw item times: traced passes are not normalized.
        plain_walls.append(sum(r[2] for r in plain))
        traced_walls.append(sum(r[2] for r in traced))
        outcomes.add_pass(plain)
        outcomes.add_pass(traced)
        per_pass.append(tracer.layer_metrics())
        agree &= [r[0] for r in plain] == [r[0] for r in traced]
        pair = time.perf_counter() - t0
        if len(plain_walls) >= MIN_PASSES and time.perf_counter() + pair > deadline:
            break
    print(f"{len(plain_walls)} pairs of an untraced and a traced pass")
    if not agree:
        print("traced outputs differ from untraced outputs")

    metrics = {}
    for key, (unit, _) in PER_LAYER.items():
        values = [m[key] for m in per_pass]
        if unit == "s":
            metrics[key] = _metric(statistics.median(values), unit)
            continue
        if len(set(values)) != 1:
            print(f"{key} differs between traced passes: {values}")
            agree = False
        metrics[key] = _metric(values[0], unit)
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    for key, value in ceiling.ceilings().items():
        metrics[key] = _metric(value, "n")
    for key, m in metrics.items():
        print(f"{key}={m['value']:.6g} {m['unit']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    count = tracer.write_spans(path)
    print(f"spans={count} written to {path.relative_to(ROOT)}")
    _print_failures(outcomes)
    return _result(outcomes, metrics, outcomes.wrong == 0 and agree)


def _print_failures(outcomes: Outcomes) -> None:
    """fail_ratio is printed here; the result line carries it as failed / attempted."""
    ratio = outcomes.failed / outcomes.attempted
    print(f"fail_ratio={ratio:.6g} ratio  ({outcomes.failed} of {outcomes.attempted} items failed, "
          f"{outcomes.wrong} wrong or unexpected; failed items are left out of the latency samples)")
    for key, count in sorted(outcomes.failures.items()):
        print(f"  failed x{count}: {key}")


def _result(outcomes: Outcomes, metrics: dict, correct: bool) -> dict:
    return {"correct": correct, "attempted": outcomes.attempted,
            "failed": outcomes.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process, one after another."""
    from workloads import WORKLOADS
    summary, status = [], 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        summary.append((name, result))
    print("\nsummary")
    for name, result in summary:
        failed, attempted = result["failed"], result["attempted"]
        print(f"{name}: correct={result['correct']} failed={failed}/{attempted}")
        print(f"  fail_ratio={failed / attempted:.6g} ratio")
        for key, m in result["metrics"].items():
            print(f"  {key}={m['value']:.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _require_checkout()
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
