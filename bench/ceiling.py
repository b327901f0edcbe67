"""Size ceilings: the largest rung of a fixed size ladder done within a limit.

Each ladder runs in one child process, rung after rung, each rung on a
larger input.  The child prints a line before and after the timed call;
the parent kills the child when a rung overruns the limit, and the ladder
ends at the first rung that overruns, is refused or raises.

The ceilings do not depend on the workload or the seed, so ceilings()
probes the ladders once per version of the library and keeps the result
in bench/out; later traced runs of the same sources read it back.

Run directly as `python3 bench/ceiling.py LADDER` to be the child.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 1.0
PREPARE_LIMIT_S = 20.0  # untimed input preparation for one rung

# ladder name -> (metric name, rungs)
LADDERS = {
    "tight_filters": ("filters.ceiling_n", range(1, 7)),        # two-loop truncation depth
    "truncate": ("pathlat.ceiling_n", range(1, 12)),            # two-loop truncation depth
    "clopen_algebra": ("stone.ceiling_n", range(1, 7)),         # Boolean rank
    "enumerate_catalog": ("catalog.ceiling_n", range(2, 10)),   # exhaustive max_size
    "complement": ("cantor.ceiling_n", [2 ** k for k in range(4, 14)]),  # cylinder length
}


def _two_loop():
    from slat.pathlat import RootedGraph
    return RootedGraph(("t",), (("a", "t", "t"), ("b", "t", "t")), "t")


def _boolean(rank: int):
    from slat.core import Semilattice
    atoms = range(rank)
    sets = [frozenset(c) for r in range(rank + 1) for c in itertools.combinations(atoms, r)]
    label = {s: "0" if not s else ("1" if len(s) == rank else "x" + "_".join(map(str, sorted(s))))
             for s in sets}
    pairs = [(label[a], label[b]) for a in sets for b in sets if a < b and len(b) == len(a) + 1]
    return Semilattice.from_order([label[s] for s in sets], pairs)


def _prepare(ladder: str, n: int):
    """Build the rung's input outside the timed region; return the timed call."""
    from slat import cantor, catalog, filters, pathlat, stone
    if ladder == "tight_filters":
        S = pathlat.truncate(_two_loop(), n)
        return lambda: filters.tight_filters(S)
    if ladder == "truncate":
        G = _two_loop()
        return lambda: pathlat.truncate(G, n)
    if ladder == "clopen_algebra":
        space = stone.build_space(_boolean(n))
        return lambda: stone.clopen_algebra(space)
    if ladder == "enumerate_catalog":
        return lambda: list(catalog.enumerate_catalog(catalog.CatalogSpec(max_size=n)))
    if ladder == "complement":
        P = cantor.kappa_word("ab", ("ab" * n)[:n])
        return lambda: cantor.complement(P)
    raise ValueError(f"unknown ladder {ladder!r}")


def child(ladder: str) -> None:
    from slat.errors import TooLargeError
    for n in LADDERS[ladder][1]:
        try:
            call = _prepare(ladder, n)
            print("start", n, flush=True)
            t0 = time.perf_counter()
            call()
            print("done", n, time.perf_counter() - t0, flush=True)
        except TooLargeError as exc:
            print("refused", n, exc, flush=True)
            return
        except (RecursionError, MemoryError) as exc:
            print("error", n, type(exc).__name__, flush=True)
            return


def probe(ladder: str) -> tuple[int, list[str]]:
    """Run one ladder in a child; return its ceiling and one line per rung."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__)), ladder],
                            stdout=subprocess.PIPE, cwd=ROOT)
    ceiling, lines, pending = 0, [], b""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    timeout, rung = PREPARE_LIMIT_S, None
    try:
        while True:
            if b"\n" not in pending:
                if not sel.select(timeout):
                    lines.append(f"{ladder} n={rung} killed after {timeout:.1f}s"
                                 + (" (over the limit)" if rung is not None else " (preparing)"))
                    break
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                pending += chunk
                continue
            line, pending = pending.split(b"\n", 1)
            kind, n, *rest = line.decode().split(maxsplit=2)
            if kind == "start":
                timeout, rung = LIMIT_S + 0.5, int(n)
                continue
            timeout, rung = PREPARE_LIMIT_S, None
            if kind == "done":
                seconds = float(rest[0])
                within = seconds <= LIMIT_S
                lines.append(f"{ladder} n={n} {seconds:.4f}s" + ("" if within else " (over the limit)"))
                if not within:
                    break
                ceiling = int(n)
            else:
                lines.append(f"{ladder} n={n} {kind}: {rest[0] if rest else ''}")
                break
    finally:
        sel.close()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    return ceiling, lines


def ceilings() -> dict[str, int]:
    """Every ladder's ceiling by metric name, probed once per library version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slat").glob("*.py")) + [Path(__file__)]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cache = HERE / "out" / f"ceilings-{digest.hexdigest()[:16]}.json"
    if cache.is_file():
        kept = json.loads(cache.read_text(encoding="utf-8"))
        print(f"ceilings read from {cache.relative_to(ROOT)}")
    else:
        kept = {}
        for ladder, (key, _) in LADDERS.items():
            value, lines = probe(ladder)
            kept[key] = {"value": value, "rungs": lines}
        cache.parent.mkdir(exist_ok=True)
        cache.write_text(json.dumps(kept, indent=1) + "\n", encoding="utf-8")
    for entry in kept.values():
        print("ceiling " + "\n        ".join(entry["rungs"]))
    return {key: entry["value"] for key, entry in kept.items()}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    child(sys.argv[1])
