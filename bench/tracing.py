"""Per-layer tracing of slat from outside the library.

The tracer rebinds public functions of the slat modules with timing
wrappers, in every slat namespace that holds them, so a `from x import y`
binding is traced as well as the module attribute.  Each wrapper records
a call count and self time (its own duration minus that of the wrapped
calls it made).  Most wrappers also record a span (name, start, end,
parent span, item id); the hot leaf functions in COUNTER_ONLY record
counts and time but no span, which keeps their overhead and memory small.

Only the functions that a per-layer metric reads are wrapped.  Self time
is attributed to the innermost wrapped function, so the work of every
other function lands in the wrapped function that called it: the
ultrafilter enumeration in stone.build_space, filter listing and input
parsing in cli.main, filter checks in the classify function that ran them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  A dotted attribute names a method.
TRACED = {
    ("core", "Semilattice.__post_init__"): "core.validate",
    ("core", "constrained_set"): "core.constrained_set",
    ("core", "arrow"): "core.arrow",
    ("filters", "tight_violations"): "filters.tight_violations",
    # All of classify's public functions: classify.self_s is their sum.
    ("classify", "is_zero_disjunctive"): "classify.is_zero_disjunctive",
    ("classify", "is_separative"): "classify.is_separative",
    ("classify", "meet_separation"): "classify.meet_separation",
    ("classify", "trapping_witness"): "classify.trapping_witness",
    ("classify", "satisfies_trapping"): "classify.satisfies_trapping",
    ("classify", "is_compactable_finite"): "classify.is_compactable_finite",
    ("stone", "build_space"): "stone.build_space",
    ("stone", "opens"): "stone.opens",
    ("stone", "clopen_algebra"): "stone.clopen_algebra",
    ("pathlat", "truncate"): "pathlat.truncate",
    ("pathlat", "sibling_cover_witness"): "pathlat.sibling_cover_witness",
    ("catalog", "canonical_key"): "catalog.canonical_key",
    ("catalog", "enumerate_catalog"): "catalog.enumerate",
    ("cantor", "normalize"): "cantor.normalize",
    ("cantor", "join"): "cantor.join",
    ("cantor", "meet"): "cantor.meet",
    ("cantor", "complement"): "cantor.complement",
    ("suite", "run_suite"): "suite.run_suite",
    ("cli", "main"): "cli.main",
}

COUNTER_ONLY = {"core.constrained_set", "core.arrow", "cantor.normalize"}

# Per-layer metrics: name -> (unit, better).  Counts repeat exactly
# between runs; times are medians over the traced passes.
PER_LAYER = {
    "filters.tight_violations.calls": ("count", "lower"),
    "filters.tight_violations.self_s": ("s", "lower"),
    "filters.tight.subsets_per_filter": ("subsets/filter", "lower"),
    "filters.tight.violations_yielded": ("count", "lower"),
    "core.validate.calls": ("count", "lower"),
    "core.validate.self_s": ("s", "lower"),
    "core.arrow.calls": ("count", "lower"),
    "core.arrow.self_s": ("s", "lower"),
    "core.constrained_set.calls": ("count", "lower"),
    "core.constrained_set.self_s": ("s", "lower"),
    "stone.build_space.self_s": ("s", "lower"),
    "stone.opens.calls": ("count", "lower"),
    "stone.opens.self_s": ("s", "lower"),
    "stone.opens.unions_tried": ("count", "lower"),
    "stone.opens.found": ("count", "lower"),
    "stone.opens.useful_ratio": ("ratio", "higher"),
    "stone.clopen_algebra.self_s": ("s", "lower"),
    "catalog.enumerate.self_s": ("s", "lower"),
    "catalog.canonical_key.calls": ("count", "lower"),
    "catalog.canonical_key.self_s": ("s", "lower"),
    "catalog.canonical_key.perms": ("count", "lower"),
    "catalog.classes_per_key": ("classes/key", "higher"),
    "suite.run_suite.self_s": ("s", "lower"),
    "classify.is_compactable_finite.calls": ("count", "lower"),
    "classify.self_s": ("s", "lower"),
    "pathlat.truncate.self_s": ("s", "lower"),
    "pathlat.sibling_cover_witness.calls": ("count", "lower"),
    "pathlat.sibling_cover_witness.self_s": ("s", "lower"),
    "cantor.normalize.calls": ("count", "lower"),
    "cantor.normalize.self_s": ("s", "lower"),
    "cantor.meet.self_s": ("s", "lower"),
    "cantor.join.self_s": ("s", "lower"),
    "cantor.complement.self_s": ("s", "lower"),
    "cantor.words_out": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
}


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Call counts, self times and spans for the wrapped slat functions."""

    def __init__(self) -> None:
        self.item = None
        self.spans: list[list] = []
        self.reset()
        self._stack: list[_Frame] = []
        self._originals: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def reset(self) -> None:
        """Zero the counters; spans are kept until write_spans."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (name, parent name) -> calls
        self.extra: Counter = Counter()

    # -- frames ---------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> _Frame:
        stack = self._stack
        parent = stack[-1] if stack else None
        self.edges[(name, parent.name if parent else None)] += 1
        now = time.perf_counter()
        span = parent.span if parent else None
        if keep_span:
            self.spans.append([name, now - self._t0, None, span, self.item])
            span = len(self.spans) - 1
        frame = _Frame(name, now, span)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, keep_span: bool) -> None:
        now = time.perf_counter()
        self._stack.pop()
        elapsed = now - frame.start
        self.self_s[frame.name] += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed
        if keep_span:
            self.spans[frame.span][2] = now - self._t0

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        keep_span = name not in COUNTER_ONLY
        after = _AFTER.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                frame = None
                try:
                    while True:
                        resumed = tracer._enter(name, keep_span and frame is None)
                        if frame is not None:
                            resumed.span = frame.span
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(resumed, keep_span)
                            frame = resumed
                        if after:
                            after(tracer, args, value)
                        yield value
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keep_span)
            if after:
                after(tracer, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every TRACED function wherever a slat module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "slat" or n.startswith("slat."))]
        for (mod, attr), name in TRACED.items():
            owner = sys.modules[f"slat.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            setattr(holder, key, original)
        self._originals.clear()

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The PER_LAYER values for the work recorded since reset."""
        c, t, x = self.calls, self.self_s, self.extra
        tight = c["filters.tight_violations"]
        keys = c["catalog.canonical_key"]
        tried = x["stone.opens.unions_tried"]
        subsets = self.edges[("core.constrained_set", "filters.tight_violations")]
        m = {
            "filters.tight_violations.calls": tight,
            "filters.tight_violations.self_s": t["filters.tight_violations"],
            "filters.tight.subsets_per_filter": subsets / tight if tight else 0.0,
            "filters.tight.violations_yielded": x["filters.tight_violations.yielded"],
            "core.validate.calls": c["core.validate"],
            "core.validate.self_s": t["core.validate"],
            "core.arrow.calls": c["core.arrow"],
            "core.arrow.self_s": t["core.arrow"],
            "core.constrained_set.calls": c["core.constrained_set"],
            "core.constrained_set.self_s": t["core.constrained_set"],
            "stone.build_space.self_s": t["stone.build_space"],
            "stone.opens.calls": c["stone.opens"],
            "stone.opens.self_s": t["stone.opens"],
            "stone.opens.unions_tried": tried,
            "stone.opens.found": x["stone.opens.found"],
            "stone.opens.useful_ratio": x["stone.opens.found"] / tried if tried else 0.0,
            "stone.clopen_algebra.self_s": t["stone.clopen_algebra"],
            "catalog.enumerate.self_s": t["catalog.enumerate"],
            "catalog.canonical_key.calls": keys,
            "catalog.canonical_key.self_s": t["catalog.canonical_key"],
            "catalog.canonical_key.perms": x["catalog.canonical_key.perms"],
            "catalog.classes_per_key": x["catalog.classes"] / keys if keys else 0.0,
            "suite.run_suite.self_s": t["suite.run_suite"],
            "classify.is_compactable_finite.calls": c["classify.is_compactable_finite"],
            "classify.self_s": sum(v for k, v in t.items() if k.startswith("classify.")),
            "pathlat.truncate.self_s": t["pathlat.truncate"],
            "pathlat.sibling_cover_witness.calls": c["pathlat.sibling_cover_witness"],
            "pathlat.sibling_cover_witness.self_s": t["pathlat.sibling_cover_witness"],
            "cantor.normalize.calls": c["cantor.normalize"],
            "cantor.normalize.self_s": t["cantor.normalize"],
            "cantor.meet.self_s": t["cantor.meet"],
            "cantor.join.self_s": t["cantor.join"],
            "cantor.complement.self_s": t["cantor.complement"],
            "cantor.words_out": x["cantor.words_out"],
            "cli.main.calls": c["cli.main"],
            "cli.self_s": t["cli.main"],
        }
        assert m.keys() == PER_LAYER.keys()
        return m

    def write_spans(self, path) -> int:
        """Write the spans kept so far as JSON lines and drop them."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, item]))
                fh.write("\n")
        count = len(self.spans)
        self.spans = []
        return count


# Work counters computed from a call's arguments and result, outside the library.

def _after_opens(tracer, args, result):
    # opens() tries every non-empty combination of the distinct base sets.
    tracer.extra["stone.opens.unions_tried"] += 2 ** len(set(args[0].base)) - 1
    tracer.extra["stone.opens.found"] += len(result)


def _after_canonical_key(tracer, args, result):
    tracer.extra["catalog.canonical_key.perms"] += math.factorial(len(args[0]) - 2)


def _after_enumerate(tracer, args, value):
    if args[0].mode == "exhaustive":
        tracer.extra["catalog.classes"] += 1


def _after_tight_violations(tracer, args, value):
    tracer.extra["filters.tight_violations.yielded"] += 1


def _after_normalize(tracer, args, result):
    tracer.extra["cantor.words_out"] += len(result.words)


_AFTER = {
    "stone.opens": _after_opens,
    "catalog.canonical_key": _after_canonical_key,
    "catalog.enumerate": _after_enumerate,
    "filters.tight_violations": _after_tight_violations,
    "cantor.normalize": _after_normalize,
}
