"""Span tracing from outside the program, by wrapping the module attributes
through which one sortlab layer calls the next.

A span records its name, start, end and parent. When a wrapped call receives
(or returns) an ``OpCounters``, the counters are read before and after the
call and the difference is charged to the span's name. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from sortlab import OpCounters

COUNT_FIELDS = ("comparisons", "swaps", "element_moves")
BASELINE_SORTS = {
    "insertion": "insertion_sort",
    "merge": "merge_sort",
    "quick": "quicksort",
    "bucket": "bucket_sort",
    "radix": "radix_sort",
    "bubble": "bubble_sort",
}


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` in a span called ``span``.

    ``counters_at`` is the positional index of the call's ``counters``
    argument (else it is looked up by keyword); ``from_result`` reads the
    counters off the return value instead. ``fill_none`` hands a fresh
    ``OpCounters`` to a call made without one, for functions that create one
    themselves in that case, so their work is still counted. ``sized``
    records ``len`` of the first argument.
    """

    owner: str
    attr: str
    span: str
    counters_at: int | None = None
    from_result: Callable | None = None
    fill_none: bool = False
    sized: bool = False


def _hooks() -> list[Hook]:
    cli, ins, an = "sortlab.cli", "sortlab.instrumentation", "sortlab.analysis"
    return [
        # cli -> instrumentation / analysis / heap_core / uhs_sort
        Hook(cli, "counted_sort", "instrumentation.counted_sort", from_result=lambda r: r[1]),
        Hook(cli, "build_cost_audit", "instrumentation.build_cost_audit"),
        Hook(cli, "build", "heap_core.build", counters_at=2),
        Hook(cli, "uhs_sort", "uhs_sort.sort", counters_at=2, fill_none=True, sized=True),
        Hook(cli, "make_workload", "analysis.make_workload"),
        Hook(cli, "dynamic_scenario", "analysis.dynamic_scenario",
             from_result=lambda r: r.heap_counters),
        Hook(cli, "reproduce_tables", "analysis.reproduce_tables"),
        Hook(cli, "run_sweep", "analysis.run_sweep"),
        Hook(cli, "write_csv", "analysis.write_csv"),
        # instrumentation -> baseline_sorts / uhs_sort / heap_core
        *(Hook(ins, fn, f"baseline_sorts.{alg}", counters_at=2) for alg, fn in BASELINE_SORTS.items()),
        Hook(ins, "uhs_sort", "uhs_sort.sort", counters_at=2, fill_none=True, sized=True),
        Hook(ins, "build", "heap_core.build", counters_at=2),
        # analysis -> analysis / instrumentation
        Hook(an, "counted_sort", "instrumentation.counted_sort", from_result=lambda r: r[1]),
        Hook(an, "stability_check", "instrumentation.stability_check"),
        Hook(an, "generate_input", "analysis.generate_input"),
        Hook(an, "growth_fit", "analysis.growth_fit"),
        Hook(an, "time_table", "analysis.time_table"),
        Hook(an, "space_table", "analysis.space_table"),
        Hook(an, "stability_table", "analysis.stability_table"),
        # uhs_sort -> heap_core
        Hook("sortlab.uhs_sort", "build", "uhs_sort.build", counters_at=2),
        # callers -> Heap operations
        Hook("sortlab.heap_core:Heap", "push", "heap_core.push", counters_at=2),
        Hook("sortlab.heap_core:Heap", "pop_root", "heap_core.pop_root", counters_at=1),
        Hook("sortlab.heap_core:Heap", "remove_at", "heap_core.remove_at", counters_at=2),
    ]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept in memory as parallel arrays; counts summed per span name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.nlgn: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(i)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        nid = self._id(hook.span)
        tally, nlgn, at = self.counts[hook.span], self.nlgn, hook.counters_at
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            c = None
            if at is not None:
                c = args[at] if len(args) > at else kwargs.get("counters")
                if c is None and hook.fill_none:
                    c = OpCounters()
                    if len(args) > at:
                        args = args[:at] + (c,) + args[at + 1:]
                    else:
                        kwargs["counters"] = c
            if c is not None:
                before = (c.comparisons, c.swaps, c.element_moves)
            if hook.sized and len(args[0]) > 1:
                nlgn[hook.span] += len(args[0]) * math.log2(len(args[0]))
            i = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(i)
            if hook.from_result is not None:
                c, before = hook.from_result(result), (0, 0, 0)
            if c is not None:
                tally[0] += c.comparisons - before[0]
                tally[1] += c.swaps - before[1]
                tally[2] += c.element_moves - before[2]
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hooked attribute for the duration of the block."""
        saved = []
        try:
            for hook in _hooks():
                owner = _owner(hook.owner)
                fn = owner.__dict__[hook.attr] if isinstance(owner, type) else getattr(owner, hook.attr)
                saved.append((owner, hook.attr, fn))
                setattr(owner, hook.attr, self._wrap(hook, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds and self seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, name, start and end in seconds."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float | int]:
    """The per-layer figures, from the spans and counts of one traced session."""
    s = tracer.summary()

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return s.get(name, {}).get("self_s", 0.0)

    def count(name, field):
        return tracer.counts[name][COUNT_FIELDS.index(field)]

    uhs_cmp = count("uhs_sort.sort", "comparisons")
    build_cmp = count("uhs_sort.build", "comparisons")
    m: dict[str, float | int] = {
        "cli.sort_self_s": self_time("request.sort"),
        "uhs_sort.build_s": total("uhs_sort.build"),
        "uhs_sort.build_comparisons": build_cmp,
        "uhs_sort.extract_s": self_time("uhs_sort.sort"),
        "uhs_sort.extract_comparisons": uhs_cmp - build_cmp,
        "uhs_sort.swaps": count("uhs_sort.sort", "swaps"),
        "uhs_sort.comparisons_per_nlgn": uhs_cmp / tracer.nlgn["uhs_sort.sort"]
        if tracer.nlgn["uhs_sort.sort"] else 0.0,
    }
    for op in ("push", "pop_root", "remove_at"):
        m[f"heap_core.{op}_s"] = total(f"heap_core.{op}")
    for op in ("push", "pop_root", "remove_at"):
        m[f"heap_core.{op}_comparisons"] = count(f"heap_core.{op}", "comparisons")
    m["heap_core.swaps"] = sum(count(f"heap_core.{op}", "swaps") for op in ("push", "pop_root", "remove_at"))
    for alg in BASELINE_SORTS:
        m[f"baseline_sorts.{alg}_s"] = total(f"baseline_sorts.{alg}")
        m[f"baseline_sorts.{alg}_ops"] = sum(
            count(f"baseline_sorts.{alg}", f) for f in COUNT_FIELDS)
    m["instrumentation.stability_check_s"] = total("instrumentation.stability_check")
    m["instrumentation.build_cost_audit_s"] = total("instrumentation.build_cost_audit")
    for table in ("time_table", "space_table", "stability_table"):
        m[f"analysis.{table}_self_s"] = self_time(f"analysis.{table}")
    m["analysis.growth_fit_s"] = total("analysis.growth_fit")
    m["analysis.generate_input_s"] = total("analysis.generate_input")
    m["analysis.run_sweep_self_s"] = self_time("analysis.run_sweep")
    m["analysis.write_csv_s"] = total("analysis.write_csv")
    m["analysis.dynamic_scenario_s"] = total("analysis.dynamic_scenario")
    m["analysis.dynamic_heap_comparisons"] = count("analysis.dynamic_scenario", "comparisons")
    return m
