"""Span tracing of ringrc's layers, done from outside the program.

A traced pass replaces each traced function with a wrapper that records a
span (name, start, end, parent span, operation id and an optional work
count) and restores every original when the pass ends, so untraced passes
run unpatched code. Functions are patched both in the module that defines
them and in every ringrc module that imported them by name (for example
``ringrc.cli.extract_all``), because the importing module calls its own
binding.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    op: int  # operation (CLI call) id
    amount: int  # work count for the span (rows, bytes, ...); 0 if none


def _rows(args, kwargs, result) -> int:
    return len(result)


def _text_arg_bytes(args, kwargs, result) -> int:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


def _result_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


def _nodes(args, kwargs, result) -> int:
    return result.node_count


def _samples(args, kwargs, result) -> int:
    return len(result.victim.values)


class Point(NamedTuple):
    """One traced function: module, attribute path, and its work count."""

    module: str
    attr: str
    amount_stat: str | None = None
    amount: Callable | None = None
    # Patch only this module's binding (a class is kept intact elsewhere,
    # where its identity matters).
    only_in: str | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TRACE_POINTS = (
    Point("cli", "main"),
    Point("files", "read_config"),
    Point("files", "read_measurements", "rows", _rows),
    Point("files", "write_text_atomic", "bytes", _text_arg_bytes),
    Point("files", "emit_report_json"),
    Point("oscillator", "MeasurementRecord", only_in="files"),
    Point("extraction", "extract_all"),
    Point("extraction", "compare_to_spec"),
    Point("simulator", "build_network", "nodes", _nodes),
    Point("simulator", "NetworkStateSpace.time_constants"),
    Point("simulator", "simulate_step", "samples", _samples),
    Point("simulator", "crossing_time"),
    Point("simulator", "quiet_delay_ratio"),
    Point("lumpmodel", "step_response_victim"),
    Point("reporting", "run_validation"),
    Point("reporting", "format_validation_text"),
    Point("reporting", "waveform_csv", "bytes", _result_bytes),
    Point("reporting", "waveform_svg", "bytes", _result_bytes),
    Point("reporting", "emit_report"),
    Point("reporting", "monitor_binning"),
    Point("reporting", "emit_binning"),
)

TIME_STATS = ("calls", "busy_s", "self_s")
OVERHEAD_METRIC = "trace.overhead_s"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for point in TRACE_POINTS:
        names += [f"{point.name}.{stat}" for stat in TIME_STATS]
        if point.amount_stat:
            names.append(f"{point.name}.{point.amount_stat}")
    return names + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"busy_s": "s", "self_s": "s", "overhead_s": "s", "bytes": "B"}.get(
        stat, "count"
    )


class Tracer:
    """Collects spans in memory while an operation id is set.

    Wrapped functions called with no operation active (the benchmark's own
    input generation and output checks) run without recording. Spans are
    stored column by column in flat arrays, not as one object per span:
    objects allocated between the program's own would spread its data over
    more memory and slow it down in traced passes only.
    """

    def __init__(self) -> None:
        self.op: int | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self._amount = array("q")

    @property
    def spans(self) -> list[Span]:
        columns = (self._name, self._start, self._end, self._parent, self._op, self._amount)
        return [
            Span(self._names[name], *rest) for name, *rest in zip(*columns)
        ]

    def wrap(self, name: str, fn: Callable, amount: Callable | None) -> Callable:
        clock = time.perf_counter
        name_id = len(self._names)
        self._names.append(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            # The slot is reserved on entry, so that children can name it
            # as their parent, and its times are filled in on exit.
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._op.append(self.op)
            self._start.append(0.0)
            self._end.append(0.0)
            self._amount.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._start[index] = start
                self._end[index] = end
            if amount is not None:
                self._amount[index] = amount(args, kwargs, result)
            return result

        # updated=() keeps a wrapped class's attributes off the function.
        functools.update_wrapper(wrapper, fn, updated=())
        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            self._stack.clear()


def _resolve(module, attr: str):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def patched(tracer: Tracer, package: str = "ringrc"):
    """Install the tracer's wrappers; restore every original on exit."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }
    saved: list[tuple[object, str, object]] = []
    try:
        for point in TRACE_POINTS:
            owner, leaf = _resolve(modules[f"{package}.{point.module}"], point.attr)
            original = owner.__dict__[leaf]
            wrapper = tracer.wrap(point.name, original, point.amount)
            if point.only_in is not None:
                owners = [modules[f"{package}.{point.only_in}"]]
            elif owner is modules[f"{package}.{point.module}"]:
                owners = [m for m in modules.values() if m.__dict__.get(leaf) is original]
            else:  # a method: patch the class that defines it
                owners = [owner]
            for target in owners:
                saved.append((target, leaf, original))
                setattr(target, leaf, wrapper)
        yield
    finally:
        for target, leaf, original in reversed(saved):
            setattr(target, leaf, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = [span.end - span.start for span in spans]
    for parent, intervals in children.items():
        lo, hi = spans[parent].start, spans[parent].end
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        result[parent] -= covered
    return result


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer totals divided by the number of traced passes."""
    totals: dict[str, float] = {name: 0.0 for name in metric_names()}
    amount_stat = {p.name: p.amount_stat for p in TRACE_POINTS}
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += span.end - span.start
        totals[f"{span.name}.self_s"] += own
        if amount_stat[span.name]:
            totals[f"{span.name}.{amount_stat[span.name]}"] += span.amount
    totals.pop(OVERHEAD_METRIC)
    return {name: value / passes for name, value in totals.items()}


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")
