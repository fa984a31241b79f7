"""In-memory span recorder wrapped around the public callables of each layer.

Nothing under ``src/repro`` knows about this module: :func:`install`
replaces a fixed list of methods and functions with thin wrappers that
record one span per call (name, start, end, parent span, one optional
attribute) on the calling thread, and :func:`layer_metrics` derives the
per-layer metrics from those spans.  Times come from ``CLOCK_MONOTONIC``,
which is shared by every process on the machine, so spans written by the
service and worker subprocesses line up with the benchmark's own.

Self time of a span is its duration minus the time covered by its child
spans.  Children always nest inside their parent on one thread, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One span: (name, start_s, end_s, parent index or -1, attribute).
Span = Tuple[str, float, float, int, object]


def now() -> float:
    """The shared monotonic clock used for every timestamp of the benchmark."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records spans of wrapped calls, per thread, into one in-memory list."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, now(), 0.0, parent, None])
        stack.append(index)
        return index

    def _close(self, index: int, attr: object = None) -> None:
        self._local.stack.pop()
        span = self.spans[index]
        span[2] = now()
        if attr is not None:
            span[4] = attr

    def wrap(self, function: Callable, name: str,
             attr: Optional[Callable] = None) -> Callable:
        """``function`` recording a span named ``name`` per call.

        ``attr(args, kwargs, result)`` optionally derives the span's
        attribute (a unit count, a hit flag).  A call that returns a
        generator records one span per resumption instead, because the
        generator's work happens when it is iterated.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = function(*args, **kwargs)
            finally:
                value = attr(args, kwargs, result) if attr is not None \
                    and result is not None else None
                tracer._close(index, value)
            if inspect.isgenerator(result):
                return tracer._resumptions(result, name)
            return result

        return wrapper

    def _resumptions(self, generator, name: str):
        while True:
            index = self._open(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    def dump(self, path: str) -> None:
        """Write the spans as one JSON document (called when a run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _count_requests(args, kwargs, result) -> int:
    return len(args[1])


def _is_hit(args, kwargs, result) -> bool:
    return result is not None


def _ran_lease(args, kwargs, result) -> bool:
    return bool(result)


def _targets():
    """(owner, attribute, span name, attribute function) to wrap.

    Imported lazily: ``run.py`` never imports the program, only the
    processes that run it do.
    """
    from repro.bist import controller
    from repro.distrib import coordinator, ledger, worker
    from repro.engine import fault_campaign, grid, vectorized
    from repro.faults import simulator
    from repro.march import execution, ordering
    from repro.serve import cache
    from repro.sweep import journal, merge, runner

    return [
        (ordering.AddressOrder, "coordinate_arrays",
         "march.ordering.coordinate_arrays", None),
        (ordering.AddressOrder, "is_wordline_sequential",
         "march.ordering.wordline_check", None),
        (execution, "compile_trace", "march.execution.compile_trace", None),
        (fault_campaign, "compile_trace", "march.execution.compile_trace",
         None),
        (execution.SegmentWalk, "compile", "march.execution.segment_walk",
         None),
        (execution.TraceCache, "get", "march.execution.trace_cache", None),
        (vectorized.VectorizedEngine, "run_aggregates",
         "engine.vectorized.kernel", None),
        (vectorized.VectorizedEngine, "run_aggregates_batch",
         "engine.vectorized.kernel", _count_requests),
        (grid.BatchedGridEngine, "completions", "engine.grid", None),
        (controller.BistController, "measure_batch",
         "bist.controller.measure_batch", None),
        (simulator.FaultSimulator, "simulate_many",
         "faults.simulator.campaign", None),
        (runner, "prr_record", "sweep.runner.record", None),
        (runner, "power_record", "sweep.runner.record", None),
        (runner.SweepRecord, "as_dict", "sweep.runner.record", None),
        (runner.PrrRecord, "as_dict", "sweep.runner.record", None),
        (runner.CoverageRecord, "as_dict", "sweep.runner.record", None),
        (journal.RunJournal, "append", "sweep.journal.append", None),
        (merge, "merge_journals", "sweep.merge.merge", None),
        (coordinator, "merge_journals", "sweep.merge.merge", None),
        (cache.ResultCache, "get", "serve.cache.get", _is_hit),
        (cache.ResultCache, "store", "serve.cache.store", None),
        (ledger.LeaseLedger, "claim", "distrib.ledger.claim", None),
        (ledger.LeaseLedger, "status", "distrib.ledger.status", None),
        (ledger.LeaseLedger, "heartbeat", "distrib.ledger.heartbeat", None),
        (ledger.LeaseLedger, "complete", "distrib.ledger.complete", None),
        (worker.DistribWorker, "run_once", "distrib.worker.lease", _ran_lease),
        (coordinator.Coordinator, "supervise",
         "distrib.coordinator.supervise", None),
    ]


def install(tracer: Tracer) -> None:
    """Replace every target callable with its span-recording wrapper."""
    for owner, attribute, name, attr in _targets():
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute,
                    classmethod(tracer.wrap(raw.__func__, name, attr)))
        else:
            setattr(owner, attribute, tracer.wrap(raw, name, attr))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Names of the per-layer metrics derived from spans, in report order.
SPAN_METRICS = (
    "march.ordering.coordinate_arrays_s",
    "march.ordering.wordline_check_s",
    "march.execution.segment_walk_s",
    "march.execution.segment_walk_n",
    "march.execution.compile_trace_s",
    "march.execution.compile_trace_n",
    "march.execution.trace_cache_hit_ratio",
    "engine.vectorized.kernel_s",
    "engine.vectorized.units_n",
    "engine.grid.self_s",
    "engine.grid.stacked_passes_n",
    "bist.controller.measure_batch_s",
    "faults.simulator.campaign_s",
    "sweep.runner.record_s",
    "sweep.journal.append_s",
    "sweep.journal.append_n",
    "sweep.merge.merge_s",
    "serve.cache.get_s",
    "serve.cache.store_s",
    "serve.cache.hit_ratio",
    "distrib.ledger.claim_s",
    "distrib.ledger.claim_n",
    "distrib.ledger.status_n",
    "distrib.ledger.heartbeat_n",
    "distrib.ledger.complete_s",
    "distrib.worker.lease_s",
)

#: Span behind each ``*_s`` self-time total.
_SELF_TIME = {
    "march.ordering.coordinate_arrays_s": "march.ordering.coordinate_arrays",
    "march.ordering.wordline_check_s": "march.ordering.wordline_check",
    "march.execution.segment_walk_s": "march.execution.segment_walk",
    "march.execution.compile_trace_s": "march.execution.compile_trace",
    "engine.vectorized.kernel_s": "engine.vectorized.kernel",
    "engine.grid.self_s": "engine.grid",
    "bist.controller.measure_batch_s": "bist.controller.measure_batch",
    "faults.simulator.campaign_s": "faults.simulator.campaign",
    "sweep.runner.record_s": "sweep.runner.record",
    "sweep.journal.append_s": "sweep.journal.append",
    "sweep.merge.merge_s": "sweep.merge.merge",
    "serve.cache.get_s": "serve.cache.get",
    "serve.cache.store_s": "serve.cache.store",
    "distrib.ledger.claim_s": "distrib.ledger.claim",
    "distrib.ledger.complete_s": "distrib.ledger.complete",
}

#: Span behind each ``*_n`` call count.
_COUNTS = {
    "march.execution.segment_walk_n": "march.execution.segment_walk",
    "march.execution.compile_trace_n": "march.execution.compile_trace",
    "sweep.journal.append_n": "sweep.journal.append",
    "distrib.ledger.claim_n": "distrib.ledger.claim",
    "distrib.ledger.status_n": "distrib.ledger.status",
    "distrib.ledger.heartbeat_n": "distrib.ledger.heartbeat",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(span_sets: Sequence[Sequence[Span]],
                  windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer metrics over the spans that start inside ``windows``
    (the measured phases of a repetition).

    ``span_sets`` holds one span list per process (parent indices are
    local to their list).  Spans outside the window — warm-up, checks —
    still shape their children's parents but are not counted.
    """
    self_time: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    units = grid_passes = cache_compiles = lookup_hits = 0
    leases: List[float] = []
    for spans in span_sets:
        children: Dict[int, float] = {}
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)

        def ancestors(index: int):
            parent = spans[index][3]
            while parent >= 0:
                yield spans[parent][0]
                parent = spans[parent][3]

        for index, (name, start, end, parent, attr) in enumerate(spans):
            if not any(lo <= start <= hi for lo, hi in windows):
                continue
            counts[name] = counts.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) \
                + (end - start) - children.get(index, 0.0)
            if name == "engine.vectorized.kernel" and attr is not None:
                units += attr
                if "engine.grid" in ancestors(index):
                    grid_passes += 1
            elif name == "march.execution.compile_trace" and parent >= 0 \
                    and spans[parent][0] == "march.execution.trace_cache":
                cache_compiles += 1
            elif name == "serve.cache.get":
                lookup_hits += bool(attr)
            elif name == "distrib.worker.lease" and attr:
                leases.append(end - start)

    metrics = {metric: self_time.get(span, 0.0)
               for metric, span in _SELF_TIME.items()}
    metrics.update({metric: float(counts.get(span, 0))
                    for metric, span in _COUNTS.items()})
    cache_gets = counts.get("march.execution.trace_cache", 0)
    metrics["march.execution.trace_cache_hit_ratio"] = _ratio(
        cache_gets - cache_compiles, cache_gets)
    metrics["engine.vectorized.units_n"] = float(units)
    metrics["engine.grid.stacked_passes_n"] = float(grid_passes)
    metrics["serve.cache.hit_ratio"] = _ratio(
        lookup_hits, counts.get("serve.cache.get", 0))
    metrics["distrib.worker.lease_s"] = \
        statistics.median(leases) if leases else 0.0
    return {name: metrics[name] for name in SPAN_METRICS}


def load_spans(path: str) -> List[Span]:
    """Read a span file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def first_start(spans: Sequence[Span], name: str) -> Optional[float]:
    """Start time of the earliest span called ``name``, if any."""
    starts = [span[1] for span in spans if span[0] == name]
    return min(starts) if starts else None


def last_end(spans: Sequence[Span], name: str) -> Optional[float]:
    """End time of the latest span called ``name``, if any."""
    ends = [span[2] for span in spans if span[0] == name]
    return max(ends) if ends else None
