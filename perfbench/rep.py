"""One repetition of one workload, in a fresh process.

Usage (``run.py`` starts it; the arguments are one JSON object)::

    python3 perfbench/rep.py '{"workload": "campaign-small", "seed": 1,
        "trace": false, "budget": 20, "spawned": <CLOCK_MONOTONIC>,
        "tmp": ".perfbench_tmp/...", "out": ".../result.json",
        "setup_only": false}'

Every repetition runs in its own process so that peak RSS and retained
memory never accumulate across repetitions.  ``spawned`` is the moment
the parent started this process; set-up time runs from there until the
workload's first operation can be issued.  The result (metrics, check
failures, and per-layer metrics when traced) is written to ``out``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer  # noqa: E402
from tracer import now  # noqa: E402

#: Latency limit of the serve ladder's max_rps (p99, milliseconds).
P99_LIMIT_MS = 50.0
#: Served responses compared against a local execution per repetition.
SERVE_SAMPLES = 12
#: Lease timeout `python -m repro.distrib run` uses by default.
DISTRIB_LEASE_TIMEOUT = 30.0
DISTRIB_WORKERS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def proc_mb(field: str, pid: object = "self") -> float:
    """``VmRSS``/``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


class Rep:
    """Arguments, clock marks, failures and results of one repetition."""

    def __init__(self, args: Dict[str, object]) -> None:
        self.workload = str(args["workload"])
        self.seed = int(args["seed"])
        self.traced = bool(args["trace"])
        self.budget = float(args["budget"])
        self.spawned = float(args["spawned"])
        self.tmp = Path(str(args["tmp"]))
        self.setup_only = bool(args.get("setup_only", False))
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.recorder: Optional[tracer.Tracer] = None
        if self.traced:
            self.recorder = tracer.Tracer()
            tracer.install(self.recorder)
        self.failures: List[str] = []
        self.attempted = 0
        self.errors = 0
        self.windows: List[Tuple[float, float]] = []
        self.result: Dict[str, object] = {}
        self.extra: Dict[str, object] = {}
        self.layers: Dict[str, float] = {}

    def ready(self) -> None:
        """Mark the end of set-up: the first operation can be issued now."""
        self.result["setup_s"] = now() - self.spawned

    def check(self, failures: List[str]) -> None:
        self.failures.extend(failures)

    def finish(self) -> Dict[str, object]:
        if self.traced and "retained_mb" in self.result:
            self.layers["memory.retained_mb"] = self.result["retained_mb"]
        self.result.update({
            "attempted": self.attempted,
            "failed": self.errors + len(self.failures),
            "failures": self.failures[:20],
            "extra": self.extra,
            "layers": self.layers,
        })
        return self.result


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def run_campaign(rep: Rep, cases: list, journal: Path):
    """A journaled in-process SweepRunner; per-case latency from the
    campaign start (every case is due then) to its durable completion."""
    from repro.sweep import SweepRunner

    completed: List[float] = []
    before = proc_mb("VmRSS")
    start = now()
    result = SweepRunner(cases, processes=1, journal=journal).run(
        case_sink=lambda index, record: completed.append(now()))
    end = now()
    rep.result["retained_mb"] = proc_mb("VmRSS") - before
    rep.windows.append((start, end))
    rep.attempted += len(cases)
    latencies = [(moment - start) * 1e3 for moment in completed]
    rep.result.update({
        "cases": len(cases),
        "wall_s": end - start,
        "cases_per_s": len(cases) / (end - start),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
    })
    return [record.as_dict() for record in result]


def warm_prr(rep: Rep, case) -> Tuple[float, Dict[str, object]]:
    """Repeated both-mode runs of a PRR case on one warmed BistController
    (at least 20, for at least a second): the median latency (ms) and the
    record of the last run."""
    from repro.bist import BistController
    from repro.march.execution import TraceCache
    from repro.march.library import get_algorithm
    from repro.sweep.runner import prr_record

    controller = BistController(case.geometry(), backend=case.backend,
                                trace_cache=TraceCache(), kernel=case.kernel)
    algorithm = get_algorithm(case.algorithm)
    controller.warm(algorithm)

    def both_modes():
        return (controller.run(algorithm, low_power=False),
                controller.run(algorithm, low_power=True))

    both_modes()
    times = []
    start = now()
    while len(times) < 20 or now() - start < 1.0:
        began = now()
        functional, low_power = both_modes()
        times.append(now() - began)
    rep.windows.append((start, now()))
    return (statistics.median(times) * 1e3,
            prr_record(case, functional, low_power, 0.0).as_dict())


def engine_ms(records: List[Dict[str, object]]) -> float:
    """Engine time per case (ms): the mean of the records' ``elapsed_s``,
    which the batched runner sets to an even share of its geometry
    group's engine pass."""
    return statistics.fmean(record["elapsed_s"] for record in records) * 1e3


def journal_fingerprints(path: Path) -> List[Dict[str, object]]:
    from repro.sweep import load_journal

    return [entry.case for entry in load_journal(path)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def campaign_small(rep: Rep) -> None:
    import checks
    import inputs
    from repro.sweep import case_fingerprint

    cases = inputs.campaign_small(rep.seed)
    rep.ready()
    if rep.setup_only:
        return
    journal = rep.tmp / "campaign.jsonl"
    records = run_campaign(rep, cases, journal)
    rep.result["warm_case_ms"] = engine_ms(records)
    rep.result["peak_rss_mb"] = proc_mb("VmHWM")

    fingerprints = [case_fingerprint(case) for case in cases]
    rep.check(checks.campaign_records(fingerprints, records,
                                      journal_fingerprints(journal)))
    rep.check(checks.paper_table1(
        record for fingerprint, record in zip(fingerprints, records)
        if fingerprint["kind"] == "prr" and fingerprint["rows"] == 512))


def prr_large_cold(rep: Rep) -> None:
    import checks
    import inputs
    from repro.sweep import case_fingerprint

    cases = inputs.prr_large_cold(rep.seed)
    rep.ready()
    if rep.setup_only:
        return
    journal = rep.tmp / "prr-large.jsonl"
    records = run_campaign(rep, cases, journal)
    warm_case = inputs.WARM_LARGE_CASE
    rep.result["warm_case_ms"], warm_record = warm_prr(rep, warm_case)
    rep.result["peak_rss_mb"] = proc_mb("VmHWM")

    fingerprints = [case_fingerprint(case) for case in cases]
    rep.check(checks.campaign_records(fingerprints, records,
                                      journal_fingerprints(journal)))
    cold = records[fingerprints.index(case_fingerprint(warm_case))]
    rep.check(checks.warm_equals_cold(cold, warm_record))


def distrib_campaign(rep: Rep) -> None:
    import checks
    import inputs
    from repro.distrib import Coordinator
    from repro.sweep import (SweepRunner, case_fingerprint,
                             fingerprint_digest, load_journal)

    cases = inputs.distrib_campaign(rep.seed)
    root = rep.tmp / "campaign"
    coordinator = Coordinator.create(root, cases, DISTRIB_WORKERS)
    rep.ready()
    if rep.setup_only:
        return
    before = proc_mb("VmRSS")
    start = now()
    spawned: List[float] = []
    children: List[subprocess.Popen] = []
    span_paths = [rep.tmp / f"worker-{number}.spans.json"
                  for number in range(DISTRIB_WORKERS)]
    try:
        for number, spans in enumerate(span_paths):
            # What spawn_worker starts, through the launcher when traced.
            prefix = [sys.executable, "perfbench/launch.py", str(spans)] \
                if rep.traced else [sys.executable, "-m"]
            spawned.append(now())
            children.append(subprocess.Popen(prefix + [
                "repro.distrib", "worker", str(root), "--strategy", "auto",
                "--processes", "1", "--worker-id", f"worker-{number}",
                "--lease-timeout", str(DISTRIB_LEASE_TIMEOUT)]))
        coordinator.supervise(DISTRIB_LEASE_TIMEOUT, deadline=150)
    finally:
        for child in children:
            if child.poll() is None:
                child.terminate()
        for child in children:
            child.wait(timeout=30)
    report = coordinator.merge(require_complete=True)
    end = now()
    rep.windows.append((start, end))
    rep.result["retained_mb"] = proc_mb("VmRSS") - before
    # Children have been waited for: this is the largest worker's peak.
    rep.result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rep.attempted += len(cases)

    # Every case reaches the user at once, in the merged artifact.
    rep.result.update({
        "cases": len(cases),
        "wall_s": end - start,
        "cases_per_s": len(cases) / (end - start),
        "p50_ms": (end - start) * 1e3,
        "p99_ms": (end - start) * 1e3,
    })
    if rep.traced:
        worker_spans = [tracer.load_spans(str(path)) for path in span_paths]
        rep.layers = tracer.layer_metrics(
            [rep.recorder.spans] + worker_spans, rep.windows)
        starts = [tracer.first_start(spans, "distrib.ledger.claim") - moment
                  for spans, moment in zip(worker_spans, spawned)]
        rep.layers["distrib.worker.start_s"] = statistics.median(starts)
        completions = [tracer.last_end(spans, "distrib.ledger.complete")
                       for spans in worker_spans]
        rep.layers["distrib.coordinator.supervise_tail_s"] = \
            tracer.last_end(rep.recorder.spans,
                            "distrib.coordinator.supervise") \
            - max(moment for moment in completions if moment is not None)

    grid = [fingerprint_digest(case_fingerprint(case)) for case in cases]
    shards = [fingerprint_digest(entry.case)
              for path in sorted(coordinator.ledger.journal_dir.glob("*.jsonl"))
              for entry in load_journal(path)]
    merged = load_journal(report.output)
    rep.check(checks.exactly_once(
        grid, shards, [fingerprint_digest(entry.case) for entry in merged]))
    # Warm cases: those outside each worker's first lease, which also
    # pays for the worker's trace compiles while both workers start up.
    leases = sorted(coordinator.ledger.leases(),
                    key=lambda lease: lease.claimed_unix)
    first = {lease.worker: lease.lease_id for lease in reversed(leases)}
    rep.result["warm_case_ms"] = engine_ms([
        merged[index].record for lease in leases
        if lease.lease_id not in first.values()
        for index in lease.case_indices])
    reference = SweepRunner(cases, processes=1).run()
    rep.check(checks.same_records([entry.record for entry in merged],
                                  [record.as_dict() for record in reference]))


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Service:
    """A ``python -m repro.serve`` subprocess on a fresh cache."""

    def __init__(self, rep: Rep, name: str) -> None:
        cache = rep.tmp / f"{name}-cache"
        args = ["repro.serve", "--port", "0", "--cache-dir", str(cache)]
        self.spans_path = rep.tmp / f"{name}.spans.json"
        if rep.traced:
            command = [sys.executable, "perfbench/launch.py",
                       str(self.spans_path)] + args
        else:
            command = [sys.executable, "-m"] + args
        spawned = now()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        line = self.process.stdout.readline()
        self.setup_s = now() - spawned
        if not line.startswith("[serve] listening on http://"):
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def open_loop(clients, schedule, base: float,
              keep: frozenset = frozenset()) -> List[tuple]:
    """Send ``schedule`` at its due times over the given connections.

    Each connection takes the next request in due order, sleeps until it
    is due and sends it, so a slow reply delays later requests and the
    delay is counted (latency runs from the due time).  Lateness is how
    long after ``max(due, connection free)`` the send began: the
    generator's own stall, not the service's.

    Returns per request ``(due, sent, done, late, response or None)``;
    only the positions in ``keep`` retain the served record.
    """
    from repro.serve import ServeError

    results: List[Optional[tuple]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def connection(client) -> None:
        free = now()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, case, _ = schedule[index]
            due = base + offset
            pause = due - now()
            if pause > 0:
                time.sleep(pause)
            sent = now()
            try:
                response = client.submit(case)
            except ServeError:
                response = None
            done = now()
            if response is not None and index not in keep:
                response = {"served": response["served"]}
            results[index] = (due, sent, done, sent - max(due, free),
                              response)
            free = done

    threads = [threading.Thread(target=connection, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def rung_summary(results) -> Dict[str, object]:
    latencies = [(done - due) * 1e3 for due, _, done, _, response in results
                 if response is not None]
    starts = [sent - due for due, sent, _, _, _ in results]
    quarter = max(1, len(starts) // 4)
    growth_ms = (statistics.median(starts[-quarter:])
                 - statistics.median(starts[:quarter])) * 1e3
    p99 = percentile(latencies, 99)
    failed = sum(1 for result in results if result[4] is None)
    return {
        "requests": len(results), "failed": failed,
        "p50_ms": percentile(latencies, 50), "p99_ms": p99,
        "backlog_growth_ms": growth_ms,
        "meets_limit": failed == 0 and p99 <= P99_LIMIT_MS
        and growth_ms <= 10.0,
    }


def serve_mixed(rep: Rep) -> None:
    import checks
    import inputs
    from repro.serve import ServeClient
    from repro.sweep import case_from_dict, execute_case

    if rep.setup_only:
        probe = Service(rep, "probe")
        probe.stop()
        rep.result["setup_s"] = probe.setup_s
        return
    hot = inputs.serve_hot_set(rep.seed)
    service = Service(rep, "service")
    rep.result["setup_s"] = service.setup_s
    clients = [ServeClient(service.host, service.port) for _ in range(2)]
    rungs: List[Dict[str, object]] = []
    every: List[tuple] = []
    misses = len(hot)
    try:
        for case in hot:  # pre-warm the hot set: one miss each
            clients[0].submit(case)
        rep.attempted += len(hot)
        stats_before = clients[0].stats()
        rss_before = proc_mb("VmRSS", service.process.pid)
        # The nominal rung gets the most time: its p99 needs >= 1000
        # samples; the other rungs only decide max_rps.
        nominal_s = 0.75 * rep.budget
        other_s = 0.15 * rep.budget / (len(inputs.LADDER_RPS) - 1)
        # The generator's own collections would delay sends; it keeps
        # little per request, so it runs without the collector.
        gc.disable()
        ladder_start = now()
        for number, rate in enumerate(inputs.LADDER_RPS):
            duration = nominal_s if rate == inputs.NOMINAL_RPS else other_s
            schedule = inputs.serve_schedule(rep.seed, rate, duration,
                                             number, hot)
            misses += sum(1 for _, _, hit in schedule if not hit)
            keep = frozenset(random.Random(rep.seed).sample(
                range(len(schedule)), SERVE_SAMPLES)) \
                if rate == inputs.NOMINAL_RPS else frozenset()
            base = now() + 0.05
            results = open_loop(clients, schedule, base, keep)
            every.extend(results)
            summary = rung_summary(results)
            summary["rps"] = rate
            rungs.append(summary)
            rep.attempted += len(results)
            rep.errors += summary["failed"]
            rep.check(checks.served_outcomes(
                [hit for _, _, hit in schedule],
                [result[4]["served"]["outcome"] if result[4] else "failed"
                 for result in results]))
            if rate == inputs.NOMINAL_RPS:
                nominal = (schedule, results, base, keep)
        ladder_end = now()
        gc.enable()
        stats_after = clients[0].stats()
        rep.result["retained_mb"] = \
            proc_mb("VmRSS", service.process.pid) - rss_before
        rep.result["peak_rss_mb"] = proc_mb("VmHWM", service.process.pid)
    finally:
        gc.enable()
        for client in clients:
            client.close()
        service.stop()
    rep.windows.append((ladder_start, ladder_end))

    schedule, results, base, keep = nominal
    ok = [(entry, result) for entry, result in zip(schedule, results)
          if result[4] is not None]
    latencies = {True: [], False: []}
    server = {True: [], False: []}
    for (_, _, hit), (due, _, done, _, response) in ok:
        latencies[hit].append((done - due) * 1e3)
        server[hit].append(response["served"]["latency_ms"])
    both = latencies[True] + latencies[False]
    wall = max(result[2] for _, result in ok) - base
    hit_p50_ms = percentile(latencies[True], 50)
    # A hit re-runs a case whose result is already warm in the cache.
    rep.result.update({
        "cases": len(ok), "wall_s": wall, "cases_per_s": len(ok) / wall,
        "p50_ms": percentile(both, 50), "p99_ms": percentile(both, 99),
        "warm_case_ms": hit_p50_ms,
    })
    passing = [rung["rps"] for rung in rungs if rung["meets_limit"]]
    rep.extra.update({
        "nominal_rps": inputs.NOMINAL_RPS,
        "nominal_samples": len(both),
        "hit_p50_ms": hit_p50_ms,
        "hit_samples": len(latencies[True]),
        "miss_p50_ms": percentile(latencies[False], 50),
        "miss_samples": len(latencies[False]),
        "max_rps": max(passing) if passing else 0,
        "ladder": rungs,
    })
    passes = stats_after["engine_passes"] - stats_before["engine_passes"]
    executed = stats_after["executed_cases"] \
        - stats_before["executed_cases"]
    rep.layers.update({
        "serve.service.server_hit_p50_ms": percentile(server[True], 50),
        "serve.service.server_miss_p50_ms": percentile(server[False], 50),
        "serve.service.http_p50_ms": percentile(
            [(done - sent) * 1e3 - response["served"]["latency_ms"]
             for _, (_, sent, done, _, response) in ok], 50),
        "serve.service.wave_size_mean": executed / passes if passes else 0.0,
        "serve.service.coalesced_n": float(
            stats_after["coalesced"] - stats_before["coalesced"]),
        "serve.loadgen.late_p99_ms": percentile(
            [result[3] * 1e3 for result in every], 99),
    })
    if rep.traced:
        rep.layers.update(tracer.layer_metrics(
            [tracer.load_spans(str(service.spans_path))], rep.windows))

    rep.check(checks.service_counters(stats_after, misses))
    sample = [(schedule[index], results[index]) for index in sorted(keep)
              if results[index][4] is not None]
    rep.check(checks.served_records(
        [response["record"] for _, (_, _, _, _, response) in sample],
        [execute_case(case_from_dict(case)).as_dict()
         for (_, case, _), _ in sample]))


WORKLOADS = {
    "campaign-small": campaign_small,
    "prr-large-cold": prr_large_cold,
    "serve-mixed": serve_mixed,
    "distrib-campaign": distrib_campaign,
}


def main() -> None:
    args = json.loads(sys.argv[1])
    rep = Rep(args)
    WORKLOADS[rep.workload](rep)
    if rep.traced and not rep.setup_only:
        # This process's spans; a workload that also traced its service
        # or workers has already put the combined figures in rep.layers.
        rep.layers = {**tracer.layer_metrics([rep.recorder.spans],
                                             rep.windows), **rep.layers}
    with open(str(args["out"]), "w", encoding="utf-8") as handle:
        json.dump(rep.finish(), handle)


if __name__ == "__main__":
    main()
