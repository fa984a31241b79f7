"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-small --seed 1 \\
        --seconds 20 --trace 0

Runs repetitions of the workload, each in a fresh process
(``perfbench/rep.py``), until ``--seconds`` have passed, checks the
program's outputs, prints a readable report and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus ``trace.overhead.<metric>``: the traced median of each
end-to-end metric minus the untraced one.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import SPAN_METRICS, now  # noqa: E402

WORKLOADS = ("campaign-small", "prr-large-cold", "serve-mixed",
             "distrib-campaign")

#: End-to-end metrics and their units, in report order.  All are printed;
#: the JSON line carries all but UNGATED (see README.md, "Steadiness").
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "warm_case_ms": "ms",
    "peak_rss_mb": "MB",
}
UNGATED = ("p99_ms",)

#: Per-layer metrics measured outside the span wrappers.
OTHER_LAYERS = (
    "serve.service.server_hit_p50_ms",
    "serve.service.server_miss_p50_ms",
    "serve.service.http_p50_ms",
    "serve.service.wave_size_mean",
    "serve.service.coalesced_n",
    "serve.loadgen.late_p99_ms",
    "distrib.worker.start_s",
    "distrib.coordinator.supervise_tail_s",
    "memory.retained_mb",
)
PER_LAYER = SPAN_METRICS + OTHER_LAYERS + tuple(
    f"trace.overhead.{name}" for name in END_TO_END)

#: Set-up samples taken per run (repetitions plus set-up-only probes).
SETUP_SAMPLES = 5
#: Every repetition must end this long after the run started.
HARD_LIMIT_S = 165.0


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead."):
        return END_TO_END[name[len("trace.overhead."):]]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_n", "count"),
                         ("_ratio", "ratio"), ("_mb", "MB"),
                         ("_mean", "cases")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_rep(args, tmp: str, number: int, traced: bool, budget: float,
            deadline: float, setup_only: bool = False) -> Dict[str, object]:
    """Start one repetition process and return its result."""
    out = os.path.join(tmp, f"rep-{number}.json")
    # Each repetition gets its own inputs, drawn from the run's seed, so
    # the run's medians average over several campaign orders and
    # schedules instead of repeating one.
    spec = {"workload": args.workload, "seed": args.seed * 1000 + number,
            "trace": traced, "budget": budget,
            "tmp": os.path.join(tmp, f"rep-{number}"),
            "out": out, "setup_only": setup_only, "spawned": now()}
    # The program's own progress lines (distrib workers) are not part of
    # the benchmark's output.  A session of its own lets a repetition that
    # overruns be stopped together with the service or workers it started.
    process = subprocess.Popen([sys.executable, os.path.join(HERE, "rep.py"),
                                json.dumps(spec)], stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"error: repetition {number} of {args.workload} "
                         "did not finish in time")
    if code != 0:
        raise SystemExit(f"error: repetition {number} of {args.workload} "
                         f"exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(spec["tmp"], ignore_errors=True)
    return result


def median_of(reps: List[Dict[str, object]], key: str,
              section: str = "") -> float:
    values = [rep[section][key] if section else rep[key] for rep in reps]
    return statistics.median(values)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [path for path in [os.environ.get("PYTHONPATH")] if path])
    # Byte-compile once, so no repetition pays for it in its set-up time.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    tmp = os.path.join(root, ".perfbench_tmp",
                       f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    traced_run = bool(args.trace)
    budget = args.seconds / 2 if traced_run else args.seconds
    untraced: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    probes: List[float] = []
    try:
        number = 0
        while True:
            use_trace = traced_run and number % 2 == 1
            rep = run_rep(args, tmp, number, use_trace, budget, deadline)
            (traced if use_trace else untraced).append(rep)
            number += 1
            elapsed = time.monotonic() - started
            # Stop before a repetition that would overrun the budget by
            # more than a fifth (a traced run needs one of each kind).  A
            # distrib-campaign repetition takes ~9 s, so a 25 s run makes
            # three of them on every seed, not two or three by chance.
            if elapsed * (number + 1) / number > 1.2 * args.seconds \
                    and (traced or not traced_run):
                break
        while len(untraced) + len(probes) < SETUP_SAMPLES:
            probes.append(run_rep(args, tmp, number, False, budget, deadline,
                                  setup_only=True)["setup_s"])
            number += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = {name: median_of(untraced, name) for name in END_TO_END}
    measured["setup_s"] = statistics.median(
        [rep["setup_s"] for rep in untraced] + probes)
    attempted = sum(rep["attempted"] for rep in untraced + traced)
    failed = sum(rep["failed"] for rep in untraced + traced)
    failures = [message for rep in untraced + traced
                for message in rep["failures"]]

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
          f"{len(probes)} set-up probes")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {measured[name]:12.4f} {unit}")
    for key in sorted(untraced[0]["extra"]):
        if key != "ladder":
            print(f"  {key:<16} {median_of(untraced, key, 'extra'):12.4f}")
    for rung in untraced[0]["extra"].get("ladder", []):
        print(f"  ladder {rung['rps']:4d} rps: {rung['requests']} requests, "
              f"p50 {rung['p50_ms']:.3f} ms, p99 {rung['p99_ms']:.3f} ms, "
              f"backlog growth {rung['backlog_growth_ms']:.1f} ms, "
              f"{'meets' if rung['meets_limit'] else 'misses'} the limit")
    print(f"  failed_share     {failed / max(attempted, 1):12.6f} "
          f"({failed} of {attempted})")
    for message in failures[:20]:
        print(f"  check failed: {message}")

    if traced_run:
        layers = {name: median_of(traced, name, "layers")
                  if name in traced[0]["layers"] else 0.0
                  for name in SPAN_METRICS + OTHER_LAYERS}
        for name in END_TO_END:
            layers[f"trace.overhead.{name}"] = \
                median_of(traced, name) - median_of(untraced, name)
        for name in PER_LAYER:
            print(f"  {name:<40} {layers[name]:14.6f} {layer_unit(name)}")
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in END_TO_END.items()
                   if name not in UNGATED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
