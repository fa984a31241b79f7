"""The in-process grid engine: record equivalence, the processes
decision, fallbacks.

In-process, :class:`~repro.sweep.runner.SweepRunner` evaluates a sweep
grid through per-geometry stacked flat-kernel passes
(:class:`repro.engine.grid.BatchedGridEngine`) and routes everything
else through the per-case work unit.  Its contract is strict: **every**
record — power, PRR and coverage alike — must be field-for-field
identical to what the per-case work unit measures for the same grid
(``elapsed_s``, a wall-clock observation, is the one exempt field).
These tests pin that contract across the full standard library, both
planners (both operating modes of every scenario), several array sizes
and all three record kinds, plus the in-process-or-pool decision, the
journal's run-metadata header and the per-case route for scenarios the
stacked pass cannot represent.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.march.library import PAPER_TABLE1_ALGORITHMS
from repro.sweep.journal import RunJournal, load_journal
from repro.sweep.runner import (
    CoverageCase,
    PrrCase,
    SweepCase,
    SweepRunner,
    _WorkerState,
    coverage_grid,
    execute_case,
    prr_grid,
    sweep_grid,
)

from differential import (
    assert_identical_records,
    run_both_paths as run_both,
)

ALGORITHMS = [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS]
SIZES = ["8x16", "16x64"]


# ----------------------------------------------------------------------
# Field-for-field record equivalence, per record kind
# ----------------------------------------------------------------------
def test_power_records_identical_across_strategies():
    """The whole library x two orders x two sizes, both planners per case."""
    cases = sweep_grid(SIZES, ALGORITHMS,
                       orders=("row-major", "column-major"),
                       backends=("vectorized",))
    assert_identical_records(*run_both(cases))


def test_prr_records_identical_across_strategies():
    """The whole library through the BIST path on two sizes."""
    cases = prr_grid(SIZES, ALGORITHMS, backend="vectorized", seed=3)
    assert_identical_records(*run_both(cases))


def test_coverage_records_identical_across_strategies():
    """Coverage campaigns ride the grid engine per-case, records
    unchanged."""
    cases = coverage_grid(["8x8", "16x16"], ["MATS+", "March C-"], sample=2)
    assert_identical_records(*run_both(cases))


def test_segmented_kernel_identical_in_process_pool_and_per_case():
    """A grid that requests the segmented kernel runs it on every path:
    the in-process grid engine, the worker pool and the per-case unit all
    record the tier each case requested, with identical measurements. The
    second grid mixes flat and segmented cases in one engine run."""
    segmented = (sweep_grid(["8x16"], ["MATS+"], backends=("vectorized",),
                            kernel="segmented")
                 + prr_grid(["8x16"], ["MATS+"], backend="vectorized",
                            kernel="segmented"))
    mixed = (sweep_grid(["8x16"], ["MATS+", "March C-"], kernel="flat")
             + sweep_grid(["8x16"], ["MATS+", "March C-"],
                          kernel="segmented")
             + prr_grid(["8x16"], ["MATS+"], backend="vectorized",
                        kernel="segmented"))
    for cases in (segmented, mixed):
        percase, batched = run_both(cases)
        pooled = SweepRunner(cases, processes=2).run()
        assert_identical_records(percase, batched)
        assert_identical_records(percase, pooled)
        assert [record.kernel_used for record in batched] == \
            [case.kernel for case in cases]


def test_mixed_grid_identical_and_in_input_order():
    """A grid mixing all three kinds and both backends: identical records,
    emitted (and journaled) in input order despite group stacking."""
    cases = [
        PrrCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized"),
        SweepCase(rows=8, columns=16, algorithm="March C-",
                  backend="vectorized"),
        CoverageCase(rows=8, columns=8, algorithm="MATS+",
                     include_coupling=False, sample=2),
        SweepCase(rows=8, columns=16, algorithm="MATS+", backend="auto"),
        PrrCase(rows=8, columns=64, algorithm="March G", backend="auto"),
        SweepCase(rows=8, columns=16, algorithm="MATS+", backend="reference"),
    ]
    percase, batched = run_both(cases)
    assert_identical_records(percase, batched)


def test_unsupported_low_power_falls_back_per_case():
    """The snake order's low-power run is not bulk-replayable: under
    backend='auto' the per-case path measures it reference+vectorized, and
    the grid engine must reroute and report exactly the same."""
    cases = sweep_grid(["8x16"], ["March C-", "MATS+"], orders=("snake",),
                       backends=("auto",))
    percase, batched = run_both(cases)
    assert_identical_records(percase, batched)
    assert {record.backend_used for record in batched} == \
        {"reference+vectorized"}


# ----------------------------------------------------------------------
# In-process or pool: the one execution decision
# ----------------------------------------------------------------------
def _vectorized_cases(count: int = 2):
    return sweep_grid(["8x8"], ALGORITHMS[:count], backends=("vectorized",))


def _hide_numpy(monkeypatch):
    """Make ``find_spec("numpy")`` report numpy as not importable."""
    real_find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "numpy"
                        else real_find_spec(name, *args))


_MIXED = _vectorized_cases() + coverage_grid(["8x8"], ["MATS+"], sample=2)
_REFERENCE = sweep_grid(["8x8"], ALGORITHMS[:2], backends=("reference",))


@pytest.mark.parametrize("cases, processes, numpy_present, expected", [
    (_vectorized_cases(), None, True, 1),   # all stack: in-process
    (_vectorized_cases(), 1, True, 1),
    (_vectorized_cases(), 4, True, 2),      # explicit pool, clamped
    (_MIXED, None, True, 3),                # per-case-only scenarios: pool
    (_MIXED, 1, True, 1),                   # ...unless pinned in-process
    (_REFERENCE, None, True, 2),            # reference never stacks
    (_vectorized_cases(), None, False, 2),  # nothing stacks without numpy
    (_vectorized_cases(), 1, False, 1),
], ids=["stackable", "stackable-1", "stackable-4", "mixed", "mixed-1",
        "reference", "no-numpy", "no-numpy-1"])
def test_processes_decision(monkeypatch, cases, processes, numpy_present,
                            expected):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if not numpy_present:
        _hide_numpy(monkeypatch)
    assert SweepRunner(cases, processes=processes).resolved_processes() \
        == expected


def test_engine_without_numpy_runs_every_case_per_case(monkeypatch):
    """Without numpy nothing stacks: the engine plans no group and every
    record comes from the per-case work unit, unchanged."""
    from repro.engine.grid import BatchedGridEngine

    _hide_numpy(monkeypatch)
    engine = BatchedGridEngine(_MIXED)
    groups, percase = engine._plan()
    assert groups == {} and len(percase) == len(_MIXED)
    state = _WorkerState()
    expected = [execute_case(case, state) for case in _MIXED]
    observed = [record for _, record in engine.completions()]
    assert_identical_records(expected, observed)


# ----------------------------------------------------------------------
# Journal header
# ----------------------------------------------------------------------
def test_fresh_journal_records_run_header(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    header = RunJournal(path).read_header()
    assert header == {"cases": len(cases), "pending": len(cases)}
    # The header is metadata: entry loading and resume ignore it.
    assert len(load_journal(path)) == len(cases)
    resumed = SweepRunner(cases, journal=path).run(resume=True)
    assert len(resumed) == len(cases)


def test_resume_keeps_the_original_header(tmp_path):
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2]) + "\n")  # header + first case
    SweepRunner(cases, processes=1, journal=path).run(resume=True)
    header = RunJournal(path).read_header()
    assert header is not None and header["cases"] == len(cases)
    assert len(load_journal(path)) == len(cases)
    # Exactly one header line, still the leading one.
    body = path.read_text().splitlines()
    headers = [line for line in body
               if line.startswith('{"format": "repro-sweep-journal-header"')]
    assert headers == [body[0]]


def test_headerless_journals_still_resume(tmp_path):
    """Journals written before the header existed resume unchanged."""
    path = tmp_path / "run.jsonl"
    cases = _vectorized_cases()
    SweepRunner(cases, journal=path).run()
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith('{"format": "repro-sweep-journal-header"')]
    path.write_text("\n".join(lines) + "\n")
    assert RunJournal(path).read_header() is None
    resumed = SweepRunner(cases, journal=path).run(resume=True)
    assert len(resumed) == len(cases)
    records = [json.loads(line)["record"]
               for line in path.read_text().splitlines()
               if line.startswith('{"case"')]
    assert len(records) == len(cases)


def test_measure_batch_requires_a_vectorized_controller():
    """measure_batch is the stacked vectorized API: a reference-backend
    controller must refuse instead of silently running the vectorized
    campaign behind the dispatch contract's back."""
    from repro.bist import BistController
    from repro.bist.controller import BistError
    from repro.march.library import get_algorithm
    from repro.sram import ArrayGeometry

    controller = BistController(ArrayGeometry(8, 16), backend="reference")
    with pytest.raises(BistError, match="reference backend"):
        controller.measure_batch([(get_algorithm("MATS+"), True)])
