"""Grid-batched campaign evaluation: one stacked kernel pass per sweep axis.

The per-case sweep path rebuilds its measurement one scenario at a time:
each case compiles (or fetches) its trace, runs the flat kernel for its two
operating modes, and assembles its record.  Paper-style grids are far more
structured than that — Table 1 is *(algorithm x planner)* on one geometry,
the scaling studies are *(algorithm x order x size)* — and everything on
one geometry can share a single trip through the engine.

:class:`BatchedGridEngine` exploits exactly that.  It groups a grid's
cases by geometry axes, compiles every (algorithm, order, direction) trace
once into a shared :class:`~repro.march.execution.TraceCache`, and hands
each group — all algorithms, all orders, both planners — to the stacked
flat kernel (:meth:`repro.engine.vectorized.VectorizedEngine
.run_aggregates_batch` / :meth:`repro.bist.controller.BistController
.measure_batch`) as **one** batch.  Records are assembled through the very
same helpers the per-case work units use
(:func:`repro.sweep.runner.power_record` / :func:`~repro.sweep.runner
.prr_record`), and the kernel's per-slot reductions are stacking-invariant,
so every record is bit-identical to what the per-case work unit
(:func:`repro.sweep.runner.execute_case`) produces (``elapsed_s``, a
wall-clock observation, aside).

Cases the stacked pass cannot represent — reference-backend scenarios,
fault-coverage campaigns, runs the exact bulk replay rejects, and every
case when numpy is not importable — run through that per-case work unit
*in the same process*, under the same worker state, with per-case
semantics (including ``backend="auto"`` mode-by-mode fallback) preserved
verbatim.

This engine is the in-process executor of
:class:`repro.sweep.runner.SweepRunner` and the wave executor of
:class:`repro.serve.service.CampaignService`; journal, resume and shard
semantics live entirely in the runner.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Tuple

from ..march.element import AddressingDirection
from ..march.library import get_algorithm
from ..march.ordering import make_order
from ..sram.memory import OperatingMode
from .dispatch import EngineError


class BatchedGridEngine:
    """Evaluate a sweep grid with per-geometry stacked kernel passes.

    ``cases`` is any mix of :class:`~repro.sweep.runner.SweepCase`,
    :class:`~repro.sweep.runner.PrrCase` and
    :class:`~repro.sweep.runner.CoverageCase` scenarios.
    :meth:`completions` yields ``(position, record)`` pairs — ``position``
    indexes ``cases`` — as each scenario's record materialises, which is
    what the runner's streaming journal/progress loop consumes.
    """

    def __init__(self, cases, worker_state=None) -> None:
        # Deferred: the runner imports this module, so importing it back
        # here at module level would be circular.
        from ..sweep import runner as sweep_runner

        self._runner = sweep_runner
        self.cases = list(cases)
        #: Optional :class:`repro.sweep.runner._WorkerState` to
        #: evaluate under.  Long-lived callers (the campaign service runs
        #: one batch per request wave on a pool thread) pass their thread's
        #: persistent state so compiled traces and facades stay warm across
        #: batches; by default each :meth:`completions` call builds a fresh
        #: one scoped to the run.
        self._worker_state = worker_state

    # ------------------------------------------------------------------
    def completions(self) -> Iterator[Tuple[int, object]]:
        """Yield every case's ``(position, record)``, stacked where possible.

        One worker state (the given one, else a fresh one scoped to this
        call) serves the stacked passes and every per-case execution, so
        they all share memoised facades and compiled traces.
        """
        runner = self._runner
        state = self._worker_state if self._worker_state is not None \
            else runner._WorkerState()
        groups, percase = self._plan()
        # Records emit in input order; each stacked group evaluates
        # lazily, when its first member is reached.
        evaluators = {}
        for (tag, *_), members in groups.items():
            runner_fn = getattr(self, f"_run_{tag}_group")
            for position, _ in members:
                evaluators[position] = (runner_fn, members)
        ready = {}
        percase_cases = dict(percase)
        for position in range(len(self.cases)):
            if position in percase_cases:
                yield position, runner.execute_case(
                    percase_cases[position], state)
                continue
            if position not in ready:
                runner_fn, members = evaluators[position]
                ready.update(runner_fn(state, members))
            yield position, ready.pop(position)

    # ------------------------------------------------------------------
    def _plan(self):
        """Split the grid into stackable groups and per-case leftovers.

        Groups key on the case kind, the full geometry and the kind's
        ``stack_axes`` (:class:`repro.sweep.runner.CaseKind`): PRR
        campaigns group per BIST-controller configuration, power sweeps
        per (geometry, direction, kernel) — different algorithms, address
        orders and requested backends stack together; only the reference
        backend (which has no bulk kernel) and coverage campaigns (a
        different engine family) stay per-case.  A group of kind ``tag``
        evaluates through ``_run_<tag>_group``.
        """
        runner = self._runner
        groups: Dict[Tuple, List[Tuple[int, object]]] = {}
        percase: List[Tuple[int, object]] = []
        numpy_ok = runner._numpy_importable()
        for position, case in enumerate(self.cases):
            if runner._batchable(case, numpy_ok):
                kind = runner.kind_of(case)
                key = runner._axes_key(case, kind, kind.stack_axes)
                groups.setdefault(key, []).append((position, case))
            else:
                percase.append((position, case))
        return groups, percase

    # ------------------------------------------------------------------
    def _run_prr_group(self, state, members):
        """One stacked pass over a BIST power-campaign group (both planners)."""
        runner = self._runner
        controller = state.facade_for(members[0][1])
        requests = []
        for _, case in members:
            algorithm = get_algorithm(case.algorithm)
            requests.append((algorithm, False))
            requests.append((algorithm, True))

        started = time.perf_counter()
        try:
            outcomes = controller.measure_batch(requests, collect_errors=True)
        except EngineError:
            # The vectorized campaign is unavailable as a whole (e.g. a
            # construction failure): per-case dispatch owns the fallback
            # and error-surfacing semantics.
            outcomes = None
        elapsed = time.perf_counter() - started

        if outcomes is None:
            for position, case in members:
                yield position, runner.execute_case(case, state)
            return
        share = elapsed / len(members)
        for index, (position, case) in enumerate(members):
            functional = outcomes[2 * index]
            low_power = outcomes[2 * index + 1]
            if isinstance(functional, Exception) or \
                    isinstance(low_power, Exception):
                # Exact per-case semantics for the unsupported run:
                # backend="auto" falls back to the reference engine,
                # backend="vectorized" surfaces the engine error.
                yield position, runner.execute_case(case, state)
            else:
                yield position, runner.prr_record(
                    case, functional, low_power, share)

    def _run_power_group(self, state, members):
        """One stacked pass over a session power group (all orders, both
        planners)."""
        runner = self._runner
        from .vectorized import VectorizedEngine  # deferred: needs numpy

        first_case = members[0][1]
        geometry = first_case.geometry()
        direction = AddressingDirection(first_case.any_direction)
        engine = VectorizedEngine(geometry, any_direction=direction,
                                  detailed=False, trace_cache=state.traces,
                                  kernel=first_case.kernel)
        requests = []
        orders = []
        for _, case in members:
            algorithm = get_algorithm(case.algorithm)
            order = make_order(case.order, geometry)
            trace = state.traces.get(algorithm, order, direction)
            orders.append(order)
            requests.append((algorithm, OperatingMode.FUNCTIONAL, trace))
            requests.append((algorithm, OperatingMode.LOW_POWER_TEST, trace))

        started = time.perf_counter()
        outcomes = engine.run_aggregates_batch(requests, collect_errors=True)
        elapsed = time.perf_counter() - started

        share = elapsed / len(members)
        for index, (position, case) in enumerate(members):
            pair = outcomes[2 * index:2 * index + 2]
            if any(isinstance(outcome, Exception) for outcome in pair):
                yield position, runner.execute_case(case, state)
                continue
            algorithm = get_algorithm(case.algorithm)
            results = []
            for mode, (by_source, counters, cycles, _) in zip(
                    (OperatingMode.FUNCTIONAL, OperatingMode.LOW_POWER_TEST),
                    pair):
                results.append(engine.result_from_aggregates(
                    algorithm, mode, by_source, counters, cycles,
                    order_name=orders[index].name))
            yield position, runner.power_record(
                case, results[0], results[1], "vectorized", share)
