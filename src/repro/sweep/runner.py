"""Batch execution of scenario grids (the paper-scale sweeps).

A sweep batch-executes a grid of scenarios with optional multiprocessing
fan-out across scenarios and JSON/CSV export of the results.  Three
scenario kinds exist, all plain picklable descriptions, each one row of
the :data:`CASE_KINDS` table:

* :class:`SweepCase` (``"power"``) — one *(geometry x algorithm x
  address-order x backend)* test-power measurement: a full
  functional-vs-low-power-test-mode comparison (the paper's Table 1).
  ``python -m repro.sweep --paper`` runs the full 512 x 512 measured
  Table 1 in seconds.
* :class:`CoverageCase` (``"coverage"``) — one *(geometry x algorithm x
  order-set)* fault-coverage campaign: the standard fault battery
  simulated under several address orders with per-fault invariance
  checking (the paper's Section 3 DOF-1 argument).
  ``python -m repro.sweep --paper-coverage`` runs the full 512 x 512 DOF-1
  invariance check in seconds on the vectorized campaign engine.
* :class:`PrrCase` (``"prr"``) — one *(geometry x algorithm x backend)*
  BIST power campaign: both operating modes measured through the
  backend-pluggable :class:`repro.bist.BistController`, the measured Power
  Reduction Ratio differenced against the Section 5 analytical model and
  its extended (bracketing) variant.  ``python -m repro.sweep
  --paper-table1`` runs the full measured 512 x 512 Table 1 in seconds on
  the vectorized power campaign.

Design notes:

* cases carry only names and numbers (no live objects), so they travel
  cheaply to worker processes and round-trip through JSON;
* every per-kind decision — JSON tag, record class, work unit, facade,
  stackability, CSV header marker — is read from the kind's
  :class:`CaseKind` row, so a new kind is one row plus its case/record
  classes and work unit;
* :func:`execute_case` runs any case through its row's work unit; the
  in-process grid engine (:class:`repro.engine.grid.BatchedGridEngine`)
  stacks what it can and calls it for the rest, and a
  ``multiprocessing.Pool`` maps it over the grid;
* execution **streams**: the runner consumes completions as they happen,
  so each completed case is journaled and reported live while the rest of
  the grid is still running, and the final :class:`SweepResult` restores
  the stable input order;
* every executor owns one :class:`_WorkerState`, passed to the work unit
  explicitly — memoised facades and a shared, content-keyed
  :class:`~repro.march.execution.TraceCache` — so the same
  algorithm x order trace is compiled once per executor, on first use,
  instead of once per case;
* a campaign is durable: ``journal=path`` appends one fsync'd JSONL line
  per completed case (:mod:`repro.sweep.journal`), ``run(resume=True)``
  reloads it and re-executes only the missing cases, and
  :func:`shard_cases` splits a grid deterministically across machines;
* a :class:`SweepResult` holds one record per scenario and renders through
  :func:`repro.analysis.tables.render_table`, so sweep output matches the
  benchmark tables.  Campaign records carry the victim-sampling ``seed``,
  so an exported campaign is reproducible from its JSON/CSV alone.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import multiprocessing
import os
import threading
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analysis.tables import render_table
from ..bist import BistController, POWER_BACKENDS
from ..core.prr import AnalyticalPowerModel
from ..core.session import BACKENDS, ModeComparison, TestSession
from ..durable import atomic_write_bytes, atomic_write_text
from ..engine.dispatch import KERNEL_CHOICES
from ..engine.grid import BatchedGridEngine
from ..faults import (
    DEFAULT_LOCATION_SEED,
    FAULT_BACKENDS,
    FaultSimulator,
    build_fault_list,
    default_fault_locations,
    run_campaign,
)
from ..march.element import AddressingDirection
from ..march.execution import TraceCache
from ..march.library import PAPER_TABLE1_ALGORITHMS, get_algorithm
from ..march.ordering import ORDER_REGISTRY, make_order
from ..sram.geometry import ArrayGeometry
from ..sram.memory import OperatingMode
from .journal import JournalEntry, RunJournal


class SweepError(Exception):
    """Raised on malformed sweep specifications."""


GeometryLike = Union[ArrayGeometry, Tuple[int, int], Tuple[int, int, int], str]


def _geometry_label(rows: int, columns: int, bits_per_word: int,
                    banks: int) -> str:
    """The compact geometry spelling used by labels and table rows."""
    label = f"{rows}x{columns}"
    if bits_per_word != 1:
        label += f"x{bits_per_word}"
    if banks != 1:
        label += f" ({banks} banks)"
    return label


def parse_geometry(spec: GeometryLike) -> ArrayGeometry:
    """Coerce a geometry specification into an :class:`ArrayGeometry`.

    Accepts an :class:`ArrayGeometry`, a ``(rows, columns)`` or
    ``(rows, columns, bits_per_word)`` tuple, or a string like ``"512x512"``
    / ``"64x64x4"`` (the CLI form).
    """
    if isinstance(spec, ArrayGeometry):
        return spec
    if isinstance(spec, str):
        parts = spec.lower().replace("×", "x").split("x")
        if len(parts) not in (2, 3):
            raise SweepError(
                f"geometry {spec!r} must look like ROWSxCOLS or ROWSxCOLSxBITS")
        try:
            numbers = [int(part) for part in parts]
        except ValueError as exc:
            raise SweepError(f"geometry {spec!r} has non-integer fields") from exc
        return ArrayGeometry(*numbers)
    return ArrayGeometry(*spec)


#: Runtime type of every case field, by its (string) annotation.
_FIELD_TYPES: Dict[str, Union[type, Tuple[type, ...]]] = {
    "int": int, "str": str, "bool": bool,
    "Optional[str]": (str, type(None)), "Tuple[str, ...]": tuple,
}

def _validate_case(case, backends: Tuple[str, ...], orders: Sequence[str],
                   kernel: Optional[str] = None) -> None:
    """The fail-fast checks every case kind shares, spelled once.

    Every field must have its annotated type, address orders, backend,
    kernel tier and ``⇕`` direction must be known names, the algorithm
    must resolve and the geometry must be consistent.  Any violation is a
    :class:`SweepError`, so a bad case fails at construction, not halfway
    through a campaign, and a served request gets a 400.
    """
    for spec in fields(case):
        value = getattr(case, spec.name)
        expected = _FIELD_TYPES[spec.type]
        if not isinstance(value, expected) or \
                (expected is int and isinstance(value, bool)):
            raise SweepError(
                f"case field {spec.name!r} must be {spec.type}, "
                f"got {value!r}")
    for order in orders:
        if not isinstance(order, str) or order not in ORDER_REGISTRY:
            raise SweepError(
                f"unknown address order {order!r}; "
                f"available: {sorted(ORDER_REGISTRY)}")
    if case.backend not in backends:
        raise SweepError(
            f"unknown backend {case.backend!r}; expected one of {backends}")
    if kernel is not None and kernel not in KERNEL_CHOICES:
        raise SweepError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}")
    direction = getattr(case, "any_direction", "up")
    try:
        concrete = AddressingDirection(direction) != AddressingDirection.ANY
    except ValueError:
        concrete = False
    if not concrete:
        raise SweepError(
            f"unknown any_direction {direction!r}; a ⇕ element resolves "
            f"to 'up' or 'down'")
    try:
        get_algorithm(case.algorithm)
        case.geometry()  # inconsistent dimensions/banking
    except (KeyError, ValueError) as exc:
        raise SweepError(exc.args[0] if exc.args else str(exc)) from exc


class _Record:
    """The JSON/CSV row form every record dataclass shares."""

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view (the JSON/CSV row)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        """Rebuild a record from :meth:`as_dict` output (JSON/CSV import).

        Coerces CSV's stringly-typed fields.  Fields with a dataclass
        default (e.g. ``banks``) may be absent — exports written before
        the field existed import with the default.
        """
        kwargs = {}
        for spec in fields(cls):
            if spec.name not in data:
                if spec.default is not MISSING:
                    kwargs[spec.name] = spec.default
                    continue
                raise SweepError(
                    f"sweep record is missing field {spec.name!r}")
            value = data[spec.name]
            if spec.type in ("int", int):
                value = int(value)  # CSV round-trip delivers strings
            elif spec.type in ("float", float):
                value = float(value)
            elif spec.type in ("bool", bool) and isinstance(value, str):
                value = value == "True"
            kwargs[spec.name] = value
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Power-measurement cases (the Table 1 mode comparison)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCase:
    """One scenario of a sweep grid (picklable, JSON-friendly).

    Everything is carried by name or plain number so the case can be sent
    to a worker process and rebuilt there: the algorithm resolves through
    :func:`repro.march.get_algorithm`, the order through
    :func:`repro.march.ordering.make_order`.
    """

    rows: int
    columns: int
    algorithm: str
    bits_per_word: int = 1
    order: str = "row-major"
    any_direction: str = "up"
    backend: str = "auto"
    banks: int = 1
    bank_interleave: str = "blocked"
    #: vectorized-engine kernel tier (:data:`KERNEL_CHOICES`); ``None``
    #: means ``"flat"`` and is recorded as ``"default"``.
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_case(self, BACKENDS, (self.order,), self.kernel)

    def geometry(self) -> ArrayGeometry:
        """The array geometry this case runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns,
                             bits_per_word=self.bits_per_word,
                             banks=self.banks,
                             bank_interleave=self.bank_interleave)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return f"{self.algorithm} @ {geometry} [{self.order}, {self.backend}]"


@dataclass
class SweepRecord(_Record):
    """The measurements of one executed :class:`SweepCase`."""

    rows: int
    columns: int
    bits_per_word: int
    algorithm: str
    order: str
    any_direction: str
    backend: str            # requested backend
    backend_used: str       # engine(s) that actually ran: "vectorized",
                            # "reference", or "reference+vectorized" when
                            # "auto" fell back for only one of the two modes
    cycles_per_mode: int
    functional_power_w: float
    low_power_power_w: float
    measured_prr: float
    analytical_prr: float   # the paper's Section 5 equation
    analytical_prr_recharge: float  # + the next-column recharge term
    passed: bool            # no read mismatch in either mode
    elapsed_s: float
    banks: int = 1
    bank_interleave: str = "blocked"
    kernel: str = "default"  # requested kernel tier ("default" = none
                             # requested: the flat tier)
    kernel_used: str = ""    # concrete tier(s) that measured the modes
                             # ("flat"/"segmented"/"jit", joined with
                             # "+" if they differed; "" = reference
                             # engine only, which has no kernel seam)

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return {
            "Algorithm": self.algorithm,
            "Geometry": geometry,
            "Order": self.order,
            "Backend": self.backend_used,
            "PRR measured": f"{100.0 * self.measured_prr:.1f} %",
            "PRR analytical": f"{100.0 * self.analytical_prr:.1f} %",
            "PRR analytical (+recharge)": f"{100.0 * self.analytical_prr_recharge:.1f} %",
            "P_F (mW)": f"{self.functional_power_w * 1e3:.3f}",
            "P_LPT (mW)": f"{self.low_power_power_w * 1e3:.3f}",
            "Cycles/mode": self.cycles_per_mode,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        return (f"{self.algorithm} @ {self.rows}x{self.columns} [{self.order}]: "
                f"PRR {100.0 * self.measured_prr:.1f} % "
                f"({self.elapsed_s:.2f} s, {self.backend_used})")


def run_case(case: SweepCase,
             state: Optional["_WorkerState"] = None) -> SweepRecord:
    """Execute one scenario: both modes, measured and analytical PRR.

    This is the per-case work unit (``state``, when given, supplies the
    memoised facade and compiled traces).  Backend selection and fallback
    are the session facade's own (the shared
    :class:`repro.engine.dispatch.BackendDispatcher` contract): a requested
    ``"vectorized"`` backend surfaces engine errors, ``"auto"`` falls back
    to the reference engine per run, and the record's ``backend_used``
    reports which engine(s) actually measured the comparison.
    """
    algorithm = get_algorithm(case.algorithm)
    session = facade_for(case, state)

    started = time.perf_counter()
    functional = session.run(algorithm, OperatingMode.FUNCTIONAL)
    backends_used = {session.last_backend_used}
    low_power = session.run(algorithm, OperatingMode.LOW_POWER_TEST)
    backends_used.add(session.last_backend_used)
    elapsed = time.perf_counter() - started
    backend_used = "+".join(sorted(backend for backend in backends_used
                                   if backend is not None))
    return power_record(case, functional, low_power, backend_used, elapsed)


def power_record(case: SweepCase, functional, low_power, backend_used: str,
                 elapsed: float) -> SweepRecord:
    """Assemble the :class:`SweepRecord` of one measured power scenario.

    Shared by :func:`run_case` and the stacked passes of the grid engine
    (:class:`repro.engine.grid.BatchedGridEngine`), so stacked and
    per-case scenarios derive records from raw mode measurements
    identically — the field-for-field equivalence the engine guarantees.
    """
    geometry = case.geometry()
    algorithm = get_algorithm(case.algorithm)
    comparison = ModeComparison(algorithm=algorithm.name,
                                functional=functional, low_power=low_power)

    analytical = AnalyticalPowerModel(geometry)
    prediction = analytical.predict(algorithm)
    prediction_recharge = analytical.predict(
        algorithm, include_secondary=True, include_next_column_recharge=True)

    return SweepRecord(
        rows=case.rows,
        columns=case.columns,
        bits_per_word=case.bits_per_word,
        algorithm=algorithm.name,
        order=case.order,
        any_direction=case.any_direction,
        backend=case.backend,
        backend_used=backend_used,
        cycles_per_mode=comparison.functional.cycles,
        functional_power_w=comparison.functional.average_power,
        low_power_power_w=comparison.low_power.average_power,
        measured_prr=comparison.prr,
        analytical_prr=prediction.prr,
        analytical_prr_recharge=prediction_recharge.prr,
        passed=comparison.functional.passed and comparison.low_power.passed,
        elapsed_s=elapsed,
        banks=case.banks,
        bank_interleave=case.bank_interleave,
        kernel=case.kernel or "default",
        kernel_used=_kernels_used(functional, low_power),
    )


def _kernels_used(*results) -> str:
    """Concrete kernel tier(s) stamped on a set of mode results.

    Results carry the tier that measured them (``TestRunResult.kernel`` /
    ``BistResult.kernel``; empty on the reference engine).  Joined sorted
    with ``"+"`` — mirroring ``backend_used`` — in the rare case an
    ``"auto"`` backend fallback split the modes across engines.
    """
    return "+".join(sorted({result.kernel for result in results
                            if result.kernel}))


def _build_session(case: SweepCase,
                   state: Optional["_WorkerState"]) -> TestSession:
    """The power-measurement facade of ``case``."""
    geometry = case.geometry()
    return TestSession(geometry, order=make_order(case.order, geometry),
                       any_direction=AddressingDirection(case.any_direction),
                       detailed=False, backend=case.backend,
                       kernel=case.kernel)


# ----------------------------------------------------------------------
# Fault-coverage campaign cases (the DOF-1 sweeps)
# ----------------------------------------------------------------------
#: The representative DOF-1 order set: the paper's word-line order, the
#: legacy fast-row order, and an arbitrary permutation.
INVARIANCE_ORDERS: Tuple[str, ...] = ("row-major", "column-major", "pseudo-random")

#: Pseudo-random victim locations added to the corners/centre spread of a
#: coverage campaign when no ``sample`` is given (one spelling, shared by
#: the case default, the grid builders and the CLI).
DEFAULT_SAMPLE = 6


@dataclass(frozen=True)
class CoverageCase:
    """One fault-coverage campaign scenario (picklable, JSON-friendly).

    The standard fault battery (single-cell and/or coupling) is placed at
    a deterministic victim spread — corners, centre, plus ``sample``
    pseudo-random cells drawn from ``seed`` — and simulated under every
    order in ``orders``; the per-fault verdicts are compared across orders
    (the paper's Section 3 DOF-1 invariance).  ``backend`` selects the
    fault-simulation engine (:data:`repro.faults.FAULT_BACKENDS`).
    """

    rows: int
    columns: int
    algorithm: str
    orders: Tuple[str, ...] = INVARIANCE_ORDERS
    any_direction: str = "up"
    backend: str = "auto"
    include_single: bool = True
    include_coupling: bool = True
    sample: int = DEFAULT_SAMPLE
    seed: int = DEFAULT_LOCATION_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise SweepError("a coverage case needs at least one address order")
        if not (self.include_single or self.include_coupling):
            raise SweepError("a coverage case needs at least one fault battery")
        _validate_case(self, FAULT_BACKENDS, self.orders)
        if self.sample < 0:
            raise SweepError(f"sample must be >= 0, got {self.sample}")

    def geometry(self) -> ArrayGeometry:
        """The (bit-oriented) array geometry this campaign runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        return (f"{self.algorithm} coverage @ {self.rows}x{self.columns} "
                f"[{len(self.orders)} orders, {self.backend}]")


@dataclass
class CoverageRecord(_Record):
    """The measurements of one executed :class:`CoverageCase`.

    ``seed`` and ``sample`` are recorded so the exported JSON/CSV alone
    reproduces the exact victim set of the campaign; ``orders`` is the
    ``"+"``-joined order list (flat for CSV).
    """

    rows: int
    columns: int
    algorithm: str
    orders: str
    any_direction: str
    backend: str            # requested backend
    backend_used: str       # engine that actually ran ("vectorized"/"reference")
    seed: int
    sample: int
    locations: int          # victim locations in the campaign
    total_faults: int
    detected_faults: int    # under the first order
    coverage: float
    invariant: bool         # per-fault detection identical across orders
    disagreements: int
    elapsed_s: float

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table."""
        return {
            "Algorithm": self.algorithm,
            "Geometry": f"{self.rows}x{self.columns}",
            "Orders": self.orders,
            "Backend": self.backend_used,
            "Faults": self.total_faults,
            "Coverage": f"{100.0 * self.coverage:.1f} %",
            "DOF-1 invariant": "yes" if self.invariant else
                               f"NO ({self.disagreements})",
            "Seed": self.seed,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        status = "invariant" if self.invariant else \
            f"{self.disagreements} DISAGREEMENTS"
        return (f"{self.algorithm} coverage @ {self.rows}x{self.columns}: "
                f"{100.0 * self.coverage:.1f} % of {self.total_faults} faults, "
                f"DOF-1 {status} ({self.elapsed_s:.2f} s, {self.backend_used})")


def run_coverage_case(case: CoverageCase,
                      state: Optional["_WorkerState"] = None
                      ) -> CoverageRecord:
    """Execute one coverage campaign: all orders, per-fault invariance.

    The per-case work unit for coverage scenarios.  The fault list
    is simulated once per order through the backend-pluggable
    :class:`repro.faults.FaultSimulator`; coverage is reported under the
    first order and the invariance verdict compares every order pair-wise
    against it.
    """
    geometry = case.geometry()
    algorithm = get_algorithm(case.algorithm)
    orders = [make_order(name, geometry) for name in case.orders]
    locations = default_fault_locations(geometry, sample=case.sample,
                                        seed=case.seed)
    injections = build_fault_list(geometry, locations=locations,
                                  include_single=case.include_single,
                                  include_coupling=case.include_coupling)
    simulator = facade_for(case, state)

    started = time.perf_counter()
    campaign = run_campaign(algorithm, orders, geometry, injections,
                            simulator=simulator)
    elapsed = time.perf_counter() - started

    coverage = campaign.coverage_report()
    invariance = campaign.invariance_report()
    return CoverageRecord(
        rows=case.rows,
        columns=case.columns,
        algorithm=algorithm.name,
        orders="+".join(case.orders),
        any_direction=case.any_direction,
        backend=case.backend,
        backend_used=campaign.backend_used,
        seed=case.seed,
        sample=case.sample,
        locations=len(locations),
        total_faults=coverage.total_faults,
        detected_faults=coverage.detected_faults,
        coverage=coverage.coverage,
        invariant=invariance.invariant,
        disagreements=len(invariance.disagreements),
        elapsed_s=elapsed,
    )


def _build_simulator(case: CoverageCase,
                     state: Optional["_WorkerState"]) -> FaultSimulator:
    """The fault-simulation facade of ``case`` (sharing ``state``'s traces)."""
    return FaultSimulator(
        case.geometry(),
        any_direction=AddressingDirection(case.any_direction),
        backend=case.backend,
        trace_cache=state.traces if state is not None else None)


def coverage_grid(geometries: Iterable[GeometryLike],
                  algorithms: Iterable[str],
                  orders: Sequence[str] = INVARIANCE_ORDERS,
                  backend: str = "auto",
                  any_direction: str = "up",
                  sample: int = DEFAULT_SAMPLE,
                  seed: int = DEFAULT_LOCATION_SEED) -> List["CoverageCase"]:
    """Build a grid of coverage campaigns: one case per geometry x algorithm."""
    cases: List[CoverageCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        if geometry.bits_per_word != 1:
            raise SweepError(
                "coverage campaigns model bit-oriented arrays; use "
                f"ROWSxCOLS geometries (got {geometry.describe()})")
        for algorithm in algorithms:
            cases.append(CoverageCase(
                rows=geometry.rows, columns=geometry.columns,
                algorithm=algorithm, orders=tuple(orders),
                any_direction=any_direction, backend=backend,
                sample=sample, seed=seed))
    return cases


def paper_coverage_cases(backend: str = "auto",
                         sample: int = DEFAULT_SAMPLE,
                         seed: int = DEFAULT_LOCATION_SEED
                         ) -> List["CoverageCase"]:
    """The paper-scale DOF-1 check: the full 512 x 512 array, three orders.

    March C- carries the full single-cell + coupling battery (the fault
    classes it targets); MATS+ carries the single-cell battery only — a
    weak test may detect untargeted coupling faults merely fortuitously,
    and such fortuitous detections are legitimately order-dependent.
    """
    march_cm = CoverageCase(rows=512, columns=512, algorithm="March C-",
                            backend=backend, sample=sample, seed=seed)
    mats_plus = CoverageCase(rows=512, columns=512, algorithm="MATS+",
                             backend=backend, include_coupling=False,
                             sample=sample, seed=seed)
    return [march_cm, mats_plus]


# ----------------------------------------------------------------------
# BIST power-campaign cases (the measured-vs-analytical Table 1 sweeps)
# ----------------------------------------------------------------------
#: Slack (in PRR fraction) allowed on either side of the analytical bracket
#: when classifying a measured PRR as in-bracket: the extended model may
#: overestimate an overhead by a hair (it books a full bit-line swing for
#: the next-column recharge where the measurement sees a decayed one).
PRR_BRACKET_SLACK = 0.002


@dataclass(frozen=True)
class PrrCase:
    """One BIST power-campaign scenario (picklable, JSON-friendly).

    The algorithm runs in both operating modes through the
    backend-pluggable :class:`repro.bist.BistController` (word-line-
    sequential address generator, the paper's BIST deployment) and the
    measured Power Reduction Ratio is differenced against the Section 5
    analytical prediction and its extended bracketing variant.
    ``backend`` selects the power-measurement engine
    (:data:`repro.bist.POWER_BACKENDS`); ``seed`` is recorded verbatim in
    the exports for provenance uniformity with the campaign records (the
    PRR measurement itself is deterministic).
    """

    rows: int
    columns: int
    algorithm: str
    bits_per_word: int = 1
    backend: str = "auto"
    seed: int = 0
    banks: int = 1
    bank_interleave: str = "blocked"
    #: Kernel tier request for the vectorized campaign (``None`` means
    #: ``"flat"`` and is recorded as ``"default"``).
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_case(self, POWER_BACKENDS, (), self.kernel)

    def geometry(self) -> ArrayGeometry:
        """The array geometry this campaign runs on."""
        return ArrayGeometry(rows=self.rows, columns=self.columns,
                             bits_per_word=self.bits_per_word,
                             banks=self.banks,
                             bank_interleave=self.bank_interleave)

    def label(self) -> str:
        """Short human-readable scenario label used in logs and tables."""
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return f"{self.algorithm} PRR @ {geometry} [{self.backend}]"


@dataclass
class PrrRecord(_Record):
    """The measurements of one executed :class:`PrrCase`.

    Carries the raw energy totals of both modes (the quantities the golden
    Table 1 regression pins), the measured PRR, and the analytical
    prediction band: ``analytical_prr`` is the paper's Section 5 equation,
    ``analytical_prr_bracket`` the extended variant (secondary overheads +
    next-column recharge) that bounds the measurement from below.
    ``backend`` / ``backend_used`` / ``seed`` make the exported JSON/CSV
    self-describing about how the numbers were produced.
    """

    rows: int
    columns: int
    bits_per_word: int
    algorithm: str
    backend: str            # requested backend
    backend_used: str       # engine that actually ran ("vectorized"/"reference")
    seed: int
    cycles_per_mode: int
    functional_energy_j: float
    low_power_energy_j: float
    functional_power_w: float
    low_power_power_w: float
    measured_prr: float
    analytical_prr: float           # the paper's Section 5 equation
    analytical_prr_bracket: float   # + secondary overheads + recharge term
    within_bracket: bool    # bracket-slack test of the measured PRR
    functional_planner: str
    low_power_planner: str
    passed: bool            # no comparator failure in either mode
    elapsed_s: float
    banks: int = 1
    bank_interleave: str = "blocked"
    kernel: str = "default"   # requested tier ("default" = flat)
    kernel_used: str = ""     # "+"-joined tiers that ran ("" = reference only)

    def table_row(self) -> Dict[str, object]:
        """One row of the sweep report table (the Table 1 layout)."""
        algorithm = get_algorithm(self.algorithm)
        geometry = _geometry_label(self.rows, self.columns,
                                   self.bits_per_word, self.banks)
        return {
            "Algorithm": self.algorithm,
            "Geometry": geometry,
            "# elm": algorithm.element_count,
            "# oper": algorithm.operation_count,
            "PRR measured": f"{100.0 * self.measured_prr:.1f} %",
            "PRR analytical": f"{100.0 * self.analytical_prr:.1f} %",
            "PRR bracket": f"{100.0 * self.analytical_prr_bracket:.1f} %",
            "In bracket": "yes" if self.within_bracket else "NO",
            "P_F (mW)": f"{self.functional_power_w * 1e3:.3f}",
            "P_LPT (mW)": f"{self.low_power_power_w * 1e3:.3f}",
            "Backend": self.backend_used,
            "Runtime (s)": f"{self.elapsed_s:.2f}",
        }

    def progress_line(self) -> str:
        """One-line status printed per completed scenario."""
        bracket = "in bracket" if self.within_bracket else "OUT OF BRACKET"
        return (f"{self.algorithm} PRR @ {self.rows}x{self.columns}: "
                f"measured {100.0 * self.measured_prr:.1f} % vs analytical "
                f"{100.0 * self.analytical_prr:.1f} % ({bracket}, "
                f"{self.elapsed_s:.2f} s, {self.backend_used})")


def run_prr_case(case: PrrCase,
                 state: Optional["_WorkerState"] = None) -> PrrRecord:
    """Execute one BIST power campaign: both modes, measured + analytical.

    The per-case work unit for PRR scenarios.  Both modes run
    through one :class:`repro.bist.BistController` (so the vectorized
    campaign's compiled trace is shared between them) and the record keeps
    the raw energy totals alongside the measured and predicted PRR.
    """
    algorithm = get_algorithm(case.algorithm)
    controller = facade_for(case, state)

    started = time.perf_counter()
    functional = controller.run(algorithm, low_power=False)
    low_power = controller.run(algorithm, low_power=True)
    elapsed = time.perf_counter() - started
    return prr_record(case, functional, low_power, elapsed)


def prr_record(case: PrrCase, functional, low_power,
               elapsed: float) -> PrrRecord:
    """Assemble the :class:`PrrRecord` of one measured BIST campaign.

    Shared by :func:`run_prr_case` and the grid engine's stacked passes,
    so both derive records from the two
    :class:`~repro.bist.controller.BistResult` measurements identically.
    """
    geometry = case.geometry()
    algorithm = get_algorithm(case.algorithm)
    backends_used = {functional.backend, low_power.backend}
    backend_used = "+".join(sorted(backends_used))

    measured_prr = (1.0 - low_power.average_power / functional.average_power
                    if functional.average_power > 0 else 0.0)
    analytical = AnalyticalPowerModel(geometry)
    plain = analytical.prr(algorithm)
    bracket = analytical.prr(algorithm, include_secondary=True,
                             include_next_column_recharge=True)
    within = (bracket - PRR_BRACKET_SLACK
              <= measured_prr <= plain + PRR_BRACKET_SLACK)

    return PrrRecord(
        rows=case.rows,
        columns=case.columns,
        bits_per_word=case.bits_per_word,
        algorithm=algorithm.name,
        backend=case.backend,
        backend_used=backend_used,
        seed=case.seed,
        cycles_per_mode=functional.cycles,
        functional_energy_j=functional.total_energy,
        low_power_energy_j=low_power.total_energy,
        functional_power_w=functional.average_power,
        low_power_power_w=low_power.average_power,
        measured_prr=measured_prr,
        analytical_prr=plain,
        analytical_prr_bracket=bracket,
        within_bracket=within,
        functional_planner=functional.planner,
        low_power_planner=low_power.planner,
        passed=functional.passed and low_power.passed,
        elapsed_s=elapsed,
        banks=case.banks,
        bank_interleave=case.bank_interleave,
        kernel=case.kernel or "default",
        kernel_used=_kernels_used(functional, low_power),
    )


def _build_controller(case: PrrCase,
                      state: Optional["_WorkerState"]) -> BistController:
    """The BIST power-campaign facade of ``case`` (sharing ``state``'s
    traces)."""
    return BistController(
        case.geometry(), backend=case.backend,
        trace_cache=state.traces if state is not None else None,
        kernel=case.kernel)


def prr_grid(geometries: Iterable[GeometryLike],
             algorithms: Iterable[str],
             backend: str = "auto",
             seed: int = 0,
             banks: Iterable[int] = (1,),
             bank_interleave: str = "blocked",
             kernel: Optional[str] = None) -> List["PrrCase"]:
    """Build a grid of BIST power campaigns: one case per
    geometry x bank-count x algorithm (PRR-vs-bank-count sweeps pass
    several ``banks``)."""
    cases: List[PrrCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        for bank_count in banks:
            for algorithm in algorithms:
                cases.append(PrrCase(
                    rows=geometry.rows, columns=geometry.columns,
                    bits_per_word=geometry.bits_per_word,
                    algorithm=algorithm, backend=backend, seed=seed,
                    banks=bank_count, bank_interleave=bank_interleave,
                    kernel=kernel))
    return cases


def paper_prr_cases(backend: str = "vectorized", seed: int = 0,
                    kernel: Optional[str] = None) -> List["PrrCase"]:
    """The paper-scale measured Table 1 through the BIST path: 512 x 512,
    all five algorithms, both modes per case."""
    return prr_grid(["512x512"],
                    [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS],
                    backend=backend, seed=seed, kernel=kernel)


#: Any scenario kind a sweep can hold.
AnyCase = Union[SweepCase, CoverageCase, PrrCase]
#: Any record kind a sweep result can hold.
AnyRecord = Union[SweepRecord, CoverageRecord, PrrRecord]


@dataclass(frozen=True)
class CaseKind:
    """One scenario kind: everything the sweep machinery dispatches on.

    The runner, the worker state, the exporters, journal resume, the
    shard merger and the batched grid engine all read these rows instead
    of testing case or record types, so a new kind is one row of
    :data:`CASE_KINDS` (plus its case/record classes and work unit).
    """

    #: ``kind`` tag of JSON records, journal lines and case fingerprints.
    tag: str
    case_cls: type
    record_cls: type
    #: the per-case work unit: ``execute(case, state) -> record``
    #: (``state``: an optional :class:`_WorkerState`).
    execute: Callable[[Any, Optional["_WorkerState"]], Any]
    #: ``build_facade(case, state)``: the measurement facade, sharing
    #: ``state``'s compiled traces when given.
    build_facade: Callable[[Any, Optional["_WorkerState"]], Any]
    #: case fields that, with the full geometry, key the facade memo.
    facade_axes: Tuple[str, ...]
    #: case fields that, with the full geometry, key one stacked pass of
    #: the batched grid engine (``BatchedGridEngine._run_<tag>_group``);
    #: ``None``: the kind always executes per case.
    stack_axes: Optional[Tuple[str, ...]]
    #: CSV header column that identifies the kind's exports (``None``
    #: for the default kind).
    csv_marker: Optional[str]


#: The scenario-kind table.  Row order is the report order of a mixed
#: :meth:`SweepResult.render`.
CASE_KINDS: Tuple[CaseKind, ...] = (
    CaseKind(tag="power", case_cls=SweepCase, record_cls=SweepRecord,
             execute=run_case, build_facade=_build_session,
             facade_axes=("order", "any_direction", "backend", "kernel"),
             stack_axes=("any_direction", "kernel"), csv_marker=None),
    CaseKind(tag="coverage", case_cls=CoverageCase,
             record_cls=CoverageRecord, execute=run_coverage_case,
             build_facade=_build_simulator,
             facade_axes=("any_direction", "backend"),
             stack_axes=None, csv_marker="total_faults"),
    CaseKind(tag="prr", case_cls=PrrCase, record_cls=PrrRecord,
             execute=run_prr_case, build_facade=_build_controller,
             facade_axes=("backend", "kernel"),
             stack_axes=("backend", "kernel"),
             csv_marker="analytical_prr_bracket"),
)

#: Power sweeps predate the ``kind`` tag: untagged version-1 documents,
#: untagged case descriptions and marker-less CSV headers are power.
_DEFAULT_KIND = CASE_KINDS[0]


def kind_of(case: AnyCase) -> CaseKind:
    """The :class:`CaseKind` row of a case instance."""
    for row in CASE_KINDS:
        if isinstance(case, row.case_cls):
            return row
    raise SweepError(f"unknown sweep case type {type(case).__name__}")


def kind_for_tag(tag: object) -> Optional[CaseKind]:
    """The :class:`CaseKind` row tagged ``tag``, or ``None``."""
    for row in CASE_KINDS:
        if row.tag == tag:
            return row
    return None


def _record_kind(record: AnyRecord) -> str:
    """The JSON ``kind`` tag of a record instance."""
    for row in CASE_KINDS:
        if isinstance(record, row.record_cls):
            return row.tag
    raise SweepError(f"unknown sweep record type {type(record).__name__}")


def case_kind(case: AnyCase) -> str:
    """The ``kind`` tag of a case instance (``"power"/"coverage"/"prr"``)."""
    return kind_of(case).tag


def _axes_key(case: AnyCase, kind: CaseKind, axes: Sequence[str]) -> Tuple:
    """Memo/group key: the kind, the full geometry (banking included) and
    the named case fields."""
    return (kind.tag, case.geometry(),
            *(getattr(case, axis) for axis in axes))


def case_fingerprint(case: AnyCase) -> Dict[str, object]:
    """The kind-tagged, JSON-normalised flat form of a case.

    This is what the run journal stores next to each record and what
    resume matches against: two fingerprints are equal exactly when the
    cases describe the same scenario (tuples are normalised to lists, so a
    fingerprint round-trips through JSON unchanged).
    """
    return json.loads(json.dumps({"kind": case_kind(case), **asdict(case)},
                                 sort_keys=True))


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """The content address of one case fingerprint (hex sha256).

    Canonical form: compact separators, sorted keys — the same scenario
    always hashes to the same digest, whichever client serialised it.
    The serving layer keys its on-disk result cache and its request
    coalescing on this digest.
    """
    canonical = json.dumps(fingerprint, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def case_from_dict(data: Dict[str, object]) -> AnyCase:
    """Rebuild a case dataclass from its flat (fingerprint) dictionary.

    The inverse of :func:`case_fingerprint`: accepts the kind-tagged flat
    form (``kind`` defaults to ``"power"``, matching the record loaders)
    and rejects unknown kinds and unknown or missing fields with
    :class:`SweepError` — a served request must fail loudly, not half
    parse.  ``case_from_dict(case_fingerprint(case)) == case`` for every
    case kind.
    """
    if not isinstance(data, dict):
        raise SweepError(
            f"a case description must be a JSON object, got "
            f"{type(data).__name__}")
    payload = dict(data)
    kind = payload.pop("kind", _DEFAULT_KIND.tag)
    row = kind_for_tag(kind)
    if row is None:
        raise SweepError(
            f"unknown case kind {kind!r}; expected one of "
            f"{sorted(row.tag for row in CASE_KINDS)}")
    cls = row.case_cls
    allowed = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SweepError(
            f"unknown field(s) {unknown} for a {kind!r} case; expected a "
            f"subset of {sorted(allowed)}")
    try:
        return cls(**payload)
    except TypeError as exc:  # missing required fields
        raise SweepError(f"invalid {kind!r} case: {exc}") from exc


def execute_case(case: AnyCase,
                 state: Optional["_WorkerState"] = None) -> AnyRecord:
    """Run one scenario of any kind through its per-case work unit,
    memoising facades and traces in ``state`` when one is given."""
    return kind_of(case).execute(case, state)


#: The pool worker's :class:`_WorkerState`, built on its first case.
#: Only :func:`_execute_indexed` reads it; each pool process sees its own.
_POOL_STATE = threading.local()


def _execute_indexed(item: Tuple[int, AnyCase]) -> Tuple[int, AnyRecord]:
    """Pool work unit for the streaming runner: keep the case's index with
    its record so ``imap_unordered`` completions can be re-ordered."""
    index, case = item
    state = getattr(_POOL_STATE, "state", None)
    if state is None:
        state = _POOL_STATE.state = _WorkerState()
    return index, execute_case(case, state)


# ----------------------------------------------------------------------
# Process-local worker state (facades, compiled traces)
# ----------------------------------------------------------------------
class _WorkerState:
    """Caches one sweep worker shares across every case it executes.

    Cases are plain names, so the naive work unit rebuilds every object per
    case — in particular it recompiles the same algorithm x order
    :class:`~repro.march.execution.OperationTrace` over and over.  The
    worker state holds one :class:`~repro.march.execution.TraceCache`,
    keyed by algorithm and order *content*, threaded through every
    facade it builds, so each trace compiles once per worker — lazily,
    when the first case needing it runs — however many order objects the
    cases construct.  Facades (:class:`TestSession` /
    :class:`FaultSimulator` / :class:`BistController`) are memoised by
    (kind, full geometry, the kind's ``facade_axes``).
    """

    def __init__(self) -> None:
        #: compiled traces shared by every facade of this worker.
        self.traces = TraceCache()
        self._facades: Dict[Tuple, object] = {}

    def facade_for(self, case: AnyCase):
        """The memoised measurement facade for ``case``'s axes."""
        kind = kind_of(case)
        key = _axes_key(case, kind, kind.facade_axes)
        facade = self._facades.get(key)
        if facade is None:
            facade = kind.build_facade(case, self)
            self._facades[key] = facade
        return facade


def facade_for(case: AnyCase, state: Optional[_WorkerState] = None):
    """The measurement facade of ``case``: memoised by ``state`` when one
    is given, else freshly built."""
    if state is not None:
        return state.facade_for(case)
    return kind_of(case).build_facade(case, None)


@dataclass
class SweepResult:
    """The records of one executed sweep, with export/import helpers.

    Holds power records, coverage records, or a mix; JSON export tags each
    record with its kind (``"power"``/``"coverage"``), CSV export requires
    a homogeneous result (one header) and the importer sniffs the kind
    from the header fields.
    """

    records: List[AnyRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def table_rows(self) -> List[Dict[str, object]]:
        """The sweep as :func:`repro.analysis.tables.render_table` rows."""
        return [record.table_row() for record in self.records]

    def render(self, title: str = "Sweep results") -> str:
        """Plain-text report of the whole sweep.

        A homogeneous sweep renders as one table; a mixed sweep renders
        one table per record kind (the kinds have different columns), in
        :data:`CASE_KINDS` order.
        """
        rows: Dict[str, List[Dict[str, object]]] = {}
        for record in self.records:
            rows.setdefault(_record_kind(record), []).append(
                record.table_row())
        if len(rows) <= 1:
            return render_table(self.table_rows(), title=title)
        return "\n\n".join(
            render_table(rows[kind.tag], title=f"{title} — {kind.tag}")
            for kind in CASE_KINDS if kind.tag in rows)

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the records to ``path`` as a JSON document; returns the path."""
        path = Path(path)
        rows = [{"kind": _record_kind(record), **record.as_dict()}
                for record in self.records]
        payload = {"format": "repro-sweep", "version": 2, "records": rows}
        # Atomic + fsync'd: re-exporting over a previous artifact must
        # never leave a torn JSON document behind a crash (RPR003).
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "SweepResult":
        """Load a sweep previously written by :meth:`to_json`.

        Accepts both version-2 documents (kind-tagged records) and the
        version-1 power-only layout.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "repro-sweep":
            raise SweepError(f"{path} is not a repro sweep export")
        records: List[AnyRecord] = []
        for row in payload["records"]:
            row = dict(row)
            tag = row.pop("kind", _DEFAULT_KIND.tag)
            kind = kind_for_tag(tag)
            if kind is None:
                raise SweepError(f"{path} contains unknown record kind {tag!r}")
            records.append(kind.record_cls.from_dict(row))
        return cls(records)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the records to ``path`` as CSV; returns the path.

        CSV has one header, so the result must be homogeneous (all power
        records or all coverage records); use JSON for mixed sweeps.
        """
        import csv

        path = Path(path)
        kinds = {type(record) for record in self.records}
        if len(kinds) > 1:
            raise SweepError(
                "CSV export needs a homogeneous sweep (one record kind); "
                "use to_json for mixed results")
        record_cls = kinds.pop() if kinds else _DEFAULT_KIND.record_cls
        names = [spec.name for spec in fields(record_cls)]
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=names)
        writer.writeheader()
        for record in self.records:
            writer.writerow(record.as_dict())
        # Atomic + fsync'd, same contract as :meth:`to_json` (RPR003).
        atomic_write_text(path, buffer.getvalue())
        return path

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "SweepResult":
        """Load a sweep previously written by :meth:`to_csv`.

        The record kind is sniffed from the header: the first kind whose
        ``csv_marker`` column is present (coverage exports carry
        ``total_faults``, PRR-campaign exports ``analytical_prr_bracket``),
        else the default power kind.
        """
        import csv

        with Path(path).open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            names = reader.fieldnames or []
            kind = next((row for row in CASE_KINDS
                         if row.csv_marker is not None
                         and row.csv_marker in names), _DEFAULT_KIND)
            return cls([kind.record_cls.from_dict(row) for row in reader])


def sweep_grid(geometries: Iterable[GeometryLike],
               algorithms: Iterable[str],
               orders: Iterable[str] = ("row-major",),
               backends: Iterable[str] = ("auto",),
               any_direction: str = "up",
               banks: Iterable[int] = (1,),
               bank_interleave: str = "blocked",
               kernel: Optional[str] = None) -> List[SweepCase]:
    """Build the full cross-product grid of scenarios.

    ``geometries`` accepts anything :func:`parse_geometry` does; the other
    axes are names (``banks`` enumerates sub-array counts per geometry).
    The grid order is geometry-major so large scenarios cluster together,
    which helps the multiprocessing fan-out balance.
    """
    cases: List[SweepCase] = []
    for geometry_spec in geometries:
        geometry = parse_geometry(geometry_spec)
        for bank_count in banks:
            for order in orders:
                for backend in backends:
                    for algorithm in algorithms:
                        cases.append(SweepCase(
                            rows=geometry.rows, columns=geometry.columns,
                            bits_per_word=geometry.bits_per_word,
                            algorithm=algorithm, order=order,
                            any_direction=any_direction, backend=backend,
                            banks=bank_count,
                            bank_interleave=bank_interleave,
                            kernel=kernel))
    return cases


def paper_table1_cases(backend: str = "vectorized",
                       kernel: Optional[str] = None) -> List[SweepCase]:
    """The paper-scale measured Table 1: 512 x 512, all five algorithms."""
    return sweep_grid(["512x512"],
                      [algorithm.name for algorithm in PAPER_TABLE1_ALGORITHMS],
                      backends=(backend,), kernel=kernel)


def shard_cases(cases: Sequence[AnyCase], index: int,
                total: int) -> List[AnyCase]:
    """Deterministic round-robin shard ``index`` of ``total`` (1-based).

    Splitting a grid across machines: shard ``i`` takes cases
    ``i-1, i-1+total, i-1+2*total, ...`` of the input order.  The shards
    of one grid are pairwise disjoint, exhaustive (their union is the
    grid) and deterministic (the same spec always yields the same slice),
    and round-robin keeps the geometry-major clustering of
    :func:`sweep_grid` balanced across shards.  Each shard is an ordinary
    case list — journal and resume apply per shard.
    """
    if total < 1:
        raise SweepError(f"shard count must be >= 1, got {total}")
    if not 1 <= index <= total:
        raise SweepError(
            f"shard index must be in 1..{total} (1-based), got {index}")
    return list(cases)[index - 1::total]


def _numpy_importable() -> bool:
    """True when numpy can be imported (the stacked kernels need it)."""
    return importlib.util.find_spec("numpy") is not None


def _batchable(case: AnyCase, numpy_ok: bool) -> bool:
    """True when the grid engine can stack this scenario.

    Kinds with ``stack_axes`` (power and PRR scenarios) stack on a
    vectorizable backend when numpy is importable (``numpy_ok``, probed
    once per decision by :func:`_numpy_importable`); the reference
    backend (no bulk kernel), coverage campaigns (a different engine
    family) and every scenario of a numpy-less install run through the
    per-case work unit instead.
    """
    return numpy_ok and kind_of(case).stack_axes is not None and \
        case.backend != "reference"


class SweepRunner:
    """Executes a list of sweep scenarios, streaming and optionally parallel.

    Accepts any mix of :class:`SweepCase`, :class:`CoverageCase` and
    :class:`PrrCase` scenarios.

    In-process, the grid runs through
    :class:`repro.engine.grid.BatchedGridEngine`: per-geometry groups
    share one compiled-trace cache and one stacked flat-kernel pass for
    all algorithms, orders and both planners, and every scenario the
    stacked pass cannot represent runs through its per-case work unit
    (:func:`execute_case`) under the same worker state.  Records are
    identical either way (``elapsed_s`` aside).

    ``processes`` selects a worker pool instead: ``1`` runs in-process;
    anything larger maps the cases over a ``multiprocessing.Pool`` of
    that size (clamped to the number of cases); ``None`` (the default)
    runs in-process when every scenario stacks, else uses one worker per
    CPU core.  Workers rebuild every object from the case's names (only
    plain data crosses process boundaries) and compile each algorithm x
    order trace into a process-local cache the first time a case needs
    it, instead of once per case.

    Execution streams either way: completions are consumed as they
    happen, so progress lines appear live and each finished case is
    journaled immediately; the returned :class:`SweepResult` restores the
    stable input order.  ``journal`` names an append-only JSONL file
    (:class:`repro.sweep.journal.RunJournal`) that makes the campaign
    resumable: ``run(resume=True)`` reloads it, keeps the
    already-measured records verbatim and re-executes only the missing
    cases.
    """

    def __init__(self, cases: Sequence[AnyCase],
                 processes: Optional[int] = None,
                 journal: Union[str, Path, None] = None,
                 header_meta: Optional[Dict[str, object]] = None) -> None:
        if not cases:
            raise SweepError("a sweep needs at least one case")
        if processes is not None and processes < 1:
            raise SweepError(f"processes must be >= 1, got {processes}")
        self.cases = list(cases)
        for case in self.cases:
            kind_of(case)  # fail fast, before any worker receives it
        self.processes = processes
        self.journal = Path(journal) if journal is not None else None
        #: extra metadata merged into a fresh journal's header line —
        #: an orchestrator (e.g. :mod:`repro.distrib`) stamps the lease
        #: identity and global case indices here, so a shard journal is
        #: self-describing when merged later.  Runner-owned keys win.
        self.header_meta = dict(header_meta) if header_meta else None

    # ------------------------------------------------------------------
    def resolved_processes(self, pending: Optional[Sequence[AnyCase]] = None
                           ) -> int:
        """The worker count a run over ``pending`` (default: the full
        grid) will use; ``1`` means the in-process grid engine.

        ``processes=None`` resolves to ``1`` when every pending scenario
        stacks, else to ``os.cpu_count()``; either way the count is
        clamped to the number of pending cases — a pool larger than its
        work list is pure startup cost.
        """
        cases = self.cases if pending is None else pending
        if self.processes is None and _numpy_importable() and \
                all(_batchable(case, True) for case in cases):
            return 1
        workers = self.processes if self.processes is not None \
            else (os.cpu_count() or 1)
        return max(1, min(workers, len(cases)))

    # ------------------------------------------------------------------
    def _restore_from_journal(self) -> Dict[int, AnyRecord]:
        """Load the journal and rebuild one record per completed case.

        Entries must belong to *this* grid: an index outside the case list
        or a case fingerprint that disagrees with the case at that index
        means the journal was written for a different grid (or a different
        shard of it) and resuming would silently mis-assign measurements —
        that is an error, not a skip.
        """
        restored: Dict[int, AnyRecord] = {}
        for index, entry in RunJournal(self.journal).latest_by_index().items():
            if not 0 <= index < len(self.cases):
                raise SweepError(
                    f"journal {self.journal} records case index {index}, "
                    f"outside this {len(self.cases)}-case grid; was it "
                    "written for a different grid or shard?")
            expected = case_fingerprint(self.cases[index])
            if entry.case != expected:
                raise SweepError(
                    f"journal {self.journal} entry for case {index} does not "
                    "match this grid; resume requires the journal's original "
                    "grid and shard")
            kind = kind_for_tag(entry.kind)
            if kind is None:
                raise SweepError(
                    f"journal {self.journal} contains unknown record kind "
                    f"{entry.kind!r}")
            restored[index] = kind.record_cls.from_dict(entry.record)
        return restored

    def _completions(self, pending: Sequence[Tuple[int, AnyCase]]
                     ) -> Iterator[Tuple[int, AnyRecord]]:
        """Yield ``(index, record)`` as cases complete.

        In-process, this streams the grid engine's completions (input
        order, stacked groups evaluated as their first member is
        reached); a pool streams ``imap_unordered`` completions, so the
        slowest case never gates reporting of the others.
        """
        if not pending:
            return
        cases = [case for _, case in pending]
        workers = self.resolved_processes(cases)
        if workers <= 1:
            engine = BatchedGridEngine(cases)
            indices = [index for index, _ in pending]
            for position, record in engine.completions():
                yield indices[position], record
            return
        with multiprocessing.get_context().Pool(processes=workers) as pool:
            for index, record in pool.imap_unordered(_execute_indexed,
                                                     list(pending)):
                yield index, record

    def run(self, progress: bool = False, resume: bool = False,
            progress_sink: Optional[Callable[[str], None]] = None,
            case_sink: Optional[Callable[[int, AnyRecord], None]] = None
            ) -> SweepResult:
        """Execute every case and return the collected :class:`SweepResult`.

        With ``progress`` true, a one-line status is emitted per completed
        case *as it completes* — live in-process and from a pool alike
        — to ``progress_sink`` (default: ``print``).  With ``resume`` true
        (requires a ``journal``), cases already recorded in the journal are
        restored verbatim instead of re-executed.  Records are returned in
        case order regardless of completion order.

        ``case_sink`` is called as ``case_sink(index, record)`` after each
        freshly-executed case is journaled (never for restored cases).  An
        exception it raises aborts the run — this is the cancellation seam
        a distributed worker uses to stop executing a lease that has been
        stolen from it: every case completed so far is already durable in
        the journal, so aborting loses nothing.
        """
        emit = progress_sink if progress_sink is not None else print
        records: List[Optional[AnyRecord]] = [None] * len(self.cases)
        if resume:
            if self.journal is None:
                raise SweepError(
                    "resume needs a journal: SweepRunner(..., journal=path)")
            restored = self._restore_from_journal()
            for index, record in restored.items():
                records[index] = record
            if progress and restored:
                emit(f"[sweep] resumed {len(restored)} of {len(self.cases)} "
                     f"cases from {self.journal}")
        elif self.journal is not None and self.journal.exists() \
                and self.journal.stat().st_size > 0:
            # Appending a fresh campaign onto another run's journal would
            # poison any later resume (stale indices/fingerprints from the
            # old grid survive last-wins merging) — refuse up front.  But
            # only completed cases make a journal worth protecting: a run
            # killed before its first append leaves an entry-less file
            # (header-only, or a torn header fragment) that records no
            # measurement, so a fresh campaign may reclaim it.  A corrupt
            # or foreign file still fails loudly here via load().
            if RunJournal(self.journal).load():
                raise SweepError(
                    f"journal {self.journal} already exists; resume it "
                    "(run(resume=True) / --resume) or remove the file to "
                    "start a fresh campaign")
            # Stale entry-less header: restart fresh.  Atomically, so a
            # crash here leaves either the old header (reclaimed again on
            # the next run) or a clean empty file — never a torn fragment.
            atomic_write_bytes(self.journal, b"")
        pending = [(index, case) for index, case in enumerate(self.cases)
                   if records[index] is None]
        journal = RunJournal(self.journal) if self.journal is not None else None
        if journal is not None:
            journal.open()  # an unwritable path must fail before any work
            if not self.journal.exists() or self.journal.stat().st_size == 0:
                # A fresh journal opens with a run-metadata header (the
                # grid size, plus any orchestrator-supplied identity).
                meta: Dict[str, object] = dict(self.header_meta or {})
                meta.update({
                    "cases": len(self.cases),
                    "pending": len(pending),
                })
                journal.write_header(meta)
        try:
            for index, record in self._completions(pending):
                records[index] = record
                if journal is not None:
                    journal.append(JournalEntry(
                        case_index=index, kind=_record_kind(record),
                        case=case_fingerprint(self.cases[index]),
                        record=record.as_dict()))
                if case_sink is not None:
                    case_sink(index, record)
                if progress:
                    emit(f"[sweep] {record.progress_line()}")
        finally:
            if journal is not None:
                journal.close()
        assert all(record is not None for record in records)
        return SweepResult(list(records))
