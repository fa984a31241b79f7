"""Backend-pluggable fault campaigns: compiled traces, vectorized kernels.

Three properties are pinned here:

* the compiled :class:`~repro.march.execution.OperationTrace` replays the
  exact access stream of :func:`repro.march.execution.walk` (the reference
  backend's trace sharing changes *nothing* but runtime);
* the vectorized campaign engine produces per-fault detection verdicts
  bit-identical to the reference simulator across every standard fault
  model, both addressing directions and several address orders;
* coupling-fault aggressor enumeration is well-defined at array borders
  and corners, on both backends.
"""

from __future__ import annotations

import pytest

from repro.engine import UnsupportedFaultCampaign
from repro.faults import (
    FAULT_BACKENDS,
    FaultInjection,
    FaultSimulationError,
    FaultSimulator,
    LogicalMemory,
    build_fault_list,
    coupling_fault_models,
    default_fault_locations,
    neighbour_of,
    run_campaign,
    run_coverage,
    single_cell_fault_models,
)
from repro.faults.backend import ReferenceFaultBackend
from repro.faults.models import (
    DataRetentionFault,
    FaultModel,
    StuckAtFault,
    StuckOpenFault,
)
from repro.march import (
    MARCH_CM,
    MARCH_G,
    MARCH_SR,
    MARCH_SS,
    MATS,
    MATS_PLUS,
    ColumnMajorOrder,
    MarchAlgorithm,
    OperationTrace,
    PseudoRandomOrder,
    RowMajorOrder,
    RowMajorSnakeOrder,
    TraceCache,
    walk,
)
from repro.march.element import AddressingDirection
from repro.march.ordering import AddressComplementOrder, make_order
from repro.sram.geometry import ArrayGeometry

from differential import (
    assert_fault_verdicts_identical,
    fault_verdict as verdict,
)

GEOMETRY = ArrayGeometry(rows=6, columns=6)
LOCATIONS = [(0, 0), (0, 5), (2, 3), (5, 0), (5, 5)]

ORDER_FACTORIES = {
    "row-major": RowMajorOrder,
    "column-major": ColumnMajorOrder,
    "pseudo-random": lambda g: PseudoRandomOrder(g, seed=11),
    "snake": RowMajorSnakeOrder,
    "address-complement": AddressComplementOrder,
}


def full_battery(geometry=GEOMETRY, locations=LOCATIONS):
    """Standard battery plus retention faults (not in the default lists)."""
    injections = build_fault_list(geometry, locations=locations)
    for leak_to in (0, 1):
        for retention in (1, 40, 100000):
            injections.append(FaultInjection(
                DataRetentionFault(leak_to=leak_to, retention_cycles=retention),
                victim=(2, 2)))
    return injections


# ----------------------------------------------------------------------
# Compiled traces
# ----------------------------------------------------------------------
class TestOperationTrace:
    @pytest.mark.parametrize("order_name", sorted(ORDER_FACTORIES))
    @pytest.mark.parametrize("direction",
                             [AddressingDirection.UP, AddressingDirection.DOWN])
    def test_trace_replays_walk_exactly(self, order_name, direction):
        order = ORDER_FACTORIES[order_name](GEOMETRY)
        trace = OperationTrace(MARCH_CM, order, direction)
        walked = [(step.index, step.row, step.word, step.operation)
                  for step in walk(MARCH_CM, order, direction)]
        assert list(trace.iter_accesses()) == walked
        assert trace.step_count == len(walked)

    def test_element_backgrounds_follow_writes(self):
        trace = OperationTrace(MARCH_CM, RowMajorOrder(GEOMETRY))
        # March C-: {w0; (r0,w1); (r1,w0); (r0,w1); (r1,w0); (r0)}
        assert trace.element_backgrounds() == [None, 0, 1, 0, 1, 0]

    def test_trace_cache_reuses_compiled_traces(self):
        cache = TraceCache()
        order = RowMajorOrder(GEOMETRY)
        first = cache.get(MARCH_CM, order)
        assert cache.get(MARCH_CM, order) is first
        assert cache.get(MARCH_CM, order, AddressingDirection.DOWN) is not first
        assert len(cache) == 2

        # Content keys: a distinct but equal order, and the same-size
        # banked geometry (banking leaves the address map unchanged), hit.
        assert cache.get(MARCH_CM, RowMajorOrder(GEOMETRY)) is first
        banked = ArrayGeometry(rows=GEOMETRY.rows, columns=GEOMETRY.columns,
                               banks=2)
        assert cache.get(MARCH_CM, RowMajorOrder(banked)) is first
        assert len(cache) == 2

        # A different permutation seed is a different order.
        seeded = [cache.get(MARCH_CM, PseudoRandomOrder(GEOMETRY, seed=seed))
                  for seed in (1, 2)]
        assert seeded[0] is not seeded[1]
        assert len(cache) == 4

        # Same name, different elements: a different algorithm.
        renamed = MarchAlgorithm(name=MARCH_CM.name,
                                 elements=MARCH_CM.elements[:-1])
        assert cache.get(renamed, order) is not first
        assert len(cache) == 5

    def test_shared_coordinate_lists_across_same_direction_elements(self):
        trace = OperationTrace(MARCH_CM, RowMajorOrder(GEOMETRY))
        ups = [e for e in trace.elements
               if e.direction is AddressingDirection.UP]
        assert len(ups) >= 2
        assert all(e.coordinates is ups[0].coordinates for e in ups)


# ----------------------------------------------------------------------
# Satellite regression: trace sharing must not change reference results
# ----------------------------------------------------------------------
class TestReferenceTraceSharingRegression:
    def naive_simulate(self, algorithm, order, injection):
        """The pre-refactor per-fault path: a fresh walk per injection."""
        memory = LogicalMemory(GEOMETRY, injection)
        mismatches = 0
        first = None
        for step in walk(algorithm, order, AddressingDirection.UP):
            if step.is_write:
                memory.write(step.row, step.word, step.operation.value)
                continue
            if memory.read(step.row, step.word) != step.operation.value:
                mismatches += 1
                if first is None:
                    first = step.index
        return (mismatches > 0, first, mismatches)

    def test_shared_trace_results_unchanged(self):
        order = PseudoRandomOrder(GEOMETRY, seed=3)
        backend = ReferenceFaultBackend(GEOMETRY)
        battery = full_battery()
        shared = backend.simulate_many(MARCH_SS, order, battery)
        for injection, result in zip(battery, shared):
            assert verdict(result) == self.naive_simulate(MARCH_SS, order,
                                                          injection), \
                injection.describe()


# ----------------------------------------------------------------------
# Tentpole: vectorized verdicts bit-identical to the reference simulator
# ----------------------------------------------------------------------
class TestVectorizedEquivalence:
    def compare(self, algorithm, order, direction=AddressingDirection.UP,
                geometry=GEOMETRY, battery=None):
        battery = battery if battery is not None else full_battery(geometry)
        assert_fault_verdicts_identical(geometry, algorithm, order, battery,
                                        direction=direction)

    @pytest.mark.parametrize("order_name", sorted(ORDER_FACTORIES))
    @pytest.mark.parametrize("direction",
                             [AddressingDirection.UP, AddressingDirection.DOWN])
    def test_march_cm_all_orders_both_directions(self, order_name, direction):
        self.compare(MARCH_CM, ORDER_FACTORIES[order_name](GEOMETRY),
                     direction=direction)

    @pytest.mark.parametrize("algorithm",
                             [MATS, MATS_PLUS, MARCH_SS, MARCH_SR, MARCH_G],
                             ids=lambda a: a.name)
    def test_every_algorithm_under_contrasting_orders(self, algorithm):
        self.compare(algorithm, ColumnMajorOrder(GEOMETRY))
        self.compare(algorithm, PseudoRandomOrder(GEOMETRY, seed=7),
                     direction=AddressingDirection.DOWN)

    def test_non_square_geometry(self):
        geometry = ArrayGeometry(rows=4, columns=8)
        battery = full_battery(geometry, locations=[(0, 0), (3, 7), (1, 4)])
        self.compare(MARCH_CM, ColumnMajorOrder(geometry), geometry=geometry,
                     battery=battery)

    def test_stuck_open_victim_at_every_traversal_position(self):
        """SOF reads observe the data bus — the position-dependent case."""
        order = PseudoRandomOrder(GEOMETRY, seed=5)
        battery = [FaultInjection(StuckOpenFault(), victim=(row, col))
                   for row in range(GEOMETRY.rows)
                   for col in range(GEOMETRY.columns)]
        self.compare(MARCH_SS, order, battery=battery)

    def test_retention_faults_across_geometry_scale(self):
        """DRF decay depends on absolute idle cycles, so scale matters."""
        geometry = ArrayGeometry(rows=8, columns=8)
        battery = [FaultInjection(
            DataRetentionFault(leak_to=leak, retention_cycles=retention),
            victim=victim)
            for leak in (0, 1)
            for retention in (1, 60, 128, 600, 10**6)
            for victim in [(0, 0), (3, 3), (7, 7)]]
        self.compare(MARCH_SR, RowMajorOrder(geometry), geometry=geometry,
                     battery=battery)

    def test_full_array_campaign_single_class(self):
        """Every cell of the array as victim, one fault class, one pass."""
        battery = [FaultInjection(StuckAtFault(1), victim=(row, col))
                   for row in range(GEOMETRY.rows)
                   for col in range(GEOMETRY.columns)]
        results = FaultSimulator(GEOMETRY, backend="vectorized") \
            .simulate_many(MARCH_CM, RowMajorOrder(GEOMETRY), battery)
        assert all(result.detected for result in results)


# ----------------------------------------------------------------------
# Backend dispatch
# ----------------------------------------------------------------------
class _CustomFault(FaultModel):
    """A user fault model no vectorized kernel exists for."""

    name = "custom"

    def on_read(self, state):
        return 1  # always reads 1, whatever is stored


class TestBackendDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(FaultSimulationError):
            FaultSimulator(GEOMETRY, backend="no-such-backend")
        assert FAULT_BACKENDS == ("reference", "vectorized", "auto")

    def test_vectorized_rejects_unknown_fault_model(self):
        simulator = FaultSimulator(GEOMETRY, backend="vectorized")
        injection = FaultInjection(_CustomFault(), victim=(1, 1))
        with pytest.raises(UnsupportedFaultCampaign):
            simulator.simulate_many(MARCH_CM, RowMajorOrder(GEOMETRY),
                                    [injection])

    def test_auto_falls_back_for_unknown_fault_model(self):
        simulator = FaultSimulator(GEOMETRY, backend="auto")
        injection = FaultInjection(_CustomFault(), victim=(1, 1))
        results = simulator.simulate_many(MARCH_CM, RowMajorOrder(GEOMETRY),
                                          [injection])
        assert simulator.last_backend_used == "reference"
        assert results[0].detected  # r0 after w0 observes 1

    def test_auto_uses_vectorized_for_standard_battery(self):
        simulator = FaultSimulator(GEOMETRY)  # backend defaults to auto
        simulator.simulate_many(MARCH_CM, RowMajorOrder(GEOMETRY),
                                build_fault_list(GEOMETRY, locations=[(1, 1)]))
        assert simulator.last_backend_used == "vectorized"

    def test_vectorized_rejects_word_oriented_geometry(self):
        geometry = ArrayGeometry(rows=4, columns=8, bits_per_word=4)
        simulator = FaultSimulator(geometry, backend="vectorized")
        injection = FaultInjection(StuckAtFault(0), victim=(0, 0))
        with pytest.raises(UnsupportedFaultCampaign):
            simulator.simulate_many(MARCH_CM, RowMajorOrder(geometry),
                                    [injection])

    def test_vectorized_rejects_foreign_order_geometry(self):
        other = ArrayGeometry(rows=4, columns=4)
        simulator = FaultSimulator(GEOMETRY, backend="vectorized")
        injection = FaultInjection(StuckAtFault(0), victim=(0, 0))
        with pytest.raises(UnsupportedFaultCampaign):
            simulator.simulate_many(MARCH_CM, RowMajorOrder(other), [injection])

    def test_fault_free_run_uses_reference_path(self):
        simulator = FaultSimulator(GEOMETRY, backend="vectorized")
        assert simulator.fault_free_passes(MARCH_CM, RowMajorOrder(GEOMETRY))
        assert simulator.last_backend_used == "reference"


# ----------------------------------------------------------------------
# Satellite: aggressor enumeration at borders and corners
# ----------------------------------------------------------------------
class TestBorderAggressorEnumeration:
    def test_corner_aggressors_stay_in_array(self):
        rows, cols = GEOMETRY.rows, GEOMETRY.columns
        assert neighbour_of(GEOMETRY, (0, 0)) == (0, 1)
        assert neighbour_of(GEOMETRY, (0, cols - 1)) == (0, cols - 2)
        assert neighbour_of(GEOMETRY, (rows - 1, 0)) == (rows - 1, 1)
        assert neighbour_of(GEOMETRY, (rows - 1, cols - 1)) == (rows - 1, cols - 2)

    def test_single_column_array_uses_vertical_neighbours(self):
        geometry = ArrayGeometry(rows=4, columns=1)
        assert neighbour_of(geometry, (0, 0)) == (1, 0)
        assert neighbour_of(geometry, (3, 0)) == (2, 0)
        assert neighbour_of(geometry, (2, 0)) == (3, 0)

    def test_every_cell_has_adjacent_distinct_aggressor(self):
        for row in range(GEOMETRY.rows):
            for col in range(GEOMETRY.columns):
                aggressor = neighbour_of(GEOMETRY, (row, col))
                assert aggressor != (row, col)
                GEOMETRY.validate_coordinates(*aggressor)
                distance = abs(aggressor[0] - row) + abs(aggressor[1] - col)
                assert distance == 1

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_border_coupling_detection_on_both_backends(self, backend):
        """March C- detects the unlinked coupling battery at every border."""
        rows, cols = GEOMETRY.rows, GEOMETRY.columns
        borders = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1),
                   (0, cols // 2), (rows - 1, cols // 2),
                   (rows // 2, 0), (rows // 2, cols - 1)]
        battery = build_fault_list(GEOMETRY, locations=borders,
                                   include_single=False)
        report = run_coverage(MARCH_CM, RowMajorOrder(GEOMETRY), GEOMETRY,
                              battery, backend=backend)
        assert report.backend == backend
        assert report.coverage == 1.0, report.missed[:4]

    def test_border_coupling_verdicts_identical_across_backends(self):
        """Single-column array: vertical aggressors, both traversal edges."""
        geometry = ArrayGeometry(rows=8, columns=1)
        battery = []
        for victim in [(0, 0), (3, 0), (7, 0)]:
            aggressor = neighbour_of(geometry, victim)
            for model in coupling_fault_models():
                battery.append(FaultInjection(fault=model, victim=victim,
                                              aggressor=aggressor))
        order = ColumnMajorOrder(geometry)
        for direction in (AddressingDirection.UP, AddressingDirection.DOWN):
            assert_fault_verdicts_identical(geometry, MARCH_SS, order,
                                            battery, direction=direction)


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
class TestRunCampaign:
    def test_campaign_derives_both_reports_from_one_pass(self):
        orders = [RowMajorOrder(GEOMETRY), ColumnMajorOrder(GEOMETRY),
                  PseudoRandomOrder(GEOMETRY, seed=11)]
        battery = build_fault_list(GEOMETRY, locations=[(0, 0), (2, 3)])
        campaign = run_campaign(MARCH_CM, orders, GEOMETRY, battery)
        assert campaign.backend_used == "vectorized"
        assert campaign.total_faults == len(battery)
        invariance = campaign.invariance_report()
        assert invariance.invariant
        assert invariance.backend == "vectorized"
        first = campaign.coverage_report()
        named = campaign.coverage_report(orders[1].name)
        assert first.order == orders[0].name
        assert named.order == orders[1].name
        assert first.detected_faults == named.detected_faults  # DOF-1
        assert first.total_faults == len(battery)

    def test_campaign_requires_orders(self):
        with pytest.raises(ValueError):
            run_campaign(MARCH_CM, [], GEOMETRY, [])

    def test_location_sampling_seed_is_deterministic(self):
        base = default_fault_locations(GEOMETRY, sample=8, seed=1)
        assert base == default_fault_locations(GEOMETRY, sample=8, seed=1)
        assert base != default_fault_locations(GEOMETRY, sample=8, seed=2)
