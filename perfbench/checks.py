"""Output checks of the four workloads.

Each check takes program outputs and returns a list of failure messages
(empty when the outputs are right); every message counts into the run's
``failed`` total.  ``selftest.py`` feeds each check a deliberately wrong
output to show that it fails.
"""

from __future__ import annotations

import importlib.util
import math
import os
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence

#: Record fields that are wall-clock observations, not results.
TIMING_FIELDS = ("elapsed_s",)


def comparable(record: Mapping[str, object]) -> Dict[str, object]:
    """A flat record without its wall-clock fields."""
    return {key: value for key, value in record.items()
            if key not in TIMING_FIELDS}


def _golden_module():
    path = os.path.join(os.getcwd(), "tests", "test_table1_golden.py")
    spec = importlib.util.spec_from_file_location("_table1_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paper_table1(records: Iterable[Mapping[str, object]]) -> List[str]:
    """The paper's 512x512 PRR records match ``GOLDEN_TABLE1`` at the
    golden test's own tolerance."""
    golden = _golden_module()
    table, tolerance = golden.GOLDEN_TABLE1, golden.GOLDEN_REL_TOL
    found = {record["algorithm"]: record for record in records}
    failures = []
    if set(found) != set(table):
        failures.append(f"paper PRR slice covers {sorted(found)}, "
                        f"expected {sorted(table)}")
    for algorithm in sorted(set(found) & set(table)):
        cycles, functional_j, low_power_j, prr = table[algorithm]
        record = found[algorithm]
        if record["cycles_per_mode"] != cycles:
            failures.append(f"{algorithm}: cycles {record['cycles_per_mode']}"
                            f" != golden {cycles}")
        for field, expected in (("functional_energy_j", functional_j),
                                ("low_power_energy_j", low_power_j),
                                ("measured_prr", prr)):
            if not math.isclose(record[field], expected, rel_tol=tolerance):
                failures.append(f"{algorithm}: {field} {record[field]!r} "
                                f"!= golden {expected!r}")
        if not record["passed"]:
            failures.append(f"{algorithm}: paper-scale run did not pass")
    return failures


def campaign_records(cases: Sequence[Mapping[str, object]],
                     records: Sequence[Mapping[str, object]],
                     journal_cases: Sequence[Mapping[str, object]]
                     ) -> List[str]:
    """Every case produced one passing record and one journal entry."""
    failures = []
    if len(records) != len(cases):
        failures.append(f"{len(records)} records for {len(cases)} cases")
    for index, record in enumerate(records):
        if not record.get("passed", True):
            failures.append(f"case {index} did not pass")
    if list(journal_cases) != list(cases):
        failures.append(f"journal holds {len(journal_cases)} entries that "
                        f"do not match the {len(cases)} cases in order")
    return failures


def warm_equals_cold(cold: Mapping[str, object],
                     warm: Mapping[str, object]) -> List[str]:
    """The warm re-run of a case reproduces the cold record exactly."""
    cold, warm = comparable(cold), comparable(warm)
    return [f"warm {key} {warm.get(key)!r} != cold {cold.get(key)!r}"
            for key in sorted(set(cold) | set(warm))
            if cold.get(key) != warm.get(key)]


def served_records(samples: Sequence[Mapping[str, object]],
                   local: Sequence[Mapping[str, object]]) -> List[str]:
    """Sampled served records equal a local execution of the same case."""
    failures = []
    for served, expected in zip(samples, local):
        if comparable(served) != comparable(expected):
            failures.append(f"served record differs from local execution "
                            f"for {expected.get('algorithm')} "
                            f"{expected.get('rows')}x{expected.get('columns')}")
    if len(samples) != len(local):
        failures.append(f"{len(samples)} sampled responses for "
                        f"{len(local)} local executions")
    return failures


def served_outcomes(expected_hits: Sequence[bool],
                    outcomes: Sequence[str]) -> List[str]:
    """Hot-set requests are served from the cache, new ones execute."""
    wrong = sum(1 for hit, outcome in zip(expected_hits, outcomes)
                if outcome != ("hit" if hit else "miss"))
    failures = [f"{wrong} responses with the wrong served outcome"] \
        if wrong else []
    if len(outcomes) != len(expected_hits):
        failures.append(f"{len(outcomes)} responses for "
                        f"{len(expected_hits)} requests")
    return failures


def service_counters(stats: Mapping[str, object],
                     distinct_misses: int) -> List[str]:
    """The service executed each distinct miss exactly once."""
    if stats.get("executed_cases") != distinct_misses:
        return [f"service executed {stats.get('executed_cases')} cases for "
                f"{distinct_misses} distinct misses"]
    return []


def exactly_once(grid_digests: Sequence[str],
                 shard_digests: Sequence[str],
                 merged_digests: Sequence[str]) -> List[str]:
    """Every grid case was journaled once across the shards, and the
    merged artifact holds each exactly once in grid order."""
    failures = []
    executions = Counter(shard_digests)
    repeated = sum(1 for count in executions.values() if count > 1)
    missing = sum(1 for digest in grid_digests if digest not in executions)
    foreign = sum(1 for digest in executions if digest not in
                  set(grid_digests))
    if repeated or missing or foreign:
        failures.append(f"shard journals: {repeated} cases executed more "
                        f"than once, {missing} missing, {foreign} foreign")
    if list(merged_digests) != list(grid_digests):
        failures.append(f"merged artifact holds {len(merged_digests)} "
                        f"cases, not the {len(grid_digests)}-case grid in "
                        "order")
    return failures


def same_records(merged: Sequence[Mapping[str, object]],
                 reference: Sequence[Mapping[str, object]]) -> List[str]:
    """Distributed records equal an in-process run of the same grid."""
    differing = sum(1 for got, want in zip(merged, reference)
                    if comparable(got) != comparable(want))
    failures = [f"{differing} merged records differ from the in-process "
                "run"] if differing else []
    if len(merged) != len(reference):
        failures.append(f"{len(merged)} merged records for "
                        f"{len(reference)} in-process records")
    return failures
