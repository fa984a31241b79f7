"""Show that every output check passes on right outputs and fails on wrong ones.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Each check of ``checks.py`` is fed real program outputs (small runs made
here) and then the same outputs with one deliberate error.  Exits 0 when
every check accepts the right output and rejects every wrong one.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
from repro.sweep import (  # noqa: E402
    PrrCase,
    SweepRunner,
    case_fingerprint,
    execute_case,
    fingerprint_digest,
    load_journal,
    paper_prr_cases,
    sweep_grid,
)


def altered(record, field, change):
    wrong = copy.deepcopy(record)
    wrong[field] = change(wrong[field])
    return wrong


def main() -> int:
    verdicts = []

    def expect(label, failures, should_fail):
        ok = bool(failures) == should_fail
        verdicts.append(ok)
        state = "rejects" if failures else "accepts"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: check {state}"
              + (f" ({failures[0]})" if failures else ""))

    # Paper Table 1 slice.
    paper = [record.as_dict()
             for record in SweepRunner(paper_prr_cases(), processes=1).run()]
    expect("paper slice as measured", checks.paper_table1(paper), False)
    expect("paper slice, one energy 1e-5 off", checks.paper_table1(
        [altered(paper[0], "low_power_energy_j", lambda v: v * (1 + 1e-5))]
        + paper[1:]), True)
    expect("paper slice, one cycle off", checks.paper_table1(
        [altered(paper[1], "cycles_per_mode", lambda v: v + 1)]
        + paper[:1] + paper[2:]), True)
    expect("paper slice missing an algorithm",
           checks.paper_table1(paper[1:]), True)

    # Campaign records and journal.
    cases = sweep_grid(["8x8", "16x16"], ["MATS+", "March C-"])
    fingerprints = [case_fingerprint(case) for case in cases]
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        records = [record.as_dict() for record in
                   SweepRunner(cases, processes=1, journal=journal).run()]
        journaled = [entry.case for entry in load_journal(journal)]
    expect("campaign as run", checks.campaign_records(
        fingerprints, records, journaled), False)
    expect("campaign with a failing record", checks.campaign_records(
        fingerprints, [altered(records[0], "passed", lambda v: False)]
        + records[1:], journaled), True)
    expect("campaign with a journal entry lost", checks.campaign_records(
        fingerprints, records, journaled[:-1]), True)
    expect("campaign with a record lost", checks.campaign_records(
        fingerprints, records[:-1], journaled), True)

    # Warm record against cold record.
    case = PrrCase(rows=64, columns=64, algorithm="March C-")
    cold = execute_case(case).as_dict()
    warm = execute_case(case).as_dict()
    expect("warm record equal to cold", checks.warm_equals_cold(cold, warm),
           False)
    expect("warm energy one ulp off", checks.warm_equals_cold(
        cold, altered(warm, "functional_energy_j",
                      lambda v: v + v * 2 ** -52)), True)

    # Served records, outcomes and service counters.
    expect("served record equal to local", checks.served_records(
        [warm], [cold]), False)
    expect("served record with another PRR", checks.served_records(
        [altered(warm, "measured_prr", lambda v: v + 1e-9)], [cold]), True)
    expect("outcomes as expected", checks.served_outcomes(
        [True, False, True], ["hit", "miss", "hit"]), False)
    expect("a hot request executed again", checks.served_outcomes(
        [True, False, True], ["hit", "miss", "miss"]), True)
    expect("a response missing", checks.served_outcomes(
        [True, False, True], ["hit", "miss"]), True)
    expect("executed once per distinct miss", checks.service_counters(
        {"executed_cases": 42}, 42), False)
    expect("a miss executed twice", checks.service_counters(
        {"executed_cases": 43}, 42), True)

    # Distributed exactly-once and records.
    digests = [fingerprint_digest(fingerprint)
               for fingerprint in fingerprints]
    expect("exactly once", checks.exactly_once(digests, digests[::-1],
                                               digests), False)
    expect("a case journaled twice", checks.exactly_once(
        digests, digests + digests[:1], digests), True)
    expect("a case never journaled", checks.exactly_once(
        digests, digests[1:], digests), True)
    expect("merged out of grid order", checks.exactly_once(
        digests, digests, digests[::-1]), True)
    expect("merged records equal in-process", checks.same_records(
        records, copy.deepcopy(records)), False)
    expect("a merged record differs", checks.same_records(
        [altered(records[0], "low_power_power_w", lambda v: v * 2)]
        + records[1:], records), True)
    expect("a merged record missing", checks.same_records(
        records[1:], records), True)

    print(f"{sum(verdicts)} of {len(verdicts)} verdicts as expected")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
