"""Seeded inputs of the four workloads.

Everything a workload feeds the program is built here from the workload
seed: the campaign order, the serve hot set, the miss sequence and the
arrival schedule.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.march.library import ALGORITHM_LIBRARY
from repro.sweep import (
    PrrCase,
    SweepCase,
    case_fingerprint,
    coverage_grid,
    paper_prr_cases,
    prr_grid,
    sweep_grid,
)

ALGORITHMS = sorted(ALGORITHM_LIBRARY)
SMALL_SIDES = (8, 16, 32, 64)
SMALL_GEOMETRIES = [f"{rows}x{columns}" for rows in SMALL_SIDES
                    for columns in SMALL_SIDES]

#: Rate ladder of serve-mixed (requests/s); NOMINAL_RPS is where the
#: reported latencies are taken.  At 300 requests/s about a third of the
#: requests wait for a connection held by a ~12 ms miss, which puts the
#: median on the knee between prompt and queued requests, where it
#: doubles with small changes of CPU speed; at 200 it lies among the
#: prompt ones.
LADDER_RPS = (200, 300, 400, 600, 800)
NOMINAL_RPS = 200
#: Share of serve requests that hit the pre-warmed hot set.
HIT_SHARE = 0.8
HOT_SET_SIZE = 20

#: Large PRR campaign of prr-large-cold and its warm reference case.
LARGE_GEOMETRIES = ("2048x2048", "4096x4096")
LARGE_ALGORITHMS = ("MATS+", "March C-", "March SS")
WARM_LARGE_CASE = PrrCase(rows=4096, columns=4096, algorithm="March C-")


def _shuffled(cases: list, seed: int) -> list:
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    return cases


def campaign_small(seed: int) -> list:
    """~1.9k mixed small cases plus the paper's five 512x512 PRR cases.

    The seed shuffles the cases inside each block; the blocks run in a
    fixed order: banked power cases, unbanked power cases, PRR cases,
    the coverage slice, the paper cases.  The order is fixed because of a
    defect of the program at the commit that defined this benchmark: the
    sweep worker state memoises address orders without the bank count,
    so a coverage case that runs after a banked power case on the same
    geometry gets that banked order, the vectorized fault campaign
    rejects it, and the case falls back to the reference simulator
    (``backend_used == "mixed"``, 10-100x slower).  Under a full shuffle
    whether that happens depends on the seed, and the campaign time
    swung 5x between seeds; in this order it happens on every seed.  The
    coverage slice is the paper coverage check's pair of algorithms on
    the two smallest square geometries, so the fallback is visible on
    every seed without dominating the campaign.
    """
    def power(banks: int) -> list:
        return _shuffled(sweep_grid(
            SMALL_GEOMETRIES, ALGORITHMS,
            orders=("row-major", "wordline", "fast-row"), banks=(banks,)),
            seed)

    return (power(2) + power(1)
            + _shuffled(prr_grid(SMALL_GEOMETRIES, ALGORITHMS,
                                 banks=(1, 2)), seed)
            + _shuffled(coverage_grid(["8x8", "16x16"],
                                      ["March C-", "MATS+"]), seed)
            + _shuffled(paper_prr_cases(), seed))


def prr_large_cold(seed: int) -> list:
    """The six large PRR cases: geometries in grid order, algorithms in a
    seeded order within each.  (The batched runner evaluates a geometry
    when its first case comes up, so a full shuffle would make the
    latency percentiles depend on which geometry the seed put first.)"""
    return [case for geometry in LARGE_GEOMETRIES
            for case in _shuffled(prr_grid([geometry], LARGE_ALGORITHMS),
                                  seed)]


def distrib_campaign(seed: int) -> list:
    """The 960-case small power grid in a seeded order."""
    return _shuffled(sweep_grid(SMALL_GEOMETRIES, ALGORITHMS,
                                orders=("row-major", "fast-row"),
                                banks=(1, 2)), seed)


def _small_case(rng: random.Random, prr_seed: int):
    """One small case: a power case, or a PRR case whose provenance
    ``seed`` field makes it distinct from every other request."""
    rows, columns = rng.choice(SMALL_SIDES), rng.choice(SMALL_SIDES)
    algorithm = rng.choice(ALGORITHMS)
    banks = rng.choice((1, 2))
    if prr_seed < 0:
        return SweepCase(rows=rows, columns=columns, algorithm=algorithm,
                         order=rng.choice(("row-major", "wordline")),
                         banks=banks)
    return PrrCase(rows=rows, columns=columns, algorithm=algorithm,
                   banks=banks, seed=prr_seed)


def serve_hot_set(seed: int) -> List[Dict[str, object]]:
    """The pre-warmed hot set: distinct power and PRR case fingerprints."""
    rng = random.Random(seed)
    hot: Dict[str, Dict[str, object]] = {}
    while len(hot) < HOT_SET_SIZE:
        case = _small_case(rng, -1 if len(hot) % 2 else len(hot))
        fingerprint = case_fingerprint(case)
        hot[repr(sorted(fingerprint.items()))] = fingerprint
    return list(hot.values())


def serve_schedule(seed: int, rate: float, duration: float, rung: int,
                   hot: List[Dict[str, object]]
                   ) -> List[Tuple[float, Dict[str, object], bool]]:
    """One rung's open-loop requests: ``(due_s, case, is_hit)``.

    Requests are due at a constant ``rate`` over ``duration`` seconds.
    A request hits the hot set with probability :data:`HIT_SHARE`;
    otherwise it is a PRR case never requested before (its ``seed``
    field is unique per rung and position; every run starts its service
    on an empty cache).
    """
    rng = random.Random(seed * 1000003 + rung)
    requests = []
    for position in range(int(rate * duration)):
        due = position / rate
        if rng.random() < HIT_SHARE:
            requests.append((due, rng.choice(hot), True))
        else:
            unique = 1_000_000 * (rung + 1) + position
            requests.append((due, case_fingerprint(
                _small_case(rng, unique)), False))
    return requests
