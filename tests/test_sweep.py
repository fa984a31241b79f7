"""SweepRunner: grid construction, execution, export round-trips, CLI."""

from __future__ import annotations

import json

import pytest

from repro.sweep import (
    CoverageCase,
    CoverageRecord,
    INVARIANCE_ORDERS,
    PrrCase,
    PrrRecord,
    SweepCase,
    SweepError,
    SweepResult,
    SweepRunner,
    coverage_grid,
    execute_case,
    paper_coverage_cases,
    paper_prr_cases,
    paper_table1_cases,
    parse_geometry,
    prr_grid,
    run_case,
    run_coverage_case,
    run_prr_case,
    sweep_grid,
)
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.runner import (
    CASE_KINDS,
    case_fingerprint,
    case_from_dict,
    fingerprint_digest,
    kind_of,
)


# ----------------------------------------------------------------------
# Grid construction / validation
# ----------------------------------------------------------------------
def test_parse_geometry_forms():
    assert parse_geometry("16x8").rows == 16
    assert parse_geometry("16x8").columns == 8
    assert parse_geometry("16x8x4").bits_per_word == 4
    assert parse_geometry((4, 4)).cell_count == 16
    geometry = parse_geometry(parse_geometry("8x8"))
    assert geometry.rows == 8
    with pytest.raises(SweepError):
        parse_geometry("16")
    with pytest.raises(SweepError):
        parse_geometry("axb")


def test_sweep_grid_cross_product():
    cases = sweep_grid(["8x8", "16x16"], ["March C-", "MATS+"],
                       orders=("row-major", "column-major"))
    assert len(cases) == 2 * 2 * 2
    labels = {case.label() for case in cases}
    assert len(labels) == len(cases)  # every scenario is distinct


def test_case_validation_fails_fast():
    with pytest.raises(SweepError):
        SweepCase(rows=8, columns=8, algorithm="March C-", order="no-such-order")
    with pytest.raises(SweepError, match="unknown March algorithm"):
        SweepCase(rows=8, columns=8, algorithm="No Such March")


def test_paper_preset_covers_table1():
    cases = paper_table1_cases()
    assert len(cases) == 5
    assert all(case.rows == 512 and case.columns == 512 for case in cases)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_run_case_produces_consistent_record():
    # A wide array, where suppressing the unselected pre-charges wins (on
    # tiny square arrays the restore overhead can make the PRR negative).
    case = SweepCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized")
    record = run_case(case)
    assert record.backend_used == "vectorized"
    assert record.algorithm == "MATS+"
    assert record.cycles_per_mode == 5 * 8 * 64
    assert record.passed
    assert 0.0 < record.measured_prr < 1.0
    assert record.functional_power_w > record.low_power_power_w


def test_runner_serial_and_parallel_agree():
    cases = sweep_grid(["8x8"], ["MATS+", "March C-"], backends=("vectorized",))
    serial = SweepRunner(cases, processes=1).run()
    parallel = SweepRunner(cases, processes=2).run()
    assert len(serial) == len(parallel) == 2
    for lhs, rhs in zip(serial, parallel):
        assert lhs.algorithm == rhs.algorithm
        assert lhs.measured_prr == pytest.approx(rhs.measured_prr, rel=1e-12)


def test_runner_rejects_empty_and_bad_process_counts():
    with pytest.raises(SweepError):
        SweepRunner([])
    with pytest.raises(SweepError, match="unknown sweep case type"):
        SweepRunner(["not a case"], processes=2)
    case = SweepCase(rows=4, columns=4, algorithm="MATS+")
    with pytest.raises(SweepError):
        SweepRunner([case], processes=0)


# ----------------------------------------------------------------------
# Export / import round-trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_result():
    cases = sweep_grid(["8x8"], ["MATS+"], backends=("vectorized",))
    return SweepRunner(cases).run()


#: One small scenario per case kind, with record fields its exports must
#: carry verbatim (the seed and backend provenance of the campaigns).
ROUND_TRIP_CASES = {
    "power": (SweepCase(rows=8, columns=8, algorithm="MATS+",
                        backend="vectorized"),
              {"algorithm": "MATS+", "rows": 8, "passed": True,
               "backend_used": "vectorized"}),
    "coverage": (CoverageCase(rows=8, columns=8, algorithm="March C-",
                              seed=5),
                 {"seed": 5, "invariant": True}),
    "prr": (PrrCase(rows=8, columns=64, algorithm="MATS+",
                    backend="vectorized", seed=11),
            {"seed": 11, "backend_used": "vectorized",
             "within_bracket": True}),
}


@pytest.mark.parametrize("kind", CASE_KINDS, ids=lambda kind: kind.tag)
def test_kind_round_trip(kind, tmp_path):
    case, expected = ROUND_TRIP_CASES[kind.tag]
    assert kind_of(case) is kind
    assert case_from_dict(case_fingerprint(case)) == case
    result = SweepRunner([case]).run()
    record = result.records[0]
    assert type(record) is kind.record_cls
    assert kind.record_cls.from_dict(record.as_dict()) == record

    # JSON: kind-tagged rows, every field exported, exact reload.
    path = result.to_json(tmp_path / "sweep.json")
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-sweep"
    assert payload["records"] == [{"kind": kind.tag, **record.as_dict()}]
    for name, value in expected.items():
        assert payload["records"][0][name] == value
    loaded = SweepResult.from_json(path)
    assert type(loaded.records[0]) is kind.record_cls
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in result]
    # The CSV half lives in test_sweep_orchestration.py
    # (test_csv_round_trip_preserves_bool_seed_backend_fields).


#: Content addresses of a default 8x8 March C- case of each kind.  They
#: key the serving layer's on-disk cache, journal resume and shard merge,
#: so a change here orphans every stored result.
PINNED_DIGESTS = {
    "power": "868cc91b30eaaa30425dddf0be2b0d527987dd49d01f2f244ed51bd3936058ab",
    "coverage": "4627571e127e9f63d41601753cba81d1f676e1c769bb952ff4196bd80159a118",
    "prr": "f6778ecf6811c9dffb659a7b7a3fb8ad477b867847471ea48b1fc46d4866bdfa",
}


@pytest.mark.parametrize("kind", CASE_KINDS, ids=lambda kind: kind.tag)
def test_case_fingerprint_digests_are_pinned(kind):
    case = kind.case_cls(rows=8, columns=8, algorithm="March C-")
    assert fingerprint_digest(case_fingerprint(case)) == \
        PINNED_DIGESTS[kind.tag]


def test_from_json_rejects_foreign_documents(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "records": []}))
    with pytest.raises(SweepError):
        SweepResult.from_json(path)


def test_render_produces_table(small_result):
    text = small_result.render(title="Unit sweep")
    assert "Unit sweep" in text
    assert "MATS+" in text
    assert "PRR measured" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_runs_grid_and_exports(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    exit_code = sweep_main([
        "--geometry", "8x8", "--algorithm", "MATS+",
        "--backend", "vectorized",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "MATS+" in captured
    assert json_path.exists() and csv_path.exists()
    assert len(SweepResult.from_json(json_path)) == 1
    assert len(SweepResult.from_csv(csv_path)) == 1


def test_cli_quiet_mode_is_quiet(capsys):
    exit_code = sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                            "--quiet"])
    assert exit_code == 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# Coverage campaigns (the DOF-1 sweeps)
# ----------------------------------------------------------------------
def test_coverage_case_validation_fails_fast():
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-", orders=())
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     orders=("no-such-order",))
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     backend="no-such-backend")
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     include_single=False, include_coupling=False)
    with pytest.raises(SweepError, match="unknown March algorithm"):
        CoverageCase(rows=8, columns=8, algorithm="No Such March")


def test_coverage_grid_and_paper_preset():
    cases = coverage_grid(["8x8", "16x16"], ["March C-", "MATS+"], seed=3)
    assert len(cases) == 4
    assert all(case.orders == INVARIANCE_ORDERS for case in cases)
    assert all(case.seed == 3 for case in cases)
    with pytest.raises(SweepError):
        coverage_grid(["8x8x4"], ["March C-"])  # word-oriented: no campaigns

    paper = paper_coverage_cases(seed=11)
    assert len(paper) == 2
    assert all(case.rows == 512 and case.columns == 512 for case in paper)
    assert all(case.seed == 11 for case in paper)
    # MATS+ only targets single-cell faults; its invariance check must not
    # include the coupling battery (fortuitous detections are order-dependent).
    by_name = {case.algorithm: case for case in paper}
    assert by_name["March C-"].include_coupling
    assert not by_name["MATS+"].include_coupling


def test_run_coverage_case_produces_consistent_record():
    case = CoverageCase(rows=16, columns=16, algorithm="March C-",
                        backend="vectorized", seed=7, sample=4)
    record = run_coverage_case(case)
    assert record.backend_used == "vectorized"
    assert record.seed == 7 and record.sample == 4
    assert record.locations == 4 + 5  # corners + centre + sampled
    assert record.total_faults == record.locations * 21  # 9 single + 12 coupling
    assert record.invariant and record.disagreements == 0
    assert 0.85 < record.coverage <= 1.0
    assert record.detected_faults == round(record.coverage * record.total_faults)


def test_execute_case_dispatches_on_case_kind():
    power = execute_case(SweepCase(rows=8, columns=8, algorithm="MATS+",
                                   backend="vectorized"))
    campaign = execute_case(CoverageCase(rows=8, columns=8, algorithm="MATS+",
                                         include_coupling=False))
    assert hasattr(power, "measured_prr")
    assert isinstance(campaign, CoverageRecord)
    with pytest.raises(SweepError):
        execute_case("not a case")


def test_runner_handles_mixed_case_kinds():
    cases = [SweepCase(rows=8, columns=8, algorithm="MATS+",
                       backend="vectorized"),
             CoverageCase(rows=8, columns=8, algorithm="March C-")]
    result = SweepRunner(cases).run()
    assert len(result) == 2
    assert "Coverage" in result.render()


@pytest.fixture(scope="module")
def coverage_result():
    cases = coverage_grid(["8x8"], ["March C-"], seed=5)
    return SweepRunner(cases).run()


def test_mixed_sweep_round_trips_json_but_not_csv(small_result,
                                                  coverage_result, tmp_path):
    mixed = SweepResult(small_result.records + coverage_result.records)
    loaded = SweepResult.from_json(mixed.to_json(tmp_path / "mixed.json"))
    assert {type(record).__name__ for record in loaded.records} == \
        {"SweepRecord", "CoverageRecord"}
    with pytest.raises(SweepError):
        mixed.to_csv(tmp_path / "mixed.csv")


def test_cli_coverage_runs_and_exports(tmp_path, capsys):
    json_path = tmp_path / "campaign.json"
    csv_path = tmp_path / "campaign.csv"
    exit_code = sweep_main([
        "--coverage", "--geometry", "8x8", "--algorithm", "March C-",
        "--seed", "9", "--sample", "3",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "DOF-1" in captured
    payload = json.loads(json_path.read_text())
    assert payload["records"][0]["seed"] == 9
    assert payload["records"][0]["invariant"] is True
    assert len(SweepResult.from_csv(csv_path)) == 1


def test_cli_rejects_paper_and_coverage_combination(capsys):
    exit_code = sweep_main(["--paper", "--coverage"])
    assert exit_code == 2
    assert "paper-coverage" in capsys.readouterr().err


# ----------------------------------------------------------------------
# BIST PRR-campaign cases (measured vs. analytical Table 1)
# ----------------------------------------------------------------------
def test_prr_grid_and_paper_preset():
    cases = prr_grid(["8x64", "8x32x2"], ["March C-", "MATS+"],
                     backend="vectorized", seed=3)
    assert len(cases) == 4
    assert {case.label() for case in cases} == {
        "March C- PRR @ 8x64 [vectorized]",
        "MATS+ PRR @ 8x64 [vectorized]",
        "March C- PRR @ 8x32x2 [vectorized]",
        "MATS+ PRR @ 8x32x2 [vectorized]",
    }
    assert all(case.seed == 3 for case in cases)
    paper = paper_prr_cases()
    assert len(paper) == 5
    assert all(case.rows == 512 and case.columns == 512
               and case.backend == "vectorized" for case in paper)


def test_prr_case_validation_fails_fast():
    with pytest.raises(SweepError):
        PrrCase(rows=8, columns=8, algorithm="March C-", backend="no-such")
    with pytest.raises(SweepError, match="unknown March algorithm"):
        PrrCase(rows=8, columns=8, algorithm="No Such March")


def test_execute_case_dispatches_prr_cases():
    record = execute_case(PrrCase(rows=8, columns=64, algorithm="MATS+",
                                  backend="vectorized"))
    assert isinstance(record, PrrRecord)
    assert record.cycles_per_mode == 5 * 8 * 64
    assert record.passed and record.within_bracket
    assert "PRR measured" in record.table_row()
    assert "in bracket" in record.progress_line()


def test_cli_prr_grid_runs_and_exports(tmp_path, capsys):
    json_path = tmp_path / "prr.json"
    exit_code = sweep_main([
        "--prr-grid", "--geometry", "8x64", "--algorithm", "MATS+",
        "--backend", "vectorized", "--json", str(json_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "PRR measured" in captured
    payload = json.loads(json_path.read_text())
    assert payload["records"][0]["kind"] == "prr"
    assert payload["records"][0]["within_bracket"] is True


def test_cli_rejects_prr_and_coverage_combination(capsys):
    assert sweep_main(["--prr-grid", "--coverage"]) == 2
    assert sweep_main(["--paper-table1", "--paper"]) == 2
    capsys.readouterr()
