import json

import pytest

from biphoton_sim import cli, selftest
from biphoton_sim.selftest import ALL_CHECKS, CheckResult

FIELDS = {"module", "name", "passed", "observed", "expected"}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_selftest_check(check):
    result = check()
    assert result.passed, (f"{result.module}.{result.name}: observed "
                           f"{result.observed:.6e}, expected {result.expected}")


def test_json_output_is_one_record_per_check(capsys):
    code = cli.main(["selftest", "--json"])
    records = json.loads(capsys.readouterr().out)
    assert len(records) == len(ALL_CHECKS)
    assert all(set(rec) == FIELDS for rec in records)
    assert code == 0 and all(rec["passed"] is True for rec in records)


def test_json_output_keeps_the_failure_exit_code(capsys, monkeypatch):
    failing = CheckResult("biphoton", "always fails", False, float("inf"), "< 1")
    monkeypatch.setattr(selftest, "ALL_CHECKS", (lambda: failing,))
    code = cli.main(["selftest", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == [
        {"module": "biphoton", "name": "always fails", "passed": False,
         "observed": None, "expected": "< 1"}]


def test_text_output_keeps_the_failure_exit_code(capsys, monkeypatch):
    failing = CheckResult("biphoton", "always fails", False, float("inf"), "< 1")
    monkeypatch.setattr(selftest, "ALL_CHECKS", (lambda: failing,))
    code = cli.main(["selftest"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] biphoton: always fails (observed inf, expected < 1)",
        "1 of 1 checks failed:",
        "  biphoton.always fails: observed inf, expected < 1"]


def test_text_output_is_one_line_per_check_and_a_summary(capsys):
    code = cli.main(["selftest"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == len(ALL_CHECKS) + 1
    assert all(line.startswith("[PASS] ") for line in lines[:-1])
    assert lines[-1] == f"all {len(ALL_CHECKS)} checks passed"
