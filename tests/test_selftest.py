import inspect
import json
import math
import sys

import pytest

from biphoton_sim import biphoton, cli, reference, selftest
from biphoton_sim.biphoton import check_grid
from biphoton_sim.dispersion import group_delay_estimate
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


# Each check's half-span Omega_max / 2 pi in MHz.  Sizing a window to its group
# delays keeps the time step, so it cuts only empty tau, never bandwidth.
OMEGA_MAX_MHZ = {"check_rect_limit": 102.4, "check_z_convergence": 51.2,
                 "check_uniform_route": 51.2, "check_parseval": 51.2,
                 "check_reference_agreement": 12.8}


def test_every_waveform_grid_spans_8_to_16_group_delays(monkeypatch):
    records = []

    def recorded(engine):
        signature = inspect.signature(engine)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            records.append((sys._getframe(1).f_code.co_name,
                            bound["grid"], bound["medium"], bound["coupling"]))
            return engine(*args, **kwargs)
        return wrapper

    for module, name in [(selftest, "psi_full"), (selftest, "psi_uniform_spectrum"),
                         (selftest, "psi_analytic_rect"), (reference, "psi_reference")]:
        monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    assert selftest.run_selftest() == 0
    assert {check for check, *_ in records} == set(OMEGA_MAX_MHZ)
    for check, grid, medium, coupling in records:
        check_grid(grid, medium, coupling)
        spans = grid.tau_span / group_delay_estimate(medium, coupling.peak_rabi)
        assert 8.0 <= spans < 16.0, (check, grid, spans)
        assert math.isclose(grid.omega_max, 2e6 * math.pi * OMEGA_MAX_MHZ[check],
                            rel_tol=1e-12), (check, grid)


def _mirror_as_self(slow_wavenumbers):
    def broken(*args, **kwargs):
        q_plus, q_minus = slow_wavenumbers(*args, **kwargs)
        q_minus[...] = q_plus  # q(omega) where q(-omega) belongs
        return q_plus, q_minus
    return broken


def _ignore_theta(beam_profile):
    return lambda beam, z, theta: beam_profile(beam, z, 0.0)


@pytest.mark.parametrize("name, breaks, failing", [
    ("slow_wavenumbers", _mirror_as_self,
     {"check_reference_agreement", "check_rect_limit", "check_uniform_route"}),
    ("beam_profile", _ignore_theta, {"check_reference_agreement"}),
], ids=["mirror-as-self", "theta-ignored"])
def test_selftest_catches_a_broken_kernel(monkeypatch, name, breaks, failing):
    monkeypatch.setattr(biphoton, name, breaks(getattr(biphoton, name)))
    assert {check.__name__ for check in ALL_CHECKS if not check().passed} == failing
