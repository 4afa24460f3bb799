import importlib.util
from pathlib import Path

import pytest

from tpi_sim.oracle import VerificationCheck, VerificationReport, run_verification

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "verify_seeds.py"
spec = importlib.util.spec_from_file_location("verify_seeds", SCRIPT)
verify_seeds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verify_seeds)

TINY = dict(closed_form_instances=1, mc_instances=1, mc_realizations=2, phase_trials=10_000)


def test_one_line_per_failing_seed(capsys):
    # 2 realizations per lag: whether a seed passes is chance, so the lines
    # are compared with the reports of the same seeds
    options = [f"--{key.replace('_', '-')}={value}" for key, value in TINY.items()]
    status = verify_seeds.main(["3", "4", *options])
    reports = [run_verification(seed=seed, **TINY) for seed in (3, 4)]
    expected = []
    for report in reports:
        failed = [c for c in report.checks if not c.passed]
        if failed:
            expected.append(f"seed {report.seed}: " + " | ".join(
                f"{c.name} observed {c.observed:.4g} > bound {c.bound:g}" for c in failed
            ))
    # 13 comparisons per seed, each outside 3 sigma with probability 0.0027:
    # 5 lags in the correlation-trace row (check 1), 8 cases in the
    # phase-factor row (check 2)
    rows = [sum(not report.checks[row].passed for report in reports) for row in (1, 2)]
    summary = (
        f"{len(expected)} of 2 seeds failed (3-4); chance alone: 0.069; "
        f"correlation trace {rows[0]}, chance 0.027; averaged phase factor {rows[1]}, chance 0.043"
    )
    assert capsys.readouterr().out.splitlines() == [*expected, summary]
    assert status == (1 if expected else 0)


def fake_report(seed, trace_fails, phase_fails, closed_fails=False):
    """A report shaped as run_verification's, with the chosen checks failing."""
    return VerificationReport(seed, [
        VerificationCheck("coincidence closed form vs quadrature (10 instances)",
                          1.0 if closed_fails else 1e-17, 1e-6, not closed_fails),
        VerificationCheck("correlation trace vs Monte-Carlo model (2 instances x 5 lags)",
                          3.5 if trace_fails else 1.0, 3.0, not trace_fails),
        VerificationCheck("averaged phase factor vs Monte-Carlo sampling (8 cases)",
                          3.5 if phase_fails else 1.0, 3.0, not phase_fails),
        VerificationCheck("distinguishable-limit coincidence at a symmetric splitter",
                          1e-16, 1e-4, True),
    ])


def test_summary_counts_each_monte_carlo_row(monkeypatch, capsys):
    # seed 10 fails both Monte-Carlo rows, 11 the trace row, 12 the
    # phase-factor row, 13 the closed-form row alone and 14 none: a seed
    # counts once in all and once in each Monte-Carlo row it fails
    fails = {10: (True, True), 11: (True, False), 12: (False, True), 13: (False, False, True)}
    sizes = []

    def fake_run(seed, **sizes_of_run):
        sizes.append(sizes_of_run)
        return fake_report(seed, *fails.get(seed, (False, False)))

    monkeypatch.setattr(verify_seeds, "run_verification", fake_run)
    assert verify_seeds.main(["10", "14", "--mc-instances", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["seed 10", "seed 11", "seed 12", "seed 13"]
    # 5 seeds: the trace row has 10 comparisons each, the phase-factor row 8
    assert lines[-1] == (
        "4 of 5 seeds failed (10-14); chance alone: 0.24; "
        "correlation trace 2, chance 0.13; averaged phase factor 2, chance 0.11"
    )
    assert sizes == [dict(closed_form_instances=10, mc_instances=2, mc_realizations=3000,
                          phase_trials=100_000)] * 5


def test_chance_counts_of_the_perfbench_sizes():
    # one Monte-Carlo instance: 5 trace comparisons and 8 phase-factor ones
    assert verify_seeds.row_comparisons(1) == {"correlation trace": 5, "averaged phase factor": 8}
    assert verify_seeds.chance_failures(200, 13) == pytest.approx(6.9, abs=0.05)
    assert verify_seeds.chance_failures(200, 5) == pytest.approx(2.7, abs=0.05)
    assert verify_seeds.chance_failures(200, 8) == pytest.approx(4.3, abs=0.05)


def test_failing_line_format():
    checks = [
        VerificationCheck("gate a", 3.1154, 3.0, False),
        VerificationCheck("gate b", 1e-9, 1e-6, True),
        VerificationCheck("gate c", 0.25, 1e-4, False),
    ]
    assert verify_seeds.failing_line(60, checks) == (
        "seed 60: gate a observed 3.115 > bound 3 | gate c observed 0.25 > bound 0.0001"
    )
    assert verify_seeds.failing_line(61, checks[1:2]) is None


@pytest.mark.parametrize(
    "option,value,least",
    [
        ("--closed-form-instances", 0, 1),
        ("--mc-instances", -1, 1),
        ("--mc-instances", 0, 1),
        ("--mc-realizations", 1, 2),
        ("--phase-trials", 9999, 10_000),
    ],
)
def test_sizes_below_the_cli_limits_are_refused(capsys, option, value, least):
    with pytest.raises(SystemExit) as stop:
        verify_seeds.main(["0", "0", f"{option}={value}"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {option} must be at least {least}")
