import importlib.util
from pathlib import Path

import pytest

from tpi_sim.oracle import VerificationCheck, run_verification

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
    expected = []
    for seed in (3, 4):
        failed = [c for c in run_verification(seed=seed, **TINY).checks if not c.passed]
        if failed:
            expected.append(f"seed {seed}: " + " | ".join(
                f"{c.name} observed {c.observed:.4g} > bound {c.bound:g}" for c in failed
            ))
    # 13 comparisons per seed, each outside 3 sigma with probability 0.0027
    summary = f"{len(expected)} of 2 seeds failed (3-4); chance alone: 0.069"
    assert capsys.readouterr().out.splitlines() == [*expected, summary]
    assert status == (1 if expected else 0)


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
