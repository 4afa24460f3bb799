"""The benchmark's own output checks, run on one seed of each workload.

perfbench refuses a run whose outputs fail its checks (``correct: false``).
This runs every timed and check-only call of each workload through
``tpi_sim.cli.main`` in process and hands each output to perfbench's
``check_call``, so a change that would make the benchmark read an output as
incorrect (a fifth ``verify`` row, say) fails here first.  Nothing under
``perfbench/`` changes: its modules are loaded by path.
"""

import importlib.util
from pathlib import Path

import pytest

from tpi_sim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


def run_workload(name, seed, work):
    """(call, exit status, problems) of every sequence and check call.

    As in perfbench, every call runs before any output is checked: an
    ``assess`` output is checked against ``decompose`` outputs of the
    check-only calls.
    """
    plan = workloads.GENERATORS[name](seed)
    for config_name, config in plan["configs"].items():
        (work / config_name).write_bytes(workloads.config_bytes(config))
    calls = plan["sequence"] + plan["checks"]
    statuses = [cli.main(call["argv"]) for call in calls]
    return [
        (call, status, checks.check_call(work, call, plan["configs"]))
        for call, status in zip(calls, statuses)
    ]


@pytest.mark.parametrize("name", ["assess", "maps"])
def test_outputs_pass_the_benchmark_checks(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for call, status, problems in run_workload(name, 0, tmp_path):
        assert status == 0, call["argv"]
        assert problems == [], call["argv"]


def test_verify_output_passes_the_benchmark_checks(tmp_path, monkeypatch):
    # The 3-sigma gate fails by chance on some seeds; that reads as a failed
    # row, and it is the only problem allowed.  Any other problem (a wrong
    # row count, an unreadable table) would make every seed incorrect.
    monkeypatch.chdir(tmp_path)
    (call, status, problems), = run_workload("oracle", 0, tmp_path)
    assert all(p.startswith("check failed: ") for p in problems), problems
    assert status == (1 if problems else 0)
