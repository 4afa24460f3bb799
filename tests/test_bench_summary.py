import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def record(workload, seed, wall_s, rss_mb, trace=0, ref_s=(), setup_ref_s=()):
    return {
        "environment": {"workload": workload, "seed": seed, "trace": trace, "python": "3.11.7"},
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
        "ref_s": [list(refs) for refs in ref_s],
        "setup_ref_s": list(setup_ref_s),
        "attempted": 10,
        "failed": 0,
    }


def test_two_records(tmp_path):
    paths = []
    for seed, wall_s, rss in ((2, 0.5, 64.0), (1, 0.3, 66.0)):
        path = tmp_path / f"maps-seed{seed}-trace0.json"
        path.write_text(json.dumps(record("maps", seed, wall_s, rss)))
        paths.append(str(path))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([*paths, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    maps = summary["maps"]
    assert maps["metrics"]["wall_s"] == {
        "unit": "s", "median": pytest.approx(0.4), "q1": pytest.approx(0.35),
        "q3": pytest.approx(0.45), "n": 2,
    }
    assert maps["metrics"]["peak_rss_mb"]["median"] == 65.0
    assert [env["seed"] for env in maps["environments"]] == [1, 2]
    with pytest.raises(ValueError, match="traced"):  # per-layer metrics only
        bench_summary.summarise([record("maps", 3, 0.4, 60.0, trace=1)])


def test_reference_task_medians():
    # per pass, the reference timings around its calls; one timing per set-up probe
    fast = record("oracle", 1, 0.3, 60.0, ref_s=[[0.002, 0.003], [0.004]], setup_ref_s=[0.003])
    slow = record("oracle", 2, 0.3, 60.0, ref_s=[[0.005, 0.006, 0.007]], setup_ref_s=[0.001, 0.002])
    assess = record("assess", 1, 0.05, 63.0)  # a record without reference timings
    summary = bench_summary.summarise([fast, slow, assess])
    assert summary["oracle"]["reference_s"] == {
        "run": pytest.approx(0.0045),  # median of 0.002 .. 0.007
        "setup": pytest.approx(0.002),
    }
    assert summary["oracle"]["metrics"]["wall_s"]["median"] == 0.3
    assert summary["assess"]["reference_s"] == {"run": None, "setup": None}
