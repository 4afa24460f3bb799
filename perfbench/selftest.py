"""Self-test of the benchmark itself (not part of the tier-1 suite).

Checks that:

1. the same seed gives byte-identical generated configs, and another seed
   changes the inputs of every workload;
2. BENCHMARK.json lists exactly the per-layer metrics that the code
   produces;
3. two traced runs of the same workload and seed make exactly the same
   calls: per-function call counts, caller -> callee counts and panel
   counts (this part runs the program, each workload twice).

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from layers import per_layer_units
from workloads import GENERATORS, WORKLOADS, config_bytes

HERE = Path(__file__).resolve().parent


def generated(workload: str, seed: int) -> dict[str, bytes]:
    plan = GENERATORS[workload](seed)
    files = {name: config_bytes(c) for name, c in plan["configs"].items()}
    files["plan"] = json.dumps({k: plan[k] for k in ("sequence", "checks", "setup")}).encode()
    return files


def check_generation() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        if generated(workload, 7) != generated(workload, 7):
            problems.append(f"{workload}: seed 7 gave different configs twice")
        if generated(workload, 7) == generated(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 gave the same configs")
    return problems


def check_manifest() -> list[str]:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if listed != per_layer_units():
        return ["BENCHMARK.json per_layer differs from layers.per_layer_units()"]
    return []


def traced_counts(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
    )
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    if not record["counts_repeat"]:
        raise AssertionError(f"{workload}: counts differ between passes of one run")
    first = record["trace"][0]
    return {
        "calls": {k: v["calls"] for k, v in first["functions"].items()},
        "edges": first["edges"],
        "counters": first["counters"],
    }


def main() -> int:
    problems = check_generation() + check_manifest()
    for workload in WORKLOADS:
        if traced_counts(workload, 3) != traced_counts(workload, 3):
            problems.append(f"{workload}: call counts differ between two runs of seed 3")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
