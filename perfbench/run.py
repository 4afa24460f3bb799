"""tpi-sim benchmark: one seeded workload through ``tpi_sim.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload assess|maps|oracle --seed N \
        --seconds S --trace 0|1

The workload's configs are generated from the seed; the program sees only
those files.  A child process runs the workload in process as a closed
loop (one client, one thread) for S seconds; see worker.py.  The parent
then checks the outputs against independent references (checks.py),
times set-up in fresh interpreters, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``, ``ok_ratio``; the two times corrected for
the machine's speed, see speed.py); with ``--trace 1`` the per-layer ones
from layers.py.  A record of the run, with the
environment, every sample and (traced) the per-function table, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import corrected, time_reference
from workloads import GENERATORS, WORKLOADS, config_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
SETUP_REF_SAMPLES = 3  # reference timings before and after each of them
CHILD_GRACE_S = 120  # a worker still running this long after --seconds is killed


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_average() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def write_inputs(work: Path, plan: dict) -> None:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, config in plan["configs"].items():
        (work / name).write_bytes(config_bytes(config))
    calls = {k: plan[k] for k in ("sequence", "checks", "setup")}
    (work / "plan.json").write_text(json.dumps(calls, indent=1))


def run_worker(work: Path, seconds: int, trace: int) -> dict:
    result = work / "result.json"
    with (work / "worker.log").open("w") as log:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--work", str(work),
             "--seconds", str(seconds), "--trace", str(trace), "--result", str(result)],
            stdout=log, stderr=subprocess.STDOUT, check=True,
            timeout=seconds + CHILD_GRACE_S,
        )
    return json.loads(result.read_text())


def time_setup(work: Path) -> tuple[list[float], list[float], int]:
    """Wall time of each fresh-interpreter set-up probe, the reference task's
    time next to each, and how many probes failed."""
    times = []
    refs = []
    failed = 0
    with (work / "setup.log").open("w") as log:
        for _ in range(SETUP_RUNS):
            before = [time_reference() for _ in range(SETUP_REF_SAMPLES)]
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(work)],
                stdout=log, stderr=subprocess.STDOUT,
            )
            times.append(time.perf_counter() - start)
            after = [time_reference() for _ in range(SETUP_REF_SAMPLES)]
            refs.append(statistics.median(before + after))
            failed += proc.returncode != 0
    return times, refs, failed


def check_outputs(work: Path, plan: dict, passes: int) -> tuple[list[str], int]:
    """Content problems of every output, and how many calls they make failed.

    A sequence output was written once per pass.  A check-only call shows
    intermediate results of the sequence (the Voigt splits of ``assess``),
    so when it fails every sequence call fails with it.
    """
    from checks import check_call

    problems = []
    failed_outs = set()
    for call in plan["sequence"] + plan["checks"]:
        try:
            found = check_call(work, call, plan["configs"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems += [f"{call['out']}: {p}" for p in found[:5]]
            failed_outs.add(call["out"])
    check_outs = {c["out"] for c in plan["checks"]}
    if failed_outs & check_outs:
        failed_outs |= {c["out"] for c in plan["sequence"]}
    return problems, sum(1 if out in check_outs else passes for out in failed_outs)


def main() -> int:
    parser = argparse.ArgumentParser(description="tpi-sim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tpi_sim" / "cli.py").is_file():
        print(f"error: no tpi_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_average(),
        "platform": platform.platform(),
    }
    plan = GENERATORS[args.workload](args.seed)
    out_dir = HERE / "out"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_inputs(work, plan)

    result = run_worker(work, args.seconds, args.trace)
    env.update(result["versions"])
    print("environment: " + json.dumps(env), file=sys.stderr)

    passes = 1 + len(result["call_s"]) + len(result["trace"])
    problems, content_failed = check_outputs(work, plan, passes)
    attempted = result["attempted"]
    failed = min(attempted, result["failed"] + content_failed)
    problems = result["failures"] + problems

    pass_s = [sum(p) for p in result["call_s"]]
    print(f"raw wall_s: {statistics.median(pass_s)}", file=sys.stderr)
    wall = [corrected(t, refs) for t, refs in zip(pass_s, result["ref_s"])]
    record = {"environment": env, "call_s": result["call_s"], "ref_s": result["ref_s"],
              "problems": problems}
    if args.trace:
        from checks import worst_z
        from layers import counts_repeat, derive, per_layer_units

        verify_out = work / "verify.csv"
        z = worst_z(verify_out) if verify_out.exists() else 0.0
        traced = [corrected(t["wall_s"], t["ref_s"]) for t in result["trace"]]
        overhead = statistics.median(traced) / statistics.median(wall)
        values = derive(result["trace"], overhead, result["bytes_out"], z)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        record["counts_repeat"] = counts_repeat(result["trace"])
        if not record["counts_repeat"]:
            problems.append("per-layer call counts differ between traced passes")
        record["trace"] = result["trace"]
    else:
        setup, setup_refs, setup_failed = time_setup(work)
        attempted += SETUP_RUNS * len(plan["setup"])
        failed += setup_failed * len(plan["setup"])
        record["setup_s"], record["setup_ref_s"] = setup, setup_refs
        setup = [corrected(t, [ref]) for t, ref in zip(setup, setup_refs)]
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    record["metrics"] = metrics
    record["attempted"], record["failed"] = attempted, failed
    (out_dir / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    for call in plan["sequence"] + plan["checks"] + plan["setup"]:
        (work / call["out"]).unlink(missing_ok=True)

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"fail_ratio: {failed}/{attempted}", file=sys.stderr)
    summary = {"correct": failed == 0 and not problems, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
