"""Benchmark a revision against the working tree in alternating pairs.

Usage (from the repository root):

    python3 tools/bench_pairs.py HEAD --workload assess --seeds 211-220 --seconds 8

Both sides run from fresh copies in one temporary directory: REV (the
parent) exported with ``git archive``, and the working tree (the change)
as the files ``git ls-files --cached --others --exclude-standard`` lists,
uncommitted edits and untracked files included, ignored files, deleted
files and ``.git`` left out.  The directory is removed when the tool ends;
the change side's ``perfbench/out`` records are first copied into the
working tree's ``perfbench/out``.  For every seed in A-B (both included)
``perfbench/run.py --trace 0`` runs once on each copy, each with its own
``perfbench``.  The pairs run in ABBA order: the first seed runs the
parent first, the next the change first, and so on.  Whichever side runs
first in a pair is measured under different machine conditions (caches,
the shared VM's phase), and fixing that order biases the difference: on
maps, parent-first pairs once read -12% where change-first pairs read -5%.

One line per end-to-end metric of ``BENCHMARK.json`` goes to stdout:

    wall_s [s, lower]: parent 0.0376 (0.037-0.0381)  change 0.0301 (0.0296-0.0305)  change better in 10/10

with the median and q1-q3 (:func:`bench_summary.quantile`) of each side
and the number of seeds in which the change was strictly better.  Then one
verdict per metric:

    wall_s verdict: gain (median better by 0.0075 s; parent q3-q1 0.0011 s, bound 0.0094 s; change better in 10/10)

``gain`` when the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's q3 - q1;
``regression`` when its median is worse than the parent's by more than the
metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the parent's
median); ``unresolved`` when the parent's q3 - q1 is wider than that bound
and not every run of the change beat every run of the parent; ``no
regression`` otherwise.  Then one line per side names the seeds whose run
read ``correct: false``:

    parent: correct: false at 1 of 10 seeds: 9201

The header line says whether ``PYTHONDONTWRITEBYTECODE`` is set.  Both
copies start without ``__pycache__``, so with it set every perfbench
set-up probe compiles ``tpi_sim`` from source, which raises ``setup_s``
(a probe took 137 ms against 119 ms with bytecode written) and can move
``peak_rss_mb`` by a few per cent.

Each run also prints its ``correct``, ``failed``/``attempted`` and metrics
to stderr as it ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_summary import quantile  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

Runner = Callable[[str, int], dict]


def parse_seeds(text: str) -> list[int]:
    """The seeds of ``A-B`` (both included) or of a single ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def pair_order(seeds: list[int]) -> list[tuple[str, int]]:
    """The runs in ABBA order: one pair per seed, the side that runs first
    alternating from seed to seed, the parent first for the first seed."""
    order = []
    for n, seed in enumerate(seeds):
        sides = SIDES if n % 2 == 0 else SIDES[::-1]
        order += [(side, seed) for side in sides]
    return order


def run_pairs(seeds: list[int], run: Runner) -> dict[str, dict[int, dict]]:
    """Per side, the metrics ``run(side, seed)`` returned for each seed."""
    results: dict[str, dict[int, dict]] = {side: {} for side in SIDES}
    for side, seed in pair_order(seeds):
        results[side][seed] = run(side, seed)
    return results


def _compare(results: dict[str, dict[int, dict]], metric: dict) -> tuple[dict, int, int]:
    """The values of ``metric`` per side in seed order, its sign (+1 where
    higher is better, -1 where lower is) and the seeds in which the change won."""
    seeds = sorted(results["parent"])
    sign = 1 if metric["better"] == "higher" else -1
    values = {side: [results[side][s][metric["name"]] for s in seeds] for side in SIDES}
    won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    return values, sign, won


def summary_lines(results: dict[str, dict[int, dict]], metrics: list[dict]) -> list[str]:
    """One line per metric (``name``, ``unit``, ``better`` of BENCHMARK.json):
    each side's median and q1-q3, and in how many seeds the change won."""
    lines = []
    for metric in metrics:
        values, _, won = _compare(results, metric)
        parts = []
        for side in SIDES:
            v = values[side]
            parts.append(f"{side} {quantile(v, 0.5):.4g} "
                         f"({quantile(v, 0.25):.4g}-{quantile(v, 0.75):.4g})")
        lines.append(f"{metric['name']} [{metric['unit']}, {metric['better']}]: "
                     f"{'  '.join(parts)}  change better in {won}/{len(values['parent'])}")
    return lines


def verdict_lines(results: dict[str, dict[int, dict]], metrics: list[dict]) -> list[str]:
    """One verdict per metric (``bound`` of BENCHMARK.json too): gain,
    regression, unresolved or no regression, by the rule the module
    docstring states."""
    lines = []
    for metric in metrics:
        values, sign, won = _compare(results, metric)
        parent, change = values["parent"], values["change"]
        better_by = sign * (quantile(change, 0.5) - quantile(parent, 0.5))
        spread = quantile(parent, 0.75) - quantile(parent, 0.25)
        bound = metric["bound"] * abs(quantile(parent, 0.5))
        if 10 * won >= 9 * len(parent) and better_by > spread:
            verdict = "gain"
        elif -better_by > bound:
            verdict = "regression"
        elif spread > bound and min(sign * c for c in change) <= max(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "no regression"
        unit = metric["unit"]
        lines.append(f"{metric['name']} verdict: {verdict} (median better by {better_by:.4g} "
                     f"{unit}; parent q3-q1 {spread:.4g} {unit}, bound {bound:.4g} {unit}; "
                     f"change better in {won}/{len(parent)})")
    return lines


def header_line(workload: str, seeds: list[int], seconds: int) -> str:
    """The line above the metric lines: the workload, the seeds, the run
    length, and whether ``PYTHONDONTWRITEBYTECODE`` is set."""
    written = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "not set"
    return (f"{workload}, seeds {seeds[0]}-{seeds[-1]}, {seconds} s per run, "
            f"PYTHONDONTWRITEBYTECODE {written}")


def correctness_lines(results: dict[str, dict[int, dict]]) -> list[str]:
    """One line per side: the seeds whose run read ``correct: false``."""
    lines = []
    for side in SIDES:
        wrong = [seed for seed, run in sorted(results[side].items()) if not run["correct"]]
        lines.append(f"{side}: correct: false at {len(wrong)} of {len(results[side])} seeds"
                     + (": " + ", ".join(map(str, wrong)) if wrong else ""))
    return lines


def run_record(summary: dict) -> dict:
    """One run from perfbench's summary line: each metric's value, plus the
    run's ``correct``, ``failed`` and ``attempted``."""
    record = {name: entry["value"] for name, entry in summary["metrics"].items()}
    record.update({key: summary[key] for key in ("correct", "failed", "attempted")})
    return record


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest`` with ``git archive``; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def export_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree of the repository at ``root`` into ``dest``:
    every tracked file as it is on disk and every untracked file that is
    not ignored; deleted files and ``.git`` are left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, check=True).stdout
    for name in {os.fsdecode(n) for n in listed.split(b"\0") if n}:
        source = root / name
        if source.is_symlink() or source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def perfbench_runner(trees: dict[str, Path], workload: str, seconds: int) -> Runner:
    """``run(side, seed)``: the :func:`run_record` of one perfbench run on that side's tree."""

    def run(side: str, seed: int) -> dict:
        tree = trees[side]
        done = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"perfbench failed on the {side} tree at seed {seed}")
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = " ".join(f"{k} {v['value']:.4g}" for k, v in summary["metrics"].items())
        print(f"seed {seed} {side}: correct {str(summary['correct']).lower()} "
              f"failed {summary['failed']}/{summary['attempted']} {metrics}",
              file=sys.stderr, flush=True)
        return run_record(summary)

    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, both included")
    parser.add_argument("--seconds", required=True, type=int)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commit = export(args.rev, trees["parent"])
        export_worktree(ROOT, trees["change"])
        print(f"parent: {args.rev} = {commit}; change: a copy of the working tree {ROOT}",
              file=sys.stderr)
        try:
            results = run_pairs(args.seeds, perfbench_runner(trees, args.workload, args.seconds))
        finally:
            records = ROOT / "perfbench" / "out"
            records.mkdir(parents=True, exist_ok=True)
            for record in (trees["change"] / "perfbench" / "out").glob("*.json"):
                shutil.copy2(record, records / record.name)
    print(header_line(args.workload, args.seeds, args.seconds))
    lines = summary_lines(results, metrics) + verdict_lines(results, metrics)
    for line in lines + correctness_lines(results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
