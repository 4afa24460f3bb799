"""Summarise perfbench run records into one ``BENCH_<n>.json`` file.

Usage (from the repository root):

    python3 tools/bench_summary.py perfbench/out/*-trace0.json --out BENCH_7.json

Each input is a record that ``perfbench/run.py --trace 0`` writes.  The
summary has, for each workload and each end-to-end metric of its records,
the median, the quartiles q1 and q3 (linear interpolation between order
statistics) and the number of records n, plus the ``environment`` of every
record, ordered by seed.  Next to the metrics, ``reference_s`` gives the
median time of perfbench's speed reference task over all the records'
timings of it: ``run`` from ``ref_s`` (around the timed calls) and
``setup`` from ``setup_ref_s`` (around the set-up probes).  The metrics are
already corrected by these timings; their medians show how fast the
machine was while the set was run, so sets recorded at different times
can be told apart by machine speed.  Without ``--out`` the
summary goes to stdout.  Traced records (``--trace 1``) carry per-layer
metrics instead and are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` by linear interpolation (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarise(records: list[dict]) -> dict:
    """Per-workload metric statistics and environments of trace-0 run records."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        env = record["environment"]
        if env["trace"] != 0:
            raise ValueError(f"{env['workload']} seed {env['seed']} is a traced record")
        by_workload.setdefault(env["workload"], []).append(record)
    summary = {}
    for workload, group in sorted(by_workload.items()):
        group.sort(key=lambda r: r["environment"]["seed"])
        metrics = {}
        for name in sorted({name for r in group for name in r["metrics"]}):
            entries = [r["metrics"][name] for r in group if name in r["metrics"]]
            values = [e["value"] for e in entries]
            metrics[name] = {
                "unit": entries[0]["unit"],
                "median": quantile(values, 0.5),
                "q1": quantile(values, 0.25),
                "q3": quantile(values, 0.75),
                "n": len(values),
            }
        run_refs = [t for r in group for refs in r.get("ref_s", []) for t in refs]
        setup_refs = [t for r in group for t in r.get("setup_ref_s", [])]
        summary[workload] = {
            "metrics": metrics,
            "reference_s": {
                "run": quantile(run_refs, 0.5) if run_refs else None,
                "setup": quantile(setup_refs, 0.5) if setup_refs else None,
            },
            "environments": [r["environment"] for r in group],
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="perfbench run records (trace 0)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    args = parser.parse_args(argv)
    records = [json.loads(Path(path).read_text()) for path in args.records]
    text = json.dumps(summarise(records), indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
