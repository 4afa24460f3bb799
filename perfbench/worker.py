"""Child process of the benchmark: runs one workload through ``cli.main``.

One client, one thread, a closed loop: each ``cli.main`` call starts after
the previous one returned.  The first pass over the workload's sequence is
an untimed warm-up (caches fill, lazy set-up finishes); timed passes follow
until ``--seconds`` have gone since the warm-up started.  With ``--trace 1``
untraced and traced passes alternate, so per-layer numbers and the tracing
overhead come from the same process.  Around the calls of each pass the
worker times the reference task of speed.py, which measures how fast the
shared machine runs at that moment.

Every call counts as attempted; it fails when it raises, returns nonzero,
or writes output whose bytes differ from the warm-up pass.  The content
checks against independent references run in the parent afterwards, on
the files left behind.

Usage: worker.py --root DIR --work DIR --seconds N --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import time_reference

MIN_PASSES = 3  # timed passes of an untraced run, whatever --seconds says
REF_SAMPLES = 3  # reference timings before each call and after the last one


class Runner:
    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def _fail(self, call: dict, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(call['argv'])}: {why}")

    def run_pass(self, calls: list[dict]) -> tuple[list[float], list[float]]:
        """Run ``calls`` in order.

        Return the wall time of each call (checks excluded) and the times of
        the reference task (speed.py) taken around them.
        """
        outcomes = []
        times = []
        refs = []
        for call in calls:
            refs += [time_reference() for _ in range(REF_SAMPLES)]
            start = time.perf_counter()
            try:
                outcomes.append(self.cli.main(call["argv"]))
            except (Exception, SystemExit):
                outcomes.append(traceback.format_exc(limit=3))
            times.append(time.perf_counter() - start)
        refs += [time_reference() for _ in range(REF_SAMPLES)]
        for call, outcome in zip(calls, outcomes):
            self.attempted += 1
            if outcome != 0:
                self._fail(call, f"returned {outcome!r}")
                continue
            try:
                digest = hashlib.sha256(Path(call["out"]).read_bytes()).hexdigest()
            except OSError as exc:
                self._fail(call, f"no output: {exc}")
                continue
            if self.digests.setdefault(call["out"], digest) != digest:
                self._fail(call, "output differs from the warm-up pass")
        return times, refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import tpi_sim
    from tpi_sim import cli

    if not Path(tpi_sim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tpi_sim was imported from {tpi_sim.__file__}, not {src}")

    os.chdir(args.work)
    plan = json.loads(Path("plan.json").read_text())
    sequence, checks = plan["sequence"], plan["checks"]
    runner = Runner(cli)
    start = time.perf_counter()
    runner.run_pass(sequence)  # warm-up
    runner.run_pass(checks)
    bytes_out = sum(Path(c["out"]).stat().st_size for c in sequence if Path(c["out"]).exists())

    call_s: list[list[float]] = []  # per pass, per call
    ref_s: list[list[float]] = []  # per pass, the reference timings around its calls
    traced_wall: list[float] = []
    trace: list[dict] = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    def more() -> bool:
        if args.trace:
            return not (call_s and traced_wall) or time.perf_counter() - start < args.seconds
        return len(call_s) < MIN_PASSES or time.perf_counter() - start < args.seconds

    while more():
        if tracer is not None and len(traced_wall) < len(call_s):
            tracer.reset()
            tracer.install()
            try:
                times, refs = runner.run_pass(sequence)
            finally:
                tracer.uninstall()
            traced_wall.append(sum(times))
            trace.append({**tracer.snapshot(), "wall_s": traced_wall[-1], "ref_s": refs})
        else:
            times, refs = runner.run_pass(sequence)
            call_s.append(times)
            ref_s.append(refs)

    result = {
        "call_s": call_s,
        "ref_s": ref_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "bytes_out": bytes_out,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
        "versions": {
            "tpi_sim": tpi_sim.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
