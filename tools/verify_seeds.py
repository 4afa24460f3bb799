"""Run the ``verify`` suite over a range of seeds and list the failing ones.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/verify_seeds.py 0 199
    PYTHONPATH=src python3 tools/verify_seeds.py 0 9 --mc-realizations 800

The two positional arguments are the first and last seed, both included.
Each seed runs :func:`tpi_sim.oracle.run_verification` with the given
sizes; the defaults are those of perfbench's oracle workload (10 closed-form
instances, 1 Monte-Carlo instance, 3000 realizations per lag, 100,000
phase-factor trials).  For every seed with a failing check one line goes to
stdout,

    seed 60: averaged phase factor vs Monte-Carlo sampling (8 cases) observed 3.115 > bound 3

with each failing check of that seed after the first joined by `` | ``.
For a Monte-Carlo check the observed value is the worst z.  A last line
counts the failing seeds and the count expected from chance alone,

    7 of 200 seeds failed (0-199); chance alone: 6.9

The exit status is 1 if any seed failed, else 0.  Sizes below those the
CLI's ``verify`` accepts (an instance count below 1, fewer than 2
realizations or 10,000 trials) end the tool with a usage error naming the
option, before any seed runs.

The 3-sigma checks fail by chance: with m independent comparisons, a seed
fails one with probability 1 - (1 - 2 Phi(-3))^m (1.3% for the five lags
of one correlation-trace instance, 2.1% for the eight phase-factor cases).
Over n seeds, chance alone gives n (1 - (1 - erfc(3 / sqrt 2))^m) failing
seeds, with m = 5 mc_instances + 8 (3.5% of seeds at the default sizes).
"""

from __future__ import annotations

import argparse
import math
import sys

from tpi_sim.oracle import _LAG_MULTIPLES, _MIN_SIZES, _PHASE_CASES, run_verification


def failing_line(seed: int, checks) -> str | None:
    """The report line of ``seed``'s failing checks, or None if all passed."""
    failed = [
        f"{c.name} observed {c.observed:.4g} > bound {c.bound:g}" for c in checks if not c.passed
    ]
    return f"seed {seed}: " + " | ".join(failed) if failed else None


def chance_failures(seeds: int, mc_instances: int) -> float:
    """Failing seeds expected from chance alone among ``seeds`` seeds: each
    has the oracle's ``_LAG_MULTIPLES`` lags per Monte-Carlo instance and
    its ``_PHASE_CASES`` phase-factor cases, each outside 3 sigma with
    probability erfc(3 / sqrt 2)."""
    comparisons = len(_LAG_MULTIPLES) * mc_instances + _PHASE_CASES
    return seeds * (1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** comparisons)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int, help="first seed")
    parser.add_argument("last", type=int, help="last seed (included)")
    parser.add_argument("--closed-form-instances", type=int, default=10)
    parser.add_argument("--mc-instances", type=int, default=1)
    parser.add_argument("--mc-realizations", type=int, default=3000)
    parser.add_argument("--phase-trials", type=int, default=100_000)
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error("last seed is below the first")
    for key, least in _MIN_SIZES.items():
        if getattr(args, key) < least:
            parser.error(f"--{key.replace('_', '-')} must be at least {least}")
    seeds = range(args.first, args.last + 1)
    failures = 0
    for seed in seeds:
        report = run_verification(
            seed=seed,
            closed_form_instances=args.closed_form_instances,
            mc_instances=args.mc_instances,
            mc_realizations=args.mc_realizations,
            phase_trials=args.phase_trials,
        )
        line = failing_line(seed, report.checks)
        if line is not None:
            failures += 1
            print(line, flush=True)
    expected = chance_failures(len(seeds), args.mc_instances)
    print(f"{failures} of {len(seeds)} seeds failed ({args.first}-{args.last}); "
          f"chance alone: {expected:.2g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
