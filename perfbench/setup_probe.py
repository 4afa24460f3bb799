"""Set-up probe: a fresh interpreter imports ``tpi_sim.cli`` and makes the
workload's tiny calls, one per subcommand it uses.

The benchmark times this whole process from the outside, so ``setup_s``
holds interpreter start, imports and every lazy set-up a first call pays
(for example the ``scipy.stats`` import of the oracle and the cached CNOT
stage gates of ``bell``), which warm-up passes hide from ``wall_s``.

The probe ends itself after 60 s (SIGALRM), so the benchmark can wait for
it without a timeout: ``subprocess.run`` with a timeout polls the child
every 50 ms, which rounds the measured time up to the next 50 ms.

Usage: setup_probe.py SRC_DIR WORK_DIR  (exit 0 iff every call returned 0)
"""

import signal
import sys

signal.alarm(60)
sys.path.insert(0, sys.argv[1])

import json  # noqa: E402
import os  # noqa: E402

from tpi_sim import cli  # noqa: E402

os.chdir(sys.argv[2])
with open("plan.json") as fh:
    calls = json.load(fh)["setup"]
sys.exit(0 if all(cli.main(call["argv"]) == 0 for call in calls) else 1)
