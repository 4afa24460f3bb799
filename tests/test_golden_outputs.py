"""Byte-for-byte pins of the sweep subcommands on the shipped configs.

The hashes were recorded from the scalar implementation that preceded the
array kernels of ``numerics``, ``emitter``, ``interference`` and ``bell``;
those kernels keep each element's floating-point operations, so every
output byte must stay the same.
"""

import hashlib
from pathlib import Path

import pytest

from tpi_sim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("decompose", "decompose_linewidth.json", "csv"):
        "a7f2d9ced8d3b8f20d18a09e9590796f17275b1af9f74aa5dbe37804926e7a9f",
    ("decompose", "decompose_linewidth.json", "json"):
        "36aaf2a871a0b20db9a2dbc8c02545281cfbadd669d29c06689d1f1ce4154552",
    ("decompose", "decompose_coherence.json", "csv"):
        "b19b20ff45671c4834e383d24d5fd33d30dc2519fae1e64e52c02f8c3325ca06",
    ("decompose", "decompose_coherence.json", "json"):
        "375346047d08a95b5774e348a5beb67ae8e0d186ff17a94aa2ee04c644f89d3d",
    ("assess", "assess_benchmarks.json", "csv"):
        "449a75d99ef359df5b96bba9c1768c5c76ecfd02cfa1903e57496b185d6d3e4d",
    ("assess", "assess_benchmarks.json", "json"):
        "579deeacb54504539177f59702be2c370f3965b5ee047b0f7f337cd4fec75cce",
}


@pytest.mark.parametrize("command,config,fmt", sorted(GOLDEN))
def test_output_bytes_unchanged(tmp_path, command, config, fmt):
    out = tmp_path / f"out.{fmt}"
    argv = [command, "--config", str(CONFIG_DIR / config), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(command, config, fmt)]
