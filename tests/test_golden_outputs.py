"""Byte-for-byte pins of the subcommands on the shipped configs.

The ``decompose_coherence.json`` hashes were recorded from the scalar
implementation that preceded the array kernels of ``numerics``,
``emitter``, ``interference`` and ``bell``; those kernels keep each
element's floating-point operations, so every output byte must stay the
same.  The ``tuning`` and ``g2`` hashes were recorded from the code before
``tuning_curve`` became one ``overlap_weight`` call over the detuning grid,
which keeps every element's operations too.

The ``vmap`` and ``fmap`` hashes were recorded after ``visibility_map``
moved from its own ``erfcx`` form onto ``overlap_weight`` (the Faddeeva
kernel of every other visibility).  That is different arithmetic for the
same closed form, so those outputs differ from the earlier ones in the
last digits: 56% of the 40,000 visibilities and 11% of the fidelities
moved, each by at most 1.5e-15 relative.

Four hashes were re-pinned after the Voigt split became one bisection on
the half-maximum condition and identical pairs in ``emitter_assessment``
took their fidelity from ``fidelity_at_weight``: ``decompose`` on
``decompose_linewidth.json`` and ``assess`` on ``assess_benchmarks.json``,
each in CSV and JSON.  The split is now solved to 1e-13 instead of about
5e-10, so 199 of the 200 ``decompose_linewidth.json`` rows moved, by at
most 8.7e-9 relative (dephasing rates; Gaussian widths by at most 1.5e-10).
In ``assess``, 10 of the 32 range values moved: those of the three Voigt
sources by at most 1.2e-10, the fidelities of ``nv_center`` by at most
3.3e-16.

The ``verify`` pins cover the label and bool columns, which no shipped
map or sweep has; their config is the tiny one in ``VERIFY_CONFIG``.  Both
hashes were recorded from the row writer, before the CLI wrote its tables
column by column in row blocks.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tpi_sim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("decompose", "decompose_linewidth.json", "csv"):
        "5d2dce5e4c7f266a4ba60aa846efb3c4ea61ea183fb5ee2ec9d431e93db784b3",
    ("decompose", "decompose_linewidth.json", "json"):
        "4eddea5bf5d667bce9578b27e885c5d3ac5745dea9fab6174af21f2b0926c485",
    ("decompose", "decompose_coherence.json", "csv"):
        "b19b20ff45671c4834e383d24d5fd33d30dc2519fae1e64e52c02f8c3325ca06",
    ("decompose", "decompose_coherence.json", "json"):
        "375346047d08a95b5774e348a5beb67ae8e0d186ff17a94aa2ee04c644f89d3d",
    ("assess", "assess_benchmarks.json", "csv"):
        "5c9e8143954e5a08ad6b7507168f7af3cc40b332e052760539c89b823d77a380",
    ("assess", "assess_benchmarks.json", "json"):
        "26397a20943c5705cbf33da52f56d3398e479a9cf47906dcbae3604802233c5a",
    ("tuning", "tuning_curve.json", "csv"):
        "e68e71013a684452e4fcecf66ad787a6cbf6bbe6362f2e6e70e88532444dbfc4",
    ("tuning", "tuning_curve.json", "json"):
        "2d601991944b0ff2ba5218880a2915f8779ef8151497bfe9925c5417075eee1d",
    ("g2", "g2_trace_detuned.json", "csv"):
        "d495ba32273b3509f9a11332ae476f3b2cb1e9d84dd5a6e9b5a067e62a39636e",
    ("g2", "g2_trace_detuned.json", "json"):
        "d812940a2c363f96e14c2ae15397e420ff4192e0058adf4a2bd90f65d7e242ac",
    ("g2", "g2_trace_resonant.json", "csv"):
        "107fd83cba154cf1a9b85f18ad9e7e5af05408f71f0fe25575573b17ad028ab8",
    ("g2", "g2_trace_resonant.json", "json"):
        "c8410e1f1d639480378c1cb7e301174208105d22ec26f0394349338d9ca49459",
    ("vmap", "visibility_map.json", "csv"):
        "5aa8cfc09795ddcb32930e415e376c6df482d4e5afc09cd272bd7b1b83d1e31c",
    ("vmap", "visibility_map.json", "json"):
        "0349bef3c131e99f72761f341a232fac9f49e9933136142db51087286e063d54",
    ("fmap", "fidelity_map.json", "csv"):
        "530f3ba9639c27d6eccb00ca7f907eca5578e07ffdda1978252fa7b2760157cb",
    ("fmap", "fidelity_map.json", "json"):
        "889db891d2810f917abe5507f5046dda0a5748f1e1cd19efb2ec5f142bd40da0",
}


VERIFY_CONFIG = {
    "seed": 7,
    "closed_form_instances": 2,
    "mc_instances": 1,
    "mc_realizations": 200,
    "phase_trials": 10000,
}

VERIFY_GOLDEN = {
    "csv": "b26bbfa7f3085b7acd012144fe2686bff4b0aeba2c4bc6d7bb984d07864ce450",
    "json": "cd8bf819e0f59ea5cc21d62b5eb0e02fd286ed47f2ac909c2da0322df6f3ee47",
}


@pytest.mark.parametrize("command,config,fmt", sorted(GOLDEN))
def test_output_bytes_unchanged(tmp_path, command, config, fmt):
    out = tmp_path / f"out.{fmt}"
    argv = [command, "--config", str(CONFIG_DIR / config), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(command, config, fmt)]


@pytest.mark.parametrize("fmt", sorted(VERIFY_GOLDEN))
def test_verify_bytes_unchanged(tmp_path, fmt):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(VERIFY_CONFIG))
    out = tmp_path / f"out.{fmt}"
    assert main(["verify", "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_GOLDEN[fmt]
