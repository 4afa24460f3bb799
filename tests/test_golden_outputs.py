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
hashes were first recorded from the row writer, before the CLI wrote its
tables column by column in row blocks.

Twelve hashes were re-pinned when ``scipy.special.wofz`` gave way to the
package's own Faddeeva kernel (the modified trapezoidal rule of
``numerics.faddeeva_w``) and the Voigt solves went from bisection to a
safeguarded Newton iteration: ``decompose`` on ``decompose_linewidth.json``,
``assess``, ``tuning``, ``vmap``, ``fmap`` and ``verify``, each in CSV and
JSON.  Values moved (CSV value columns): ``vmap`` 26,115 of 40,000
visibilities (65%) and ``fmap`` 5,891 of 40,000 fidelities (15%), each by
at most 1.0e-15 relative; ``tuning`` 38 of 161 visibilities (at most
1.7e-14) and p_coinc values (3.1e-16); ``assess`` 15 of 32 range values,
by at most 5.9e-15; ``decompose_linewidth.json`` 198 of 200 dephasing
rates, by at most 1.2e-12 (the rates near zero; the split now reproduces
its FWHM to about 1e-15), and 199 of 200 Gaussian widths, by at most
1.3e-14; ``verify`` the closed-form-vs-quadrature discrepancy, 8.3e-17 ->
5.6e-17.  The ``decompose_coherence.json`` and ``g2`` hashes did not move.

The two ``tuning`` hashes (CSV and JSON) were re-pinned when the HOM
visibility became the overlap weight itself, V = clip(w, 0, 1), with
p_coinc = (1 - V) / 2, instead of V = 1 - p / 0.5 from the balanced
splitter's rounded coincidence terms.  All 161 visibilities moved, by at
most 7.4e-14 relative, and all 161 p_coinc values, by at most 6.3e-16.
Against a 40-digit mpmath weight (``test_accuracy.py``) every moved cell
is closer or as close: the worst visibility went from 7.4e-14 to 5.4e-16
relative, the worst p_coinc from 6.6e-16 to 1.7e-16.  No other hash moved.

The two ``verify`` hashes (CSV and JSON) were re-pinned when the
Monte-Carlo correlation trace began to sum one difference path
phi_i - phi_j per realization, formed from the same normals, instead of
both photons' paths.  Only the rounding of the path sums changed: the one
moved cell is the worst z of the correlation-trace row, 1.736018465823721
-> 1.7360184658237081 (7.4e-15 relative).  No other hash moved.

The two ``verify`` hashes were re-pinned again when each Monte-Carlo
realization began to draw the relative jitter alone: T + 1 normals for
f_i - f_j and the increments of phi_i - phi_j, with the photons'
variances summed, instead of 2T + 2 normals for both photons.  That is a
new random stream, so the worst z of the correlation-trace row moved from
1.7360184658237081 to 1.4215613166635597; it is the one moved cell, and
no other hash moved.

The two ``verify`` hashes were re-pinned once more when the Monte-Carlo
correlation trace went from 12 to 4 Gauss-Legendre panels over t0
(``oracle._PANELS``): each realization samples its difference path at
most 128 times instead of 384 and draws at most 129 normals instead of
385, so the stream is read differently.  The one moved cell is the worst z
of the correlation-trace row, 1.4215613166635597 -> 1.7358139423014292; no
other hash moved.

The two ``verify`` hashes were re-pinned when both Monte-Carlo samplers
began to draw fewer normals.  The phase-factor sampler draws the relative
phase phi_i - phi_j as one normal per trial, with the dephasing rates
summed, after the frequency normals of its 4096-trial chunk (2 normals per
trial instead of 3), and the correlation trace went from 4 to 2
Gauss-Legendre panels over t0, so a realization draws at most 65 normals
instead of 129.  Both are new random streams.  The two moved cells are the
worst z of the correlation-trace row, 1.7358139423014292 ->
1.8370357840694882, and of the phase-factor row, 1.5795750789156304 ->
1.7176544112143401; no other hash moved.

``test_stdout_bytes_equal_the_file_bytes`` holds the writer to these pins
on its other routes: a subprocess's stdout, which gets the bytes on its
binary buffer, and a text-only ``io.StringIO`` under ``redirect_stdout``.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tpi_sim

from tpi_sim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("decompose", "decompose_linewidth.json", "csv"):
        "ab54421b5b30fbfbf2439214c6df3bcc419bb44ffc19f3b9266125f2bc3c6bbd",
    ("decompose", "decompose_linewidth.json", "json"):
        "3c84304421042dcb66e88af38e957d87d4326f0114a2020b9d1249698f865d3e",
    ("decompose", "decompose_coherence.json", "csv"):
        "b19b20ff45671c4834e383d24d5fd33d30dc2519fae1e64e52c02f8c3325ca06",
    ("decompose", "decompose_coherence.json", "json"):
        "375346047d08a95b5774e348a5beb67ae8e0d186ff17a94aa2ee04c644f89d3d",
    ("assess", "assess_benchmarks.json", "csv"):
        "ad12c7e941ad06883933448e26e37671ca3f4356d25644a89568c01d6d6bbf6a",
    ("assess", "assess_benchmarks.json", "json"):
        "c2f799c866b50368f36c16ba689534a073cfde67a899258f0c22ae85703c249c",
    ("tuning", "tuning_curve.json", "csv"):
        "5b42864375f57b7cd8732ed07f4d385ac3247b3a301158e0179045d207e394ab",
    ("tuning", "tuning_curve.json", "json"):
        "420a9d85aa7f6c2346c461f2a09e9ece1285c1d804e6c627cb7259ac60ec84d5",
    ("g2", "g2_trace_detuned.json", "csv"):
        "d495ba32273b3509f9a11332ae476f3b2cb1e9d84dd5a6e9b5a067e62a39636e",
    ("g2", "g2_trace_detuned.json", "json"):
        "d812940a2c363f96e14c2ae15397e420ff4192e0058adf4a2bd90f65d7e242ac",
    ("g2", "g2_trace_resonant.json", "csv"):
        "107fd83cba154cf1a9b85f18ad9e7e5af05408f71f0fe25575573b17ad028ab8",
    ("g2", "g2_trace_resonant.json", "json"):
        "c8410e1f1d639480378c1cb7e301174208105d22ec26f0394349338d9ca49459",
    ("vmap", "visibility_map.json", "csv"):
        "766f107ff1ae4fb344c643a13bab0e9f2ae8771bde653ef5bc300d040ad90403",
    ("vmap", "visibility_map.json", "json"):
        "e481d16774b8c2319e811d9fbe1d5dfffe1810b6cbbbca025da0f35acaf48589",
    ("fmap", "fidelity_map.json", "csv"):
        "19c50cff7ba12cf220d4747bed19b89b955639980b0509343511411238fe0cfb",
    ("fmap", "fidelity_map.json", "json"):
        "b826b6cdf1c846c6a0449e5ce7ee3c00292f1b60689647e857bd6bdfcd05841e",
}


VERIFY_CONFIG = {
    "seed": 7,
    "closed_form_instances": 2,
    "mc_instances": 1,
    "mc_realizations": 200,
    "phase_trials": 10000,
}

VERIFY_GOLDEN = {
    "csv": "245a58eac19d645184c1c4f9acc64f0d6b5148bdbc174b1a80f9254937c9bd45",
    "json": "3bfec1537f350cc406b5fc744d68523e98c662f23388faf517a6119f575a3daf",
}


@pytest.mark.parametrize("command,config,fmt", sorted(GOLDEN))
def test_output_bytes_unchanged(tmp_path, command, config, fmt):
    out = tmp_path / f"out.{fmt}"
    argv = [command, "--config", str(CONFIG_DIR / config), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(command, config, fmt)]


def test_every_shipped_config_is_pinned():
    """Each ``configs/*.json`` is pinned in CSV and JSON; ``verify.json`` is the
    one exemption, as ``VERIFY_GOLDEN`` pins ``verify`` on a smaller config."""
    shipped = {path.name for path in CONFIG_DIR.glob("*.json")}
    pinned = {(config, fmt) for _, config, fmt in GOLDEN}
    assert "verify.json" in shipped
    assert pinned == {(config, fmt) for config in shipped - {"verify.json"} for fmt in ("csv", "json")}


@pytest.mark.parametrize("fmt", sorted(VERIFY_GOLDEN))
def test_verify_bytes_unchanged(tmp_path, fmt):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(VERIFY_CONFIG))
    out = tmp_path / f"out.{fmt}"
    assert main(["verify", "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_GOLDEN[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_bytes_equal_the_file_bytes(tmp_path, fmt):
    """Every pinned table, and the verify table with its label and bool
    columns, is written byte for byte the same to --out, to a text-only
    stdout and to a subprocess's stdout, after text printed before it."""
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(VERIFY_CONFIG))
    runs = [[c, "--config", str(CONFIG_DIR / name), "--format", fmt] for c, name, f in sorted(GOLDEN) if f == fmt]
    runs.append(["verify", "--config", str(config), "--format", fmt])
    expected = [b"before\n"]
    for argv in runs:
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        expected.append(out.read_bytes())
        text = io.StringIO()
        with redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue().encode() == expected[-1]
    code = (
        "from tpi_sim.cli import main\n"
        "print('before')\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(tpi_sim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # a buffered stdout, so text its text layer holds would come out late
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={**env, "PYTHONPATH": path},
        check=True,
    )
    assert done.stdout == b"".join(expected)
