"""Accuracy at the last digits: shipped outputs against mpmath.

Every cell of a shipped config's output, in CSV and in JSON, is compared
with a 40-digit mpmath evaluation of the documented closed form.  The
reference is computed from the config's own numbers and the output's grid
column, never through the package.  Each column's bound is its measured
worst error rounded up; a bound may only tighten.

``tuning`` on ``configs/tuning_curve.json``: the visibility is the overlap
weight Re w(z) / (sqrt(2 pi) Sigma (tau_i + tau_j)) with
z = (2 pi delta_nu + i gamma) / (2 pi sqrt(2) Sigma), w(z) = exp(-z^2)
erfc(-iz); its worst relative error is 5.4e-16 (bound 1e-15).  p_coinc is
(1 - V) / 2, worst 1.7e-16 (bound 5e-16).  Before the visibility was taken
as the weight itself, it came from 1 - p / 0.5 and sat up to 7.4e-14 off.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

from tpi_sim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# relative bounds per output column
TUNING_BOUNDS = {"visibility": 1e-15, "p_coinc": 5e-16}


def _mpf(x):
    """The binary64 value of a config number or output cell, exactly."""
    return mp.mpf(float(x))


def overlap_weight_reference(emitters, delta_nu_ghz):
    """The HOM visibility of two emitters (config units) at a relative
    detuning, to 40 digits."""
    with mp.workdps(40):
        gauss_fwhm_per_sigma = 2 * mp.sqrt(2 * mp.log(2))
        gamma = sum(
            1 / (2 * _mpf(e["lifetime_ps"]) * mp.mpf("1e-12"))
            + _mpf(e.get("dephasing_rate_mhz", 0)) * 10**6
            for e in emitters
        )
        sigma = mp.sqrt(sum(
            (_mpf(e.get("inhomogeneous_fwhm_mhz", 0)) * 10**6 / gauss_fwhm_per_sigma) ** 2
            for e in emitters
        ))
        tau_sum = sum(_mpf(e["lifetime_ps"]) for e in emitters) * mp.mpf("1e-12")
        delta_nu = _mpf(delta_nu_ghz) * 10**9
        z = (2 * mp.pi * delta_nu + 1j * gamma) / (2 * mp.pi * mp.sqrt(2) * sigma)
        w = mp.exp(-z * z) * mp.erfc(-1j * z)
        return mp.re(w) / (mp.sqrt(2 * mp.pi) * sigma * tau_sum)


def tuning_rows(tmp_path, fmt):
    """(header, rows of floats) of ``tuning`` on the shipped config."""
    out = tmp_path / f"tuning.{fmt}"
    argv = ["tuning", "--config", str(CONFIG_DIR / "tuning_curve.json"), "--out", str(out),
            "--format", fmt]
    assert main(argv) == 0
    if fmt == "json":
        data = json.loads(out.read_text())
        return data["columns"], data["rows"]
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tuning_curve_cells_against_mpmath(tmp_path, fmt):
    config = json.loads((CONFIG_DIR / "tuning_curve.json").read_text())
    emitters = config["emitters"]
    # the grid is the relative detuning; the emitters carry none of their own
    assert not any("detuning_mhz" in e for e in emitters)
    header, rows = tuning_rows(tmp_path, fmt)
    assert len(rows) == config["detuning_ghz"]["n"]
    column = {name: header.index(name) for name in ("delta_nu_ghz", *TUNING_BOUNDS)}
    worst = dict.fromkeys(TUNING_BOUNDS, mp.mpf(0))
    for row in rows:
        v = overlap_weight_reference(emitters, row[column["delta_nu_ghz"]])
        with mp.workdps(40):
            reference = {"visibility": v, "p_coinc": (1 - v) / 2}
            for name, ref in reference.items():
                error = abs((_mpf(row[column[name]]) - ref) / ref)
                worst[name] = max(worst[name], error)
    for name, bound in TUNING_BOUNDS.items():
        assert worst[name] <= bound, (name, mp.nstr(worst[name], 3))
