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

The Voigt FWHM, which ``voigt_fwhm`` returns and every split of a Voigt
linewidth must reproduce, is checked against the half-maximum condition in
mpmath, independently of the package's one solver for both: every
``decompose`` row of ``configs/decompose_linewidth.json`` reproduces its
119 MHz to 6.1e-16 at worst, and ``voigt_fwhm`` on a seeded sample of
widths from 1 kHz to 100 GHz is 5.1e-16 off at worst (6.7e-16 over 3,000
such widths; bound 1e-15 each).
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from tpi_sim.cli import main
from tpi_sim.numerics import voigt_fwhm

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# relative bounds per output column
TUNING_BOUNDS = {"visibility": 1e-15, "p_coinc": 5e-16}
# relative bound on a Voigt FWHM
VOIGT_FWHM_BOUND = 1e-15


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


def voigt_fwhm_error(lor, gauss, total):
    """Relative distance of ``total`` from the FWHM of the Voigt profile of
    Lorentzian and Gaussian FWHMs ``lor`` and ``gauss`` (mpf), to 40 digits.

    The FWHM F solves r(F) = Re w((F/2 + i h) s) - Re w(i h s) / 2 = 0, with
    h = lor / 2 and s = 1 / (sigma sqrt 2) = 2 sqrt(ln 2) / gauss; one Newton
    step from ``total``, with dr/dF = Re w'(z) s / 2 and w' = -2 z w +
    2i / sqrt(pi), is off the root by the square of a relative error of
    about 1e-15.
    """
    with mp.workdps(40):
        if gauss == 0:
            return abs(total - lor) / lor
        s = 2 * mp.sqrt(mp.log(2)) / gauss
        y = lor / 2 * s
        z = mp.mpc(total / 2 * s, y)
        w = mp.exp(-z * z) * mp.erfc(-1j * z)
        r = mp.re(w) - mp.exp(y * y) * mp.erfc(y) / 2
        slope = mp.re(-2 * z * w + 2j / mp.sqrt(mp.pi)) * s / 2
        root = total - r / slope
        return abs((total - root) / root)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_decompose_rows_reproduce_the_voigt_fwhm(tmp_path, fmt):
    config = json.loads((CONFIG_DIR / "decompose_linewidth.json").read_text())
    out = tmp_path / f"decompose.{fmt}"
    argv = ["decompose", "--config", str(CONFIG_DIR / "decompose_linewidth.json"),
            "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    if fmt == "json":
        data = json.loads(out.read_text())
        header, rows = data["columns"], data["rows"]
    else:
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == config["n_points"]
    rate, fwhm = header.index("dephasing_rate_mhz"), header.index("inhomogeneous_fwhm_mhz")
    worst = mp.mpf(0)
    with mp.workdps(40):
        lifetime = _mpf(config["constraint"]["lifetime_ps"]) * mp.mpf("1e-12")
        total = _mpf(config["constraint"]["total_fwhm_mhz"]) * 10**6
        for row in rows:
            # the Lorentzian FWHM is gamma_h / pi, gamma_h = 1 / (2 tau_r) + rate
            lor = (1 / (2 * lifetime) + _mpf(row[rate]) * 10**6) / mp.pi
            gauss = _mpf(row[fwhm]) * 10**6
            worst = max(worst, voigt_fwhm_error(lor, gauss, total))
    assert worst <= VOIGT_FWHM_BOUND, mp.nstr(worst, 3)


def test_voigt_fwhm_against_mpmath():
    rng = np.random.default_rng(40)
    lor, gauss = 10 ** rng.uniform(3.0, 11.0, (2, 150))
    got = voigt_fwhm(lor, gauss)
    worst = max(
        voigt_fwhm_error(_mpf(l), _mpf(g), _mpf(f))
        for l, g, f in zip(lor.tolist(), gauss.tolist(), got.tolist())
    )
    assert worst <= VOIGT_FWHM_BOUND, mp.nstr(worst, 3)
