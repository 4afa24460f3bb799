"""Output checks against independent references, at documented tolerances.

The references are written from the documented closed forms with
``mpmath`` at 30 digits; none of them calls ``tpi_sim``:

* Voigt splits (``decompose``): the Voigt profile of each split has its
  half maximum within 1e-6 relative of total_fwhm / 2 (the 1e-6 Voigt-FWHM
  guarantee of ``decompose_voigt_fwhm``);
* ``vmap``: V = sqrt(2 ln2 / pi) erfcx(y) / (2 theta_sd),
  y = sqrt(ln2 / (2 pi^2)) theta_pd / theta_sd, to 1e-10 relative;
* ``assess`` visibility range: min and max of the resonant overlap weight
  (the ``tuning`` form below at zero detuning) over the splits that
  ``decompose`` prints for the same constraints, to 1e-9 relative;
* ``fmap`` and the ``assess`` fidelity columns: the post-selected CNOT
  gives F(V) = (1 + V) / (2 (2 - V)) (numerator (1 + V) / 9, success
  probability (2 - V) / 9), to 1e-10 relative;
* ``tuning``: V = Re w(z) / (sqrt(2 pi) Sigma (tau_i + tau_j)) with
  z = (2 pi dnu + i gamma) / (2 pi sqrt(2) Sigma), to 1e-9 relative;
* ``g2``: every G2 and baseline value is >= 0;
* ``verify``: every check row passed (the exit code is checked by the
  worker).

JSON outputs must carry the same rows as the CSV output of the same config.
Each check returns a list of problems; empty means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import special

mpmath.mp.dps = 30

PS = 1e-12
MHZ = 1e6
GHZ = 1e9
GAUSS_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
SAMPLES = 60  # grid points compared against mpmath per map


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


def _float_rows(rows: list[list[str]]) -> list[list[float]]:
    return [[float(v) for v in r] for r in rows]


def _close(got: float, want, rel: float) -> bool:
    return abs(got - float(want)) <= rel * abs(float(want))


def fidelity(v):
    """Bell-state fidelity of the post-selected CNOT at overlap weight v."""
    return (1 + v) / (2 * (2 - v))


def voigt(x, sigma, hwhm):
    """Unit-area Voigt profile (mpmath), Lorentzian HWHM and Gaussian sigma."""
    x, sigma, hwhm = mpmath.mpf(x), mpmath.mpf(sigma), mpmath.mpf(hwhm)
    if sigma == 0:
        return hwhm / mpmath.pi / (x * x + hwhm * hwhm)
    z = (x + 1j * hwhm) / (sigma * mpmath.sqrt(2))
    w = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
    return w.real / (sigma * mpmath.sqrt(2 * mpmath.pi))


def normalized_visibility(theta_pd: float, theta_sd: float):
    if theta_sd == 0.0:
        return 1 / mpmath.mpf(theta_pd)
    y = mpmath.sqrt(mpmath.log(2) / (2 * mpmath.pi**2)) * theta_pd / mpmath.mpf(theta_sd)
    erfcx = mpmath.exp(y * y) * mpmath.erfc(y)
    return mpmath.sqrt(2 * mpmath.log(2) / mpmath.pi) * erfcx / (2 * mpmath.mpf(theta_sd))


def overlap_weight(emitters: list[dict], delta_nu_hz: float):
    """Spectral overlap weight (HOM visibility) of a resonant-plus-offset pair."""
    gamma = mpmath.mpf(0)
    sigma_sq = mpmath.mpf(0)
    tau_sum = mpmath.mpf(0)
    for e in emitters:
        tau = mpmath.mpf(e["lifetime_ps"]) * PS
        gamma += 1 / (2 * tau) + mpmath.mpf(e.get("dephasing_rate_mhz", 0.0)) * MHZ
        sigma_sq += (mpmath.mpf(e.get("inhomogeneous_fwhm_mhz", 0.0)) * MHZ / GAUSS_FWHM_PER_SIGMA) ** 2
        tau_sum += tau
    dnu = mpmath.mpf(delta_nu_hz)
    if sigma_sq == 0:
        return 2 * gamma / ((gamma**2 + 4 * mpmath.pi**2 * dnu**2) * tau_sum)
    sigma = mpmath.sqrt(sigma_sq)
    z = (2 * mpmath.pi * dnu + 1j * gamma) / (2 * mpmath.pi * mpmath.sqrt(2) * sigma)
    w = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
    return w.real / (mpmath.sqrt(2 * mpmath.pi) * sigma * tau_sum)


def _sample(n: int) -> list[int]:
    """Row indices spread over ``n`` rows, both ends included."""
    if n <= SAMPLES:
        return list(range(n))
    return sorted({round(k * (n - 1) / (SAMPLES - 1)) for k in range(SAMPLES)})


def read_splits(out: Path, lifetime_ps: float) -> list[dict]:
    """Emitters of the (dephasing, inhomogeneous) splits of a ``decompose`` output."""
    _, rows = read_csv(out)
    return [
        {"lifetime_ps": lifetime_ps, "dephasing_rate_mhz": max(rate, 0.0),
         "inhomogeneous_fwhm_mhz": gauss}
        for rate, gauss, *_ in _float_rows(rows)
    ]


def _screen(first: list[dict], second: list[dict]) -> np.ndarray:
    """float64 overlap weights of every resonant (first[i], second[j]) pair.

    At zero detuning w(iy) = erfcx(y), so V = erfcx(y) / (sqrt(2 pi) Sigma
    (tau_i + tau_j)) with y = gamma / (2 pi sqrt(2) Sigma), and V = 2 /
    (gamma (tau_i + tau_j)) when Sigma = 0.
    """
    def widths(family):
        tau = np.array([e["lifetime_ps"] * PS for e in family])
        gamma = 1 / (2 * tau) + np.array([e["dephasing_rate_mhz"] * MHZ for e in family])
        var = (np.array([e["inhomogeneous_fwhm_mhz"] * MHZ for e in family])
               / GAUSS_FWHM_PER_SIGMA) ** 2
        return tau, gamma, var

    (tau_i, gamma_i, var_i), (tau_j, gamma_j, var_j) = widths(first), widths(second)
    tau = tau_i[:, None] + tau_j[None, :]
    gamma = gamma_i[:, None] + gamma_j[None, :]
    sigma = np.sqrt(var_i[:, None] + var_j[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        y = gamma / (2 * math.pi * math.sqrt(2) * sigma)
        gauss = special.erfcx(y) / (math.sqrt(2 * math.pi) * sigma * tau)
    return np.where(sigma > 0, gauss, 2 / (gamma * tau))


def assess_reference(families: list[list[dict]]) -> tuple:
    """(v_min, v_max) that ``assess`` reports for one source.

    One family: identical copies swept together, every point in mpmath.
    Two families: the product of the curves, screened in float64 and the
    smallest and largest weight evaluated in mpmath.
    """
    if len(families) == 1:
        values = [overlap_weight([e, e], 0.0) for e in families[0]]
        return min(values), max(values)
    first, second = families
    screen = _screen(first, second)
    ends = []
    for flat in (screen.argmin(), screen.argmax()):
        i, j = np.unravel_index(flat, screen.shape)
        ends.append(overlap_weight([first[i], second[j]], 0.0))
    return tuple(ends)


def check_assess(out: Path, config: dict, families: list[list[dict]]) -> list[str]:
    """Visibility range against the splits of its source, fidelities against F(V)."""
    header, rows = read_csv(out)
    if header != ["name", "v_min", "v_max", "f_min", "f_max"]:
        return [f"unexpected columns {header}"]
    names = [s["name"] for s in config["sources"]]
    if [r[0] for r in rows] != names:
        return [f"rows {[r[0] for r in rows]} do not match sources {names}"]
    problems = []
    (name, *vals), = rows
    v_min, v_max, f_min, f_max = (float(v) for v in vals)
    for label, got, want in zip(("v_min", "v_max"), (v_min, v_max), assess_reference(families)):
        if not _close(got, want, 1e-9):
            problems.append(f"{name}: {label} {got} != reference {float(want)}")
    for v, f in ((v_min, f_min), (v_max, f_max)):
        if not _close(f, fidelity(mpmath.mpf(v)), 1e-10):
            problems.append(f"{name}: fidelity {f} != F({v})")
    return problems


def check_splits(out: Path, config: dict) -> list[str]:
    """Shape of a ``decompose`` output whose splits only ``assess`` checks."""
    header, rows = read_csv(out)
    if header[:2] != ["dephasing_rate_mhz", "inhomogeneous_fwhm_mhz"]:
        return [f"unexpected columns {header}"]
    single = "lorentzian_fwhm_mhz" in config["constraint"]
    want = 1 if single else config["n_points"]
    if len(rows) != want:
        return [f"{len(rows)} splits, expected {want}"]
    return [f"negative Gaussian FWHM {r[1]}" for r in _float_rows(rows) if r[1] < 0.0][:5]


def check_voigt_splits(out: Path, config: dict) -> list[str]:
    """Each split's Voigt FWHM equals total_fwhm to 1e-6 relative."""
    header, rows = read_csv(out)
    if header[:2] != ["dephasing_rate_mhz", "inhomogeneous_fwhm_mhz"]:
        return [f"unexpected columns {header}"]
    if len(rows) != config["n_points"]:
        return [f"{len(rows)} splits, expected {config['n_points']}"]
    tau = mpmath.mpf(config["constraint"]["lifetime_ps"]) * PS
    half = mpmath.mpf(config["constraint"]["total_fwhm_mhz"]) * MHZ / 2
    problems = []
    for rate_mhz, gauss_mhz, *_ in _float_rows(rows):
        hwhm = (1 / (2 * tau) + mpmath.mpf(rate_mhz) * MHZ) / (2 * mpmath.pi)
        sigma = mpmath.mpf(gauss_mhz) * MHZ / GAUSS_FWHM_PER_SIGMA
        half_peak = voigt(0, sigma, hwhm) / 2
        inside = voigt(half * (1 - mpmath.mpf("1e-6")), sigma, hwhm)
        outside = voigt(half * (1 + mpmath.mpf("1e-6")), sigma, hwhm)
        if not inside >= half_peak >= outside:
            problems.append(f"split ({rate_mhz}, {gauss_mhz}) MHz misses the FWHM by > 1e-6")
    return problems


def _check_map(out: Path, config: dict, value) -> list[str]:
    header, rows = read_csv(out)
    n = config["theta_pd"]["n"] * config["theta_sd"]["n"]
    if len(rows) != n:
        return [f"{len(rows)} rows, expected {n}"]
    values = _float_rows(rows)
    problems = [f"value {r[2]} outside [0, 1]" for r in values if not 0.0 <= r[2] <= 1.0][:5]
    for k in _sample(n):
        pd, sd, got = values[k]
        if not _close(got, value(pd, sd), 1e-10):
            problems.append(f"({pd}, {sd}): {got} != reference {float(value(pd, sd))}")
    return problems


def check_vmap(out: Path, config: dict) -> list[str]:
    return _check_map(out, config, normalized_visibility)


def check_fmap(out: Path, config: dict) -> list[str]:
    return _check_map(out, config, lambda pd, sd: fidelity(normalized_visibility(pd, sd)))


def check_g2(out: Path, config: dict) -> list[str]:
    header, rows = read_csv(out)
    if len(rows) != config["n_tau"]:
        return [f"{len(rows)} rows, expected {config['n_tau']}"]
    bad = [r for r in _float_rows(rows) if r[1] < 0.0 or r[2] < 0.0]
    return [f"negative correlation at tau = {r[0]} ps" for r in bad[:5]]


def check_tuning(out: Path, config: dict) -> list[str]:
    header, rows = read_csv(out)
    if len(rows) != config["detuning_ghz"]["n"]:
        return [f"{len(rows)} rows, expected {config['detuning_ghz']['n']}"]
    values = _float_rows(rows)
    problems = [f"visibility {r[1]} outside [0, 1]" for r in values if not 0.0 <= r[1] <= 1.0][:5]
    for k in _sample(len(values))[::4]:
        dnu, v = values[k][:2]
        if not _close(v, overlap_weight(config["emitters"], dnu * GHZ), 1e-9):
            problems.append(f"visibility at {dnu} GHz: {v} != reference")
    return problems


def check_verify(out: Path, config: dict) -> list[str]:
    header, rows = read_csv(out)
    if len(rows) != 4:
        return [f"{len(rows)} check rows, expected 4"]
    return [f"check failed: {r[0]}" for r in rows if r[3] != "True"]


def worst_z(out: Path) -> float:
    """Largest z-score of the Monte-Carlo rows of a verify output."""
    _, rows = read_csv(out)
    return max(float(r[1]) for r in rows if "Monte-Carlo" in r[0])


def json_matches_csv(json_out: Path, csv_out: Path) -> list[str]:
    data = json.loads(json_out.read_text())
    header, rows = read_csv(csv_out)
    if data["columns"] != header:
        return ["JSON columns differ from CSV"]
    if data["rows"] != _float_rows(rows):
        return ["JSON rows differ from CSV"]
    return []


CHECKS = {
    "splits": check_splits,
    "voigt_splits": check_voigt_splits,
    "vmap": check_vmap,
    "fmap": check_fmap,
    "g2": check_g2,
    "tuning": check_tuning,
    "verify": check_verify,
}


def check_call(work: Path, call: dict, configs: dict) -> list[str]:
    """Problems with the output of one call; its bytes are checked as written."""
    out = work / call["out"]
    config = configs[call["argv"][2]]
    if out.suffix == ".json":
        return json_matches_csv(out, out.with_suffix(".csv"))
    if call["kind"] == "assess":
        families = [
            read_splits(work / name, configs[name[:-4] + ".json"]["constraint"]["lifetime_ps"])
            for name in call["splits"]
        ]
        return check_assess(out, config, families)
    return CHECKS[call["kind"]](out, config)
