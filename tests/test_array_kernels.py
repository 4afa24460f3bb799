"""The array kernels against test-local copies of their scalar forms.

Each kernel evaluates every element with the floating-point operations of
the scalar code it replaced, so the comparisons here are exact (``==``),
not approximate.  Warnings are errors: no kernel may leak a RuntimeWarning
from branches it computes and then discards.
"""

import math

import numpy as np
import pytest
from scipy.special import wofz

from tpi_sim.bell import EmitterConstraint, bell_fidelity, emitter_assessment
from tpi_sim.emitter import EmitterParams, InfeasibleDecompositionError, PhotonPair
from tpi_sim.emitter import decompose_voigt_fwhm
from tpi_sim.gates import TOMOGRAPHY_BASES, cnot_gate, compose, gate_quad, prep_gate
from tpi_sim.gates import tomography_gate
from tpi_sim.interference import SIGMA_LIFETIME_THRESHOLD, interference_weight, overlap_weight
from tpi_sim.numerics import GAUSS_FWHM_PER_SIGMA, voigt_fwhm, voigt_value

pytestmark = pytest.mark.filterwarnings("error")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# Scalar references: the per-element code the kernels replaced.
# --------------------------------------------------------------------------


def scalar_voigt_value(x, sigma, hwhm):
    if hwhm == 0.0:
        arg = x / sigma
        return math.exp(-0.5 * arg * arg) / (sigma * _SQRT_2PI)
    if sigma == 0.0:
        return hwhm / math.pi / (x * x + hwhm * hwhm)
    z = (x + 1j * hwhm) / (sigma * math.sqrt(2.0))
    return float(wofz(z).real) / (sigma * _SQRT_2PI)


def scalar_voigt_fwhm(lorentzian_fwhm, gaussian_fwhm, rtol=1e-13):
    if lorentzian_fwhm == 0.0:
        return gaussian_fwhm
    if gaussian_fwhm == 0.0:
        return lorentzian_fwhm
    sigma = gaussian_fwhm / GAUSS_FWHM_PER_SIGMA
    hwhm = 0.5 * lorentzian_fwhm
    half_peak = 0.5 * scalar_voigt_value(0.0, sigma, hwhm)
    lo, hi = 0.0, lorentzian_fwhm + gaussian_fwhm
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if scalar_voigt_value(mid, sigma, hwhm) >= half_peak:
            lo = mid
        else:
            hi = mid
    return lo + hi


def scalar_bisect_increasing(fn, target, lo, hi, rtol=1e-9):
    if fn(hi) < target:
        raise InfeasibleDecompositionError("target not bracketed")
    while hi - lo > rtol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_decompose_voigt_fwhm(lifetime, total_fwhm, n_points):
    fourier_fwhm = 1.0 / (2.0 * math.pi * lifetime)
    rate_max = math.pi * total_fwhm - 0.5 / lifetime
    gauss_max = scalar_bisect_increasing(
        lambda g: scalar_voigt_fwhm(fourier_fwhm, g), total_fwhm, 0.0, 2.0 * total_fwhm
    )
    pairs = [(rate_max, 0.0)]
    for fwhm in np.geomspace(gauss_max * 1e-3, gauss_max, n_points - 1):
        if fwhm == gauss_max:
            pairs.append((0.0, float(fwhm)))
            continue
        lor = scalar_bisect_increasing(
            lambda l: scalar_voigt_fwhm(l, fwhm), total_fwhm, 0.0, total_fwhm
        )
        pairs.append((max(math.pi * lor - 0.5 / lifetime, 0.0), float(fwhm)))
    return pairs


def scalar_weight(gamma, sigma, delta_nu, tau_sum):
    if sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD:
        return 2.0 * gamma / ((gamma * gamma + 4.0 * math.pi**2 * delta_nu**2) * tau_sum)
    z = (2.0 * math.pi * delta_nu + 1j * gamma) / (2.0 * math.pi * math.sqrt(2.0) * sigma)
    return float(wofz(z).real) / (_SQRT_2PI * sigma * tau_sum)


def scalar_pair_weight(pair):
    return scalar_weight(pair.gamma_total, pair.sigma_total, pair.delta_nu, pair.lifetime_sum)


def scalar_bell_fidelity(pair):
    """(fidelity, probabilities, success) from 30 coincidence probabilities."""
    weight = scalar_pair_weight(pair)

    def coincidence(gate, k, l):
        quad = gate_quad(gate, 3, 4, k, l)
        p0a, p0b = quad.p0_terms
        return p0a + p0b + 2.0 * quad.magnitude * math.cos(quad.phase) * weight

    base = compose(cnot_gate(), prep_gate())
    probs = {}
    success = []
    for basis in TOMOGRAPHY_BASES:
        gate = compose(tomography_gate(basis), base)
        probs[basis] = coincidence(gate, 3, 5)
        success.append(sum(coincidence(gate, ko, lo) for ko in (2, 3) for lo in (4, 5)))
    mean = float(np.mean(success))
    raw = probs["HH"] + probs["VV"] + probs["DD"] + probs["AA"] - probs["RR"] - probs["LL"]
    return raw / (2.0 * mean), probs, mean


def random_emitter(rng):
    """An emitter with Python-float fields, as the CLI builds them.

    (With a numpy float64 detuning the scalar code formed z with numpy's
    complex division, which multiplies by a reciprocal; the kernel always
    performs CPython's two real divisions.)
    """
    return EmitterParams(
        lifetime=float(10 ** rng.uniform(-10.5, -8.0)),
        dephasing_rate=float(rng.choice([0.0, 10 ** rng.uniform(6.0, 10.0)])),
        inhomogeneous_fwhm=float(rng.choice([0.0, 10 ** rng.uniform(0.0, 10.0)])),
        detuning=float(rng.choice([0.0, rng.uniform(-5e9, 5e9)])),
    )


# --------------------------------------------------------------------------
# numerics
# --------------------------------------------------------------------------


class TestVoigtKernels:
    def test_voigt_fwhm_array_equals_scalar_bisection(self):
        rng = np.random.default_rng(20)
        lor = 10 ** rng.uniform(3.0, 11.0, 240)
        gauss = 10 ** rng.uniform(3.0, 11.0, 240)
        lor[:20] = 0.0  # pure Gaussian branch
        gauss[20:40] = 0.0  # pure Lorentzian branch
        expected = [scalar_voigt_fwhm(l, g) for l, g in zip(lor.tolist(), gauss.tolist())]
        assert voigt_fwhm(lor, gauss).tolist() == expected
        assert voigt_fwhm(lor.reshape(12, 20), gauss.reshape(12, 20)).ravel().tolist() == expected
        for l, g, want in zip(lor[::20].tolist(), gauss[::20].tolist(), expected[::20]):
            got = voigt_fwhm(l, g)
            assert type(got) is float and got == want

    def test_voigt_fwhm_broadcasts_one_width(self):
        gauss = np.geomspace(1e6, 1e9, 7)
        expected = [scalar_voigt_fwhm(3e8, g) for g in gauss.tolist()]
        assert voigt_fwhm(3e8, gauss).tolist() == expected

    def test_voigt_fwhm_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            voigt_fwhm(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            voigt_fwhm(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_voigt_value_array_equals_scalar(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-5e9, 5e9, 300)
        sigma = 10 ** rng.uniform(6.0, 10.0, 300)
        hwhm = 10 ** rng.uniform(6.0, 10.0, 300)
        sigma[:30] = 0.0  # pure Lorentzian branch
        expected = [scalar_voigt_value(*v) for v in zip(x.tolist(), sigma.tolist(), hwhm.tolist())]
        assert voigt_value(x, sigma, hwhm).tolist() == expected
        hwhm[30:60] = 0.0  # pure Gaussian branch joins: array equals scalar calls
        values = voigt_value(x, sigma, hwhm)
        assert values.tolist() == [voigt_value(*v) for v in zip(x, sigma, hwhm)]


# --------------------------------------------------------------------------
# emitter
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lifetime,total_fwhm,n_points",
    [(1.72e-9, 119e6, 40), (850e-12, 270e6, 25), (9.5e-9, 19e6, 3)],
)
def test_decompose_voigt_fwhm_equals_nested_scalar_bisection(lifetime, total_fwhm, n_points):
    got = decompose_voigt_fwhm(lifetime, total_fwhm, n_points)
    assert got == scalar_decompose_voigt_fwhm(lifetime, total_fwhm, n_points)
    assert all(type(v) is float for pair in got for v in pair)


# --------------------------------------------------------------------------
# interference
# --------------------------------------------------------------------------


class TestOverlapKernel:
    def test_array_equals_scalar_formula(self):
        rng = np.random.default_rng(22)
        n = 4000
        gamma = 10 ** rng.uniform(8.0, 11.0, n)
        sigma = 10 ** rng.uniform(-1.0, 10.0, n)  # both sides of the switch
        sigma[:50] = 0.0
        delta_nu = rng.uniform(-1e10, 1e10, n)
        delta_nu[50:100] = 0.0
        tau_sum = 10 ** rng.uniform(-10.0, -8.0, n)
        # the Lorentzian limit squares delta_nu with pow, like Python's **,
        # which for some of these values differs from delta_nu * delta_nu
        assert any(d**2 != d * d for d in delta_nu.tolist())
        args = [a.tolist() for a in (gamma, sigma, delta_nu, tau_sum)]
        expected = [scalar_weight(*v) for v in zip(*args)]
        assert overlap_weight(gamma, sigma, delta_nu, tau_sum).tolist() == expected
        lorentzian = sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD
        assert 100 < np.count_nonzero(lorentzian) < n - 100

    def test_interference_weight_equals_scalar_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            pair = PhotonPair(random_emitter(rng), random_emitter(rng))
            got = interference_weight(pair)
            assert type(got) is float and got == scalar_pair_weight(pair)

    def test_pair_grid_equals_per_pair_formula(self):
        # both decomposition curves start at their all-dephasing endpoint
        # (rate_max, 0), so row 0 and column 0 pair a zero-width emitter and
        # entry [0, 0] takes the Lorentzian limit
        first = EmitterConstraint(lifetime=670e-12, coherence_time=330e-12)
        second = EmitterConstraint(lifetime=660e-12, coherence_time=420e-12)
        emitters_i = [EmitterParams(670e-12, max(r, 0.0), f) for r, f in first.decomposition(40)]
        emitters_j = [EmitterParams(660e-12, max(r, 0.0), f) for r, f in second.decomposition(40)]
        assert emitters_i[0].inhomogeneous_fwhm == emitters_j[0].inhomogeneous_fwhm == 0.0
        pairs = [[PhotonPair(ei, ej) for ej in emitters_j] for ei in emitters_i]
        expected = np.array([[scalar_pair_weight(p) for p in row] for row in pairs])
        grid = overlap_weight(
            np.array([[p.gamma_total for p in row] for row in pairs]),
            np.array([[p.sigma_total for p in row] for row in pairs]),
            0.0,
            670e-12 + 660e-12,
        )
        assert np.array_equal(grid, expected)
        assert pairs[0][0].sigma_total * pairs[0][0].lifetime_sum < SIGMA_LIFETIME_THRESHOLD
        result = emitter_assessment(first, second, n_points=40)
        assert result.visibility_range == (float(expected.min()), float(expected.max()))


# --------------------------------------------------------------------------
# bell
# --------------------------------------------------------------------------


class TestBellFromAffineTerms:
    def test_bell_fidelity_equals_thirty_probabilities(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            pair = PhotonPair(random_emitter(rng), random_emitter(rng))
            fidelity, probs, success = scalar_bell_fidelity(pair)
            res = bell_fidelity(pair)
            assert res.fidelity == fidelity
            assert res.basis_probabilities == probs
            assert res.success_probability == success

    def test_identical_sweep_equals_scalar_evaluation(self):
        constraint = EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6)
        result = emitter_assessment(constraint, n_points=12)
        for point in result.points:
            pair = PhotonPair.identical(
                EmitterParams(1.72e-9, point.dephasing_rate, point.inhomogeneous_fwhm)
            )
            assert point.visibility == scalar_pair_weight(pair)
            assert point.fidelity == scalar_bell_fidelity(pair)[0]
