"""The array kernels against test-local copies of their scalar forms.

Each kernel evaluates every element with the floating-point operations of
its scalar form, so the comparisons here are exact (``==``), not
approximate.  The scalar form is the code the kernel replaced, on the
package's Faddeeva kernel (``faddeeva_w``, whose own array and scalar
calls agree bit for bit), except for the Voigt half-maximum solver
``numerics._voigt_width`` behind ``voigt_fwhm`` and the Voigt splits: its
one reference, for all three unknown widths, runs the safeguarded Newton
iteration of ``numerics._newton`` one element at a time, on the kernel's
value and slope at single points.  ``coherence_time`` is held to a copy
of its scalar form at the edges of each branch.
The identical-pair fidelities of ``emitter_assessment`` are the affine
``fidelity_at_weight`` and agree with the 30 probabilities of
``bell_fidelity`` to rounding.  The kernels that skip a branch, a mask
pass or an eager object when no element needs it are held, bit for bit,
to test-local copies of the forms that computed everything.  Warnings are
errors: no kernel may leak a RuntimeWarning from branches it computes and
then discards.
"""

import math

import numpy as np
import pytest

from tpi_sim.bell import AssessmentPoint, EmitterConstraint, bell_fidelity, emitter_assessment
from tpi_sim.bell import fidelity_at_weight
from tpi_sim.emitter import EmitterParams, PhotonPair, coherence_time, decompose_voigt_fwhm
from tpi_sim.gates import TOMOGRAPHY_BASES, beam_splitter, cnot_gate, compose, gate_quad
from tpi_sim.gates import prep_gate, tomography_gate
from tpi_sim.interference import SIGMA_LIFETIME_THRESHOLD, _baseline, _interference_term
from tpi_sim.interference import _phase_factor, averaged_phase_factor, interference_weight
from tpi_sim.interference import overlap_weight
from tpi_sim.numerics import GAUSS_FWHM_PER_SIGMA, _faddeeva, _voigt_residual, faddeeva_w
from tpi_sim.numerics import voigt_fwhm

pytestmark = pytest.mark.filterwarnings("error")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# Scalar references: the per-element code the kernels replaced.
# --------------------------------------------------------------------------


def kernel_at(x, y):
    """(Re w, Im w, Re w', Im w') of the package kernel at the single point x + iy."""
    return tuple(float(v[0]) for v in _faddeeva(np.array([x]), np.array([y]), slope=True))


def scalar_newton(residual, x, hi, rtol):
    """numerics._newton for one element: residual(x) -> (f, f')."""
    lo, last = 0.0, hi
    while True:
        f, slope = residual(x)
        if f < 0.0:
            lo = x
        else:
            hi = x
        newton = x - f / slope if slope != 0.0 else math.nan  # numpy: inf or nan
        step = abs(newton - x)
        small = step <= rtol * x
        take = small or lo < newton < hi and step <= 0.5 * last
        new = newton if take else 0.5 * (lo + hi)
        step = abs(new - x)
        done = f == 0.0 or small or hi - lo <= rtol * hi
        if f != 0.0:
            x = new
        last = step
        if done:
            return x


def scalar_voigt_width(total, lor, gauss, unknown, rtol=1e-13):
    """numerics._voigt_width for one element: the FWHM named by ``unknown``
    ("total", "lorentzian" or "gaussian"), whose argument is not read."""
    widths = {"total": total, "lorentzian": lor, "gaussian": gauss}

    def points(x):
        """(s, Re z_F, Im z_F = Im z_0) with the unknown width at x."""
        w = {**widths, unknown: x}
        s = GAUSS_FWHM_PER_SIGMA / (w["gaussian"] * math.sqrt(2.0))
        return s, 0.5 * w["total"] * s, 0.5 * w["lorentzian"] * s

    if unknown == "total":
        bound = lor + gauss
        start = 0.5346 * lor + math.sqrt(0.2166 * lor * lor + gauss * gauss)
        peak = kernel_at(0.0, points(bound)[2])[0]  # z_0 does not move with F
    elif unknown == "lorentzian":
        bound = total
        b = 1.0692 * total
        c = (total - gauss) * (total + gauss)
        start = 2.0 * c / (b + math.sqrt(b * b - 4.0 * 0.06919716 * c))
    else:
        bound = total
        g = total - 0.5346 * lor
        start = math.sqrt(max(g * g - 0.2166 * (lor * lor), 0.0))
    start = min(max(start, 1e-3 * bound), 2.0 * bound)

    def residual(x):
        s, a, y = points(x)
        re_f, _, dre_f, dim_f = kernel_at(a, y)
        if unknown == "total":
            return 0.5 * peak - re_f, -0.5 * s * dre_f
        re_0, _, _, dim_0 = kernel_at(0.0, y)
        if unknown == "lorentzian":
            slope = (0.5 * dim_0 - dim_f) * (0.5 * s)
        else:
            slope = (y * (dim_f - 0.5 * dim_0) - a * dre_f) / x
        return re_f - 0.5 * re_0, slope

    return scalar_newton(residual, start, 2.0 * bound, rtol)


def scalar_voigt_fwhm(lorentzian_fwhm, gaussian_fwhm):
    if lorentzian_fwhm == 0.0:
        return gaussian_fwhm
    if gaussian_fwhm == 0.0:
        return lorentzian_fwhm
    return scalar_voigt_width(None, lorentzian_fwhm, gaussian_fwhm, "total")


def scalar_decompose_voigt_fwhm(lifetime, total_fwhm, n_points):
    """One scalar Newton solve per unknown width on the half-maximum condition."""
    fourier_fwhm = 1.0 / (2.0 * math.pi * lifetime)
    rate_max = math.pi * total_fwhm - 0.5 / lifetime
    gauss_max = scalar_voigt_width(total_fwhm, fourier_fwhm, None, "gaussian")
    pairs = [(rate_max, 0.0)]
    for fwhm in np.geomspace(gauss_max * 1e-3, gauss_max, n_points - 1).tolist():
        if fwhm == gauss_max:
            pairs.append((0.0, fwhm))
            continue
        lor = scalar_voigt_width(total_fwhm, None, fwhm, "lorentzian")
        pairs.append((max(math.pi * lor - 0.5 / lifetime, 0.0), fwhm))
    return pairs


def scalar_coherence_time(lifetime, dephasing_rate, inhomogeneous_fwhm):
    """emitter.coherence_time as it was before its array form, one float at a time."""
    ln2 = math.log(2.0)
    gamma_h = 0.5 / lifetime + dephasing_rate
    if inhomogeneous_fwhm == 0.0:
        return 1.0 / gamma_h
    sp2 = inhomogeneous_fwhm * inhomogeneous_fwhm
    if 0.0 < sp2 < math.inf:
        a = 2.0 * ln2 / math.pi**2 * gamma_h / sp2
        c = 4.0 * ln2 / (math.pi**2 * sp2)
        if 0.0 < a * a < math.inf and 0.0 < c < math.inf:
            return c / (a + math.sqrt(a * a + c))
    k, root_c = 2.0 * ln2 / math.pi**2 * gamma_h, 2.0 * math.sqrt(ln2) / math.pi
    return 4.0 * ln2 / math.pi**2 / (k + math.hypot(k, root_c * inhomogeneous_fwhm))


def scalar_weight(gamma, sigma, delta_nu, tau_sum):
    if sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD:
        return 2.0 * gamma / ((gamma * gamma + 4.0 * math.pi**2 * delta_nu**2) * tau_sum)
    z = (2.0 * math.pi * delta_nu + 1j * gamma) / (2.0 * math.pi * math.sqrt(2.0) * sigma)
    return faddeeva_w(z).real / (_SQRT_2PI * sigma * tau_sum)


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
    def test_voigt_fwhm_array_equals_scalar_newton(self):
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
        # a nan width would start the Newton solve at nan, which never freezes
        for lor, gauss in ((math.nan, 1.0), (1.0, math.nan), (np.array([1.0, math.nan]), 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                voigt_fwhm(lor, gauss)
        with pytest.raises(ValueError):
            voigt_fwhm(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


# --------------------------------------------------------------------------
# emitter
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lifetime,total_fwhm,n_points",
    [(1.72e-9, 119e6, 40), (850e-12, 270e6, 25), (9.5e-9, 19e6, 3)],
)
def test_decompose_voigt_fwhm_equals_scalar_newton(lifetime, total_fwhm, n_points):
    got = decompose_voigt_fwhm(lifetime, total_fwhm, n_points)
    assert got == scalar_decompose_voigt_fwhm(lifetime, total_fwhm, n_points)
    assert all(type(v) is float for pair in got for v in pair)


class TestCoherenceTimeKernel:
    def edge_widths(self):
        """s' = 0, and s' about where s'^2 underflows to 0, turns subnormal and overflows."""
        widths = [0.0, 1e-170, 1e-150, 1.0, 1e150, 1e160, 1e300, 1.7e308]
        for square in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308):
            edge = math.sqrt(square)
            widths += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)]
        return np.array(widths)

    def check(self, lifetime, rate, fwhm):
        args = np.broadcast_arrays(lifetime, rate, fwhm)
        expected = [scalar_coherence_time(*v) for v in zip(*(a.ravel().tolist() for a in args))]
        got = coherence_time(lifetime, rate, fwhm)
        assert same_bits(got, np.reshape(expected, args[0].shape))
        return got

    def test_branch_edges_equal_the_scalar_form(self):
        # gamma_h from 5e-301 to 5e299 per second: a^2 underflows and
        # overflows, and c overflows where s'^2 is subnormal
        lifetime = np.geomspace(1e-300, 1e300, 31)[:, None, None]
        rate = np.array([0.0, 1e-100, 1e3, 1e9, 1e150])[:, None]
        tau_c = self.check(lifetime, rate, self.edge_widths())
        assert np.all(tau_c > 0.0)

    def test_random_points_over_the_float_range(self):
        rng = np.random.default_rng(34)
        lifetime = 10 ** rng.uniform(-300.0, 300.0, 20000)
        rate = rng.choice([0.0, 1.0], 20000) * 10 ** rng.uniform(-300.0, 300.0, 20000)
        fwhm = 10 ** rng.uniform(-170.0, 308.0, 20000)
        self.check(lifetime, rate, fwhm)

    def test_the_fallback_near_equal_hypot_terms(self):
        # s'^2 overflows and k is comparable with 2 sqrt(ln2) s' / pi: the
        # terms where numpy's hypot and math.hypot differ in the last bit
        rng = np.random.default_rng(35)
        fwhm = 10 ** rng.uniform(154.2, 300.0, 4000)
        rate = fwhm * 10 ** rng.uniform(0.0, 0.6, 4000)
        self.check(1e-9, rate, fwhm)

    def test_scalar_call_returns_a_float(self):
        for args in [(1e-9, 0.0, 0.0), (1e-9, 1e8, 3e8), (1e-9, 1e8, 1e160)]:
            got = coherence_time(*args)
            assert type(got) is float and got == scalar_coherence_time(*args)
        assert coherence_time(1e-9, 0.0, np.zeros((2, 3))).shape == (2, 3)

    def test_rejects_what_the_scalar_form_rejected(self):
        with pytest.raises(ValueError):
            coherence_time(1e-9, 0.0, np.array([1e8, -1.0]))
        with pytest.raises(ValueError):
            coherence_time(math.inf, np.array([0.0, 1.0]), 0.0)
        # the scalar form raised ZeroDivisionError at a zero lifetime
        with pytest.raises(ValueError):
            coherence_time(np.array([1e-9, 0.0]), 0.0, 1e8)


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
            # the affine form of the 30 probabilities, to rounding
            assert point.fidelity == fidelity_at_weight(point.visibility)
            reference = bell_fidelity(pair).fidelity
            assert abs(point.fidelity - reference) <= 1e-15 * abs(reference)


# --------------------------------------------------------------------------
# Single-branch paths against forms that compute every branch
# --------------------------------------------------------------------------


def same_bits(a, b):
    """Equal shape and identical IEEE bits (signed zeros and nan included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def both_branches_weight(gamma, sigma, delta_nu, tau_sum):
    """overlap_weight as it was with both branches formed everywhere and
    selected by one np.where."""
    gamma, sigma, delta_nu, tau_sum = (
        np.asarray(v, dtype=float) for v in (gamma, sigma, delta_nu, tau_sum)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        limit = (
            2.0 * gamma
            / ((gamma * gamma + 4.0 * math.pi**2 * np.float_power(delta_nu, 2)) * tau_sum)
        )
        scale = 2.0 * math.pi * math.sqrt(2.0) * sigma
        shape = np.broadcast(gamma, scale, delta_nu).shape
        x = np.broadcast_to(2.0 * math.pi * delta_nu / scale, shape).ravel()
        y = np.broadcast_to(gamma / scale, shape).ravel()
        general = _faddeeva(x, y)[0].reshape(shape) / (_SQRT_2PI * sigma * tau_sum)
        out = np.where(sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD, limit, general)
    return float(out) if out.ndim == 0 else out


def heaviside_baseline(quad, pair, tau):
    """interference._baseline as it was: both exponentials of each term
    formed on every lag and weighted by half-maximum steps."""
    ti, tj = pair.emitter_i.lifetime, pair.emitter_j.lifetime
    p0a, p0b = quad.p0_terms
    pos = np.heaviside(tau, 0.5)
    neg = np.heaviside(-tau, 0.5)
    tp = np.where(tau > 0.0, tau, 0.0)
    tn = np.where(tau < 0.0, tau, 0.0)
    term_a = pos * np.exp(-tp / ti) + neg * np.exp(tn / tj)
    term_b = pos * np.exp(-tp / tj) + neg * np.exp(tn / ti)
    return (p0a * term_a + p0b * term_b) / (ti + tj)


def trace_cases():
    """(quad, pair, lags) of 60 random gates and lifetime-only pairs: the
    default 4001-point trace grid, signed zeros, infinities, extreme
    magnitudes, and 60 random lags between 1e-320 and 1e300 in size."""
    rng = np.random.default_rng(34)
    edges = [0.0, math.inf, 5e-324, 1e308, 1e-300, 1e-9]
    edges = np.array(edges + [-v for v in edges])
    cnot = compose(cnot_gate(), prep_gate())
    for n in range(60):
        pair = PhotonPair(*(EmitterParams(float(10 ** rng.uniform(-11.0, -8.0)))
                            for _ in range(2)))
        if n % 2:
            gate, modes = beam_splitter(float(rng.uniform(0.0, 1.0))), (1, 2, 1, 2)
        else:
            gate = compose(tomography_gate(TOMOGRAPHY_BASES[n % 6]), cnot)
            modes = (3, 4, int(rng.integers(1, 4)), int(rng.integers(4, 7)))
        span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
        tau = np.concatenate([np.linspace(-span, span, 4001), edges,
                              rng.choice([-1.0, 1.0], 60) * 10 ** rng.uniform(-320, 300, 60)])
        yield gate_quad(gate, *modes), pair, tau


def inline_interference_term(quad, pair, tau):
    """interference._interference_term as it was, its envelope and beat
    written inline."""
    envelope = np.exp(
        -pair.gamma_total * np.abs(tau) - 2.0 * math.pi**2 * pair.sigma_sq_total * tau * tau
    )
    beat = np.cos(2.0 * math.pi * pair.delta_nu * tau - quad.phase)
    return 2.0 * quad.magnitude / pair.lifetime_sum * envelope * beat


def concatenated_residual(total_fwhm, lor, gauss, lorentzian):
    """The Voigt half-maximum residual of a component width as the split solve
    once formed it, z_F and z_0 of every element in one Faddeeva call (y
    repeated by ``np.tile``)."""
    x = lor if lorentzian else gauss
    s = GAUSS_FWHM_PER_SIGMA / (gauss * math.sqrt(2.0))
    a, y = 0.5 * total_fwhm * s, 0.5 * lor * s
    m = x.size
    re, im, dre, dim = _faddeeva(np.concatenate([a, np.zeros(m)]), np.tile(y, 2), slope=True)
    if lorentzian:
        slope = (0.5 * dim[m:] - dim[:m]) * (0.5 * s)
    else:
        slope = (y * (dim[:m] - 0.5 * dim[m:]) - a * dre[:m]) / x
    return re[:m] - 0.5 * re[m:], slope


class TestSingleBranchPaths:
    def test_weight_straddling_the_threshold(self):
        rng = np.random.default_rng(31)
        tau_sum = 10 ** rng.uniform(-10.0, -8.0, 400)
        # Sigma * tau_sum from 1e-9 to 1e-3, across the Lorentzian switch at 1e-6
        sigma = 10 ** rng.uniform(-9.0, -3.0, 400) / tau_sum
        gamma = 10 ** rng.uniform(6.0, 11.0, 400)
        delta_nu = rng.choice([0.0, 1.0], 400) * rng.uniform(-5e9, 5e9, 400)
        sigma[:40] = 0.0
        args = (gamma, sigma, delta_nu, tau_sum)
        assert same_bits(overlap_weight(*args), both_branches_weight(*args))
        # every element below the threshold, and every element above it
        for part in (sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD, sigma * tau_sum > 1e-5):
            args = (gamma[part], sigma[part], delta_nu[part], tau_sum[part])
            assert same_bits(overlap_weight(*args), both_branches_weight(*args))

    def test_weight_at_nonfinite_entries(self):
        # every combination of 0, inf, nan and a finite value, warning-free
        special = [0.0, math.inf, math.nan, 1e9]
        gamma, sigma, delta_nu = np.array(np.meshgrid(special, special, special)).reshape(3, -1)
        args = (gamma, sigma, delta_nu, 1e-9)
        assert same_bits(overlap_weight(*args), both_branches_weight(*args))

    def test_weight_scalar_and_broadcast_shapes(self):
        cases = [
            (2e9, 3e8, 1e8, 1e-9),
            (2e9, 1e-3, 0.0, 1e-9),  # the Lorentzian limit, as a scalar
            (2e9, 0.0, 1e8, 1e-9),
            (np.geomspace(1e8, 1e10, 5)[:, None], np.geomspace(1e-2, 1e9, 7), 0.0, 2e-9),
            (2e9, np.geomspace(1e-2, 1e9, 7)[:, None], np.linspace(-1e9, 1e9, 3), 1e-9),
            (np.full((2, 1, 1), 3e9), 3e8, np.linspace(0.0, 1e9, 4)[:, None],
             np.array([1e-9, 2e-9])),
            (np.array([]), 1e8, 0.0, 1e-9),
        ]
        for args in cases:
            got, want = overlap_weight(*args), both_branches_weight(*args)
            assert type(got) is type(want)
            assert same_bits(got, want), args

    def test_axis_path_against_a_mixed_call(self):
        rng = np.random.default_rng(32)
        y = np.concatenate([[0.0, 0.0, 1e-300, 6.2831853, 2 * math.pi, 999.9999],
                            10 ** rng.uniform(-8.0, 2.9, 200)])
        x = np.where(np.arange(y.size) % 3 == 0, -0.0, 0.0)
        for slope in (False, True):
            alone = _faddeeva(x, y, slope=slope)
            # one point off the axis sends the call through the per-region masks
            mixed = _faddeeva(np.append(x, 1.5), np.append(y, 0.7), slope=slope)
            for a, b in zip(alone, mixed):
                assert same_bits(a, b[:-1])
            re, im = alone[:2]
            assert re[0] == 1.0 and same_bits(im, np.where(np.signbit(x), -0.0, 0.0))
        # far points on the axis take the series, whether alone or next to near ones
        far_y = np.array([1e3, 5e4, 1e12, 1e300])
        far_x = np.array([0.0, -0.0, 0.0, -0.0])
        alone = _faddeeva(far_x, far_y, slope=True)
        mixed = _faddeeva(np.append(far_x, x), np.append(far_y, y), slope=True)
        for a, b in zip(alone, mixed):
            assert same_bits(a, b[:4])
        for k in range(4):
            point = [float(v[k]) for v in alone]
            assert point == list(kernel_at(far_x[k], far_y[k]))

    def test_baseline_against_the_heaviside_form(self):
        for quad, pair, tau in trace_cases():
            with np.errstate(over="ignore"):  # +-1e308 / lifetime, in both forms
                assert same_bits(_baseline(quad, pair, tau), heaviside_baseline(quad, pair, tau))
            # a 0-d lag, and a nan lag stays nan (its sign bit is not kept)
            assert same_bits(_baseline(quad, pair, tau[7]), heaviside_baseline(quad, pair, tau[7]))
            assert np.isnan(_baseline(quad, pair, np.array([math.nan]))).all()

    @pytest.mark.parametrize("lorentzian", [True, False])
    def test_voigt_residual_against_one_concatenated_call(self, lorentzian):
        rng = np.random.default_rng(33 + lorentzian)
        total = 2.5e8
        fixed = total * np.geomspace(1e-4, 1.9, 300)  # the narrowest make far points
        x = total * 10 ** rng.uniform(-4.0, np.log10(2.0), 300)
        lor, gauss = (x, fixed) if lorentzian else (fixed, x)
        got = _voigt_residual(total, lor, gauss, "lorentzian" if lorentzian else "gaussian")
        want = concatenated_residual(total, lor, gauss, lorentzian)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        far = np.maximum(0.5 * total, 0.5 * lor) * GAUSS_FWHM_PER_SIGMA / (gauss * math.sqrt(2.0))
        assert np.any(far >= 1e3) and np.any(far < 1e3)

    @pytest.mark.parametrize(
        "constraint",
        [
            EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6),
            EmitterConstraint(lifetime=12e-9, lorentzian_fwhm_max=20e6, gaussian_fwhm=100e6),
            EmitterConstraint(lifetime=670e-12, coherence_time=330e-12),
        ],
    )
    def test_assessment_points_equal_the_eager_tuple(self, constraint):
        result = emitter_assessment(constraint, n_points=40)
        rates, fwhms, gamma, var, theta_pd, theta_sd = constraint.curve(40)
        weights = overlap_weight(gamma + gamma, np.sqrt(var + var), 0.0,
                                 constraint.lifetime + constraint.lifetime)
        columns = (rates, fwhms, theta_pd, theta_sd, weights, fidelity_at_weight(weights))
        eager = tuple(AssessmentPoint(*row) for row in zip(*(c.tolist() for c in columns)))
        assert result.points == eager and len(eager) == 40
        assert result.points == result.points  # built again, the same
        assert result.visibility_range == (min(weights.tolist()), max(weights.tolist()))
        assert emitter_assessment(constraint, constraint, n_points=5).points is None


class TestPhaseFactorKernel:
    def test_interference_term_against_the_inline_form(self):
        rng = np.random.default_rng(35)
        for quad, pair, tau in trace_cases():
            # the same lifetimes with dephasing, inhomogeneous widths and a detuning
            jittered = PhotonPair(
                EmitterParams(pair.emitter_i.lifetime, *rng.uniform(0.0, 3e9, 2).tolist()),
                EmitterParams(pair.emitter_j.lifetime, *rng.uniform(0.0, 3e9, 2).tolist(),
                              detuning=float(rng.uniform(-3e9, 3e9))),
            )
            for p in (pair, jittered):
                # infinite and huge lags overflow, and 0 * inf is nan, in both forms
                with np.errstate(over="ignore", invalid="ignore"):
                    assert same_bits(_interference_term(quad, p, tau),
                                     inline_interference_term(quad, p, tau))

    def test_phase_factor_scalar_calls_against_the_kernel(self):
        # a scalar lag runs the array kernel of _interference_term, bit for bit
        rng = np.random.default_rng(36)
        for _ in range(30):
            pair = PhotonPair(random_emitter(rng), random_emitter(rng))
            rates = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
            span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
            tau = np.concatenate([[0.0, -0.0], rng.uniform(-span, span, 200)])
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            envelope, beat = _phase_factor(rates, pair.sigma_sq_total, pair.delta_nu, tau, phase)
            scalar = [averaged_phase_factor(pair, t, phase) for t in tau.tolist()]
            assert all(type(v) is float for v in scalar)
            assert same_bits(np.array(scalar), 2.0 * envelope * beat)
