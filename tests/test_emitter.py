import math

import numpy as np
import pytest

import tpi_sim
import tpi_sim.bell
from tpi_sim.emitter import (
    EmitterConstraint,
    EmitterParams,
    InfeasibleDecompositionError,
    PhotonPair,
    coherence_time,
    normalized_params,
)
from tpi_sim.bell import emitter_assessment
from tpi_sim.numerics import voigt_fwhm

LN2 = math.log(2.0)


class TestEmitterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmitterParams(lifetime=0.0)
        with pytest.raises(ValueError):
            EmitterParams(lifetime=1e-9, dephasing_rate=-1.0)
        with pytest.raises(ValueError):
            EmitterParams(lifetime=1e-9, inhomogeneous_fwhm=-1.0)
        with pytest.raises(ValueError):
            EmitterParams(lifetime=math.inf)

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_refused(self, detuning):
        with pytest.raises(ValueError, match="detuning must be finite"):
            EmitterParams(lifetime=1e-9, detuning=detuning)

    def test_linewidth_conventions(self):
        # the single most error-prone convention: Lorentzian FWHM = gamma_h / pi,
        # pinned by the 410 ps <-> 388 MHz and 12 ns <-> 13.3 MHz correspondences
        assert EmitterParams(410e-12).lorentzian_fwhm == pytest.approx(388.2e6, rel=1e-3)
        assert EmitterParams(12e-9).lorentzian_fwhm == pytest.approx(13.26e6, rel=1e-3)

    def test_sigma_fwhm_relation(self):
        e = EmitterParams(1e-9, inhomogeneous_fwhm=1.0e9)
        assert e.sigma * 2.0 * math.sqrt(2.0 * LN2) == pytest.approx(1.0e9, rel=1e-15)


class TestPhotonPair:
    def test_derived_quantities(self):
        pair = PhotonPair(
            EmitterParams(700e-12, 600e6, 1.4e9, detuning=3e9),
            EmitterParams(650e-12, 300e6, 0.8e9),
        )
        assert pair.gamma_total == pytest.approx(1 / 1.4e-9 + 1 / 1.3e-9 + 9e8, rel=1e-15)
        assert pair.sigma_sq_total == pytest.approx(
            (1.4e9**2 + 0.8e9**2) / (8.0 * LN2), rel=1e-14
        )
        assert pair.delta_nu == 3e9
        assert pair.t_plus == pytest.approx(1.0 / (1 / 700e-12 + 1 / 650e-12), rel=1e-15)

    def test_derived_fields_never_stale(self):
        # recomputed on access: two pairs sharing an emitter agree exactly
        e = EmitterParams(500e-12, 1e8, 2e8)
        assert PhotonPair(e, e).gamma_total == 2.0 * e.gamma_h


class TestCoherenceTime:
    def test_fourier_limit(self):
        assert coherence_time(410e-12, 0.0, 0.0) == pytest.approx(820e-12, rel=1e-15)

    def test_dephasing_dominated(self):
        # 670 ps lifetime with a 2.28e9 1/s dephasing rate gives ~330 ps
        tc = coherence_time(670e-12, 2.28e9, 0.0)
        assert tc == pytest.approx(1.0 / (0.5 / 670e-12 + 2.28e9), rel=1e-15)
        assert round(tc * 1e12) == 330

    def test_pd_only_is_exact(self):
        for tau_r, rate in [(1e-9, 0.0), (410e-12, 3.7e9), (12e-9, 5e6)]:
            assert coherence_time(tau_r, rate, 0.0) == 1.0 / (0.5 / tau_r + rate)

    def test_gaussian_only_pathological_limit(self):
        # gamma_h = 0 is reachable only with an infinite lifetime
        sp = 2.0e9
        assert coherence_time(math.inf, 0.0, sp) == pytest.approx(
            2.0 * math.sqrt(LN2) / (math.pi * sp), rel=1e-12
        )

    def test_no_catastrophic_cancellation_for_tiny_widths(self):
        # the naive -a + sqrt(a^2 + c) form returns 0 here
        tc = coherence_time(1.0, 0.0, 1e-12)
        assert tc == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("fwhm", [1e-80, 1e-200, 1e-320])
    def test_vanishing_gaussian_width_gives_pure_dephasing_limit(self, fwhm):
        # a * a overflows (or s'^2 underflows) in the unit-scale root form
        assert coherence_time(1e-9, 0.0, fwhm) == pytest.approx(2e-9, rel=1e-15, abs=0.0)
        assert normalized_params(EmitterParams(1e-9, 0.0, fwhm)).x_c == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("fwhm", [1.3e154, 1e200, 1.7e308])
    def test_huge_gaussian_width_gives_gaussian_limit(self, fwhm):
        # pi^2 s'^2 (or s'^2 itself) overflows in the unit-scale root form;
        # with gamma_h negligible tau_c -> 2 sqrt(ln2) / (pi s')
        expected = 2.0 * math.sqrt(LN2) / math.pi / fwhm
        rel = 1e-15 if expected > 1e-300 else 1e-9  # the last one is subnormal
        assert coherence_time(1e-9, 0.0, fwhm) == pytest.approx(expected, rel=rel, abs=0.0)

    def test_monotone_in_both_broadenings(self):
        tau_r = 600e-12
        rates = np.linspace(0.0, 5e9, 30)
        tcs = [coherence_time(tau_r, r, 0.7e9) for r in rates]
        assert np.all(np.diff(tcs) < 0.0)
        fwhms = np.linspace(0.0, 5e9, 30)
        tcs = [coherence_time(tau_r, 1e9, f) for f in fwhms]
        assert np.all(np.diff(tcs) < 0.0)


class TestDecomposeLinewidth:
    def test_endpoints_match_reported_values(self):
        pairs = EmitterConstraint(670e-12, coherence_time=330e-12).decomposition()
        rate_max, fwhm0 = pairs[0]
        rate0, fwhm_max = pairs[-1]
        assert fwhm0 == 0.0 and rate0 == 0.0
        assert rate_max == pytest.approx(2.28e9, rel=5e-3)
        assert fwhm_max == pytest.approx(1.39e9, rel=5e-3)

    def test_second_reported_endpoint(self):
        pairs = EmitterConstraint(155e-12, coherence_time=153e-12).decomposition()
        assert pairs[0][0] == pytest.approx(3.31e9, rel=5e-3)

    def test_round_trip(self):
        tau_r, tc = 256e-12, 256e-12
        for rate, fwhm in EmitterConstraint(tau_r, coherence_time=tc).decomposition():
            assert coherence_time(tau_r, rate, fwhm) == pytest.approx(tc, rel=1e-9)

    def test_fourier_limit_single_point(self):
        assert EmitterConstraint(1e-9, coherence_time=2e-9).decomposition() == [(0.0, 0.0)]

    def test_infeasible(self):
        with pytest.raises(InfeasibleDecompositionError):
            EmitterConstraint(1e-9, coherence_time=2.1e-9).decomposition()

    def test_point_count_and_ordering(self):
        pairs = EmitterConstraint(670e-12, coherence_time=330e-12).decomposition(50)
        assert len(pairs) == 50
        fwhms = [f for _, f in pairs]
        assert fwhms == sorted(fwhms)


class TestDecomposeVoigtFwhm:
    def test_fourier_limited_single_point(self):
        tau_r = 410e-12
        fourier = 1.0 / (2.0 * math.pi * tau_r)
        assert EmitterConstraint(tau_r, total_fwhm=fourier).decomposition() == [(0.0, 0.0)]

    def test_infeasible_below_fourier(self):
        with pytest.raises(InfeasibleDecompositionError):
            EmitterConstraint(12e-9, total_fwhm=10e6).decomposition()  # Fourier limit is ~13 MHz

    def test_round_trip(self):
        tau_r, fwhm = 1.72e-9, 119e6
        for rate, gauss in EmitterConstraint(tau_r, total_fwhm=fwhm).decomposition(40):
            lor = (0.5 / tau_r + rate) / math.pi
            assert voigt_fwhm(lor, gauss) == pytest.approx(fwhm, rel=1e-6) or gauss == 0.0
            if gauss == 0.0:
                assert lor == pytest.approx(fwhm, rel=1e-12)

    def test_known_split_on_curve(self):
        # a 480 MHz Lorentzian + 550 MHz Gaussian split belongs to the 850 MHz
        # curve: the sampled curve must bracket it monotonically
        tau_r = 410e-12
        total = voigt_fwhm(480e6, 550e6)
        pairs = EmitterConstraint(tau_r, total_fwhm=total).decomposition(400)
        rate_expected = math.pi * 480e6 - 0.5 / tau_r
        below = [r for r, f in pairs if f < 550e6]
        above = [r for r, f in pairs if f > 550e6]
        assert min(below) > rate_expected > max(above)
        rates = [r for r, _ in pairs]
        assert rates == sorted(rates, reverse=True)


class TestNormalizedParams:
    def test_fourier_limit(self):
        n = normalized_params(EmitterParams(1e-9))
        assert (n.theta_pd, n.theta_sd, n.x_c) == (1.0, 0.0, 1.0)

    def test_half_coherence(self):
        tau_r = 1e-9
        n = normalized_params(EmitterParams(tau_r, dephasing_rate=0.5 / tau_r))
        assert n.theta_pd == pytest.approx(2.0, rel=1e-15)
        assert n.x_c == pytest.approx(0.5, rel=1e-15)

    def test_theta_sd_scaling(self):
        n = normalized_params(EmitterParams(1e-9, inhomogeneous_fwhm=1e9))
        assert n.theta_sd == pytest.approx(1.0, rel=1e-15)

    def test_invariants_enforced(self):
        from tpi_sim.emitter import NormalizedParams

        with pytest.raises(ValueError):
            NormalizedParams(theta_pd=0.5, theta_sd=0.0, x_c=0.5)
        with pytest.raises(ValueError):
            NormalizedParams(theta_pd=1.0, theta_sd=-0.1, x_c=0.5)
        with pytest.raises(ValueError):
            NormalizedParams(theta_pd=1.0, theta_sd=0.0, x_c=1.5)


DECOMPOSITIONS = [
    pytest.param(EmitterConstraint(1e-9, coherence_time=1e-9), id="coherence_time"),
    pytest.param(EmitterConstraint(1.72e-9, total_fwhm=119e6), id="total_fwhm"),
]


class TestSplitCurve:
    """Both decompositions share one curve: (rate_max, 0), the geometric
    interior from fwhm_max / 1000, then (0, fwhm_max)."""

    @pytest.mark.parametrize("constraint", DECOMPOSITIONS)
    def test_two_points_are_the_two_endpoints(self, constraint):
        full = constraint.decomposition(200)
        assert full[0][1] == 0.0 and full[-1][0] == 0.0
        assert constraint.decomposition(2) == [full[0], full[-1]]

    @pytest.mark.parametrize("constraint", DECOMPOSITIONS)
    def test_three_points_add_the_narrowest_interior_split(self, constraint):
        full = constraint.decomposition(200)
        pairs = constraint.decomposition(3)
        assert pairs[0] == full[0] and pairs[2] == full[-1]
        assert pairs[1] == full[1]
        assert pairs[1][1] == full[-1][1] * 1e-3
        assert 0.0 < pairs[1][0] < pairs[0][0]

    @pytest.mark.parametrize("n_points", [2, 3, 200])
    @pytest.mark.parametrize("constraint", DECOMPOSITIONS)
    def test_pairs_are_python_floats(self, constraint, n_points):
        pairs = constraint.decomposition(n_points)
        assert len(pairs) == n_points
        assert all(type(x) is float for pair in pairs for x in pair)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestConstraintCurve:
    """``EmitterConstraint.curve`` holds, bit for bit, what the scalar
    objects give for every split of :meth:`EmitterConstraint.decomposition`."""

    CONSTRAINTS = [
        EmitterConstraint(lifetime=670e-12, coherence_time=330e-12),
        EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6),
        EmitterConstraint(lifetime=410e-12, lorentzian_fwhm=480e6, gaussian_fwhm=550e6),
        EmitterConstraint(lifetime=12e-9, lorentzian_fwhm_max=20e6, gaussian_fwhm=100e6),
    ]

    @pytest.mark.parametrize("n_points", [2, 3, 40])
    @pytest.mark.parametrize(
        "constraint", CONSTRAINTS,
        ids=["coherence_time", "total_fwhm", "lorentzian_fwhm", "lorentzian_fwhm_max"],
    )
    def test_columns_equal_the_scalar_objects(self, constraint, n_points):
        rates, fwhms, gamma_h, sigma_sq, theta_pd, theta_sd = constraint.curve(n_points)
        emitters = [
            EmitterParams(constraint.lifetime, max(rate, 0.0), fwhm)
            for rate, fwhm in constraint.decomposition(n_points)
        ]
        pairs = [PhotonPair.identical(e) for e in emitters]
        normalized = [normalized_params(e) for e in emitters]
        assert len(rates) == len(emitters)
        assert _bits(rates) == _bits([e.dephasing_rate for e in emitters])
        assert _bits(fwhms) == _bits([e.inhomogeneous_fwhm for e in emitters])
        assert _bits(gamma_h) == _bits([e.gamma_h for e in emitters])
        assert _bits(sigma_sq) == _bits([e.sigma**2 for e in emitters])
        assert _bits(gamma_h + gamma_h) == _bits([p.gamma_total for p in pairs])
        assert _bits(sigma_sq + sigma_sq) == _bits([p.sigma_sq_total for p in pairs])
        assert _bits(theta_pd) == _bits([n.theta_pd for n in normalized])
        assert _bits(theta_sd) == _bits([n.theta_sd for n in normalized])

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    @pytest.mark.parametrize(
        "constraint", CONSTRAINTS,
        ids=["coherence_time", "total_fwhm", "lorentzian_fwhm", "lorentzian_fwhm_max"],
    )
    def test_every_mode_needs_two_points(self, constraint, n_points):
        # one rule for every mode, the known split included
        for call in (constraint.decomposition, constraint.curve,
                     lambda n: emitter_assessment(constraint, n_points=n)):
            with pytest.raises(ValueError, match="n_points must be at least 2"):
                call(n_points)

    def test_one_class_everywhere(self):
        assert tpi_sim.emitter.EmitterConstraint is tpi_sim.bell.EmitterConstraint
        assert tpi_sim.bell.EmitterConstraint is tpi_sim.EmitterConstraint
