import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from tpi_sim import interference
from tpi_sim.emitter import EmitterParams, PhotonPair
from tpi_sim.gates import GateMatrix, beam_splitter
from tpi_sim.interference import (
    SIGMA_LIFETIME_THRESHOLD,
    averaged_phase_factor,
    coincidence_probability,
    g2_trace,
    hom_visibility,
    interference_weight,
    joint_detection_probability,
    tuning_curve,
    visibility_map,
)
from tpi_sim.oracle import exponential_wave, quadrature_p_coinc

from helpers import detuned, pair_from_normalized, visibility_pd_only

HOM = beam_splitter(0.5)

# the worked tuning-curve scenario used throughout: two quantum dots with
# 700/650 ps lifetimes, 600/300 MHz dephasing rates, 1.4/0.8 GHz diffusion
QD_PAIR = PhotonPair(
    EmitterParams(700e-12, 600e6, 1.4e9),
    EmitterParams(650e-12, 300e6, 0.8e9),
)
# frozen with an independent 40-digit evaluation of the closed form
QD_V_RESONANT = 0.29161239690735356
QD_V_3GHZ = 0.011838359572131006


def fourier_pair(lifetime=1e-9):
    return PhotonPair.identical(EmitterParams(lifetime))


class TestJointDetectionProbability:
    def test_identical_packets_cancel_exactly(self):
        zeta = exponential_wave(0.8e-9, frequency=1e9)
        for t0, tau in [(0.1e-9, 0.0), (0.3e-9, 0.2e-9), (1e-9, -0.4e-9)]:
            assert joint_detection_probability(HOM, 1, 2, 1, 2, zeta, zeta, t0, tau) == 0.0

    def test_matches_direct_formula_for_symmetric_splitter(self):
        z1 = exponential_wave(0.7e-9, frequency=2e9)
        z2 = exponential_wave(0.5e-9, frequency=0.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            t0 = rng.uniform(0.0, 2e-9)
            tau = rng.uniform(-1e-9, 1e-9)
            expected = 0.25 * abs(z1(t0 + tau) * z2(t0) - z2(t0 + tau) * z1(t0)) ** 2
            got = joint_detection_probability(HOM, 1, 2, 1, 2, z1, z2, t0, tau)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-30)

    def test_identity_gate_selects_single_term(self):
        eye = GateMatrix(np.eye(3))
        z1 = exponential_wave(0.7e-9)
        z2 = exponential_wave(0.5e-9)
        t0, tau = 0.2e-9, 0.3e-9
        # detector order (k, l) = (j, i): photons pass straight through and
        # only the first pairing contributes
        p = joint_detection_probability(eye, 1, 2, 2, 1, z1, z2, t0, tau)
        assert p == pytest.approx(abs(z1(t0 + tau)) ** 2 * abs(z2(t0)) ** 2, rel=1e-12)
        # an output pair that does not match the occupied inputs is dark
        assert joint_detection_probability(eye, 1, 2, 1, 3, z1, z2, t0, tau) == 0.0

    def test_vectorized_over_t0(self):
        z1 = exponential_wave(0.7e-9)
        z2 = exponential_wave(0.5e-9)
        t0 = np.linspace(0.0, 2e-9, 50)
        out = joint_detection_probability(HOM, 1, 2, 1, 2, z1, z2, t0, 0.1e-9)
        assert out.shape == t0.shape
        assert np.all(out >= 0.0)

    def test_mode_validation(self):
        z = exponential_wave(1e-9)
        with pytest.raises(ValueError):
            joint_detection_probability(HOM, 1, 1, 1, 2, z, z, 0.0, 0.0)
        with pytest.raises(ValueError):
            joint_detection_probability(HOM, 1, 2, 2, 2, z, z, 0.0, 0.0)


def default_lags(pair):
    """The lags of ``g2``'s default grid: 4001 over +-10 times the slower lifetime."""
    span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
    return np.linspace(-span, span, 4001)


class TestG2Trace:
    def test_dip_at_zero_lag(self):
        g2, _ = g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, np.linspace(-7e-9, 7e-9, 4001))
        assert abs(g2[2000]) * QD_PAIR.lifetime_sum < 1e-10

    def test_distinguishable_baseline_peak(self):
        # with the half-maximum step convention the baseline at zero lag is
        # 1/(4 tau_r) for equal lifetimes
        tau_r = 0.8e-9
        pair = fourier_pair(tau_r)
        value = g2_trace(HOM, 1, 2, 1, 2, pair, 0.0)[1]
        assert value == pytest.approx(1.0 / (4.0 * tau_r), rel=1e-12)

    def test_quantum_beat_period(self):
        pair = detuned(QD_PAIR, 3e9)
        grid = np.linspace(-2e-9, 2e-9, 16001)
        g2, g0 = g2_trace(HOM, 1, 2, 1, 2, pair, grid)
        crossings = np.where(np.diff(np.sign(g2 - g0)) != 0)[0]
        spacings = np.diff(grid[crossings])
        # zeros of cos(2 pi dnu tau - pi) are 1/(2 dnu) apart
        assert np.median(spacings) == pytest.approx(1.0 / (2.0 * 3e9), rel=0.02)

    def test_trace_invariants(self):
        g2, g0 = g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, default_lags(QD_PAIR))
        assert np.all(g2 >= 0.0)
        # interference term never overwhelms the baseline
        assert np.all(np.abs(g2 - g0) <= g0 + 1e-12 * np.max(g0))

    def test_nonnegative_for_random_gates(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            dim = int(rng.integers(2, 7))
            gate = GateMatrix(np.linalg.qr(
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            )[0])
            i, j = (int(v) + 1 for v in rng.choice(dim, 2, replace=False))
            k, l = (int(v) + 1 for v in rng.choice(dim, 2, replace=False))
            pair = PhotonPair(
                EmitterParams(rng.uniform(0.1e-9, 2e-9), rng.uniform(0, 3e9), rng.uniform(0, 3e9)),
                EmitterParams(rng.uniform(0.1e-9, 2e-9), rng.uniform(0, 3e9), rng.uniform(0, 3e9),
                              detuning=rng.uniform(-3e9, 3e9)),
            )
            g2, _ = g2_trace(gate, i, j, k, l, pair, default_lags(pair))
            assert np.all(g2 >= 0.0)

    def test_asymmetric_lifetimes_baseline(self):
        # for tau > 0 the baseline decays with the lifetime of the photon
        # detected late at output l
        pair = PhotonPair(EmitterParams(1.0e-9), EmitterParams(0.2e-9))
        tau = 0.5e-9
        val = g2_trace(HOM, 1, 2, 1, 2, pair, tau)[1]
        expected = 0.25 * (math.exp(-tau / 1.0e-9) + math.exp(-tau / 0.2e-9)) / 1.2e-9
        assert val == pytest.approx(expected, rel=1e-12)

    def test_baseline_zero_beyond_the_float_range_without_warning(self):
        # |tau| / lifetime overflows to inf here, and the baseline is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, [-1e300, 1e300])[1]
        assert np.array_equal(val, [0.0, 0.0])

    def test_scalar_lag_gives_floats_and_arrays_any_order(self):
        lags = np.array([0.4e-9, -1e-9, 0.0, 0.4e-9])
        g2, g0 = g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, lags)
        assert g2.shape == g0.shape == (4,)
        for n, tau in enumerate(lags.tolist()):
            got = g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, tau)
            assert [type(v) for v in got] == [float, float]
            assert got == (g2[n], g0[n])


class TestLagDomain:
    """``g2_trace`` and ``averaged_phase_factor`` refuse a nan or infinite lag
    by name and give the exact 0 limit at huge finite ones, without a warning."""

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_non_finite_lag_is_refused_by_name(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            g2_trace(HOM, 1, 2, 1, 2, QD_PAIR, tau)
        if np.ndim(tau) == 0:
            with pytest.raises(ValueError, match="tau must be finite"):
                averaged_phase_factor(QD_PAIR, tau, math.pi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [1e300, -1e300, 1.7e308])
    @pytest.mark.parametrize("pair", [QD_PAIR, detuned(QD_PAIR, 3e9)])
    def test_huge_lag_gives_the_exact_zero(self, tau, pair):
        assert g2_trace(HOM, 1, 2, 1, 2, pair, tau) == (0.0, 0.0)
        assert averaged_phase_factor(pair, tau, math.pi) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_undamped_beat_beyond_the_float_range_is_refused(self):
        # no jitter: the phase factor keeps its full size, and its phase
        # 2 pi delta_nu tau is no float
        pair = detuned(fourier_pair(), 1e9)
        assert averaged_phase_factor(fourier_pair(), 1e300, math.pi) == -2.0
        with pytest.raises(ValueError, match="tau is too large"):
            averaged_phase_factor(pair, 1e300, math.pi)


class TestCoincidenceProbability:
    def test_fourier_limited_pair_interferes_perfectly(self):
        assert coincidence_probability(HOM, 1, 2, 1, 2, fourier_pair()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_distinguishable_limit(self):
        pair = PhotonPair(
            EmitterParams(700e-12, inhomogeneous_fwhm=1e15),
            EmitterParams(650e-12, inhomogeneous_fwhm=1e15),
        )
        assert coincidence_probability(HOM, 1, 2, 1, 2, pair) == pytest.approx(0.5, abs=1e-4)

    def test_qd_pair_value(self):
        p = coincidence_probability(HOM, 1, 2, 1, 2, QD_PAIR)
        assert p == pytest.approx(0.5 * (1.0 - QD_V_RESONANT), rel=1e-12)

    def test_bunched_outputs_at_the_balanced_splitter(self):
        # both photons leave by one output: |U_k1 U_k2|^2 (1 + w) = (1 + w) / 4
        for pair in (fourier_pair(), QD_PAIR):
            weight = interference_weight(pair)
            bunched = [coincidence_probability(HOM, 1, 2, k, k, pair) for k in (1, 2)]
            assert bunched == [pytest.approx(0.25 * (1.0 + weight), rel=1e-15)] * 2
            total = sum(bunched) + coincidence_probability(HOM, 1, 2, 1, 2, pair)
            assert total == pytest.approx(1.0, abs=1e-15)
        assert coincidence_probability(HOM, 1, 2, 2, 2, fourier_pair()) == pytest.approx(0.5)

    def test_one_input_mode_twice_is_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            coincidence_probability(HOM, 1, 1, 1, 2, QD_PAIR)

    def test_matches_quadrature_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            gate = GateMatrix(np.linalg.qr(m)[0])
            pair = PhotonPair(
                EmitterParams(rng.uniform(0.2e-9, 1.5e-9), rng.uniform(0, 2e9), rng.uniform(0, 2e9)),
                EmitterParams(rng.uniform(0.2e-9, 1.5e-9), rng.uniform(0, 2e9), rng.uniform(0, 2e9),
                              detuning=rng.uniform(-2e9, 2e9)),
            )
            analytic = coincidence_probability(gate, 1, 2, 2, 3, pair)
            numeric = quadrature_p_coinc(gate, 1, 2, 2, 3, pair)
            assert analytic == pytest.approx(numeric, abs=1e-8)

    def test_limit_continuity_across_six_decades(self):
        # Faddeeva path against the pure-dephasing closed form: the relative
        # gap must shrink quadratically in Sigma * (tau_i + tau_j)
        base = EmitterParams(700e-12, 600e6)
        other = EmitterParams(650e-12, 300e6, detuning=0.4e9)
        lifetime_sum = base.lifetime + other.lifetime
        pd_value = visibility_pd_only(PhotonPair(base, other))
        gaps = []
        epsilons = np.geomspace(1e-4, 1e-9, 6)
        for eps in epsilons:
            sigma_fwhm = eps / lifetime_sum * (2.0 * math.sqrt(2.0 * math.log(2.0))) / math.sqrt(2.0)
            pair = PhotonPair(
                EmitterParams(base.lifetime, base.dephasing_rate, sigma_fwhm),
                EmitterParams(other.lifetime, other.dephasing_rate, sigma_fwhm,
                              detuning=other.detuning),
            )
            gamma, sigma, delta_nu, tau_sum = (
                pair.gamma_total, pair.sigma_total, pair.delta_nu, pair.lifetime_sum,
            )
            from tpi_sim.numerics import faddeeva_w

            z = (2 * math.pi * delta_nu + 1j * gamma) / (2 * math.pi * math.sqrt(2) * sigma)
            w_path = complex(faddeeva_w(z)).real / (
                math.sqrt(2 * math.pi) * sigma * tau_sum
            )
            gaps.append(abs(w_path - pd_value) / pd_value)
        # quadratic shrinkage with a generous constant
        for eps, gap in zip(epsilons, gaps):
            assert gap <= 1e3 * eps**2
        assert gaps[0] > gaps[2] > gaps[4]

    def test_branch_agrees_at_threshold(self):
        scale = SIGMA_LIFETIME_THRESHOLD / QD_PAIR.lifetime_sum
        fwhm = scale * 2.0 * math.sqrt(2.0 * math.log(2.0)) / math.sqrt(2.0)
        just_above = PhotonPair(
            EmitterParams(700e-12, 600e6, fwhm * 1.01), EmitterParams(650e-12, 300e6, fwhm * 1.01)
        )
        just_below = PhotonPair(
            EmitterParams(700e-12, 600e6, fwhm * 0.99), EmitterParams(650e-12, 300e6, fwhm * 0.99)
        )
        a = interference_weight(just_above)
        b = interference_weight(just_below)
        assert a == pytest.approx(b, rel=1e-9)


class TestHomVisibility:
    def test_qd_pair_resonant(self):
        res = hom_visibility(QD_PAIR)
        assert res.visibility == pytest.approx(QD_V_RESONANT, rel=1e-12)
        assert res.p_coinc_classical == 0.5
        assert res.visibility == pytest.approx(1.0 - res.p_coinc / res.p_coinc_classical, rel=1e-12)

    def test_qd_pair_detuned(self):
        res = hom_visibility(detuned(QD_PAIR, 3e9))
        assert res.visibility == pytest.approx(QD_V_3GHZ, rel=1e-12)

    def test_identical_pd_only_equals_coherence_ratio(self):
        tau_r = 0.9e-9
        rate = 0.8e9
        pair = PhotonPair.identical(EmitterParams(tau_r, rate))
        tc = 1.0 / (0.5 / tau_r + rate)
        assert hom_visibility(pair).visibility == pytest.approx(tc / (2 * tau_r), rel=1e-12)

    def test_monotone_in_detuning_dephasing_diffusion(self):
        base = EmitterParams(0.7e-9, 0.4e9, 0.9e9)
        vs = [
            hom_visibility(detuned(PhotonPair.identical(base), d)).visibility
            for d in np.linspace(0.0, 5e9, 25)
        ]
        assert np.all(np.diff(vs) < 0.0)
        vs = [
            hom_visibility(PhotonPair.identical(EmitterParams(0.7e-9, r, 0.9e9))).visibility
            for r in np.linspace(0.0, 5e9, 25)
        ]
        assert np.all(np.diff(vs) < 0.0)
        vs = [
            hom_visibility(PhotonPair.identical(EmitterParams(0.7e-9, 0.4e9, f))).visibility
            for f in np.linspace(0.0, 5e9, 25)
        ]
        assert np.all(np.diff(vs) < 0.0)


class TestVisibilityPdOnly:
    def test_fourier_limit(self):
        assert visibility_pd_only(fourier_pair()) == pytest.approx(1.0, rel=1e-12)

    def test_requires_zero_inhomogeneous_width(self):
        with pytest.raises(ValueError):
            visibility_pd_only(QD_PAIR)

    def test_agrees_with_faddeeva_path_and_quadrature(self):
        pair = PhotonPair(EmitterParams(700e-12, 600e6), EmitterParams(650e-12, 300e6))
        closed = visibility_pd_only(pair)
        assert hom_visibility(pair).visibility == pytest.approx(closed, rel=1e-9)
        numeric = 1.0 - quadrature_p_coinc(HOM, 1, 2, 1, 2, pair) / 0.5
        assert closed == pytest.approx(numeric, abs=1e-8)

    def test_detuned_lorentzian_curve(self):
        pair = PhotonPair(
            EmitterParams(700e-12, 600e6), EmitterParams(650e-12, 300e6, detuning=1.5e9)
        )
        s = 1 / 700e-12 + 1 / 650e-12 + 2 * 600e6 + 2 * 300e6
        expected = 4.0 / 1.35e-9 * s / (s * s + 16 * math.pi**2 * 1.5e9**2)
        assert visibility_pd_only(pair) == pytest.approx(expected, rel=1e-12)


class TestTuningCurve:
    def test_symmetry_and_peak(self):
        grid = np.linspace(-4e9, 4e9, 41)
        vs, _ = tuning_curve(QD_PAIR, grid)
        assert np.allclose(vs, vs[::-1], rtol=1e-12)
        assert np.argmax(vs) == 20

    def test_endpoint_values(self):
        vs, p_coinc = tuning_curve(QD_PAIR, [0.0, 3e9])
        assert vs[0] == pytest.approx(QD_V_RESONANT, rel=1e-12)
        assert vs[1] == pytest.approx(QD_V_3GHZ, rel=1e-12)
        assert p_coinc.tolist() == (0.5 * (1.0 - vs)).tolist()

    @pytest.mark.parametrize("weight", [-2e-9, 1.0 + 2e-9, math.nan])
    def test_weights_outside_the_window_raise(self, monkeypatch, weight):
        # one bad weight among good ones refuses the whole curve, and
        # hom_visibility, the curve at one detuning, refuses it too
        monkeypatch.setattr(
            interference, "overlap_weight", lambda *args: np.array([0.5, weight, 0.25])
        )
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            tuning_curve(QD_PAIR, [0.0, 1e9, 2e9])
        monkeypatch.setattr(interference, "overlap_weight", lambda *args: np.array([weight]))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            hom_visibility(QD_PAIR)

    @pytest.mark.parametrize("weight,snapped", [(-1e-10, 0.0), (1.0 + 1e-10, 1.0)])
    def test_rounding_excursions_are_snapped(self, monkeypatch, weight, snapped):
        inside = 0.2916123969073535
        monkeypatch.setattr(
            interference, "overlap_weight", lambda *args: np.array([weight, inside])
        )
        vs, p_coinc = tuning_curve(QD_PAIR, [0.0, 1e9])
        assert vs.tolist() == [snapped, inside]
        assert p_coinc.tolist() == [0.5 * (1.0 - snapped), 0.5 * (1.0 - inside)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_is_refused_by_name(self, bad):
        # the input is at fault, not a computed visibility
        with pytest.raises(ValueError, match="delta_nu_grid must be finite"):
            tuning_curve(QD_PAIR, [0.0, bad, 1e9])


class TestMapPoint:
    """One point of :func:`visibility_map`, ``visibility_map([pd], [sd])[0, 0]``."""

    def test_fourier_point(self):
        assert visibility_map([1.0], [0.0])[0, 0] == 1.0

    def test_no_diffusion_axis_is_coherence_ratio(self):
        for theta_pd in (1.0, 1.7, 4.2, 30.0):
            assert visibility_map([theta_pd], [0.0])[0, 0] == pytest.approx(
                1.0 / theta_pd, rel=1e-14
            )

    def test_matches_dimensionful_pair(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta_pd = rng.uniform(1.0, 20.0)
            theta_sd = rng.uniform(0.0, 10.0)
            for lifetime in (1.0, 1e-9, 37e-12):
                pair = pair_from_normalized(theta_pd, theta_sd, lifetime)
                assert visibility_map([theta_pd], [theta_sd])[0, 0] == pytest.approx(
                    hom_visibility(pair).visibility, rel=1e-10
                )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            visibility_map([0.8], [0.0])
        with pytest.raises(ValueError):
            visibility_map([1.0], [-0.2])


def erfcx_visibility(theta_pd, theta_sd):
    """The lifetime-free erfcx closed form of the identical-pair visibility
    to 30 digits, with its switch to the Lorentzian limit 1 / theta_pd below
    sqrt(ln 2) * 1e-6.  exp(y^2) loses the digits of y^2 (up to 23 here), so
    the work runs at 60."""
    if theta_sd < math.sqrt(math.log(2.0)) * SIGMA_LIFETIME_THRESHOLD:
        return 1.0 / mp.mpf(theta_pd)
    with mp.workdps(60):
        ln2 = mp.log(2)
        y = mp.sqrt(ln2 / (2 * mp.pi**2)) * mp.mpf(theta_pd) / mp.mpf(theta_sd)
        erfcx = mp.exp(y * y) * mp.erfc(y)
        return mp.sqrt(2 * ln2 / mp.pi) * erfcx / (2 * mp.mpf(theta_sd))


class TestAgainstMpmath:
    """visibility_map, on the package's Faddeeva kernel, one point at a time
    and as a whole map, held to an mpmath evaluation of the erfcx form."""

    @staticmethod
    def grids(seed):
        rng = np.random.default_rng(seed)
        theta_pd = np.concatenate([[1.0], 10 ** rng.uniform(0.0, 6.0, 15)])
        theta_sd = np.concatenate([
            10 ** rng.uniform(-12.0, -7.0, 3),  # Lorentzian limit
            10 ** rng.uniform(-5.0, 4.0, 13),
        ])
        return theta_pd, theta_sd

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_map_points(self, seed):
        for tp in self.grids(seed)[0].tolist():
            for ts in self.grids(seed)[1].tolist():
                ref = erfcx_visibility(tp, ts)
                assert abs(visibility_map([tp], [ts])[0, 0] - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_visibility_map(self, seed):
        theta_pd, theta_sd = self.grids(seed)
        got = visibility_map(theta_pd, theta_sd)
        for a, tp in enumerate(theta_pd.tolist()):
            for b, ts in enumerate(theta_sd.tolist()):
                ref = erfcx_visibility(tp, ts)
                assert abs(got[a, b] - ref) <= 1e-14 * ref


class TestVisibilityMap:
    def test_shape_and_consistency(self):
        pd = np.array([1.0, 2.0, 5.0])
        sd = np.array([0.0, 0.5, 1.0, 3.0])
        m = visibility_map(pd, sd)
        assert m.shape == (3, 4)
        for a, tp in enumerate(pd):
            for b, ts in enumerate(sd):
                assert m[a, b] == pytest.approx(visibility_map([tp], [ts])[0, 0], rel=1e-12)

    def test_monotone_decreasing_along_both_axes(self):
        pd = np.linspace(1.0, 10.0, 40)
        sd = np.linspace(0.0, 5.0, 40)
        m = visibility_map(pd, sd)
        assert np.all(np.diff(m, axis=0) < 0.0)
        assert np.all(np.diff(m, axis=1) < 0.0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            visibility_map([], [0.0])
        with pytest.raises(ValueError):
            visibility_map([0.5], [0.0])


class TestAveragedPhaseFactor:
    def test_no_jitter_reduces_to_cosine(self):
        pair = fourier_pair()
        assert averaged_phase_factor(pair, 0.3e-9, math.pi) == pytest.approx(-2.0, rel=1e-15)
        assert averaged_phase_factor(pair, 0.0, 1.0) == pytest.approx(2.0 * math.cos(1.0))

    def test_envelope_uses_only_dephasing_rates(self):
        pair = PhotonPair(EmitterParams(0.7e-9, 1e9), EmitterParams(0.3e-9, 2e9))
        tau = 0.2e-9
        assert averaged_phase_factor(pair, tau, math.pi) == pytest.approx(
            -2.0 * math.exp(-3e9 * tau), rel=1e-12
        )
