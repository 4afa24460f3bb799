import dataclasses
import functools
import importlib
import inspect
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import tpi_sim
from tpi_sim import oracle

from tpi_sim.emitter import EmitterParams, PhotonPair
from tpi_sim.gates import GateMatrix, beam_splitter
from tpi_sim.interference import (
    averaged_phase_factor,
    coincidence_probability,
    g2_trace,
    joint_detection_probability,
)
from tpi_sim.numerics import QuadratureError, integrate
from tpi_sim.oracle import (
    MonteCarloEstimate,
    _envelope,
    _gauss_legendre_nodes,
    _haar_unitary,
    _monte_carlo_check,
    _random_instance,
    exponential_wave,
    mc_averaged_phase_factor,
    mc_g2_estimate,
    quadrature_g2,
    quadrature_p_coinc,
    run_verification,
)

from helpers import detuned

HOM = beam_splitter(0.5)
QD_PAIR = PhotonPair(
    EmitterParams(700e-12, 600e6, 1.4e9),
    EmitterParams(650e-12, 300e6, 0.8e9),
)
# pairs whose jitter scales are partly or wholly zero: a zero scale still
# consumes its normal, so the stream must stay aligned
NO_DEPHASING = PhotonPair(
    EmitterParams(700e-12, 0.0, 1.4e9), EmitterParams(650e-12, 0.0, 0.8e9, detuning=2e9)
)
NO_WIDTH = PhotonPair(EmitterParams(700e-12, 600e6, 0.0), EmitterParams(650e-12, 300e6, 0.0))
NO_JITTER = PhotonPair(EmitterParams(700e-12), EmitterParams(650e-12, detuning=-1e9))
JITTER_PAIRS = [QD_PAIR, NO_DEPHASING, NO_WIDTH, NO_JITTER]


def relative_draw(pair, times, rng):
    """The relative jitter of one realization, drawn as mc_g2_estimate draws
    it: one ``rng.normal`` for f_i - f_j, then one for the T increments of
    phi_i - phi_j, whose variances are the sums of the photons' variances."""
    dt = np.diff(times, prepend=times[0])
    rate = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    frequency = rng.normal(pair.delta_nu, pair.sigma_total)
    return frequency, np.cumsum(rng.normal(0.0, np.sqrt(2.0 * rate * dt)))


def legacy_mc_g2(gate, i, j, k, l, pair, tau, realizations, seed):
    """The per-realization Monte-Carlo loop: complex wave packets with
    interpolated phase tables, the joint detection probability and a dot
    product with the quadrature weights, one realization at a time.  Photon
    i carries the relative frequency and phase, photon j none."""
    lo = max(0.0, -tau)
    t0, weights = _gauss_legendre_nodes(lo, lo + 40.0 * pair.t_plus, oracle._PANELS)
    times = np.unique(np.concatenate([t0, t0 + tau]))
    values = np.empty(realizations)
    children = np.random.SeedSequence(seed).spawn((realizations + 255) // 256)
    done = 0
    for child in children:
        rng = np.random.default_rng(child)
        n = min(256, realizations - done)
        for r in range(n):
            frequency, phase = relative_draw(pair, times, rng)
            zi = exponential_wave(pair.emitter_i.lifetime, frequency, times, phase)
            zj = exponential_wave(pair.emitter_j.lifetime)
            p = joint_detection_probability(gate, i, j, k, l, zi, zj, t0, tau)
            values[done + r] = float(np.dot(weights, p))
        done += n
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(realizations))


def per_photon_mc_g2(gate, i, j, k, l, pair, tau, realizations, seed):
    """The two-photon block sampler: per 256-realization chunk, one
    standard-normal array of shape (n, 2, T + 1), whose rows give photon i's
    frequency and T phase increments, then photon j's; the density of
    :func:`mc_g2_estimate` from their differences."""
    u = gate.matrix
    ca = u[l - 1, i - 1] * u[k - 1, j - 1]
    cb = u[l - 1, j - 1] * u[k - 1, i - 1]
    lo = max(0.0, -tau)
    t0, weights = _gauss_legendre_nodes(lo, lo + 40.0 * pair.t_plus, oracle._PANELS)
    late = t0 + tau
    times = np.unique(np.concatenate([t0, late]))
    early, late_at = np.searchsorted(times, t0), np.searchsorted(times, late)
    lifetime_i, lifetime_j = pair.emitter_i.lifetime, pair.emitter_j.lifetime
    env_a = _envelope(lifetime_i, late) * _envelope(lifetime_j, t0)
    env_b = _envelope(lifetime_j, late) * _envelope(lifetime_i, t0)
    direct = abs(ca) ** 2 * env_a**2 + abs(cb) ** 2 * env_b**2
    beat = 2.0 * abs(ca * np.conj(cb)) * env_a * env_b
    emitters = (pair.emitter_i, pair.emitter_j)
    detuning = np.array([emitter.detuning for emitter in emitters])
    sigma = np.array([emitter.sigma for emitter in emitters])
    dt = np.diff(times, prepend=times[0])
    increment = np.sqrt(2.0 * np.array([[emitter.dephasing_rate] for emitter in emitters]) * dt)
    values = []
    for c, child in enumerate(np.random.SeedSequence(seed).spawn((realizations + 255) // 256)):
        n = min(256, realizations - 256 * c)
        z = np.random.default_rng(child).standard_normal((n, 2, len(times) + 1))
        frequency = detuning + sigma * z[:, :, 0]
        phase = np.cumsum(increment * z[:, :, 1:], axis=2)
        step = phase[:, :, late_at] - phase[:, :, early]
        delta = 2 * math.pi * tau * (frequency[:, :1] - frequency[:, 1:]) + step[:, 0] - step[:, 1]
        values.append((direct + beat * np.cos(delta - np.angle(ca * np.conj(cb)))) @ weights)
    values = np.concatenate(values)
    return MonteCarloEstimate(
        float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(realizations))
    )


def per_photon_phase_factor(pair, tau, trials, seed, gate_phase):
    """The per-photon phase-factor sampler: per 4096-trial chunk, the
    frequency normals, then each photon's phase increment over |tau| as a
    normal of its own, three normals per trial."""
    spread_i = math.sqrt(2.0 * pair.emitter_i.dephasing_rate * abs(tau))
    spread_j = math.sqrt(2.0 * pair.emitter_j.dephasing_rate * abs(tau))
    samples = []
    for c, child in enumerate(np.random.SeedSequence(seed).spawn((trials + 4095) // 4096)):
        rng = np.random.default_rng(child)
        n = min(4096, trials - c * 4096)
        dnu = rng.normal(pair.delta_nu, pair.sigma_total, n)
        dphi = rng.normal(0.0, spread_i, n) - rng.normal(0.0, spread_j, n)
        samples.append(2.0 * np.cos(2.0 * math.pi * dnu * tau + dphi - gate_phase))
    h = np.concatenate(samples)
    return MonteCarloEstimate(float(np.mean(h)), float(np.std(h, ddof=1) / math.sqrt(trials)))


def random_gate(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


class TestExponentialWave:
    def test_normalized(self):
        zeta = exponential_wave(0.6e-9, frequency=3e9)
        norm = integrate(lambda t: np.abs(zeta(t)) ** 2, -1e-9, 60e-9, tol=1e-12)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_causal(self):
        zeta = exponential_wave(0.6e-9)
        assert zeta(-1e-12) == 0.0
        assert abs(zeta(0.0)) > 0.0

    def test_phase_table_applied(self):
        times = np.array([0.0, 1e-9, 2e-9])
        values = np.array([0.0, 0.5, 1.5])
        zeta = exponential_wave(1e-9, 0.0, times, values)
        expected = math.exp(-0.5) * complex(math.cos(0.5), -math.sin(0.5)) / math.sqrt(1e-9)
        assert complex(zeta(1e-9)) == pytest.approx(expected, rel=1e-12)

    def test_envelope_at_a_huge_time_is_the_exact_zero(self):
        # -t / (2 lifetime) overflows to -inf beyond ~3.6e308 lifetimes
        env = _envelope(0.7e-9, np.array([1e300, -1e300, 0.0]))
        assert env.tolist() == [0.0, 0.0, 1.0 / math.sqrt(0.7e-9)]

    @pytest.mark.parametrize("lifetime", [0.0, -0.0, -1e-9])
    def test_lifetime_must_be_positive(self, lifetime):
        with pytest.raises(ValueError, match="lifetime must be positive"):
            exponential_wave(lifetime)


class TestMcAveragedPhaseFactor:
    def test_exact_with_no_jitter(self):
        pair = PhotonPair.identical(EmitterParams(1e-9))
        est = mc_averaged_phase_factor(pair, 0.3e-9, trials=10_000, seed=4, gate_phase=math.pi)
        assert est.value == -2.0
        assert est.stderr == 0.0

    def test_exact_at_zero_lag(self):
        est = mc_averaged_phase_factor(QD_PAIR, 0.0, trials=10_000, seed=4, gate_phase=1.2)
        assert est.value == pytest.approx(2.0 * math.cos(1.2), rel=1e-15)
        assert est.stderr == 0.0

    def test_matches_closed_form_within_three_sigma(self):
        for tau, phase in [(0.2e-9, math.pi), (0.15e-9, 0.7), (-0.3e-9, 2.1)]:
            pair = detuned(QD_PAIR, 3e9)
            est = mc_averaged_phase_factor(pair, tau, trials=200_000, seed=11, gate_phase=phase)
            target = averaged_phase_factor(pair, tau, phase)
            assert abs(est.value - target) <= 3.0 * est.stderr

    def test_seeded_determinism(self):
        a = mc_averaged_phase_factor(QD_PAIR, 0.2e-9, trials=20_000, seed=42)
        b = mc_averaged_phase_factor(QD_PAIR, 0.2e-9, trials=20_000, seed=42)
        assert a == b
        c = mc_averaged_phase_factor(QD_PAIR, 0.2e-9, trials=20_000, seed=43)
        assert a != c

    def test_error_shrinks_at_root_n_rate(self):
        small = mc_averaged_phase_factor(QD_PAIR, 0.2e-9, trials=50_000, seed=5)
        large = mc_averaged_phase_factor(QD_PAIR, 0.2e-9, trials=100_000, seed=5)
        ratio = small.stderr / large.stderr
        assert 1.2 <= ratio <= 1.7  # doubling trials: expect sqrt(2)

    def test_rejects_too_few_trials(self):
        with pytest.raises(ValueError):
            mc_averaged_phase_factor(QD_PAIR, 0.1e-9, trials=100, seed=0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_lag(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            mc_averaged_phase_factor(QD_PAIR, tau, trials=10_000, seed=0)

    def test_relative_and_per_photon_samplers_agree(self):
        # a detuned, jittered pair, 200,000 trials of each sampler from
        # independent streams: both match the closed form and each other
        # within 3 standard errors, and their per-trial spreads agree;
        # dropping photon j's dephasing would move the closed form by more
        # than 10 standard errors at both lags
        pair = detuned(QD_PAIR, 1.2e9)
        no_j_dephasing = PhotonPair(
            pair.emitter_i, dataclasses.replace(pair.emitter_j, dephasing_rate=0.0)
        )
        for tau, phase in ((-0.3e-9, 0.7), (0.15e-9, 2.1)):
            relative = mc_averaged_phase_factor(pair, tau, 200_000, seed=0, gate_phase=phase)
            per_photon = per_photon_phase_factor(pair, tau, 200_000, seed=1, gate_phase=phase)
            closed = averaged_phase_factor(pair, tau, phase)
            shifted = averaged_phase_factor(no_j_dephasing, tau, phase)
            assert abs(shifted - closed) > 10.0 * relative.stderr
            for est in (relative, per_photon):
                assert abs(est.value - closed) <= 3.0 * est.stderr
            spread = math.hypot(relative.stderr, per_photon.stderr)
            assert abs(relative.value - per_photon.value) <= 3.0 * spread
            assert relative.stderr == pytest.approx(per_photon.stderr, rel=0.05)


class TestQuadratureCoincidence:
    def test_distinguishable_half(self):
        pair = PhotonPair(
            EmitterParams(0.7e-9, inhomogeneous_fwhm=1e15),
            EmitterParams(0.65e-9, inhomogeneous_fwhm=1e15),
        )
        assert quadrature_p_coinc(HOM, 1, 2, 1, 2, pair) == pytest.approx(0.5, abs=1e-4)

    def test_fourier_transform_identity(self):
        # int exp(-g|t| - a^2 t^2 / 2) cos(w t) dt equals the scaled real part
        # of the Faddeeva function: the step the closed form relies on.
        # The identity is scale-free, so run it in order-1 units where the
        # absolute quadrature tolerance is meaningful.
        from tpi_sim.numerics import faddeeva_w

        rng = np.random.default_rng(3)
        for _ in range(8):
            g = rng.uniform(0.2, 3.0)
            alpha = 2.0 * math.pi * rng.uniform(0.2, 2.0)
            w = 2.0 * math.pi * rng.uniform(-3.0, 3.0)
            val = 2.0 * integrate(
                lambda t: np.exp(-g * t - 0.5 * alpha**2 * t**2) * np.cos(w * t),
                0.0,
                40.0 / g,
                tol=1e-13,
            )
            z = (w + 1j * g) / (math.sqrt(2.0) * alpha)
            expected = math.sqrt(2.0 * math.pi) * complex(faddeeva_w(z)).real / alpha
            assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_randomized_agreement_with_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
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
            from tpi_sim.interference import coincidence_probability

            assert quadrature_p_coinc(gate, i, j, k, l, pair) == pytest.approx(
                coincidence_probability(gate, i, j, k, l, pair), abs=1e-6
            )


class TestQuadratureG2:
    def test_identical_deterministic_packets_vanish(self):
        zeta = exponential_wave(0.8e-9, frequency=2e9)
        for tau in (0.0, 0.2e-9, -0.5e-9):
            val = quadrature_g2(HOM, 1, 2, 1, 2, zeta, zeta, tau)
            assert abs(val) < 1e-3  # in 1/s; scale is ~1e9

    def test_no_jitter_matches_closed_form(self):
        tau_r = 0.7e-9
        pair = PhotonPair.identical(EmitterParams(tau_r))
        zi = exponential_wave(tau_r)
        zj = exponential_wave(tau_r)
        for tau in (0.05e-9, 0.3e-9, -0.4e-9):
            trace = g2_trace(HOM, 1, 2, 1, 2, pair, [tau - 1.0, tau, tau + 1.0])
            got = quadrature_g2(HOM, 1, 2, 1, 2, zi, zj, tau)
            assert got == pytest.approx(float(trace.g2_values[1]), rel=1e-7, abs=1e-3)
        # unequal lifetimes, then a detuned pair: the jump where both packets
        # have started must not fall inside a panel, where no node sees it
        cases = [
            (PhotonPair(EmitterParams(0.7e-9), EmitterParams(0.5e-9)),
             exponential_wave(0.7e-9), exponential_wave(0.5e-9)),
            (PhotonPair(EmitterParams(0.4e-9, detuning=1.5e9), EmitterParams(0.9e-9)),
             exponential_wave(0.4e-9, frequency=1.5e9), exponential_wave(0.9e-9)),
            # NV-like lifetimes of 11-12 ns, one of them against a 0.5 ns packet
            (PhotonPair(EmitterParams(12e-9), EmitterParams(0.5e-9)),
             exponential_wave(12e-9), exponential_wave(0.5e-9)),
            (PhotonPair(EmitterParams(12e-9, detuning=0.2e9), EmitterParams(11e-9)),
             exponential_wave(12e-9, frequency=0.2e9), exponential_wave(11e-9)),
        ]
        for pair, zi, zj in cases:
            for tau in (-1.1e-9, -0.3e-9, 0.05e-9, 0.2e-9, 0.8e-9):
                trace = g2_trace(HOM, 1, 2, 1, 2, pair, [tau - 1.0, tau, tau + 1.0])
                got = quadrature_g2(HOM, 1, 2, 1, 2, zi, zj, tau)
                assert got == pytest.approx(float(trace.g2_values[1]), rel=1e-9)

    @pytest.mark.parametrize("bad_as,message", [
        # twice the amplitude of a 1 ns packet: four times its norm
        ("zeta_i", "wave packet zeta_i is not normalized"),
        # a normalized 12 ns packet without the attribute: no time scale is
        # guessed for it
        ("zeta_j", "wave packet zeta_j has no 'time_scale' attribute"),
    ], ids=["unnormalized", "no_time_scale"])
    def test_bad_packet_rejected(self, bad_as, message):
        good = exponential_wave(1e-9)
        if bad_as == "zeta_i":
            def bad(t):
                return 2.0 * good(t)

            bad.time_scale = 1e-9
            packets = bad, good
        else:
            packets = good, lambda t: exponential_wave(12e-9)(t)
        with pytest.raises(ValueError, match=message):
            quadrature_g2(HOM, 1, 2, 1, 2, *packets, 0.0)

    def test_nan_packet_rejected(self):
        # nan beyond 3 lifetimes: its norm is nan, which abs(norm - 1) > 1e-8
        # lets through, so the call used to return nan
        good = exponential_wave(1e-9)

        def bad(t):
            return np.where(t > 3e-9, np.nan, good(t))

        bad.time_scale = 1e-9
        with pytest.raises(QuadratureError, match="integrand gave nan"):
            quadrature_g2(HOM, 1, 2, 1, 2, bad, good, 0.0)

    def test_detuned_deterministic_packets(self):
        # pure detuning without noise: interference envelope stays at full
        # contrast and beats at the detuning frequency
        tau_r = 0.6e-9
        pair = detuned(PhotonPair.identical(EmitterParams(tau_r)), 2e9)
        zi = exponential_wave(tau_r, frequency=2e9)
        zj = exponential_wave(tau_r, frequency=0.0)
        for tau in (0.1e-9, 0.25e-9):
            trace = g2_trace(HOM, 1, 2, 1, 2, pair, [tau - 1.0, tau, tau + 1.0])
            got = quadrature_g2(HOM, 1, 2, 1, 2, zi, zj, tau)
            assert got == pytest.approx(float(trace.g2_values[1]), rel=1e-7, abs=1e-3)


class TestMcG2:
    def test_matches_trace_within_three_sigma(self):
        pair = detuned(QD_PAIR, 3e9)
        for tau in (-0.2e-9, 0.0, 0.15e-9, 0.333e-9, 0.5e-9):
            est = mc_g2_estimate(HOM, 1, 2, 1, 2, pair, tau, realizations=1500, seed=31)
            trace = g2_trace(HOM, 1, 2, 1, 2, pair, [tau - 1.0, tau, tau + 1.0])
            closed = float(trace.g2_values[1])
            assert abs(est.value - closed) <= max(3.0 * est.stderr, 1e-4 * abs(closed) + 1e-3)

    @pytest.mark.parametrize(
        "case,realizations",
        [(0, 2), (1, 300), (2, 513), (3, 300), (4, 2), (5, 513), (6, 300), (7, 300)],
    )
    def test_matches_per_realization_loop(self, case, realizations):
        # random gates of dimension 2-6; cases 2, 3, 4, 6 and 7 draw output
        # pairs other than the input pair
        rng = np.random.default_rng(1000 + case)
        dim = 2 + case % 5
        gate = random_gate(rng, dim)
        i, j = (int(m) + 1 for m in rng.choice(dim, 2, replace=False))
        k, l = (int(m) + 1 for m in rng.choice(dim, 2, replace=False))
        base = JITTER_PAIRS[case % 4]
        pair = detuned(base, float(rng.uniform(-3e9, 3e9)))
        seed = int(rng.integers(2**62))
        slowest = max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
        for tau in (-0.8 * slowest, 0.0, 1.3 * slowest):
            ref_value, ref_stderr = legacy_mc_g2(gate, i, j, k, l, pair, tau, realizations, seed)
            est = mc_g2_estimate(gate, i, j, k, l, pair, tau, realizations=realizations, seed=seed)
            assert abs(est.value - ref_value) <= 1e-12 * abs(ref_value)
            if tau == 0.0 or base is NO_JITTER:
                # no randomness at this lag: both spreads are rounding noise
                assert max(est.stderr, ref_stderr) <= 1e-12 * abs(ref_value)
            else:
                assert abs(est.stderr - ref_stderr) <= 1e-12 * ref_stderr

    def test_relative_and_per_photon_samplers_agree(self):
        # a detuned, jittered pair at a 3-mode gate, 20,000 realizations of
        # each sampler from independent streams: both match the closed form
        # and each other within 3 standard errors, and their per-realization
        # spreads agree; the lags resolve the interference term to 30 and
        # 340 standard errors
        gate = random_gate(np.random.default_rng(5), 3)
        pair = detuned(QD_PAIR, 1.2e9)
        for tau in (-0.4e-9, 0.15e-9):
            relative = mc_g2_estimate(gate, 1, 3, 2, 1, pair, tau, realizations=20_000, seed=0)
            per_photon = per_photon_mc_g2(gate, 1, 3, 2, 1, pair, tau, 20_000, seed=1)
            trace = g2_trace(gate, 1, 3, 2, 1, pair, [tau - 1.0, tau, tau + 1.0])
            closed = float(trace.g2_values[1])
            assert abs(closed - float(trace.g2_distinguishable[1])) > 10.0 * relative.stderr
            for est in (relative, per_photon):
                assert abs(est.value - closed) <= 3.0 * est.stderr
            spread = math.hypot(relative.stderr, per_photon.stderr)
            assert abs(relative.value - per_photon.value) <= 3.0 * spread
            assert relative.stderr == pytest.approx(per_photon.stderr, rel=0.05)

    def test_node_sum_of_the_averaged_density_equals_the_trace(self):
        # no sampling: the estimator samples the difference path exactly at
        # every node, so its expectation is the node sum of the density with
        # E[cos(D - arg)] = cos(2 pi dnu tau - arg) exp(-var(D) / 2), where
        # var(D) = (2 pi Sigma tau)^2 + 2 (gamma_i + gamma_j) |tau|; that sum
        # is G2 itself only if the rule resolves the t0 integral
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(200):
            gate, i, j, k, l, pair = _random_instance(rng)
            u = gate.matrix
            ca = u[l - 1, i - 1] * u[k - 1, j - 1]
            cb = u[l - 1, j - 1] * u[k - 1, i - 1]
            rate = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
            lifetime_i, lifetime_j = pair.emitter_i.lifetime, pair.emitter_j.lifetime
            for tau in max(lifetime_i, lifetime_j) * np.array([-1.5, -0.5, 0.25, 1.0, 2.5]):
                lo = max(0.0, -tau)
                t0, weights = _gauss_legendre_nodes(lo, lo + 40.0 * pair.t_plus, oracle._PANELS)
                late = t0 + tau
                env_a = _envelope(lifetime_i, late) * _envelope(lifetime_j, t0)
                env_b = _envelope(lifetime_j, late) * _envelope(lifetime_i, t0)
                variance = (2.0 * math.pi * pair.sigma_total * tau) ** 2 + 2.0 * rate * abs(tau)
                mean_cos = math.cos(
                    2.0 * math.pi * pair.delta_nu * tau - np.angle(ca * np.conj(cb))
                ) * math.exp(-0.5 * variance)
                density = (
                    abs(ca) ** 2 * env_a**2
                    + abs(cb) ** 2 * env_b**2
                    + 2.0 * abs(ca * np.conj(cb)) * env_a * env_b * mean_cos
                )
                trace = g2_trace(gate, i, j, k, l, pair, [tau - 1.0, tau, tau + 1.0])
                closed = float(trace.g2_values[1])
                scale = max(abs(closed), float(trace.g2_distinguishable[1]))
                worst = max(worst, abs(float(weights @ density) - closed) / scale)
        assert worst <= 1e-13

    def test_mode_checks(self):
        with pytest.raises(ValueError, match="distinct"):
            mc_g2_estimate(HOM, 1, 1, 1, 2, QD_PAIR, 0.1e-9, realizations=2)
        with pytest.raises(ValueError, match="distinct"):
            mc_g2_estimate(HOM, 1, 2, 2, 2, QD_PAIR, 0.1e-9, realizations=2)
        with pytest.raises(ValueError, match="out of range"):
            mc_g2_estimate(HOM, 1, 3, 1, 2, QD_PAIR, 0.1e-9, realizations=2)

    @pytest.mark.parametrize("realizations", [1, 0, -3])
    def test_needs_two_realizations(self, realizations):
        with pytest.raises(ValueError, match="at least 2 realizations"):
            mc_g2_estimate(HOM, 1, 2, 1, 2, QD_PAIR, 0.1e-9, realizations=realizations)

    def test_seeded_determinism(self):
        a = mc_g2_estimate(HOM, 1, 2, 1, 2, QD_PAIR, 0.1e-9, realizations=200, seed=8)
        b = mc_g2_estimate(HOM, 1, 2, 1, 2, QD_PAIR, 0.1e-9, realizations=200, seed=8)
        assert a == b

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_lag(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            mc_g2_estimate(HOM, 1, 2, 1, 2, QD_PAIR, tau, realizations=2)

    @pytest.mark.parametrize("tau", [1e300, -1e300])
    def test_huge_lag_gives_the_exact_zero(self, tau):
        # no node sees both packets, so every term is exactly 0; the
        # envelopes' exponents overflow to -inf on the way, without a warning
        pair = PhotonPair(EmitterParams(700e-12), EmitterParams(650e-12))
        est = mc_g2_estimate(HOM, 1, 2, 1, 2, pair, tau, realizations=20, seed=1)
        assert est == MonteCarloEstimate(0.0, 0.0)


class TestThreadedChunks:
    """Chunks own their random streams and outputs, so neither the number of
    threads nor the order in which the chunks run changes an estimate."""

    @staticmethod
    def estimates():
        return (
            mc_g2_estimate(HOM, 1, 2, 1, 2, QD_PAIR, 0.3e-9, realizations=900, seed=5),
            mc_g2_estimate(HOM, 1, 2, 1, 2, NO_JITTER, 0.0, realizations=600, seed=6),
            # detuned, at a negative lag, with a short last chunk (700 = 2 * 256 + 188)
            mc_g2_estimate(
                HOM, 1, 2, 1, 2, detuned(QD_PAIR, 2e9), -0.2e-9,
                realizations=700, seed=7,
            ),
        )

    @staticmethod
    def reversed_jobs(jobs):
        for job in reversed(jobs):
            job()

    def test_thread_count_and_order_leave_estimates_unchanged(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_chunks: min(n_chunks, 1))
        serial = self.estimates()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost write would show
        try:
            for workers in (2, 3):
                monkeypatch.setattr(
                    oracle, "_worker_count", lambda n_chunks, w=workers: min(n_chunks, w)
                )
                assert self.estimates() == serial
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(oracle, "_run_jobs", self.reversed_jobs)
        assert self.estimates() == serial

    def test_every_job_runs_once_on_a_pool_thread(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_jobs: min(n_jobs, 2))
        runs = []

        def job(c):
            runs.append((c, threading.get_ident()))

        jobs = [functools.partial(job, c) for c in range(7)]
        oracle._run_jobs(jobs)
        assert sorted(c for c, _ in runs) == list(range(7))
        threads = {thread for _, thread in runs}
        assert threading.get_ident() not in threads and 1 <= len(threads) <= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_job_raises(self, monkeypatch, workers):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_jobs: min(n_jobs, workers))

        def fail():
            raise ValueError("job failed")

        with pytest.raises(ValueError, match="job failed"):
            oracle._run_jobs([lambda: None, fail, lambda: None])

    def test_worker_count_is_bounded_by_chunks_and_cpus(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert oracle._worker_count(1) == 1
        assert oracle._worker_count(10**6) == cpus


class TestVerificationSuite:
    def test_small_suite_passes(self):
        report = run_verification(
            seed=2024,
            closed_form_instances=10,
            mc_instances=2,
            mc_realizations=800,
            phase_trials=20_000,
        )
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.observed} > {check.bound}"
        assert report.all_passed

    def test_quadratures_done_before_the_pool_starts(self, monkeypatch):
        quadratures, entries = [], []
        quadrature, run_jobs = oracle.quadrature_p_coinc, oracle._run_jobs

        def counting_quadrature(*args, **kwargs):
            quadratures.append(args)
            return quadrature(*args, **kwargs)

        def recording_run(*args, **kwargs):
            entries.append(len(quadratures))
            run_jobs(*args, **kwargs)

        monkeypatch.setattr(oracle, "quadrature_p_coinc", counting_quadrature)
        monkeypatch.setattr(oracle, "_run_jobs", recording_run)
        run_verification(
            seed=3, closed_form_instances=4, mc_instances=1, mc_realizations=300,
            phase_trials=10_000,
        )
        # four closed-form instances and the distinguishable limit
        assert entries == [5] and len(quadratures) == 5


def reference_report(seed, closed_form_instances, mc_instances, mc_realizations, phase_trials):
    """The suite as a plain loop over the public samplers, one call at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(closed_form_instances):
        case = _random_instance(rng)
        worst = max(worst, abs(coincidence_probability(*case) - quadrature_p_coinc(*case)))
    results = []
    for _ in range(mc_instances):
        gate, i, j, k, l, pair = _random_instance(rng)
        slowest = max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
        for mult in (-1.5, -0.5, 0.25, 1.0, 2.5):
            tau = mult * slowest
            est = mc_g2_estimate(
                gate, i, j, k, l, pair, tau, mc_realizations, seed=int(rng.integers(2**62))
            )
            trace = g2_trace(gate, i, j, k, l, pair, [tau - 1.0, tau, tau + 1.0])
            results.append((est, float(trace.g2_values[1]), float(trace.g2_distinguishable[1])))
    phases = []
    for _ in range(8):
        pair = _random_instance(rng)[-1]
        tau = float(rng.uniform(-0.5e-9, 0.5e-9))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        est = mc_averaged_phase_factor(pair, tau, phase_trials, int(rng.integers(2**62)), phase)
        phases.append((est, averaged_phase_factor(pair, tau, phase), 1.0))
    p0 = quadrature_p_coinc(HOM, 1, 2, 1, 2, PhotonPair(
        EmitterParams(lifetime=0.7e-9, inhomogeneous_fwhm=1e15),
        EmitterParams(lifetime=0.65e-9, inhomogeneous_fwhm=1e15),
    ))
    return [
        (worst, worst <= 1e-6),
        *[(c.observed, c.passed) for c in (
            _monte_carlo_check("trace", results), _monte_carlo_check("phase", phases)
        )],
        (abs(p0 - 0.5), abs(p0 - 0.5) <= 1e-4),
    ]


def legacy_phase_factor(pair, tau, trials, seed, gate_phase):
    """The phase-factor sampler as a serial loop over its 4096-trial chunks:
    per chunk, the frequency normals, then one normal per trial for the
    relative phase phi_i - phi_j, whose variance sums the photons'."""
    rate = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    spread = math.sqrt(2.0 * rate * abs(tau))
    children = np.random.SeedSequence(seed).spawn((trials + 4095) // 4096)
    total = total_sq = 0.0
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        n = min(4096, trials - c * 4096)
        dnu = rng.normal(pair.delta_nu, pair.sigma_total, n)
        dphi = rng.normal(0.0, spread, n)
        h = 2.0 * np.cos(2.0 * math.pi * dnu * tau + dphi - gate_phase)
        if c == 0:
            shift = float(h[0])
        total += float(np.sum(h - shift))
        total_sq += float(np.sum((h - shift) ** 2))
    mean_shifted = total / trials
    var = max(total_sq - trials * mean_shifted * mean_shifted, 0.0) / (trials - 1)
    return MonteCarloEstimate(shift + mean_shifted, math.sqrt(var / trials))


class TestOnePool:
    """run_verification runs every Monte-Carlo job of a run on one pool after
    the calling thread has done the quadratures; the report is that of the
    plain loop over the public samplers, whatever the threads and job order."""

    SIZES = dict(
        seed=11, closed_form_instances=2, mc_instances=2, mc_realizations=300, phase_trials=20_000
    )

    def test_report_independent_of_threads_and_job_order(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_chunks: min(n_chunks, 1))
        serial = run_verification(**self.SIZES)
        assert [(c.observed, c.passed) for c in serial.checks] == reference_report(**self.SIZES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost write would show
        try:
            for workers in (2, 3):
                monkeypatch.setattr(
                    oracle, "_worker_count", lambda n_chunks, w=workers: min(n_chunks, w)
                )
                assert run_verification(**self.SIZES) == serial
        finally:
            sys.setswitchinterval(interval)

        monkeypatch.setattr(oracle, "_run_jobs", TestThreadedChunks.reversed_jobs)
        assert run_verification(**self.SIZES) == serial

    def test_one_thread_pool_per_run(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_chunks: min(n_chunks, 2))
        pools = []

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", counting_pool)
        run_verification(**self.SIZES)
        assert pools == [{"max_workers": 2}]

    def test_pool_threads_call_no_public_function(self, monkeypatch):
        # a public function called from a pool thread would corrupt
        # call-stack tracers that wrap the public functions
        monkeypatch.setattr(oracle, "_worker_count", lambda n_chunks: min(n_chunks, 2))
        callers, job_threads = set(), set()

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        wrappers = {}
        for short in ("oracle", "interference", "gates", "numerics"):
            module = importlib.import_module(f"tpi_sim.{short}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                    wrappers[obj] = recording(obj)
        for name, module in list(sys.modules.items()):
            if name == "tpi_sim" or name.startswith("tpi_sim."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        monkeypatch.setattr(module, attr, wrappers[obj])
        run_jobs = oracle._run_jobs

        def recording_run(jobs):
            def run(job):
                job_threads.add(threading.get_ident())
                job()

            run_jobs([functools.partial(run, job) for job in jobs])

        monkeypatch.setattr(oracle, "_run_jobs", recording_run)
        oracle.run_verification(**self.SIZES)
        assert callers == {threading.get_ident()}
        assert job_threads and threading.get_ident() not in job_threads

    def test_phase_factor_job_on_a_pool_equals_the_serial_loop(self, monkeypatch):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_chunks: min(n_chunks, 2))
        cases = [
            (QD_PAIR, 0.3e-9, 30_000, 4, 1.0),
            (NO_JITTER, -0.2e-9, 10_000, 5, 2.0),
            (detuned(QD_PAIR, 1e9), 0.1e-9, 12_345, 6, 0.5),
        ]
        jobs, finishes = [], []
        for case in cases:
            case_jobs, finish = oracle._phase_factor_chunks(*case)
            jobs += case_jobs
            finishes.append(finish)
        oracle._run_jobs(jobs)
        expected = [legacy_phase_factor(*case) for case in cases]
        assert [finish() for finish in finishes] == expected
        assert [mc_averaged_phase_factor(*case) for case in cases] == expected


class TestZeroVariancePoints:
    """At a lag of 0, or with all jitter scales zero, every Monte-Carlo
    sample is the same up to rounding; the check compares such points on
    their relative difference, because a z there divides by rounding noise."""

    def test_zero_lag_on_random_instances(self):
        rng = np.random.default_rng(5)
        results = []
        for seed in range(8):
            gate, i, j, k, l, pair = _random_instance(rng)
            est = mc_g2_estimate(gate, i, j, k, l, pair, 0.0, realizations=20, seed=seed)
            trace = g2_trace(gate, i, j, k, l, pair, [-1.0, 0.0, 1.0])
            closed, scale = float(trace.g2_values[1]), float(trace.g2_distinguishable[1])
            assert est.stderr <= 1e-12 * abs(est.value)
            results.append((est, closed, scale))
        # a z from the rounding-noise stderr would fail the 3-sigma gate
        assert max(abs(e.value - c) / e.stderr for e, c, _ in results if e.stderr) > 3.0
        check = _monte_carlo_check("trace", results)
        assert check.passed and check.observed == 0.0 and check.bound == 3.0
        assert check.name == "trace; 8 zero-variance points to 1e-9 relative"
        est, closed, scale = results[0]
        assert not _monte_carlo_check("trace", [(est, closed * (1.0 + 1e-8), scale)]).passed

    @pytest.mark.parametrize("tau", [-1e-9, 0.4e-9, 2e-9])
    def test_no_jitter_trace(self, tau):
        est = mc_g2_estimate(HOM, 1, 2, 1, 2, NO_JITTER, tau, realizations=20, seed=3)
        trace = g2_trace(HOM, 1, 2, 1, 2, NO_JITTER, [tau - 1.0, tau, tau + 1.0])
        closed, scale = float(trace.g2_values[1]), float(trace.g2_distinguishable[1])
        assert est.stderr <= 1e-12 * abs(est.value)
        check = _monte_carlo_check("trace", [(est, closed, scale)])
        assert check.passed and check.name == "trace; 1 zero-variance points to 1e-9 relative"

    def test_no_jitter_phase_factor(self):
        est = mc_averaged_phase_factor(NO_JITTER, 0.3e-9, trials=10_000, seed=3, gate_phase=1.0)
        assert est.stderr == 0.0  # compared too, not skipped
        closed = averaged_phase_factor(NO_JITTER, 0.3e-9, 1.0)
        assert _monte_carlo_check("phase", [(est, closed, 1.0)]).passed
        assert not _monte_carlo_check("phase", [(est, closed + 1e-6, 1.0)]).passed

    def test_random_points_keep_the_three_sigma_gate(self):
        noisy = (MonteCarloEstimate(1.0, 0.1), 1.25, 1.0)
        check = _monte_carlo_check("mixed", [noisy, (MonteCarloEstimate(2.0, 0.0), 2.0, 1.0)])
        assert check.observed == pytest.approx(2.5) and check.passed
        assert check.name == "mixed; 1 zero-variance points to 1e-9 relative"
        check = _monte_carlo_check("plain", [noisy, (MonteCarloEstimate(1.0, 0.1), 1.35, 1.0)])
        assert check.name == "plain" and not check.passed


    def test_zero_true_value_held_to_the_term_scale(self):
        # identical photons at a balanced splitter cancel exactly at tau = 0:
        # both sides are rounding noise of terms near the 3.6e8 baseline
        pair = PhotonPair.identical(EmitterParams(700e-12, 600e6, 1.4e9))
        est = mc_g2_estimate(HOM, 1, 2, 1, 2, pair, 0.0, realizations=20, seed=0)
        trace = g2_trace(HOM, 1, 2, 1, 2, pair, [-1.0, 0.0, 1.0])
        closed, scale = float(trace.g2_values[1]), float(trace.g2_distinguishable[1])
        assert est.stderr == 0.0 and abs(est.value) < 1e-6 and abs(closed) < 1e-6
        assert abs(est.value - closed) > 1e-9 * abs(closed)  # a bare relative test fails
        check = _monte_carlo_check("trace", [(est, closed, scale)])
        assert check.passed and check.name == "trace; 1 zero-variance points to 1e-9 relative"
        assert not _monte_carlo_check("trace", [(est, closed + 1e-8 * scale, scale)]).passed


class TestHaarUnitary:
    def test_equals_scipy_unitary_group(self):
        # scipy's sampler is the reference; the oracle carries its own copy
        rng = np.random.default_rng(12)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            seed = int(rng.integers(2**31 - 1))
            u = _haar_unitary(dim, seed)
            assert np.array_equal(u, unitary_group.rvs(dim, random_state=seed))
            assert np.allclose(u @ u.conj().T, np.eye(dim), rtol=0.0, atol=1e-14)

    def test_oracle_leaves_scipy_stats_unimported(self):
        code = (
            "import sys\n"
            "import tpi_sim\n"
            "from tpi_sim.oracle import run_verification\n"
            "run_verification(seed=1, closed_form_instances=1, mc_instances=1,\n"
            "                 mc_realizations=2, phase_trials=10_000)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = str(Path(tpi_sim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert done.stdout.strip() == "False"
