"""Property tests over the one overlap kernel behind every visibility.

``interference_weight``, ``hom_visibility``, ``tuning_curve`` and
``visibility_map`` all evaluate ``overlap_weight``.  ``hom_visibility`` is the weight bit for
bit wherever it lies in [0, 1], with p_coinc = (1 - V) / 2, and the map is
held to ``test_interference.erfcx_visibility``, an mpmath evaluation of the
lifetime-free ``erfcx`` closed form, as its independent reference.  Input
ranges are wide on purpose: lifetimes from 0.1 ps to 1 ms, rates, widths
and detunings from 1 to 1e15 (or exactly zero).  On random unitaries of
dimension 2-6 and on the balanced splitter, the correlation trace's
interference term is checked against its distinguishable baseline, the
coincidence probabilities of all output pairs (bunched ones included)
against probability conservation, and ``g2_trace`` at lags out to 1e300
must be finite, nonnegative and warning-free, a scalar lag giving the bits
of its element of an array call.  Every split of a coherence-time or a Voigt
``EmitterConstraint`` must reproduce the linewidth it was solved for.
"""

import math
import warnings

import numpy as np
from hypothesis import given, strategies as st

from tpi_sim.emitter import EmitterConstraint, EmitterParams, PhotonPair, coherence_time
from tpi_sim.gates import GateMatrix, beam_splitter, gate_quad
from tpi_sim.interference import (
    SIGMA_LIFETIME_THRESHOLD,
    _baseline,
    _interference_term,
    coincidence_probability,
    g2_trace,
    hom_visibility,
    interference_weight,
    tuning_curve,
    visibility_map,
)
from tpi_sim.numerics import voigt_fwhm

from helpers import detuned
from test_interference import erfcx_visibility


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def zero_or(values):
    return st.one_of(st.just(0.0), values)


LIFETIMES = log_uniform(1e-13, 1e-3)  # s
RATES = zero_or(log_uniform(1.0, 1e15))  # 1/s
WIDTHS = zero_or(log_uniform(1.0, 1e15))  # Hz
DETUNINGS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1.0, 1e15)).map(lambda t: t[0] * t[1]),
)  # Hz

EMITTERS = st.builds(EmitterParams, LIFETIMES, RATES, WIDTHS, DETUNINGS)
PAIRS = st.builds(PhotonPair, EMITTERS, EMITTERS)

# theta_sd where the Lorentzian switch flips, and the floats around it
THETA_SD_SWITCH = math.sqrt(math.log(2.0)) * SIGMA_LIFETIME_THRESHOLD


def _ulps_from_switch(k):
    x = THETA_SD_SWITCH
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


THETA_PD = st.one_of(st.just(1.0), log_uniform(1.0, 1e6))
THETA_SD = st.one_of(
    st.just(0.0),
    st.integers(-4, 4).map(_ulps_from_switch),
    log_uniform(1e-12, 1e4),
)


@given(PAIRS)
def test_weight_of_physical_pairs_is_a_probability(pair):
    weight = interference_weight(pair)
    assert 0.0 <= weight <= 1.0 + 1e-12


@given(PAIRS)
def test_hom_visibility_is_the_overlap_weight(pair):
    weight = interference_weight(pair)
    res = hom_visibility(pair)
    if 0.0 <= weight <= 1.0:
        assert res.visibility.hex() == weight.hex()
    assert res.p_coinc.hex() == (0.5 * (1.0 - res.visibility)).hex()


@given(PAIRS, st.lists(DETUNINGS, min_size=1, max_size=8))
def test_tuning_curve_is_hom_visibility_bit_for_bit(pair, grid):
    visibility, p_coinc = tuning_curve(pair, np.array(grid))
    assert visibility.shape == p_coinc.shape == (len(grid),)
    for v, p, dnu in zip(visibility.tolist(), p_coinc.tolist(), grid):
        ref = hom_visibility(detuned(pair, dnu))
        assert v.hex() == ref.visibility.hex()
        assert p.hex() == ref.p_coinc.hex()


@given(st.lists(THETA_PD, min_size=1, max_size=6), st.lists(THETA_SD, min_size=1, max_size=6))
def test_visibility_map_matches_erfcx_closed_form(theta_pd, theta_sd):
    m = visibility_map(theta_pd, theta_sd)
    ref = np.array([[float(erfcx_visibility(p, s)) for s in theta_sd] for p in theta_pd])
    np.testing.assert_allclose(m, ref, rtol=1e-14, atol=0.0)


@given(
    st.lists(THETA_PD, min_size=2, max_size=6, unique=True),
    st.lists(THETA_SD, min_size=2, max_size=6, unique=True),
)
def test_visibility_map_non_increasing_along_both_axes(theta_pd, theta_sd):
    m = visibility_map(sorted(theta_pd), sorted(theta_sd))
    assert np.all(m[1:, :] <= m[:-1, :] * (1.0 + 1e-14))
    assert np.all(m[:, 1:] <= m[:, :-1] * (1.0 + 1e-14))


def _unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


@st.composite
def gates_and_modes(draw):
    # the balanced splitter with an identical pair reaches the bound at
    # tau = 0, so a scaled-up interference term cannot pass unnoticed
    gate = draw(
        st.one_of(
            st.just(beam_splitter(0.5)),
            st.builds(_unitary, st.integers(2, 6), st.integers(0, 2**32 - 1)),
        )
    )
    modes = st.lists(st.integers(1, gate.dim), min_size=2, max_size=2, unique=True)
    return gate, *draw(modes), *draw(modes)


LAGS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1e-16, 1e-2)).map(lambda t: t[0] * t[1]),
)  # s


@given(
    gates_and_modes(),
    st.one_of(PAIRS, EMITTERS.map(PhotonPair.identical)),
    st.lists(LAGS, min_size=1, max_size=8),
)
def test_interference_term_bounded_by_baseline(instance, pair, lags):
    # the guarantee behind g2_trace's clip at 0: G2 >= 0 up to rounding
    gate, i, j, k, l = instance
    quad = gate_quad(gate, i, j, k, l)
    tau = np.array(lags)
    baseline = _baseline(quad, pair, tau)
    assert np.all(np.abs(_interference_term(quad, pair, tau)) <= baseline * (1.0 + 1e-12))


# lags out to the far tails, where tau^2 and the beat's phase overflow
FAR_LAGS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300]),
    st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1e-16, 1e300)).map(lambda t: t[0] * t[1]),
)  # s


@given(
    gates_and_modes(),
    st.one_of(PAIRS, EMITTERS.map(PhotonPair.identical)),
    st.lists(FAR_LAGS, min_size=1, max_size=8),
)
def test_g2_trace_at_a_lag_is_its_array_element(instance, pair, lags):
    # finite, nonnegative and warning-free at every finite lag, and a
    # scalar lag gives the bits of its element of one array call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g2, g0 = g2_trace(*instance, pair, np.array(lags))
        scalar = [g2_trace(*instance, pair, tau) for tau in lags]
    assert [(a.hex(), b.hex()) for a, b in scalar] == [
        (a.hex(), b.hex()) for a, b in zip(g2.tolist(), g0.tolist())
    ]
    assert np.all(np.isfinite(g2) & np.isfinite(g0) & (g2 >= 0.0) & (g0 >= 0.0))


@given(
    st.one_of(
        st.just(beam_splitter(0.5)),
        st.builds(_unitary, st.integers(2, 6), st.integers(0, 2**32 - 1)),
    ).flatmap(
        lambda gate: st.tuples(
            st.just(gate), st.lists(st.integers(1, gate.dim), min_size=2, max_size=2, unique=True)
        )
    ),
    st.one_of(PAIRS, EMITTERS.map(PhotonPair.identical)),
)
def test_output_probabilities_sum_to_one(instance, pair):
    # sum_{k<l} p_kl + sum_k p_kk = 1: bunched outputs close the sum
    gate, (i, j) = instance
    outputs = range(1, gate.dim + 1)
    total = sum(
        coincidence_probability(gate, i, j, k, l, pair) for k in outputs for l in outputs if k <= l
    )
    assert abs(total - 1.0) <= 1e-14


# how far a linewidth lies above the Fourier limit, as a ratio minus one
EXCESS = zero_or(log_uniform(1e-12, 1e6))


@given(LIFETIMES, EXCESS, st.integers(2, 40))
def test_voigt_splits_reproduce_the_linewidth(lifetime, excess, n_points):
    total_fwhm = (1.0 + excess) / (2.0 * math.pi * lifetime)
    constraint = EmitterConstraint(lifetime, total_fwhm=total_fwhm)
    rates, gauss = np.array(constraint.decomposition(n_points)).T
    lorentz = (rates + 0.5 / lifetime) / math.pi
    np.testing.assert_allclose(voigt_fwhm(lorentz, gauss), total_fwhm, rtol=1e-14, atol=0.0)


@given(LIFETIMES, log_uniform(1e-9, 1.0), st.integers(2, 40))
def test_coherence_splits_reproduce_the_coherence_time(lifetime, x_c, n_points):
    tau_c = 2.0 * lifetime * x_c
    for rate, fwhm in EmitterConstraint(lifetime, coherence_time=tau_c).decomposition(n_points):
        assert abs(coherence_time(lifetime, rate, fwhm) - tau_c) <= 1e-12 * tau_c
