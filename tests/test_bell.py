import math
import tracemalloc

import numpy as np
import pytest

from tpi_sim import bell, numerics
from tpi_sim.bell import (
    EmitterConstraint,
    bell_fidelity,
    emitter_assessment,
    fidelity_at_weight,
    fidelity_map,
)
from tpi_sim.emitter import EmitterParams, InfeasibleDecompositionError, PhotonPair
from tpi_sim.gates import (
    TOMOGRAPHY_BASES,
    cnot_gate,
    compose,
    prep_gate,
    tomography_gate,
)
from tpi_sim.interference import interference_weight, overlap_weight

from helpers import pair_from_normalized

IDEAL = PhotonPair.identical(EmitterParams(1e-9))


def amplitude_probability(gate, i, j, k, l) -> float:
    """Ideal-photon coincidence probability from brute-force amplitudes."""
    u = gate.matrix
    amp = u[k - 1, i - 1] * u[l - 1, j - 1] + u[k - 1, j - 1] * u[l - 1, i - 1]
    return abs(amp) ** 2


class TestBellFidelity:
    def test_ideal_photons(self):
        res = bell_fidelity(IDEAL)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_probability == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_matches_amplitude_bookkeeping_for_ideal_photons(self):
        # independent oracle at perfect indistinguishability: each raw p_XX
        # must equal the brute-force two-photon amplitude probability
        res = bell_fidelity(IDEAL)
        base = compose(cnot_gate(), prep_gate())
        for basis in TOMOGRAPHY_BASES:
            gate = compose(tomography_gate(basis), base)
            assert res.basis_probabilities[basis] == pytest.approx(
                amplitude_probability(gate, 3, 4, 3, 5), abs=1e-12
            )

    def test_expected_ideal_probabilities(self):
        # |Phi+> projections: 1/2 on HH/VV/DD/AA, 0 on RR/LL, scaled by the
        # 1/9 post-selection success
        probs = bell_fidelity(IDEAL).basis_probabilities
        for basis in ("HH", "VV", "DD", "AA"):
            assert probs[basis] == pytest.approx(1.0 / 18.0, abs=1e-12)
        for basis in ("RR", "LL"):
            assert probs[basis] == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_recomputable_from_stored_fields(self):
        pair = PhotonPair.identical(EmitterParams(0.8e-9, 0.4e9, 0.6e9))
        res = bell_fidelity(pair)
        p = res.basis_probabilities
        recomputed = (p["HH"] + p["VV"] + p["DD"] + p["AA"] - p["RR"] - p["LL"]) / (
            2.0 * res.success_probability
        )
        assert recomputed == res.fidelity

    def test_half_visibility_gives_half_fidelity(self):
        tau_r = 1e-9
        pair = PhotonPair.identical(EmitterParams(tau_r, dephasing_rate=0.5 / tau_r))
        assert interference_weight(pair) == pytest.approx(0.5, rel=1e-12)
        assert bell_fidelity(pair).fidelity == pytest.approx(0.5, abs=1e-9)

    def test_normalized_params_attached_only_for_identical_pairs(self):
        res = bell_fidelity(PhotonPair.identical(EmitterParams(1e-9, 1e8, 1e8)))
        assert res.normalized_params is not None
        res = bell_fidelity(
            PhotonPair(EmitterParams(1e-9), EmitterParams(0.9e-9))
        )
        assert res.normalized_params is None

    def test_complex_phase_diagnostic(self):
        res = bell_fidelity(IDEAL)
        # the circular bases go through complex rotations, yet every
        # coincidence quad of the circuit has a real phase
        assert res.complex_phase_bases == ()

    def test_agrees_with_weight_parametrization(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pair = PhotonPair.identical(
                EmitterParams(
                    rng.uniform(0.2e-9, 2e-9), rng.uniform(0, 2e9), rng.uniform(0, 2e9)
                )
            )
            expected = fidelity_at_weight(interference_weight(pair))
            assert bell_fidelity(pair).fidelity == pytest.approx(expected, rel=1e-10)

    def test_linear_bases_dominate_circular_ones(self):
        # the signed tomography sum stays nonnegative for physical pairs
        rng = np.random.default_rng(27)
        for _ in range(15):
            pair = PhotonPair(
                EmitterParams(rng.uniform(0.1e-9, 2e-9), rng.uniform(0, 3e9), rng.uniform(0, 3e9)),
                EmitterParams(rng.uniform(0.1e-9, 2e-9), rng.uniform(0, 3e9), rng.uniform(0, 3e9),
                              detuning=rng.uniform(-3e9, 3e9)),
            )
            p = bell_fidelity(pair).basis_probabilities
            linear = p["HH"] + p["VV"] + p["DD"] + p["AA"]
            circular = p["RR"] + p["LL"]
            assert linear >= circular - 1e-15

    def test_works_for_distinct_emitters(self):
        pair = PhotonPair(
            EmitterParams(0.7e-9, 0.6e9, 1.4e9), EmitterParams(0.65e-9, 0.3e9, 0.8e9)
        )
        res = bell_fidelity(pair)
        assert res.fidelity == pytest.approx(
            float(fidelity_at_weight(interference_weight(pair))), rel=1e-10
        )


def full_circuit_fidelity(weight: float) -> float:
    """Bell-state fidelity from the composed six-mode gates, outcome by outcome.

    Photons enter modes 3 and 4.  A pair of overlap weight w is the mixture
    w |perm|^2 + (1 - w) (|U_k3 U_l4|^2 + |U_k4 U_l3|^2) of the
    indistinguishable and the distinguishable two-photon probabilities of
    outputs (k, l); none of the affine terms of ``bell`` is used.
    """

    def p_coinc(u, k, l):
        a, b = u[k - 1, 2] * u[l - 1, 3], u[k - 1, 3] * u[l - 1, 2]
        return weight * abs(a + b) ** 2 + (1.0 - weight) * (abs(a) ** 2 + abs(b) ** 2)

    base = compose(cnot_gate(), prep_gate())
    probs, success = {}, []
    for basis in TOMOGRAPHY_BASES:
        u = compose(tomography_gate(basis), base).matrix
        probs[basis] = p_coinc(u, 3, 5)
        success.append(sum(p_coinc(u, k, l) for k in (2, 3) for l in (4, 5)))
    signed = probs["HH"] + probs["VV"] + probs["DD"] + probs["AA"] - probs["RR"] - probs["LL"]
    return signed / (2.0 * float(np.mean(success)))


class TestAffineAgainstFullCircuit:
    def random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            emitters = [
                EmitterParams(
                    10 ** rng.uniform(-11.0, -8.0),
                    float(rng.choice([0.0, 10 ** rng.uniform(6.0, 10.5)])),
                    float(rng.choice([0.0, 10 ** rng.uniform(6.0, 10.5)])),
                    float(rng.choice([0.0, rng.uniform(-5e9, 5e9)])),
                )
                for _ in range(2)
            ]
            yield PhotonPair.identical(emitters[0])
            yield PhotonPair(*emitters)

    @pytest.mark.parametrize("seed", [51, 52])
    def test_bell_fidelity_and_fidelity_at_weight(self, seed):
        for pair in self.random_pairs(seed):
            weight = interference_weight(pair)
            reference = full_circuit_fidelity(weight)
            assert abs(bell_fidelity(pair).fidelity - reference) <= 1e-13
            assert abs(fidelity_at_weight(weight) - reference) <= 1e-13

    def test_covers_the_weight_range(self):
        weights = [interference_weight(p) for p in self.random_pairs(51)]
        assert min(weights) < 0.05 and max(weights) > 0.9


class TestFidelityAtWeight:
    def test_frozen_anchor_points(self):
        # frozen from the amplitude-level prototype of this circuit:
        # F(1) = 1, F(1/2) = 1/2, F(0) = 1/4, and two interior points
        assert fidelity_at_weight(1.0) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_at_weight(0.5) == pytest.approx(0.5, abs=1e-12)
        assert fidelity_at_weight(0.0) == pytest.approx(0.25, abs=1e-12)
        assert fidelity_at_weight(0.75) == pytest.approx(0.7, abs=1e-12)
        assert fidelity_at_weight(0.9) == pytest.approx(0.8636363636363636, abs=1e-12)

    def test_monotone_increasing(self):
        w = np.linspace(0.0, 1.0, 200)
        f = fidelity_at_weight(w)
        assert np.all(np.diff(f) > 0.0)

    def test_below_visibility_in_entangling_regime(self):
        w = np.linspace(0.5 + 1e-6, 1.0 - 1e-6, 100)
        f = fidelity_at_weight(w)
        assert np.all(f < w)


class TestFidelityMap:
    def test_fourier_corner(self):
        assert fidelity_map([1.0], [0.0])[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_decreasing_and_bounded(self):
        m = fidelity_map(np.linspace(1.0, 8.0, 30), np.linspace(0.0, 4.0, 30))
        assert np.all(np.diff(m, axis=0) < 0.0)
        assert np.all(np.diff(m, axis=1) < 0.0)
        assert np.all(m <= 1.0 + 1e-9)

    def test_spot_agreement_with_full_evaluation(self):
        pd, sd = [1.3, 2.5], [0.2, 1.1]
        m = fidelity_map(pd, sd)
        for a, tp in enumerate(pd):
            for b, ts in enumerate(sd):
                direct = bell_fidelity(pair_from_normalized(tp, ts)).fidelity
                assert m[a, b] == pytest.approx(direct, rel=1e-10)


class TestEmitterConstraint:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            EmitterConstraint(lifetime=1e-9)
        with pytest.raises(ValueError):
            EmitterConstraint(lifetime=1e-9, coherence_time=1e-9, total_fwhm=1e9)
        with pytest.raises(ValueError):
            EmitterConstraint(lifetime=1e-9, lorentzian_fwhm=3e8)  # needs gaussian
        with pytest.raises(ValueError):
            EmitterConstraint(lifetime=1e-9, coherence_time=1e-9, gaussian_fwhm=1e8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    @pytest.mark.parametrize(
        "field,others",
        [
            ("lifetime", {"coherence_time": 1e-10}),
            ("coherence_time", {}),
            ("total_fwhm", {}),
            ("lorentzian_fwhm", {"gaussian_fwhm": 1e8}),
            ("lorentzian_fwhm_max", {"gaussian_fwhm": 1e8}),
            ("gaussian_fwhm", {"lorentzian_fwhm": 3e8}),
        ],
    )
    def test_rejects_non_finite_and_non_positive_values(self, field, others, bad):
        kwargs = {"lifetime": 1e-9, **others, field: bad}
        if field == "gaussian_fwhm" and bad == 0.0:
            EmitterConstraint(**kwargs)  # a pure Lorentzian is a valid split
            return
        with pytest.raises(ValueError, match=field):
            EmitterConstraint(**kwargs)

    def test_known_split_single_point(self):
        c = EmitterConstraint(lifetime=410e-12, lorentzian_fwhm=480e6, gaussian_fwhm=550e6)
        pts = c.decomposition()
        assert len(pts) == 1
        assert pts[0][0] == pytest.approx(math.pi * 480e6 - 0.5 / 410e-12, rel=1e-12)
        assert pts[0][1] == 550e6

    def test_bounded_lorentzian_segment(self):
        c = EmitterConstraint(
            lifetime=12e-9, lorentzian_fwhm_max=20e6, gaussian_fwhm=100e6
        )
        pts = c.decomposition(n_points=50)
        assert len(pts) == 50
        assert pts[0][0] == 0.0
        assert pts[-1][0] == pytest.approx(math.pi * 20e6 - 0.5 / 12e-9, rel=1e-12)
        assert all(f == 100e6 for _, f in pts)

    def test_sub_fourier_bounds_rejected(self):
        with pytest.raises(InfeasibleDecompositionError):
            EmitterConstraint(
                lifetime=12e-9, lorentzian_fwhm=10e6, gaussian_fwhm=1e6
            ).decomposition()
        with pytest.raises(InfeasibleDecompositionError):
            EmitterConstraint(
                lifetime=12e-9, lorentzian_fwhm_max=10e6, gaussian_fwhm=1e6
            ).decomposition()


class TestEmitterAssessment:
    def test_known_split_point_ranges(self):
        c = EmitterConstraint(lifetime=410e-12, lorentzian_fwhm=480e6, gaussian_fwhm=550e6)
        res = emitter_assessment(c)
        assert res.visibility_range[0] == res.visibility_range[1]
        assert res.visibility_range[0] == pytest.approx(0.6189, abs=2e-4)
        assert res.fidelity_range[0] == pytest.approx(0.5861, abs=2e-4)
        assert res.points is not None and len(res.points) == 1

    def test_identical_sweep_is_monotone_along_curve(self):
        res = emitter_assessment(
            EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6), n_points=60
        )
        vs = [p.visibility for p in res.points]
        # toward the all-dephasing endpoint the visibility falls
        assert vs[0] == min(vs)
        assert vs[-1] == max(vs)
        assert res.visibility_range == (min(vs), max(vs))
        assert res.fidelity_range == (
            min(p.fidelity for p in res.points),
            max(p.fidelity for p in res.points),
        )

    def test_product_sweep_for_two_distinct_emitters(self):
        res = emitter_assessment(
            EmitterConstraint(lifetime=670e-12, coherence_time=330e-12),
            EmitterConstraint(lifetime=660e-12, coherence_time=420e-12),
            n_points=60,
        )
        assert res.points is None
        lo, hi = res.visibility_range
        assert lo == pytest.approx(0.2772, abs=2e-3)
        assert hi == pytest.approx(0.3190, abs=2e-3)

    @pytest.mark.parametrize(
        "constraint",
        [
            EmitterConstraint(lifetime=670e-12, coherence_time=330e-12),
            EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6),
        ],
    )
    def test_two_points_span_both_extremes(self, constraint):
        # n_points = 2 is the all-dephasing and the all-diffusion endpoint
        full = emitter_assessment(constraint, n_points=200)
        ends = emitter_assessment(constraint, n_points=2)
        assert ends.points == (full.points[0], full.points[-1])
        assert ends.points[-1].dephasing_rate == 0.0
        assert ends.visibility_range == full.visibility_range

    def test_infeasible_constraint_propagates(self):
        with pytest.raises(InfeasibleDecompositionError):
            emitter_assessment(EmitterConstraint(lifetime=1e-9, coherence_time=3e-9))


PAIRS = {
    "coherence": (
        EmitterConstraint(lifetime=670e-12, coherence_time=330e-12),
        EmitterConstraint(lifetime=660e-12, coherence_time=420e-12),
    ),
    "voigt-bounded": (
        EmitterConstraint(lifetime=1.72e-9, total_fwhm=119e6),
        EmitterConstraint(lifetime=12e-9, lorentzian_fwhm_max=20e6, gaussian_fwhm=100e6),
    ),
}


def full_grid_ranges(first, second, n_points):
    """The pair ranges from one overlap_weight call on the whole outer grid."""
    _, _, gamma_i, var_i, _, _ = first.curve(n_points)
    _, _, gamma_j, var_j, _, _ = second.curve(n_points)
    sigma = np.sqrt(var_i[:, None] + var_j)
    tau_sum = first.lifetime + second.lifetime
    weights = overlap_weight(gamma_i[:, None] + gamma_j, sigma, 0.0, tau_sum)
    fidelities = fidelity_at_weight(weights)
    return (weights.min(), weights.max()), (fidelities.min(), fidelities.max())


class TestBlockedPairGrid:
    """A pair of constraints is swept a block of rows at a time, keeping only
    the running minima and maxima; the kernels are elementwise, so the ranges
    are bit for bit those of the whole grid."""

    @pytest.mark.parametrize("block", [None, 7])  # 7: one row per block, ragged blocks
    @pytest.mark.parametrize("n_points", [2, 3, 203])  # 203 rows: a ragged last block
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_ranges_equal_the_full_grid(self, monkeypatch, pair, n_points, block):
        if block is not None:
            monkeypatch.setattr(numerics, "_BLOCK", block)
        first, second = PAIRS[pair]
        res = emitter_assessment(first, second, n_points)
        visibility, fidelity = full_grid_ranges(first, second, n_points)
        assert res.visibility_range == visibility
        assert res.fidelity_range == fidelity
        assert res.columns is None and res.points is None

    def test_nan_in_one_block_reaches_both_ranges(self, monkeypatch):
        first, second = PAIRS["coherence"]
        calls = []

        def weight_with_a_nan(*args):
            weights = overlap_weight(*args)
            calls.append(weights.shape)
            if len(calls) == 2:
                weights[-1, -1] = np.nan
            return weights

        monkeypatch.setattr(bell, "overlap_weight", weight_with_a_nan)
        res = emitter_assessment(first, second, 203)
        assert len(calls) > 2 and calls[0] == (numerics._BLOCK // 203, 203)
        assert all(math.isnan(v) for v in res.visibility_range + res.fidelity_range)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_memory_does_not_grow_with_the_grid(self, pair):
        # one 1500 x 1500 float array is 18 MB; the blocked sweep peaks at
        # about 0.7 MB (coherence) and 1.5 MB (the Voigt curve) of traced memory
        first, second = PAIRS[pair]
        emitter_assessment(first, second, 3)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            emitter_assessment(first, second, 1500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
