import json
import math

import numpy as np
import pytest

from tpi_sim.gates import (
    GateMatrix,
    TOMOGRAPHY_BASES,
    beam_splitter,
    cnot_gate,
    compose,
    embed,
    gate_from_json,
    gate_quad,
    gate_to_json,
    prep_gate,
    tomography_gate,
)

from helpers import element

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def two_photon_amplitude(gate: GateMatrix, i: int, j: int, k: int, l: int) -> complex:
    """Brute-force amplitude for photons in inputs (i, j) to reach (k, l).

    Independent of the interference module: plain permanent-style sum over
    the two ways the photons can pair up (one-based modes).
    """
    u = gate.matrix
    return u[k - 1, i - 1] * u[l - 1, j - 1] + u[k - 1, j - 1] * u[l - 1, i - 1]


class TestGateMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            GateMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entries,where",
        [
            ({(1, 2): np.nan}, "(2, 3)"),
            ({(1, 2): np.inf}, "(2, 3)"),
            ({(1, 2): -np.inf}, "(2, 3)"),
            ({(1, 2): complex(0.0, np.nan)}, "(2, 3)"),
            ({(0, 0): np.nan, (2, 1): np.inf}, "(1, 1), (3, 2)"),
        ],
    )
    def test_rejects_non_finite_entries(self, entries, where):
        # a nan defect compares False with the unitarity tolerance, and an
        # inf entry makes the product warn; both are refused before it
        m = np.eye(3, dtype=complex)
        for index, value in entries.items():
            m[index] = value
        with pytest.raises(ValueError) as refused:
            GateMatrix(m)
        assert str(refused.value) == f"gate matrix has non-finite entries at (row, column) {where}"

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GateMatrix(np.ones((2, 3)))

    def test_immutable(self):
        g = beam_splitter(0.5)
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0

    def test_one_based_element_access(self):
        g = beam_splitter(0.5)
        assert element(g, 2, 2) == pytest.approx(-INV_SQRT2)
        with pytest.raises(ValueError):
            element(g, 0, 1)


class TestBeamSplitter:
    def test_convention(self):
        g = beam_splitter(0.3)
        r, t = math.sqrt(0.3), math.sqrt(0.7)
        assert np.allclose(g.matrix, [[r, t], [t, -r]])

    def test_r_plus_t_must_be_one(self):
        # T is 1 - R by construction: a second argument is not accepted
        with pytest.raises(TypeError):
            beam_splitter(0.5, 0.6)
        with pytest.raises(ValueError):
            beam_splitter(1.2)

    def test_symmetric_quad(self):
        q = gate_quad(beam_splitter(0.5), 1, 2, 1, 2)
        assert q.magnitude == pytest.approx(0.25, abs=1e-15)
        assert q.phase == pytest.approx(math.pi, abs=1e-12)
        assert q.p0_terms[0] == pytest.approx(0.25, abs=1e-15)
        assert q.p0_terms[1] == pytest.approx(0.25, abs=1e-15)

    def test_mirror_quad_vanishes(self):
        q = gate_quad(beam_splitter(1.0), 1, 2, 1, 2)
        assert q.magnitude == 0.0


class TestEmbedCompose:
    def test_embed_block(self):
        g = embed(beam_splitter(0.5), [3, 4], 6)
        assert g.dim == 6
        assert element(g, 3, 3) == pytest.approx(INV_SQRT2)
        assert element(g, 1, 1) == 1.0
        assert g.unitarity_defect() < 1e-12

    def test_embed_identity_is_identity(self):
        eye = GateMatrix(np.eye(2))
        assert np.allclose(embed(eye, [2, 5], 6).matrix, np.eye(6))

    def test_disjoint_embeds_commute(self):
        a = embed(beam_splitter(0.3), [1, 2], 6)
        b = embed(beam_splitter(0.8), [4, 5], 6)
        assert np.allclose(compose(a, b).matrix, compose(b, a).matrix)

    def test_embed_port_order_matters(self):
        fwd = embed(beam_splitter(0.5), [3, 2], 6)
        rev = embed(beam_splitter(0.5), [2, 3], 6)
        assert element(fwd, 2, 2) == pytest.approx(-INV_SQRT2)
        assert element(rev, 2, 2) == pytest.approx(INV_SQRT2)

    def test_embed_validation(self):
        with pytest.raises(ValueError):
            embed(beam_splitter(0.5), [2, 2], 6)
        with pytest.raises(ValueError):
            embed(beam_splitter(0.5), [0, 3], 6)
        with pytest.raises(ValueError):
            embed(beam_splitter(0.5), [5, 7], 6)
        with pytest.raises(ValueError):
            embed(beam_splitter(0.5), [1, 2, 3], 6)

    def test_compose_inverse(self):
        g = cnot_gate()
        inv = GateMatrix(g.matrix.conj().T)
        assert np.max(np.abs(compose(g, inv).matrix - np.eye(6))) < 1e-12

    def test_compose_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose(beam_splitter(0.5), cnot_gate())


class TestGateQuad:
    def test_identity_quad_vanishes(self):
        eye = GateMatrix(np.eye(3))
        assert gate_quad(eye, 1, 2, 1, 2).magnitude == 0.0

    def test_magnitude_is_geometric_mean_of_baselines(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q_mat, _ = np.linalg.qr(m)
            gate = GateMatrix(q_mat)
            i, j = (int(v) + 1 for v in rng.choice(dim, 2, replace=False))
            k, l = (int(v) + 1 for v in rng.choice(dim, 2, replace=False))
            q = gate_quad(gate, i, j, k, l)
            assert q.magnitude == pytest.approx(
                math.sqrt(q.p0_terms[0] * q.p0_terms[1]), rel=1e-10, abs=1e-15
            )


class TestCnot:
    # mode layout: (1 vac, 2 |0>C, 3 |1>C, 4 |0>T, 5 |1>T, 6 vac)
    C0, C1, T0, T1 = 2, 3, 4, 5

    def test_unitarity(self):
        assert cnot_gate().unitarity_defect() < 1e-12

    def test_truth_table_amplitudes(self):
        g = cnot_gate()
        cases = [
            ((self.C0, self.T0), (self.C0, self.T0)),  # control 0: target kept
            ((self.C0, self.T1), (self.C0, self.T1)),
            ((self.C1, self.T0), (self.C1, self.T1)),  # control 1: target flipped
            ((self.C1, self.T1), (self.C1, self.T0)),
        ]
        for (ci, ti), (co, to) in cases:
            amp = two_photon_amplitude(g, ci, ti, co, to)
            assert amp == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_no_unflipped_leakage(self):
        g = cnot_gate()
        assert abs(two_photon_amplitude(g, self.C1, self.T0, self.C1, self.T0)) < 1e-14
        assert abs(two_photon_amplitude(g, self.C1, self.T1, self.C1, self.T1)) < 1e-14

    def test_success_amplitude_magnitude(self):
        amp = two_photon_amplitude(cnot_gate(), self.C1, self.T0, self.C1, self.T1)
        assert abs(amp) == pytest.approx(1.0 / 3.0, abs=1e-14)


class TestPrepAndTomography:
    def test_prep_maps_one_rail_to_superposition(self):
        vec = np.zeros(6, dtype=complex)
        vec[2] = 1.0  # photon in |1>_C (mode 3)
        out = prep_gate().matrix @ vec
        assert out[1] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert out[2] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert np.allclose(out[[0, 3, 4, 5]], 0.0)

    def test_vv_is_identity(self):
        assert np.allclose(tomography_gate("VV").matrix, np.eye(6))

    @pytest.mark.parametrize("basis", TOMOGRAPHY_BASES)
    def test_each_basis_rotates_onto_second_rail(self, basis):
        kets = {
            "H": [1.0, 0.0],
            "V": [0.0, 1.0],
            "D": [INV_SQRT2, INV_SQRT2],
            "A": [INV_SQRT2, -INV_SQRT2],
            "R": [INV_SQRT2, 1j * INV_SQRT2],
            "L": [INV_SQRT2, -1j * INV_SQRT2],
        }
        gate = tomography_gate(basis)
        for rails in ((2, 3), (4, 5)):
            vec = np.zeros(6, dtype=complex)
            vec[rails[0] - 1], vec[rails[1] - 1] = kets[basis[0]]
            out = gate.matrix @ vec
            assert abs(out[rails[0] - 1]) < 1e-14
            assert out[rails[1] - 1] == pytest.approx(1.0, abs=1e-14)

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            tomography_gate("XY")

    def test_all_stage_gates_unitary(self):
        for basis in TOMOGRAPHY_BASES:
            assert tomography_gate(basis).unitarity_defect() < 1e-12
        assert prep_gate().unitarity_defect() < 1e-12


class TestGateJson:
    def test_round_trip(self):
        g = cnot_gate()
        again = gate_from_json(json.dumps(gate_to_json(g)))
        assert np.allclose(again.matrix, g.matrix, atol=1e-15)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            gate_from_json([[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]]])

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            gate_from_json([[[1.0], [0.0]]])

    @pytest.mark.parametrize(
        "text", ["[[[NaN,0],[0,0]],[[0,0],[1,0]]]", "[[[1,0],[0,0]],[[0,0],[1,Infinity]]]"]
    )
    def test_non_finite_json_rejected(self, text):
        # json reads NaN and Infinity as floats
        with pytest.raises(ValueError, match="non-finite entries"):
            gate_from_json(text)
