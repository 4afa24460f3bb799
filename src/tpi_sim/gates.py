"""Linear-optical gate unitaries: beam splitters, embeddings, the 6-mode
post-selected CNOT, and the state-preparation / tomography stages around it.

Mode indices in the public API are one-based, matching the usual optical-
circuit labelling; storage is a plain complex numpy matrix.  Matrices are
validated as finite and unitary (to 1e-12) on construction and treated as
immutable afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GateMatrix",
    "GateQuad",
    "beam_splitter",
    "embed",
    "compose",
    "gate_quad",
    "cnot_gate",
    "prep_gate",
    "tomography_gate",
    "TOMOGRAPHY_BASES",
    "gate_from_json",
    "gate_to_json",
]

UNITARITY_TOL = 1e-12

# Polarization-convention single-qubit states on a (|0>, |1>) rail pair.
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}
_ORTHO = {"H": "V", "V": "H", "D": "A", "A": "D", "R": "L", "L": "R"}

TOMOGRAPHY_BASES = ("HH", "VV", "DD", "AA", "RR", "LL")


@dataclass(frozen=True)
class GateMatrix:
    """Unitary N x N transfer matrix of a passive linear-optical network."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gate matrix must be square")
        # a nan defect compares False with the tolerance, so refuse it first
        finite = np.isfinite(m)
        if not finite.all():
            where = ", ".join(f"({r}, {c})" for r, c in np.argwhere(~finite) + 1)
            raise ValueError(f"gate matrix has non-finite entries at (row, column) {where}")
        object.__setattr__(self, "matrix", m)
        defect = self.unitarity_defect()
        if defect > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        """Largest |element| of U U^dagger - 1, which construction holds to ``UNITARITY_TOL``."""
        m = self.matrix
        return float(np.max(np.abs(m @ m.conj().T - np.eye(self.dim))))

    def _check_mode(self, mode: int) -> None:
        if not 1 <= mode <= self.dim:
            raise ValueError(f"mode {mode} out of range 1..{self.dim}")


@dataclass(frozen=True)
class GateQuad:
    """The four-element coefficient of the two-photon interference term.

    For inputs (i, j) and outputs (k, l) of a gate U this wraps
    U_li U_kj U*_ki U*_lj: its magnitude, its phase, and the two
    separable baseline terms |U_li|^2 |U_kj|^2 and |U_lj|^2 |U_ki|^2.
    The magnitude always equals sqrt(p0_terms[0] * p0_terms[1]).
    """

    magnitude: float
    phase: float
    p0_terms: tuple[float, float]


def beam_splitter(reflectivity: float) -> GateMatrix:
    """Two-mode splitter [[sqrt(R), sqrt(T)], [sqrt(T), -sqrt(R)]] with T = 1 - R."""
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    r = math.sqrt(reflectivity)
    t = math.sqrt(1.0 - reflectivity)
    return GateMatrix(np.array([[r, t], [t, -r]], dtype=complex))


def embed(gate: GateMatrix, modes: Sequence[int], total: int) -> GateMatrix:
    """Embed a small gate into ``total`` modes, identity elsewhere.

    ``modes`` lists the one-based target modes in the order of the small
    gate's own modes, so ``embed(bs, [4, 3], 6)`` applies the splitter with
    its first port on mode 4.
    """
    modes = list(modes)
    if len(modes) != gate.dim:
        raise ValueError("number of modes must match the gate dimension")
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    for m in modes:
        if not 1 <= m <= total:
            raise ValueError(f"mode {m} out of range 1..{total}")
    big = np.eye(total, dtype=complex)
    idx = np.array([m - 1 for m in modes])
    big[np.ix_(idx, idx)] = gate.matrix
    return GateMatrix(big)


def compose(a: GateMatrix, b: GateMatrix) -> GateMatrix:
    """Gate applying ``b`` first and then ``a`` (matrix product a @ b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return GateMatrix(a.matrix @ b.matrix)


def gate_quad(gate: GateMatrix, i: int, j: int, k: int, l: int) -> GateQuad:
    """Interference coefficient for photons entering (i, j), detected at (k, l)."""
    for m in (i, j, k, l):
        gate._check_mode(m)
    u = gate.matrix
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    q = complex(u[l, i] * u[k, j] * np.conj(u[k, i]) * np.conj(u[l, j]))
    p0a = abs(u[l, i]) ** 2 * abs(u[k, j]) ** 2
    p0b = abs(u[l, j]) ** 2 * abs(u[k, i]) ** 2
    # adding +0.0 turns a signed zero into +0.0 so real-negative quads get
    # the phase +pi rather than -pi
    phase = math.atan2(q.imag + 0.0, q.real + 0.0)
    return GateQuad(magnitude=abs(q), phase=phase, p0_terms=(p0a, p0b))


def cnot_gate() -> GateMatrix:
    """Post-selected linear-optical CNOT on 6 modes.

    Mode layout (one-based): 1 vacuum, 2 = |0>_C, 3 = |1>_C, 4 = |0>_T,
    5 = |1>_T, 6 vacuum.  A 1/2 splitter brackets the target rails on
    either side of a central 1/3 splitter between modes 3 and 4; modes
    2 and 5 are balanced by 1/3 couplings to the flanking vacuum modes.
    Post-selecting on a coincidence between the qubit rails implements
    the controlled flip with amplitude 1/3 on every computational input
    (success probability 1/9), which the test suite checks against a
    brute-force two-photon amplitude sum.
    """
    half = beam_splitter(0.5)
    third = beam_splitter(1.0 / 3.0)
    mix_targets = embed(half, [4, 5], 6)
    # Port order picks the sign of the sqrt(R) corner so that the
    # coincidence-basis truth table comes out with +1/3 amplitudes.
    central = compose(
        compose(embed(third, [4, 3], 6), embed(third, [2, 1], 6)),
        embed(third, [5, 6], 6),
    )
    return compose(mix_targets, compose(central, mix_targets))


def prep_gate() -> GateMatrix:
    """Control-qubit preparation stage on 6 modes.

    A 50/50 splitter (with its ports ordered so no extra phase is needed)
    takes a photon in |1>_C (mode 3) to (|0>_C + |1>_C)/sqrt(2) on modes 2, 3.
    """
    return embed(beam_splitter(0.5), [3, 2], 6)


def _tomography_block(state: str) -> np.ndarray:
    """2x2 rotation sending |state> to the second rail and its orthogonal
    complement to the first, i.e. rows (<state_perp|, <state|)."""
    ket = _KETS[state]
    perp = _KETS[_ORTHO[state]]
    return np.array([perp.conj(), ket.conj()])


def tomography_gate(basis: str) -> GateMatrix:
    """Projection stage rotating |X>_C |X>_T onto |1>_C |1>_T on 6 modes.

    ``basis`` is one of HH, VV, DD, AA, RR, LL.  Each rail pair (control
    modes 2, 3 and target modes 4, 5) gets the same 2x2 rotation, built so
    that the addressed polarization state maps exactly to the second rail.
    """
    if basis not in TOMOGRAPHY_BASES:
        raise ValueError(f"unknown tomography basis {basis!r}; expected one of {TOMOGRAPHY_BASES}")
    block = GateMatrix(_tomography_block(basis[0]))
    return compose(embed(block, [2, 3], 6), embed(block, [4, 5], 6))


def gate_to_json(gate: GateMatrix) -> list[list[list[float]]]:
    """Matrix as nested [re, im] pairs (row-major)."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in gate.matrix]


def gate_from_json(data: str | list) -> GateMatrix:
    """Parse a gate from a JSON array-of-arrays of [re, im] pairs.

    Accepts either the already-parsed nested list or a JSON string.
    Unitarity is validated on load.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed gate JSON: {exc}") from exc
    return GateMatrix(m)
