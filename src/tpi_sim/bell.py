"""Bell-state generation through the post-selected CNOT circuit.

The full circuit is tomography * CNOT * preparation on six modes, fed with
the control photon in |1>_C (input mode 3) and the target photon in |0>_T
(input mode 4), post-selected on a coincidence between outputs 3 and 5.
The fidelity with the |Phi+> Bell state is assembled from six projective
coincidence probabilities,

    F = (pHH + pVV + pDD + pAA - pRR - pLL) / 2,

with every p_XX evaluated by the closed-form coincidence probability of
the composed gate.  The raw p_XX carry the 1/9 post-selection factor of
the nondeterministic CNOT; the fidelity divides by the measured success
probability (the sum over the four rail-pair outcomes, which is the same
in every tomography setting), so ideal photons give exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .emitter import (
    EmitterParams,
    InfeasibleDecompositionError,
    NormalizedParams,
    PhotonPair,
    decompose_linewidth,
    decompose_voigt_fwhm,
    normalized_params,
)
from .gates import (
    GateMatrix,
    GateQuad,
    TOMOGRAPHY_BASES,
    cnot_gate,
    compose,
    gate_quad,
    prep_gate,
    tomography_gate,
)
from .interference import interference_weight, overlap_weight, visibility_map

__all__ = [
    "FidelityResult",
    "EmitterConstraint",
    "AssessmentPoint",
    "AssessmentResult",
    "bell_fidelity",
    "fidelity_at_weight",
    "fidelity_map",
    "emitter_assessment",
]

# Circuit conventions (one-based modes).
CONTROL_IN, TARGET_IN = 3, 4
COINC_OUT = (3, 5)
CONTROL_RAILS = (2, 3)
TARGET_RAILS = (4, 5)

# A composed-gate quad whose phase has |sin| * magnitude above this is
# recorded as genuinely complex (diagnostic only; the closed form stays
# exact because the odd part integrates to zero).
COMPLEX_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class FidelityResult:
    """Bell-state fidelity plus the raw tomography probabilities behind it."""

    fidelity: float
    basis_probabilities: dict[str, float]
    success_probability: float
    normalized_params: NormalizedParams | None
    complex_phase_bases: tuple[str, ...]


@lru_cache(maxsize=1)
def _stage_gates() -> dict[str, GateMatrix]:
    base = compose(cnot_gate(), prep_gate())
    return {basis: compose(tomography_gate(basis), base) for basis in TOMOGRAPHY_BASES}


# A coincidence probability is affine in the spectral overlap weight w:
# p = p0a + p0b + s * w with s = 2 |quad| cos(Phi_U), the closed form of
# coincidence_probability.  _Affine holds (p0a, p0b, s).
_Affine = tuple[float, float, float]


def _affine(quad: GateQuad) -> _Affine:
    return quad.p0_terms[0], quad.p0_terms[1], 2.0 * quad.magnitude * math.cos(quad.phase)


def _probability(terms: _Affine, weight: float) -> float:
    p0a, p0b, slope = terms
    return p0a + p0b + slope * weight


@lru_cache(maxsize=1)
def _basis_terms() -> dict[str, tuple[_Affine, tuple[_Affine, ...], bool]]:
    """Per tomography basis: the affine terms of the coincidence outputs, those
    of the four rail-pair outcomes, and whether the coincidence quad carries
    a genuinely complex phase."""
    terms = {}
    for basis, gate in _stage_gates().items():
        quad = gate_quad(gate, CONTROL_IN, TARGET_IN, *COINC_OUT)
        rails = tuple(
            _affine(gate_quad(gate, CONTROL_IN, TARGET_IN, ko, lo))
            for ko in CONTROL_RAILS
            for lo in TARGET_RAILS
        )
        is_complex = abs(math.sin(quad.phase)) * quad.magnitude > COMPLEX_PHASE_TOL
        terms[basis] = (_affine(quad), rails, is_complex)
    return terms


@lru_cache(maxsize=1)
def _weight_coefficients() -> tuple[float, float, float, float]:
    """Linear coefficients of the fidelity numerator and success vs weight.

    Returns (raw_const, raw_slope, succ_const, succ_slope) where raw is the
    signed six-basis sum and succ the four-outcome total (verified
    identical across settings to 1e-12).
    """
    raw_const = raw_slope = 0.0
    succ = []
    for basis, ((p0a, p0b, slope), rails, _) in _basis_terms().items():
        sign = -1.0 if basis in ("RR", "LL") else 1.0
        raw_const += sign * (p0a + p0b)
        raw_slope += sign * slope
        c = s = 0.0
        for ra, rb, rs in rails:
            c += ra + rb
            s += rs
        succ.append((c, s))
    consts = np.array([c for c, _ in succ])
    slopes = np.array([s for _, s in succ])
    if np.ptp(consts) > 1e-12 or np.ptp(slopes) > 1e-12:
        raise AssertionError("success probability should not depend on the tomography setting")
    return raw_const, raw_slope, float(consts[0]), float(slopes[0])


def fidelity_at_weight(weight: float | np.ndarray) -> float | np.ndarray:
    """Bell-state fidelity as a function of the spectral overlap weight.

    The weight is :func:`tpi_sim.interference.interference_weight` of the
    photon pair (the pair's HOM visibility).  Scalar or array input.
    """
    raw_const, raw_slope, succ_const, succ_slope = _weight_coefficients()
    w = np.asarray(weight, dtype=float)
    out = (raw_const + raw_slope * w) / (2.0 * (succ_const + succ_slope * w))
    return float(out) if out.ndim == 0 else out


def bell_fidelity(pair: PhotonPair) -> FidelityResult:
    """Fidelity of the post-selected Bell state for a given photon pair.

    Evaluates the six projective coincidence probabilities through the
    composed gates, normalizes their signed sum by the post-selection
    success probability, and records any basis whose interference quad
    carries a genuinely complex phase.  The overlap weight is computed once
    and enters every probability through the cached per-basis affine terms.
    """
    weight = interference_weight(pair)
    probs: dict[str, float] = {}
    complex_bases: list[str] = []
    success_by_basis = []
    for basis, (coinc, rails, is_complex) in _basis_terms().items():
        probs[basis] = _probability(coinc, weight)
        if is_complex:
            complex_bases.append(basis)
        success_by_basis.append(sum(_probability(terms, weight) for terms in rails))
    if np.ptp(success_by_basis) > 1e-9:
        raise AssertionError("tomography settings disagree on the success probability")
    success = float(np.mean(success_by_basis))
    raw = (
        probs["HH"] + probs["VV"] + probs["DD"] + probs["AA"] - probs["RR"] - probs["LL"]
    )
    return FidelityResult(
        fidelity=raw / (2.0 * success),
        basis_probabilities=probs,
        success_probability=success,
        normalized_params=normalized_params(pair.emitter_i) if pair.is_identical else None,
        complex_phase_bases=tuple(complex_bases),
    )


def fidelity_map(
    theta_pd_grid: Sequence[float] | np.ndarray,
    theta_sd_grid: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Fidelity on the outer product of normalized-linewidth grids.

    Shape (len(theta_pd_grid), len(theta_sd_grid)); computed from the
    visibility map through the affine weight coefficients of the circuit,
    which tests pin against per-point :func:`bell_fidelity` evaluations.
    """
    return fidelity_at_weight(visibility_map(theta_pd_grid, theta_sd_grid))


@dataclass(frozen=True)
class EmitterConstraint:
    """What is known about one emitter, for sweeping the unknown split.

    Exactly one of these input modes must be provided besides ``lifetime``:

    * ``coherence_time`` -- sweep all dephasing/inhomogeneous splits with
      this coherence time,
    * ``total_fwhm`` -- sweep all splits whose Voigt linewidth matches,
    * ``lorentzian_fwhm`` together with ``gaussian_fwhm`` -- fully known
      split, a single point,
    * ``lorentzian_fwhm_max`` together with ``gaussian_fwhm`` -- Lorentzian
      component bounded above (for example by a fast-scan linewidth), with
      a fixed, independently measured Gaussian spread.
    """

    lifetime: float
    coherence_time: float | None = None
    total_fwhm: float | None = None
    lorentzian_fwhm: float | None = None
    lorentzian_fwhm_max: float | None = None
    gaussian_fwhm: float | None = None

    def __post_init__(self) -> None:
        if self.lifetime <= 0.0:
            raise ValueError("lifetime must be positive")
        modes = [
            self.coherence_time is not None,
            self.total_fwhm is not None,
            self.lorentzian_fwhm is not None,
            self.lorentzian_fwhm_max is not None,
        ]
        if sum(modes) != 1:
            raise ValueError(
                "provide exactly one of coherence_time, total_fwhm, "
                "lorentzian_fwhm, lorentzian_fwhm_max"
            )
        needs_gauss = self.lorentzian_fwhm is not None or self.lorentzian_fwhm_max is not None
        if needs_gauss and self.gaussian_fwhm is None:
            raise ValueError("a known or bounded Lorentzian width needs gaussian_fwhm")
        if not needs_gauss and self.gaussian_fwhm is not None:
            raise ValueError("gaussian_fwhm only combines with a Lorentzian width")

    def decomposition(self, n_points: int = 200) -> list[tuple[float, float]]:
        """(dephasing_rate, inhomogeneous_fwhm) samples consistent with this constraint."""
        fourier_rate = 0.5 / self.lifetime
        if self.coherence_time is not None:
            return decompose_linewidth(self.lifetime, self.coherence_time, n_points)
        if self.total_fwhm is not None:
            return decompose_voigt_fwhm(self.lifetime, self.total_fwhm, n_points)
        if self.lorentzian_fwhm is not None:
            rate = math.pi * self.lorentzian_fwhm - fourier_rate
            if rate < -1e-9 * fourier_rate:
                raise InfeasibleDecompositionError(
                    "lorentzian_fwhm is below the Fourier limit"
                )
            return [(max(rate, 0.0), float(self.gaussian_fwhm))]
        rate_max = math.pi * self.lorentzian_fwhm_max - fourier_rate
        if rate_max < -1e-9 * fourier_rate:
            raise InfeasibleDecompositionError(
                "lorentzian_fwhm_max is below the Fourier limit"
            )
        rates = np.linspace(0.0, max(rate_max, 0.0), n_points)
        return [(float(r), float(self.gaussian_fwhm)) for r in rates]


@dataclass(frozen=True)
class AssessmentPoint:
    dephasing_rate: float
    inhomogeneous_fwhm: float
    theta_pd: float
    theta_sd: float
    visibility: float
    fidelity: float


@dataclass(frozen=True)
class AssessmentResult:
    """Visibility and fidelity ranges over a decomposition sweep."""

    visibility_range: tuple[float, float]
    fidelity_range: tuple[float, float]
    points: tuple[AssessmentPoint, ...] | None


def emitter_assessment(
    constraint: EmitterConstraint,
    second: EmitterConstraint | None = None,
    n_points: int = 200,
) -> AssessmentResult:
    """Achievable visibility and fidelity ranges for partially known emitters.

    With a single constraint the photon pair is two identical copies swept
    together along the decomposition curve, and the per-point sweep is
    returned.  With a ``second`` constraint the two emitters are swept
    independently over the product of their curves (resonant, no relative
    detuning) and only the ranges are reported.
    """
    if second is None:
        points = []
        for rate, fwhm in constraint.decomposition(n_points):
            emitter = EmitterParams(
                lifetime=constraint.lifetime,
                dephasing_rate=max(rate, 0.0),
                inhomogeneous_fwhm=fwhm,
            )
            pair = PhotonPair.identical(emitter)
            norm = normalized_params(emitter)
            visibility = interference_weight(pair)
            points.append(
                AssessmentPoint(
                    dephasing_rate=emitter.dephasing_rate,
                    inhomogeneous_fwhm=emitter.inhomogeneous_fwhm,
                    theta_pd=norm.theta_pd,
                    theta_sd=norm.theta_sd,
                    visibility=visibility,
                    fidelity=bell_fidelity(pair).fidelity,
                )
            )
        vs = [p.visibility for p in points]
        fs = [p.fidelity for p in points]
        return AssessmentResult(
            visibility_range=(min(vs), max(vs)),
            fidelity_range=(min(fs), max(fs)),
            points=tuple(points),
        )

    # The product of both curves in one kernel call, from the same joint
    # sums PhotonPair forms: gamma_i + gamma_j and sqrt(sigma_i^2 + sigma_j^2).
    gamma_i, var_i = _curve_widths(constraint, n_points)
    gamma_j, var_j = _curve_widths(second, n_points)
    weights = overlap_weight(
        gamma_i[:, None] + gamma_j[None, :],
        np.sqrt(var_i[:, None] + var_j[None, :]),
        0.0,
        constraint.lifetime + second.lifetime,
    )
    fidelities = fidelity_at_weight(weights)
    return AssessmentResult(
        visibility_range=(float(weights.min()), float(weights.max())),
        fidelity_range=(float(fidelities.min()), float(fidelities.max())),
        points=None,
    )


def _curve_widths(constraint: EmitterConstraint, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma_h and sigma^2 of every emitter on the decomposition curve."""
    emitters = [
        EmitterParams(constraint.lifetime, max(r, 0.0), f)
        for r, f in constraint.decomposition(n_points)
    ]
    return np.array([e.gamma_h for e in emitters]), np.array([e.sigma**2 for e in emitters])
