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

Each probability is affine in the pair's overlap weight, with terms fixed
by the circuit; the circuit is composed once into one cached table of them,
which ``bell_fidelity`` and ``fidelity_at_weight`` both read.
``emitter_assessment`` evaluates ``fidelity_at_weight`` along the split
curves of partly characterized emitters and returns the visibility and
fidelity ranges only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import numerics
from .emitter import EmitterConstraint, PhotonPair
from .gates import TOMOGRAPHY_BASES, cnot_gate, compose, gate_quad, prep_gate, tomography_gate
from .interference import (
    coincidence_at_weight,
    coincidence_terms,
    interference_weight,
    overlap_weight,
    visibility_map,
)

__all__ = [
    "FidelityResult",
    "EmitterConstraint",
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


@dataclass(frozen=True)
class FidelityResult:
    """Bell-state fidelity plus the raw tomography probabilities behind it."""

    fidelity: float
    basis_probabilities: dict[str, float]
    success_probability: float


def _signed_sum(p: dict[str, float]) -> float:
    """The signed tomography sum pHH + pVV + pDD + pAA - pRR - pLL."""
    return p["HH"] + p["VV"] + p["DD"] + p["AA"] - p["RR"] - p["LL"]


@lru_cache(maxsize=1)
def _circuit() -> tuple[dict[str, tuple], tuple[float, float, float, float]]:
    """The fixed circuit, composed once: ``(terms, coefficients)``.

    ``terms`` maps each tomography basis to the :func:`coincidence_terms`
    of the coincidence outputs and the tuple of those of the four rail-pair
    outcomes; ``coefficients`` is (raw_const, raw_slope, succ_const,
    succ_slope), the signed six-basis sum and the four-outcome success total
    as affine functions of the weight.  Success terms that differ across
    settings by more than 1e-12 raise AssertionError.
    """
    base = compose(cnot_gate(), prep_gate())
    terms, succ = {}, []
    for basis in TOMOGRAPHY_BASES:
        gate = compose(tomography_gate(basis), base)
        quad = gate_quad(gate, CONTROL_IN, TARGET_IN, *COINC_OUT)
        rails = tuple(
            coincidence_terms(gate_quad(gate, CONTROL_IN, TARGET_IN, ko, lo))
            for ko in CONTROL_RAILS
            for lo in TARGET_RAILS
        )
        terms[basis] = (coincidence_terms(quad), rails)
        c = s = 0.0
        for ra, rb, rs in rails:
            c += ra + rb
            s += rs
        succ.append((c, s))
    consts, slopes = np.array(succ).T
    if np.ptp(consts) > 1e-12 or np.ptp(slopes) > 1e-12:
        raise AssertionError("success probability should not depend on the tomography setting")
    raw_const = _signed_sum({b: p0a + p0b for b, ((p0a, p0b, _), _) in terms.items()})
    raw_slope = _signed_sum({b: slope for b, ((_, _, slope), _) in terms.items()})
    return terms, (raw_const, raw_slope, float(consts[0]), float(slopes[0]))


def fidelity_at_weight(weight: float | np.ndarray) -> float | np.ndarray:
    """Bell-state fidelity as a function of the spectral overlap weight.

    The weight is :func:`tpi_sim.interference.interference_weight` of the
    photon pair (the pair's HOM visibility).  Scalar or array input.
    """
    raw_const, raw_slope, succ_const, succ_slope = _circuit()[1]
    w = np.asarray(weight, dtype=float)
    # (raw_const + raw_slope w) / (2 (succ_const + succ_slope w)), in place
    out = raw_slope * w
    out += raw_const
    success = succ_slope * w
    success += succ_const
    success *= 2.0
    out /= success
    return float(out) if out.ndim == 0 else out


def bell_fidelity(pair: PhotonPair) -> FidelityResult:
    """Fidelity of the post-selected Bell state for a given photon pair.

    Evaluates the six projective coincidence probabilities and the four
    rail-pair outcomes of every setting at the pair's overlap weight,
    computed once, through the affine terms of the cached circuit, and
    normalizes their signed sum by the mean success probability.
    """
    weight = interference_weight(pair)
    terms, _ = _circuit()
    probs = {basis: coincidence_at_weight(coinc, weight) for basis, (coinc, _) in terms.items()}
    success = float(np.mean(
        [sum(coincidence_at_weight(t, weight) for t in rails) for _, rails in terms.values()]
    ))
    return FidelityResult(
        fidelity=float(_signed_sum(probs) / (2.0 * success)),
        basis_probabilities=probs,
        success_probability=success,
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
class AssessmentResult:
    """Visibility and fidelity (min, max) ranges over a decomposition sweep."""

    visibility_range: tuple[float, float]
    fidelity_range: tuple[float, float]


def _sweep(gamma_i, var_i, gamma_j, var_j, tau_sum: float) -> tuple[np.ndarray, np.ndarray]:
    """Overlap weights and fidelities on the joint sums PhotonPair forms
    (gamma_i + gamma_j, sigma_i^2 + sigma_j^2), broadcast elementwise."""
    sigma = var_i + var_j
    np.sqrt(sigma, out=sigma)
    weights = overlap_weight(gamma_i + gamma_j, sigma, 0.0, tau_sum)
    return weights, fidelity_at_weight(weights)


def emitter_assessment(
    constraint: EmitterConstraint,
    second: EmitterConstraint | None = None,
    n_points: int = 200,
) -> AssessmentResult:
    """Achievable visibility and fidelity ranges for partially known emitters.

    With a single constraint the photon pair is two identical copies swept
    together along the decomposition curve; with a ``second`` constraint
    the two emitters are swept independently over the product of their
    curves (resonant, no relative detuning).  Either way only the ranges
    are reported.  The product grid is evaluated in blocks of about
    ``numerics._BLOCK`` points (whole rows of the second curve), each
    keeping only its minima and maxima, so memory grows with ``n_points``
    and the block, not with the grid.  The kernels are elementwise, so the
    ranges are those of the whole grid at once.
    """
    _, _, gamma, var, _, _ = constraint.curve(n_points)
    lifetime = constraint.lifetime
    if second is None:
        weights, fidelities = _sweep(gamma, var, gamma, var, lifetime + lifetime)
        return AssessmentResult(
            visibility_range=(float(weights.min()), float(weights.max())),
            fidelity_range=(float(fidelities.min()), float(fidelities.max())),
        )
    _, _, gamma_j, var_j, _, _ = second.curve(n_points)
    tau_sum = lifetime + second.lifetime
    step = max(1, numerics._BLOCK // len(gamma_j))
    # running (visibility, fidelity) minima and maxima; np.minimum and
    # np.maximum carry a NaN through as np.min and np.max of the grid would
    lows, highs = np.full(2, np.inf), np.full(2, -np.inf)
    for start in range(0, len(gamma), step):
        rows = slice(start, start + step)
        weights, fidelities = _sweep(gamma[rows, None], var[rows, None], gamma_j, var_j, tau_sum)
        np.minimum(lows, (weights.min(), fidelities.min()), out=lows)
        np.maximum(highs, (weights.max(), fidelities.max()), out=highs)
    return AssessmentResult(
        visibility_range=(float(lows[0]), float(highs[0])),
        fidelity_range=(float(lows[1]), float(highs[1])),
    )
