"""Two-photon interference statistics for remote solid-state emitters.

Models the time structure and coincidence statistics of two imperfect
single photons scattered through an arbitrary linear-optical gate,
including pure dephasing, spectral diffusion, lifetime mismatch and
detuning; provides Hong-Ou-Mandel visibilities, correlation traces,
linewidth decompositions, and post-selected CNOT Bell-state fidelities.
"""

from .emitter import (
    EmitterConstraint,
    EmitterParams,
    InfeasibleDecompositionError,
    NormalizedParams,
    PhotonPair,
    coherence_time,
    normalized_params,
)
from .gates import (
    GateMatrix,
    GateQuad,
    beam_splitter,
    cnot_gate,
    compose,
    embed,
    gate_from_json,
    gate_quad,
    prep_gate,
    tomography_gate,
)
from .interference import (
    VisibilityResult,
    coincidence_probability,
    g2_trace,
    hom_visibility,
    interference_weight,
    joint_detection_probability,
    overlap_weight,
    tuning_curve,
    visibility_map,
)
from .bell import (
    AssessmentResult,
    FidelityResult,
    bell_fidelity,
    emitter_assessment,
    fidelity_map,
)
from .numerics import faddeeva_w, voigt_fwhm

__version__ = "0.1.0"

# served on first use (PEP 562), so that only verify imports the oracle
_ORACLE_NAMES = (
    "MonteCarloEstimate",
    "exponential_wave",
    "mc_averaged_phase_factor",
    "mc_g2_estimate",
    "quadrature_g2",
    "quadrature_p_coinc",
    "run_verification",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
