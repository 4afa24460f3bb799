"""Helpers shared by the tests; no command or library path needs them."""

from tpi_sim.emitter import EmitterParams, PhotonPair
from tpi_sim.gates import GateMatrix


def element(gate: GateMatrix, row: int, col: int) -> complex:
    """Matrix element of ``gate`` by one-based output/input mode labels."""
    gate._check_mode(row)
    gate._check_mode(col)
    return complex(gate.matrix[row - 1, col - 1])


def emitter_from_normalized(
    theta_pd: float, theta_sd: float, lifetime: float = 1.0
) -> EmitterParams:
    """Concrete emitter realizing (theta_pd, theta_sd) at the given lifetime."""
    if theta_pd < 1.0 - 1e-12:
        raise ValueError("theta_pd < 1 is unphysical")
    return EmitterParams(
        lifetime=lifetime,
        dephasing_rate=max(theta_pd - 1.0, 0.0) / (2.0 * lifetime),
        inhomogeneous_fwhm=theta_sd / lifetime,
    )


def pair_from_normalized(theta_pd: float, theta_sd: float, lifetime: float = 1.0) -> PhotonPair:
    """Identical resonant pair realizing the given normalized linewidths."""
    return PhotonPair.identical(emitter_from_normalized(theta_pd, theta_sd, lifetime))
