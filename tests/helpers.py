"""Helpers shared by the tests; no command or library path needs them."""

import math
from dataclasses import replace

import numpy as np

from tpi_sim.bell import fidelity_at_weight
from tpi_sim.emitter import EmitterConstraint, EmitterParams, PhotonPair
from tpi_sim.gates import GateMatrix
from tpi_sim.interference import overlap_weight


def element(gate: GateMatrix, row: int, col: int) -> complex:
    """Matrix element of ``gate`` by one-based output/input mode labels."""
    gate._check_mode(row)
    gate._check_mode(col)
    return complex(gate.matrix[row - 1, col - 1])


def detuned(pair: PhotonPair, delta_nu: float) -> PhotonPair:
    """The same emitters with the relative detuning set to ``delta_nu``:
    emitter i at ``delta_nu``, emitter j at 0."""
    return PhotonPair(
        replace(pair.emitter_i, detuning=delta_nu), replace(pair.emitter_j, detuning=0.0)
    )


def identical_sweep(constraint: EmitterConstraint, n_points: int):
    """(visibilities, fidelities) of two identical copies at each split of
    ``constraint.curve(n_points)``, in curve order, from the elementwise
    kernels: the per-split values whose ranges ``emitter_assessment`` reports."""
    _, _, gamma, var, _, _ = constraint.curve(n_points)
    weights = overlap_weight(gamma + gamma, np.sqrt(var + var), 0.0,
                             constraint.lifetime + constraint.lifetime)
    return weights, fidelity_at_weight(weights)


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


def visibility_pd_only(pair: PhotonPair) -> float:
    """HOM visibility in the pure-dephasing limit (no inhomogeneous widths),
    the tests' Lorentzian reference, independent of ``overlap_weight``:

        V = 4/(tau_i + tau_j) * S / (S^2 + 16 pi^2 delta_nu^2),
        S = 1/tau_i + 1/tau_j + 2 rate_i + 2 rate_j.
    """
    if pair.emitter_i.inhomogeneous_fwhm != 0.0 or pair.emitter_j.inhomogeneous_fwhm != 0.0:
        raise ValueError("visibility_pd_only requires zero inhomogeneous widths")
    s = (
        1.0 / pair.emitter_i.lifetime
        + 1.0 / pair.emitter_j.lifetime
        + 2.0 * pair.emitter_i.dephasing_rate
        + 2.0 * pair.emitter_j.dephasing_rate
    )
    return 4.0 / pair.lifetime_sum * s / (s * s + 16.0 * math.pi**2 * pair.delta_nu**2)
