"""Two-photon interference analytics.

Central quantities for two single photons entering a linear-optical gate at
inputs (i, j) and being detected in coincidence at outputs (k, l):

* the joint detection probability density for arbitrary wave packets,
* the ensemble-averaged cross-correlation G2(tau) for one-sided
  exponential wave packets under pure dephasing (PD) and spectral
  diffusion (SD),
* the closed-form overall coincidence probability, evaluated through the
  real part of the Faddeeva function,
* Hong-Ou-Mandel visibilities, tuning curves, and lifetime-free
  visibility maps for identical emitters.

All functions are pure; sweeps can fan out over grid points freely.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfcx

from . import numerics
from .emitter import PhotonPair, emitter_from_normalized
from .gates import GateMatrix, GateQuad, beam_splitter, gate_quad

__all__ = [
    "CorrelationTrace",
    "VisibilityResult",
    "SIGMA_LIFETIME_THRESHOLD",
    "overlap_weight",
    "interference_weight",
    "averaged_phase_factor",
    "joint_detection_probability",
    "g2_distinguishable",
    "g2_trace",
    "coincidence_probability",
    "hom_visibility",
    "visibility_pd_only",
    "tuning_curve",
    "normalized_visibility",
    "visibility_map",
]

_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this value of Sigma * (tau_i + tau_j) the Faddeeva form of the
# spectral overlap is evaluated in its pure-dephasing (Lorentzian) limit to
# avoid the 0/0 at Sigma -> 0.  The Gaussian correction scales with the
# square of this parameter, so the switch is continuous to ~1e-11 relative.
SIGMA_LIFETIME_THRESHOLD = 1e-6

_HOM_BS = beam_splitter(0.5)


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled coincidence correlation G2(tau) plus its classical baseline."""

    tau_grid: np.ndarray
    g2_values: np.ndarray
    g2_distinguishable: np.ndarray
    pair: PhotonPair

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        g2 = np.asarray(self.g2_values, dtype=float)
        g0 = np.asarray(self.g2_distinguishable, dtype=float)
        if not (tau.shape == g2.shape == g0.shape):
            raise ValueError("trace arrays must share one shape")
        if np.any(np.diff(tau) <= 0.0):
            raise ValueError("tau_grid must be strictly increasing")
        scale = float(np.max(g0)) if g0.size else 0.0
        if np.any(g2 < -1e-12 * scale):
            raise ValueError("negative correlation values beyond rounding noise")
        for arr in (tau, g2, g0):
            arr.setflags(write=False)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "g2_values", g2)
        object.__setattr__(self, "g2_distinguishable", g0)


@dataclass(frozen=True)
class VisibilityResult:
    """Interference visibility together with the probabilities behind it."""

    visibility: float
    p_coinc: float
    p_coinc_classical: float
    pair: PhotonPair


def overlap_weight(
    gamma: float | np.ndarray,
    sigma: float | np.ndarray,
    delta_nu: float | np.ndarray,
    tau_sum: float | np.ndarray,
) -> float | np.ndarray:
    """Spectral overlap factor of the interference term, in [0, 1].

    ``gamma`` is the joint homogeneous rate gamma_h,i + gamma_h,j (1/s),
    ``sigma`` the joint inhomogeneous width Sigma = sqrt(sigma_i^2 + sigma_j^2)
    (Hz), ``delta_nu`` the mean relative detuning (Hz) and ``tau_sum`` the
    lifetime sum tau_i + tau_j (s).  The weight is
    Re[w(z)] / (sqrt(2 pi) Sigma (tau_i + tau_j)) with
    z = (2 pi delta_nu + i gamma) / (2 pi sqrt(2) Sigma); it multiplies the
    gate-dependent quad in the coincidence probability and equals the HOM
    visibility of the pair.  Where Sigma * (tau_i + tau_j) is below
    ``SIGMA_LIFETIME_THRESHOLD`` the Lorentzian (pure-dephasing) limit

        2 gamma / ((gamma^2 + 4 pi^2 delta_nu^2) (tau_i + tau_j))

    is used instead, which the continuity tests pin against the Faddeeva
    path across six decades of Sigma.

    The arguments broadcast against each other and the switch is made per
    element; a scalar result is returned as a float.  Every element is
    evaluated with the same floating-point operations as a scalar call, so
    array and elementwise scalar evaluation agree bit for bit.
    """
    gamma, sigma, delta_nu, tau_sum = (
        np.asarray(v, dtype=float) for v in (gamma, sigma, delta_nu, tau_sum)
    )
    # Both branches are computed everywhere: the Faddeeva one divides by zero
    # where Sigma = 0, which the switch below never selects, and squares may
    # overflow to inf, as Python floats do without a warning.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # float_power calls the C library's pow, as Python's float ** 2 does;
        # ndarray ** 2 squares, which differs in the last bit now and then.
        limit = (
            2.0 * gamma
            / ((gamma * gamma + 4.0 * math.pi**2 * np.float_power(delta_nu, 2)) * tau_sum)
        )
        scale = 2.0 * math.pi * math.sqrt(2.0) * sigma
        # Two real divisions, as CPython's complex / float performs them;
        # numpy's complex / real would multiply by a reciprocal instead.
        z = np.empty(np.broadcast(gamma, scale, delta_nu).shape, dtype=complex)
        z.real = 2.0 * math.pi * delta_nu / scale
        z.imag = gamma / scale
        general = np.real(numerics.faddeeva_w(z)) / (_SQRT_2PI * sigma * tau_sum)
    out = np.where(sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD, limit, general)
    return float(out) if out.ndim == 0 else out


def interference_weight(pair: PhotonPair) -> float:
    """Spectral overlap factor of one photon pair, in [0, 1].

    A thin wrapper over :func:`overlap_weight`, the array kernel, applied to
    the pair's joint rate, joint inhomogeneous width, detuning and lifetime
    sum; sweeps pass arrays of those to the kernel directly and get, element
    by element, the same bits as this scalar call.
    """
    return overlap_weight(pair.gamma_total, pair.sigma_total, pair.delta_nu, pair.lifetime_sum)


def averaged_phase_factor(pair: PhotonPair, tau: float, gate_phase: float) -> float:
    """Ensemble average of the random-phase interference term at lag ``tau``.

    Averaging the two-photon cross term over Gaussian frequency jitter and
    Wiener phase noise of both emitters gives

        2 exp[-(rate_i + rate_j)|tau| - 2 pi^2 Sigma^2 tau^2]
          * cos(2 pi delta_nu tau - gate_phase).

    Only the pure-dephasing rates enter here; the radiative 1/(2 tau_r)
    parts belong to the deterministic envelopes.
    """
    rates = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    envelope = math.exp(
        -rates * abs(tau) - 2.0 * math.pi**2 * pair.sigma_sq_total * tau * tau
    )
    return 2.0 * envelope * math.cos(2.0 * math.pi * pair.delta_nu * tau - gate_phase)


# Wave functions already verified as unit-normalized (by object identity).
_norm_checked: "weakref.WeakSet" = weakref.WeakSet()


def _check_normalized(zeta: Callable[[np.ndarray], np.ndarray]) -> None:
    try:
        if zeta in _norm_checked:
            return
    except TypeError:
        pass
    scale = float(getattr(zeta, "time_scale", 1e-9))
    norm = numerics.integrate(
        lambda t: np.abs(zeta(t)) ** 2, -10.0 * scale, 80.0 * scale, tol=1e-10
    )
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"wave function is not normalized: integral = {norm!r}")
    try:
        _norm_checked.add(zeta)
    except TypeError:
        pass


def joint_detection_probability(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    zeta_i: Callable[[np.ndarray], np.ndarray],
    zeta_j: Callable[[np.ndarray], np.ndarray],
    t0: float | np.ndarray,
    tau: float,
    check_normalization: bool = True,
) -> float | np.ndarray:
    """Probability density for detections at t0 (output k) and t0+tau (output l).

    ``zeta_i`` and ``zeta_j`` are the normalized wave packets entering the
    one-based input modes i and j; they must accept numpy arrays.  For a
    symmetric beam splitter this reduces to the familiar
    |zeta_i(t0+tau) zeta_j(t0) - zeta_j(t0+tau) zeta_i(t0)|^2 / 4.
    """
    if i == j or k == l:
        raise ValueError("input modes and output modes must each be distinct")
    if check_normalization:
        _check_normalized(zeta_i)
        _check_normalized(zeta_j)
    u = gate.matrix
    gate._check_mode(i), gate._check_mode(j), gate._check_mode(k), gate._check_mode(l)
    ii, jj, kk, ll = i - 1, j - 1, k - 1, l - 1
    t0 = np.asarray(t0, dtype=float)
    early = t0
    late = t0 + tau
    amp = u[ll, ii] * u[kk, jj] * zeta_i(late) * zeta_j(early) + u[ll, jj] * u[
        kk, ii
    ] * zeta_j(late) * zeta_i(early)
    out = np.abs(amp) ** 2
    return float(out) if out.ndim == 0 else out


def _baseline(
    quad: GateQuad, pair: PhotonPair, tau: np.ndarray
) -> np.ndarray:
    """Distinguishable-photon correlation baseline on a tau array."""
    ti = pair.emitter_i.lifetime
    tj = pair.emitter_j.lifetime
    p0a, p0b = quad.p0_terms
    pos = np.heaviside(tau, 0.5)
    neg = np.heaviside(-tau, 0.5)
    tp = np.where(tau > 0.0, tau, 0.0)
    tn = np.where(tau < 0.0, tau, 0.0)
    term_a = pos * np.exp(-tp / ti) + neg * np.exp(tn / tj)
    term_b = pos * np.exp(-tp / tj) + neg * np.exp(tn / ti)
    return (p0a * term_a + p0b * term_b) / (ti + tj)


def g2_distinguishable(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    pair: PhotonPair,
    tau: float | np.ndarray,
) -> float | np.ndarray:
    """Classical (fully distinguishable) limit of the cross-correlation."""
    out = _baseline(gate_quad(gate, i, j, k, l), pair, np.asarray(tau, dtype=float))
    return float(out) if out.ndim == 0 else out


def _interference_term(
    quad: GateQuad, pair: PhotonPair, tau: np.ndarray
) -> np.ndarray:
    envelope = np.exp(
        -pair.gamma_total * np.abs(tau) - 2.0 * math.pi**2 * pair.sigma_sq_total * tau * tau
    )
    beat = np.cos(2.0 * math.pi * pair.delta_nu * tau - quad.phase)
    return 2.0 * quad.magnitude / pair.lifetime_sum * envelope * beat


def g2_trace(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    pair: PhotonPair,
    tau_grid: Sequence[float] | np.ndarray | None = None,
) -> CorrelationTrace:
    """Averaged cross-correlation G2(tau) on a grid of time lags.

    G2 is the distinguishable baseline plus the interference term

        2 |quad| / (tau_i + tau_j) * exp(-gamma |tau| - 2 pi^2 Sigma^2 tau^2)
          * cos(2 pi delta_nu tau - Phi_U).

    The default grid spans +-10 max(tau_i, tau_j) with 4001 points.  The
    magnitude of the interference term never exceeds the baseline, so the
    sampled G2 is nonnegative (tiny negative rounding residues are clipped).
    """
    if tau_grid is None:
        span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
        tau_grid = np.linspace(-span, span, 4001)
    tau = np.asarray(tau_grid, dtype=float)
    quad = gate_quad(gate, i, j, k, l)
    g0 = _baseline(quad, pair, tau)
    g2 = g0 + _interference_term(quad, pair, tau)
    return CorrelationTrace(
        tau_grid=tau, g2_values=np.maximum(g2, 0.0), g2_distinguishable=g0, pair=pair
    )


def coincidence_probability(
    gate: GateMatrix, i: int, j: int, k: int, l: int, pair: PhotonPair
) -> float:
    """Overall probability of a coincidence between outputs k and l.

    Closed form: p0a + p0b + 2 |quad| cos(Phi_U) * interference_weight(pair),
    i.e. the integral of the correlation trace over all lags.
    """
    quad = gate_quad(gate, i, j, k, l)
    p0a, p0b = quad.p0_terms
    return p0a + p0b + 2.0 * quad.magnitude * math.cos(quad.phase) * interference_weight(pair)


def hom_visibility(pair: PhotonPair) -> VisibilityResult:
    """Hong-Ou-Mandel visibility of the pair at a symmetric beam splitter.

    V = 1 - p_coinc / p_coinc_classical with p_coinc_classical = 1/2; this
    equals :func:`interference_weight` directly.  Values outside
    [-1e-9, 1 + 1e-9] raise instead of being clamped; rounding-level
    excursions inside that window are snapped onto [0, 1].
    """
    p_classical = 0.5
    p = coincidence_probability(_HOM_BS, 1, 2, 1, 2, pair)
    visibility = 1.0 - p / p_classical
    if not -1e-9 <= visibility <= 1.0 + 1e-9:
        raise ValueError(f"computed visibility {visibility!r} outside [0, 1]")
    return VisibilityResult(
        visibility=min(max(visibility, 0.0), 1.0),
        p_coinc=p,
        p_coinc_classical=p_classical,
        pair=pair,
    )


def visibility_pd_only(pair: PhotonPair) -> float:
    """HOM visibility in the pure-dephasing limit (no inhomogeneous widths).

    Lorentzian tuning curve

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
    return (
        4.0
        / pair.lifetime_sum
        * s
        / (s * s + 16.0 * math.pi**2 * pair.delta_nu**2)
    )


def tuning_curve(
    pair: PhotonPair, delta_nu_grid: Sequence[float] | np.ndarray
) -> list[VisibilityResult]:
    """HOM visibility as a function of the relative detuning of the pair."""
    return [
        hom_visibility(pair.with_relative_detuning(float(dnu))) for dnu in delta_nu_grid
    ]


def normalized_visibility(theta_pd: float, theta_sd: float) -> float:
    """HOM visibility of identical emitters from normalized linewidths only.

    V = sqrt(2 ln2 / pi) * erfcx(y) / (2 theta_sd) with
    y = sqrt(ln2 / (2 pi^2)) * theta_pd / theta_sd, and V = 1 / theta_pd in
    the vanishing-theta_sd limit.  Matches ``hom_visibility`` of a concrete
    identical pair exactly, independent of the lifetime.
    """
    if theta_pd < 1.0 - 1e-12:
        raise ValueError("theta_pd < 1 is unphysical")
    if theta_sd < 0.0:
        raise ValueError("theta_sd must be >= 0")
    # Same switch as interference_weight: theta_sd = sqrt(ln2) * Sigma*(ti+tj).
    if theta_sd < math.sqrt(_LN2) * SIGMA_LIFETIME_THRESHOLD:
        return 1.0 / theta_pd
    y = math.sqrt(_LN2 / (2.0 * math.pi**2)) * theta_pd / theta_sd
    return math.sqrt(2.0 * _LN2 / math.pi) * float(erfcx(y)) / (2.0 * theta_sd)


def visibility_map(
    theta_pd_grid: Sequence[float] | np.ndarray,
    theta_sd_grid: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Visibility on the outer product of normalized-linewidth grids.

    Returns shape (len(theta_pd_grid), len(theta_sd_grid)).
    """
    pd = np.asarray(theta_pd_grid, dtype=float)
    sd = np.asarray(theta_sd_grid, dtype=float)
    if pd.size == 0 or sd.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(pd < 1.0 - 1e-12) or np.any(sd < 0.0):
        raise ValueError("grids violate theta_pd >= 1, theta_sd >= 0")
    pd2 = pd[:, None]
    sd2 = sd[None, :]
    tiny = sd2 < math.sqrt(_LN2) * SIGMA_LIFETIME_THRESHOLD
    safe_sd = np.where(tiny, 1.0, sd2)
    y = math.sqrt(_LN2 / (2.0 * math.pi**2)) * pd2 / safe_sd
    general = math.sqrt(2.0 * _LN2 / math.pi) * erfcx(y) / (2.0 * safe_sd)
    return np.where(tiny, 1.0 / (pd2 * np.ones_like(sd2)), general)


def pair_from_normalized(theta_pd: float, theta_sd: float, lifetime: float = 1.0) -> PhotonPair:
    """Identical resonant pair realizing the given normalized linewidths."""
    return PhotonPair.identical(emitter_from_normalized(theta_pd, theta_sd, lifetime))
