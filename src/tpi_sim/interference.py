"""Two-photon interference analytics.

Central quantities for two single photons entering a linear-optical gate at
inputs (i, j) and being detected in coincidence at outputs (k, l):

* the joint detection probability density for arbitrary wave packets
  (the density alone; :func:`tpi_sim.oracle.quadrature_g2` checks them),
* the ensemble-averaged cross-correlation G2(tau) for one-sided
  exponential wave packets under pure dephasing (PD) and spectral
  diffusion (SD), and its distinguishable baseline, both from
  :func:`g2_trace` at a lag or an array of lags,
* the closed-form overall coincidence probability, evaluated through the
  real part of the Faddeeva function,
* Hong-Ou-Mandel visibilities, the tuning curve (visibility and
  coincidence arrays over a detuning grid, which :func:`hom_visibility`
  reads at the pair's own detuning) and lifetime-free visibility maps for
  identical emitters, all one kernel, :func:`overlap_weight`.

All functions are pure; sweeps can fan out over grid points freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .emitter import PhotonPair
from .gates import GateMatrix, GateQuad, gate_quad

__all__ = [
    "VisibilityResult",
    "SIGMA_LIFETIME_THRESHOLD",
    "overlap_weight",
    "interference_weight",
    "averaged_phase_factor",
    "joint_detection_probability",
    "g2_trace",
    "coincidence_terms",
    "coincidence_at_weight",
    "coincidence_probability",
    "hom_visibility",
    "tuning_curve",
    "visibility_map",
]

_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this value of Sigma * (tau_i + tau_j) the Faddeeva form of the
# spectral overlap is evaluated in its pure-dephasing (Lorentzian) limit to
# avoid the 0/0 at Sigma -> 0.  The Gaussian correction scales with the
# square of this parameter, so the switch is continuous to ~1e-11 relative.
SIGMA_LIFETIME_THRESHOLD = 1e-6


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
    ``overlap_weight(2 pi h, sigma, x, 1.0)`` is the unit-normalized Voigt
    density at offset x, for Lorentzian HWHM h and Gaussian standard
    deviation sigma.

    The arguments broadcast against each other and the switch is made per
    element; a scalar result is returned as a float.  Every element is
    evaluated with the same floating-point operations as a scalar call, so
    array and elementwise scalar evaluation agree bit for bit.  The
    Faddeeva form is computed everywhere; the Lorentzian limit and the
    selection are formed only when some element is below the threshold.
    """
    gamma, sigma, delta_nu, tau_sum = (
        np.asarray(v, dtype=float) for v in (gamma, sigma, delta_nu, tau_sum)
    )
    # The Faddeeva form divides by zero where Sigma = 0, which the switch
    # below never selects, and squares may overflow to inf, as Python floats
    # do without a warning.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shape = np.broadcast(gamma, sigma, delta_nu, tau_sum).shape
        scale = 2.0 * math.pi * math.sqrt(2.0) * sigma
        # Re w at z = x + iy, with x and y as CPython's complex / float forms
        # them: two real divisions.
        x = _flat(2.0 * math.pi * delta_nu / scale, shape)
        y = _flat(gamma / scale, shape)
        out = numerics._faddeeva(x, y)[0].reshape(shape)
        out /= _SQRT_2PI * sigma * tau_sum
        limit = sigma * tau_sum < SIGMA_LIFETIME_THRESHOLD
        if limit.any():
            # float_power calls the C library's pow, as Python's float ** 2
            # does; ndarray ** 2 squares, which differs in the last bit now
            # and then.
            lorentzian = (
                2.0 * gamma
                / ((gamma * gamma + 4.0 * math.pi**2 * np.float_power(delta_nu, 2)) * tau_sum)
            )
            out = np.where(limit, lorentzian, out)
    return float(out) if out.ndim == 0 else out


def _flat(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a`` broadcast to ``shape`` as a 1-D array (a view where ``a`` has that shape)."""
    return (a if a.shape == shape else np.broadcast_to(a, shape)).ravel()


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
    parts belong to the deterministic envelopes.  A nan or infinite lag
    raises ``ValueError``, as in :func:`g2_trace`, with the same limits far
    out in the tails.
    """
    rates = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    tau = _finite_lag(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope, beat = _phase_factor(rates, pair.sigma_sq_total, pair.delta_nu, tau, gate_phase)
    return float(_far_lag_limit(2.0 * envelope * beat, tau, rates, pair.sigma_sq_total))


def _phase_factor(
    rate: float, sigma_sq: float, delta_nu: float, tau: float | np.ndarray, phase: float
):
    """(envelope, beat) at a lag or lag array: exp(-rate |tau| - 2 pi^2
    sigma_sq tau^2) and cos(2 pi delta_nu tau - phase), the one kernel of the
    interference term of :func:`g2_trace` and of :func:`averaged_phase_factor`."""
    envelope = np.exp(-rate * np.abs(tau) - 2.0 * math.pi**2 * sigma_sq * tau * tau)
    return envelope, np.cos(2.0 * math.pi * delta_nu * tau - phase)


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
) -> float | np.ndarray:
    """Probability density for detections at t0 (output k) and t0+tau (output l).

    ``zeta_i`` and ``zeta_j`` are the normalized wave packets entering the
    one-based input modes i and j; they must accept numpy arrays.  For a
    symmetric beam splitter this reduces to the familiar
    |zeta_i(t0+tau) zeta_j(t0) - zeta_j(t0+tau) zeta_i(t0)|^2 / 4.
    This is the density alone: it checks the modes but not the packets'
    norms, which :func:`tpi_sim.oracle.quadrature_g2` checks once per call.
    """
    if i == j or k == l:
        raise ValueError("input modes and output modes must each be distinct")
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
    # term a decays with ti for tau > 0 and with tj for tau < 0, term b the
    # other way round; at tau = 0 each is 1, the two half-maximum steps
    late = tau > 0.0
    lag = -np.abs(tau)
    # a lag beyond ~1.8e308 lifetimes overflows to -inf, and exp gives the exact 0
    with np.errstate(over="ignore"):
        term_a = np.exp(lag / np.where(late, ti, tj))
        term_b = np.exp(lag / np.where(late, tj, ti))
    return (p0a * term_a + p0b * term_b) / (ti + tj)


def _interference_term(
    quad: GateQuad, pair: PhotonPair, tau: np.ndarray
) -> np.ndarray:
    envelope, beat = _phase_factor(
        pair.gamma_total, pair.sigma_sq_total, pair.delta_nu, tau, quad.phase
    )
    return 2.0 * quad.magnitude / pair.lifetime_sum * envelope * beat


def g2_trace(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    pair: PhotonPair,
    tau: float | np.ndarray,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Averaged cross-correlation G2 and its distinguishable baseline at lags ``tau``.

    Returns ``(g2, g2_classical)``, the columns ``g2`` writes.  G2 is the
    baseline plus the interference term

        2 |quad| / (tau_i + tau_j) * exp(-gamma |tau| - 2 pi^2 Sigma^2 tau^2)
          * cos(2 pi delta_nu tau - Phi_U),

    which never exceeds the baseline, so G2 is nonnegative (rounding residues
    are clipped).  Both broadcast over ``tau``; a scalar lag gives two floats,
    the bits of its element of an array call.  With k == l, G2 counts both
    detection orders at output k: its integral over all lags is twice the
    probability that both photons leave by output k.  A nan or infinite lag
    raises ``ValueError``; :func:`_far_lag_limit` holds the largest finite ones.
    """
    tau = _finite_lag(tau)
    quad = gate_quad(gate, i, j, k, l)
    g0 = _baseline(quad, pair, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        term = _interference_term(quad, pair, tau)
    g2 = np.maximum(g0 + _far_lag_limit(term, tau, pair.gamma_total, pair.sigma_sq_total), 0.0)
    return (float(g2), float(g0)) if g2.ndim == 0 else (g2, g0)


def _finite_lag(tau: float | np.ndarray) -> np.ndarray:
    """``tau`` as a float array; a nan or infinite lag raises ``ValueError``."""
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("tau must be finite")
    return tau


def _far_lag_limit(term, tau: np.ndarray, rate: float, sigma_sq: float):
    """``term``, a multiple of :func:`_phase_factor` at lags ``tau`` formed
    under ``np.errstate``, with its exact 0 far out in the tails, where tau^2
    overflows and the beat's phase may too (cos gives nan).  A nan element is
    0 where the envelope is 0; elsewhere no float holds the beat, and the lag
    is refused."""
    lost = np.isnan(term)
    if not lost.any():
        return term
    with np.errstate(over="ignore"):
        envelope, _ = _phase_factor(rate, sigma_sq, 0.0, tau[lost], 0.0)
    if envelope.any():
        raise ValueError("tau is too large: the beat's phase leaves the float range")
    return np.where(lost, 0.0, term)


def coincidence_terms(quad: GateQuad) -> tuple[float, float, float]:
    """(p0a, p0b, slope) of the coincidence probability p0a + p0b + slope * w,
    affine in the overlap weight w, with slope = 2 |quad| cos(Phi_U)."""
    p0a, p0b = quad.p0_terms
    return p0a, p0b, 2.0 * quad.magnitude * math.cos(quad.phase)


def coincidence_at_weight(terms: tuple, weight: float | np.ndarray) -> float | np.ndarray:
    """p0a + p0b + slope * weight for :func:`coincidence_terms`; array weights work."""
    p0a, p0b, slope = terms
    return p0a + p0b + slope * weight


def coincidence_probability(
    gate: GateMatrix, i: int, j: int, k: int, l: int, pair: PhotonPair
) -> float:
    """Overall probability of a coincidence between outputs k and l: the
    :func:`coincidence_terms` of the gate quad at the pair's overlap weight,
    i.e. the integral of the correlation trace over all lags.

    With k == l it is the probability that both photons leave by output k,
    |U_ki U_kj|^2 (1 + w): the quad's terms then count the one outcome
    twice, so they are halved.  Over every unordered output pair, k == l
    included, the probabilities sum to 1.
    """
    if i == j:
        raise ValueError("input modes must be distinct")
    terms = coincidence_terms(gate_quad(gate, i, j, k, l))
    if k == l:
        terms = tuple(0.5 * t for t in terms)
    return coincidence_at_weight(terms, interference_weight(pair))


def hom_visibility(pair: PhotonPair) -> VisibilityResult:
    """Hong-Ou-Mandel visibility of the pair at a symmetric beam splitter.

    :func:`tuning_curve` at the pair's own detuning: V is
    :func:`interference_weight`, bit for bit wherever that lies in [0, 1],
    and p_coinc = (1 - V) / 2 against p_coinc_classical = 1/2, so
    V = 1 - p_coinc / p_coinc_classical.
    """
    (visibility,), (p,) = tuning_curve(pair, [pair.delta_nu])
    return VisibilityResult(float(visibility), float(p), 0.5, pair)


def tuning_curve(
    pair: PhotonPair, delta_nu_grid: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """HOM visibility as a function of the relative detuning of the pair.

    Returns the (visibility, p_coinc) arrays at each relative detuning in
    ``delta_nu_grid``, from one :func:`overlap_weight` call with the pair's
    linewidths and lifetimes: the visibility is the weight, and
    p_coinc = 1/4 + 1/4 - V/2 from the exact terms of a balanced splitter,
    against p_coinc_classical = 1/2 throughout.  Weights outside
    [-1e-9, 1 + 1e-9] raise instead of being clamped; rounding-level
    excursions inside that window are snapped onto [0, 1]; a nan or inf detuning raises.
    """
    if not np.isfinite(delta_nu_grid).all():
        raise ValueError("delta_nu_grid must be finite")
    weights = overlap_weight(pair.gamma_total, pair.sigma_total, delta_nu_grid, pair.lifetime_sum)
    if not np.all((weights >= -1e-9) & (weights <= 1.0 + 1e-9)):
        raise ValueError(f"computed visibility outside [0, 1]: {weights!r}")
    visibility = np.clip(weights, 0.0, 1.0)
    return visibility, 0.5 * (1.0 - visibility)


def visibility_map(
    theta_pd_grid: Sequence[float] | np.ndarray,
    theta_sd_grid: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Visibility on the outer product of normalized-linewidth grids.

    Every element is the HOM visibility of identical emitters from
    normalized linewidths only: :func:`overlap_weight` of the identical
    resonant pair with those linewidths, in closed form
    V = sqrt(2 ln2 / pi) * erfcx(y) / (2 theta_sd) with
    y = sqrt(ln2 / (2 pi^2)) * theta_pd / theta_sd, and V = 1 / theta_pd in
    the vanishing-theta_sd limit.  It is independent of the lifetime; one
    point is ``visibility_map([theta_pd], [theta_sd])[0, 0]``.
    Returns shape (len(theta_pd_grid), len(theta_sd_grid)); raises
    ``ValueError`` for an empty grid, theta_pd < 1 or theta_sd < 0.
    """
    pd = np.asarray(theta_pd_grid, dtype=float)
    sd = np.asarray(theta_sd_grid, dtype=float)
    if pd.size == 0 or sd.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(pd < 1.0 - 1e-12) or np.any(sd < 0.0):
        raise ValueError("grids violate theta_pd >= 1, theta_sd >= 0")
    # The identical pair at tau_r = 1: gamma = theta_pd, tau_i + tau_j = 2,
    # Sigma = theta_sd / (2 sqrt(ln2)).  This form of Sigma (not
    # sqrt(2) theta_sd / GAUSS_FWHM_PER_SIGMA) fixes the last bit of every
    # map value, and the Lorentzian switch fires exactly where
    # theta_sd < sqrt(ln2) * SIGMA_LIFETIME_THRESHOLD.
    return overlap_weight(pd[:, None], sd[None, :] / (2.0 * math.sqrt(_LN2)), 0.0, 2.0)
