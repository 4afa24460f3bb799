"""Emitter parameterization and derived spectral quantities.

The model of a solid-state single-photon emitter has four knobs:

* ``lifetime`` -- excited-state radiative lifetime tau_r (seconds),
* ``dephasing_rate`` -- pure-dephasing rate (1/s), an exponential decay
  rate of the first-order coherence,
* ``inhomogeneous_fwhm`` -- FWHM of the slow Gaussian wander of the
  emission frequency (Hz),
* ``detuning`` -- offset of the mean emission frequency from a common
  reference (Hz).

Conventions fixed here (and unit-tested, since they are the most
error-prone part of the whole model):

* published "MHz / GHz" dephasing figures are plain rates times 1e6/1e9 1/s,
* the homogeneous (Lorentzian) spectral FWHM is gamma_h / pi with
  gamma_h = 1/(2 tau_r) + dephasing_rate, so a lifetime of 410 ps maps to
  a 388 MHz Fourier-limited linewidth and 12 ns maps to 13 MHz,
* Gaussian FWHM and standard deviation are related by fwhm = 2 sqrt(2 ln 2) sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import GAUSS_FWHM_PER_SIGMA, voigt_fwhm

__all__ = [
    "EmitterParams",
    "PhotonPair",
    "NormalizedParams",
    "InfeasibleDecompositionError",
    "coherence_time",
    "decompose_linewidth",
    "decompose_voigt_fwhm",
    "normalized_params",
]

_LN2 = math.log(2.0)


class InfeasibleDecompositionError(ValueError):
    """The requested coherence time or linewidth violates the Fourier limit."""


@dataclass(frozen=True)
class EmitterParams:
    """Spectral parameters of one two-level emitter (SI units)."""

    lifetime: float
    dephasing_rate: float = 0.0
    inhomogeneous_fwhm: float = 0.0
    detuning: float = 0.0

    def __post_init__(self) -> None:
        if not (self.lifetime > 0.0 and math.isfinite(self.lifetime)):
            raise ValueError("lifetime must be positive and finite")
        if self.dephasing_rate < 0.0 or not math.isfinite(self.dephasing_rate):
            raise ValueError("dephasing_rate must be >= 0 and finite")
        if self.inhomogeneous_fwhm < 0.0 or not math.isfinite(self.inhomogeneous_fwhm):
            raise ValueError("inhomogeneous_fwhm must be >= 0 and finite")
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")

    @property
    def sigma(self) -> float:
        """Standard deviation of the inhomogeneous Gaussian (Hz)."""
        return self.inhomogeneous_fwhm / GAUSS_FWHM_PER_SIGMA

    @property
    def gamma_h(self) -> float:
        """Homogeneous decay rate 1/(2 tau_r) + dephasing_rate (1/s)."""
        return 0.5 / self.lifetime + self.dephasing_rate

    @property
    def lorentzian_fwhm(self) -> float:
        """Homogeneous (Lorentzian) spectral FWHM, gamma_h / pi (Hz)."""
        return self.gamma_h / math.pi

    @property
    def coherence_time(self) -> float:
        """Coherence time of this emitter including both broadenings (s)."""
        return coherence_time(self.lifetime, self.dephasing_rate, self.inhomogeneous_fwhm)

    def with_detuning(self, detuning: float) -> "EmitterParams":
        return replace(self, detuning=detuning)


@dataclass(frozen=True)
class PhotonPair:
    """Two emitters feeding the two photon inputs of a gate.

    All joint quantities are recomputed from the two members on access, so
    they can never go stale.
    """

    emitter_i: EmitterParams
    emitter_j: EmitterParams

    @classmethod
    def identical(cls, emitter: EmitterParams) -> "PhotonPair":
        return cls(emitter, emitter)

    @property
    def sigma_sq_total(self) -> float:
        """Joint inhomogeneous variance sigma_i^2 + sigma_j^2 (Hz^2)."""
        return self.emitter_i.sigma**2 + self.emitter_j.sigma**2

    @property
    def sigma_total(self) -> float:
        return math.sqrt(self.sigma_sq_total)

    @property
    def gamma_total(self) -> float:
        """Joint homogeneous rate gamma_h,i + gamma_h,j (1/s)."""
        return self.emitter_i.gamma_h + self.emitter_j.gamma_h

    @property
    def delta_nu(self) -> float:
        """Mean relative detuning nu_i - nu_j (Hz)."""
        return self.emitter_i.detuning - self.emitter_j.detuning

    @property
    def lifetime_sum(self) -> float:
        return self.emitter_i.lifetime + self.emitter_j.lifetime

    @property
    def t_plus(self) -> float:
        """Combined decay time, 1/T+ = 1/tau_i + 1/tau_j (s)."""
        return 1.0 / (1.0 / self.emitter_i.lifetime + 1.0 / self.emitter_j.lifetime)

    @property
    def is_identical(self) -> bool:
        a, b = self.emitter_i, self.emitter_j
        return (
            a.lifetime == b.lifetime
            and a.dephasing_rate == b.dephasing_rate
            and a.inhomogeneous_fwhm == b.inhomogeneous_fwhm
            and a.detuning == b.detuning
        )

    def with_relative_detuning(self, delta_nu: float) -> "PhotonPair":
        """Same emitters, but with the relative detuning forced to ``delta_nu``."""
        return PhotonPair(
            self.emitter_i.with_detuning(delta_nu),
            self.emitter_j.with_detuning(0.0),
        )


@dataclass(frozen=True)
class NormalizedParams:
    """Lifetime-free spectral parameters of an identical-emitter pair.

    ``theta_pd`` is the normalized homogeneous linewidth (gamma * tau_r,
    >= 1, equal to 1 at the Fourier limit), ``theta_sd`` the normalized
    inhomogeneous FWHM (sigma' * tau_r >= 0) and ``x_c`` the normalized
    coherence time tau_c / (2 tau_r) in (0, 1].
    """

    theta_pd: float
    theta_sd: float
    x_c: float

    def __post_init__(self) -> None:
        if self.theta_pd < 1.0 - 1e-12:
            raise ValueError("theta_pd < 1 is unphysical (below the Fourier limit)")
        if self.theta_sd < 0.0:
            raise ValueError("theta_sd must be >= 0")
        if not (0.0 < self.x_c <= 1.0 + 1e-12):
            raise ValueError("x_c must lie in (0, 1]")


def coherence_time(lifetime: float, dephasing_rate: float, inhomogeneous_fwhm: float) -> float:
    """Coherence time of a single emitter under both broadening mechanisms.

    For a homogeneous rate gamma_h = 1/(2 tau_r) + dephasing_rate and a
    Gaussian FWHM s' this is

        tau_c = -(2 ln2 / pi^2) gamma_h / s'^2
                + sqrt[ ((2 ln2 / pi^2) gamma_h / s'^2)^2 + 4 ln2 / (pi^2 s'^2) ]

    evaluated in the cancellation-free root form c / (a + sqrt(a^2 + c)),
    which degrades gracefully to the pure-dephasing limit 1/gamma_h as
    s' -> 0 (and is taken exactly for s' == 0).
    """
    if inhomogeneous_fwhm < 0.0:
        raise ValueError("inhomogeneous_fwhm must be >= 0")
    gamma_h = 0.5 / lifetime + dephasing_rate
    if inhomogeneous_fwhm == 0.0:
        if gamma_h <= 0.0:
            raise ValueError("gamma_h and inhomogeneous_fwhm cannot both vanish")
        return 1.0 / gamma_h
    sp2 = inhomogeneous_fwhm * inhomogeneous_fwhm
    if math.isinf(sp2):
        raise ValueError(
            f"inhomogeneous_fwhm {inhomogeneous_fwhm!r} is too large: its square overflows"
        )
    a = 2.0 * _LN2 / math.pi**2 * gamma_h / sp2
    c = 4.0 * _LN2 / (math.pi**2 * sp2)
    return c / (a + math.sqrt(a * a + c))


def _max_inhomogeneous_fwhm(lifetime: float, tau_c: float) -> float:
    """Gaussian FWHM that alone (dephasing_rate = 0) yields ``tau_c``."""
    excess = 1.0 / tau_c - 0.5 / lifetime
    return 2.0 / math.pi * math.sqrt(_LN2 * excess / tau_c)


def decompose_linewidth(
    lifetime: float, tau_c: float, n_points: int = 200
) -> list[tuple[float, float]]:
    """All (dephasing_rate, inhomogeneous_fwhm) pairs matching a coherence time.

    Returns ``n_points`` samples of the one-parameter family, starting at
    the all-dephasing endpoint (rate_max, 0) and ending at the
    all-inhomogeneous endpoint (0, fwhm_max).  Interior points are spaced
    geometrically in the Gaussian FWHM; both endpoints are exact.

    Raises
    ------
    InfeasibleDecompositionError
        If ``tau_c`` exceeds the Fourier limit 2 * lifetime.
    """
    if lifetime <= 0.0 or tau_c <= 0.0:
        raise ValueError("lifetime and tau_c must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if tau_c > 2.0 * lifetime * (1.0 + 1e-12):
        raise InfeasibleDecompositionError(
            f"coherence time {tau_c} exceeds the Fourier limit {2 * lifetime}"
        )
    if tau_c >= 2.0 * lifetime:
        return [(0.0, 0.0)]

    fwhm_max = _max_inhomogeneous_fwhm(lifetime, tau_c)
    rate_max = 1.0 / tau_c - 0.5 / lifetime
    pairs: list[tuple[float, float]] = [(rate_max, 0.0)]
    for fwhm in np.geomspace(fwhm_max * 1e-3, fwhm_max, n_points - 1):
        if fwhm == fwhm_max:
            pairs.append((0.0, float(fwhm)))
            continue
        # Invert the coherence relation at fixed Gaussian width:
        # gamma_h = 1/tau_c - pi^2 s'^2 tau_c / (4 ln2).
        gamma_h = 1.0 / tau_c - math.pi**2 * fwhm * fwhm * tau_c / (4.0 * _LN2)
        pairs.append((gamma_h - 0.5 / lifetime, float(fwhm)))
    return pairs


def decompose_voigt_fwhm(
    lifetime: float, total_fwhm: float, n_points: int = 200
) -> list[tuple[float, float]]:
    """All (dephasing_rate, inhomogeneous_fwhm) pairs matching a Voigt linewidth.

    The Lorentzian component is gamma_h / pi; the Voigt FWHM of each
    candidate split is solved numerically on the half maximum, so every
    returned pair reproduces ``total_fwhm`` to better than 1e-6 relative.
    Endpoints (all-Lorentzian and Fourier-limited Lorentzian plus maximal
    Gaussian) are exact; interior points are geometric in the Gaussian FWHM.

    Raises
    ------
    InfeasibleDecompositionError
        If ``total_fwhm`` is below the Fourier-limited Lorentzian width
        1 / (2 pi * lifetime).
    """
    if lifetime <= 0.0 or total_fwhm <= 0.0:
        raise ValueError("lifetime and total_fwhm must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    fourier_fwhm = 1.0 / (2.0 * math.pi * lifetime)
    if total_fwhm < fourier_fwhm * (1.0 - 1e-12):
        raise InfeasibleDecompositionError(
            f"total linewidth {total_fwhm} is below the Fourier limit {fourier_fwhm}"
        )
    if total_fwhm <= fourier_fwhm:
        return [(0.0, 0.0)]

    rate_max = math.pi * total_fwhm - 0.5 / lifetime
    (gauss_max,) = _bisect_voigt(
        lambda g: voigt_fwhm(fourier_fwhm, g), total_fwhm, np.array([2.0 * total_fwhm])
    ).tolist()
    fwhms = np.geomspace(gauss_max * 1e-3, gauss_max, n_points - 1)
    interior = fwhms[fwhms != gauss_max]
    lor = _bisect_voigt(
        lambda l: voigt_fwhm(l, interior), total_fwhm, np.full_like(interior, total_fwhm)
    )
    rates = np.maximum(math.pi * lor - 0.5 / lifetime, 0.0)
    pairs: list[tuple[float, float]] = [(rate_max, 0.0)]
    solved = iter(zip(rates.tolist(), interior.tolist()))
    for fwhm in fwhms.tolist():
        pairs.append((0.0, fwhm) if fwhm == gauss_max else next(solved))
    return pairs


# One call of ``fwhm_of`` in _bisect_voigt runs a whole inner bisection, whose
# cost on small arrays is set by numpy's per-call overhead rather than by the
# number of elements.  A solve over few elements therefore evaluates the
# midpoints of several bisection levels in one call, up to about this many
# points in all.
_POINTS_PER_CALL = 64


def _bisect_voigt(fwhm_of, target: float, hi: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Solve the increasing ``fwhm_of(x) = target`` for every x on [0, hi].

    One lockstep bisection over the array ``hi``: each element freezes when
    its own interval satisfies ``hi - lo <= rtol * max(hi, 1e-300)`` and
    returns the midpoint of that interval, exactly as a scalar bisection
    does.  Each round evaluates ``fwhm_of`` once on every midpoint the next
    ``levels`` bisection steps can visit, each formed from its two parents
    as the scalar bisection forms it, and then takes those steps.
    """
    if np.any(fwhm_of(hi) < target):
        raise InfeasibleDecompositionError("target not bracketed")
    # the most levels whose 2**levels - 1 midpoints per element fit the budget
    levels = max(1, (_POINTS_PER_CALL // max(hi.size, 1) + 1).bit_length() - 1)
    span = 2**levels
    cols = np.arange(hi.size)
    lo = np.zeros_like(hi)
    live = hi - lo > rtol * np.maximum(hi, 1e-300)
    while np.count_nonzero(live):
        grid = np.empty((span + 1, hi.size))
        grid[0] = lo
        grid[span] = hi
        step = span
        while step > 1:
            grid[step // 2 :: step] = 0.5 * (grid[:-1:step] + grid[step::step])
            step //= 2
        below = fwhm_of(grid[1:-1]) < target
        # grid indices of each element's interval, walked down the levels
        left = np.zeros(hi.size, dtype=int)
        right = np.full(hi.size, span)
        for _ in range(levels):
            mid = (left + right) // 2
            go_right = below[mid - 1, cols]
            np.copyto(left, mid, where=live & go_right)
            np.copyto(right, mid, where=live & ~go_right)
            lo = grid[left, cols]
            hi = grid[right, cols]
            live = hi - lo > rtol * np.maximum(hi, 1e-300)
    return 0.5 * (lo + hi)


def normalized_params(emitter: EmitterParams) -> NormalizedParams:
    """Normalized linewidths of a pair of identical copies of ``emitter``.

    theta_pd = (2 * dephasing_rate + 1/tau_r) * tau_r, theta_sd = fwhm * tau_r,
    and x_c follows from :func:`coherence_time`.
    """
    tau_r = emitter.lifetime
    # written as 1 + 2*rate*tau_r so the Fourier limit gives exactly 1.0
    theta_pd = 1.0 + 2.0 * emitter.dephasing_rate * tau_r
    theta_sd = emitter.inhomogeneous_fwhm * tau_r
    x_c = emitter.coherence_time / (2.0 * tau_r)
    return NormalizedParams(theta_pd=theta_pd, theta_sd=theta_sd, x_c=x_c)


def emitter_from_normalized(theta_pd: float, theta_sd: float, lifetime: float = 1.0) -> EmitterParams:
    """Concrete emitter realizing (theta_pd, theta_sd) at the given lifetime."""
    if theta_pd < 1.0 - 1e-12:
        raise ValueError("theta_pd < 1 is unphysical")
    return EmitterParams(
        lifetime=lifetime,
        dephasing_rate=max(theta_pd - 1.0, 0.0) / (2.0 * lifetime),
        inhomogeneous_fwhm=theta_sd / lifetime,
    )
