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

What is known of a partly characterized emitter (a coherence time, a Voigt
linewidth, or a bounded Lorentzian) is an :class:`EmitterConstraint`; its
split curve of (dephasing_rate, inhomogeneous_fwhm) pairs, and the array
view of that curve, are formed here only.  A Voigt linewidth is split by
``numerics._voigt_width``, the solver behind ``voigt_fwhm`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .numerics import GAUSS_FWHM_PER_SIGMA, _voigt_width

__all__ = [
    "EmitterConstraint",
    "EmitterParams",
    "PhotonPair",
    "NormalizedParams",
    "InfeasibleDecompositionError",
    "coherence_time",
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


def coherence_time(
    lifetime: float | np.ndarray,
    dephasing_rate: float | np.ndarray,
    inhomogeneous_fwhm: float | np.ndarray,
) -> float | np.ndarray:
    """Coherence time of a single emitter under both broadening mechanisms.

    For a homogeneous rate gamma_h = 1/(2 tau_r) + dephasing_rate and a
    Gaussian FWHM s' this is

        tau_c = -(2 ln2 / pi^2) gamma_h / s'^2
                + sqrt[ ((2 ln2 / pi^2) gamma_h / s'^2)^2 + 4 ln2 / (pi^2 s'^2) ]

    evaluated in the cancellation-free root form c / (a + sqrt(a^2 + c)),
    which degrades gracefully to the pure-dephasing limit 1/gamma_h as
    s' -> 0 (and is taken exactly for s' == 0).  Where s'^2, a^2 or c leaves
    the float range, numerator and denominator are multiplied by s'^2:
    (4 ln2 / pi^2) / (k + hypot(k, 2 sqrt(ln2) s' / pi)), k = a s'^2.

    The arguments broadcast; a scalar result is a float.  Each element takes
    the operations of a scalar evaluation (the fallback ``math.hypot`` per
    element, as ``np.hypot`` differs from it in the last bit for some).
    """
    tau_r, fwhm = np.asarray(lifetime, dtype=float), np.asarray(inhomogeneous_fwhm, dtype=float)
    lorentzian = fwhm == 0.0
    # both forms are computed everywhere; what leaves the float range is not selected
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma_h = 0.5 / tau_r + dephasing_rate
        sp2 = fwhm * fwhm
        a = 2.0 * _LN2 / math.pi**2 * gamma_h / sp2
        c = 4.0 * _LN2 / (math.pi**2 * sp2)
        asq = a * a
        out = np.where(lorentzian, 1.0 / gamma_h, c / (a + np.sqrt(asq + c)))
    # one reduction for all three checks, which cost as much as the formula
    if np.any((tau_r <= 0.0) | (fwhm < 0.0) | lorentzian & (gamma_h <= 0.0)):
        raise ValueError("need lifetime > 0, inhomogeneous_fwhm >= 0, gamma_h > 0 where fwhm = 0")
    # a^2 and c lie in (0, inf) only where s'^2 does too
    fallback = ~(lorentzian | (0.0 < asq) & (asq < math.inf) & (0.0 < c) & (c < math.inf))
    if fallback.any():
        k = 2.0 * _LN2 / math.pi**2 * np.broadcast_to(gamma_h, out.shape)[fallback]
        width = 2.0 * math.sqrt(_LN2) / math.pi * np.broadcast_to(fwhm, out.shape)[fallback]
        norm = np.array([math.hypot(*pair) for pair in zip(k.tolist(), width.tolist())])
        out[fallback] = 4.0 * _LN2 / math.pi**2 / (k + norm)
    return float(out) if out.ndim == 0 else out


def _linewidth_splits(
    lifetime: float, tau_c: float, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The coherence-time :meth:`EmitterConstraint.decomposition` as arrays."""
    if tau_c > 2.0 * lifetime * (1.0 + 1e-12):
        raise InfeasibleDecompositionError(
            f"coherence time {tau_c} exceeds the Fourier limit {2 * lifetime}"
        )
    if tau_c >= 2.0 * lifetime:
        return np.zeros(1), np.zeros(1)

    rate_max = 1.0 / tau_c - 0.5 / lifetime
    # the Gaussian FWHM that alone (dephasing_rate = 0) yields tau_c
    fwhm_max = 2.0 / math.pi * math.sqrt(_LN2 * rate_max / tau_c)

    def rates_at(fwhms: np.ndarray) -> np.ndarray:
        # the coherence relation inverted at fixed Gaussian width:
        # gamma_h = 1/tau_c - pi^2 s'^2 tau_c / (4 ln2)
        return 1.0 / tau_c - math.pi**2 * fwhms * fwhms * tau_c / (4.0 * _LN2) - 0.5 / lifetime

    return _split_curve(rate_max, fwhm_max, n_points, rates_at)


def _voigt_splits(
    lifetime: float, total_fwhm: float, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Voigt :meth:`EmitterConstraint.decomposition` as arrays."""
    fourier_fwhm = 1.0 / (2.0 * math.pi * lifetime)
    if total_fwhm < fourier_fwhm * (1.0 - 1e-12):
        raise InfeasibleDecompositionError(
            f"total linewidth {total_fwhm} is below the Fourier limit {fourier_fwhm}"
        )
    if total_fwhm <= fourier_fwhm:
        return np.zeros(1), np.zeros(1)

    rate_max = math.pi * total_fwhm - 0.5 / lifetime

    def rates_at(fwhms: np.ndarray) -> np.ndarray:
        lor = _voigt_width(total_fwhm, None, fwhms, "lorentzian")
        return np.maximum(math.pi * lor - 0.5 / lifetime, 0.0)

    try:
        (gauss_max,) = _voigt_width(total_fwhm, fourier_fwhm, None, "gaussian").tolist()
        return _split_curve(rate_max, gauss_max, n_points, rates_at)
    except ValueError as error:
        raise ValueError(f"total_fwhm {total_fwhm!r} defeats the Voigt solver: {error}") from None


def _split_curve(
    rate_max: float, fwhm_max: float, n_points: int, rates_at: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """(dephasing_rate, inhomogeneous_fwhm) arrays of ``n_points`` splits from
    the all-dephasing endpoint (rate_max, 0) to the all-inhomogeneous
    endpoint (0, fwhm_max); the ``n_points - 2`` interior Gaussian widths are
    geometric from fwhm_max / 1000, their rates ``rates_at(fwhms)``."""
    fwhms = np.geomspace(fwhm_max * 1e-3, fwhm_max, n_points - 1)[:-1]
    rates = np.concatenate(([rate_max], rates_at(fwhms), [0.0]))
    return rates, np.concatenate(([0.0], fwhms, [fwhm_max]))


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
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name != "lifetime":
                continue
            zero_ok = f.name == "gaussian_fwhm"  # a pure Lorentzian
            if not ((value >= 0.0 if zero_ok else value > 0.0) and math.isfinite(value)):
                bound = ">= 0" if zero_ok else "positive"
                raise ValueError(f"{f.name} must be {bound} and finite, not {value!r}")
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
        """(dephasing_rate, inhomogeneous_fwhm) samples consistent with this constraint.

        A coherence time or a total FWHM gives ``n_points`` samples from the
        all-dephasing endpoint (rate_max, 0) to the all-inhomogeneous endpoint
        (0, fwhm_max), both exact, the interior geometric in the Gaussian FWHM
        from fwhm_max / 1000; at the Fourier limit it is the one pair (0, 0).
        A Voigt split's Lorentzian part is gamma_h / pi; each unknown width is
        solved by ``numerics._voigt_width``, the solver of ``voigt_fwhm``, to
        a Newton step of ``VOIGT_FWHM_RTOL`` (1e-13) relative, so every pair
        reproduces ``total_fwhm`` to about 1e-15 (``tests/test_accuracy.py``
        holds the 200 splits of the shipped 119 MHz Voigt config within
        6.1e-16 of 40-digit mpmath).  A known split is its one pair; a bounded
        Lorentzian gives ``n_points`` rates, linear from 0, at its Gaussian width.

        Raises ``ValueError`` for ``n_points`` below 2, and
        :class:`InfeasibleDecompositionError` where ``coherence_time`` exceeds
        the Fourier limit 2 * lifetime, or ``total_fwhm``, ``lorentzian_fwhm``
        or ``lorentzian_fwhm_max`` is below 1 / (2 pi * lifetime).
        """
        return list(zip(*(column.tolist() for column in self._splits(n_points))))

    def _splits(self, n_points: int) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`decomposition` as (dephasing_rate, inhomogeneous_fwhm) arrays."""
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        fourier_rate = 0.5 / self.lifetime
        if self.coherence_time is not None:
            return _linewidth_splits(self.lifetime, self.coherence_time, n_points)
        if self.total_fwhm is not None:
            return _voigt_splits(self.lifetime, self.total_fwhm, n_points)
        if self.lorentzian_fwhm is not None:
            rate = math.pi * self.lorentzian_fwhm - fourier_rate
            if rate < -1e-9 * fourier_rate:
                raise InfeasibleDecompositionError(
                    "lorentzian_fwhm is below the Fourier limit"
                )
            return np.array([max(rate, 0.0)]), np.array([float(self.gaussian_fwhm)])
        rate_max = math.pi * self.lorentzian_fwhm_max - fourier_rate
        if rate_max < -1e-9 * fourier_rate:
            raise InfeasibleDecompositionError(
                "lorentzian_fwhm_max is below the Fourier limit"
            )
        rates = np.linspace(0.0, max(rate_max, 0.0), n_points)
        return rates, np.full(n_points, float(self.gaussian_fwhm))

    def curve(self, n_points: int = 200) -> tuple[np.ndarray, ...]:
        """The :meth:`decomposition` as arrays with one element per split:
        (dephasing_rate, inhomogeneous_fwhm, gamma_h, sigma^2, theta_pd,
        theta_sd), the rate clamped at 0, each column formed by the
        floating-point operations of :class:`EmitterParams` and
        :func:`normalized_params`."""
        rates, fwhms = self._splits(n_points)
        rates = np.maximum(rates, 0.0)
        tau_r = self.lifetime
        # float_power calls the C library's pow, as Python's sigma**2 does
        sigma_sq = np.float_power(fwhms / GAUSS_FWHM_PER_SIGMA, 2)
        theta_pd = 1.0 + 2.0 * rates * tau_r
        return rates, fwhms, 0.5 / tau_r + rates, sigma_sq, theta_pd, fwhms * tau_r


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
