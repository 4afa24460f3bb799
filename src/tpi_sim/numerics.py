"""Special-function and quadrature kernels shared by the whole package.

Everything in here is pure and reentrant: no global state, safe to call
from parallel parameter sweeps.

Units are SI throughout (seconds, Hz).  No angular frequencies are stored;
factors of 2*pi appear explicitly where a formula needs them.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np
from scipy.special import wofz

__all__ = [
    "QuadratureError",
    "faddeeva_w",
    "voigt_value",
    "voigt_fwhm",
    "integrate",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# FWHM of a unit-sigma Gaussian.
GAUSS_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


def faddeeva_w(z: complex | np.ndarray) -> complex | np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) * erfc(-iz) on the upper half-plane.

    Backed by ``scipy.special.wofz`` (better than 1e-13 relative accuracy;
    the test suite validates it against a 40-digit reference evaluation).
    Accepts scalars or arrays.

    Raises
    ------
    ValueError
        If any input has Im(z) < 0.  All physical callers build z with a
        nonnegative imaginary part, and accuracy guarantees only hold there.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise ValueError("faddeeva_w is only defined here for Im(z) >= 0")
    out = wofz(z)
    if out.ndim == 0:
        return complex(out)
    return out


def voigt_value(
    x: float | np.ndarray,
    gaussian_sigma: float | np.ndarray,
    lorentzian_hwhm: float | np.ndarray,
) -> float | np.ndarray:
    """Unit-normalized Voigt density at frequency offset ``x`` (Hz), in 1/Hz.

    Convolution of a Lorentzian of half width ``lorentzian_hwhm`` with a
    Gaussian of standard deviation ``gaussian_sigma``.  Degenerates exactly
    to the pure Gaussian or pure Lorentzian when one width vanishes.

    The arguments broadcast against each other; a scalar result is returned
    as a float.  Every element is evaluated with the same floating-point
    operations as a scalar call, so array and elementwise scalar evaluation
    agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(gaussian_sigma, dtype=float)
    hwhm = np.asarray(lorentzian_hwhm, dtype=float)
    shape = np.broadcast(x, sigma, hwhm).shape
    if np.any(np.minimum(sigma, hwhm) <= 0.0):
        out = _voigt_limits(x, sigma, hwhm, shape)
    else:
        out = _faddeeva_voigt(sigma, hwhm, shape)(x)
    return float(out) if out.ndim == 0 else out


def _faddeeva_voigt(
    sigma: np.ndarray, hwhm: np.ndarray, shape: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> Re w(z) / (sigma sqrt(2 pi)), z = (x + i hwhm) / (sigma sqrt(2)).

    ``shape`` is the broadcast shape of the results.  The parts that do not
    depend on ``x`` are computed once, for callers that evaluate one
    profile at many offsets.
    """
    d = sigma * math.sqrt(2.0)
    norm = sigma * _SQRT_2PI
    # Two real divisions, as CPython's complex / float performs them;
    # numpy's complex / real multiplies by a reciprocal instead.
    z = np.empty(shape, dtype=complex)
    z.imag = hwhm / d

    def density(x: np.ndarray | float) -> np.ndarray:
        np.divide(x, d, out=z.real)
        return wofz(z).real / norm

    return density


def _voigt_limits(
    x: np.ndarray, sigma: np.ndarray, hwhm: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """:func:`voigt_value` where some width is not positive.

    Negative widths and two zero widths are rejected; where one width is
    zero the profile is the pure Gaussian or pure Lorentzian.
    """
    if np.any(sigma < 0.0) or np.any(hwhm < 0.0):
        raise ValueError("Voigt widths must be nonnegative")
    gauss = hwhm == 0.0
    lorentz = sigma == 0.0
    if np.any(gauss & lorentz):
        raise ValueError("Voigt profile is degenerate when both widths are zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = x / sigma
        out = np.where(
            gauss,
            np.exp(-0.5 * arg * arg) / (sigma * _SQRT_2PI),
            _faddeeva_voigt(sigma, hwhm, shape)(x),
        )
        return np.where(lorentz, hwhm / math.pi / (x * x + hwhm * hwhm), out)


def voigt_fwhm(
    lorentzian_fwhm: float | np.ndarray,
    gaussian_fwhm: float | np.ndarray,
    rtol: float = 1e-13,
) -> float | np.ndarray:
    """Full width at half maximum of a Voigt profile, by bisection.

    Takes the FWHM of each component (not sigma / HWHM).  Solved on the
    half-maximum of :func:`voigt_value` rather than through an analytic
    approximation, so the result is exact to ``rtol``.

    The widths broadcast against each other; a scalar result is returned
    as a float.  All elements are bisected in lockstep, each freezing when
    its own interval satisfies ``hi - lo <= rtol * hi``, so array and
    elementwise scalar evaluation agree bit for bit.
    """
    lor, gauss = np.broadcast_arrays(
        np.asarray(lorentzian_fwhm, dtype=float), np.asarray(gaussian_fwhm, dtype=float)
    )
    if np.any(lor < 0.0) or np.any(gauss < 0.0):
        raise ValueError("component widths must be nonnegative")
    if np.any((lor == 0.0) & (gauss == 0.0)):
        raise ValueError("Voigt FWHM undefined for two zero-width components")
    # With one width zero the FWHM is the other one, which lor + gauss is.
    out = np.array(lor + gauss)
    mixed = (lor != 0.0) & (gauss != 0.0)
    # Both widths are positive on ``mixed``: the Faddeeva form of voigt_value.
    hi = out[mixed]  # Voigt FWHM <= fL + fG
    density = _faddeeva_voigt(gauss[mixed] / GAUSS_FWHM_PER_SIGMA, 0.5 * lor[mixed], hi.shape)
    half_peak = 0.5 * density(0.0)
    if np.any(density(hi) >= half_peak):
        raise QuadratureError("failed to bracket the Voigt half maximum")
    lo, hi = _bisect(lambda mid: density(mid) >= half_peak, hi, rtol)
    out[mixed] = lo + hi  # 2 * half-width
    return float(out) if out.ndim == 0 else out


def _bisect(root_above: Callable, hi: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of a lockstep bisection of every element on [0, hi], where
    ``root_above(mid)`` is True below the root.  Each element freezes once its
    ``hi - lo <= rtol * hi``, so array and scalar bisections agree bit for bit."""
    lo = np.zeros_like(hi)
    live = hi - lo > rtol * hi
    while np.count_nonzero(live):
        mid = 0.5 * (lo + hi)
        above = root_above(mid)
        np.copyto(lo, mid, where=live & above)
        np.copyto(hi, mid, where=live & ~above)
        live = hi - lo > rtol * hi
    return lo, hi


# 15-point Kronrod nodes on [-1, 1] and the matching 7-point Gauss weights.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 weights sit on the odd Kronrod nodes.
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate and |K15 - G7| error indicator for one interval."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _XK
    y = np.asarray(f(x), dtype=float)
    k15 = half * float(np.dot(_WK, y))
    g7 = half * float(np.dot(_WG, y[1::2]))
    return k15, abs(k15 - g7)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    decay_time: float | None = None,
    truncation_factor: float = 40.0,
    max_intervals: int = 4000,
) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over [a, b].

    The integrand must accept numpy arrays.  Refinement bisects the
    interval with the largest |K15 - G7| discrepancy until the summed
    error indicator drops below ``tol`` (absolute).

    Semi-infinite or doubly infinite ranges are truncated at
    ``truncation_factor`` times ``decay_time`` measured from the finite
    endpoint (or from 0 for a doubly infinite range); ``decay_time`` is
    the slowest decay constant of the integrand and must be supplied for
    infinite ranges.

    Raises
    ------
    QuadratureError
        If ``max_intervals`` refinements do not reach ``tol``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = float(a)
    b = float(b)
    if math.isinf(a) or math.isinf(b):
        if decay_time is None or decay_time <= 0.0:
            raise ValueError("infinite ranges need a positive decay_time")
        span = truncation_factor * decay_time
        if math.isinf(a) and math.isinf(b):
            a, b = -span, span
        elif math.isinf(b):
            b = a + span
        else:
            a = b - span
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    # Seed with several panels so narrow features near one end are not
    # masked by one coarse estimate over the whole range.
    edges = np.linspace(a, b, 9)
    heap: list[tuple[float, int, float, float, float]] = []
    count = 0
    total = 0.0
    err_total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        heapq.heappush(heap, (-err, count, lo, hi, val))
        count += 1
        total += val
        err_total += err

    while err_total > tol:
        if count >= max_intervals:
            raise QuadratureError(
                f"integral did not converge: error {err_total:.3e} > tol {tol:.3e} "
                f"after {count} intervals"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        err_total += neg_err  # neg_err is -err
        total -= val
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v, e = _panel(f, *seg)
            heapq.heappush(heap, (-e, count, seg[0], seg[1], v))
            count += 1
            total += v
            err_total += e
    return sign * total
