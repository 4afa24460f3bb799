"""Special-function kernels of the closed forms; the oracle keeps its own quadrature.

A Voigt profile's FWHM and its component FWHMs are tied by one half-maximum
condition, which one solver, :func:`_voigt_width`, solves for any of the three.

Everything in here is pure and reentrant: no global state, safe to call
from parallel parameter sweeps.

Units are SI throughout (seconds, Hz).  No angular frequencies are stored;
factors of 2*pi appear explicitly where a formula needs them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "faddeeva_w",
    "voigt_fwhm",
]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# FWHM of a unit-sigma Gaussian.
GAUSS_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# The modified trapezoidal and midpoint rules of faddeeva_w: step h, nodes
# as columns (one row per node) so that every node sum runs over long rows.
_STEP = 0.5
_ROWS = np.arange(14.0)[:, None]
_TRAPEZOID = _ROWS * _STEP  # t_0 = 0 carries half weight: the 1/z term
_MIDPOINT = (_ROWS + 0.5) * _STEP
_TRAPEZOID_WEIGHTS = np.exp(-_TRAPEZOID * _TRAPEZOID)
_TRAPEZOID_WEIGHTS[0] = 0.5
_MIDPOINT_WEIGHTS = np.exp(-_MIDPOINT * _MIDPOINT)
# erfcx needs only the first 12 midpoint nodes: e^(-6.25^2) < 1.1e-17.
_ERFCX_NODES_SQ = (_MIDPOINT * _MIDPOINT)[:12]
_ERFCX_WEIGHTS = _MIDPOINT_WEIGHTS[:12]
# Im z below pi / h: the pole of the integrand is inside the strip the rule
# sees, and its residue enters as the pole term.
_POLE_Y = math.pi / _STEP
# max(|Re z|, Im z) from which the asymptotic series is exact in double
# precision; below it the cancellation in w' = -2 z w + 2i / sqrt(pi)
# stays under 1e-9 relative.
_FAR = 1e3
# Points per block of the node sums, so that temporaries stay small.
_BLOCK = 4096
# Relative tolerance of the Newton solves of _voigt_width, for a Voigt FWHM
# (voigt_fwhm) or a component FWHM (the Voigt splits of emitter).
VOIGT_FWHM_RTOL = 1e-13
# _newton's step cap.  A converging solve takes at most about 90 steps on widths
# of 1e-300 to 1e300, and a float bracket halves to adjacent floats in about 2,100.
_MAX_STEPS = 5000


def faddeeva_w(z: complex | np.ndarray) -> complex | np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) * erfc(-iz) on the upper half-plane.

    The switched modified trapezoidal/midpoint rule of Al Azah and
    Chandler-Wilde (SIAM J. Numer. Anal., 2021) for
    w(z) = (i/pi) int e^(-t^2) / (z - t) dt, with step h = 1/2 and 14 nodes:
    midpoint nodes t_k = (k - 1/2) h where Re z / h lies within 1/4 of an
    integer, trapezoid nodes t_k = k h otherwise, so no node comes near a
    real z.  Then

        w(z) ~ (i h / pi) [1/z (trapezoid only) + 2 z sum_k e^(-t_k^2) / (z^2 - t_k^2)]
               + 2 e^(-z^2) / (1 +- e^(-2 pi i z / h))   (Im z < pi / h; + midpoint)

    with the sums taken in real arithmetic, Re and Im separately, free of
    cancellation.  On the imaginary axis w(iy) = erfcx(y), summed over
    real terms only (so w(0) == 1 exactly); where max(|Re z|, Im z) >= 1e3
    the asymptotic series i / (sqrt(pi) z) (1 + 1 / (2 z^2) + 3 / (4 z^4))
    is used.
    Against 30-digit mpmath, on 6,400 points of the upper half-plane (|z|
    from 1e-6 to 1e300, Im z down to 1e-12, the real axis and the rule
    switches) and 5,000 of the imaginary axis, the relative error was at
    most 5.7e-16 on w (scipy's wofz: 3.6e-14), 5.5e-14 on Re w wherever
    that is a normal float (the rounding of x^2 in Re w(x) = e^(-x^2), for
    x up to 26.6, sets that limit) and 4.1e-16 on erfcx.
    w(-conj z) = conj w(z) holds exactly.

    Accepts scalars or arrays; every element is evaluated with the same
    floating-point operations whatever the shape, so array and elementwise
    scalar calls agree bit for bit.

    Raises
    ------
    ValueError
        If any input has Im(z) < 0.  All physical callers build z with a
        nonnegative imaginary part, and accuracy guarantees only hold there.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise ValueError("faddeeva_w is only defined here for Im(z) >= 0")
    flat = z.ravel()
    re, im = _faddeeva(flat.real, flat.imag)
    out = np.empty(z.shape, dtype=complex)
    out.real = re.reshape(z.shape)
    out.imag = im.reshape(z.shape)
    if out.ndim == 0:
        return complex(out)
    return out


def _faddeeva(x: np.ndarray, y: np.ndarray, slope: bool = False) -> tuple[np.ndarray, ...]:
    """(Re w, Im w) of :func:`faddeeva_w` at z = x + iy, for 1-D arrays with
    y >= 0, and with ``slope`` also (Re w', Im w') of w' = -2 z w + 2i / sqrt(pi)
    (from the series where |z| >= 1e3, where that form cancels).

    Each point takes one of three regions: the imaginary axis (erfcx), the
    switched rule, or the asymptotic series (|x| or y at least 1e3, or nan).
    When every point is on the axis, or every point is in the rule's region,
    that region is evaluated on the whole arrays, with no region masks;
    otherwise each region is gathered by its mask.  Every element gets the
    same operations either way, so its bits do not depend on the rest of
    the call.
    """
    any_far = False
    if not x.any() and (y < _FAR).all():  # x = +-0 everywhere, so |x| = 0
        ax, re, im = np.zeros(x.shape), _erfcx(y), np.zeros(x.shape)
    else:
        ax = np.abs(x)
        near = np.maximum(ax, y) < _FAR  # False for nan
        if near.all() and ax.all():
            re, im = _trapezoid_rule(ax, y)
        else:
            far = ~near
            axis = ax == 0.0
            rule = ~(axis | far)
            any_far = far.any()
            # far points join an erfcx call at y = 0 and are overwritten below
            ys = np.where(far, 0.0, y) if any_far else y
            if not rule.any():
                re, im = _erfcx(ys), np.zeros(x.shape)
            else:
                re, im = np.empty(x.shape), np.zeros(x.shape)
                if axis.any():
                    re[axis] = _erfcx(ys[axis])
                re[rule], im[rule] = _trapezoid_rule(ax[rule], y[rule])
    if any_far:
        series = _asymptotic(ax[far], y[far])
        re[far], im[far] = series[:2]
    out = [re, im]
    if slope:
        out += [-2.0 * (ax * re - y * im), 2.0 * _INV_SQRT_PI - 2.0 * (ax * im + y * re)]
        if any_far:
            out[2][far], out[3][far] = series[2:]
    # w(-x + iy) = conj w(x + iy), so Im w and Re w' change sign with x
    negative = np.signbit(x)
    if negative.any():
        for part in out[1 : 3 if slope else 2]:
            np.negative(part, out=part, where=negative)
    return tuple(out)


def _erfcx(y: np.ndarray) -> np.ndarray:
    """erfcx(y) = w(iy) for 0 <= y < 1e3: the midpoint rule in real arithmetic,

        (2 h y / pi) sum_k e^(-t_k^2) / (y^2 + t_k^2) + [y < pi/h] 2 e^(y^2) / (1 + e^(2 pi y / h))."""
    out = np.empty(y.shape)
    work = np.empty((len(_ERFCX_NODES_SQ), min(y.size, _BLOCK)))  # one buffer for every block
    for start in range(0, y.size, _BLOCK):
        yb = y[start : start + _BLOCK]
        terms = work[:, : len(yb)]
        np.add(_ERFCX_NODES_SQ, yb * yb, out=terms)
        np.divide(_ERFCX_WEIGHTS, terms, out=terms)
        out[start : start + _BLOCK] = _node_sum(terms)
    out *= y
    out *= 2.0 * _STEP / math.pi
    # the pole term, in place: 2 e^(n^2) E / (1 + E), n = min(y, pi/h), E = e^(-2 pi n / h)
    pole = np.minimum(y, _POLE_Y)
    decay = np.multiply(pole, -2.0 * _POLE_Y)
    np.exp(decay, out=decay)
    np.multiply(pole, pole, out=pole)
    np.exp(pole, out=pole)
    pole *= 2.0
    pole *= decay
    decay += 1.0
    pole /= decay
    np.add(out, pole, out=out, where=y < _POLE_Y)
    return out


def _asymptotic(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Re w, Im w, Re w', Im w') from the series
    w = i / (sqrt(pi) z) (1 + 1 / (2 z^2) + 3 / (4 z^4)) for x >= 0, |z| >= 1e3
    (the next term is below 2e-18 relative).  u = 1/z is formed from z
    scaled by max(x, y), so no square overflows."""
    scale = np.maximum(x, y)
    xs, ys = x / scale, y / scale
    norm = xs * xs + ys * ys
    u = np.empty(x.shape, dtype=complex)
    u.real = xs / norm / scale
    u.imag = -ys / norm / scale
    sq = u * u
    w = 1j * _INV_SQRT_PI * u * (1.0 + sq * (0.5 + 0.75 * sq))
    dw = -1j * _INV_SQRT_PI * sq * (1.0 + sq * (1.5 + 3.75 * sq))
    return w.real, w.imag, dw.real, dw.imag


def _trapezoid_rule(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re w, Im w) by the switched rule of :func:`faddeeva_w`, 0 < x < 1e3, y < 1e3.

    With rho = x^2 + y^2 and |z^2 - t^2|^2 = ((x - t)^2 + y^2) ((x + t)^2 + y^2),
    the node sum splits into

        Re = (2h/pi) y sum c_k (rho + t_k^2) / |z^2 - t_k^2|^2,
        Im = (2h/pi) x sum c_k ((x - t_k)(x + t_k) + y^2) / |z^2 - t_k^2|^2,

    c_k = e^(-t_k^2) (1/2 at t_0 = 0).  x / h = 2x is exact, so the offset
    r = 2x - round(2x) picks the rule and gives the pole term's phase
    e^(-2 pi i z / h) = e^(2 pi y / h) e^(-2 pi i r) without loss.
    """
    twice = 2.0 * x
    offset = twice - np.rint(twice)
    midpoint = np.abs(offset) < 0.25
    sq_y = y * y
    rho = x * x + sq_y
    re = np.empty(x.shape)
    im = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        mid, xb, yb = midpoint[block], x[block], sq_y[block]
        nodes = np.where(mid, _MIDPOINT, _TRAPEZOID)
        weights = np.where(mid, _MIDPOINT_WEIGHTS, _TRAPEZOID_WEIGHTS)
        below = xb - nodes
        above = xb + nodes
        weights /= (below * below + yb) * (above * above + yb)
        below *= above
        below += yb
        below *= weights
        im[block] = _node_sum(below)
        nodes *= nodes
        nodes += rho[block]
        nodes *= weights
        re[block] = _node_sum(nodes)
    re *= y
    re *= 2.0 * _STEP / math.pi
    im *= x
    im *= 2.0 * _STEP / math.pi
    near = y < _POLE_Y
    if near.any():
        # 2 s e^(-z^2) E e^(i phi) / (1 + s E e^(i phi)), s = +1 midpoint and
        # -1 trapezoid, E = e^(-2 pi y / h), phi = 2 pi r; |1 + s E e^(i phi)| >= 1.
        # Where every point is near, whole arrays stand in for the gathers.
        near = slice(None) if near.all() else near
        xn, yn, phi = x[near], y[near], 2.0 * math.pi * offset[near]
        sign = np.where(midpoint[near], 1.0, -1.0)
        size = 2.0 * sign * np.exp((yn - 2.0 * _POLE_Y) * yn - xn * xn)
        angle = phi - 2.0 * xn * yn
        num_re, num_im = size * np.cos(angle), size * np.sin(angle)
        decay = sign * np.exp(-2.0 * _POLE_Y * yn)
        den_re, den_im = 1.0 + decay * np.cos(phi), decay * np.sin(phi)
        den = den_re * den_re + den_im * den_im
        re[near] += (num_re * den_re + num_im * den_im) / den
        im[near] += (num_im * den_re - num_re * den_im) / den
    return re, im


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the rows of ``terms`` (in place) by halving, row k with row
    n - h + k: elementwise adds in one fixed order for any number of columns."""
    rows = terms.shape[0]
    while rows > 1:
        half = rows // 2
        terms[:half] += terms[rows - half : rows]
        rows -= half
    return terms[0]


def voigt_fwhm(
    lorentzian_fwhm: float | np.ndarray, gaussian_fwhm: float | np.ndarray
) -> float | np.ndarray:
    """Full width at half maximum of a Voigt profile, by a safeguarded Newton solve.

    Takes the FWHM of each component (not sigma / HWHM).  Solved on the
    half-maximum condition by :func:`_voigt_width` rather than through an
    analytic approximation (that of Olivero and Longbothum only starts the
    solve), so the result is exact to about ``VOIGT_FWHM_RTOL``, the
    relative tolerance of the solve.

    The widths broadcast against each other; a scalar result is returned
    as a float.  All elements are solved in lockstep by :func:`_newton`,
    each freezing on its own tolerance, so array and elementwise scalar
    evaluation agree bit for bit.  A FWHM beyond the float range raises
    ``ValueError``.
    """
    lor, gauss = np.broadcast_arrays(
        np.asarray(lorentzian_fwhm, dtype=float), np.asarray(gaussian_fwhm, dtype=float)
    )
    if not (np.all(lor >= 0.0) and np.all(gauss >= 0.0)):  # also refuses nan
        raise ValueError("component widths must be nonnegative")
    if np.any((lor == 0.0) & (gauss == 0.0)):
        raise ValueError("Voigt FWHM undefined for two zero-width components")
    # With one width zero or infinite the FWHM is lor + gauss, and below
    # G = 1e-9 L it rounds to L (it exceeds L by about 1.08 (G / L)^2).  The
    # rest is solved with the wider width scaled into [1/2, 1) by a power of
    # two, which is exact, so no square or ratio in the solve overflows.
    thin = gauss < 1e-9 * lor
    with np.errstate(over="ignore"):
        out = np.where(thin, lor, lor + gauss)
    mixed = ~thin & (lor != 0.0) & (lor < math.inf) & (gauss < math.inf)
    exponent = np.frexp(np.maximum(lor, gauss)[mixed])[1]
    width = _voigt_width(None, *(np.ldexp(w[mixed], -exponent) for w in (lor, gauss)), "total")
    with np.errstate(over="ignore"):
        out[mixed] = np.ldexp(width, exponent)
    if np.isinf(out[mixed]).any():
        raise ValueError("lorentzian_fwhm and gaussian_fwhm give a FWHM beyond the float range")
    return float(out) if out.ndim == 0 else out


def _voigt_width(total, lor, gauss, unknown: str) -> np.ndarray:
    """The FWHM named by ``unknown`` ("total", "lorentzian" or "gaussian") at
    which a Voigt profile of component FWHMs L = ``lor`` and G = ``gauss``
    has the FWHM F = ``total``; that argument is not read (pass None), and
    the other two broadcast to one dimension.

    All elements are solved in lockstep by :func:`_newton` on
    :func:`_voigt_residual`, in [0, 2 B] with B = L + G for F (no profile is
    wider) and B = F for a component (none is wider than its profile); the
    residual is positive at 2 B at every width ratio.  The start is the
    estimate F = 0.5346 L + sqrt(0.2166 L^2 + G^2) of Olivero and Longbothum
    (J. Quant. Spectrosc. Radiat. Transfer 17, 233 (1977)), inverted for a
    component and clipped to [1e-3 B, 2 B].
    """
    known = {"total": total, "lorentzian": lor, "gaussian": gauss}
    del known[unknown]
    known = dict(zip(known, np.broadcast_arrays(*map(np.atleast_1d, known.values()))))
    f, l, g = map(known.get, ("total", "lorentzian", "gaussian"))
    bound = l + g if unknown == "total" else f
    # squares overflow above about 1.3e154, and _newton refuses what follows
    with np.errstate(over="ignore", invalid="ignore"):
        if unknown == "total":
            start = 0.5346 * l + np.sqrt(0.2166 * l * l + g * g)
        elif unknown == "lorentzian":  # 0.0692 L^2 - 1.0692 F L + F^2 - G^2 = 0, smaller root
            b = 1.0692 * f
            c = (f - g) * (f + g)
            start = 2.0 * c / (b + np.sqrt(b * b - 4.0 * 0.06919716 * c))
        else:
            d = f - 0.5346 * l
            start = np.sqrt(np.maximum(d * d - 0.2166 * (l * l), 0.0))
        start = np.clip(start, 1e-3 * bound, 2.0 * bound)

    def residual(x: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = {name: v[live] for name, v in known.items()} | {unknown: x}
        return _voigt_residual(**at, unknown=unknown)

    return _newton(residual, start, 2.0 * bound, VOIGT_FWHM_RTOL)


def _voigt_residual(total, lorentzian, gaussian, unknown: str) -> tuple[np.ndarray, np.ndarray]:
    """(r, dr/dx) of :func:`_voigt_width`'s half-maximum condition at the
    given FWHMs, x being the one named by ``unknown``.

    With h the Lorentzian HWHM and s = 1 / (sigma sqrt 2), sigma the
    Gaussian standard deviation, the profile is narrower than F where

        r = Re w(z_F) - Re w(z_0) / 2 < 0,   z_F = (F/2 + i h) s,  z_0 = i h s.

    r rises with L and G and falls with F, so for F it is negated.  With
    w' = -2 z w + 2i / sqrt(pi), dr/dx = Re(w'(z_F) dz_F/dx - w'(z_0) dz_0/dx / 2),
    where dz_F/dF = s / 2 (dz_0/dF = 0), dz/dL = i s / 2 and dz/dG = -z / G.
    z_F and z_0 take a Faddeeva call each, z_0 one on the imaginary axis.
    """
    s = GAUSS_FWHM_PER_SIGMA / (gaussian * math.sqrt(2.0))
    a, y = 0.5 * total * s, 0.5 * lorentzian * s
    re, _, dre, dim = _faddeeva(a, y, slope=True)
    if unknown == "total":
        return 0.5 * _faddeeva(np.zeros(y.shape), y)[0] - re, -0.5 * s * dre
    peak, _, _, dim_0 = _faddeeva(np.zeros(y.shape), y, slope=True)
    if unknown == "lorentzian":  # Re(w' i s / 2) = -s Im w' / 2
        slope = (0.5 * dim_0 - dim) * (0.5 * s)
    else:  # Re(-z w' / G), Re(z w') = a Re w' - y Im w'
        slope = (y * (dim - 0.5 * dim_0) - a * dre) / gaussian
    return re - 0.5 * peak, slope


def _newton(residual: Callable, x: np.ndarray, hi: np.ndarray, rtol: float) -> np.ndarray:
    """Roots on [0, hi] of residuals that rise through zero, solved in lockstep from ``x``.

    ``residual(x, live)`` returns (f, f') at the points ``x`` of the elements
    whose indices are the integer array ``live``.  Every step evaluates the
    live elements once, moves the bracket [lo, hi] to the new point and takes
    the Newton step if it lands inside the bracket and is at most half the
    step before it; otherwise it bisects.  An element freezes once f == 0,
    its Newton step is at most ``rtol`` times the point (the step is then
    taken) or its bracket at most ``rtol * hi`` or one float step (a
    subnormal root).  The state is held for the live elements only and
    compacted when some freeze.  Each element follows its own iterates, so
    array and scalar solves agree bit for bit.  A non-finite point or
    residual, which no freeze test stops, and step ``_MAX_STEPS`` raise
    ``ValueError``.
    """
    out = x.copy()
    live = np.arange(x.size)
    lo = np.zeros_like(x)
    last = hi  # the step before: the bracket, to begin with
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            if not live.size:
                return out
            f, slope = residual(x, live)
            if not (np.isfinite(x).all() and np.isfinite(f).all()):
                raise ValueError("Newton point or residual is not finite")
            below = f < 0.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            newton = x - f / slope
            step = np.abs(newton - x)
            # a step this small has converged, even one that rounds onto x
            small = step <= rtol * x
            take = small | (newton > lo) & (newton < hi) & (step <= 0.5 * last)
            new = np.where(take, newton, 0.5 * (lo + hi))
            last = np.abs(new - x)
            stay = f == 0.0
            done = stay | small | (hi - lo <= rtol * hi) | (hi <= np.nextafter(lo, math.inf))
            x = np.where(stay, x, new)
            if done.any():
                out[live[done]] = x[done]
                keep = ~done
                live, x, lo, hi, last = live[keep], x[keep], lo[keep], hi[keep], last[keep]
    raise ValueError(f"Newton solve did not stop in {_MAX_STEPS} steps")
