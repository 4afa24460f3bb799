import math

import mpmath as mp
import numpy as np
import pytest

from tpi_sim import numerics
from tpi_sim.emitter import EmitterConstraint
from tpi_sim.interference import overlap_weight
from tpi_sim.numerics import _voigt_residual, faddeeva_w, voigt_fwhm
from tpi_sim.oracle import integrate


def w_reference(z: complex) -> complex:
    """Slow 40-digit reference: w(z) = exp(-z^2) erfc(-iz)."""
    with mp.workdps(40):
        zm = mp.mpc(z)
        return complex(mp.exp(-zm * zm) * mp.erfc(-1j * zm))


class TestFaddeeva:
    def test_at_origin(self):
        assert faddeeva_w(0.0) == 1.0 + 0.0j

    def test_real_axis_real_part_is_gaussian(self):
        # Re w(x) = exp(-x^2) for real x
        assert faddeeva_w(1.0).real == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert faddeeva_w(2.5).real == pytest.approx(math.exp(-6.25), rel=1e-13)

    def test_imaginary_axis_value(self):
        # w(iy) = erfcx(y); reference value computed with the 40-digit oracle
        val = faddeeva_w(1.0j)
        assert val.imag == 0.0
        assert val.real == pytest.approx(0.42758357615580700441, rel=1e-14)

    def test_against_high_precision_reference(self):
        radii = np.geomspace(1e-3, 1e3, 13)
        angles = np.linspace(0.0, math.pi, 9)
        worst = 0.0
        for r in radii:
            for a in angles:
                z = complex(r * math.cos(a), r * abs(math.sin(a)))
                ref = w_reference(z)
                got = complex(faddeeva_w(z))
                worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-12

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(0, 20))
            lhs = faddeeva_w(complex(-z.real, z.imag))
            rhs = complex(faddeeva_w(z)).conjugate()
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)

    def test_monotone_on_imaginary_axis(self):
        ys = np.linspace(0.0, 30.0, 400)
        vals = np.real(faddeeva_w(1j * ys))
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) < 0.0)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            faddeeva_w(1.0 - 0.5j)
        with pytest.raises(ValueError):
            faddeeva_w(np.array([1.0 + 1j, 2.0 - 1e-12j]))

    def test_array_input(self):
        zs = np.array([0.0, 1.0, 1j, 2 + 3j])
        vals = faddeeva_w(zs)
        assert vals.shape == zs.shape
        assert vals[0] == 1.0 + 0.0j


def w_reference_wide(z: complex) -> mp.mpc:
    """w(z) to 30 digits anywhere in the closed upper half-plane: the closed
    form with the digits exp(-z^2) cancels added back, and from |z| = 1e4 the
    asymptotic series i / (sqrt(pi) z) sum_k (2k - 1)!! / (2 z^2)^k, whose
    terms fall below 1e-32 within four terms there (the e^(-x^2) it omits is
    zero in double precision)."""
    zm = mp.mpc(z)
    if abs(z) < 1e4:
        with mp.workdps(40 + int(2 * math.log10(max(abs(z), 1.0)))):
            return mp.exp(-zm * zm) * mp.erfc(-1j * zm)
    with mp.workdps(40):
        total, term, k = mp.mpf(0), mp.mpf(1), 0
        while abs(term) > mp.mpf(10) ** -35:
            total += term
            k += 1
            term *= (2 * k - 1) / (2 * zm * zm)
        return 1j / (mp.sqrt(mp.pi) * zm) * total


def seeded_points(seed: int) -> np.ndarray:
    """Upper half-plane points: |z| from 1e-6 to 1e300, Im z down to 1e-12,
    the real axis, and the neighbourhoods of the quarter-step rule switches."""
    rng = np.random.default_rng(seed)
    radius, angle = 10 ** rng.uniform(-6.0, 300.0, 300), rng.uniform(0.0, math.pi, 300)
    general = radius * np.exp(1j * angle)
    general.imag = np.abs(general.imag)
    near_axis = rng.uniform(-30.0, 30.0, 250) + 1j * 10 ** rng.uniform(-12.0, 0.5, 250)
    real_axis = np.concatenate([rng.uniform(-30.0, 30.0, 100), 10 ** rng.uniform(-6.0, 300.0, 50)])
    switches = rng.integers(-40, 40, 100) / 4.0 + rng.uniform(-1e-3, 1e-3, 100)
    switches = switches + 1j * 10 ** rng.uniform(-12.0, 0.8, 100)
    return np.concatenate([general, near_axis, real_axis + 0j, switches])


class TestFaddeevaKernel:
    """The modified trapezoidal rule behind faddeeva_w against mpmath."""

    @pytest.mark.parametrize("seed", [41, 42])
    def test_against_mpmath_over_the_half_plane(self, seed):
        zs = seeded_points(seed)
        got = faddeeva_w(zs)
        tiny = np.finfo(float).tiny
        for z, w in zip(zs.tolist(), got.tolist()):
            ref = w_reference_wide(z)
            assert abs(w - complex(ref)) <= 1e-14 * abs(ref), z
            if abs(ref.real) >= tiny:  # Re w is a normal float
                assert abs(w.real - ref.real) <= 1e-13 * abs(ref.real), z

    def test_erfcx_on_the_imaginary_axis(self):
        rng = np.random.default_rng(43)
        ys = np.concatenate([[0.0, 5e-324, 1e300], 10 ** rng.uniform(-12.0, 300.0, 300)])
        got = faddeeva_w(1j * ys)
        assert got[0] == 1.0 and np.all(got.imag == 0.0)
        for y, w in zip(ys.tolist(), got.real.tolist()):
            ref = w_reference_wide(1j * y).real
            assert abs(w - ref) <= 1e-14 * ref, y

    def test_finite_for_every_finite_input(self):
        big, small = np.finfo(float).max, 5e-324
        parts = [0.0, small, 1e-300, 1.0, 6.25, 1e3, 1e154, 1e300, big]
        zs = np.array([complex(s * x, y) for x in parts for y in parts for s in (1.0, -1.0)])
        w = faddeeva_w(zs)
        assert np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))

    def test_array_equals_elementwise_scalar_calls(self):
        zs = seeded_points(44)
        got = faddeeva_w(zs.reshape(25, -1)).ravel()
        assert all(faddeeva_w(z) == w for z, w in zip(zs.tolist(), got.tolist()))

    def test_reflection_is_exact(self):
        zs = seeded_points(45)
        assert np.array_equal(faddeeva_w(-zs.conj()), faddeeva_w(zs).conj())


def voigt_density(x, sigma, hwhm):
    """Unit-normalized Voigt density at offset ``x``, the form in which
    ``overlap_weight`` documents it."""
    return overlap_weight(2.0 * math.pi * hwhm, sigma, x, 1.0)


class TestVoigt:
    def test_matches_direct_convolution(self):
        # independent oracle: numerically convolve the Gaussian with the Lorentzian
        sigma, hwhm = 1.3, 0.7

        def convolution(x):
            def f(t):
                gauss = np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
                lorentz = hwhm / math.pi / ((x - t) ** 2 + hwhm * hwhm)
                return gauss * lorentz

            return integrate(f, -14.0 * sigma, 14.0 * sigma, tol=1e-13)

        for x in (0.0, 0.5, 1.7, 4.0, -2.3):
            assert voigt_density(x, sigma, hwhm) == pytest.approx(convolution(x), rel=1e-9)

    def test_normalization_random_widths(self):
        # in-window mass over +-60 widths plus the explicitly integrated
        # Lorentzian-tail wings (substitution u = 1/x) must close to 1
        rng = np.random.default_rng(11)

        for _ in range(6):
            sigma = rng.uniform(0.2, 3.0)
            hwhm = rng.uniform(0.0, 3.0)
            window = 60.0 * (sigma + hwhm)
            total = integrate(lambda x: voigt_density(x, sigma, hwhm), -window, window, tol=1e-11)
            wing = integrate(
                lambda u: voigt_density(1.0 / u, sigma, hwhm) / u**2, 1e-9, 1.0 / window, tol=1e-11
            )
            assert total + 2.0 * wing == pytest.approx(1.0, abs=1e-8)


class TestVoigtFwhm:
    def test_pure_limits(self):
        assert voigt_fwhm(2.0, 0.0) == 2.0
        assert voigt_fwhm(0.0, 3.0) == 3.0

    def test_known_combination(self):
        # 480 MHz Lorentzian + 550 MHz Gaussian combine to ~850 MHz
        assert voigt_fwhm(480e6, 550e6) == pytest.approx(850.21e6, rel=1e-3)

    def test_half_maximum_property(self):
        for fl, fg in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)]:
            fwhm = voigt_fwhm(fl, fg)
            sigma = fg / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            peak = voigt_density(0.0, sigma, fl / 2.0)
            assert voigt_density(fwhm / 2.0, sigma, fl / 2.0) == pytest.approx(
                0.5 * peak, rel=1e-9
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lor,gauss", [(math.inf, 0.0), (0.0, math.inf), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_infinite_width_is_infinite(self, lor, gauss):
        assert voigt_fwhm(lor, gauss) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_ends_of_the_float_range(self):
        # solved in units of a power of two, so neither end overflows
        with pytest.raises(ValueError, match="lorentzian_fwhm and gaussian_fwhm"):
            voigt_fwhm(1.7e308, 1.7e308)
        assert voigt_fwhm(1e308, 1e308) == pytest.approx(1e308 * voigt_fwhm(1.0, 1.0), rel=1e-15)
        assert voigt_fwhm(1.7e308, 1e300) == pytest.approx(1.7e308, rel=1e-15)
        assert voigt_fwhm(1.0, 5e-324) == 1.0
        assert voigt_fwhm(1e-320, 1e-320) == pytest.approx(
            1e-320 * voigt_fwhm(1.0, 1.0), rel=1e-3  # a subnormal keeps few bits
        )

    def test_a_thin_gaussian_rounds_to_the_lorentzian(self):
        # the FWHM exceeds L by about 1.08 (G / L)^2 relative: at G = 1e-10 L
        # that is 1e-20, which rounds to L
        lor = np.geomspace(1e-300, 1e300, 1001)
        assert np.array_equal(voigt_fwhm(lor, 1e-10 * lor), lor)
        assert voigt_fwhm(1.0, 1e-9) == pytest.approx(1.0 + 1.08e-18, rel=1e-16)


class TestVoigtBracket:
    """``numerics._voigt_width`` solves on [0, 2 B] (B = L + G for the total
    FWHM F, B = F for a component) without checking the bracket: its residual
    is positive at 2 B at every width ratio, here for F from 1e-140 to 1e140
    and the known width from 1e-280 F to F (while a normal float)."""

    def grid(self):
        total, ratio = np.meshgrid(np.geomspace(1e-140, 1e140, 29), np.geomspace(1e-280, 1.0, 57))
        total, known = total.ravel(), (total * ratio).ravel()
        keep = known >= np.finfo(float).tiny
        return total[keep], known[keep]

    def test_component_residuals_at_twice_the_total(self):
        total, known = self.grid()
        lor = _voigt_residual(total, 2.0 * total, known, "lorentzian")[0]
        gauss = _voigt_residual(total, known, 2.0 * total, "gaussian")[0]
        assert np.all(lor > 0.0)
        assert np.all(gauss >= 0.262)

    def test_total_residual_at_twice_the_component_sum(self):
        wide, narrow = self.grid()
        for lor, gauss in ((wide, narrow), (narrow, wide)):
            assert np.all(_voigt_residual(2.0 * (lor + gauss), lor, gauss, "total")[0] > 0.0)


class TestNewtonStops:
    """``numerics._newton`` returns or raises ``ValueError`` on every input.
    Each residual here counts its calls and raises past the step cap, so a
    solver that loops fails the test instead of hanging it."""

    def counting(self, residual):
        def counted(*args, **kwargs):
            counted.count += 1
            if counted.count > numerics._MAX_STEPS + 10:
                raise RuntimeError("the solve did not stop")
            return residual(*args, **kwargs)

        counted.count = 0
        return counted

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("total_fwhm", [1e155, 1e300])
    def test_constraint_beyond_the_solver_names_total_fwhm(self, monkeypatch, total_fwhm):
        # the Olivero-Longbothum start overflows to nan, which no freeze test stops
        monkeypatch.setattr(numerics, "_voigt_residual", self.counting(numerics._voigt_residual))
        constraint = EmitterConstraint(lifetime=1e-12, total_fwhm=total_fwhm)
        with pytest.raises(ValueError, match="total_fwhm .* Newton point or residual"):
            constraint.decomposition(3)

    @pytest.mark.filterwarnings("error")
    def test_a_subnormal_root_freezes_on_adjacent_floats(self, monkeypatch):
        # the root is near 5e-317, where rtol * x rounds to 0: only the
        # bracket of two adjacent floats stops the bisection
        calls = self.counting(numerics._voigt_residual)
        monkeypatch.setattr(numerics, "_voigt_residual", calls)
        total, gauss = np.array([1e-300]), np.array([1e-300])
        (lor,) = numerics._voigt_width(total, None, gauss, "lorentzian")
        assert 0.0 < lor < 1e-310
        assert calls.count <= 100
        monkeypatch.undo()
        assert voigt_fwhm(lor, 1e-300) == pytest.approx(1e-300, rel=1e-15)

    def test_the_step_cap_refuses(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_STEPS", 1)
        with pytest.raises(ValueError, match="did not stop in 1 steps"):
            voigt_fwhm(1.0, 1.0)

    def test_non_finite_start_or_residual_is_refused(self):
        def residual(value):
            return lambda x, live: (np.full(live.size, value), np.ones(live.size))

        two = np.array([2.0])
        with pytest.raises(ValueError, match="Newton point or residual is not finite"):
            numerics._newton(self.counting(residual(np.nan)), np.array([1.0]), two, 1e-13)
        with pytest.raises(ValueError, match="Newton point or residual is not finite"):
            numerics._newton(self.counting(residual(1.0)), np.array([np.nan]), two, 1e-13)

    @pytest.mark.filterwarnings("error")
    def test_huge_widths_solve_without_warning(self):
        # 0.2166 L^2 overflows in the start, which is then clipped to 2 (L + G)
        assert voigt_fwhm(1e300, 1e300) == pytest.approx(1e300 * voigt_fwhm(1.0, 1.0), rel=1e-13)
