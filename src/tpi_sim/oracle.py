"""Brute-force verification of the closed-form interference results.

Independent routes re-derive what the analytic module computes:

* Monte-Carlo sampling of the microscopic jitter model (Gaussian frequency
  jitter per photon, Wiener phase noise with increment variance
  2 * dephasing_rate * dt, drawn as the relative frequency and phase of
  the pair) feeding the pre-average joint detection probability,
* direct adaptive quadrature of the correlation trace over the time lag, and
* adaptive quadrature over t0 of the joint density of two wave packets
  (:func:`quadrature_g2`), which checks each packet's ``time_scale`` and
  norm once per call.

Determinism: every sampler takes a 64-bit integer seed; streams for
independent chunks are derived with ``numpy.random.SeedSequence.spawn``,
and every reduction over chunks runs in a fixed order once all chunks are
done, so results are bit-identical for a given seed regardless of chunk
evaluation order.  A sampler's set-up therefore returns its work as jobs
(one per 256-realization chunk of :func:`mc_g2_estimate`, one per
:func:`mc_averaged_phase_factor` case, whose short chunks run in order
inside it) and a ``finish`` that reduces their outputs.
:func:`run_verification` runs the jobs of every sampler of a run on one
thread pool, one thread per CPU in the process's affinity set, after the
calling thread has done the quadrature checks; the outputs are identical
whatever the number of threads.

Draw order of :func:`mc_g2_estimate`: the coincidence density depends on
the jitter only through the relative frequency f_i - f_j and the relative
phase phi_i - phi_j, so each realization draws those alone.  Each chunk of
``_REALIZATION_CHUNK`` realizations has its own child stream and consumes
it as one standard-normal array of shape (n, T + 1) would, for a time grid
of T distinct points: the ``_PANELS`` x 16 quadrature nodes over t0 and
their tau-shifted copies, at most 64 times on 2 panels.  Row r is
realization r of the chunk: column 0 gives
f_i - f_j = (d_i - d_j) + sqrt(sigma_i^2 + sigma_j^2) z, and columns 1..T
the increments of phi_i - phi_j, each sqrt(2 (gamma_i + gamma_j) dt) z.
Every value is loc + scale * z, so a zero scale still consumes its normal.
A chunk draws its whole (n, T + 1) array at once and evaluates it in one
pass; at most 256 x 65 normals, 133 kB per thread on 2 panels.

Draw order of :func:`mc_averaged_phase_factor`: the phase factor depends
on the jitter through the same two relative quantities, so each trial
draws one normal for f_i - f_j and one for the increment of phi_i - phi_j
over |tau|, sqrt(2 (gamma_i + gamma_j) |tau|) z.  Each chunk of
``_CHUNK`` trials has its own child stream and draws its n frequency
normals, then its n phase normals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import numerics
from .emitter import EmitterParams, PhotonPair
from .gates import GateMatrix, beam_splitter, gate_quad
from .interference import (
    _baseline,
    _interference_term,
    averaged_phase_factor,
    coincidence_probability,
    g2_trace,
    joint_detection_probability,
)

__all__ = [
    "MonteCarloEstimate",
    "exponential_wave",
    "mc_averaged_phase_factor",
    "quadrature_p_coinc",
    "quadrature_g2",
    "mc_g2_estimate",
    "VerificationCheck",
    "VerificationReport",
    "run_verification",
]

_CHUNK = 4096

# The smallest sizes for which an estimate and its standard error mean
# anything.
_MIN_REALIZATIONS = 2
_MIN_TRIALS = 10_000

# The least value of each size of :func:`run_verification`; the CLI's
# ``verify`` and ``tools/verify_seeds.py`` refuse smaller ones by name.
_MIN_SIZES = {
    "closed_form_instances": 1,
    "mc_instances": 1,
    "mc_realizations": _MIN_REALIZATIONS,
    "phase_trials": _MIN_TRIALS,
}

# The lags of each Monte-Carlo instance of :func:`run_verification`, as
# multiples of the slower lifetime, and its number of phase-factor cases:
# each is one 3-sigma comparison, which ``tools/verify_seeds.py`` counts.
_LAG_MULTIPLES = (-1.5, -0.5, 0.25, 1.0, 2.5)
_PHASE_CASES = 8

_REALIZATION_CHUNK = 256
"""Realizations of :func:`mc_g2_estimate` per spawned child stream.

Part of the seed contract: the chunk boundaries decide which child stream
each realization draws its T + 1 normals from, so changing this constant
changes every estimate for every seed.
"""

_PANELS = 2
"""Gauss-Legendre panels (16 nodes each) over t0 in :func:`mc_g2_estimate`.

Part of the seed contract: the panels fix the quadrature nodes, hence the
T distinct times at which every difference path is sampled and the T + 1
normals each realization draws, so changing this constant changes every
estimate for every seed.

Two panels suffice.  The path is sampled exactly at every node, so the
expected estimate is the Gauss-Legendre sum of the jitter-averaged
density, and every term of that density decays as exp(-t0 / t_plus) over
a window 40 t_plus wide: each panel spans 20 decay lengths, which 16 nodes
integrate to rounding.  Against ``g2_trace`` on 200 random instances x 5
lags (those of ``test_node_sum_of_the_averaged_density_equals_the_trace``),
the worst gap of that sum, relative to the larger of |G2| and the
distinguishable baseline, is 8.2e-10 on 1 panel, 6.8e-15 on 2, 3.4e-15 on
4 and 2.3e-15 on 12.  A realization then draws at most 65 normals (at most
64 sample times) and takes 32 cosines, half the work of 4 panels.  The
coarser rule samples the path more sparsely, which widens the spread of a
realization's value a little: at 3000 realizations on 40 random lags
(``_LAG_MULTIPLES`` of 8 instances from ``default_rng(77)``), the stderr
on 2 panels over that on 4 has median 1.040 and range 0.978-1.192.
"""

def _worker_count(n_jobs: int) -> int:
    """Threads for ``n_jobs`` jobs: at most one per CPU the process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(n_jobs, cpus)


def _run_jobs(jobs: list[Callable[[], None]]) -> None:
    """Run every job once, on :func:`_worker_count` threads.

    Each job draws from its own generator and writes only its own outputs,
    and numpy's generator fills and ufuncs release the GIL, so the jobs run
    in parallel and the outputs do not depend on the thread count.
    """
    workers = _worker_count(len(jobs))
    if workers <= 1:
        for job in jobs:
            job()
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for done in [pool.submit(job) for job in jobs]:
            done.result()


class MonteCarloEstimate(NamedTuple):
    value: float
    stderr: float


def _envelope(lifetime: float, t: np.ndarray) -> np.ndarray:
    """|zeta(t)| = H(t) exp(-t / (2 lifetime)) / sqrt(lifetime) of the exponential packet."""
    # a time beyond ~3.6e308 lifetimes overflows to -inf, and exp gives the exact 0
    with np.errstate(over="ignore"):
        mag = np.where(t >= 0.0, np.exp(-np.maximum(t, 0.0) / (2.0 * lifetime)), 0.0)
    return mag / math.sqrt(lifetime)


def _check_lag(tau: float) -> None:
    """Refuse a lag at which no sample is defined: a nan or infinite ``tau``."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")


def exponential_wave(
    lifetime: float,
    frequency: float = 0.0,
    phase_times: np.ndarray | None = None,
    phase_values: np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """One-sided exponential single-photon wave packet.

    zeta(t) = H(t) exp(-t / (2 lifetime)) / sqrt(lifetime)
              * exp(-i (2 pi frequency t + phi(t)))

    ``phi`` is linearly interpolated from the optional sampled phase
    trajectory and zero without one.  The returned callable is vectorized
    and carries the ``time_scale`` attribute (the lifetime) that
    :func:`quadrature_g2` requires.
    """
    if lifetime <= 0.0:
        raise ValueError("lifetime must be positive")

    def zeta(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        phi = (
            np.interp(t, phase_times, phase_values)
            if phase_times is not None
            else 0.0
        )
        return _envelope(lifetime, t) * np.exp(-1j * (2.0 * math.pi * frequency * t + phi))

    zeta.time_scale = lifetime
    return zeta


def mc_averaged_phase_factor(
    pair: PhotonPair,
    tau: float,
    trials: int = 100_000,
    seed: int = 0,
    gate_phase: float = math.pi,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the averaged interference phase factor.

    Samples 2 cos(2 pi dnu tau + dphi - gate_phase) with dnu Gaussian
    around the pair detuning with the photons' summed frequency variances,
    and dphi = dphi_i - dphi_j the relative phase over |tau|, Gaussian with
    variance 2 (gamma_i + gamma_j) |tau|: two normals per trial (the draw
    order is in the module doc).  The two draws stay separate, as the
    microscopic model has them; the closed form, which sums their
    variances, is :func:`tpi_sim.interference.averaged_phase_factor`.
    """
    jobs, finish = _phase_factor_chunks(pair, tau, trials, seed, gate_phase)
    _run_jobs(jobs)
    return finish()


def _phase_factor_chunks(
    pair: PhotonPair, tau: float, trials: int, seed: int, gate_phase: float
) -> tuple[list[Callable[[], None]], Callable[[], MonteCarloEstimate]]:
    """Set-up of :func:`mc_averaged_phase_factor`: one job and its ``finish``."""
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials for a meaningful estimate")
    _check_lag(tau)
    delta_nu = pair.delta_nu
    sigma_nu = pair.sigma_total
    # phi_i - phi_j over |tau| is one Wiener increment with the summed rates
    rate = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    spread = math.sqrt(2.0 * rate * abs(tau))
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sums: list[float] = []

    def job() -> None:
        # the chunks are short numpy calls, too short to gain from threads of
        # their own, so they run in order in one job; their sums accumulate in
        # chunk order around the first sample, so constant samples (all
        # jitter scales zero) give exactly zero variance
        total = 0.0
        total_sq = 0.0
        for c, child in enumerate(children):
            rng = np.random.default_rng(child)
            n = min(_CHUNK, trials - c * _CHUNK)
            # h = 2 cos(2 pi dnu tau + dphi - gate_phase), formed in place
            h = rng.normal(delta_nu, sigma_nu, n)
            dphi = rng.normal(0.0, spread, n)
            h *= 2.0 * math.pi
            h *= tau
            h += dphi
            h -= gate_phase
            np.cos(h, out=h)
            h *= 2.0
            if c == 0:
                shift = float(h[0])
            h -= shift
            total += float(np.sum(h))
            total_sq += float(np.sum(h * h))
        sums[:] = shift, total, total_sq

    def finish() -> MonteCarloEstimate:
        shift, total, total_sq = sums
        mean_shifted = total / trials
        var = max(total_sq - trials * mean_shifted * mean_shifted, 0.0) / (trials - 1)
        return MonteCarloEstimate(value=shift + mean_shifted, stderr=math.sqrt(var / trials))

    return [job], finish


def _integrate_pieces(f: Callable[[np.ndarray], np.ndarray], edges, tol: float) -> float:
    """Sum of the integrals of ``f`` between consecutive ``edges``, each to ``tol``."""
    return sum(numerics.integrate(f, a, b, tol=tol) for a, b in zip(edges, edges[1:]))


def quadrature_p_coinc(
    gate: GateMatrix, i: int, j: int, k: int, l: int, pair: PhotonPair
) -> float:
    """Coincidence probability by direct integration of the correlation trace.

    Independent check of the Faddeeva-function route taken by
    :func:`tpi_sim.interference.coincidence_probability`: integrates the
    closed-form G2(tau) over all lags, truncated at 40 times the slowest
    lifetime on each side and cut at tau = 0, each side to 5e-10 absolute.
    """
    quad = gate_quad(gate, i, j, k, l)

    def integrand(tau: np.ndarray) -> np.ndarray:
        return _baseline(quad, pair, tau) + _interference_term(quad, pair, tau)

    span = 40.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
    return _integrate_pieces(integrand, (-span, 0.0, span), 0.5e-9)


def quadrature_g2(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    zeta_i: Callable[[np.ndarray], np.ndarray],
    zeta_j: Callable[[np.ndarray], np.ndarray],
    tau: float,
) -> float:
    """Cross-correlation at one lag by adaptive integration over t0.

    Works for any pair of wave-packet callables that switch on at t = 0 (a
    fixed jitter realization or a deterministic packet).  Each must carry a
    ``time_scale`` attribute in s, as :func:`exponential_wave`'s do, and its
    norm, |zeta|^2 integrated over [-10, 80] time scales, must be 1 to 1e-8.
    Each integral is cut at the jumps, t = 0 for a norm and t0 = 0 and
    t0 = -tau for the window, so no jump lies inside a panel, where no node
    might sample it.  The window (10 joint time scales before -|tau| to 40
    after |tau|) is integrated to 1e-8 / (ts_i + ts_j) absolute.
    """
    for name, zeta in (("zeta_i", zeta_i), ("zeta_j", zeta_j)):
        if not hasattr(zeta, "time_scale"):
            raise ValueError(f"wave packet {name} has no 'time_scale' attribute")
        edges = (-10.0 * zeta.time_scale, 0.0, 80.0 * zeta.time_scale)
        norm = _integrate_pieces(lambda t: np.abs(zeta(t)) ** 2, edges, 1e-10)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"wave packet {name} is not normalized: integral = {norm!r}")
    ts_i, ts_j = float(zeta_i.time_scale), float(zeta_j.time_scale)
    joint_scale = 1.0 / (1.0 / ts_i + 1.0 / ts_j)

    def integrand(t0: np.ndarray) -> np.ndarray:
        return joint_detection_probability(gate, i, j, k, l, zeta_i, zeta_j, t0, tau)

    lo = -abs(tau) - 10.0 * joint_scale
    hi = abs(tau) + 40.0 * joint_scale
    edges = sorted({lo, min(0.0, -tau), max(0.0, -tau), hi})
    return _integrate_pieces(integrand, edges, 1e-8 / (ts_i + ts_j))


def _gauss_legendre_nodes(lo: float, hi: float, panels: int):
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halves = 0.5 * np.diff(edges)[:, None]
    return (mids + halves * x).ravel(), (halves * w).ravel()


def mc_g2_estimate(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    pair: PhotonPair,
    tau: float,
    realizations: int = 2000,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Monte-Carlo cross-correlation at one lag from the microscopic model.

    Each realization integrates the joint detection probability
    |ca A + cb B|^2 over t0 on a fixed composite Gauss-Legendre rule
    (``_PANELS`` = 2 panels of 16 nodes over 40 t_plus), with
    ca = U_li U_kj, cb = U_lj U_ki, A = zeta_i(t0+tau) zeta_j(t0) and
    B = zeta_j(t0+tau) zeta_i(t0).  With the envelopes Ea = |A| and
    Eb = |B| the density is, in real arithmetic,

        |ca|^2 Ea^2 + |cb|^2 Eb^2 + 2 |ca cb*| Ea Eb cos(D - arg(ca cb*)),
        D = 2 pi (f_i - f_j) tau + [dphi(t0+tau) - dphi(t0)],

    with dphi = phi_i - phi_j.  It depends on the jitter only through the
    relative frequency f_i - f_j, Gaussian around d_i - d_j with variance
    sigma_i^2 + sigma_j^2, and the relative phase dphi, a Wiener path with
    increment variance 2 (gamma_i + gamma_j) dt.  Each realization draws
    those two alone (T + 1 normals; the draw order is in the module doc).
    The path is sampled exactly at every evaluation time (quadrature nodes
    and their tau-shifted copies), so the estimate is unbiased with respect
    to the phase model: its expectation is the rule's sum of the
    jitter-averaged density, within about 7e-15 of the closed form (see
    ``_PANELS``).  The density is evaluated for a whole chunk of
    realizations at once and summed over the nodes in node order; the
    chunks run as jobs on :func:`_run_jobs`.
    """
    jobs, finish = _g2_chunks(gate, i, j, k, l, pair, tau, realizations, seed)
    _run_jobs(jobs)
    return finish()


def _g2_chunks(
    gate: GateMatrix,
    i: int,
    j: int,
    k: int,
    l: int,
    pair: PhotonPair,
    tau: float,
    realizations: int,
    seed: int,
) -> tuple[list[Callable[[], None]], Callable[[], MonteCarloEstimate]]:
    """Set-up of :func:`mc_g2_estimate`, on the calling thread: ``(jobs, finish)``.

    ``jobs[c]()`` fills chunk c of the realization values from its own child
    stream, calling only numpy and private helpers, so the jobs may run on
    any threads in any order; ``finish()`` reduces the values once all ran.
    """
    if realizations < _MIN_REALIZATIONS:
        raise ValueError(f"need at least {_MIN_REALIZATIONS} realizations")
    if i == j or k == l:
        raise ValueError("input modes and output modes must each be distinct")
    for mode in (i, j, k, l):
        gate._check_mode(mode)
    _check_lag(tau)
    u = gate.matrix
    ca = u[l - 1, i - 1] * u[k - 1, j - 1]
    cb = u[l - 1, j - 1] * u[k - 1, i - 1]
    cross = ca * np.conj(cb)

    lo = max(0.0, -tau)
    width = 40.0 * pair.t_plus
    t0, weights = _gauss_legendre_nodes(lo, lo + width, _PANELS)
    late = t0 + tau
    # the sorted distinct times, as np.unique finds them (which would import numpy.ma)
    times = np.sort(np.concatenate([t0, late]))
    times = times[np.concatenate(([True], times[1:] != times[:-1]))]
    at_early = np.searchsorted(times, t0)
    at_late = np.searchsorted(times, late)
    lifetime_i, lifetime_j = pair.emitter_i.lifetime, pair.emitter_j.lifetime
    env_a = _envelope(lifetime_i, late) * _envelope(lifetime_j, t0)
    env_b = _envelope(lifetime_j, late) * _envelope(lifetime_i, t0)
    direct = weights * (abs(ca) ** 2 * env_a**2 + abs(cb) ** 2 * env_b**2)
    beat = weights * (2.0 * abs(cross) * env_a * env_b)
    beat_phase = float(np.angle(cross))
    two_pi_tau = 2.0 * math.pi * tau
    # f_i - f_j is Gaussian with the summed variances, and phi_i - phi_j is
    # a Wiener path with the summed dephasing rates
    delta_nu, sigma_nu = pair.delta_nu, pair.sigma_total
    rate = pair.emitter_i.dephasing_rate + pair.emitter_j.dephasing_rate
    increment = np.sqrt(2.0 * rate * np.diff(times, prepend=times[0]))

    values = np.empty(realizations)
    n_chunks = (realizations + _REALIZATION_CHUNK - 1) // _REALIZATION_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)

    def evaluate_chunk(c: int) -> None:
        start = c * _REALIZATION_CHUNK
        end = min(start + _REALIZATION_CHUNK, realizations)
        z = np.random.default_rng(children[c]).standard_normal((end - start, len(times) + 1))
        frequency = delta_nu + sigma_nu * z[:, 0]
        # scaled and summed in place: the difference path is a view of z
        path = z[:, 1:]
        path *= increment
        np.cumsum(path, axis=1, out=path)
        # take, unlike a fancy index, lets the other chunk threads run;
        # D and then the density are formed in place in one array
        delta = path.take(at_late, axis=1)
        delta -= path.take(at_early, axis=1)
        delta += two_pi_tau * frequency[:, None]
        delta -= beat_phase
        density = np.cos(delta, out=delta)
        density *= beat
        density += direct
        # a running sum adds the nodes in node order for any memory layout;
        # np.sum adds a contiguous row pairwise
        values[start:end] = np.cumsum(density, axis=1)[:, -1]

    def finish() -> MonteCarloEstimate:
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(realizations))
        return MonteCarloEstimate(value=mean, stderr=stderr)

    return [partial(evaluate_chunk, c) for c in range(n_chunks)], finish


# ---------------------------------------------------------------------------
# Bundled verification suite (used by the CLI `verify` subcommand and by the
# acceptance tests).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    observed: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: list[VerificationCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary by Mezzadri's QR recipe (Notices AMS 54, 592 (2007)),
    with the draws and arithmetic of ``scipy.stats.unitary_group.rvs(dim,
    random_state=seed)``, so both give the same matrix."""
    normal = np.random.RandomState(seed).normal
    z = 1 / math.sqrt(2) * (normal(size=(dim, dim)) + 1j * normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[np.newaxis, :]
    return q


def _random_instance(rng: np.random.Generator):
    """Random (gate, modes, pair) instance for the equivalence sweeps."""
    dim = int(rng.integers(2, 7))
    u = _haar_unitary(dim, int(rng.integers(2**31 - 1)))
    i, j = (int(m) + 1 for m in rng.choice(dim, 2, replace=False))
    k, l = (int(m) + 1 for m in rng.choice(dim, 2, replace=False))
    emitters = [
        EmitterParams(
            lifetime=float(rng.uniform(0.1e-9, 2e-9)),
            dephasing_rate=float(rng.uniform(0.0, 3e9)),
            inhomogeneous_fwhm=float(rng.uniform(0.0, 3e9)),
            detuning=float(rng.uniform(-3e9, 3e9)) if m else 0.0,
        )
        for m in (1, 0)
    ]
    return GateMatrix(u), i, j, k, l, PhotonPair(*emitters)


def _monte_carlo_check(name: str, results: list) -> VerificationCheck:
    """3-sigma check of (Monte-Carlo estimate, closed form, scale) triples.

    ``scale`` is the size of the terms the value is summed from (the
    distinguishable baseline of a correlation trace, 1 for a phase factor).
    A stderr of at most 1e-12 of the larger of value and scale is rounding
    noise (a lag of 0, or no jitter at all), so such points are held to
    1e-9 of the larger of closed form and scale instead, and the name counts
    them; ``observed`` is the worst z of the rest.  The scale matters where
    the true value is 0 and both sides are rounding noise of the terms.
    """
    worst_z = 0.0
    exact = []
    for est, closed, scale in results:
        if est.stderr <= 1e-12 * max(abs(est.value), scale):
            exact.append(abs(est.value - closed) <= 1e-9 * max(abs(closed), scale))
        else:
            worst_z = max(worst_z, abs(est.value - closed) / est.stderr)
    if exact:
        name += f"; {len(exact)} zero-variance points to 1e-9 relative"
    return VerificationCheck(
        name=name, observed=worst_z, bound=3.0, passed=bool(worst_z <= 3.0 and all(exact))
    )


def run_verification(
    seed: int = 2024,
    closed_form_instances: int = 100,
    mc_instances: int = 10,
    mc_realizations: int = 3000,
    phase_trials: int = 100_000,
) -> VerificationReport:
    """Run the oracle-vs-analytic equivalence suite and report per check.

    Covers: closed-form coincidence probability against lag quadrature on
    randomized gates and pairs (bound 1e-6 absolute), the correlation
    trace against the Monte-Carlo microscopic model at the
    ``_LAG_MULTIPLES`` lags of each instance (3 standard errors), and the
    averaged phase factor against its sampled estimate in ``_PHASE_CASES``
    cases (3 standard errors, see :func:`_monte_carlo_check`).
    """
    rng = np.random.default_rng(seed)
    # every draw from rng comes first, in the suite's order: the quadrature
    # instances, the Monte-Carlo instances with their lag seeds, the
    # phase-factor cases
    quadrature_cases = [_random_instance(rng) for _ in range(closed_form_instances)]
    lag_cases = []
    for _ in range(mc_instances):
        gate, i, j, k, l, pair = _random_instance(rng)
        slowest = max(pair.emitter_i.lifetime, pair.emitter_j.lifetime)
        for mult in _LAG_MULTIPLES:
            lag_cases.append((gate, i, j, k, l, pair, mult * slowest, int(rng.integers(2**62))))
    phase_cases = []
    for _ in range(_PHASE_CASES):
        _, _, _, _, _, pair = _random_instance(rng)
        tau = float(rng.uniform(-0.5e-9, 0.5e-9))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        phase_cases.append((pair, tau, phase_trials, int(rng.integers(2**62)), phase))

    # the public closed forms and quadratures run on this thread before the
    # pool starts, so they never compete with its threads for the GIL
    worst = max(
        (abs(coincidence_probability(*c) - quadrature_p_coinc(*c)) for c in quadrature_cases),
        default=0.0,
    )
    closed_form_check = VerificationCheck(
        name=f"coincidence closed form vs quadrature ({closed_form_instances} instances)",
        observed=worst,
        bound=1e-6,
        passed=bool(worst <= 1e-6),
    )
    pair_far = PhotonPair(
        EmitterParams(lifetime=0.7e-9, inhomogeneous_fwhm=1e15),
        EmitterParams(lifetime=0.65e-9, inhomogeneous_fwhm=1e15),
    )
    p0 = quadrature_p_coinc(beam_splitter(0.5), 1, 2, 1, 2, pair_far)
    limit_check = VerificationCheck(
        name="distinguishable-limit coincidence at a symmetric splitter",
        observed=abs(p0 - 0.5),
        bound=1e-4,
        passed=bool(abs(p0 - 0.5) <= 1e-4),
    )

    # every Monte-Carlo job of the run goes to one pool, whose threads run
    # private code and numpy only
    jobs: list[Callable[[], None]] = []
    lag_finishes, phase_finishes = [], []
    for *instance, tau, lag_seed in lag_cases:
        case_jobs, finish = _g2_chunks(*instance, tau, mc_realizations, lag_seed)
        jobs += case_jobs
        lag_finishes.append(finish)
    for case in phase_cases:
        case_jobs, finish = _phase_factor_chunks(*case)
        jobs += case_jobs
        phase_finishes.append(finish)
    _run_jobs(jobs)

    results = []
    for (gate, i, j, k, l, pair, tau, _), finish in zip(lag_cases, lag_finishes):
        trace = g2_trace(gate, i, j, k, l, pair, tau_grid=[tau - 1.0, tau, tau + 1.0])
        results.append((finish(), float(trace.g2_values[1]), float(trace.g2_distinguishable[1])))
    trace_check = _monte_carlo_check(
        f"correlation trace vs Monte-Carlo model "
        f"({mc_instances} instances x {len(_LAG_MULTIPLES)} lags)",
        results,
    )
    results = [
        (finish(), averaged_phase_factor(pair, tau, phase), 1.0)
        for (pair, tau, _, _, phase), finish in zip(phase_cases, phase_finishes)
    ]
    phase_check = _monte_carlo_check(
        f"averaged phase factor vs Monte-Carlo sampling ({_PHASE_CASES} cases)", results
    )
    checks = [closed_form_check, trace_check, phase_check, limit_check]
    return VerificationReport(seed=seed, checks=checks)
