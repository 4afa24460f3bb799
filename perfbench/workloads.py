"""Seeded workload generators for the tpi-sim benchmark.

Each generator turns the benchmark seed into the JSON configs that the
program receives and into the ``cli.main`` argument lists that use them.
Only values vary with the seed; the kinds of inputs and the amount of work
stay fixed, so runs on different seeds stay comparable.  Generation uses
``random.Random`` so the same seed gives byte-identical configs on every
Python 3 interpreter.

A workload is a dict with:

* ``configs`` -- file name -> config object, written next to the outputs,
* ``sequence`` -- the timed sequence, a list of calls,
* ``checks`` -- calls made once per run only to check outputs (not timed),
* ``setup`` -- tiny calls of each subcommand the workload uses, run in a
  fresh interpreter to time set-up.

A call is ``{"argv": [...], "out": <output file name>, "kind": <check>}``;
``argv`` names files relative to the run's work directory.  An ``assess``
call also names, under ``splits``, the ``decompose`` outputs of its source's
constraints, from which its visibility range is checked.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("assess", "maps", "oracle")

MAP_N = 300  # grid points per axis for vmap and fmap
ASSESS_POINTS = 200  # n_points of the assess workload, as in the shipped config


def fourier_fwhm_mhz(lifetime_ps: float) -> float:
    """Fourier-limited Lorentzian FWHM 1 / (2 pi tau_r), in MHz."""
    return 1e6 / (2.0 * math.pi * lifetime_ps)


def _sig(x: float, digits: int = 6) -> float:
    """Round to ``digits`` significant digits so configs stay readable."""
    return float(f"{x:.{digits}g}")


def _coherence(rng: random.Random, lo_ps: float, hi_ps: float) -> dict:
    lifetime = _sig(rng.uniform(lo_ps, hi_ps))
    # coherence time as a share of the Fourier limit 2 tau_r, kept well
    # inside (0, 1) so every split family is a full curve
    tau_c = _sig(2.0 * lifetime * rng.uniform(0.2, 0.9))
    return {"lifetime_ps": lifetime, "coherence_time_ps": tau_c}


def _call(command: str, config: str, out: str, kind: str, fmt: str = "csv") -> dict:
    argv = [command, "--config", config, "--out", out]
    if fmt != "csv":
        argv += ["--format", fmt]
    return {"argv": argv, "out": out, "kind": kind}


def assess_workload(seed: int) -> dict:
    """The constraint mix of configs/assess_benchmarks.json with seeded values.

    Three remote pairs given by coherence time, three total-FWHM (Voigt)
    sources, one bounded-Lorentzian source and one known-split source.
    """
    rng = random.Random(f"assess-{seed}")
    sources = []
    for n in range(3):
        first = _coherence(rng, 150.0, 700.0)
        first["second"] = _coherence(rng, 150.0, 700.0)
        sources.append({"name": f"pair_{n}", **first})
    for n in range(3):
        lifetime = _sig(math.exp(rng.uniform(math.log(400.0), math.log(10000.0))))
        total = _sig(fourier_fwhm_mhz(lifetime) * rng.uniform(1.1, 2.0))
        sources.append({"name": f"voigt_{n}", "lifetime_ps": lifetime, "total_fwhm_mhz": total})
    lifetime = _sig(rng.uniform(5000.0, 15000.0))
    sources.append({
        "name": "bounded_0",
        "lifetime_ps": lifetime,
        "lorentzian_fwhm_max_mhz": _sig(fourier_fwhm_mhz(lifetime) * rng.uniform(1.2, 3.0)),
        "gaussian_fwhm_mhz": _sig(rng.uniform(20.0, 200.0)),
    })
    lifetime = _sig(rng.uniform(300.0, 800.0))
    sources.append({
        "name": "known_0",
        "lifetime_ps": lifetime,
        "lorentzian_fwhm_mhz": _sig(fourier_fwhm_mhz(lifetime) * rng.uniform(1.05, 2.0)),
        "gaussian_fwhm_mhz": _sig(rng.uniform(100.0, 800.0)),
    })
    # one assess call per source, so that each timed call is short
    configs = {}
    sequence = []
    checks = []
    for src in sources:
        # assess does not print its splits; decompose of the same constraint
        # at the same n_points runs the same decomposition and prints them
        splits = []
        for part, constraint in (("", src), ("_second", src.get("second"))):
            if constraint is None:
                continue
            name = f"decompose_{src['name']}{part}"
            constraint = {k: v for k, v in constraint.items() if k not in ("name", "second")}
            configs[f"{name}.json"] = {"constraint": constraint, "n_points": ASSESS_POINTS}
            kind = "voigt_splits" if "total_fwhm_mhz" in constraint else "splits"
            checks.append(_call("decompose", f"{name}.json", f"{name}.csv", kind))
            splits.append(f"{name}.csv")
        name = f"assess_{src['name']}"
        configs[f"{name}.json"] = {"n_points": ASSESS_POINTS, "sources": [src]}
        sequence.append({**_call("assess", f"{name}.json", f"{name}.csv", "assess"), "splits": splits})
    tiny = {
        "n_points": 3,
        "sources": [
            {"name": "pair", "lifetime_ps": 600.0, "coherence_time_ps": 500.0,
             "second": {"lifetime_ps": 500.0, "coherence_time_ps": 400.0}},
            {"name": "voigt", "lifetime_ps": 1720.0, "total_fwhm_mhz": 119.0},
        ],
    }
    configs["setup_assess.json"] = tiny
    configs["setup_decompose.json"] = {
        "constraint": {"lifetime_ps": 1720.0, "total_fwhm_mhz": 119.0}, "n_points": 3,
    }
    return {
        "configs": configs,
        "sequence": sequence,
        "checks": checks,
        "setup": [
            _call("assess", "setup_assess.json", "setup_assess.csv", "none"),
            _call("decompose", "setup_decompose.json", "setup_decompose.csv", "none"),
        ],
    }


def _grid(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float], n: int) -> dict:
    return {
        "min": _sig(rng.uniform(*lo)),
        "max": _sig(rng.uniform(*hi)),
        "n": n,
        "spacing": "log",
    }


def _emitter(rng: random.Random, detuned: bool) -> dict:
    out = {
        "lifetime_ps": _sig(rng.uniform(300.0, 1000.0)),
        "dephasing_rate_mhz": _sig(rng.uniform(0.0, 1000.0)),
        "inhomogeneous_fwhm_mhz": _sig(rng.uniform(0.0, 2000.0)),
    }
    if detuned:
        out["detuning_mhz"] = _sig(rng.uniform(-4000.0, 4000.0))
    return out


def maps_workload(seed: int) -> dict:
    """Large vmap and fmap grids, a g2 trace and a tuning curve, as CSV and JSON."""
    rng = random.Random(f"maps-{seed}")
    configs = {}
    for name in ("vmap", "fmap"):
        configs[f"{name}.json"] = {
            "theta_pd": _grid(rng, (1.0, 1.5), (50.0, 150.0), MAP_N),
            "theta_sd": _grid(rng, (0.005, 0.02), (5.0, 15.0), MAP_N),
        }
    configs["g2.json"] = {
        "emitters": [_emitter(rng, True), _emitter(rng, False)],
        "tau_max_ps": _sig(rng.uniform(2000.0, 5000.0)),
        "n_tau": 4001,
    }
    span = _sig(rng.uniform(2.0, 6.0))
    configs["tuning.json"] = {
        "emitters": [_emitter(rng, False), _emitter(rng, False)],
        "detuning_ghz": {"min": -span, "max": span, "n": 401},
    }
    sequence = []
    for command in ("vmap", "fmap", "g2", "tuning"):
        for fmt in ("csv", "json"):
            sequence.append(_call(command, f"{command}.json", f"{command}.out.{fmt}", command, fmt))
    configs["setup_vmap.json"] = {
        "theta_pd": {"min": 1.0, "max": 10.0, "n": 2, "spacing": "log"},
        "theta_sd": {"min": 0.1, "max": 1.0, "n": 2, "spacing": "log"},
    }
    configs["setup_g2.json"] = {
        "emitters": [{"lifetime_ps": 700.0}, {"lifetime_ps": 650.0}],
        "tau_max_ps": 1000.0,
        "n_tau": 3,
    }
    configs["setup_tuning.json"] = {
        "emitters": [{"lifetime_ps": 700.0}, {"lifetime_ps": 650.0}],
        "detuning_ghz": {"min": -1.0, "max": 1.0, "n": 3},
    }
    setup = [
        _call("vmap", "setup_vmap.json", "setup_vmap.csv", "none"),
        _call("fmap", "setup_vmap.json", "setup_fmap.csv", "none"),
        _call("g2", "setup_g2.json", "setup_g2.csv", "none"),
        _call("tuning", "setup_tuning.json", "setup_tuning.csv", "none"),
    ]
    return {"configs": configs, "sequence": sequence, "checks": [], "setup": setup}


def oracle_workload(seed: int) -> dict:
    """A verify config with the per-lag sizes of configs/verify.json, one MC instance."""
    configs = {
        "verify.json": {
            "seed": seed,
            "closed_form_instances": 10,
            "mc_instances": 1,
            "mc_realizations": 3000,
            "phase_trials": 100_000,
        },
        "setup_verify.json": {
            "seed": 2024,
            "closed_form_instances": 1,
            "mc_instances": 1,
            "mc_realizations": 200,
            "phase_trials": 10_000,
        },
    }
    return {
        "configs": configs,
        "sequence": [_call("verify", "verify.json", "verify.csv", "verify")],
        "checks": [],
        "setup": [_call("verify", "setup_verify.json", "setup_verify.csv", "none")],
    }


GENERATORS = {"assess": assess_workload, "maps": maps_workload, "oracle": oracle_workload}


def config_bytes(config: dict) -> bytes:
    """Canonical file contents of one generated config."""
    return (json.dumps(config, indent=1, sort_keys=True) + "\n").encode()
