"""Command-line front end.

Subcommands (all driven by a JSON config file):

* ``g2``        -- correlation trace G2(tau) for an emitter pair
* ``tuning``    -- HOM visibility versus relative detuning
* ``vmap``      -- visibility over normalized-linewidth grids
* ``fmap``      -- Bell-state fidelity over normalized-linewidth grids
* ``decompose`` -- dephasing/inhomogeneous splits matching a coherence
                   time or a total linewidth
* ``assess``    -- achievable visibility/fidelity ranges for partially
                   known emitters
* ``verify``    -- run the Monte-Carlo / quadrature oracle suite

Units at this boundary follow common lab usage: lifetimes and coherence
times in ps, linewidths and rates in MHz, detuning scans in GHz.  Field
names carry their unit suffix.  Everything is converted to SI on entry.

Outputs are deterministic: identical config and seed give byte-identical
files.  CSV uses '.' decimals and embeds the parsed config in a
``# config = {...}`` comment; JSON output carries the same config object.
Floats are emitted with 17 significant digits in both formats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .bell import EmitterConstraint, emitter_assessment, fidelity_map
from .emitter import EmitterParams, PhotonPair, normalized_params
from .gates import beam_splitter
from .interference import g2_trace, tuning_curve, visibility_map
from .oracle import run_verification

PS = 1e-12
MHZ = 1e6
GHZ = 1e9


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration in canonical (defaults-filled) form."""

    command: str
    params: dict
    out: str | None
    fmt: str
    seed: int


# --------------------------------------------------------------------------
# Deterministic serialization (floats at 17 significant digits).
# --------------------------------------------------------------------------


def format_float(x: float) -> str:
    if isinstance(x, float) and math.isfinite(x):
        return format(x, ".17g")
    return repr(x)


def dumps(obj: Any) -> str:
    """JSON text with deterministic key order and 17-digit floats."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(config: RunConfig, columns: list[str], rows: list[list], stream) -> None:
    if config.fmt == "json":
        payload = {
            "command": config.command,
            "config": config.params,
            "seed": config.seed,
            "columns": columns,
            "rows": rows,
        }
        stream.write(dumps(payload) + "\n")
        return
    stream.write(f"# command = {config.command}\n")
    stream.write(f"# config = {dumps(config.params)}\n")
    stream.write(f"# seed = {config.seed}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
        stream.write("\n")


def _write_output(config: RunConfig, columns: list[str], rows: list[list]) -> None:
    if config.out is None:
        _emit(config, columns, rows, sys.stdout)
        return
    path = Path(config.out)
    with path.open("w", newline="") as fh:
        _emit(config, columns, rows, fh)


# --------------------------------------------------------------------------
# Config parsing helpers.
# --------------------------------------------------------------------------


def _need(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} has the wrong type")
    return value


def _field_name(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _number(obj: dict, key: str, where: str = "", default: float | None = None) -> float:
    """Finite number at ``obj[key]`` (``default`` when absent), as a float.

    ``where`` is the path of ``obj`` in the config, for error messages.
    JSON true and false parse as bool, a subtype of int, and are refused.
    """
    name = _field_name(where, key)
    if key not in obj:
        if default is None:
            raise ConfigError(f"config is missing required field {name!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"config field {name!r} must be finite, not {value!r}")
    return value


# The model squares rates and widths in Hz and inverts times in s; keeping
# every nonzero physical input within this magnitude range in SI units keeps
# those squares and inverses finite and nonzero.
_SI_MAGNITUDE = (1e-150, 1e150)


def _quantity(
    obj: dict, key: str, where: str, si_scale: float, default: float | None = None
) -> float:
    """A physical field in its config unit, range-checked in SI units."""
    value = _number(obj, key, where, default)
    low, high = _SI_MAGNITUDE
    if value != 0.0 and not low <= abs(value * si_scale) <= high:
        raise ConfigError(
            f"config field {_field_name(where, key)!r} = {value!r} is out of range: "
            f"converted to s or Hz, a nonzero value must have a magnitude in [{low:g}, {high:g}]"
        )
    return value


def _integer(obj: dict, key: str, minimum: int, where: str = "", default: int | None = None) -> int:
    """Integer at ``obj[key]`` (``default`` when absent), at least ``minimum``."""
    name = _field_name(where, key)
    if key not in obj and default is None:
        raise ConfigError(f"config is missing required field {name!r}")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"config field {name!r} must be an integer >= {minimum}, not {value!r}")
    return value


def _parse_emitter(obj: dict, where: str) -> tuple[EmitterParams, dict]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    scales = {
        "lifetime_ps": PS,
        "dephasing_rate_mhz": MHZ,
        "inhomogeneous_fwhm_mhz": MHZ,
        "detuning_mhz": MHZ,
    }
    unknown = set(obj) - set(scales)
    if unknown:
        raise ConfigError(f"unknown emitter fields: {sorted(unknown)}")
    canonical = {
        key: _quantity(obj, key, where, scale, None if key == "lifetime_ps" else 0.0)
        for key, scale in scales.items()
    }
    try:
        emitter = EmitterParams(
            lifetime=canonical["lifetime_ps"] * PS,
            dephasing_rate=canonical["dephasing_rate_mhz"] * MHZ,
            inhomogeneous_fwhm=canonical["inhomogeneous_fwhm_mhz"] * MHZ,
            detuning=canonical["detuning_mhz"] * MHZ,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid emitter: {exc}") from exc
    return emitter, canonical


def _parse_pair(cfg: dict) -> tuple[PhotonPair, list[dict]]:
    raw = _need(cfg, "emitters", list)
    if len(raw) != 2:
        raise ConfigError("field 'emitters' must list exactly two emitters")
    parsed = [_parse_emitter(e, f"emitters[{n}]") for n, e in enumerate(raw)]
    return PhotonPair(parsed[0][0], parsed[1][0]), [p[1] for p in parsed]


def _parse_grid(cfg: dict, key: str, min_allowed: float = -math.inf) -> tuple[np.ndarray, dict]:
    grid_cfg = _need(cfg, key, dict)
    lo = _number(grid_cfg, "min", key)
    hi = _number(grid_cfg, "max", key)
    n = _integer(grid_cfg, "n", 1, key)
    spacing = grid_cfg.get("spacing", "linear")
    if hi < lo:
        raise ConfigError(f"grid {key!r} has an invalid range [{lo}, {hi}]")
    if lo < min_allowed:
        raise ConfigError(f"grid {key!r} must not go below {min_allowed}")
    if spacing == "linear":
        grid = np.linspace(lo, hi, n)
    elif spacing == "log":
        if lo <= 0.0:
            raise ConfigError(f"log-spaced grid {key!r} needs min > 0")
        grid = np.geomspace(lo, hi, n)
    else:
        raise ConfigError(f"grid {key!r} has unknown spacing {spacing!r}")
    canonical = {"min": lo, "max": hi, "n": n, "spacing": spacing}
    return grid, canonical


def _parse_constraint(obj: dict, where: str) -> tuple[EmitterConstraint, dict]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    scales = {
        "lifetime_ps": PS,
        "coherence_time_ps": PS,
        "total_fwhm_mhz": MHZ,
        "lorentzian_fwhm_mhz": MHZ,
        "lorentzian_fwhm_max_mhz": MHZ,
        "gaussian_fwhm_mhz": MHZ,
    }
    unknown = set(obj) - set(scales)
    if unknown:
        raise ConfigError(f"unknown constraint fields: {sorted(unknown)}")
    if "lifetime_ps" not in obj:
        raise ConfigError(f"config is missing required field {where + '.lifetime_ps'!r}")
    canonical = {k: _quantity(obj, k, where, scale) for k, scale in scales.items() if k in obj}

    def get(key: str):
        return canonical[key] * scales[key] if key in canonical else None

    try:
        constraint = EmitterConstraint(
            lifetime=get("lifetime_ps"),
            coherence_time=get("coherence_time_ps"),
            total_fwhm=get("total_fwhm_mhz"),
            lorentzian_fwhm=get("lorentzian_fwhm_mhz"),
            lorentzian_fwhm_max=get("lorentzian_fwhm_max_mhz"),
            gaussian_fwhm=get("gaussian_fwhm_mhz"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid constraint: {exc}") from exc
    return constraint, canonical


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def cmd_g2(config: RunConfig) -> int:
    cfg = config.params
    pair, _ = _parse_pair(cfg)
    n_tau = _integer(cfg, "n_tau", 2, default=4001)
    default_span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime) / PS
    tau_max_ps = _number(cfg, "tau_max_ps", default=default_span)
    if not tau_max_ps > 0.0:
        raise ConfigError("config field 'tau_max_ps' must be positive")
    cfg_canonical = dict(cfg)
    cfg_canonical.update(n_tau=n_tau, tau_max_ps=tau_max_ps)
    config = RunConfig(config.command, cfg_canonical, config.out, config.fmt, config.seed)

    grid = np.linspace(-tau_max_ps * PS, tau_max_ps * PS, n_tau)
    trace = g2_trace(beam_splitter(0.5), 1, 2, 1, 2, pair, grid)
    rows = [
        [float(t / PS), float(g), float(g0)]
        for t, g, g0 in zip(trace.tau_grid, trace.g2_values, trace.g2_distinguishable)
    ]
    _write_output(config, ["tau_ps", "g2", "g2_classical"], rows)
    return 0


def cmd_tuning(config: RunConfig) -> int:
    cfg = config.params
    pair, _ = _parse_pair(cfg)
    grid, canonical = _parse_grid(cfg, "detuning_ghz")
    cfg_canonical = dict(cfg)
    cfg_canonical["detuning_ghz"] = canonical
    config = RunConfig(config.command, cfg_canonical, config.out, config.fmt, config.seed)
    rows = []
    for dnu, res in zip(grid, tuning_curve(pair, grid * GHZ)):
        rows.append([float(dnu), res.visibility, res.p_coinc, res.p_coinc_classical])
    _write_output(
        config, ["delta_nu_ghz", "visibility", "p_coinc", "p_coinc_classical"], rows
    )
    return 0


def _cmd_map(config: RunConfig, value_name: str, evaluate) -> int:
    cfg = config.params
    pd_grid, pd_c = _parse_grid(cfg, "theta_pd", min_allowed=1.0)
    sd_grid, sd_c = _parse_grid(cfg, "theta_sd", min_allowed=0.0)
    cfg_canonical = dict(cfg)
    cfg_canonical.update(theta_pd=pd_c, theta_sd=sd_c)
    config = RunConfig(config.command, cfg_canonical, config.out, config.fmt, config.seed)
    matrix = evaluate(pd_grid, sd_grid)
    rows = [
        [float(pd), float(sd), float(matrix[a, b])]
        for a, pd in enumerate(pd_grid)
        for b, sd in enumerate(sd_grid)
    ]
    _write_output(config, ["theta_pd", "theta_sd", value_name], rows)
    return 0


def cmd_vmap(config: RunConfig) -> int:
    return _cmd_map(config, "visibility", visibility_map)


def cmd_fmap(config: RunConfig) -> int:
    return _cmd_map(config, "fidelity", fidelity_map)


def cmd_decompose(config: RunConfig) -> int:
    cfg = config.params
    constraint, canonical = _parse_constraint(cfg.get("constraint", {}), "constraint")
    n_points = _integer(cfg, "n_points", 1, default=200)
    cfg_canonical = {"constraint": canonical, "n_points": n_points}
    config = RunConfig(config.command, cfg_canonical, config.out, config.fmt, config.seed)
    lifetime = constraint.lifetime
    rows = []
    for rate, fwhm in constraint.decomposition(n_points):
        emitter = EmitterParams(lifetime, max(rate, 0.0), fwhm)
        norm = normalized_params(emitter)
        rows.append(
            [rate / MHZ, fwhm / MHZ, norm.theta_pd, norm.theta_sd, norm.x_c]
        )
    _write_output(
        config,
        ["dephasing_rate_mhz", "inhomogeneous_fwhm_mhz", "theta_pd", "theta_sd", "x_c"],
        rows,
    )
    return 0


def cmd_assess(config: RunConfig) -> int:
    cfg = config.params
    sources = _need(cfg, "sources", list)
    if not sources:
        raise ConfigError("field 'sources' must list at least one entry")
    n_points = _integer(cfg, "n_points", 1, default=200)
    canonical_sources = []
    rows = []
    for n, entry in enumerate(sources):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("each source needs at least a 'name'")
        name = str(entry["name"])
        constraint, c_main = _parse_constraint(
            {k: v for k, v in entry.items() if k not in ("name", "second")}, f"sources[{n}]"
        )
        second = None
        c_second = None
        if "second" in entry:
            second, c_second = _parse_constraint(entry["second"], f"sources[{n}].second")
        result = emitter_assessment(constraint, second, n_points)
        canonical = {"name": name, **c_main}
        if c_second is not None:
            canonical["second"] = c_second
        canonical_sources.append(canonical)
        rows.append(
            [
                name,
                result.visibility_range[0],
                result.visibility_range[1],
                result.fidelity_range[0],
                result.fidelity_range[1],
            ]
        )
    config = RunConfig(
        config.command,
        {"sources": canonical_sources, "n_points": n_points},
        config.out,
        config.fmt,
        config.seed,
    )
    _write_output(config, ["name", "v_min", "v_max", "f_min", "f_max"], rows)
    return 0


def cmd_verify(config: RunConfig) -> int:
    cfg = config.params
    defaults = {
        "closed_form_instances": 100,
        "mc_instances": 10,
        "mc_realizations": 3000,
        "phase_trials": 100_000,
    }
    sizes = {key: _integer(cfg, key, 1, default=default) for key, default in defaults.items()}
    config = RunConfig(config.command, dict(sizes), config.out, config.fmt, config.seed)
    report = run_verification(seed=config.seed, **sizes)
    rows = [[c.name, c.observed, c.bound, c.passed] for c in report.checks]
    _write_output(config, ["check", "observed", "bound", "passed"], rows)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: observed {format_float(check.observed)} "
              f"(bound {format_float(check.bound)})", file=sys.stderr)
    return 0 if report.all_passed else 1


_COMMANDS = {
    "g2": cmd_g2,
    "tuning": cmd_tuning,
    "vmap": cmd_vmap,
    "fmap": cmd_fmap,
    "decompose": cmd_decompose,
    "assess": cmd_assess,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpi-sim",
        description="Two-photon interference statistics for remote emitters "
        "at linear optical gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        print(f"error: config field 'seed' must be an integer, not {seed!r}", file=sys.stderr)
        return 1
    params = {k: v for k, v in raw.items() if k != "seed"}
    config = RunConfig(
        command=args.command, params=params, out=args.out, fmt=args.format, seed=seed
    )
    try:
        return _COMMANDS[args.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
