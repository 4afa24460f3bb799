"""Per-layer metrics derived from the traced passes of a run.

Layers are the ``tpi_sim`` modules.  The trace of each traced pass is a
snapshot of :class:`tracer.Tracer`; counts are per pass (one run of the
workload's sequence) and must repeat exactly from pass to pass, times are
medians over the traced passes.  Which end-to-end metric each one should
move, and on which workload, is written down in README.md.
"""

from __future__ import annotations

import statistics

MODULES = ("cli", "emitter", "numerics", "interference", "bell", "gates", "oracle")

# (function, [metrics]) pairs reported as <function>.<metric>
FUNCTIONS = (
    ("emitter.decompose_voigt_fwhm", ("calls", "self_s")),
    ("emitter.decompose_linewidth", ("calls", "self_s")),
    ("numerics.voigt_fwhm", ("calls", "self_s")),
    ("numerics.voigt_value", ("calls", "self_s")),
    ("numerics.faddeeva_w", ("calls", "self_s")),
    ("numerics.integrate", ("calls", "self_s")),
    ("interference.interference_weight", ("calls", "self_s")),
    ("interference.coincidence_probability", ("calls", "self_s")),
    ("interference.hom_visibility", ("calls",)),
    ("interference.visibility_map", ("calls", "self_s")),
    ("interference.tuning_curve", ("self_s",)),
    ("interference.g2_trace", ("self_s",)),
    ("interference.joint_detection_probability", ("calls", "self_s")),
    ("bell.bell_fidelity", ("calls", "self_s")),
    ("bell.fidelity_map", ("self_s",)),
    ("bell.fidelity_at_weight", ("calls",)),
    ("bell.emitter_assessment", ("self_s",)),
    ("gates.gate_quad", ("calls", "self_s")),
    ("gates.compose", ("calls",)),
    ("oracle.run_verification", ("self_s",)),
    ("oracle.mc_g2_estimate", ("calls", "self_s")),
    ("oracle.draw_jitter", ("calls", "self_s")),
    ("oracle.exponential_wave", ("calls",)),
    ("oracle.quadrature_p_coinc", ("calls", "self_s")),
    ("oracle.mc_averaged_phase_factor", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s"}

# Derived metrics: name -> unit.
DERIVED = {
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "emitter.voigt_fwhm_per_point": "count",
    "numerics.voigt_value_per_fwhm": "count",
    "numerics.faddeeva_w.points_per_call": "count",
    "numerics.integrate.evals": "count",
    "bell.coinc_per_fidelity": "count",
    "oracle.realizations": "count",
    "oracle.s_per_realization": "s",
    "oracle.worst_z": "sigma",
    # baseline rows of ROADMAP.md, by name
    "interference.interference_weight.us_per_call": "us",
    "numerics.voigt_fwhm.us_per_call": "us",
    "bell.bell_fidelity.ms_per_call": "ms",
    "trace_overhead": "ratio",
    **{f"layer.{m}.self_s": "s" for m in MODULES},
    **{f"layer.{m}.share": "ratio" for m in MODULES},
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the benchmark prints, with its unit."""
    units = {f"{f}.{m}": UNITS[m] for f, metrics in FUNCTIONS for m in metrics}
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(trace: list[dict], trace_overhead: float, bytes_out: int, worst_z: float) -> dict[str, float]:
    """Per-layer metric values from the traced passes of one run.

    ``trace_overhead`` is traced over untraced ``wall_s``, both corrected
    for machine speed by the caller.
    """
    first = trace[0]
    funcs = first["functions"]
    edges = first["edges"]

    def calls(name: str) -> int:
        return funcs.get(name, {}).get("calls", 0)

    def median(name: str, field: str) -> float:
        return statistics.median(t["functions"].get(name, {}).get(field, 0.0) for t in trace)

    def extra(name: str) -> int:
        return funcs.get(name, {}).get("extra", 0)

    def edge(parent: str, child: str) -> int:
        return edges.get(f"{parent}>{child}", 0)

    values: dict[str, float] = {}
    for name, metrics in FUNCTIONS:
        for m in metrics:
            values[f"{name}.{m}"] = calls(name) if m == "calls" else median(name, "self_s")
    layer_self = {
        m: sum(median(name, "self_s") for name in funcs if name.split(".")[0] == m)
        for m in MODULES
    }
    total_self = sum(layer_self.values())
    values.update({
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": median("cli.main", "self_s"),
        "cli.bytes_out": bytes_out,
        "emitter.voigt_fwhm_per_point": _ratio(
            edge("emitter.decompose_voigt_fwhm", "numerics.voigt_fwhm"),
            extra("emitter.decompose_voigt_fwhm"),
        ),
        "numerics.voigt_value_per_fwhm": _ratio(
            edge("numerics.voigt_fwhm", "numerics.voigt_value"), calls("numerics.voigt_fwhm")
        ),
        "numerics.faddeeva_w.points_per_call": _ratio(
            extra("numerics.faddeeva_w"), calls("numerics.faddeeva_w")
        ),
        "numerics.integrate.evals": first["counters"]["numerics.integrate.evals"],
        "bell.coinc_per_fidelity": _ratio(
            edge("bell.bell_fidelity", "interference.coincidence_probability"),
            calls("bell.bell_fidelity"),
        ),
        "oracle.realizations": extra("oracle.mc_g2_estimate"),
        "oracle.s_per_realization": _ratio(
            median("oracle.mc_g2_estimate", "total_s"), extra("oracle.mc_g2_estimate")
        ),
        "oracle.worst_z": worst_z,
        "interference.interference_weight.us_per_call": 1e6 * _ratio(
            median("interference.interference_weight", "total_s"),
            calls("interference.interference_weight"),
        ),
        "numerics.voigt_fwhm.us_per_call": 1e6 * _ratio(
            median("numerics.voigt_fwhm", "total_s"), calls("numerics.voigt_fwhm")
        ),
        "bell.bell_fidelity.ms_per_call": 1e3 * _ratio(
            median("bell.bell_fidelity", "total_s"), calls("bell.bell_fidelity")
        ),
        "trace_overhead": trace_overhead,
    })
    for m in MODULES:
        values[f"layer.{m}.self_s"] = layer_self[m]
        values[f"layer.{m}.share"] = _ratio(layer_self[m], total_self)
    return values


def counts_repeat(trace: list[dict]) -> bool:
    """True when every traced pass made exactly the same calls."""
    def counts(t: dict) -> tuple:
        return (
            {k: v["calls"] for k, v in t["functions"].items()},
            t["edges"],
            t["counters"],
        )

    return all(counts(t) == counts(trace[0]) for t in trace[1:])
