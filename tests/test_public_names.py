"""Every public name of the package resolves, and every public function,
method and property is either run by a shipped config or listed with the
reason it stays.

A deletion that leaves a stale ``__all__`` entry or a stale lazy export
fails here, not at a user's import.  The reachability tests run every
``configs/*.json`` through ``cli.main`` in CSV and in JSON (``verify.json``
at its shipped seed but the small sizes of ``VERIFY_SIZES``) and record
each code object entered, on the calling thread and on ``verify``'s pool
threads.  "Public" is each function and class in a module's ``__all__``
that the module defines, each public method and property of such a class,
and each public function of ``cli``, which has no ``__all__``.  A public
name that no config reaches must be an entry of ``LIBRARY_ENTRIES``, whose
one-line reason names the reached kernel it forwards to where there is
one; an entry that a config reaches, or that no longer exists, is stale.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import sys
import threading
from pathlib import Path

import pytest

import tpi_sim
from tpi_sim import interference, numerics, oracle
from tpi_sim.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

COMMANDS = {
    "assess_benchmarks.json": "assess",
    "decompose_coherence.json": "decompose",
    "decompose_linewidth.json": "decompose",
    "fidelity_map.json": "fmap",
    "g2_trace_detuned.json": "g2",
    "g2_trace_resonant.json": "g2",
    "tuning_curve.json": "tuning",
    "verify.json": "verify",
    "visibility_map.json": "vmap",
}

VERIFY_SIZES = {
    "closed_form_instances": 3,
    "mc_instances": 1,
    "mc_realizations": 200,
    "phase_trials": 10000,
}

# Public names that no shipped config runs, each with why it stays.
LIBRARY_ENTRIES = {
    "interference.hom_visibility":
        "the paper's HOM visibility of one pair: `interference.tuning_curve` at its detuning",
    "bell.bell_fidelity":
        "the paper's Bell fidelity of one pair: `interference.interference_weight` "
        "through the circuit's `interference.coincidence_at_weight` terms",
    "numerics.faddeeva_w": "the Faddeeva function w(z) itself: `numerics._faddeeva`",
    "numerics.voigt_fwhm":
        "the Voigt FWHM of a known split: `numerics._voigt_width`, the Voigt-split solver",
    "emitter.normalized_params":
        "one emitter's normalized linewidths, the columns `emitter.EmitterConstraint.curve` forms",
    "interference.joint_detection_probability":
        "the paper's general wave-packet density, which `oracle.quadrature_g2` integrates",
    "oracle.exponential_wave":
        "the oracle's one-sided exponential packet for `oracle.quadrature_g2`",
    "oracle.quadrature_g2":
        "the oracle's general wave-packet G2 at one lag, by `oracle.integrate`",
    "oracle.mc_g2_estimate":
        "the oracle's Monte-Carlo G2 at one lag: `oracle._g2_chunks`, as `verify` runs them",
    "oracle.mc_averaged_phase_factor":
        "the oracle's Monte-Carlo phase factor: `oracle._phase_factor_chunks`, as `verify` runs them",
    "gates.gate_to_json": "ROADMAP item 5 (a gate at the CLI) reads them",
    "gates.gate_from_json": "ROADMAP item 5 (a gate at the CLI) reads them",
    "emitter.EmitterConstraint.decomposition":
        "the splits as pairs: `emitter.EmitterConstraint._splits`, which `curve` reads too",
    "emitter.EmitterParams.lorentzian_fwhm":
        "the Lorentzian FWHM, `emitter.EmitterParams.gamma_h` / pi",
    "emitter.EmitterParams.coherence_time":
        "one emitter's coherence time: `emitter.coherence_time`",
    "emitter.PhotonPair.identical": "two copies of one emitter, `PhotonPair(e, e)`",
}

# a backticked name in a reason, such as `interference.tuning_curve`
KERNEL = re.compile(r"`(\w+(?:\.\w+)+)`")


def modules_with_all():
    modules = [importlib.import_module(f"tpi_sim.{info.name}")
               for info in pkgutil.iter_modules(tpi_sim.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def package_imports():
    """The names that ``tpi_sim/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(tpi_sim.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def code_of(obj):
    """The code object that runs when ``obj`` (a function, method or
    property, as found in a module or a class ``__dict__``) is called or
    read, or None for anything else."""
    obj = obj.fget if isinstance(obj, property) else obj
    obj = inspect.unwrap(getattr(obj, "__func__", obj))
    return obj.__code__ if inspect.isfunction(obj) else None


def public_names() -> dict:
    """``"module.name"`` or ``"module.Class.name"`` -> code object of every
    public function, method and property (see the module docstring)."""
    names = {}
    for info in pkgutil.iter_modules(tpi_sim.__path__):
        module = importlib.import_module(f"tpi_sim.{info.name}")
        listed = getattr(module, "__all__", None)
        for name in vars(module) if listed is None else listed:
            obj = getattr(module, name)
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if (code := code_of(obj)) is not None:
                names[f"{info.name}.{name}"] = code
            elif inspect.isclass(obj) and listed is not None:
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (code := code_of(member)) is not None:
                        names[f"{info.name}.{name}.{attr}"] = code
    return names


def resolve(dotted: str):
    """The object ``"module.name[.attr]"`` names in ``tpi_sim``, read from
    class ``__dict__``s so that a property is the property itself; None
    where there is no such object."""
    first, *rest = dotted.split(".")
    try:
        obj = importlib.import_module(f"tpi_sim.{first}")
        for attr in rest:
            obj = vars(obj)[attr] if inspect.isclass(obj) else getattr(obj, attr)
    except (ImportError, AttributeError, KeyError):
        return None
    return obj


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    """The code objects entered while every shipped config runs in both formats."""
    tmp = tmp_path_factory.mktemp("reached")
    verify = {**json.loads((CONFIG_DIR / "verify.json").read_text()), **VERIFY_SIZES}
    (tmp / "verify.json").write_text(json.dumps(verify))
    # a memoized function runs its body only on its first call in the process
    for info in pkgutil.iter_modules(tpi_sim.__path__):
        for obj in vars(importlib.import_module(f"tpi_sim.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for config, command in sorted(COMMANDS.items()):
            path = tmp / config if command == "verify" else CONFIG_DIR / config
            for fmt in ("csv", "json"):
                argv = [command, "--config", str(path), "--out", str(tmp / "out"), "--format", fmt]
                assert main(argv) == 0, argv
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return seen


@pytest.mark.parametrize("module", modules_with_all(), ids=lambda module: module.__name__)
def test_every_listed_name_is_an_attribute(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_name_resolves():
    names = [*package_imports(), *tpi_sim._ORACLE_NAMES]
    assert "faddeeva_w" in names and "run_verification" in names
    assert [name for name in names if not hasattr(tpi_sim, name)] == []


def test_every_shipped_config_runs():
    assert sorted(COMMANDS) == sorted(path.name for path in CONFIG_DIR.glob("*.json"))


def test_every_public_name_is_reached_or_listed(reached):
    names = public_names()
    assert {"cli.main", "interference.overlap_weight", "oracle.run_verification"} <= {
        name for name, code in names.items() if code in reached}
    assert [name for name, code in sorted(names.items())
            if code not in reached and name not in LIBRARY_ENTRIES] == []


def test_no_listed_name_is_reached(reached):
    names = public_names()
    assert [name for name in sorted(LIBRARY_ENTRIES)
            if name in names and names[name] in reached] == []


def test_every_listed_name_is_public():
    assert sorted(set(LIBRARY_ENTRIES) - set(public_names())) == []


def test_each_reason_names_live_kernels(reached):
    """A reason is one line, and each kernel it names is reached or listed."""
    assert [name for name, reason in LIBRARY_ENTRIES.items()
            if not reason or "\n" in reason] == []
    dead = [(name, kernel) for name, reason in sorted(LIBRARY_ENTRIES.items())
            for kernel in KERNEL.findall(reason)
            if kernel not in LIBRARY_ENTRIES and code_of(resolve(kernel)) not in reached]
    assert dead == []


def test_voigt_value_is_gone():
    """``interference.overlap_weight`` is the one Voigt-profile kernel."""
    assert not hasattr(tpi_sim, "voigt_value")
    assert not hasattr(numerics, "voigt_value")


def test_quadrature_is_the_oracle_s():
    """``oracle.integrate`` is the one adaptive quadrature, apart from the
    kernels it checks; the package does not export it."""
    assert not hasattr(tpi_sim, "integrate")
    for name in ("integrate", "QuadratureError", "_panel", "_MAX_INTERVALS", "heapq"):
        assert not hasattr(numerics, name)


@pytest.mark.parametrize("name", ["draw_jitter", "JitterSample", "RngSeed"])
def test_per_photon_sampler_is_gone(name):
    """The oracle draws only the relative jitter of a pair, in ``mc_g2_estimate``."""
    assert name not in oracle.__all__
    assert not hasattr(oracle, name)
    assert not hasattr(tpi_sim, name)


@pytest.mark.parametrize("name", ["CorrelationTrace", "g2_distinguishable"])
def test_g2_trace_is_the_one_g2_entry(name):
    """``interference.g2_trace`` returns the G2 and baseline columns itself."""
    assert name not in interference.__all__
    assert not hasattr(interference, name)
    assert not hasattr(tpi_sim, name)
