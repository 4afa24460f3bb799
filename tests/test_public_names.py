"""Every public name of the package resolves: a deletion that leaves a stale
``__all__`` entry or a stale lazy export fails here, not at a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tpi_sim
from tpi_sim import numerics, oracle


def modules_with_all():
    modules = [importlib.import_module(f"tpi_sim.{info.name}")
               for info in pkgutil.iter_modules(tpi_sim.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def package_imports():
    """The names that ``tpi_sim/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(tpi_sim.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module", modules_with_all(), ids=lambda module: module.__name__)
def test_every_listed_name_is_an_attribute(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_name_resolves():
    names = [*package_imports(), *tpi_sim._ORACLE_NAMES]
    assert "faddeeva_w" in names and "run_verification" in names
    assert [name for name in names if not hasattr(tpi_sim, name)] == []


def test_voigt_value_is_gone():
    """``interference.overlap_weight`` is the one Voigt-profile kernel."""
    assert not hasattr(tpi_sim, "voigt_value")
    assert not hasattr(numerics, "voigt_value")


@pytest.mark.parametrize("name", ["draw_jitter", "JitterSample", "RngSeed"])
def test_per_photon_sampler_is_gone(name):
    """The oracle draws only the relative jitter of a pair, in ``mc_g2_estimate``."""
    assert name not in oracle.__all__
    assert not hasattr(oracle, name)
    assert not hasattr(tpi_sim, name)
