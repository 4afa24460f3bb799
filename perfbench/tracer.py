"""Per-function call tracing of the tpi_sim modules, from outside the package.

The tracer wraps every public module-level function of the ``tpi_sim``
modules (of ``cli`` only ``main``, so parsing and serialization stay one
layer) and swaps the wrapper in for every name that refers to the
function, in every ``tpi_sim`` module.  Modules import each other's
functions with ``from .x import y``, so patching only the defining module
would miss most calls.

Spans are not kept one per call: ``voigt_value`` alone runs ~870k times per
``assess``.  Instead each ``(module, function)`` key aggregates its call
count, total time and child time (time spent in wrapped callees), so that
self time = total - child.  Caller -> callee call counts are kept too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable

PACKAGE = "tpi_sim"
PANEL = ("numerics", "_panel")  # one integrand panel of numerics.integrate


def _measure(key: tuple[str, str], fn: Callable):
    """f(args, kwargs, result) -> number summed into ``Stat.extra``, or None.

    These count work where it happens, for ratios such as points per call.
    """
    if key == ("numerics", "faddeeva_w"):
        import numpy as np

        return lambda args, kwargs, result: int(np.size(args[0]))
    if key == ("emitter", "decompose_voigt_fwhm"):
        return lambda args, kwargs, result: len(result)
    if key == ("oracle", "mc_g2_estimate"):
        signature = inspect.signature(fn)

        def realizations(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["realizations"]

        return realizations
    return None


class Stat:
    """Aggregate of one traced function."""

    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Aggregated call tracing of the tpi_sim package; see the module doc."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.edges: dict[tuple[tuple[str, str] | None, tuple[str, str]], int] = {}
        self.counters: dict[str, int] = {"numerics.integrate.evals": 0}
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Callable]] = []  # (module, name, original)

    def _modules(self) -> list:
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, key: tuple[str, str], fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter
        measure = _measure(key, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            edge = (parent[1] if parent else None, key)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.child += frame[0]
                if parent is not None:
                    parent[0] += elapsed
            if measure is not None:
                stat.extra += measure(args, kwargs, result)
            return result

        return traced

    def _count_panels(self, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters["numerics.integrate.evals"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap the wrappers in; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        replacement: dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = (short, name)
                if key == PANEL:
                    replacement[id(obj)] = self._count_panels(obj)
                elif not name.startswith("_") and (short != "cli" or name == "main"):
                    replacement[id(obj)] = self._wrap(key, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def reset(self) -> None:
        """Zero every aggregate, keeping the wrappers installed."""
        for stat in self.stats.values():
            stat.__init__()
        self.edges.clear()
        for name in self.counters:
            self.counters[name] = 0

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates since the last reset."""
        return {
            "functions": {
                f"{m}.{f}": {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "extra": s.extra,
                }
                for (m, f), s in sorted(self.stats.items())
            },
            "edges": {
                f"{'.'.join(p) if p else '<bench>'}>{'.'.join(c)}": n
                for (p, c), n in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))
            },
            "counters": dict(self.counters),
        }
