"""Correction of measured times for the speed of a shared machine.

On a shared VM other tenants slow this code by up to 1.9x: the machine
switches between a fast and a slow phase every few seconds, and the share
of slow time drifts over minutes, longer than a run.  CPU time slows with
wall time, so it is not a way out.  The benchmark therefore times a
fixed reference task next to the program -- before every call and after
the last one -- and reports times scaled to the speed at which the
reference task takes ``REF_NOMINAL_S``.  The task uses no ``tpi_sim``
code, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy
from scipy.special import erfcx

# about the reference task's median time on a shared 2.1 GHz Xeon VM, which
# switches every few seconds between ~1.8 ms and ~3.2 ms; it only sets the scale
REF_NOMINAL_S = 3.0e-3


def reference() -> float:
    """Fixed work: scalar special-function calls in a Python loop, then one array pass."""
    s = 0.0
    for i in range(5000):
        s += erfcx(0.001 * i) * math.sqrt(i + 1.0)
    return s + float(numpy.exp(-numpy.linspace(0.0, 1.0, 50000)).sum())


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def corrected(seconds: float, refs: list[float]) -> float:
    """``seconds`` measured while the reference task took ``refs``, at nominal speed."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)
