"""Host speed probe, to take the host's speed drift out of pass times.

On a shared virtual machine the CPU a run gets drifts in speed by a
quarter or more over minutes, and passes of fixed work slow down with
it. The probe is a fixed unit of the kinds of work a pass does (a sparse
LU factorization and triangular solves, dense products, an interpreted
loop); it uses numpy and scipy only, never the program, so a change to
the program cannot move it. `run.py` times probe units between passes
and scales its times by `REFERENCE_UNIT_S / median(unit times)`: a pass
that took 4 s while units ran 20% slower than the reference reports
4 s / 1.2.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# Seconds one unit takes on an unloaded host: an Intel Xeon 2.1 GHz
# virtual CPU, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread.
# Only a scale: both sides of a comparison use the same value.
REFERENCE_UNIT_S = 0.042


class Probe:
    def __init__(self):
        n = 90
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.A = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
        rng = np.random.default_rng(0)
        self.b = rng.standard_normal(n * n)
        self.M = rng.standard_normal((160, 160))

    def unit(self):
        """Seconds one unit of fixed work took."""
        t0 = time.perf_counter()
        lu = sla.splu(self.A)
        for _ in range(16):
            lu.solve(self.b)
        for _ in range(16):
            self.M @ self.M
        total = 0
        for i in range(120000):
            total += i * i
        return time.perf_counter() - t0

    def units(self, seconds):
        """Unit times for at least `seconds` of probing, at least one unit."""
        times = [self.unit()]
        while sum(times) < seconds:
            times.append(self.unit())
        return times
