"""A fixed reference workload that tracks how fast the host runs right now.

The sandbox shares its cores with other tenants, and a fixed solve there
takes anywhere from 0.07 s to 0.15 s depending on their load, in phases
of seconds to minutes. A probe runs the same small mix of scalar Python
and small-array numpy work (the two kinds of work the library does)
before the first op and after every op. Scaling each op by
REFERENCE_S / (mean of its two neighbouring probes) reports it at the
reference host speed. The probe calls no library code, so a change to
the library cannot move it.
"""

import math

import numpy as np

from tracing import now

# Median probe time on the 2-core sandbox where the benchmark was defined.
REFERENCE_S = 0.008

_START = np.linspace(0.0, 1.0, 300)


def probe():
    """Seconds one pass of the reference work takes now."""
    start = now()
    acc = 0.0
    for i in range(24000):
        x = i * 1e-3
        acc += math.sin(x) * x / (1.0 + x)
    a = _START
    for _ in range(1200):
        a = (a * 0.5 + 1.0) / (1.0 + a * a)
    return now() - start
