"""The machine's current speed, read from a fixed reference loop.

The benchmark's 2-core machine is shared.  Its speed drifts by up to 1.6x,
in phases that last from a second to minutes, and CPU time drifts with wall
time.  A whole run can fall in one slow phase, so no estimator over the
run's own operations removes the drift.  Instead the reference loop is timed
just before and just after each timed operation and set-up sample, and the
operation's wall time is scaled to what it would be at the reference speed.
The loop is plain Python and shares nothing with the package, so a change
to the package moves the scaled times exactly as it moves the wall times.
Like the package, it calls into math, allocates floats and grows a list and
a dict; a probe found that such a loop follows the package's slow phases
more closely than pure arithmetic does, because the neighbours slow memory
access more than they slow the arithmetic units.
"""

from __future__ import annotations

import math
import time

LOOP_ITERATIONS = 50_000
# Wall seconds of the loop in a calm phase of the machine the baseline was
# measured on; scaled times are reported at this speed.
REFERENCE_S = 0.008


def loop_seconds() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    values, table = [], {}
    for i in range(LOOP_ITERATIONS):
        v = math.exp(-i * 1e-5) * 1.5
        values.append(v)
        table[i & 1023] = v
    sorted(values[::7])
    return time.perf_counter() - t0


def at_reference(wall: float, before: float, after: float) -> float:
    """`wall` scaled to the reference speed, given the loop's seconds just
    before and just after it."""
    return wall * 2.0 * REFERENCE_S / (before + after)
