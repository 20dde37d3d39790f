"""Host-speed correction for the benchmark's timings.

The benchmark runs on a share of a busy host whose speed drifts by 15% or
more over seconds to minutes.  All work drifts together: CPU time moves with
wall time, and a fixed pure-Python computation slows in step with the
package's ops.  So every timed op and set-up is bracketed by a run of
``reference()``, a fixed computation on the standard library alone, and is
reported at the reference's nominal speed::

    paced time = measured time * NOMINAL_S / (mean of the two reference times)

On a host running at nominal speed the paced time is the measured time.
The reference touches nothing of the package, so a change to the package
cannot move it; it only tells how fast the host was at that moment.  The
measured times are printed beside the paced ones.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

NOMINAL_S = 0.003  # the reference's typical time on a 2-core VM, Python 3.11


def reference() -> float:
    """Time one fixed computation of the kind the package does: Fractions,
    sorting and hashing.  The collector is off, so the package's heap cannot
    add collections to it."""
    rng = random.Random(7)
    gc.disable()
    try:
        t0 = time.perf_counter()
        xs = sorted(Fraction(rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)) for _ in range(160))
        total = Fraction(0)
        seen = {}
        for a, b in zip(xs, xs[1:]):
            total += a * b - b
            seen[(a, b)] = total
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Pacer:
    """Paces a sequence of spans.  Each span is paced against the reference
    run that ended the previous span (or started the pacer) and the one run
    right after it; untimed work between spans takes far less time than the
    host's slow and fast phases last."""

    def __init__(self):
        self.last = reference()
        self.references: list[float] = [self.last]

    def paced(self, measured: float) -> float:
        """Pace a span that has just ended; call it right after the span."""
        after = reference()
        self.references.append(after)
        factor = 2 * NOMINAL_S / (self.last + after)
        self.last = after
        return measured * factor
