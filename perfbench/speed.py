"""Machine-speed calibration, so timings compare across a drifting machine.

On a shared 2-vCPU machine the same Python code runs up to half again as
slowly for tens of seconds at a time, which would swamp any real change.
The benchmark therefore times a fixed pure-Python loop right before and
right after each item, and scales the item's time by
``REFERENCE_S / mean(before, after)``: the time the item would have taken on
a machine where the loop takes ``REFERENCE_S``. Work that runs for seconds
in another process (a catalogue job, a client's set-up) is instead scaled by
the median of loop times sampled while it runs. The loop uses the
operations the library spends its time on (a generator over set bits, a dict
comprehension, bit counting), which made it track the slowdowns far better
than plain integer arithmetic did.
"""

from __future__ import annotations

import time

#: Calibration loop time that defines one reference second; about its
#: median on the 2-vCPU Xeon machine the baseline was taken on.
REFERENCE_S = 0.00085
#: While a child process does the timed work, the loop is sampled this often.
SAMPLE_INTERVAL_S = 0.05


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0
    for mask in range(1, 512):
        if mask.bit_count() < 2:
            continue
        positions = {v: (mask >> v) & 1 for v in _bits(mask)}
        total += len(positions) + (mask & -mask)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to reference seconds."""
    return 2 * REFERENCE_S / (before + after)
