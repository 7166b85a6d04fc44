"""The calibration loop that scales the benchmark's times to a reference
speed.

On a shared host the machine's speed swings 1.5-2x over seconds to
minutes.  A fixed loop timed next to each piece of measured work runs at
the same speed as that work, so the work's time divided by the loop's time
stays within a few percent where the raw time does not.  Times are
reported at the reference speed: that ratio times :data:`REFERENCE_S`.
"""

from __future__ import annotations

import time

CALIBRATION_ITERATIONS = 64000


def calibration_seconds() -> float:
    """Time of a fixed dict-and-tuple loop that shares no code with the
    program.

    Of the loops tried (dict inserts, a pointer chase over a shuffled list,
    integer arithmetic) this one's time tracked the speed swings of a
    shared host most closely against the workloads' rows.
    """
    started = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[(i * 7919) % 100003, i & 7] = (i, i + 1)
    return time.perf_counter() - started


#: The loop's time at the reference speed, in seconds: its median on a
#: quiet stretch of a 2-vCPU Xeon VM.
REFERENCE_S = 0.02


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured beside a loop that took ``calibration_s``,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / calibration_s
