"""Machine-speed calibration for the wall-clock metrics.

On a shared machine the interpreter's speed drifts by tens of percent over
seconds to minutes: another tenant's load on the same cores slows every
instruction, and a 30-second run may fall entirely inside a slow phase.
Taking the median of several repetitions cannot remove a drift that lasts
longer than the run.  So the speed is sampled with a short, fixed
pure-Python loop before each repetition, between its run and results
phases, and after it, and each phase's wall-clock time is scaled by

    scale = REFERENCE_S / mean(loop time before the phase, loop time after)

which reports it in *reference seconds*: the seconds the phase would have
taken on a machine that runs the loop in ``REFERENCE_S``.  The loop does the
kinds of work the simulator does (dict updates keyed by tuples, small-object
allocation, a keyed sort), so a slow phase slows both by about the same
factor.

Measured on a 2-core x86 container (``chaos-durable``, 5.5 minutes of
repetitions grouped six to a window, inter-quartile distance over median of
the window medians): the results phase spread 0.19 raw and 0.08 scaled; the
run phase, which lasts about 4 s and so drifts inside its own bracket,
spread 0.18 raw and 0.16 scaled.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import Dict, Tuple

#: the loop's median time on the machine the benchmark was calibrated on
REFERENCE_S = 0.0045
#: loop timings per calibration (their median is the sample)
LOOPS = 15


class _Point:
    __slots__ = ("index", "key")

    def __init__(self, index: int, key: Tuple[int, int]) -> None:
        self.index = index
        self.key = key


def _loop() -> int:
    table: Dict[Tuple[int, int], int] = {}
    points = []
    for i in range(6000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0) + 1
        points.append(_Point(i, key))
    points.sort(key=lambda p: p.key)
    return len(table)


def loop_time() -> float:
    """The median of ``LOOPS`` timings of the calibration loop (seconds)."""
    samples = []
    gc.disable()  # time the interpreter, not collections of the caller's heap
    try:
        for _ in range(LOOPS):
            start = perf_counter()
            _loop()
            samples.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(samples)


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
