"""Machine record, calibration loops and the speed probe.

Numbers from different boxes are only comparable after normalising by
how fast the box runs pure-Python and numpy code; the two calibration
loops below are fixed work (never tuned per machine) whose wall time
is reported as ``bench.calibration_py_s`` / ``bench.calibration_np_s``.

The same holds for one box at different moments: this sandbox's CPU
slows by up to 2x in phases lasting from half a second to minutes.
:func:`speed_probe` is a short run of the pure-Python loop, taken right
before and after every set-up and every timed repetition
(:func:`probed`); work that executes in the benchmark's own process has
its wall time rescaled to what it would have been with the probe at
:data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict

import numpy as np

from repro.core.sieve_kernel import mix64_array

#: Fixed work sizes; changing them breaks comparability across files.
PY_LOOP_ITERATIONS = 200_000
NP_ARRAY_WORDS = 1 << 19
NP_PASSES = 4

#: Each loop runs this often; the fastest run is reported, because the
#: sandbox's slow phases only ever add time.
ROUNDS = 7

#: Iterations of one speed probe (~5 ms), and what it takes at the floor
#: of the box the first trajectory point was measured on.  Both are
#: fixed: the reference defines the "second" that in-process rates are
#: quoted per, so changing either re-bases every such number.
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_S = 0.0052


def calibrate_py(iterations: int = PY_LOOP_ITERATIONS) -> float:
    """Wall seconds of a fixed dict/list loop (the replay loops' idiom)."""
    table: Dict[int, int] = {}
    trail = []
    started = time.perf_counter()
    for index in range(iterations):
        key = index & 1023
        table[key] = table.get(key, 0) + index
        trail.append(index ^ (index >> 3))
    return time.perf_counter() - started


def calibrate_np(words: int = NP_ARRAY_WORDS, passes: int = NP_PASSES) -> float:
    """Wall seconds of a fixed ``mix64_array`` pass (the kernel's idiom)."""
    values = np.arange(words, dtype=np.uint64)
    started = time.perf_counter()
    for _ in range(passes):
        values = mix64_array(values)
    return time.perf_counter() - started


def speed_probe() -> float:
    """Wall seconds of the pure-Python loop at probe length, best of two."""
    return min(calibrate_py(PROBE_ITERATIONS), calibrate_py(PROBE_ITERATIONS))


def probed(call):
    """Run ``call()`` between two speed probes.

    Returns ``(its result, its host wall seconds, speed)``, where speed
    is the reference probe time over the mean of the two adjacent
    probes: the wall times speed is the call's cost in *reference*
    seconds — what it would have taken with the box at the speed the
    reference was taken at.
    """
    before = speed_probe()
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    return result, wall, REFERENCE_PROBE_S / ((before + speed_probe()) / 2)


def calibration(rounds: int = ROUNDS) -> Dict[str, float]:
    """Fastest of ``rounds`` runs of each loop."""
    return {
        "bench.calibration_py_s": min(calibrate_py() for _ in range(rounds)),
        "bench.calibration_np_s": min(calibrate_np() for _ in range(rounds)),
    }


def machine_record() -> Dict[str, object]:
    """What the box looked like when the run started."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform exposes affinity
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }
