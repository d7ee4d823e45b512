"""Set-up time, measured in fresh child processes.

One probe is a new interpreter that times, in order: interpreter entry,
importing ``repro`` (and the benchmark's workload table), building the
workload's deployment, installing every query, and ingesting and closing
window 0.  The parent runs :data:`PROBES` of them one after another,
discards the first (it may have compiled ``.pyc`` files) and reports the
median of the rest.

Why not time set-up in the benchmark's own process: build + install is
only ~30 ms for the nine queries, repeated build cycles in one process
drift with the garbage they leave behind, and on ``fat_tree(4)`` they are
bimodal because every deployment allocates ~126 MB of register banks and
the allocator's state differs from cycle to cycle.  Fresh processes have
neither problem, and they include what a user waits for first — the
import.

Window 0 is handed to the child on its standard input (pickled by the
parent), so trace synthesis is not part of the measurement.  The child
takes a short burst of calibration-kernel samples before the first phase
and after every phase, and each phase is reported at reference speed from
the bursts at its two ends (:mod:`bench.speed`), like every other bounded
duration of the benchmark; the sum as measured is reported beside it.
"""

from __future__ import annotations

import time

_ENTERED = time.time()  # as early as a script can look at the clock

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

__all__ = ["PROBES", "PHASES", "run_probes"]

#: Child processes per measurement; the first is discarded.
PROBES = 8
#: Timed phases of one probe, in order; ``setup_s`` is their sum.
PHASES = ("startup_s", "import_s", "build_s", "install_s", "first_window_s")
#: Calibration samples a child takes at each phase boundary.
_BURST = 3
_TIMEOUT_S = 120

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_BENCH_DIR)


def run_probes(workload_name: str, window0: object,
               probes: int = PROBES) -> Dict[str, float]:
    """Median of each phase and of their sum (``setup_s``) at reference
    speed, and of their sum as measured (``raw_setup_s``), over
    ``probes - 1`` fresh child processes."""
    payload = pickle.dumps(window0)
    samples: List[Dict[str, float]] = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), workload_name,
             repr(time.time())],
            input=payload, stdout=subprocess.PIPE, timeout=_TIMEOUT_S,
            check=True,
        )
        sample = json.loads(done.stdout.splitlines()[-1])
        sample["setup_s"] = sum(sample[phase] for phase in PHASES)
        samples.append(sample)
    kept = samples[1:] if len(samples) > 1 else samples
    return {key: statistics.median(s[key] for s in kept)
            for key in PHASES + ("setup_s", "raw_setup_s")}


def _child(workload_name: str, spawned: float) -> Dict[str, float]:
    clock = time.perf_counter
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    # Standard library only: imports nothing the program would.
    from bench.speed import Speedometer
    speedometer = Speedometer()

    def burst() -> float:
        for _ in range(_BURST):
            speedometer.sample()
        return clock()

    t0 = burst()
    import repro  # noqa: F401  (the import is what is being timed)
    from bench.harness import window_step
    from bench.traces import RotatingReplaySource
    from bench.workloads import WORKLOADS
    t1 = clock()
    burst()
    # Only bytes the parent benchmark process pickled a moment ago.
    window0 = pickle.loads(sys.stdin.buffer.read())
    workload = WORKLOADS[workload_name]
    t2 = clock()
    deployment = workload.build()
    t3 = clock()
    t3b = burst()
    workload.install(deployment)
    t4 = clock()
    t4b = burst()
    source = RotatingReplaySource(window0, windows=1, warmup=1)
    chunk, stats, _ = window_step(deployment, source)
    t5 = clock()
    burst()
    if stats.packets != len(chunk):
        raise RuntimeError("probe window lost packets")
    raw = (_ENTERED - spawned, t1 - t0, t3 - t2, t4 - t3b, t5 - t4b)
    # Phase i ran between bursts i - 1 and i; start-up, before the first.
    scaled = {
        phase: seconds * speedometer.scale(
            max(0, index - 1) * _BURST, 2 * _BURST if index else _BURST)[0]
        for index, (phase, seconds) in enumerate(zip(PHASES, raw))
    }
    scaled["raw_setup_s"] = sum(raw)
    return scaled


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1], float(sys.argv[2]))))
