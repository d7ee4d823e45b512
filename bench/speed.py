"""A speedometer for the machine the benchmark runs on.

This sandbox shares its cores, and the same code runs at speeds up to 1.5x
apart from one second, or one minute, to the next (README.md, "Noise"):
ten runs of one workload spread their *raw* window medians over 14-22 %.
No statistic within a run removes that — whole runs are fast or slow —
and selecting the samples taken while a calibration kernel ran fast does
not either (4-22 %), because the fastest the machine gets differs from run
to run as well.  What does is measuring the machine next to the program:
a fixed calibration kernel of about a millisecond runs before and after
each timed operation, and every bounded duration is reported at reference
speed,

    reported = measured * REFERENCE_S / (kernel time around the operation)

i.e. as it would read on a machine on which the kernel takes exactly
:data:`REFERENCE_S`.  Wall durations are scaled by the kernel's wall time
and CPU durations by the kernel's CPU time, so a descheduled kernel does
not leak into the CPU metric.  The raw durations and the kernel time are
printed beside the scaled ones; nothing is hidden by the scaling.

The kernel is the benchmark's own code and never calls the program.  It
is a plain interpreter loop that allocates: an int-keyed dict lookup,
integer arithmetic, a list update and three small objects per iteration,
most of them dropped at once.  The garbage collector is held off while it
runs, so a collection — whose cost grows with the *program's* heap —
never lands inside a sample.  What it still shares with the program is
the processor's caches: it starts cold after every window, the same way
on every commit.  A change that made the program evict more would have
to slow a 100 KB loop measurably to hide any of its own cost.

Alternatives measured beside it and dropped (inter-quartile spread over
ten runs of the scaled window median, mice / elephants / churn / cqe):
this kernel 2-8 %; a loop without the allocations 3-9 % (better on the
numpy-bound elephants, twice as bad on the other three); numpy sorts
(their own time wanders with cache state); ``bytes`` keys (string hashing
is randomised per process, so the kernel's own speed differed from
process to process).
"""

from __future__ import annotations

import gc
from time import perf_counter, process_time

__all__ = ["REFERENCE_S", "Speedometer"]

#: Kernel time that defines speed 1.0: what it took on the machine this
#: benchmark was defined on.  A unit, not a tuning knob — changing it
#: rescales every bounded duration of every workload alike.
REFERENCE_S = 0.001
_ITERATIONS = 2000


class _Cell:
    __slots__ = ("index", "fields", "trail")

    def __init__(self, index: int, fields: dict[str, int],
                 trail: list[int]) -> None:
        self.index = index
        self.fields = fields
        self.trail = trail


class Speedometer:
    """Samples the calibration kernel; scales durations by its neighbours."""

    def __init__(self) -> None:
        # Int keys: their hashes, and so the dict's layout and speed, are
        # the same in every process.
        self._memo: dict[int, int] = {
            key * 2654435761 % (1 << 32): key for key in range(_ITERATIONS)
        }
        self._keys = list(self._memo)
        self._cells = [0] * 1024
        #: (wall seconds, CPU seconds) of every sample taken.
        self.samples: list[tuple[float, float]] = []
        for _ in range(20):  # settle caches and the allocator
            self._kernel()

    def _kernel(self) -> tuple[float, float]:
        collecting = gc.isenabled()
        gc.disable()
        cpu = process_time()
        wall = perf_counter()
        memo = self._memo
        cells = self._cells
        kept: list[_Cell] = []
        total = 0
        for key in self._keys:
            value = memo[key]
            total = (total + key) & 0xFFFFFFFF
            cells[total & 1023] += 1
            cell = _Cell(value, {"total": total}, [value, total])
            if value & 7 == 0:
                kept.append(cell)
        took = (perf_counter() - wall, process_time() - cpu)
        if collecting:
            gc.enable()
        return took

    def sample(self) -> int:
        """Run the kernel once; returns the sample's index."""
        self.samples.append(self._kernel())
        return len(self.samples) - 1

    def scale(self, mark: int, count: int = 2) -> tuple[float, float]:
        """(wall factor, CPU factor) that bring a duration measured amid
        the ``count`` samples from ``mark`` on — by default between
        ``mark`` and ``mark + 1`` — to reference speed."""
        around = self.samples[mark:mark + count]
        return (REFERENCE_S * len(around) / sum(s[0] for s in around),
                REFERENCE_S * len(around) / sum(s[1] for s in around))

    def kernel_ms(self) -> float:
        """Median wall time of the samples, in ms: how fast the machine
        was during the run (1.0 is reference speed)."""
        walls = sorted(s[0] for s in self.samples)
        return walls[len(walls) // 2] * 1e3
