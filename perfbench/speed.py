"""Machine-speed probes used to put op times on a fixed scale.

The shared 2-core machine this benchmark was built on changes speed by up to
1.6x over tens of seconds as other tenants come and go: a fixed pure-Python
loop took 2.5 ms in fast phases and 4.2 ms in slow ones.  Raw op times move
with it, which would swamp the changes the benchmark exists to detect.

Before every op the benchmark runs two small probes that use none of the
boxsearch code: a pure-Python list and float loop (the kind of work the MC
steppers do) and an allocation-free numpy cumprod/power/sum over 2^16 floats
(the kind of work the theta series does).  Slow phases slow interpreted code
more than numpy kernels, so each workload is scaled by the probe that matches
where its time goes (``workloads.PROBE``).  A probe's ratio is its time over
its nominal time; an op's factor is the median ratio of the samples centred
on it (HALF_WINDOW before the op, the one just before it, and HALF_WINDOW
after it), taken once the loop has ended, and its scaled time is its raw time
divided by that factor, the time it would have taken at nominal speed.  A
centred window follows a change of speed during a long op, which a window of
past samples only does after it.  Replayed on the same ten mc-large-x runs
(two batches of five seeds), it gave mean spreads of 0.046, 0.059 and 0.066
for ops_per_s, op_p50_ms and op_p90_ms, against 0.054, 0.093 and 0.071 for
the last seven samples; on mc-small-x and exact-bounds the two differed by
less than the batches did.

A fresh interpreter's start-up mixes both kinds of work, so set-up time is
divided by the geometric mean of both probes' factors, averaged over the
samples taken just before and just after it.  The probes do not run boxsearch
code, so a faster boxsearch should lower scaled and raw times by the same
factor; raw times are printed and kept so that this can be checked.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Probe times on the 2-core Xeon machine where the baseline was recorded, in
# a fast phase; scaled times read as times at that speed.
NOMINAL_S = {"python": 0.00055, "numpy": 0.00055}
HALF_WINDOW = 3

_RATIOS = np.arange(1.0, 1 << 16) / np.arange(1.5, (1 << 16) + 0.5)
_BUF = np.empty_like(_RATIOS)  # preallocated: page faults would time the allocator


def _python_probe() -> float:
    cand = list(range(512))
    acc = 0.0
    for i in range(3000):
        j = (i * 7919) % 512
        acc += cand[j] * 0.5
        cand.append(cand.pop(j))
    return acc


def _numpy_probe() -> float:
    np.cumprod(_RATIOS, out=_BUF)
    np.power(_BUF, 3, out=_BUF)
    return float(_BUF.sum())


_PROBES = {"python": _python_probe, "numpy": _numpy_probe}


class Speedometer:
    """Rolling estimate of how slow the machine is right now (1.0 = nominal)."""

    def __init__(self) -> None:
        self._ratios: dict[str, list[float]] = {kind: [] for kind in _PROBES}
        self.raw: list[dict[str, float]] = []  # probe seconds, one entry per sample

    def sample(self) -> dict[str, float]:
        """Time every probe once; returns each probe's time over its nominal."""
        times, ratios = {}, {}
        for kind, probe in _PROBES.items():
            t0 = perf_counter()
            probe()
            times[kind] = perf_counter() - t0
            ratios[kind] = times[kind] / NOMINAL_S[kind]
            self._ratios[kind].append(ratios[kind])
        self.raw.append(times)
        return ratios

    def factor_around(self, kind: str, i: int, first: int) -> float:
        """Smoothed slowdown seen by one probe around an op that ran between
        samples ``i`` and ``i + 1``, from samples no earlier than ``first``."""
        return statistics.median(
            self._ratios[kind][max(first, i - HALF_WINDOW):i + HALF_WINDOW + 1])
