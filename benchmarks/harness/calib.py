"""Machine-speed calibration: why the timings are speed-normalised.

The two-core boxes this benchmark runs on step between two clock speeds
about 1.27x apart, on a scale of seconds and for minutes at a time (a
fixed pure-Python loop reads 0.15 ms or 0.19 ms; numpy FFT, zlib and
filtfilt kernels move by the same factor).  A median over any number of
passes inside one run cannot cancel a step that outlasts the run, and the
run-to-run spread of a raw wall time — 15-20 % of its median — would
swamp every bound in ``BENCHMARK.json``.

So every timed operation is bracketed by a probe (the same short loop
twelve times over, the two slowest attempts dropped, the rest averaged: the
mean follows the machine's average speed, which is what the work between
two probes experiences, and the trimming keeps a preemption out), and its
duration is multiplied by ``REFERENCE_PROBE_S / probe``: the time the
operation would have taken had the machine run at the reference speed
throughout.  The probe is harness code and never changes
with the program, so a real speed-up or slow-down of the program moves
the normalised time exactly as it moves the raw one; only the machine's
own steps cancel (run-level spread drops to ~3 %).  Raw medians are kept
in every result record next to the normalised ones.
"""

from __future__ import annotations

import time

#: What the probe reads on the reference box at full speed.  On another
#: machine this only rescales every timing by one constant, which no
#: comparison between two commits can see.
REFERENCE_PROBE_S = 0.00015
_SPIN = 2500
ATTEMPTS = 12
#: Share of the attempts (the slowest) left out of the average.
_TRIM = 1 / 6


def _spin() -> int:
    acc = 0
    for i in range(_SPIN):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def readings(attempts: int) -> list[float]:
    """Seconds each of ``attempts`` runs of the calibration loop took."""
    out = []
    for _ in range(attempts):
        started = time.perf_counter()
        _spin()
        out.append(time.perf_counter() - started)
    return out


def reduce(samples: list[float]) -> float:
    """The mean of ``samples`` without the slowest sixth (a preemption or
    a GIL hand-off inside an attempt does not count)."""
    kept = sorted(samples)[: len(samples) - int(len(samples) * _TRIM)]
    return sum(kept) / len(kept)


def probe() -> float:
    """Seconds the calibration loop takes right now."""
    return reduce(readings(ATTEMPTS))


def factor(before: float, after: float) -> float:
    """Multiplier taking a duration measured between two probes to the
    reference speed."""
    return REFERENCE_PROBE_S / (0.5 * (before + after))


def factor_during(samples: list[float]) -> float:
    """The same multiplier from readings taken inside the measured span."""
    return REFERENCE_PROBE_S / reduce(samples)
