"""Host readings: CPU time, peak memory, hypervisor steal and host speed.

Everything here reads ``/proc`` or ``resource`` directly, so it costs no
dependency.  CPU and memory cover the benchmark process *and* its child
processes (the shard workers of the process engine), because a serving
deployment's cost is the sum of both.
"""

from __future__ import annotations

import bisect
import os
import resource
import time
from typing import Dict, List, Optional

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def child_pids() -> List[int]:
    """Live direct children of this process (shard workers)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_stat(int(entry))
        if stat is not None and int(stat[1]) == me:
            pids.append(int(entry))
    return pids


def _read_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def child_cpu_s(pids: List[int]) -> Dict[int, float]:
    """User+system CPU seconds of each child still alive."""
    readings = {}
    for pid in pids:
        stat = _read_stat(pid)
        if stat is not None:
            # utime and stime are fields 14 and 15 of the full line.
            readings[pid] = (int(stat[11]) + int(stat[12])) * _TICK_S
    return readings


class CpuMeter:
    """CPU seconds spent by this process and its children over a window."""

    def __init__(self) -> None:
        self._pids = child_pids()
        self._self0 = time.process_time()
        self._children0 = child_cpu_s(self._pids)

    def read(self) -> Dict[str, float]:
        """``{"self": s, "children": s}`` since construction."""
        now = child_cpu_s(self._pids)
        children = sum(now[pid] - self._children0.get(pid, 0.0) for pid in now)
        return {"self": time.process_time() - self._self0, "children": children}


class SpeedProbe:
    """A fixed slice of reference work, timed next to the program's work.

    The host is a VM whose speed follows its co-tenants: on the 2-CPU
    reference host the same eval batch took 0.74 s in one minute and 1.5 s
    a few minutes later, with steal under 1 %, and a pure-Python loop
    slowed by the same factor.  No statistic inside one run removes a
    drift that lasts minutes, so every timing the benchmark reports is
    rescaled to reference speed: a time measured between two probes is
    multiplied by ``REFERENCE_S`` over their mean.  ``REFERENCE_S`` is the
    probe's time on that host when it was quiet, so scaled figures read
    like quiet-host figures.  The raw figures are printed beside the
    scaled ones.

    The probe spends half its time in an interpreter loop and a quarter
    each in uniform draws and in compare-and-pack, the numpy kernels of
    the fault path.  Co-tenants slow these by different factors (BLAS
    least, the draws most); on a 5-minute trace of the reference host
    this mix tracked both eval workloads best, and cut the simulated
    10-run spread of 30-second medians from 0.16 to 0.020 (eval-clean)
    and from 0.21 to 0.014 (eval-faults).
    """

    REFERENCE_S = 0.007

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._uniform = np.random.default_rng(0).random(1 << 15)
        self.samples: List[float] = []

    def run(self) -> float:
        """Run the probe once; returns its time by ``clock`` in seconds."""
        start = self._clock()
        total = 0
        for i in range(60_000):
            total += i * i
        draws = np.random.default_rng(1)
        for _ in range(15):
            draws.random(1 << 15)
        for _ in range(150):
            np.packbits(self._uniform < 0.01)
        seconds = self._clock() - start
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor from a time measured between two probes to reference speed."""
        return self.REFERENCE_S / (0.5 * (before + after))


class Windows:
    """Images done and CPU spent between successive samples, at reference speed.

    The host's speed drifts from second to second too, so the benchmark
    reports the median window rather than the run's total.  Every sample
    runs the speed probe; a window's wall and CPU time exclude the probes
    at its ends and are scaled by their mean.  The probe here is timed by
    CPU clock (it shares the CPUs with busy shards), which leaves out
    steal, so a window's wall time is also scaled by the share of busy
    CPU time the hypervisor did not steal in it.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.cpu = CpuMeter()
        self.probe = probe
        self._samples: List[tuple] = []

    def _cpu_s(self) -> float:
        used = self.cpu.read()
        return used["self"] + used["children"]

    def sample(self, done: int) -> None:
        wall0, cpu0, ticks = time.perf_counter(), self._cpu_s(), StealMeter.read_ticks()
        probe_s = self.probe.run()
        self._samples.append((wall0, cpu0, ticks, probe_s, time.perf_counter(), self._cpu_s(), done))

    def rates(self) -> Dict[str, list]:
        """Per window: images per second, CPU ms per image, and its span.

        ``spans`` holds ``(start, end, scale)`` per window, in
        ``time.perf_counter`` seconds, for rescaling timings taken inside it.
        """
        img_s, cpu_ms, spans = [], [], []
        for first, second in zip(self._samples, self._samples[1:]):
            _, _, ticks0, probe0, start, cpu_start, done0 = first
            end, cpu_end, ticks1, probe1, _, _, done1 = second
            scale = self.probe.scale(probe0, probe1)
            wall_scale = scale * (1.0 - StealMeter.share(ticks0, ticks1))
            spans.append((start, end, wall_scale))
            if done1 > done0 and end > start:
                img_s.append((done1 - done0) / ((end - start) * wall_scale))
                cpu_ms.append((cpu_end - cpu_start) * 1e3 * scale / (done1 - done0))
        return {"img_s": img_s, "cpu_ms": cpu_ms, "spans": spans}


def scale_at(spans: List[tuple], when: float) -> float:
    """Scale of the window holding ``when``, or of the nearest window."""
    if not spans:
        return 1.0
    index = bisect.bisect_right([start for start, _, _ in spans], when) - 1
    return spans[min(max(index, 0), len(spans) - 1)][2]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children, in MB."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class StealMeter:
    """Share of all CPUs' time the hypervisor stole over a window, in %."""

    def __init__(self) -> None:
        self._start = self.read_ticks()

    @staticmethod
    def share(start: Optional[List[int]], end: Optional[List[int]]) -> float:
        """Share of the CPUs' busy time stolen between two tick readings."""
        if start is None or end is None or len(end) < 8:
            return 0.0
        user, nice, system, _, _, irq, softirq, steal = [b - a for a, b in zip(start[:8], end[:8])]
        busy = user + nice + system + irq + softirq + steal
        return steal / busy if busy > 0 else 0.0

    @staticmethod
    def read_ticks() -> Optional[List[int]]:
        try:
            with open("/proc/stat") as handle:
                fields = handle.readline().split()
        except OSError:
            return None
        return [int(value) for value in fields[1:]]

    def read(self) -> float:
        end = self.read_ticks()
        if self._start is None or end is None or len(end) < 8:
            return float("nan")
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])  # user..steal; guest time is already in user
        return 100.0 * delta[7] / total if total > 0 else 0.0

