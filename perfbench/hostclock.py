"""Host-speed clock: wall time converted to seconds at a fixed reference speed.

A shared host runs the same Python code up to 1.6-2x slower for phases of
seconds to minutes, in two ways: the processor itself runs slower (CPU
time grows with wall time), and in the heaviest phases the hypervisor
also takes up to a fifth of each vCPU's time away (steal time in
``/proc/stat``).  Raw wall times of one workload then spread by 20-40%
from run to run.

This module measures that speed while the workload runs.  A sampler
process (``python3 perfbench/hostclock.py OUT CPUS``) times a fixed
pure-Python kernel every ``INTERVAL_S`` seconds, by CPU time, and appends
``<perf_counter> <cpu> <kernel seconds> <steal>,<total> ...`` lines to
``OUT``, the last fields being each CPU's steal and total ticks so far.
While the file ``OUT.follow`` names a pid, it samples the CPU that process
last ran on (work done by one process); otherwise it samples each of
``CPUS`` in turn (work spread over a pool or a server's workers).
:class:`HostClock` reads the lines back and converts a wall interval into
reference seconds::

    reference seconds = wall seconds * REFERENCE_KERNEL_S / kernel seconds
                        * (1 - steal share)

with the kernel time averaged (as a speed) over the samples taken during
the interval, and the steal share taken over the same interval on the
CPUs those samples ran on.  A reference second is a second on a host that
runs the kernel in ``REFERENCE_KERNEL_S`` and steals no time; a change to
the program that adds work adds reference seconds, while a slow phase of
the host does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Kernel time (CPU seconds) that defines one reference second.
REFERENCE_KERNEL_S = 0.0015
KERNEL_ITERATIONS = 8_000
INTERVAL_S = 0.05
#: Fewest samples a conversion averages over; short intervals borrow the
#: samples nearest to them.
MIN_SAMPLES = 4


def kernel() -> int:
    """Dictionary and integer churn, the kind of work the program's Python does."""
    table: dict = {}
    total = 0
    for i in range(KERNEL_ITERATIONS):
        key = i % 1021
        table[key] = table.get(key, 0) + i
        total += i & 7
    return total


def last_cpu(pid: int) -> Optional[int]:
    """The CPU ``pid`` last ran on (field 39 of ``/proc/<pid>/stat``), if readable."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


def cpu_ticks(cpus: Sequence[int]) -> List[Tuple[int, int]]:
    """(steal, total) ticks so far of each of ``cpus``, from ``/proc/stat``."""
    ticks = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if not line.startswith("cpu") or line.startswith("cpu "):
                continue
            name, *fields = line.split()
            # user nice system idle iowait irq softirq steal; the guest
            # fields after them are already counted in user and nice.
            counts = [int(f) for f in fields[:8]]
            ticks[int(name[3:])] = (counts[7], sum(counts))
    return [ticks.get(cpu, (0, 0)) for cpu in cpus]


def followed_pid(control_path: str) -> Optional[int]:
    try:
        with open(control_path, encoding="ascii") as control:
            return int(control.read())
    except (OSError, ValueError):
        return None


def sample_forever(out_path: str, cpus: Sequence[int]) -> None:
    """The sampler process: one kernel timing per ``INTERVAL_S``, until orphaned."""
    parent = os.getppid()
    kernel()
    with open(out_path, "a", encoding="ascii") as out:
        turn = 0
        while os.getppid() == parent:
            cpu = cpus[turn % len(cpus)]
            turn += 1
            follow = followed_pid(out_path + ".follow")
            if follow is not None:
                current = last_cpu(follow)
                cpu = current if current in cpus else cpu
            os.sched_setaffinity(0, {cpu})
            time.sleep(INTERVAL_S)
            best = None
            for _ in range(2):
                start = time.thread_time()
                kernel()
                spent = time.thread_time() - start
                best = spent if best is None else min(best, spent)
            ticks = " ".join(f"{steal},{total}" for steal, total in cpu_ticks(cpus))
            out.write(f"{time.perf_counter():.6f} {cpu} {best:.9f} {ticks}\n")
            out.flush()


class HostClock:
    """Reads the sampler's timings and converts wall intervals to reference seconds."""

    def __init__(self, out_path: Path, follow: Optional[int] = None) -> None:
        """Start the sampler, following ``follow`` (see :meth:`follow`)."""
        self.out_path = out_path
        self.cpus = sorted(os.sched_getaffinity(0))
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text("")
        self.follow(follow)
        self._offset = 0
        #: (perf_counter, kernel seconds, CPU index, [(steal, total) per CPU])
        self.samples: List[Tuple[float, float, int, List[Tuple[int, int]]]] = []
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(out_path),
             ",".join(str(c) for c in self.cpus)],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while len(self._load()) < 2 * MIN_SAMPLES * len(self.cpus):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("host-speed sampler produced no samples")
            time.sleep(INTERVAL_S)

    def follow(self, pid: Optional[int]) -> Optional[int]:
        """Sample the CPU ``pid`` runs on, or every CPU in turn when None.

        Returns the pid followed before, so a caller can restore it.
        """
        control = Path(f"{self.out_path}.follow")
        before = followed_pid(str(control))
        control.write_text("" if pid is None else str(pid))
        return before

    def _load(self) -> list:
        with open(self.out_path, "rb") as src:
            src.seek(self._offset)
            data = src.read()
        end = data.rfind(b"\n") + 1
        self._offset += end
        for line in data[:end].decode("ascii").splitlines():
            stamp, cpu, spent, *ticks = line.split()
            self.samples.append((
                float(stamp), float(spent), self.cpus.index(int(cpu)),
                [tuple(int(t) for t in pair.split(",")) for pair in ticks],
            ))
        return self.samples

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]`` in reference seconds per wall second."""
        samples = self._load()
        inside = [s for s in samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
            inside.sort(key=lambda s: s[0])
        running = sum(REFERENCE_KERNEL_S / s[1] for s in inside) / len(inside)
        # Steal share between the first and last sample, on the CPUs the
        # samples ran on (weighted by how many ran on each).
        first, last = inside[0][3], inside[-1][3]
        stolen = elapsed = 0.0
        for index in range(len(self.cpus)):
            weight = sum(1 for s in inside if s[2] == index)
            stolen += weight * (last[index][0] - first[index][0])
            elapsed += weight * (last[index][1] - first[index][1])
        return running * (1.0 - (stolen / elapsed if elapsed else 0.0))

    def span(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds."""
        return (end - start) * self.speed(start, end)

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.terminate()
            self.proc.wait()
            self.proc = None


if __name__ == "__main__":
    try:
        sample_forever(sys.argv[1], [int(c) for c in sys.argv[2].split(",")])
    except KeyboardInterrupt:
        pass
