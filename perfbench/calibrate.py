"""Host-speed calibration: a fixed loop that shares each sample's CPU.

Usage (run.py starts it; by hand, from the repository root):
    python3 perfbench/calibrate.py PATH CPU NICE

The speed of the benchmark host drifts: on a 2-vCPU VM a plain
``Fraction`` loop ran anywhere between 0.11 and 0.22 s per chunk, from
one second to the next, with no stolen time reported, so neither wall
time nor CPU time of a sample repeats.  This loop runs on the same CPU as
the sample, pinned there, and the kernel interleaves the two in slices
of a few milliseconds, so both see the same host speed.  After every
unit of work the loop stores ``(units done, own CPU ns)`` in a small
file ``PATH`` that the sample reads (see ``Speed``).  The sample's CPU
time multiplied by the loop's rate over the same interval, divided by
``REF_RATE``, is the time the sample would take on a host where the
loop runs ``REF_RATE`` units per CPU second.

The loop never changes: it is the yardstick.  It exits when its parent
exits, and after ``MAX_LIFETIME_S`` at the latest.
"""

import mmap
import os
import struct
import sys
import time
from fractions import Fraction

RECORD = struct.Struct("<qq")  # units done, CPU ns of the loop
REF_RATE = 3000.0  # units per CPU second on the reference host
MAX_LIFETIME_S = 300
POLL_S = 0.001
MAX_WAIT_S = 10


def unit():
    """One unit of the yardstick: small-Fraction arithmetic and dict stores,
    the mix that dominates homq's Scalar layer."""
    s = Fraction(0)
    d = {}
    for i in range(1, 40):
        s += Fraction(i % 5 + 1, i % 7 + 2) * Fraction(3, i + 1)
        d[(i, i % 3)] = s
    return s


def create(path):
    with open(path, "wb") as fh:
        fh.write(bytes(RECORD.size))


def loop(path, cpu, nice):
    os.sched_setaffinity(0, {cpu})
    if nice:
        os.nice(nice)
    parent = os.getppid()
    deadline = time.monotonic() + MAX_LIFETIME_S
    clock = time.thread_time_ns
    fd = os.open(path, os.O_RDWR)
    try:
        record = mmap.mmap(fd, RECORD.size)
    finally:
        os.close(fd)
    units = 0
    while True:
        unit()
        units += 1
        RECORD.pack_into(record, 0, units, clock())
        if units % 256 == 0 and (os.getppid() != parent
                                 or time.monotonic() > deadline):
            return


class Speed:
    """Reads the loop's record; ``rate(a, b)`` is its speed between two
    reads, in units per CPU second."""

    def __init__(self, path):
        fd = os.open(path, os.O_RDONLY)
        try:
            self._map = mmap.mmap(fd, RECORD.size, prot=mmap.PROT_READ)
        finally:
            os.close(fd)

    def read(self):
        while True:
            first = RECORD.unpack_from(self._map, 0)
            if RECORD.unpack_from(self._map, 0) == first:  # not torn
                return first

    def read_after(self, mark, min_units):
        """The first record at least ``min_units`` past ``mark``; waits
        (asleep, so the loop has the CPU) if the loop is not there yet."""
        deadline = time.monotonic() + MAX_WAIT_S
        while True:
            now = self.read()
            if now[0] - mark[0] >= min_units:
                return now
            if time.monotonic() > deadline:
                raise RuntimeError("the calibration loop has stopped")
            time.sleep(POLL_S)

    @staticmethod
    def rate(a, b):
        return (b[0] - a[0]) / ((b[1] - a[1]) / 1e9)


if __name__ == "__main__":
    loop(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
