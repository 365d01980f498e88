"""Speed reference that shares the benchmark's CPU.

Usage: python3 calib.py LOG

Repeats a fixed work unit (mpmath and Fraction arithmetic and small-object
churn, like the work rankzero does) and appends the ``time.perf_counter``
reading at the end of each unit to LOG, one per line.  The benchmark pins
itself, its children and this process to one CPU, so whenever a measured
command runs, the scheduler splits the CPU between that command and this
loop in the fixed ratio of their weights; the units finished in the
command's interval measure the command's CPU work independently of how fast
the (shared, noisy) machine happened to run.  The benchmark stops it with
SIGTERM.
"""

import os
import sys
import time
from fractions import Fraction

from mpmath import mp

UNIT_STEPS = 120
# The scheduler gives a nice-10 task 110/1024 of a nice-0 task's share, so
# the measured command keeps about nine tenths of the CPU.
NICENESS = 10
WEIGHT_RATIO = 1024 / 110


def unit() -> int:
    """One unit of work shaped like rankzero's: mpmath arithmetic at the
    benchmark's working precision, Fraction arithmetic and object churn."""
    acc = Fraction(0)
    seen = {}
    with mp.workprec(230):
        x = mp.mpf(1)
        for i in range(1, UNIT_STEPS + 1):
            x = mp.log1p(mp.exp(x / 7)) + mp.mpf(i) / 3
            acc += Fraction(i % 97 + 1, 3 ** (i % 13) * 7)
            seen[i % 64] = (acc.denominator & 0xFF, x)
    return len(seen)


def main() -> None:
    os.nice(NICENESS)
    with open(sys.argv[1], "w", buffering=1) as log:
        log.write(f"{time.perf_counter()!r}\n")
        while True:
            unit()
            log.write(f"{time.perf_counter()!r}\n")


if __name__ == "__main__":
    main()
