"""The reference kernel, timed in an interpreter of its own.

A worker starts this script once and asks it for timings between ops.  The
kernel's times therefore share no heap, garbage collector, caches or
imports with the program under test, and change only with the speed the
machine gives.  Each request on stdin is a line `<min_reps> <min_s>`; the
reply is one line, a JSON list of the times.  The script exits when its
stdin ends.
"""

import json
import sys
import time
from fractions import Fraction

# The kernel's median time when the machine runs at the speed the figures
# are scaled to (a 2-vCPU Intel Xeon VM, in a quiet phase).
REFERENCE_S = 0.008


def reference_kernel():
    """Fixed pure-Python work of the library's kind: Fraction sums and an
    integer matrix power.  It calls no toridyn code."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i * 7919 % 1013, i)
    m = [[(i * j + 3) % 17 for j in range(6)] for i in range(6)]
    for _ in range(60):
        m = [[sum(m[i][k] * m[k][j] for k in range(6)) % 1000003
              for j in range(6)] for i in range(6)]
    return acc, m


def time_reference(min_reps, min_s=0.0):
    """Times of at least `min_reps` kernel runs lasting at least min_s."""
    times = []
    while len(times) < min_reps or sum(times) < min_s:
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def main():
    for line in sys.stdin:
        reps, min_s = line.split()
        sys.stdout.write(json.dumps(time_reference(int(reps), float(min_s))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
