"""Reference speed: scale measured times to a steady CPU.

The sandboxes this benchmark runs in share their CPUs with other tenants,
and the speed of the same Python code drifts by up to a factor of two,
both over tens of seconds and between a fast and a slow state within a
second; process CPU time drifts with wall time, so it is the CPU that
slows, not the scheduler that stalls.  The benchmark therefore times a
fixed piece of stdlib-only work next to the program and reports each
time at reference speed:

    reported = measured * REFERENCE_NS / (time the reference work took nearby)

The reference work does not import divdiff, so a change to the program
moves the reported times exactly as it moves the measured ones, while a
slower host moves both and cancels out.
"""

import statistics
import time
from fractions import Fraction

# Typical time of reference_work() on a shared 2-CPU 2.1 GHz sandbox (Python 3.11).
REFERENCE_NS = 1_200_000


def reference_work() -> int:
    """About 1 ms of Fraction arithmetic, Fraction-keyed dict inserts and
    formatting.  It tracked divdiff's ops on all four workloads better than
    a mix that added argument parsing and JSON output."""
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    table = {}
    for i in range(400):
        table[Fraction(i, 7)] = format(i * 7919, "x")
    return acc.denominator.bit_length() + len(table)


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


def reference_samples(count: int = 5) -> list:
    return [reference_ns() for _ in range(count)]


def scale(window: list) -> float:
    """Factor that turns a measured time into a reference-speed time.

    The CPU flips between a fast and a slow state many times a second, so
    the mean of the samples (the time-average speed) is what tracks the
    time of work done alongside them; a median would snap to one state.
    Samples over three times the median (a preempted sample) are capped.
    """
    cap = 3 * statistics.median(window)
    return REFERENCE_NS / statistics.fmean(min(ns, cap) for ns in window)
