"""Host speed probe: report host times at a fixed reference speed.

The benchmark shares its machine with other tenants, and the machine's
speed drifts by up to ~1.9x for seconds to minutes at a time: the same
loop then takes up to 1.9x the CPU time, so the cores themselves run
slower.  A run of the simulator cannot average out a slowdown that
lasts longer than the run, so the harness times a small fixed piece of
work -- the *probe*, a mix of dict, attribute and numpy operations like
the simulator's own -- next to the units it measures.  The probe's
median over a stretch of units, divided by :data:`REFERENCE_S`, is the
host's slowness factor for that stretch; each host time measured in it
is divided by that factor.  The result reads as the time the work takes
on a host where the probe takes :data:`REFERENCE_S`.

The probe is timed in thread CPU time, so that it measures how fast the
core runs and not whether something else held it.  It is the
benchmark's own code: a change to the program moves the measured time
and not the factor.  Run records keep the factors and the uncorrected
figures next to the corrected values.
"""

import statistics
import time

#: probe CPU time (s) on the reference host: the median measured on a
#: calm 2-vCPU x86-64 VM with CPython 3 and numpy
REFERENCE_S = 0.00045
#: probes per burst (a burst takes ~15 ms)
BURST = 30
#: pause before an idle burst, for exiting pool workers to be gone
SETTLE_S = 0.05


class _Holder:
    __slots__ = ("total",)


def probe():
    """CPU seconds the fixed probe work takes now."""
    # imported here: the harness imports this module before it starts
    # timing a cold start, whose cost includes the program's numpy import
    import numpy

    start = time.thread_time()
    table = {}
    holder = _Holder()
    holder.total = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        holder.total += i
    column = numpy.arange(4096)
    for __ in range(20):
        column = (column * 3 + 1) & 0xFFFF
    return time.thread_time() - start


def factor(probes):
    """Host slowness over ``probes``: their median over the reference."""
    return statistics.median(probes) / REFERENCE_S


def burst():
    """Slowness factor from a burst of probes run back to back."""
    return factor([probe() for __ in range(BURST)])


def idle_burst():
    """:func:`burst` after a short pause, between pool runs."""
    time.sleep(SETTLE_S)
    return burst()
