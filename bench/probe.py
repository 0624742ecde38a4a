"""Host-speed probe: a fixed piece of work, timed next to the program's.

The benchmark runs on shared virtual machines whose cores change speed by
up to 2x, in stretches from a fraction of a second to minutes, with CPU
time equal to wall time, so neither the fastest nor the median pass can
undo a slow stretch that covers a whole run.  The probe is a fixed mix of
the kinds of work the program does, pure-Python loops, scalar mpmath
arithmetic and small numpy array expressions, that takes about 2 ms.  It
is timed between requests, and every request time the benchmark reports is
scaled by REF_PROBE_S / (the probe's time around it): the time the work
would take on a host where the probe takes REF_PROBE_S.  The probe does not
call the program, so a change to the program moves the scaled times exactly
as it moves the raw ones.
"""

import time

import mpmath
import numpy as np

# the probe's median time between requests on the host the benchmark was
# sized on (Intel Xeon, 2-vCPU virtual machine, pure-Python mpmath backend),
# so scaled times read close to the raw times there
REF_PROBE_S = 2.0e-3
_X = np.linspace(0.1, 1.0, 2000)


def probe():
    """Wall time of the fixed work, in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i % 7
    with mpmath.workprec(192):
        x, y = mpmath.mpf(1) / 3, mpmath.mpf(2)
        for _ in range(150):
            x = (x * y + 1) / (x + y)
    for _ in range(10):
        np.sum(np.sqrt(np.abs((_X - 0.3) * (_X + 0.2) * (_X - 0.7))) / (_X + 1.0))
    return time.perf_counter() - t0


def scale(before, after):
    """Factor that takes a time measured between two probes to reference speed."""
    return 2.0 * REF_PROBE_S / (before + after)
