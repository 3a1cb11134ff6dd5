"""A fixed piece of work that measures the host's speed, not the program's.

The host this benchmark was tuned on is shared: its speed drifts by up to 1.6x
in phases of tens of seconds to minutes, so raw wall times of the same code
differ more between runs than the bounds in ``BENCHMARK.json`` allow.  The
probe is the benchmark's own code and calls nothing in ``planewidth``: it
mixes what the workloads spend their time on (big-int bit masks, sets,
text parsing, small numpy calls, and building a list and a dict of about
2 MB).  The worker runs it between operations, every quarter second or so,
and ``run.py`` reports the run's set-up and pass times scaled to a host on
which one probe call takes ``REF_S``::

    time at reference speed = wall time * REF_S / (the run's median probe)

A change to the program moves the scaled time exactly as it moves the raw
one; a change in the host's speed moves the probe as well and cancels out.
"""

import random
import statistics
import time

import numpy as np

#: The median probe call in the first runs on the host the benchmark was
#: tuned on (a shared 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy
#: on one thread).  Later runs' medians there ranged from 0.011 to 0.020 s.
REF_S = 0.018
#: Entries of the list and the dict, about 2 MB: more than a core's own
#: cache holds.
ROWS = 15000


class Probe:
    """Each call is timed and its time kept."""

    def __init__(self):
        rng = random.Random(20240601)
        self.masks = [rng.getrandbits(128) for _ in range(150)]
        self.sets = [frozenset(rng.sample(range(200), 50)) for _ in range(40)]
        self.text = "\n".join("%d %d" % (rng.randrange(1000),
                                         rng.randrange(1000))
                              for _ in range(4200))
        self.vec = np.linspace(0.0, 1.0, 32)
        self.times = []
        self()                          # warm-up, not kept
        self.times.clear()

    def __call__(self):
        t = time.perf_counter()
        acc = 0
        for a in self.masks:
            for b in self.masks:
                acc += (a & ~b).bit_length()
        for a in self.sets:
            for b in self.sets:
                acc += len(a & b)
        for line in self.text.splitlines():
            u, v = line.split()
            acc += int(u) < int(v)
        x = self.vec
        for _ in range(900):
            x = np.sqrt(x * x + 1.0) - 1.0
        rows = [(i, (i * 7919) % ROWS) for i in range(ROWS)]
        index = {}
        for u, v in rows:
            index[v] = u
        acc += len(index)
        self.times.append(time.perf_counter() - t)
        return acc

    def factor(self):
        """REF_S over the median call: wall time times this is time at
        the reference speed."""
        return REF_S / statistics.median(self.times)
