"""A fixed computation that gauges how fast the host runs right now.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds and by half over minutes, with the load of other machines on
the same hardware.  The benchmark times this reference computation
right before and right after every op and reports op times as
multiples of it (``ref``), which cancels most of that drift.  It uses
nothing from ``weyltriplets``, so no change to the library can move it:
float formatting in the interpreter (the kind of work CLI rendering
does) and a complex matrix product and SVD in numpy (the kind the
dense pipeline does), about 15-20 ms in all on a 2-CPU Xeon.
"""

from time import perf_counter

import numpy as np


def reference():
    """The reference computation; returns a number so nothing is skipped."""
    text = ",".join(format(x * 1.000001, ".17g") for x in range(12000))
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((240, 240)) + 1j * rng.standard_normal((240, 240))
    prod = a @ a
    sv = np.linalg.svd(a[:160, :160], compute_uv=False)
    return len(text) + prod[0, 0].real + sv[0]


def timed():
    """Wall time of one reference computation, in seconds."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
