"""A fixed reference computation that gauges the host's speed.

The measuring machine is a few cores of a shared host, and its speed
moves by a third or more within minutes.  The benchmark runs this
computation between ops, so that it knows how fast the host was while
each op ran, and scales its timed metrics to one fixed host speed
(``run.py``).  The computation does not touch ``causalot``, so no
change to the library can change its cost.  It is one small dense
transport LP solved by HiGHS through ``scipy.optimize.linprog``, which
mixes interpreted Python (scipy's checks and set-up) with native code, as
the library does.  Timed next to every workload's ops on the measuring
machine, its time moved with theirs as the host sped up and slowed down
(slope 0.93 to 1.06 in log time); a pure-Python loop moved about 1.4 times
as much as the ops, and a cache-missing lookup loop about 0.7 times.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import linprog

_N = 14  # the LP is an N x N transport problem
_COST = np.abs(np.subtract.outer(np.arange(_N), 1.1 * np.arange(_N))).ravel()
_A_EQ = np.vstack([np.kron(np.eye(_N), np.ones(_N)), np.kron(np.ones(_N), np.eye(_N))])
_B_EQ = np.full(2 * _N, 1.0 / _N)


def reference_seconds():
    """Wall seconds of one reference computation.  The garbage collector
    is paused meanwhile, so the library's heap does not change the cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        linprog(_COST, A_eq=_A_EQ, b_eq=_B_EQ, bounds=(0, None), method="highs")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
