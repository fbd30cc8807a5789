"""A short, fixed host-speed probe.

It times work that no depolcap change can touch: numpy eigendecompositions
of one fixed 6x6 Hermitian matrix and a pure-Python loop, about 0.2 s in
all. Recorded beside every set of runs, it tells drift of the host apart
from a change in the program. It is not an end-to-end metric.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def host_probe(repeats: int = 3) -> dict:
    """Fastest of ``repeats`` timings of each half, in seconds."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = g + g.conj().T
    numeric, python = [], []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(2000):
            np.linalg.eigh(h)
        numeric.append(perf_counter() - start)
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        python.append(perf_counter() - start)
    return {"probe_eigh_s": min(numeric), "probe_python_s": min(python)}
