"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same inputs run 30-60 % slower for minutes at a time,
and the speed also changes from one tenth of a second to the next.  The
benchmark runs a pass of the kernel right before and right after every
repetition, on the same CPU, and scales the repetition's run time by REF_S
over the median of the passes' slices (`slices_s`); short run_sua samples
are scaled likewise by slices run right before and after each of them (see
child.py).  A time then reads as on a host where the kernel takes REF_S, and
a slow phase that slows the program and the kernel alike cancels out.  The
kernel is the benchmark's own code, so a change to the program cannot change
it; it mixes what the program's hot paths do: small linear solves called from
Python, interpreter-bound loops over dicts and heaps, and elementwise array
work."""

from __future__ import annotations

import heapq
import time

import numpy as np

REF_S = 0.15    # the kernel's time on a 2-vCPU Intel Xeon VM when it ran fastest
PASS_SLICES = 4


def kernel_s(parts: int) -> float:
    """Wall time of 1/parts of a pass of the reference computation, scaled up
    to a whole pass."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a @ a.conj().T + np.eye(4)
    v = rng.standard_normal(4) + 0j
    x = rng.standard_normal(100_000)
    y = rng.standard_normal(100_000)

    t0 = time.perf_counter()
    for _ in range(3000 // parts):
        s = np.linalg.solve(a, v)
        v = np.eye(4) @ s / np.einsum("i,i->", s.conj(), s).real ** 0.5
    heap, seen = [], {}
    for i in range(60_000 // parts):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i & 1023] = seen.get(i & 1023, 0) + 1
    while heap:
        heapq.heappop(heap)
    for _ in range(24 // parts):
        r = np.sqrt(x * x + y * y)
        np.sum(np.where(r > 1.0, x, y))
    return (time.perf_counter() - t0) * parts


def slices_s() -> list:
    """One pass run as PASS_SLICES slices, each slice's time scaled up to a
    pass; their median shrugs off a hiccup in one slice."""
    return [kernel_s(PASS_SLICES) for _ in range(PASS_SLICES)]
