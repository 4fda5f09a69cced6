"""A fixed reference kernel that tracks the speed of the host.

The benchmark shares a few cores of a host whose speed drifts by a third
or more over tens of seconds, because of work outside this machine.  The
kernel is written here, without ``ussir``, in the mix of code the
workloads run: :func:`array_kernel` is a small Euler-type loop of Python
float arithmetic and ufuncs on 50-wide and 2000-wide arrays,
:func:`object_kernel` is interpreter work on small objects, closures and
dicts, and :func:`block_kernel` fills and sweeps a random block from
per-path generators, larger than the core's caches.  No change to the
library can change the kernel's cost, so its time, measured next to an
operation of a run, tells how fast the host was then.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ARRAY_STEPS = 100
OBJECT_ITEMS = 6000
BLOCK_PATHS = 80
BLOCK_STEPS = 2500


def array_kernel() -> float:
    rng = np.random.default_rng(20220109)
    small = np.full((3, 50), 1.0 / 3.0)
    wide = np.full((3, 2000), 1.0 / 3.0)
    acc = 0.0
    for k in range(ARRAY_STEPS):
        for x in (small, wide):
            dw = rng.standard_normal(x.shape[1]) * 0.03
            flow = 0.5 * x[0] * x[1]
            x[0] -= 0.01 * flow + 0.1 * x[0] * x[1] * dw
            x[1] += 0.01 * (flow - 0.2 * x[1])
            x[2] += 0.002 * x[1]
            np.maximum(x, 1e-12, out=x)
            x /= x.sum(axis=0)
        a, b = float(small[0, k % 50]), float(small[1, k % 50])
        for _ in range(20):
            a, b = a + 0.01 * (b - a * b), b + 0.01 * (a * b - 0.2 * b)
        acc += a + b
    return acc


class _Item:
    __slots__ = ("value", "weight")

    def __init__(self, value: float, weight: float):
        self.value = value
        self.weight = weight


def object_kernel() -> float:
    def rate(x: float, y: float) -> float:
        return x * y + 0.5

    table: dict[int, _Item] = {}
    acc = 0.0
    for i in range(OBJECT_ITEMS):
        item = _Item(i * 0.1, 1.0)
        table[i % 97] = item
        acc += rate(item.value, item.weight) + len(str(i % 10))
    return acc


def block_kernel() -> float:
    gens = [np.random.default_rng([20220109, i]) for i in range(BLOCK_PATHS)]
    block = np.stack([g.standard_normal(BLOCK_STEPS) for g in gens])
    x = np.ones(BLOCK_PATHS)
    for k in range(0, BLOCK_STEPS, 10):
        x += 0.01 * block[:, k] * x
    return float(block.sum() + x.sum())


def timed() -> float:
    """Seconds the three kernels take now, one after another."""
    t0 = perf_counter()
    array_kernel()
    object_kernel()
    block_kernel()
    return perf_counter() - t0
