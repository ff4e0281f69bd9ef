"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same work can take up to twice as long from one minute
to the next (see README, "Noise"). The benchmark times a kernel next to every
item it measures and divides the item's time by the host factor: how much
longer the kernel took than on the host the baseline was measured on. A
change in the host's speed moves the item and the kernel alike and cancels; a
change in qvarsched moves only the item, because the kernels are part of the
benchmark and call nothing of the package.

A workload's kernel is made of the parts below that do the kind of work the
workload does, since a busy neighbour slows interpreted code and streaming
over arrays by different amounts: interpreted Python (the optimizer), numpy
calls on 256-element arrays (per-gate dispatch at Q=8) and in-place numpy
passes over a 4 MiB array (larger than a core's L2, like the Q=14..20 state
vectors).
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.random(256) + 0j
# Updated in place, so the kernels add 4 MiB to the child's resident memory
# once, at import, and allocate nothing large when they run.
_LARGE = _rng.random(1 << 18) + 0j


def _python():
    total = 0.0
    table = {}
    for i in range(60000):
        total += (i * 1.5) % 7.0
        table[i & 255] = total
    return total


def _small():
    state = _SMALL
    for _ in range(2500):
        state = (state * 0.999 + 0.001).reshape(16, 16).T.reshape(-1)
    return state


def _large():
    state = _LARGE
    for _ in range(18):
        state *= 0.999
        state += 0.001


# Each part with its median seconds on the host the baseline in README.md
# was measured on. Only a scale: whatever these values, results measured on
# one host stay comparable between commits.
PARTS = {
    "python": (_python, 0.012),
    "small": (_small, 0.012),
    "large": (_large, 0.008),
}

# The share of a run spent timing the kernel after each item.
KERNEL_SHARE = 0.05
# Set-up imports numpy and scipy: interpreted code and small C calls, the
# same for every workload.
SETUP_KERNEL = ("python", "small")


def reference_s(parts) -> float:
    return sum(PARTS[name][1] for name in parts)


def host_factor(parts, reps: int = 1) -> float:
    """The parts' median time over reps runs, over their reference time."""

    def once() -> float:
        start = perf_counter()
        for name in parts:
            PARTS[name][0]()
        return perf_counter() - start

    return statistics.median(once() for _ in range(reps)) / reference_s(parts)


def settled_host_factor(parts, reps: int = 3) -> float:
    """host_factor after one untimed warm-up run."""
    for name in parts:
        PARTS[name][0]()
    return host_factor(parts, reps)


def reps_after(parts, item_s: float) -> int:
    """Kernel runs after an item of item_s seconds: about KERNEL_SHARE of it."""
    return 1 + int(KERNEL_SHARE * item_s / reference_s(parts))
