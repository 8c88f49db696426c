"""The host's pace, measured next to every timed op, and the scaling of op
times to a fixed reference pace.

A shared host changes how fast it runs this process by up to a factor of
two, in phases that last from seconds to many minutes, while the guest
sees no steal time: CPU time slows exactly as wall time does.  No
statistic over one run removes a phase that covers the run.  So every
timed op is bracketed by a probe: a fixed workload of the standard library
alone, interpreter-bound like hooplog (trees of slotted objects, structural
keys, sorting, dict and tuple churn, nested loops over a small table), which
no change to hooplog can move.
An op's wall time is scaled by `REF_PROBE_S` over the mean of the probes
before and after it, which gives the time the op would take at the pace
where the probe takes `REF_PROBE_S`.  The wall times and the probe times
themselves are kept and reported next to the scaled ones.
"""

from __future__ import annotations

import functools
import gc
import random
from time import perf_counter

# About the probe's wall time in the fast phases of a 2-CPU Xeon VM at
# 2.0 GHz with Python 3.11.7; in its slow phases the probe takes twice as long.
REF_PROBE_S = 0.080


class _Node:
    __slots__ = ("op", "kids", "_key")

    def __init__(self, op, kids):
        self.op = op
        self.kids = kids
        self._key = None

    def key(self):
        k = self._key
        if k is None:
            k = self._key = (self.op,) + tuple(c.key() for c in self.kids)
        return k


def _tree(rng: random.Random, size: int) -> _Node:
    if size <= 1:
        return _Node(rng.choice("abcd"), ())
    left = rng.randint(1, size - 1)
    return _Node(rng.choice("+*-"), (_tree(rng, left), _tree(rng, size - left)))


def _normalize(n: _Node, memo: dict) -> _Node:
    """Flatten and sort the arguments of `+` and `*`, share equal subtrees."""
    if not n.kids:
        return n
    kids = [_normalize(c, memo) for c in n.kids]
    if n.op != "-":
        flat = []
        for c in kids:
            flat.extend(c.kids if c.op == n.op else (c,))
        kids = sorted(flat, key=_Node.key)
    out = _Node(n.op, tuple(kids))
    return memo.setdefault(out.key(), out)


@functools.cache
def _inputs():
    """Built on first use, so that child interpreters that never probe do
    not carry them."""
    rng = random.Random(0)
    trees = [_tree(rng, rng.randint(4, 24)) for _ in range(300)]
    return trees, [[rng.randrange(6) for _ in range(6)] for _ in range(6)]


def probe() -> int:
    """The fixed workload; its result is always the same.  It adds about
    3 MB to the peak RSS of the process that runs it."""
    trees, t = _inputs()
    size = 0
    for _ in range(3):
        memo: dict = {}
        for tree in trees:
            _normalize(tree, memo)
        size += len(memo)
    counts: dict = {}
    for i in range(60000):
        k = (i % 97, (i * 7) % 13)
        counts[k] = counts.get(k, 0) + len(k)
    n, assoc = len(t), 0
    for _ in range(100):
        for a in range(n):
            row = t[a]
            for b in range(n):
                ab, tb = row[b], t[b]
                for c in range(n):
                    assoc += t[ab][c] == row[tb[c]]
    return size + len(counts) + assoc


def probe_s() -> float:
    # The collector would add its own noise to the probe: back-to-back
    # probes differ by 15% with it and 11% without it.
    gc.disable()
    try:
        t0 = perf_counter()
        probe()
        return perf_counter() - t0
    finally:
        gc.enable()


class Pace:
    """Probes between consecutive timed blocks.  `next_scale()` runs the
    probe that closes the current block and returns the factor that takes
    the block's wall times to the reference pace."""

    def __init__(self):
        self.probes = [probe_s()]

    def next_scale(self) -> float:
        self.probes.append(probe_s())
        return 2 * REF_PROBE_S / (self.probes[-2] + self.probes[-1])
