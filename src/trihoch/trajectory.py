"""Trajectories of the linear level quiver 1 -> 2 -> ... -> n and the
indexing of the tensor-factor modules they label.

A degree-l trajectory is a run of l moves, each either staying at a level
or jumping strictly upward.  It is keyed by a plain tuple: the (source,
target) pair of each move, last move first, and then its source level.  So
the pair at position s labels tensor slot s of the module, a stay at v is
(v, v), and the degree-0 trajectory at level s is (s,).  The number of
jumps is the trajectory's length and drives the filtration downstream.
"""

from __future__ import annotations

import itertools

from .errors import InputError


def enumerate_trajectories(n, l):
    """The key of every degree-l trajectory on n levels, each exactly once.

    Order: by source level, then lexicographically on the chronological
    move sequence, staying before jumping and nearer jumps before farther
    ones.  Degree 0 gives the n keys (s,), one per level.
    """
    if n < 1 or l < 0:
        raise InputError("need n >= 1 levels and degree l >= 0")
    out = []
    for s in range(1, n + 1):
        stack = [((s,), s)]
        while stack:
            key, cur = stack.pop()
            if len(key) > l:
                out.append(key)
                continue
            # push in reverse so the stay pops first, then nearer jumps
            for w in range(n, cur - 1, -1):
                stack.append((((cur, w),) + key, w))
    return out


def slot_dims(t, tau):
    """Dimension of each tensor slot of the module labeled by the key tau,
    in slot order, over the triangular algebra t."""
    return [t.block_dim(b, a) for a, b in tau[:-1]]


class TrajectoryBasis:
    """Mixed-radix indexing of the tensor basis of a trajectory's module.

    Slot 0 is the most significant digit.  Degree 0 has the single empty
    tuple at flat index 0.
    """

    __slots__ = ("trajectory", "slot_dims", "dim", "_strides")

    def __init__(self, trajectory, slot_dims):
        self.trajectory = trajectory
        self.slot_dims = tuple(slot_dims)
        strides = []
        acc = 1
        for d in reversed(self.slot_dims):
            strides.append(acc)
            acc *= d
        self._strides = tuple(reversed(strides))
        self.dim = acc

    @classmethod
    def over(cls, t, tau):
        return cls(tau, slot_dims(t, tau))

    def flat_index(self, tup):
        k = 0
        for x, stride in zip(tup, self._strides):
            k += x * stride
        return k

    def tuples(self):
        return itertools.product(*(range(d) for d in self.slot_dims))

    def __repr__(self):
        return f"TrajectoryBasis({self.trajectory!r}, dim {self.dim})"
