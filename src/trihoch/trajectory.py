"""Trajectories of the linear level quiver 1 -> 2 -> ... -> n and the
indexing of the tensor-factor modules they label.

A degree-l trajectory is a run of l moves, each either staying at a level
or jumping strictly upward; its components are stored last-move-first, so
component s is the tensor slot s of the module it labels.  The number of
jumps is the trajectory's length and drives the filtration downstream.
"""

from __future__ import annotations

import itertools

from .errors import InputError


class Stay:
    """The idle move at a level; labels a diagonal tensor slot."""

    __slots__ = ("vertex",)
    is_jump = False

    def __init__(self, vertex):
        self.vertex = vertex

    @property
    def source(self):
        return self.vertex

    @property
    def target(self):
        return self.vertex

    def __eq__(self, other):
        return isinstance(other, Stay) and other.vertex == self.vertex

    def __hash__(self):
        return hash(("stay", self.vertex))

    def __repr__(self):
        return f"e{self.vertex}"


class Jump:
    """A strict upward move between levels; labels an off-diagonal slot."""

    __slots__ = ("source", "target")
    is_jump = True

    def __init__(self, source, target):
        if not source < target:
            raise InputError(f"jump must go strictly upward, got {source}->{target}")
        self.source = source
        self.target = target

    def __eq__(self, other):
        return (isinstance(other, Jump) and other.source == self.source
                and other.target == self.target)

    def __hash__(self):
        return hash(("jump", self.source, self.target))

    def __repr__(self):
        return f"{self.source}->{self.target}"


class Trajectory:
    """components[0] is the last move, components[-1] the first; the
    explicit source survives the degree-0 case with no components."""

    __slots__ = ("components", "source")

    def __init__(self, components, source):
        self.components = tuple(components)
        self.source = source
        if self.components and self.components[-1].source != source:
            raise InputError("trajectory source does not match its first move")
        for s in range(len(self.components) - 1):
            if self.components[s + 1].target != self.components[s].source:
                raise InputError("trajectory moves are not consecutive")

    @property
    def degree(self):
        return len(self.components)

    @property
    def length(self):
        """Number of jumps; the filtration tag."""
        return sum(1 for c in self.components if c.is_jump)

    @property
    def target(self):
        return self.components[0].target if self.components else self.source

    def chronological(self):
        """Moves in the order they happen (reversed component order)."""
        return tuple(reversed(self.components))

    def visited(self):
        """Levels touched by the jumps, ascending: (k_1, ..., k_{t+1})."""
        out = [self.source]
        for move in self.chronological():
            if move.is_jump:
                out.append(move.target)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Trajectory)
                and other.components == self.components
                and other.source == self.source)

    def __hash__(self):
        return hash((self.components, self.source))

    def __repr__(self):
        if not self.components:
            return f"Traj(at {self.source})"
        return "Traj(" + ", ".join(map(repr, self.components)) + ")"


def enumerate_trajectories(n, l):
    """Every degree-l trajectory on n levels, each exactly once.

    Order: by source level, then lexicographically on the chronological
    move sequence, staying before jumping and nearer jumps before farther
    ones.  Degree 0 gives the n empty trajectories, one per level.
    """
    if n < 1 or l < 0:
        raise InputError("need n >= 1 levels and degree l >= 0")
    out = []
    for s in range(1, n + 1):
        if l == 0:
            out.append(Trajectory((), s))
            continue
        stack = [((), s)]
        acc = []
        while stack:
            chrono, cur = stack.pop()
            if len(chrono) == l:
                acc.append(Trajectory(tuple(reversed(chrono)), s))
                continue
            # push in reverse so stays pop first, then nearer jumps
            for w in range(n, cur, -1):
                stack.append((chrono + (Jump(cur, w),), w))
            stack.append((chrono + (Stay(cur),), cur))
        out.extend(acc)
    return out


def slot_dims(t, tau):
    """Dimension of each tensor slot of the module labeled by tau, in
    component (slot) order, over the triangular algebra t."""
    dims = []
    for move in tau.components:
        if move.is_jump:
            dims.append(t.block_dim(move.target, move.source))
        else:
            dims.append(t.diag[move.vertex - 1].dim)
    return dims


def module_dim(t, tau):
    """Product of the slot dimensions; 1 for the empty trajectory, 0 as
    soon as any jump crosses a zero block."""
    d = 1
    for sd in slot_dims(t, tau):
        d *= sd
    return d


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
