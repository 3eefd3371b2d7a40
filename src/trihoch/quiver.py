"""Quivers, level structures, path algebras, incidence algebras of
simplicial complexes, and a simplicial-cochain oracle.

Both algebras are morphism algebras of a category whose non-identity
morphisms raise the level of their object, and ``_morphism_algebra``
presents such a category as a triangular algebra.  For an acyclic quiver the
levels come from longest paths and the morphisms are paths; for a
simplicial complex the objects are faces graded by dimension and the
morphisms are comparable pairs, and its simplicial cohomology is computed
independently as a cross-check.
"""

from __future__ import annotations

import itertools

from .algebra import Bimodule, BimoduleMap, FiniteDimAlgebra, TriangularAlgebra
from .errors import InputError
from .exactla import QQ, Matrix, matrix_rank


class Quiver:
    __slots__ = ("vertices", "arrows", "_vpos", "_out")

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex labels")
        labels = [a[0] for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate arrow labels")
        self._vpos = {v: k for k, v in enumerate(self.vertices)}
        for (lab, s, t) in self.arrows:
            if s not in self._vpos or t not in self._vpos:
                raise InputError(f"arrow {lab}: endpoint not a vertex")
        self._out = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a[1]].append(a)

    def out_arrows(self, v):
        return self._out[v]

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class LevelAssignment:
    __slots__ = ("level", "n")

    def __init__(self, level, n):
        self.level = dict(level)
        self.n = n

    def __repr__(self):
        return f"LevelAssignment(n={self.n})"


def check_acyclic(q):
    """True iff the quiver has no directed cycle (self-loops included)."""
    state = {v: 0 for v in q.vertices}  # 0 new, 1 on stack, 2 done
    for start in q.vertices:
        if state[start]:
            continue
        stack = [(start, iter(q.out_arrows(start)))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            adv = next(it, None)
            if adv is None:
                state[v] = 2
                stack.pop()
                continue
            w = adv[2]
            if state[w] == 1:
                return False
            if state[w] == 0:
                state[w] = 1
                stack.append((w, iter(q.out_arrows(w))))
    return True


def compute_levels(q):
    """Level of each vertex = 1 + length of the longest path ending there."""
    if not check_acyclic(q):
        raise InputError("quiver has a directed cycle; no level structure exists")
    indeg = {v: 0 for v in q.vertices}
    for (_, s, t) in q.arrows:
        indeg[t] += 1
    order = [v for v in q.vertices if indeg[v] == 0]
    longest = {v: 0 for v in q.vertices}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for (_, _, w) in q.out_arrows(v):
            if longest[w] < longest[v] + 1:
                longest[w] = longest[v] + 1
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    level = {v: longest[v] + 1 for v in q.vertices}
    n = max(level.values()) if level else 1
    return LevelAssignment(level, n)


def enumerate_paths(q, levels):
    """All directed paths, grouped into a dict keyed by
    (source level, target level) under ``levels``; length-0 paths at
    vertices included.

    A path is (source vertex, tuple of arrow labels in traversal order).
    Finite because the quiver must be acyclic.
    """
    groups = {}

    def record(src, labs, tgt):
        key = (levels.level[src], levels.level[tgt])
        groups.setdefault(key, []).append((src, tuple(labs)))

    for v in q.vertices:
        record(v, (), v)
        # depth-first extension, arrows in declaration order
        stack = [(v, [])]
        while stack:
            cur, labs = stack.pop()
            for (lab, _, w) in reversed(q.out_arrows(cur)):
                record(v, labs + [lab], w)
                stack.append((w, labs + [lab]))
    # deterministic order inside each group: by length, then label sequence
    pos = {a[0]: k for k, a in enumerate(q.arrows)}
    vpos = q._vpos
    for key in groups:
        groups[key].sort(key=lambda p: (len(p[1]), vpos[p[0]],
                                        [pos[l] for l in p[1]]))
    return groups


def _morphism_algebra(f, n, objects, homs, compose):
    """Triangular morphism algebra of a category with objects on levels 1..n.

    A_r is the product of fields on the level-r objects ``objects[r - 1]``.
    ``homs[(j, i)]`` lists the (target, source, label) morphisms from level
    i to level j, one basis vector each, acted on by the target's idempotent
    from the left and the source's from the right.  Composable pairs map to
    ``compose(outer, inner)``, the label of their composite.  Empty blocks
    are left out, and so is every composition map with a missing block.
    """
    diag = [FiniteDimAlgebra.product_of_fields(f, len(objs), label=f"A{r}")
            for r, objs in enumerate(objects, start=1)]
    slot = {o: k for objs in objects for k, o in enumerate(objs)}
    mods = {}
    for (j, i), block in homs.items():
        if not block:
            continue
        lact, ract = {}, {}
        for k, (tgt, src, _) in enumerate(block):
            lact[(slot[tgt], k)] = {k: f.one}
            ract[(k, slot[src])] = {k: f.one}
        mods[(j, i)] = Bimodule(f, len(block), diag[j - 1], diag[i - 1],
                                lact, ract, label=f"M[{j},{i}]")
    mus = {}
    for l, j, i in itertools.combinations(range(n, 0, -1), 3):
        if not all(b in mods for b in ((l, j), (j, i), (l, i))):
            continue
        index = {lab: k for k, (_, _, lab) in enumerate(homs[(l, i)])}
        pair = {}
        for y, (_, mid, outer) in enumerate(homs[(l, j)]):
            for x, (tgt, _, inner) in enumerate(homs[(j, i)]):
                if tgt == mid:
                    pair[(y, x)] = {index[compose(outer, inner)]: f.one}
        mus[(l, j, i)] = BimoduleMap(mods[(l, j)], mods[(j, i)],
                                     mods[(l, i)], pair)
    return TriangularAlgebra(f, n, diag, mods, mus)


def path_algebra(q, levels, field=None):
    """The path algebra of an acyclic level quiver, in triangular form.

    The morphism algebra of the free category on the quiver: vertices are
    the objects, paths from level i to level j span the (j, i) block in the
    order of ``enumerate_paths``, and composition concatenates paths.  The
    field defaults to the rationals.
    """
    if not check_acyclic(q):
        raise InputError("path algebra of a cyclic quiver is infinite-dimensional")
    for (lab, s, t) in q.arrows:
        if levels.level[s] >= levels.level[t]:
            raise InputError(
                f"invalid levels: arrow {lab} does not increase the level")
    n = levels.n
    objects = [[v for v in q.vertices if levels.level[v] == r]
               for r in range(1, n + 1)]
    head = {a[0]: a[2] for a in q.arrows}

    def target(path):
        src, labs = path
        return head[labs[-1]] if labs else src

    homs = {(j, i): [(target(p), p[0], p) for p in paths]
            for (i, j), paths in enumerate_paths(q, levels).items() if j > i}
    return _morphism_algebra(field or QQ, n, objects, homs,
                             lambda outer, inner: (inner[0], inner[1] + outer[1]))


class SimplicialComplex:
    """Finite abstract simplicial complex, generated from its facets.

    Faces are stored as sorted tuples of vertex labels; all nonempty
    subsets of the facets are faces.
    """

    __slots__ = ("facets", "faces_by_dim", "dimension", "vertices")

    def __init__(self, facets):
        norm = []
        for fac in facets:
            fs = tuple(sorted(set(fac)))
            if not fs:
                raise InputError("empty facet")
            norm.append(fs)
        if not norm:
            raise InputError("empty complex")
        self.facets = norm
        faces = set()
        for fac in norm:
            for r in range(1, len(fac) + 1):
                faces.update(itertools.combinations(fac, r))
        self.dimension = max(len(fc) for fc in faces) - 1
        self.faces_by_dim = {
            d: sorted(fc for fc in faces if len(fc) == d + 1)
            for d in range(self.dimension + 1)}
        self.vertices = [fc[0] for fc in self.faces_by_dim[0]]

    def faces(self, d):
        return self.faces_by_dim.get(d, [])

    def __repr__(self):
        counts = [len(self.faces(d)) for d in range(self.dimension + 1)]
        return f"SimplicialComplex(face counts {counts})"


def incidence_algebra(s, field=None):
    """Incidence algebra of the face poset, graded by simplex dimension.

    The morphism algebra of the poset: level r holds the (r-1)-simplices,
    the (j, i) block has one basis vector per comparable pair (big face,
    small face) in sorted order, and (big, mid) composes with (mid, small)
    to (big, small).
    """
    n = s.dimension + 1
    objects = [s.faces(r - 1) for r in range(1, n + 1)]
    homs = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            pairs = sorted((big, small) for big in s.faces(j - 1)
                           for small in itertools.combinations(big, i))
            homs[(j, i)] = [(big, small, (big, small)) for big, small in pairs]
    return _morphism_algebra(field or QQ, n, objects, homs,
                             lambda outer, inner: (outer[0], inner[1]))


def simplicial_cohomology(s, max_degree):
    """Dimensions of the simplicial cohomology of the complex in degrees
    0..max_degree, from the ordered-simplex cochain complex over the
    rationals (the same dimensions hold over any field of characteristic
    not dividing the torsion; the comparisons here involve none)."""
    f = QQ
    ranks = []
    dims = [len(s.faces(d)) for d in range(max_degree + 2)]
    for d in range(max_degree + 1):
        lower = s.faces(d)
        upper = s.faces(d + 1)
        if not lower or not upper:
            ranks.append(0)
            continue
        col = {fc: k for k, fc in enumerate(lower)}
        entries = []
        for r, big in enumerate(upper):
            for drop in range(len(big)):
                small = big[:drop] + big[drop + 1:]
                sign = f.one if drop % 2 == 0 else f.neg(f.one)
                entries.append((r, col[small], sign))
        m = Matrix.from_entries(f, len(upper), len(lower), entries)
        ranks.append(matrix_rank(m))
    out = []
    for d in range(max_degree + 1):
        below = ranks[d - 1] if d >= 1 else 0
        out.append(dims[d] - ranks[d] - below)
    return out
