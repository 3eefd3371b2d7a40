"""The spectral sequence of the jump-count filtration: page dimensions,
page differentials, the cup-product form of the first differential, and
degeneration checks for tensorial three-level algebras.

Pages are computed from the filtered cochain window by the standard
cycle/boundary formulas; one solver per page cell divides out the
denominator and picks representatives from the canonical cycle basis by
pivot extension, so all matrices are deterministic.  The first-page
dimensions that ``e1_structure_report`` checks are read instead as the
cohomology of the associated graded, E_1^{p,q} = H^{p+q}(gr^p C), by
ranks alone.
"""

from __future__ import annotations

from itertools import combinations, groupby

from .algebra import Bimodule, is_separable, tensor_over
from .errors import InputError, InternalInvariantError
from .exactla import EchelonSolver, Matrix, Subspace, kernel, matrix_rank
from .hochcomplex import (CochainWindow, build_bar_complex,
                          build_ext_complex, build_relative_complex,
                          cohomology_dims, over_unit_quotients)
from .trajectory import TrajectoryBasis


class FilteredComplex:
    """A cochain window whose basis vectors carry filtration tags in
    0..n-1; F^t C^l is the span of the vectors with tag >= t.

    Cycle subspaces Z_r^{p,q} = F^p C^l with boundary inside F^(p+r)
    (indices below 0 clamped to the full space, at or above n to zero)
    are computed as kernels of tag-restricted submatrices and cached;
    ``forget_unread`` drops those the last page did not read.  Page
    denominators are spanned by such bases and ``boundaries``.  ``graded``
    cuts out the associated graded pieces, uncached.
    """

    __slots__ = ("window", "n", "_zcache", "_zread")

    def __init__(self, window, n):
        if window.tags is None:
            raise InputError("spectral machinery needs a tagged window")
        self.window = window
        self.n = n
        self._zcache = {}
        self._zread = set()

    def members(self, l, lo):
        """Basis indices of C^l with tag >= lo, ascending."""
        tags = self.window.tags[l]
        return [k for k, t in enumerate(tags) if t >= lo]

    def z_space(self, p, r, l):
        """Z_r^{p, l-p} as a canonical subspace of C^l."""
        w = self.window
        if l < 0 or l > w.L:
            raise InputError(f"degree {l} outside the differential window")
        lo = max(p, 0)
        bound = min(max(p + r, 0), self.n)
        key = (lo, bound, l)
        self._zread.add(key)
        cached = self._zcache.get(key)
        if cached is not None:
            return cached
        f = w.field
        cols = self.members(l, lo)
        kill_rows = [k for k, t in enumerate(w.tags[l + 1]) if t < bound]
        # the columns of the members, cut down to the kill rows
        pos = {k: i for i, k in enumerate(kill_rows)}
        dcols = w.diffs[l].cols
        sub = Matrix(
            f, len(kill_rows), len(cols),
            [{pos[k]: v for k, v in dcols[c].items() if k in pos}
             for c in cols])
        ker = kernel(sub)
        rows = [{cols[c]: v for c, v in row.items()} for row in ker.rows]
        pivots = [cols[c] for c in ker.pivots]
        out = Subspace(f, w.dims[l], rows, pivots)
        self._zcache[key] = out
        return out

    def forget_unread(self):
        """Keep in the cache only the cycle spaces read since the last call.
        ``compute_page`` calls it at its end.  Page r+1 reads Z_{r+1}, and
        Z_r only through keys that page r read, so nothing it drops there
        is read by the next page."""
        read = self._zread
        self._zcache = {k: z for k, z in self._zcache.items() if k in read}
        self._zread = set()

    def graded(self, p):
        """gr^p C = F^p C / F^(p+1) C as an untagged window of the same L:
        the basis vectors with tag exactly p, and each delta_l cut to their
        rows and columns.  Its cohomology in degree l is E_1^{p, l-p}."""
        w = self.window

        def split(tags):
            # the runs of tag p, and each index's position in gr^p
            runs, at, k, dim = [], [None] * len(tags), 0, 0
            for tag, group in groupby(tags):
                size = len(list(group))
                if tag == p:
                    runs.append(range(k, k + size))
                    at[k:k + size] = range(dim, dim + size)
                    dim += size
                k += size
            return runs, at, dim

        runs, _, dim = split(w.tags[0])
        dims, diffs = [dim], []
        for l in range(w.L + 1):
            rows, at, dim = split(w.tags[l + 1])
            dcols = w.diffs[l].cols
            diffs.append(Matrix(
                w.field, dim, dims[l],
                [{at[k]: v for k, v in dcols[c].items() if at[k] is not None}
                 for run in runs for c in run]))
            runs = rows
            dims.append(dim)
        return CochainWindow(w.field, w.L, None, dims, diffs)

    def boundaries(self, p, r, l):
        """delta of the basis of Z_{r-1}^{p-r+1, *}: vectors of C^l that
        span the boundary part of the page-r denominator at column p."""
        if l == 0:
            return []
        delta = self.window.diffs[l - 1]
        return [delta.apply(row)
                for row in self.z_space(p - r + 1, r - 1, l - 1).rows]


def build_filtered(t, L=4):
    """Relative complex of t wrapped with its jump-count filtration."""
    return FilteredComplex(build_relative_complex(t, L), t.n)


class SpectralPage:
    """One page: dims and differentials over the reliable cells.

    dims[(p, q)] is defined for p+q <= L; d[(p, q)] (the matrix of d_r
    into cell (p+r, q-r+1), acting on chosen class representatives) for
    p+q <= L-1.  reps[(p, q)] lists the representative cocycles behind
    the matrix columns; each cell's solver divides out its denominator
    and reads class coordinates over them.
    """

    __slots__ = ("r", "n", "L", "dims", "d", "reps", "_solvers")

    def __init__(self, r, n, L):
        self.r = r
        self.n = n
        self.L = L
        self.dims = {}
        self.d = {}
        self.reps = {}
        self._solvers = {}

    def class_coords(self, p, q, vec):
        """Coordinates of a cycle's class over the cell's representatives;
        raises if the vector is not a cycle of this cell."""
        combo = self._solvers[(p, q)].express(vec)
        if combo is None:
            raise InputError("vector is not a cycle at this cell")
        out = [0] * self.dims[(p, q)]
        for k, c in combo.items():
            out[k] = c
        return out

    def __repr__(self):
        return f"SpectralPage(r={self.r}, cells {len(self.dims)})"


def compute_page(fc, r):
    """Page r of the spectral sequence of a filtered window: dimensions
    for every cell with p+q <= L, differentials for p+q <= L-1.

    E_r = Z_r / (Z_{r-1} one column up + boundaries from r-1 columns
    down).  A cell's solver divides out the denominator's spanning vectors,
    fed untagged; the rows of Z_r that still enlarge its span, tagged
    0, 1, ..., are the representatives.  d_r applies the differential to
    a representative and re-expresses the result in the target's classes.
    """
    if r < 0:
        raise InputError("page index must be nonnegative")
    w = fc.window
    n = fc.n
    page = SpectralPage(r, n, w.L)
    f = w.field

    cells = [(p, q) for l in range(w.L + 1)
             for p in range(0, n) for q in (l - p,) if q >= 0]

    # dims and representatives
    for (p, q) in cells:
        l = p + q
        num = fc.z_space(p, r, l)
        solver = EchelonSolver(f)
        den = 0
        for vec in fc.z_space(p + 1, r - 1, l).rows + fc.boundaries(p, r, l):
            den += solver.add(vec)
        reps = []
        for row in num.rows:
            if solver.add(row, len(reps)):
                reps.append(dict(row))
        if len(reps) != num.dim - den:
            raise InternalInvariantError(
                "page denominator not contained in its numerator")
        page.dims[(p, q)] = len(reps)
        page.reps[(p, q)] = reps
        page._solvers[(p, q)] = solver

    # differentials
    for (p, q) in cells:
        l = p + q
        if l > w.L - 1:
            continue
        src_reps = page.reps[(p, q)]
        tp, tq = p + r, q - r + 1
        tdim = page.dims.get((tp, tq), 0)
        cols = []
        for v in src_reps:
            image = w.diffs[l].apply(v)
            if not image:
                cols.append({})
                continue
            if (tp, tq) not in page._solvers:
                raise InternalInvariantError(
                    "differential leaves the reliable plane")
            combo = page._solvers[(tp, tq)].express(image)
            if combo is None:
                raise InternalInvariantError(
                    "page differential image is not a cycle at its target")
            cols.append(combo)
        page.d[(p, q)] = Matrix(f, tdim, len(src_reps), cols)
    fc.forget_unread()
    return page


# ---------------------------------------------------------------------------
# labeled E1 structure


def x_block_bimodule(t, j, i):
    """The (j, i) coefficient block of T as a bimodule over (A_j, A_i)."""
    return Bimodule(t.field, t.block_dim(j, i), t.diag[j - 1], t.diag[i - 1],
                    t.block_mul(j, j, i), t.block_mul(j, i, i),
                    label=f"X[{j},{i}]")


def chain_module(t, chain):
    """The iterated balanced tensor product of the blocks along an
    ascending chain of levels, folded from the left."""
    k = list(chain)
    cur = t.module(k[1], k[0])
    if cur is None:
        cur = Bimodule.zero(t.field, t.diag[k[1] - 1], t.diag[k[0] - 1])
    for s in range(1, len(k) - 1):
        nxt = t.module(k[s + 1], k[s])
        if nxt is None:
            nxt = Bimodule.zero(t.field, t.diag[k[s + 1] - 1],
                                t.diag[k[s] - 1])
        cur, _, _ = tensor_over(t.diag[k[s] - 1], nxt, cur)
    return cur


def _labeled_summands(t, L):
    """{(p, q): [(label, dim)]} for the cells of E_1 with p + q <= L: HH
    of each diagonal algebra in column 0, and in column p the Ext group of
    each chain of p + 1 levels, in degree q.  Each comes from a normalized
    complex over the unit quotients (``over_unit_quotients``): the bar
    complex Hom(Abar_i^{(x) q}, A_i), and the Ext complex of the chain's
    tensor product over Bbar and Abar."""
    labeled = {}
    for p in range(0, min(t.n, L + 1)):
        summands = []
        if p == 0:
            for i in range(1, t.n + 1):
                (blk,), _ = over_unit_quotients([x_block_bimodule(t, i, i)])
                bw = build_bar_complex(blk.left_alg, blk, L)
                summands.append((f"H(A{i})", cohomology_dims(bw)))
        else:
            for chain in combinations(range(1, t.n + 1), p + 1):
                (mod, blk), _ = over_unit_quotients(
                    [chain_module(t, chain),
                     x_block_bimodule(t, chain[-1], chain[0])])
                ew = build_ext_complex(mod, blk, L - p)
                label = "Ext(" + "(x)".join(
                    f"M[{chain[s + 1]},{chain[s]}]"
                    for s in range(len(chain) - 2, -1, -1)) + ")"
                summands.append((label, cohomology_dims(ew)))
        for q in range(0, L - p + 1):
            labeled[(p, q)] = [(lab, dims[q]) for (lab, dims) in summands]
    return labeled


def e1_dims(fc):
    """dim E_1^{p,q} for the cells p + q <= L of a filtered window, as
    H^{p+q}(gr^p C), the cohomology of ``fc.graded(p)``; the graded
    windows are built one column p at a time."""
    L = fc.window.L
    out = {}
    for p in range(min(fc.n, L + 1)):
        dims = cohomology_dims(fc.graded(p))
        out.update(((p, l - p), dims[l]) for l in range(p, L + 1))
    return out


def e1_structure_report(t, fc):
    """Compute every labeled summand of the first page independently
    (``_labeled_summands``), compare with page 1 of ``fc``, the filtered
    window of t, and report cell-by-cell agreement over its degrees
    0..fc.window.L.

    Page 1 comes from ``e1_dims``, by ranks alone: no cycle space,
    solver or representative is made.

    Also reports whether the projectivity hypothesis behind the labeled
    description was detected (all strictly intermediate diagonal algebras
    separable)."""
    hypothesis = all(is_separable(t.diag[i - 1]) for i in range(2, t.n))
    labeled = _labeled_summands(t, fc.window.L)
    e1 = e1_dims(fc)

    cells = {}
    all_agree = True
    for (p, q), summands in sorted(labeled.items()):
        total = sum(d for (_, d) in summands)
        got = e1.get((p, q))
        agree = (got == total)
        if not agree:
            all_agree = False
        cells[(p, q)] = {
            "summands": summands,
            "labeled_total": total,
            "page_dim": got,
            "agree": agree,
        }
    return {
        "projective_hypothesis": hypothesis,
        "cells": cells,
        "all_agree": all_agree,
    }


# ---------------------------------------------------------------------------
# cup-product form of the first differential


def _cell_map(t, window, l):
    return {cell.key: (cell, TrajectoryBasis.over(t, cell.key))
            for cell in window.cells[l]}


def cup_d1_general(t, tau, f, window):
    """The displayed first-differential sum for a cochain supported on a
    single cell: left cups with every identity above the trajectory's
    top level, right cups (with sign (-1)^(degree+1)) with every identity
    below its bottom level, and all middle insertions of composition maps
    with their position signs.

    ``tau`` is a trajectory key (``trajectory.py``) and ``f`` a sparse
    vector over the window's degree-l coordinates supported on its cell;
    the result is a sparse vector over degree l+1, supported on the jump
    count of tau plus one.
    """
    fld = t.field
    l = len(tau) - 1
    n = t.n
    src_map = _cell_map(t, window, l)
    if tau not in src_map:
        raise InputError("trajectory cell is not present in the window")
    cell, basis = src_map[tau]
    lo, hi = cell.offset, cell.offset + cell.dim
    for k in f:
        if not (lo <= k < hi):
            raise InputError("cochain is not supported on the named cell")
    tgt_map = _cell_map(t, window, l + 1)
    top = tau[0][1] if l else tau[0]
    botm = tau[-1]
    xdim = cell.xdim
    out = {}

    def f_entry(mflat, xi):
        return f.get(lo + mflat * xdim + xi, fld.zero)

    # left cups: prepend a jump above the top level, evaluate by the
    # left action on the coefficient
    for w_lev in range(top + 1, n + 1):
        rc = tgt_map.get(((top, w_lev),) + tau)
        if rc is None:
            continue
        tcell = rc[0]
        act = t.block_mul(w_lev, top, botm)
        jdim = t.block_dim(w_lev, top)
        for mflat in range(basis.dim):
            for xi in range(xdim):
                c = f_entry(mflat, xi)
                if c == fld.zero:
                    continue
                for m in range(jdim):
                    vec = act.get((m, xi))
                    if vec:
                        base = tcell.offset + (m * basis.dim + mflat) * tcell.xdim
                        fld.row_addmul(out, {base + xip: a
                                             for xip, a in vec.items()}, c)

    # right cups: append a jump below the bottom level, sign (-1)^(l+1)
    sign = fld.one if (l + 1) % 2 == 0 else fld.neg(fld.one)
    for k0 in range(1, botm):
        rc = tgt_map.get(tau[:-1] + ((k0, botm), k0))
        if rc is None:
            continue
        tcell = rc[0]
        act = t.block_mul(top, botm, k0)
        jdim = t.block_dim(botm, k0)
        for mflat in range(basis.dim):
            for xi in range(xdim):
                c = f_entry(mflat, xi)
                if c == fld.zero:
                    continue
                for m in range(jdim):
                    vec = act.get((xi, m))
                    if vec:
                        base = tcell.offset + (mflat * jdim + m) * tcell.xdim
                        fld.row_addmul(out, {base + xip: a
                                             for xip, a in vec.items()},
                                       fld.mul(sign, c))

    # middle insertions: split each jump through every strictly
    # intermediate level by its composition map; the sign is the slot
    # position of the new pair
    for s, (ki, kip) in enumerate(tau[:-1]):
        for alpha in range(ki + 1, kip):
            table = t.block_mul(kip, alpha, ki)
            if not table:
                continue
            rc = tgt_map.get(tau[:s] + ((alpha, kip), (ki, alpha))
                             + tau[s + 1:])
            if rc is None:
                continue
            tcell, tbasis = rc
            sg = fld.one if (s + 1) % 2 == 0 else fld.neg(fld.one)
            for tup in tbasis.tuples():
                prod = table.get((tup[s], tup[s + 1]))
                if not prod:
                    continue
                base = tcell.offset + tbasis.flat_index(tup) * tcell.xdim
                for m_merge, a in prod.items():
                    src = lo + basis.flat_index(
                        tup[:s] + (m_merge,) + tup[s + 2:]) * xdim
                    fld.row_addmul(out, {base + xi: f[src + xi]
                                         for xi in range(xdim) if src + xi in f},
                                   fld.mul(sg, a))
    return out


# ---------------------------------------------------------------------------
# degeneration checks


def _is_tensorial_3(t):
    m32, m21, m31 = t.module(3, 2), t.module(2, 1), t.module(3, 1)
    d32 = m32.dim if m32 else 0
    d21 = m21.dim if m21 else 0
    d31 = m31.dim if m31 else 0
    if d31 == 0:
        return (d32 == 0 or d21 == 0
                or tensor_over(t.diag[1], m32, m21)[0].dim == 0)
    mu = t.mu(3, 2, 1)
    if mu is None or d32 == 0 or d21 == 0:
        return False
    quotient, _, _ = tensor_over(t.diag[1], m32, m21)
    return (matrix_rank(mu.matrix) == d31 and quotient.dim == d31)


def require_degeneration_hypotheses(t):
    """Refuse, naming the violated hypothesis, an algebra that is not
    tensorial with exactly three levels; no window is needed."""
    if t.n != 3:
        raise InputError(
            "degeneration check requires exactly three levels, got "
            f"{t.n}")
    if not _is_tensorial_3(t):
        raise InputError(
            "degeneration check requires a tensorial algebra: the wide "
            "block must be the balanced tensor product of the adjacent ones")


def check_degeneration_A2k(t, fc):
    """Degeneration checks for a tensorial three-level algebra t, made on
    ``fc``, its filtered window, in degrees up to fc.window.L.

    When the middle algebra is one-dimensional, asserts that the second
    differential vanishes on every reliable cell (the sequence
    degenerates at page 2).  In all tensorial cases, additionally checks
    on explicit representatives that second-differential classes coming
    from the outer diagonal summands vanish.  Refuses non-tensorial or
    non-three-level input, naming the violated hypothesis.
    """
    require_degeneration_hypotheses(t)
    w = fc.window
    L = w.L
    a2_is_field = (t.diag[1].dim == 1)

    report = {
        "tensorial": True,
        "a2_one_dimensional": a2_is_field,
        "d2_zero": None,
        "outer_classes_checked": 0,
        "outer_classes_vanish": True,
        "nonsurviving_skipped": 0,
    }

    if a2_is_field:
        page2 = compute_page(fc, 2)
        zero = all(m.nnz() == 0 for m in page2.d.values())
        report["d2_zero"] = zero

    # explicit second-differential vanishing for the outer summands
    solvers = {}   # degree -> (correction, delta(Z_1^1)) solvers, shared
    for lvl in (1, 3):
        blk = x_block_bimodule(t, lvl, lvl)
        bw = build_bar_complex(t.diag[lvl - 1], blk, L - 1)
        for l in range(1, L):
            cocycles = kernel(bw.diffs[l])
            if cocycles.dim == 0:
                continue
            tau = ((lvl, lvl),) * l + (lvl,)   # stays at lvl
            cell = next((c for c in w.cells[l] if c.key == tau), None)
            if cell is None:
                continue
            if l not in solvers:
                bounds = EchelonSolver(w.field)
                for vec in fc.boundaries(2, 2, l + 1):
                    bounds.add(vec)
                solvers[l] = (_correction_solver(fc, l), bounds)
            for row in cocycles.rows:
                emb = {cell.offset + k: c for k, c in row.items()}
                outcome = _d2_class_vanishes(fc, emb, l, *solvers[l])
                if outcome is None:
                    report["nonsurviving_skipped"] += 1
                    continue
                report["outer_classes_checked"] += 1
                if not outcome:
                    report["outer_classes_vanish"] = False
    return report


def _correction_solver(fc, l):
    """Solver that divides out the unit vectors of F^2 C^(l+1) and takes
    delta of every basis vector c of F^1 C^l, tagged c.  It depends on the
    degree only, and ``express`` leaves it unchanged, so one serves every
    class of that degree."""
    w = fc.window
    fld = w.field
    delta = w.diffs[l]
    solver = EchelonSolver(fld)
    for k in fc.members(l + 1, 2):
        solver.add({k: fld.one})
    for c in fc.members(l, 1):
        solver.add(delta.apply({c: fld.one}), c)
    return solver


def _d2_class_vanishes(fc, vec, l, solver, bounds):
    """For a column-0 cocycle embedding with vanishing column-0 boundary:
    None if its first-page class does not survive to page 2; otherwise
    whether its second-differential class vanishes.

    Solves, through the degree's correction solver, for a column->=1
    correction making the boundary land two columns up, then tests
    membership in the page-2 boundary denominator through ``bounds``.
    """
    w = fc.window
    fld = w.field
    delta = w.diffs[l]
    # d1 class must vanish: image = delta(correction) + (tag >= 2 rest)
    corr = solver.express(delta.apply(vec))
    if corr is None:
        return None
    # g = delta(vec - corr) lands in F^2; its page-2 class must vanish
    diff = dict(vec)
    fld.row_addmul(diff, corr, fld.neg(fld.one))
    g = delta.apply(diff)
    for k in g:
        if w.tags[l + 1][k] < 2:
            raise InternalInvariantError("corrected boundary is not two columns up")
    return bounds.express(g) is not None
