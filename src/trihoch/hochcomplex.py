"""Cochain-complex builders.  Every complex here is a word complex: a
degree is a direct sum of cells, and a cell holds the maps from a tensor
word of slots (algebras or modules, slot 0 leftmost) into a coefficient
block.  On a word b_0 ... b_k the differential is

    b_0 . f(b_1 ... b_k)                                  left action
    + sum_s (-1)^(s+1) f(b_0 ... (b_s b_{s+1}) ... b_k)   contractions
    + (-1)^(k+1) f(b_0 ... b_{k-1}) . b_k                 right action

``_word_window`` is the one place that writes this sign rule and the
index arithmetic; each public builder lays out its cells and names the
product table of every term.  A term's deltas depend only on its kind,
its table and the shape of its cells, so within one call each delta
list is planned once (field-coerced and signed, zeros dropped, its
extremes taken) and replayed at every cell pair of that shape.  The
builders are:

- ``build_relative_complex``: the complex of a triangular algebra relative
  to its diagonal, one cell per trajectory, each basis vector tagged by
  the jump count that filters it.  ``Cell.key`` is the trajectory's key
  (``trajectory.py``), a plain tuple: the (source, target) pair of each
  move and then the source level, so the cells a term reads are found by
  slicing it;
- ``build_bar_complex``: the classical complex Hom(T^{(x) l}, X);
- ``bar_oracle``: the independent oracle, the normalized complex
  Hom(Tbar^{(x) l}, T) with Tbar = T/k.1, built by ``build_bar_complex``
  from the multiplication table and the unit alone;
- ``build_ext_complex``: cells B^{(x) q} (x) N (x) A^{(x) p} -> X, whose
  cohomology is Ext over the pair (B, A); over the letter algebras of
  ``over_unit_quotients`` it is the normalized complex, with cells
  Bbar^{(x) q} (x) N (x) Abar^{(x) p} -> X.

``over_unit_quotients`` is the one place that writes the normalization:
it restricts bimodules over (B, A) to the letters of B/k.1 and A/k.1.
``cohomology_dims`` ranks the differentials in order, and skips in each
the columns that the pivots of the previous one show to be dependent.

All matrices are sparse over an exact field.
"""

from __future__ import annotations

from math import prod

from .algebra import Bimodule, FiniteDimAlgebra
from .errors import BudgetExceeded, InputError, InternalInvariantError
from .exactla import Matrix, matrix_rank
from .trajectory import enumerate_trajectories, slot_dims

DEFAULT_ORACLE_BUDGET = 10 ** 7


class Cell:
    """One direct summand of a cochain degree: a word shape with a
    coefficient block.  dim = (domain tensor dim) * (coefficient dim)."""

    __slots__ = ("key", "offset", "mdim", "xdim", "dim", "tag")

    def __init__(self, key, offset, mdim, xdim, tag):
        self.key = key
        self.offset = offset
        self.mdim = mdim
        self.xdim = xdim
        self.dim = mdim * xdim
        self.tag = tag

    def __repr__(self):
        return f"Cell({self.key!r}, offset {self.offset}, dim {self.dim}, tag {self.tag})"


class CochainWindow:
    """Degrees 0..L+1 with differentials delta_l for l <= L.

    cells[l] lists the summands of degree l in basis order (cells is None
    for a window not laid out in cells, such as a graded piece or a
    hand-built one); tags[l] gives the filtration tag of each basis vector
    (None when unfiltered).
    """

    __slots__ = ("field", "L", "cells", "dims", "diffs", "tags")

    def __init__(self, field, L, cells, dims, diffs, tags=None):
        self.field = field
        self.L = L
        self.cells = cells
        self.dims = dims
        self.diffs = diffs
        self.tags = tags

    def rank_of_delta(self, l, cleared, leads):
        """Rank of delta_l without its columns in ``cleared``, which must be
        pivot leads of a column elimination of delta_{l-1}, so that each
        lies in the span of the columns to its right (see
        ``cohomology_dims``); an empty set clears nothing.  Where the
        remaining columns are eliminated by columns and ``leads`` is a set,
        it gains the leads of their pivots, indices of C^(l+1)."""
        if l < 0:
            return 0
        m = self.diffs[l]
        if cleared:
            cols = [x for c, x in enumerate(m.cols) if c not in cleared]
            m = Matrix(m.field, m.nrows, len(cols), cols)
        return matrix_rank(m, leads)

    def __repr__(self):
        return f"CochainWindow(L={self.L}, dims {self.dims})"


def cohomology_dims(w, top=None):
    """Cohomology dimensions in degrees 0..top, by default 0..L, the
    window's reliable range (each degree needs both neighboring
    differentials, and degree L is the last with its outgoing differential
    built).  Only delta_0..delta_top are ranked, in order.

    dim H^l = dim C^l - rank delta_l - rank delta_{l-1}.

    Ranking delta_l skips the columns at the pivot leads of delta_{l-1}
    wherever that was eliminated by columns ("clearing": Chen and Kerber,
    "Persistent homology computation with a twist", EuroCG 2011).  Such a
    pivot R lies in im delta_{l-1}, inside ker delta_l, and its other
    entries sit above its lead, so column lead of delta_l is a combination
    of the columns above it, and by descending induction every dropped
    column is one of the kept columns above it: the rank stays.  Where
    delta_{l-1} was eliminated by rows, its pivots lead at indices of
    C^(l-1) and nothing is cleared.
    """
    top = w.L if top is None else top
    ranks = [0]
    cleared = set()
    for l in range(top + 1):
        leads = set() if l < top else None
        ranks.append(w.rank_of_delta(l, cleared, leads))
        cleared = leads
    return [w.dims[l] - ranks[l + 1] - ranks[l] for l in range(top + 1)]


# ---------------------------------------------------------------------------
# the word-complex emitter


def _layout(shapes):
    """One degree's cells in basis order from (key, slot dims, coefficient
    dim, tag) shapes, empty cells dropped: dict key -> (Cell, slot dims)."""
    out = {}
    offset = 0
    for key, slots, xdim, tag in shapes:
        cell = Cell(key, offset, prod(slots), xdim, tag)
        if cell.dim:
            out[key] = (cell, slots)
            offset += cell.dim
    return out


def _pairs(pre, rblock, cblock, post, rx, cx, inner):
    """Aligned (row, column) base indices within a term's row and column
    cells, the touched digits at zero: ``pre`` words ahead of them
    (``rblock``, ``cblock`` apart), ``post`` behind, coefficient strides
    ``rx``, ``cx`` and ``inner`` untouched coefficients.  Both ascend."""
    return [((q * rblock + p) * rx + i, (q * cblock + p) * cx + i)
            for q in range(pre) for p in range(post) for i in range(inner)]


def _plan(f, table, entries):
    """A term's deltas, which depend on its kind, its table and the shape
    of its cells but not on where they sit: the (dr, dc, v) ``entries``
    from ``table``, signed, coerced into the field with the zeros dropped,
    and their extremes (dr and dc min and max) over all entries, None
    without any.  Holds the table, so the id that keys the plan stays its
    own."""
    if not entries:
        return table, [], None
    drs = [d[0] for d in entries]
    dcs = [d[1] for d in entries]
    of, zero = f.of, f.zero
    deltas = [(dr, dc, v) for dr, dc, c in entries
              for v in (of(c),) if v != zero]
    return table, deltas, (min(drs), max(drs), min(dcs), max(dcs))


def _emit(f, columns, nrows, plan, row_off, col_off, pairs):
    """Add v at (row_off + row + dr, col_off + col + dc) of the column dicts
    ``columns`` for each delta (dr, dc, v) of ``plan`` and each aligned
    pair of base indices.  Repeats accumulate and a sum that reaches zero
    is dropped; the whole batch is range-checked once, from the plan's
    extremes and the first and last pair."""
    _, deltas, bounds = plan
    if bounds is None:
        return
    drlo, drhi, dclo, dchi = bounds
    (rlo, clo), (rhi, chi) = pairs[0], pairs[-1]
    if (row_off + rlo + drlo < 0 or row_off + rhi + drhi >= nrows
            or col_off + clo + dclo < 0
            or col_off + chi + dchi >= len(columns)):
        raise InputError("a term table points outside its cochain degree")
    add = f.add
    zero = f.zero
    for dr, dc, v in deltas:
        r0 = row_off + dr
        c0 = col_off + dc
        for r, c in pairs:
            col = columns[c + c0]
            r += r0
            old = col.get(r)
            if old is None:
                col[r] = v
            else:
                nv = add(old, v)
                if nv == zero:
                    del col[r]
                else:
                    col[r] = nv


def _word_window(f, L, layout, terms, tagged=False):
    """The window of degrees 0..L+1 whose degree l has the cells of
    ``layout[l]`` (dict key -> (Cell, slot dims), in basis order).

    ``terms(key)`` names the terms of the differential into the row cell
    ``key`` as (left, contract, right).  Each term is a pair (table,
    column cell key); left and right may be None, and contract[s] merges
    slots s, s+1.  Tables map
      left:     (slot-0 letter, column coefficient) -> row coefficients,
      contract: (letter s, letter s+1) -> merged column letters,
      right:    (column coefficient, last letter) -> row coefficients,
    each as a sparse vector.  A term whose table is empty or whose column
    cell is absent is zero.

    A term's deltas depend on its kind, its table and the shape of its
    cells, not on where they sit, so each is planned once per call
    (``_plan``) and reused by every cell pair of that shape.  Each
    differential delta_l is accumulated straight into its column dicts,
    one ``_emit`` batch per term and cell, which become its ``Matrix``.
    """
    neg = f.neg
    cells = [[c for c, _ in lay.values()] for lay in layout]
    dims = [sum(c.dim for c in cs) for cs in cells]
    plans = {}
    diffs = []
    for l in range(L + 1):
        below = layout[l]
        nrows = dims[l + 1]
        columns = [{} for _ in range(dims[l])]
        for key, (cell, slots) in layout[l + 1].items():
            left, contract, right = terms(key)
            x = cell.xdim
            # left action of slot 0, sign +1
            if left is not None and left[0] and left[1] in below:
                table, ckey = left
                col = below[ckey][0]
                rest = col.mdim
                pkey = (0, id(table), rest, x)
                plan = plans.get(pkey)
                if plan is None:
                    plan = plans[pkey] = _plan(
                        f, table,
                        [(a * rest * x + xo, xi, c)
                         for (a, xi), vec in table.items()
                         for xo, c in vec.items()])
                _emit(f, columns, nrows, plan, cell.offset, col.offset,
                      _pairs(1, 0, 0, rest, x, col.xdim, 1))
            # contraction of slots s, s+1, sign (-1)^(s+1)
            for s, (table, ckey) in enumerate(contract):
                if not table or ckey not in below:
                    continue
                col, cslots = below[ckey]
                post = prod(slots[s + 2:])
                stride = slots[s + 1] * post
                pkey = (1, id(table), s % 2, stride, post, x)
                plan = plans.get(pkey)
                if plan is None:
                    plan = plans[pkey] = _plan(
                        f, table,
                        [((u * stride + v * post) * x, m * post * x,
                          c if s % 2 else neg(c))
                         for (u, v), vec in table.items()
                         for m, c in vec.items()])
                _emit(f, columns, nrows, plan, cell.offset, col.offset,
                      _pairs(prod(slots[:s]), slots[s] * stride,
                             cslots[s] * post, post, x, x, x))
            # right action of the last slot, sign (-1)^(number of slots)
            if right is not None and right[0] and right[1] in below:
                table, ckey = right
                col = below[ckey][0]
                pkey = (2, id(table), len(slots) % 2, x)
                plan = plans.get(pkey)
                if plan is None:
                    plan = plans[pkey] = _plan(
                        f, table,
                        [(a * x + xo, xi, neg(c) if len(slots) % 2 else c)
                         for (xi, a), vec in table.items()
                         for xo, c in vec.items()])
                _emit(f, columns, nrows, plan, cell.offset, col.offset,
                      _pairs(col.mdim, slots[-1], 1, 1, x, col.xdim, 1))
        diffs.append(Matrix(f, nrows, dims[l], columns))
    tags = None
    if tagged:
        tags = [[c.tag for c in cs for _ in range(c.dim)] for cs in cells]
    return CochainWindow(f, L, cells, dims, diffs, tags=tags)


# ---------------------------------------------------------------------------
# relative complex over the diagonal subalgebra


def _relative_shapes(t, l):
    """The cells of degree l: one per trajectory key tau, coefficients in
    the block from its source to its target, tagged by its jump count."""
    for tau in enumerate_trajectories(t.n, l):
        target = tau[0][1] if l else tau[0]
        yield (tau, slot_dims(t, tau), t.block_dim(target, tau[-1]),
               sum(a != b for a, b in tau[:-1]))


def build_relative_complex(t, L=4):
    """The cochain complex of the triangular algebra relative to its
    diagonal, through degree L+1, with coefficients in the algebra itself,
    so its cohomology is HH*(T, T).

    Degree 0 is the sum of the diagonal blocks; degree l >= 1 splits over
    degree-l trajectories tau into Hom(M_tau, block of T from source to
    target).  Every basis vector is tagged by the jump count of its
    trajectory, and the differential can only keep or raise the tag.

    A cell's key is a plain tuple, ((source, target) of each move, ...,
    source level), so the cells of each term are found by slicing it: the
    left action drops move 0, the right action drops the first move and
    starts at its target, and a contraction merges two adjacent moves into
    one from the earlier's source to the later's target.
    """
    layout = [_layout(_relative_shapes(t, l)) for l in range(L + 2)]
    block_mul = t.block_mul

    def terms(key):
        I = key[-1]
        (src, J), mid = key[0], key[-2][1]
        contract = []
        for s in range(len(key) - 2):
            (src_s, hi), lo = key[s], key[s + 1][0]
            contract.append((block_mul(hi, src_s, lo),
                             key[:s] + ((lo, hi),) + key[s + 2:]))
        return ((block_mul(J, src, I), key[1:]),
                contract,
                (block_mul(J, mid, I), key[:-2] + (mid,)))

    return _word_window(t.field, L, layout, terms, tagged=True)


# ---------------------------------------------------------------------------
# bar-complex oracle


def bar_budget_estimate(total_dim, xdim, L):
    """A-priori size estimate for a bar-complex build: one unit per cobord
    term over all basis vectors of degrees 1..L+1 (each term writes about
    one batch of matrix entries)."""
    return sum((l + 2) * xdim * total_dim ** (l + 1) for l in range(L + 1))


def build_bar_complex(t_total, x, L, budget=DEFAULT_ORACLE_BUDGET,
                      grading=None):
    """The classical cochain complex Hom(T^{(x) l}, X) through degree L+1,
    as an unfiltered window; the independent oracle the relative complex is
    validated against.

    ``grading`` optionally gives (per-T-basis, per-X-basis) integer weights
    that every product and action preserves; when present, each basis
    vector has the grade  sum of word weights - coefficient weight, and
    every entry of every differential is checked to keep it.  The grading
    is only checked: the ranks are taken on the whole matrices.

    Refuses builds whose estimated entry count exceeds the budget.
    """
    d = t_total.dim
    dx = x.dim
    required = bar_budget_estimate(d, dx, L)
    if required > budget:
        raise BudgetExceeded(required, budget)

    layout = [_layout([(("bar", l), (d,) * l, dx, None)])
              for l in range(L + 2)]

    def terms(key):
        below = ("bar", key[1] - 1)
        return ((x.lact, below), [(t_total.mul, below)] * (key[1] - 1),
                (x.ract, below))

    w = _word_window(t_total.field, L, layout, terms)
    if grading is not None:
        grades = _bar_grades(*grading, L)
        for l in range(L + 1):
            _check_grading(w.diffs[l], grades[l + 1], grades[l])
    return w


def _bar_grades(tweight, xweight, L):
    """The grade of each basis vector of degrees 0..L+1 of the bar complex,
    sum of word weights - coefficient weight, in basis order."""
    # word sums of degree l extend those of degree l - 1 by one letter,
    # in the lexicographic word order of the cell layout
    ws = [0]
    grades = []
    for l in range(L + 2):
        if l:
            ws = [s + w for s in ws for w in tweight]
        grades.append([s - x for s in ws for x in xweight])
    return grades


def _check_grading(m, row_keys, col_keys):
    for col, kc in zip(m.cols, col_keys):
        for r in col:
            if row_keys[r] != kc:
                raise InternalInvariantError(
                    "graded differential has an entry crossing grades")


def _unit_quotient(a):
    """A/k.1 as a letter algebra, and the map from the basis indices of A
    that stay to its letters; see ``over_unit_quotients``."""
    f = a.field
    unit = a.unit
    u = next((k for k in sorted(unit) if unit[k] != f.zero), None)
    # the zero algebra has 1 = 0, so there A/k.1 = A and no letter goes
    letter = {k: i for i, k in enumerate(k for k in range(a.dim) if k != u)}
    scale = {k: f.div(c, unit[u]) for k, c in unit.items() if k != u}
    mul = {}
    for (x, y), vec in a.mul.items():
        if x == u or y == u:
            continue
        out = {k: c for k, c in vec.items() if k != u}
        if u in vec:
            f.row_addmul(out, scale, f.neg(vec[u]))
        if out:
            mul[(letter[x], letter[y])] = {letter[k]: c
                                           for k, c in out.items()}
    # A/k.1 is no algebra; the builders read only its dim and table
    return FiniteDimAlgebra(f, len(letter), mul, {},
                            label=f"{a.label}/k.1"), letter


def over_unit_quotients(mods):
    """The bimodules ``mods``, all over one pair (B, A), as bimodules over
    the letter algebras of B/k.1 and A/k.1, which they share (one algebra
    when B is A); and the map from the basis indices of B that stay to
    their letters.  A complex built on them is the normalized one: the
    cochains that vanish on every word holding a 1, quasi-isomorphic to
    the full complex (Loday, Cyclic Homology, 1.1).

    The basis of each algebra is changed once, the unit replacing the
    first basis vector e_u on which it has a nonzero coefficient c_u.  The
    letters are the other basis vectors, which act by the old tables; a
    product of two letters drops its unit coordinate, so its coordinate k
    becomes m_k - m_u c_k / c_u.
    """
    B, A = mods[0].left_alg, mods[0].right_alg
    bbar, bl = _unit_quotient(B)
    abar, al = (bbar, bl) if A is B else _unit_quotient(A)
    return [Bimodule(x.field, x.dim, bbar, abar,
                     {(bl[a], m): vec for (a, m), vec in x.lact.items()
                      if a in bl},
                     {(m, al[a]): vec for (m, a), vec in x.ract.items()
                      if a in al},
                     label=x.label)
            for x in mods], bl


def bar_oracle(t, L=3, budget=DEFAULT_ORACLE_BUDGET):
    """The normalized bar complex Hom(Tbar^{(x) l}, T) of the assembled
    total algebra T, Tbar = T/k.1, graded by block displacement j - i on
    both sides; its cohomology is HH*(T, T), and it is built from nothing
    but the multiplication table and the unit.

    The unit replaces a basis vector e_u (``over_unit_quotients``) of
    grade 0, as the unit lies in the diagonal blocks.  The unit-coordinate
    term of a
    product of two letters is nonzero only on a grade-0 product, so the
    grading survives.

    The budget is checked against the full bar complex, so the refusal
    and the caller's window choice do not depend on the normalization.
    """
    total = t.total
    f = t.field
    d = total.dim
    required = bar_budget_estimate(d, d, L)
    if required > budget:
        raise BudgetExceeded(required, budget)
    weight = [j - i for (j, i) in t.block_of]
    (x,), letter = over_unit_quotients(
        [Bimodule(f, d, total, total, total.mul, total.mul)])
    return build_bar_complex(x.left_alg, x, L, budget=budget,
                             grading=([weight[k] for k in letter], weight))


# ---------------------------------------------------------------------------
# reduced complex computing Ext over a pair of algebras


def build_ext_complex(n_mod, x_block, L):
    """Cochain window whose cohomology is Ext over the two algebras acting
    on n_mod (left algebra B, right algebra A), with coefficients in the
    bimodule x_block over the same pair.

    Degree l splits into cells (q, p), q + p = l, of maps
    B^{(x) q} (x) N (x) A^{(x) p} -> X.  Contractions are B.B, B.N, N.A
    and A.A; the left action needs q >= 1 and the right one p >= 1.
    """
    B = n_mod.left_alg
    A = n_mod.right_alg
    if x_block.left_alg is not B or x_block.right_alg is not A:
        raise InputError("coefficient block must be a bimodule over the same pair")
    layout = [_layout(((q, l - q),
                       (B.dim,) * q + (n_mod.dim,) + (A.dim,) * (l - q),
                       x_block.dim, None)
                      for q in range(l, -1, -1))
              for l in range(L + 2)]

    def terms(key):
        q, p = key
        drop_b, drop_a = (q - 1, p), (q, p - 1)
        contract = [(B.mul, drop_b)] * (q - 1)
        if q:
            contract.append((n_mod.lact, drop_b))
        if p:
            contract.append((n_mod.ract, drop_a))
        contract += [(A.mul, drop_a)] * (p - 1)
        return ((x_block.lact, drop_b) if q else None, contract,
                (x_block.ract, drop_a) if p else None)

    return _word_window(n_mod.field, L, layout, terms)
