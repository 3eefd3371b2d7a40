"""Exact linear algebra layer: golden cases over both ground fields plus
randomized structural identities."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import trihoch.exactla
from trihoch import (
    GF,
    QQ,
    EchelonSolver,
    InputError,
    InternalInvariantError,
    Matrix,
    Subspace,
    graded_rank,
    image,
    kernel,
    matrix_rank,
    preimage,
    quotient_dim,
    rref,
    subspace_intersect,
    subspace_sum,
)

FIELDS = [QQ, GF(32003)]
FIELD_IDS = ["QQ", "F32003"]


def dense(m):
    return [[m.rows[r].get(c, m.field.zero) for c in range(m.ncols)]
            for r in range(m.nrows)]


def column_built(m):
    """A copy of ``m`` built from its columns, read off its rows."""
    return Matrix.from_columns(
        m.field, m.nrows, m.ncols,
        [{r: row[c] for r, row in enumerate(m.rows) if c in row}
         for c in range(m.ncols)])


def span(field, ambient, *vecs):
    return Subspace.from_vectors(
        field, ambient,
        [{i: field.of(v) for i, v in enumerate(vec) if v} for vec in vecs])


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
class TestGoldens:
    def test_rref_identity(self, f):
        m = Matrix.from_dense(f, [[1, 0], [0, 1]])
        red, pivots = rref(m)
        assert dense(red) == dense(m)
        assert pivots == [0, 1]

    def test_rref_zero(self, f):
        m = Matrix(f, 3, 4)
        red, pivots = rref(m)
        assert dense(red) == dense(m)
        assert pivots == []

    def test_rref_rank_one(self, f):
        red, pivots = rref(Matrix.from_dense(f, [[1, 2], [2, 4]]))
        assert dense(red) == [[f.one, f.of(2)], [f.zero, f.zero]]
        assert pivots == [0]

    def test_rank_tall(self, f):
        # 12 x 3, so the rank is found by eliminating the 3 columns
        full = [[1, 0, 0], [0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 1, 1],
                [1, 2, 1], [0, 0, 0], [3, 3, 0], [1, 0, 1], [0, 0, 0],
                [2, 1, 1], [0, 3, 3]]
        m = Matrix.from_dense(f, full)
        before = dense(m)
        assert matrix_rank(m) == 3
        assert dense(m) == before
        # the same rows with column 2 replaced by column 0 + column 1
        m = Matrix.from_dense(f, [[a, b, a + b] for a, b, _ in full])
        assert matrix_rank(m) == 2 == m.ncols - kernel(m).dim

    def test_rank_eliminates_shorter_side(self, f, monkeypatch):
        sizes = []
        echelon = trihoch.exactla._echelon

        def recorded(field, rowdicts, **kw):
            sizes.append(len(rowdicts))
            return echelon(field, rowdicts, **kw)

        monkeypatch.setattr(trihoch.exactla, "_echelon", recorded)
        tall = [[1, 0, 2]] * 5 + [[0, 0, 0], [0, 1, 1], [1, 1, 3]]
        wide = [list(col) for col in zip(*tall)]
        for d in (tall, wide):
            m = Matrix.from_dense(f, d)
            assert matrix_rank(m) == 2
            assert matrix_rank(column_built(m)) == 2
        # 7 nonempty rows against 3 nonempty columns, then the transpose,
        # each from its rows and from its columns
        assert sizes == [3, 3, 3, 3]

    def test_kernel_identity(self, f):
        m = Matrix.from_dense(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert kernel(m) == Subspace.zero(f, 3)

    def test_kernel_zero_map(self, f):
        assert kernel(Matrix(f, 2, 4)) == Subspace.full(f, 4)

    def test_kernel_forced_line(self, f):
        k = kernel(Matrix.from_dense(f, [[1, 1]]))
        assert k.dim == 1
        assert k == span(f, 2, (1, -1))

    def test_image_identity(self, f):
        assert image(Matrix.from_dense(f, [[1, 0], [0, 1]])) == Subspace.full(f, 2)

    def test_image_zero(self, f):
        assert image(Matrix(f, 3, 2)) == Subspace.zero(f, 3)

    def test_image_column(self, f):
        im = image(Matrix.from_dense(f, [[1], [2]]))
        assert im.dim == 1
        assert im == span(f, 2, (1, 2))

    def test_sum_with_zero(self, f):
        u = span(f, 3, (1, 2, 0), (0, 0, 1))
        assert subspace_sum(u, Subspace.zero(f, 3)) == u

    def test_sum_axes(self, f):
        full = subspace_sum(span(f, 2, (1, 0)), span(f, 2, (0, 1)))
        assert full == Subspace.full(f, 2)

    def test_sum_idempotent(self, f):
        u = span(f, 4, (1, 0, 2, 0), (0, 1, 1, 0))
        assert subspace_sum(u, u) == u

    def test_intersect_with_full(self, f):
        u = span(f, 3, (1, 1, 1))
        assert subspace_intersect(u, Subspace.full(f, 3)) == u

    def test_intersect_axes(self, f):
        z = subspace_intersect(span(f, 2, (1, 0)), span(f, 2, (0, 1)))
        assert z == Subspace.zero(f, 2)

    def test_intersect_idempotent(self, f):
        u = span(f, 4, (1, 0, 2, 0), (0, 1, 1, 0))
        assert subspace_intersect(u, u) == u

    def test_preimage_of_full(self, f):
        m = Matrix.from_dense(f, [[1, 2, 3], [0, 1, 0]])
        assert preimage(m, Subspace.full(f, 2)) == Subspace.full(f, 3)

    def test_preimage_of_zero_is_kernel(self, f):
        m = Matrix.from_dense(f, [[1, 2, 3], [0, 1, 0]])
        assert preimage(m, Subspace.zero(f, 2)) == kernel(m)

    def test_preimage_projector(self, f):
        m = Matrix.from_dense(f, [[1, 0], [0, 0]])
        assert preimage(m, span(f, 2, (1, 0))) == Subspace.full(f, 2)

    def test_quotient_self(self, f):
        u = span(f, 3, (1, 2, 0), (0, 0, 1))
        assert quotient_dim(u, u) == 0

    def test_quotient_full_by_zero(self, f):
        assert quotient_dim(Subspace.full(f, 5), Subspace.zero(f, 5)) == 5

    def test_quotient_three_by_one(self, f):
        u = span(f, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        v = span(f, 4, (1, 1, 0, 0))
        assert quotient_dim(u, v) == 2

    def test_quotient_rejects_non_subspace(self, f):
        u = span(f, 2, (1, 0))
        v = span(f, 2, (0, 1))
        with pytest.raises(InternalInvariantError):
            quotient_dim(u, v)

    def test_ambient_mismatch_rejected(self, f):
        u = span(f, 2, (1, 0))
        v = span(f, 3, (1, 0, 0))
        with pytest.raises(InputError):
            subspace_sum(u, v)
        with pytest.raises(InputError):
            subspace_intersect(u, v)
        with pytest.raises(InputError):
            preimage(Matrix(f, 2, 2), v)


# ---------------------------------------------------------------------------
# randomized identities

entry = st.integers(-4, 4)


@st.composite
def matrices(draw):
    f = draw(st.sampled_from(FIELDS))
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return Matrix.from_dense(f, rows)


# mostly zeros, with fractional entries (over GF(p) read modulo p)
sparse_entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, "1/2", "-2/3"])


@st.composite
def sparse_matrices(draw):
    f = draw(st.sampled_from(FIELDS))
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(1, 8))
    rows = [[f.of(v) for v in draw(st.lists(sparse_entry, min_size=nc,
                                            max_size=nc))]
            for _ in range(nr)]
    return Matrix(f, nr, nc, [{c: v for c, v in enumerate(row) if v}
                              for row in rows])


def sparse_vectors(m):
    return st.dictionaries(st.integers(0, m.ncols - 1),
                           sparse_entry.filter(bool).map(m.field.of),
                           max_size=m.ncols)


def dense_apply(m, vec):
    f = m.field
    out = {}
    for r, row in enumerate(dense(m)):
        acc = f.zero
        for c, x in vec.items():
            acc = f.add(acc, f.mul(row[c], x))
        if acc != f.zero:
            out[r] = acc
    return out


@st.composite
def subspace_pairs(draw):
    f = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 5))
    vec = st.lists(entry, min_size=dim, max_size=dim)
    mk = lambda vecs: span(f, dim, *vecs)
    u = mk(draw(st.lists(vec, max_size=3)))
    v = mk(draw(st.lists(vec, max_size=3)))
    return u, v


@given(subspace_pairs())
def test_grassmann_identity(pair):
    u, v = pair
    assert (u.dim + v.dim
            == subspace_sum(u, v).dim + subspace_intersect(u, v).dim)


@given(st.one_of(matrices(), sparse_matrices()))
def test_rank_nullity(m):
    assert matrix_rank(m) + kernel(m).dim == m.ncols
    assert image(m).dim == matrix_rank(m)


@st.composite
def graded_matrices(draw):
    """A matrix whose grades own disjoint rows and columns, with row keys:
    each grade's block is tall or wide at random, ungraded rows and
    columns stay empty, and rows and columns are shuffled so the grades
    interleave."""
    f = draw(st.sampled_from(FIELDS))
    shapes = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                           min_size=1, max_size=4))
    nrows = sum(nr for nr, _ in shapes) + draw(st.integers(0, 3))
    ncols = sum(nc for _, nc in shapes) + draw(st.integers(0, 3))
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    rows = [{} for _ in range(nrows)]
    keys = [draw(st.integers(0, len(shapes))) for _ in range(nrows)]
    r0 = c0 = 0
    for g, (nr, nc) in enumerate(shapes):
        for r in row_order[r0:r0 + nr]:
            keys[r] = g
            for c in col_order[c0:c0 + nc]:
                v = f.of(draw(sparse_entry))
                if v:
                    rows[r][c] = v
        r0, c0 = r0 + nr, c0 + nc
    return Matrix(f, nrows, ncols, rows), keys


@given(graded_matrices())
def test_graded_rank_matches_matrix_rank(mk):
    m, keys = mk
    before = dense(m)
    assert graded_rank(m, keys) == matrix_rank(m) == m.ncols - kernel(m).dim
    assert dense(m) == before
    mc = column_built(m)
    cols = [dict(c) for c in mc.cols]
    assert graded_rank(mc, keys) == matrix_rank(mc) == matrix_rank(m)
    assert mc.cols == cols
    # reading the derived rows leaves the columns the stored side
    assert mc.rows == m.rows
    assert graded_rank(mc, keys) == matrix_rank(mc) == matrix_rank(m)
    dup = mc.copy()
    assert dup._rows is None and dup == m


@st.composite
def entry_matrices(draw):
    """(field, nrows, ncols, entries) for tall, wide and square shapes,
    with empty rows and columns; entries repeat, and some cancel out."""
    f = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    if not (nrows and ncols):
        return f, nrows, ncols, []
    entries = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                      st.integers(0, ncols - 1),
                                      sparse_entry), max_size=24))
    if entries:
        for r, c, v in draw(st.lists(st.sampled_from(entries), max_size=4)):
            entries.append((r, c, f.neg(f.of(v))))
    return f, nrows, ncols, draw(st.permutations(entries))


@given(entry_matrices())
def test_column_built_matches_entries(fe):
    f, nrows, ncols, entries = fe
    m = Matrix.from_entries(f, nrows, ncols, entries)
    mc = column_built(m)
    assert mc.rows == m.rows
    assert mc == m and mc.nnz() == m.nnz()
    assert image(mc) == image(m) and kernel(mc) == kernel(m)
    for c in range(ncols):
        assert mc.apply({c: f.one}) == m.apply({c: f.one})
    # a copy of a matrix that holds only columns does not share them
    src = column_built(m)
    dup = src.copy()
    if nrows and ncols:
        dup.cols[0][0] = f.add(dup.cols[0].get(0, f.zero), f.one)
    assert src == m


@given(subspace_pairs())
def test_canonical_representation(pair):
    u, v = pair
    # rebuilding from a reshuffled, rescaled, summed spanning set gives the
    # identical object
    f = u.field
    vecs = list(reversed(u.rows))
    for a in u.rows:
        for b in u.rows:
            w = dict(a)
            f.row_addmul(w, b, f.of(3))
            vecs.append(w)
    rebuilt = Subspace.from_vectors(f, u.ambient_dim, vecs)
    assert rebuilt == u
    assert (u == v) == (u.contains(v) and v.contains(u))


@given(st.one_of(matrices(), sparse_matrices()))
def test_kernel_vectors_annihilate(m):
    for v in kernel(m).rows:
        assert m.apply(v) == {}


@given(st.data())
def test_apply_matches_dense_product(data):
    m = data.draw(sparse_matrices())
    vecs = data.draw(st.lists(sparse_vectors(m), min_size=1, max_size=4))
    expected = [dense_apply(m, v) for v in vecs]
    assert [m.apply(v) for v in vecs] == expected
    # the cached column view gives the same products on later calls
    assert [m.apply(v) for v in reversed(vecs)] == expected[::-1]


@given(st.data())
def test_apply_on_derived_matrices(data):
    m = data.draw(sparse_matrices())
    m.apply({0: m.field.one})   # builds the column view of m
    vec = data.draw(sparse_vectors(m))
    # a copy does not share the view: edit its rows before its first apply
    dup = m.copy()
    if dup.nrows:
        dup.rows[0] = {c: m.field.one for c in range(dup.ncols)}
    assert dup.apply(vec) == dense_apply(dup, vec)
    assert m.apply(vec) == dense_apply(m, vec)


nonzero = st.integers(-60, 60).filter(bool)


@given(st.integers(-200, 200), nonzero)
def test_rational_div_keeps_integer_quotients(a, b):
    q = QQ.div(a, b)
    assert q == Fraction(a, b)
    assert (type(q) is int) == (a % b == 0)
    assert QQ.div(Fraction(a, 3), b) == Fraction(a, 3 * b)
    assert QQ.inv(b) == Fraction(1, b)


def test_rational_inverse_of_unit_is_int():
    for u in (1, -1):
        assert type(QQ.inv(u)) is int and QQ.inv(u) == u
    assert QQ.inv(Fraction(-1)) == -1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@given(matrices(), st.lists(entry, min_size=5, max_size=5))
def test_solver_expresses_span_members(m, coeffs):
    f = m.field
    solver = EchelonSolver(f)
    rows = m.rows[:5]
    for k, row in enumerate(rows):
        solver.add(row, ("t", k))
    target = {}
    for k, row in enumerate(rows):
        f.row_addmul(target, row, f.of(coeffs[k]))
    combo = solver.express(target)
    assert combo is not None
    rebuilt = {}
    for (_, k), c in combo.items():
        f.row_addmul(rebuilt, rows[k], c)
    assert rebuilt == target


def test_solver_rejects_outside_vector():
    f = QQ
    solver = EchelonSolver(f)
    solver.add({0: f.one}, "a")
    assert solver.express({1: f.one}) is None
    assert solver.rank == 1
