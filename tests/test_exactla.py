"""Exact linear algebra layer: golden cases over both ground fields plus
randomized structural identities."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trihoch import (
    GF,
    QQ,
    EchelonSolver,
    InputError,
    Matrix,
    Subspace,
    kernel,
    matrix_rank,
)

from instances import intersection_dim

FIELDS = [QQ, GF(32003)]
FIELD_IDS = ["QQ", "F32003"]


def dense(m):
    return [[m.cols[c].get(r, m.field.zero) for c in range(m.ncols)]
            for r in range(m.nrows)]


def matrix_of_rows(f, rows):
    """The matrix whose rows are the lists ``rows`` (entries read by f.of)."""
    ncols = len(rows[0]) if rows else 0
    return Matrix.from_entries(f, len(rows), ncols,
                               [(r, c, v) for r, row in enumerate(rows)
                                for c, v in enumerate(row)])


def transpose(m):
    rows = [{} for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for r, v in col.items():
            rows[r][c] = v
    return Matrix(m.field, m.ncols, m.nrows, rows)


def column_space(m):
    return Subspace.from_vectors(m.field, m.nrows, m.cols)


def whole_space(field, ambient):
    return Subspace.from_vectors(field, ambient,
                                 [{i: field.one} for i in range(ambient)])


def quotient_count(u, v):
    """dim(u/v) counted as ``compute_page`` counts a page dimension: the
    basis vectors of u that enlarge the span of v's basis, fed untagged,
    in one solver."""
    solver = EchelonSolver(u.field)
    for row in v.rows:
        assert solver.add(row)
    return sum(solver.add(row, k) for k, row in enumerate(u.rows))


def subspace_sum(u, v):
    """u + v, as the span of both bases."""
    return Subspace.from_vectors(u.field, u.ambient_dim, u.rows + v.rows)


def span(field, ambient, *vecs):
    return Subspace.from_vectors(
        field, ambient,
        [{i: field.of(v) for i, v in enumerate(vec) if v} for vec in vecs])


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
class TestGoldens:
    def test_rank_tall(self, f):
        # 12 x 3, so the rank is found by eliminating the 3 columns
        full = [[1, 0, 0], [0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 1, 1],
                [1, 2, 1], [0, 0, 0], [3, 3, 0], [1, 0, 1], [0, 0, 0],
                [2, 1, 1], [0, 3, 3]]
        m = matrix_of_rows(f, full)
        before = dense(m)
        assert matrix_rank(m) == 3
        assert dense(m) == before
        # the same rows with column 2 replaced by column 0 + column 1
        m = matrix_of_rows(f, [[a, b, a + b] for a, b, _ in full])
        assert matrix_rank(m) == 2 == m.ncols - kernel(m).dim

    def test_rank_eliminates_shorter_side(self, f):
        # a rank taken by columns hands back the rows its pivots lead at,
        # one taken by rows hands back nothing
        tall = [[1, 0, 2]] * 5 + [[0, 0, 0], [0, 1, 1], [1, 1, 3]]
        wide = [list(col) for col in zip(*tall)]
        tall_leads, wide_leads = set(), set()
        assert matrix_rank(matrix_of_rows(f, tall), tall_leads) == 2
        assert matrix_rank(matrix_of_rows(f, wide), wide_leads) == 2
        # 7 nonempty rows against 3 nonempty columns: the columns are
        # eliminated; the transpose is eliminated by its 3 rows
        assert tall_leads == {0, 6}
        assert wide_leads == set()

    def test_kernel_identity(self, f):
        m = matrix_of_rows(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert kernel(m) == Subspace.from_vectors(f, 3, [])

    def test_kernel_zero_map(self, f):
        assert kernel(Matrix(f, 2, 4)) == whole_space(f, 4)

    def test_kernel_forced_line(self, f):
        k = kernel(matrix_of_rows(f, [[1, 1]]))
        assert k.dim == 1
        assert k == span(f, 2, (1, -1))

    def test_image_identity(self, f):
        assert column_space(matrix_of_rows(f, [[1, 0], [0, 1]])) == whole_space(f, 2)

    def test_image_zero(self, f):
        assert column_space(Matrix(f, 3, 2)) == Subspace.from_vectors(f, 3, [])

    def test_image_column(self, f):
        im = column_space(matrix_of_rows(f, [[1], [2]]))
        assert im.dim == 1
        assert im == span(f, 2, (1, 2))

    def test_sum_with_zero(self, f):
        u = span(f, 3, (1, 2, 0), (0, 0, 1))
        assert subspace_sum(u, Subspace.from_vectors(f, 3, [])) == u

    def test_sum_axes(self, f):
        full = subspace_sum(span(f, 2, (1, 0)), span(f, 2, (0, 1)))
        assert full == whole_space(f, 2)

    def test_sum_idempotent(self, f):
        u = span(f, 4, (1, 0, 2, 0), (0, 1, 1, 0))
        assert subspace_sum(u, u) == u

    def test_intersect_with_full(self, f):
        u = span(f, 3, (1, 1, 1))
        assert intersection_dim(u, whole_space(f, 3)) == 1

    def test_intersect_axes(self, f):
        assert intersection_dim(span(f, 2, (1, 0)), span(f, 2, (0, 1))) == 0

    def test_intersect_idempotent(self, f):
        u = span(f, 4, (1, 0, 2, 0), (0, 1, 1, 0))
        assert intersection_dim(u, u) == 2

    def test_quotient_self(self, f):
        u = span(f, 3, (1, 2, 0), (0, 0, 1))
        assert quotient_count(u, u) == 0

    def test_quotient_full_by_zero(self, f):
        zero = Subspace.from_vectors(f, 5, [])
        assert quotient_count(whole_space(f, 5), zero) == 5

    def test_quotient_three_by_one(self, f):
        u = span(f, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        v = span(f, 4, (1, 1, 0, 0))
        assert quotient_count(u, v) == 2

    def test_quotient_rejects_non_subspace(self, f):
        # the count exceeds dim u - dim v exactly when v is not inside u,
        # which ``compute_page`` raises on
        u = span(f, 2, (1, 0))
        v = span(f, 2, (0, 1))
        assert quotient_count(u, v) == 1 != u.dim - v.dim

    def test_ambient_mismatch_rejected(self, f):
        u = span(f, 2, (1, 0))
        v = span(f, 3, (0, 0, 1))
        with pytest.raises(InputError, match="out of ambient range"):
            subspace_sum(u, v)


# ---------------------------------------------------------------------------
# randomized identities

entry = st.integers(-4, 4)


@st.composite
def matrices(draw, fields=FIELDS):
    f = draw(st.sampled_from(fields))
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    cols = draw(st.lists(st.lists(entry, min_size=nr, max_size=nr),
                         min_size=nc, max_size=nc))
    return Matrix(f, nr, nc, [{r: f.of(v) for r, v in enumerate(col) if v}
                              for col in cols])


# mostly zeros, with fractional entries (over GF(p) read modulo p)
sparse_entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, "1/2", "-2/3"])


@st.composite
def sparse_matrices(draw, fields=FIELDS):
    f = draw(st.sampled_from(fields))
    nr = draw(st.integers(0, 8))
    nc = draw(st.integers(1, 8))
    cols = [[f.of(v) for v in draw(st.lists(sparse_entry, min_size=nr,
                                            max_size=nr))]
            for _ in range(nc)]
    return Matrix(f, nr, nc, [{r: v for r, v in enumerate(col) if v}
                              for col in cols])


def sparse_vectors(m):
    return st.dictionaries(st.integers(0, m.ncols - 1),
                           sparse_entry.filter(bool).map(m.field.of),
                           max_size=m.ncols)


def ambient_vectors(m):
    """Sparse vectors over the rows of m, the ambient space of its columns."""
    if not m.nrows:
        return st.just({})
    return sparse_vectors(transpose(m))


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
    assert u.dim + v.dim == subspace_sum(u, v).dim + intersection_dim(u, v)


@given(st.one_of(matrices(), sparse_matrices()))
def test_rank_nullity(m):
    before = [dict(c) for c in m.cols]
    assert matrix_rank(m) + kernel(m).dim == m.ncols
    assert column_space(m).dim == matrix_rank(m)
    assert m.cols == before


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
    cols = [{} for _ in range(ncols)]
    keys = [draw(st.integers(0, len(shapes))) for _ in range(nrows)]
    r0 = c0 = 0
    for g, (nr, nc) in enumerate(shapes):
        for r in row_order[r0:r0 + nr]:
            keys[r] = g
            for c in col_order[c0:c0 + nc]:
                v = f.of(draw(sparse_entry))
                if v:
                    cols[c][r] = v
        r0, c0 = r0 + nr, c0 + nc
    return Matrix(f, nrows, ncols, cols), keys


@given(graded_matrices())
def test_graded_rank_matches_matrix_rank(mk):
    # rows of different grades share no columns, so one flat rank never
    # mixes grades: it is the sum of the ranks of the grade blocks
    m, keys = mk
    before = [dict(c) for c in m.cols]
    blocks = {}
    for x in m.cols:
        if x:
            blocks.setdefault(keys[next(iter(x))], []).append(x)
    graded = sum(matrix_rank(Matrix(m.field, m.nrows, len(xs), xs))
                 for xs in blocks.values())
    assert matrix_rank(m) == graded == m.ncols - kernel(m).dim
    assert m.cols == before
    # the transpose eliminates the other side of each grade's block
    assert matrix_rank(transpose(m)) == matrix_rank(m)


@st.composite
def shared_lead_matrices(draw):
    """Sparse matrices in which many columns share their lead (lowest
    row): after a first column, each is new, a scaled copy of an earlier
    one, or agrees with an earlier one at its lead and differs only
    below it."""
    f = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 9))
    column = st.lists(sparse_entry, min_size=nrows, max_size=nrows)
    cols = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["new", "copy", "below"]))
        base = draw(st.sampled_from(cols)) if cols else {}
        if kind == "copy" and base:
            c = f.of(draw(sparse_entry.filter(bool)))
            cols.append({r: f.mul(c, v) for r, v in base.items()})
            continue
        col = {r: v for r, v in enumerate(map(f.of, draw(column))) if v}
        if kind == "below" and base:
            lead = min(base)
            col = {r: v for r, v in col.items() if r > lead}
            col[lead] = base[lead]
        cols.append(col)
    return Matrix(f, nrows, len(cols), cols)


@given(shared_lead_matrices())
def test_free_leads_match_the_solver(m):
    # the reference feeds the lines the rank eliminates, the columns
    # unless the nonempty rows are fewer, sparsest first, one at a time
    lines = [x for x in m.cols if x]
    by_rows = len(set().union(*lines)) < len(lines)
    if by_rows:
        lines = transpose(Matrix(m.field, m.nrows, len(lines), lines)).cols
    solver = EchelonSolver(m.field)
    for line in sorted((x for x in lines if x), key=len):
        solver.add(line)
    before = [dict(c) for c in m.cols]
    leads = set()
    assert matrix_rank(m, leads) == len(solver.pivots)
    assert len(solver.pivots) == m.ncols - kernel(m).dim
    assert leads == (set() if by_rows else set(solver.pivots))
    assert m.cols == before


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
    expected = [[f.zero] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        expected[r][c] = f.add(expected[r][c], f.of(v))
    assert dense(m) == expected
    assert all(v != f.zero for col in m.cols for v in col.values())
    want = [{r: row[c] for r, row in enumerate(expected) if row[c] != f.zero}
            for c in range(ncols)]
    assert m == Matrix(f, nrows, ncols, want)
    assert m.nnz() == sum(map(len, want))
    for c in range(ncols):
        assert m.apply({c: f.one}) == want[c]


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
    assert (u == v) == (all(not u.reduce(x) for x in v.rows)
                        and all(not v.reduce(x) for x in u.rows))


@given(st.one_of(matrices(), sparse_matrices()))
def test_kernel_vectors_annihilate(m):
    for v in kernel(m).rows:
        assert m.apply(v) == {}


def assert_rref(u):
    """The pivots strictly increase, each row's leading entry is a one at
    its pivot, and every row is zero at the other pivots."""
    assert len(u.rows) == len(u.pivots)
    assert all(a < b for a, b in zip(u.pivots, u.pivots[1:]))
    for pc, row in zip(u.pivots, u.rows):
        assert min(row) == pc and row[pc] == u.field.one
        assert not any(q in row for q in u.pivots if q != pc)


@given(st.one_of(matrices(), sparse_matrices()))
def test_kernel_and_span_are_rref_bases(m):
    ker = kernel(m)
    assert_rref(ker)
    assert ker.dim == m.ncols - matrix_rank(m)
    assert all(m.apply(v) == {} for v in ker.rows)
    assert_rref(column_space(m))
    assert_rref(Subspace.from_vectors(m.field, m.ncols, transpose(m).cols))


@given(st.data())
def test_apply_matches_dense_product(data):
    m = data.draw(sparse_matrices())
    vecs = data.draw(st.lists(sparse_vectors(m), min_size=1, max_size=4))
    expected = [dense_apply(m, v) for v in vecs]
    assert [m.apply(v) for v in vecs] == expected
    # apply leaves the matrix as it was
    assert [m.apply(v) for v in reversed(vecs)] == expected[::-1]


nonzero = st.integers(-60, 60).filter(bool)


@given(st.integers(-200, 200), nonzero)
def test_rational_div_keeps_integer_quotients(a, b):
    q = QQ.div(a, b)
    assert q == Fraction(a, b)
    assert (type(q) is int) == (a % b == 0)
    assert QQ.div(Fraction(a, 3), b) == Fraction(a, 3 * b)
    assert QQ.inv(b) == Fraction(1, b)


@given(st.integers(-200, 200), nonzero)
def test_rational_of_makes_integral_values_ints(a, b):
    v = QQ.of(Fraction(a * b, b))
    assert type(v) is int and v == a
    assert type(QQ.of(a)) is int and QQ.of(a) == a
    assert GF(32003).of(Fraction(a * b, b)) == a % 32003
    assert GF(32003).of(Fraction(a, b)) == a * pow(b, -1, 32003) % 32003


def test_rational_of_strings():
    assert type(QQ.of("6/3")) is int and QQ.of("6/3") == 2
    assert type(QQ.of("-4")) is int and QQ.of("-4") == -4
    half = QQ.of("1/2")
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert GF(7).of("1/2") == 4
    with pytest.raises(InputError):
        QQ.of(0.5)


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
    rows = m.cols[:5]
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


@given(st.one_of(matrices(), sparse_matrices()).flatmap(
    lambda m: st.tuples(st.just(m),
                        st.lists(st.booleans(), min_size=m.ncols,
                                 max_size=m.ncols),
                        st.lists(entry, min_size=m.ncols, max_size=m.ncols),
                        ambient_vectors(m))))
def test_solver_divides_out_untagged_vectors(case):
    m, tagged, coeffs, other = case
    f = m.field
    vecs = m.cols
    solver = EchelonSolver(f)
    for k, vec in enumerate(vecs):
        solver.add(vec, k if tagged[k] else None)
    untagged = Subspace.from_vectors(
        f, m.nrows, [v for v, t in zip(vecs, tagged) if not t])
    total = Subspace.from_vectors(f, m.nrows, vecs)

    target = {}
    for c, vec in zip(coeffs, vecs):
        f.row_addmul(target, vec, f.of(c))
    combo = solver.express(target)
    assert combo is not None and all(tagged[k] for k in combo)
    rest = dict(target)
    for k, c in combo.items():
        f.row_addmul(rest, vecs[k], f.neg(c))
    assert not untagged.reduce(rest)

    npivots = len(solver.pivots)
    assert not solver.add(target, "again") and not solver.add(target)
    assert len(solver.pivots) == npivots == total.dim

    # ``other`` ranges over the ambient space, inside the span or not
    assert (solver.express(other) is None) == bool(total.reduce(other))
    assert solver.express({m.nrows: f.one}) is None


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@given(st.data())
def test_elimination_leaves_inputs_unchanged(f, data):
    # the solver keeps a pivot it never reduced as the caller's dict
    m = data.draw(st.one_of(matrices((f,)), sparse_matrices((f,))))
    extra = data.draw(st.lists(ambient_vectors(m), max_size=4))
    cols = m.cols
    saved = copy.deepcopy((cols, extra))
    matrix_rank(m)
    kernel(m)
    Subspace.from_vectors(f, m.nrows, cols)
    assert (cols, extra) == saved
    solver = EchelonSolver(f)
    for k, vec in enumerate(cols):
        solver.add(vec, k if k % 2 else None)
        solver.express(vec)
    for vec in extra:
        solver.express(vec)
        solver.add(vec)
    assert (cols, extra) == saved


def test_solver_rejects_outside_vector():
    f = QQ
    solver = EchelonSolver(f)
    solver.add({0: f.one}, "a")
    assert solver.express({1: f.one}) is None
    assert len(solver.pivots) == 1
