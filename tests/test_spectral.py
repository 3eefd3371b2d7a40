"""Spectral machinery: page dimensions and differentials, the labeled
first-page decomposition, the cup-product form of the first differential,
and the degeneration checks."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from trihoch import (
    GF,
    QQ,
    BimoduleMap,
    CochainWindow,
    FilteredComplex,
    FiniteDimAlgebra,
    InputError,
    TriangularAlgebra,
    EchelonSolver,
    Matrix,
    Subspace,
    build_bar_complex,
    build_ext_complex,
    build_filtered,
    build_tensorial,
    chain_module,
    check_degeneration_A2k,
    cohomology_dims,
    compute_levels,
    compute_page,
    cup_d1_general,
    e1_structure_report,
    matrix_rank,
    path_algebra,
    validate_triangular,
    x_block_bimodule,
)
from trihoch.spectral import (_correction_solver, _d2_class_vanishes,
                              _labeled_summands, e1_dims)

from instances import (
    DATA_NAMES,
    FP,
    assert_composes_to_zero,
    chain_algebra,
    data_algebra,
    embedding,
    free_bimodule,
    nilpotent_action_algebra,
    thin_bimodule,
)
from test_hochcomplex import (FIELD_IDS, FIELDS, over_field,
                              plain_cohomology_dims)
from test_quiver import branching_quiver


@pytest.fixture(scope="module")
def branching():
    q = branching_quiver()
    t = path_algebra(q, compute_levels(q), QQ)
    fc = build_filtered(t, L=4)
    return t, fc


@pytest.fixture(scope="module")
def branching_pages(branching):
    _, fc = branching
    return [compute_page(fc, r) for r in range(4)]


class TestGoldenPages:
    def test_page0_counts_tags(self, branching, branching_pages):
        _, fc = branching
        w = fc.window
        page0 = branching_pages[0]
        for (p, q), d in page0.dims.items():
            assert d == sum(1 for tag in w.tags[p + q] if tag == p)
        assert page0.dims[(0, 1)] == 6
        assert page0.dims[(1, 0)] == 33

    def test_page1_single_row(self, branching_pages):
        page1 = branching_pages[1]
        assert page1.dims[(0, 0)] == 4
        assert page1.dims[(1, 0)] == 17
        assert page1.dims[(2, 0)] == 8
        for (p, q), d in page1.dims.items():
            if q > 0:
                assert d == 0

    def test_page2_collapsed(self, branching_pages):
        page2 = branching_pages[2]
        assert (page2.dims[(0, 0)], page2.dims[(1, 0)], page2.dims[(2, 0)]) \
            == (1, 6, 0)
        for (p, q), d in page2.dims.items():
            if q > 0:
                assert d == 0

    def test_stabilized_at_level_count(self, branching_pages):
        page2, page3 = branching_pages[2], branching_pages[3]
        assert page2.dims == page3.dims
        for m in page3.d.values():
            assert m.nnz() == 0

    def test_convergence_to_cohomology(self, branching, branching_pages):
        _, fc = branching
        hh = cohomology_dims(fc.window)
        final = branching_pages[3]
        for l in range(fc.window.L + 1):
            total = sum(d for (p, q), d in final.dims.items() if p + q == l)
            assert total == hh[l]

    def test_reliability_mask(self, branching, branching_pages):
        t, fc = branching
        L = fc.window.L
        for page in branching_pages:
            assert set(page.dims) == {(p, q) for p in range(t.n)
                                      for q in range(L - p + 1)}
            for (p, q) in page.d:
                assert p + q <= L - 1

    def test_ground_field_page(self):
        t = TriangularAlgebra(QQ, 1, [FiniteDimAlgebra.field_algebra(QQ)],
                              {}, {})
        fc = build_filtered(t, L=3)
        # page 0 is the graded complex itself, one cell per degree
        page0 = compute_page(fc, 0)
        assert all(d == 1 for d in page0.dims.values())
        for r in (1, 2, 3):
            page = compute_page(fc, r)
            for (p, q), d in page.dims.items():
                assert d == (1 if (p, q) == (0, 0) else 0)


@pytest.fixture(scope="module", params=["branching", "nilpotent", "chain"])
def filtered(request):
    if request.param == "branching":
        q = branching_quiver()
        t = path_algebra(q, compute_levels(q), QQ)
    elif request.param == "nilpotent":
        t = nilpotent_action_algebra()
    else:
        t = chain_algebra(3, QQ)
    return build_filtered(t, L=4)


class TestPageRecurrence:
    def test_next_page_is_homology_of_d(self, filtered):
        fc = filtered
        L = fc.window.L
        for r in range(0, 3):
            page = compute_page(fc, r)
            nxt = compute_page(fc, r + 1)
            for (p, q), d in page.dims.items():
                if p + q > L - 1:
                    continue
                out = page.d.get((p, q))
                out_rank = matrix_rank(out) if out is not None else 0
                inc = page.d.get((p - r, q + r - 1))
                inc_rank = matrix_rank(inc) if inc is not None else 0
                assert nxt.dims[(p, q)] == d - out_rank - inc_rank

    def test_d_squares_to_zero(self, filtered):
        fc = filtered
        for r in range(0, 3):
            page = compute_page(fc, r)
            for (p, q), m1 in page.d.items():
                m2 = page.d.get((p + r, q - r + 1))
                if m2 is not None:
                    assert_composes_to_zero(m2, m1, (r, p, q))

    def test_representatives_express_as_unit_classes(self, filtered):
        page = compute_page(filtered, 1)
        for (p, q), reps in page.reps.items():
            for k, vec in enumerate(reps):
                coords = page.class_coords(p, q, vec)
                assert coords[k] == filtered.window.field.one
                assert all(c == 0 for i, c in enumerate(coords) if i != k)


def test_class_coords_rejects_non_cycle(branching, branching_pages):
    _, fc = branching
    page2 = branching_pages[2]
    delta0 = fc.window.diffs[0]
    bad = next({c: QQ.one} for c in range(fc.window.dims[0])
               if delta0.cols[c])
    with pytest.raises(InputError, match="not a cycle"):
        page2.class_coords(0, 0, bad)


def reference_page(fc, r):
    """dims, reps and d of page r with every denominator built first as a
    canonical subspace, Z_{r-1}^{p+1} + boundaries, whose basis a fresh
    solver divides out before it picks representatives."""
    w = fc.window
    f = w.field
    dims, reps, d, solvers = {}, {}, {}, {}
    for l in range(w.L + 1):
        for p in range(min(fc.n, l + 1)):
            den = Subspace.from_vectors(
                f, w.dims[l],
                fc.z_space(p + 1, r - 1, l).rows + fc.boundaries(p, r, l))
            solver = EchelonSolver(f)
            for row in den.rows:
                assert solver.add(row)
            cell = []
            for row in fc.z_space(p, r, l).rows:
                if solver.add(row, len(cell)):
                    cell.append(dict(row))
            dims[(p, l - p)] = len(cell)
            reps[(p, l - p)] = cell
            solvers[(p, l - p)] = solver
    for (p, q), cell in reps.items():
        if p + q > w.L - 1:
            continue
        target = (p + r, q - r + 1)
        cols = [solvers[target].express(w.diffs[p + q].apply(v))
                if target in solvers else {} for v in cell]
        d[(p, q)] = Matrix(f, dims.get(target, 0), len(cell), cols)
    return dims, reps, d


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_pages_match_the_canonical_denominator(suite2, field):
    """Dividing out the denominator's raw spanning vectors picks the same
    representatives and the same differentials as dividing out its
    canonical basis, cell by cell, on every page."""
    for inst in suite2:
        fc = build_filtered(over_field(inst.t, field), L=4)
        for r in range(fc.n + 1):
            page = compute_page(fc, r)
            dims, reps, d = reference_page(fc, r)
            assert page.dims == dims, (inst.name, r)
            assert page.reps == reps, (inst.name, r)
            assert page.d == d, (inst.name, r)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_pages_leave_the_window_unchanged(suite2, field):
    """Every report reads one shared window, and ``kernel`` reduces copies
    of the columns it reads: paging r = 0..n and ranking leave every
    differential as it was built."""
    for inst in suite2:
        fc = build_filtered(over_field(inst.t, field), L=3)
        w = fc.window
        before = [[dict(c) for c in d.cols] for d in w.diffs]
        for r in range(fc.n + 1):
            compute_page(fc, r)
        cohomology_dims(w)
        assert [[dict(c) for c in d.cols] for d in w.diffs] == before, \
            inst.name


class ReadRecording(FilteredComplex):
    """A filtered complex that lists every cycle space handed out."""

    __slots__ = ("read",)

    def z_space(self, p, r, l):
        z = super().z_space(p, r, l)
        self.read.append(z)
        return z


def test_page_cache_holds_what_the_page_read(suite2):
    """After page r the cycle-space cache holds exactly the spaces that
    page r read, and the pages are those of a complex that never forgets
    a cycle space."""
    for inst in suite2:
        fc = ReadRecording(build_filtered(inst.t, L=3).window, inst.t.n)
        for r in range(fc.n + 1):
            fc.read = []
            page = compute_page(fc, r)
            assert ({id(z) for z in fc._zcache.values()}
                    == {id(z) for z in fc.read}), (inst.name, r)
            fresh = build_filtered(inst.t, L=3)
            for k in range(r):
                compute_page(fresh, k)
            assert compute_page(fresh, r).reps == page.reps, (inst.name, r)


@st.composite
def barcoded_windows(draw):
    """A tagged window with a known barcode, as (FilteredComplex,
    intervals, unpaired).

    An interval (l, s, t) is a vector x of degree l and tag s with
    dx = y, a vector of degree l + 1 and tag t >= s; an unpaired vector
    (l, s) has degree l, tag s and no differential in or out.  No tag
    exceeds its degree.  The basis
    of each degree is shuffled, then changed by random moves b_i -> b_i -
    c b_j with tag j >= tag i, which keep the filtration: each replaces
    column i of delta_l by column i - c column j, and adds c times row i
    of delta_(l-1) to its row j."""
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    L = draw(st.integers(1, 3))

    def tag(lo, l):
        # at most the degree, as a jump count is, so that q = l - p >= 0
        return draw(st.integers(lo, min(l, n - 1)))

    intervals = []
    for l in range(L + 1):
        for _ in range(draw(st.integers(0, 3))):
            s = tag(0, l)
            intervals.append((l, s, tag(s, l + 1)))
    unpaired = [(l, tag(0, l)) for l in range(L + 2)
                for _ in range(draw(st.integers(0, 2)))]
    # each degree's basis: ("x" or "y", interval number) or ("u", tag)
    vectors = [[] for _ in range(L + 2)]
    for k, (l, s, t) in enumerate(intervals):
        vectors[l].append(("x", k, s))
        vectors[l + 1].append(("y", k, t))
    for l, s in unpaired:
        vectors[l].append(("u", None, s))
    vectors = [draw(st.permutations(vs)) for vs in vectors]
    tags = [[v[2] for v in vs] for vs in vectors]
    dims = [len(vs) for vs in vectors]
    cols = []
    for l in range(L + 1):
        at = {v[1]: i for i, v in enumerate(vectors[l + 1]) if v[0] == "y"}
        cols.append([{at[v[1]]: f.one} if v[0] == "x" else {}
                     for v in vectors[l]])
    for l, i, j, c in draw(st.lists(st.tuples(
            st.integers(0, L + 1), st.integers(0, 7), st.integers(0, 7),
            st.integers(1, 4)), max_size=12)):
        c = f.of(c)
        if (i == j or max(i, j) >= dims[l] or tags[l][j] < tags[l][i]
                or c == f.zero):
            continue
        if l <= L:
            f.row_addmul(cols[l][i], cols[l][j], f.neg(c))
        if l >= 1:
            for v in cols[l - 1]:
                if i in v:
                    f.row_addmul(v, {j: f.mul(c, v[i])}, f.one)
    w = CochainWindow(f, L, None, dims,
                      [Matrix(f, dims[l + 1], dims[l], cols[l])
                       for l in range(L + 1)], tags=tags)
    return FilteredComplex(w, n), intervals, unpaired


def barcode_dim(intervals, unpaired, r, p, q):
    """dim E_r^{p,q} of a barcoded window: the unpaired vectors at the
    cell, and both ends of every interval there with t - s >= r."""
    at = (p + q, p)
    alive = [(k, s, t) for k, s, t in intervals if t - s >= r]
    return (sum((k, s) == at for k, s in unpaired)
            + sum((k, s) == at for k, s, _ in alive)
            + sum((k + 1, t) == at for k, _, t in alive))


@given(barcoded_windows())
def test_pages_follow_the_barcode(case):
    """HH counts the unpaired vectors.  On page r an interval (l, s, t)
    lives at the cells of x and y exactly when r <= t - s, and d_(t-s) is
    nonzero on it, so the rank of d_r out of a cell is the number of its
    intervals with t - s = r."""
    fc, intervals, unpaired = case
    L = fc.window.L
    assert cohomology_dims(fc.window) == \
        [sum(k == l for k, _ in unpaired) for l in range(L + 1)]
    for r in range(fc.n + 1):
        page = compute_page(fc, r)
        for (p, q), dim in page.dims.items():
            assert dim == barcode_dim(intervals, unpaired, r, p, q), (r, p, q)
        for (p, q), d in page.d.items():
            assert matrix_rank(d) == sum((k, s, t - s) == (p + q, p, r)
                                         for k, s, t in intervals), (r, p, q)


class TestGradedE1:
    """``e1_dims`` reads page 1 as H(gr^p C) by ranks alone; it must give
    the dimensions of ``compute_page(fc, 1)``."""

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_suite2(self, suite2, field):
        for inst in suite2:
            fc = build_filtered(over_field(inst.t, field), L=4)
            assert e1_dims(fc) == compute_page(fc, 1).dims, inst.name

    # the torus is left out: its page 1 alone takes 13 s and 1.3 GB at L=2
    @pytest.mark.parametrize(
        "name", [n for n in DATA_NAMES if n != "torus.simplicial"])
    def test_data_inputs(self, name):
        t = data_algebra(name, QQ)
        for L in (2, 3) if t.total.dim <= 13 else (2,):
            fc = build_filtered(t, L)
            assert e1_dims(fc) == compute_page(fc, 1).dims, L

    @given(barcoded_windows())
    def test_follows_the_barcode(self, case):
        """gr^p C keeps the two ends of an interval apart exactly when
        t > s, so E_1 is the unpaired vectors and both ends of every
        interval with t - s >= 1."""
        fc, intervals, unpaired = case
        assert e1_dims(fc) == {
            (p, q): barcode_dim(intervals, unpaired, 1, p, q)
            for (p, q) in compute_page(fc, 1).dims}

    def test_graded_piece(self):
        """gr^1 of a hand-built window keeps the vectors of tag 1, and delta
        cut to them, renumbered in basis order."""
        w = CochainWindow(QQ, 1, None, [2, 3, 2],
                          [Matrix(QQ, 3, 2, [{0: 1, 2: 2}, {1: 1, 2: 3}]),
                           Matrix(QQ, 2, 3, [{0: -2, 1: 4}, {0: -3, 1: 6},
                                             {0: 1, 1: -2}])],
                          tags=[[1, 0], [1, 0, 1], [1, 2]])
        assert_composes_to_zero(w.diffs[1], w.diffs[0])
        g = FilteredComplex(w, 3).graded(1)
        assert g.dims == [1, 2, 1] and g.tags is None and g.cells is None
        assert [d.cols for d in g.diffs] == [[{0: 1, 1: 2}],
                                             [{0: -2}, {0: 1}]]


class TestE1Structure:
    def test_branching_labeled_row(self, branching):
        t, _ = branching
        report = e1_structure_report(t, build_filtered(t, 4))
        assert report["projective_hypothesis"]
        assert report["all_agree"]
        cells = report["cells"]
        assert cells[(0, 0)]["summands"] == [("H(A1)", 1), ("H(A2)", 1),
                                             ("H(A3)", 2)]
        assert cells[(1, 0)]["summands"] == [("Ext(M[2,1])", 1),
                                             ("Ext(M[3,1])", 8),
                                             ("Ext(M[3,2])", 8)]
        assert cells[(1, 0)]["labeled_total"] == 17
        assert cells[(2, 0)]["summands"] == [("Ext(M[3,2](x)M[2,1])", 8)]
        for (p, q), cell in cells.items():
            if q > 0:
                assert cell["labeled_total"] == 0

    def test_path_algebra_positive_rows_vanish(self):
        t = chain_algebra(3, QQ)
        report = e1_structure_report(t, build_filtered(t, 4))
        assert report["projective_hypothesis"] and report["all_agree"]
        for (p, q), cell in report["cells"].items():
            if q > 0:
                assert cell["labeled_total"] == 0

    def test_two_level_case(self):
        t = nilpotent_action_algebra()
        report = e1_structure_report(t, build_filtered(t, 4))
        assert report["projective_hypothesis"]  # no intermediate algebras
        assert report["all_agree"]
        cells = report["cells"]
        assert cells[(0, 0)]["summands"] == [("H(A1)", 2), ("H(A2)", 1)]
        assert cells[(1, 0)]["summands"] == [("Ext(M[2,1])", 2)]
        # level-1 dual numbers keep contributing above the bottom row
        assert cells[(0, 1)]["labeled_total"] == 1

    def test_single_level_reduces_to_bar(self):
        t = TriangularAlgebra(QQ, 1,
                              [FiniteDimAlgebra.dual_numbers(QQ)], {}, {})
        report = e1_structure_report(t, build_filtered(t, 4))
        assert report["all_agree"]
        cells = report["cells"]
        assert set(cells) == {(0, q) for q in range(5)}
        assert [cells[(0, q)]["summands"] for q in range(3)] \
            == [[("H(A1)", 2)], [("H(A1)", 1)], [("H(A1)", 1)]]

    def test_hypothesis_flag_reacts_to_middle(self):
        k1 = FiniteDimAlgebra.field_algebra(FP)
        mid = FiniteDimAlgebra.dual_numbers(FP)
        k3 = FiniteDimAlgebra.field_algebra(FP)
        t = build_tensorial([k1, mid, k3],
                            [thin_bimodule(FP, mid, k1),
                             thin_bimodule(FP, k3, mid)])
        report = e1_structure_report(t, build_filtered(t, 2))
        assert not report["projective_hypothesis"]


def full_summand_dims(t, L):
    """{(p, q): [dim]} over the summands of ``_labeled_summands``, each
    from its unnormalized complex with one plain rank per differential:
    the full bar complex Hom(A_i^{(x) q}, A_i), and the full Ext complex
    of the chain's tensor product over B and A."""
    out = {}
    for p in range(min(t.n, L + 1)):
        if p == 0:
            ws = [build_bar_complex(t.diag[i - 1], x_block_bimodule(t, i, i), L)
                  for i in range(1, t.n + 1)]
        else:
            ws = [build_ext_complex(chain_module(t, chain),
                                    x_block_bimodule(t, chain[-1], chain[0]),
                                    L - p)
                  for chain in combinations(range(1, t.n + 1), p + 1)]
        dims = [plain_cohomology_dims(w) for w in ws]
        for q in range(L - p + 1):
            out[(p, q)] = [d[q] for d in dims]
    return out


class TestNormalizedSummands:
    """The labeled E_1 summands come from the normalized bar and Ext
    complexes; their dimensions must be those of the full complexes."""

    @staticmethod
    def check(t, L):
        got = {cell: [d for _, d in summands]
               for cell, summands in _labeled_summands(t, L).items()}
        assert got == full_summand_dims(t, L)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_suite2(self, suite2, field):
        for inst in suite2:
            self.check(over_field(inst.t, field), 4)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", DATA_NAMES)
    def test_data_inputs(self, name, field):
        t = data_algebra(name, field)
        self.check(t, 3 if t.total.dim <= 13 else 1)


def cup_d1_n3(t, f, g, h, l, window):
    """The paper's three-level cup-product display for the first
    differential on the column-0 summands: identities of the three gap
    blocks cupped on the left of (f, g, h) and on the right with sign
    (-1)^(l+1), each summed by ``cup_d1_general``.

    f, g, h are degree-l cocycles of the bar complexes of the three
    diagonal algebras with coefficients in their diagonal blocks, given
    as sparse vectors over those bar windows' degree-l coordinates;
    non-cocycles are rejected.  Returns the column-1 cochain as a sparse
    vector over the window's degree-(l+1) coordinates.
    """
    if t.n != 3:
        raise InputError("this display is specific to three levels")
    fld = t.field

    for i, fi in ((1, f), (2, g), (3, h)):
        blk = x_block_bimodule(t, i, i)
        bw = build_bar_complex(t.diag[i - 1], blk, l)
        img = bw.diffs[l].apply(fi)
        if img:
            raise InputError(
                f"input cochain at level {i} is not a cocycle; its class "
                "map is ill-defined")

    # embed each cocycle as a pure stay-power cochain and cup per display
    out = {}
    for i, fi in ((1, f), (2, g), (3, h)):
        tau = ((i, i),) * l + (i,)
        cell = next((c for c in window.cells[l] if c.key == tau), None)
        if cell is None:
            if fi:
                raise InputError(
                    f"window is missing the degree-{l} stay cell at level {i}")
            continue
        emb = {cell.offset + k: c for k, c in fi.items()}
        fld.row_addmul(out, cup_d1_general(t, tau, emb, window), fld.one)
    return out


class TestCupProducts:
    def test_degree_zero_display(self, branching):
        """Center elements (1, 2, (3, 4)) at the three levels: the display
        must reproduce the off-diagonal part of the degree-0 cobord of
        their joint embedding."""
        t, fc = branching
        w = fc.window
        f = {0: QQ.of(1)}
        g = {0: QQ.of(2)}
        h = {0: QQ.of(3), 1: QQ.of(4)}
        got = cup_d1_n3(t, f, g, h, 0, w)
        emb = {0: QQ.of(1), 1: QQ.of(2), 2: QQ.of(3), 3: QQ.of(4)}
        full = w.diffs[0].apply(emb)
        expect = {k: v for k, v in full.items() if w.tags[1][k] == 1}
        assert got == expect
        assert got  # scalars differ, so the cups are nonzero

    def test_matching_scalars_give_zero(self, branching):
        t, fc = branching
        w = fc.window
        c = QQ.of(7)
        got = cup_d1_n3(t, {0: c}, {0: c}, {0: c, 1: c}, 0, w)
        assert got == {}

    def test_general_matches_cobord_column(self):
        """A derivation of the dual numbers, embedded at the level-1 stay
        cell: the cup sum equals the jump-count-1 part of its cobord."""
        t = nilpotent_action_algebra()
        fc = build_filtered(t, L=3)
        w = fc.window
        blk = x_block_bimodule(t, 1, 1)
        bw = build_bar_complex(t.diag[0], blk, 1)
        deriv = {3: FP.one}  # x -> x
        assert bw.diffs[1].apply(deriv) == {}
        tau = ((1, 1), 1)
        cell = next(c for c in w.cells[1] if c.key == tau)
        emb = {cell.offset + k: v for k, v in deriv.items()}
        got = cup_d1_general(t, tau, emb, w)
        full = w.diffs[1].apply(emb)
        expect = {k: v for k, v in full.items() if w.tags[2][k] == 1}
        assert got == expect and got != {}

    def test_rejects_non_cocycle(self, branching):
        t, fc = branching
        # a degree-1 cochain on A1 = k is a cocycle only if it vanishes
        with pytest.raises(InputError, match="class map is ill-defined"):
            cup_d1_n3(t, {0: QQ.one}, {}, {}, 1, fc.window)

    def test_rejects_support_outside_cell(self):
        t = nilpotent_action_algebra()
        fc = build_filtered(t, L=2)
        tau = ((1, 1), 1)
        with pytest.raises(InputError, match="not supported on the named cell"):
            cup_d1_general(t, tau, {10 ** 6: FP.one}, fc.window)

    def test_rejects_missing_cell(self):
        ks = [FiniteDimAlgebra.field_algebra(FP) for _ in range(3)]
        t = TriangularAlgebra(FP, 3, ks,
                              {(2, 1): thin_bimodule(FP, ks[1], ks[0])}, {})
        fc = build_filtered(t, L=2)
        # an absent block, then a downward jump, moves that are not
        # consecutive, and a source that is not the first move's
        for tau in (((2, 3), 2), ((3, 2), 3), ((2, 2), (1, 1), 1),
                    ((1, 1), 2)):
            with pytest.raises(InputError, match="not present in the window"):
                cup_d1_general(t, tau, {0: FP.one}, fc.window)


class TestDegeneration:
    def test_branching_degenerates_at_page_two(self, branching):
        t, _ = branching
        report = check_degeneration_A2k(t, build_filtered(t, 4))
        assert report["tensorial"]
        assert report["a2_one_dimensional"]
        assert report["d2_zero"]
        assert report["outer_classes_checked"] == 9
        assert report["outer_classes_vanish"]
        assert report["nonsurviving_skipped"] == 0

    def test_wide_middle_outer_classes(self):
        k1 = FiniteDimAlgebra.field_algebra(FP)
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        k3 = FiniteDimAlgebra.field_algebra(FP)
        t = build_tensorial([k1, sq, k3],
                            [free_bimodule(FP, sq, k1),
                             free_bimodule(FP, k3, sq)])
        assert validate_triangular(t) == []
        report = check_degeneration_A2k(t, build_filtered(t, 4))
        assert report["tensorial"]
        assert not report["a2_one_dimensional"]
        assert report["d2_zero"] is None
        assert report["outer_classes_vanish"]

    def test_refuses_other_level_counts(self):
        with pytest.raises(InputError,
                           match="exactly three levels, got 2"):
            t = nilpotent_action_algebra()
            check_degeneration_A2k(t, build_filtered(t, 4))

    def test_refuses_non_tensorial(self):
        t = chain_algebra(3, QQ)
        t.mus[(3, 2, 1)] = BimoduleMap(t.module(3, 2), t.module(2, 1),
                                       t.module(3, 1), {})
        with pytest.raises(InputError, match="tensorial"):
            check_degeneration_A2k(t, build_filtered(t, 4))

    def test_detects_tensoriality_from_structure(self):
        # the chain path algebra is tensorial though not built as one
        t = chain_algebra(3, QQ)
        report = check_degeneration_A2k(t, build_filtered(t, 4))
        assert report["tensorial"] and report["d2_zero"]

    @pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F32003"])
    @pytest.mark.parametrize("with_w", [False, True],
                             ids=["class_survives", "class_bounds"])
    def test_outer_class_step(self, field, with_w):
        """The outer-class step on x in a hand-built window with n = 3:
        degree 0 holds x (tag 0) and y (tag 1), degree 1 holds u (tag 1)
        and z (tag 2), and dx = u + z, dy = u.  The correction y takes dx
        to z in F^2, which bounds nothing, so the class does not vanish.
        A tag-1 w with dw = z makes z a page-2 boundary, and it does."""
        one = field.one
        cols = [{0: one, 1: one}, {0: one}] + [{1: one}] * with_w
        tags0 = [0, 1] + [1] * with_w
        w = CochainWindow(field, 0, None, [len(cols), 2],
                          [Matrix(field, 2, len(cols), cols)],
                          tags=[tags0, [1, 2]])
        fc = FilteredComplex(w, 3)
        bounds = EchelonSolver(field)
        for vec in fc.boundaries(2, 2, 1):
            bounds.add(vec)
        assert _d2_class_vanishes(fc, {0: one}, 0,
                                  _correction_solver(fc, 0), bounds) is with_w


class TestBlockHelpers:
    def test_x_block_extraction(self, branching):
        t, _ = branching
        blk = x_block_bimodule(t, 3, 1)
        assert blk.dim == t.block_dim(3, 1) == 4
        assert blk.left_alg is t.diag[2]
        assert blk.right_alg is t.diag[0]
        assert validate_triangular(embedding(blk)) == []

    def test_chain_module_dims(self, branching):
        t, _ = branching
        assert chain_module(t, (1, 3)).dim == 4
        assert chain_module(t, (1, 2, 3)).dim == 4
        assert chain_module(t, (2, 3)).dim == 4
        assert chain_module(t, (1, 2)).dim == 1
