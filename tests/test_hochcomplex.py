"""Cochain-complex builders: the trajectory-decomposed relative complex,
the brute-force oracle, and the reduced Ext complexes."""

import hashlib
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from trihoch import (
    DEFAULT_ORACLE_BUDGET,
    GF,
    QQ,
    Bimodule,
    BimoduleMap,
    BudgetExceeded,
    CochainWindow,
    FiniteDimAlgebra,
    InputError,
    InternalInvariantError,
    Matrix,
    TriangularAlgebra,
    bar_budget_estimate,
    bar_oracle,
    build_bar_complex,
    build_ext_complex,
    build_relative_complex,
    center,
    chain_module,
    cohomology_dims,
    compute_levels,
    matrix_rank,
    parse_triangular_file,
    path_algebra,
    validate_triangular,
    x_block_bimodule,
)

from trihoch.hochcomplex import (_bar_grades, _check_grading, _layout,
                                 _word_window, over_unit_quotients)

from instances import (
    DATA_NAMES,
    FP,
    assert_composes_to_zero,
    chain_algebra,
    data_algebra,
    kronecker_algebra,
    nilpotent_action_algebra,
    thin_bimodule,
)
from test_quiver import branching_quiver


def branching_algebra(f=QQ):
    q = branching_quiver()
    return path_algebra(q, compute_levels(q), f)


def full_bar(t, L):
    """The unnormalized bar complex Hom(T^{(x) l}, T) of ``t``, graded like
    ``bar_oracle``."""
    total = t.total
    x = Bimodule(t.field, total.dim, total, total, total.mul, total.mul)
    weight = [j - i for (j, i) in t.block_of]
    return build_bar_complex(total, x, L, grading=(weight, weight))


def over_field(t, f):
    """``t`` with every structure constant carried to the field ``f``; a
    constant of GF(p) is read as the integer in (-p/2, p/2]."""
    p = t.field.char

    def lift(v):
        return f.of(v - p if p and v > p // 2 else v)

    def vecs(table):
        return {k: {i: lift(v) for i, v in vec.items()}
                for k, vec in table.items()}

    diag = [FiniteDimAlgebra(f, a.dim, vecs(a.mul),
                             {i: lift(v) for i, v in a.unit.items()})
            for a in t.diag]
    mods = {(j, i): Bimodule(f, m.dim, diag[j - 1], diag[i - 1],
                             vecs(m.lact), vecs(m.ract))
            for (j, i), m in t.mods.items()}
    mus = {(l, j, i): BimoduleMap(mods[(l, j)], mods[(j, i)], mods[(l, i)],
                                  vecs(mu.pair))
           for (l, j, i), mu in t.mus.items()}
    return TriangularAlgebra(f, t.n, diag, mods, mus)


# A1 = k x k on the basis (e1 - e2, 2 e1 + 2 e2), A2 = k[x]/(x^2) on (5, x)
# and M21 = A2 e1 + k e2: the unit sits on the second basis vector with
# coefficient 1/2, and (e1 - e2)^2 has a unit coordinate, so the projection
# to T/k.1 rescales it by the other unit coefficients.
SCALED_TRI = """\
algebra A1 dim 2
unit A1 : 0 1/2
mul A1 : 0 0 1 1/2
mul A1 : 0 1 0 2
mul A1 : 1 0 0 2
mul A1 : 1 1 1 2
algebra A2 dim 2
unit A2 : 1/5 0
mul A2 : 0 0 0 5
mul A2 : 0 1 1 5
mul A2 : 1 0 1 5
module M21 dim 3
lact M21 : 0 0 0 5
lact M21 : 0 1 1 5
lact M21 : 1 0 1 1
lact M21 : 0 2 2 5
ract M21 : 0 0 0 1
ract M21 : 1 0 1 1
ract M21 : 2 0 2 -1
ract M21 : 0 1 0 2
ract M21 : 1 1 1 2
ract M21 : 2 1 2 2
"""


def vector_space_bimodule(f, alg, r):
    """k^r with both copies of the one-dimensional algebra acting trivially."""
    lact = {(0, m): {m: f.one} for m in range(r)}
    ract = {(m, 0): {m: f.one} for m in range(r)}
    return Bimodule(f, r, alg, alg, lact, ract)


def check_filtration_stability(w):
    for l in range(w.L + 1):
        col_tags = w.tags[l]
        row_tags = w.tags[l + 1]
        for c, col in enumerate(w.diffs[l].cols):
            for r in col:
                assert row_tags[r] >= col_tags[c]


class TestRelativeComplex:
    def test_ground_field_case(self):
        t = TriangularAlgebra(QQ, 1, [FiniteDimAlgebra.field_algebra(QQ)],
                              {}, {})
        w = build_relative_complex(t, L=3)
        assert w.dims == [1, 1, 1, 1, 1]
        assert cohomology_dims(w) == [1, 0, 0, 0]

    def test_branching_dimensions(self):
        w = build_relative_complex(branching_algebra(), L=4)
        assert w.dims == [4, 39, 124, 309, 694, 1479]

    def test_branching_cohomology(self):
        w = build_relative_complex(branching_algebra(), L=4)
        assert cohomology_dims(w) == [1, 6, 0, 0, 0]

    def test_delta_squared_zero(self):
        for t in (branching_algebra(), nilpotent_action_algebra()):
            w = build_relative_complex(t, L=3)
            for l in range(w.L):
                assert_composes_to_zero(w.diffs[l + 1], w.diffs[l], l)

    def test_filtration_stability(self):
        for t in (branching_algebra(), nilpotent_action_algebra(),
                  chain_algebra(3, QQ)):
            check_filtration_stability(build_relative_complex(t, L=3))

    def test_degree_zero_tags_vanish(self):
        w = build_relative_complex(nilpotent_action_algebra(), L=2)
        assert all(tag == 0 for tag in w.tags[0])

    def test_h0_is_center(self):
        for t in (branching_algebra(), nilpotent_action_algebra(),
                  chain_algebra(3, QQ)):
            w = build_relative_complex(t, L=1)
            assert cohomology_dims(w)[0] == center(t.total).dim

    def test_dimension_identity(self):
        """dim C^l equals the weighted entry sum of the l-th power of the
        block-dimension matrix (the trajectory decomposition, counted)."""
        for t in (branching_algebra(), nilpotent_action_algebra()):
            w = build_relative_complex(t, L=4)
            n = t.n
            N = np.zeros((n, n), dtype=np.int64)
            for j in range(1, n + 1):
                for i in range(1, j + 1):
                    N[j - 1, i - 1] = t.block_dim(j, i)
            for l in range(0, w.L + 2):
                P = np.linalg.matrix_power(N, l)
                expect = sum(int(P[j - 1, i - 1]) * t.block_dim(j, i)
                             for j in range(1, n + 1)
                             for i in range(1, j + 1))
                assert w.dims[l] == expect


class TestBarOracle:
    def test_kronecker(self):
        assert cohomology_dims(bar_oracle(kronecker_algebra(QQ), L=2)) == [1, 3, 0]

    def test_branching(self):
        assert cohomology_dims(bar_oracle(branching_algebra(), L=2)) == [1, 6, 0]

    def test_budget_refusal(self):
        t = chain_algebra(2, QQ)  # total dim 3
        need = bar_budget_estimate(3, 3, 2)
        assert need == 423
        with pytest.raises(BudgetExceeded) as exc:
            bar_oracle(t, L=2, budget=100)
        assert exc.value.required == 423
        assert exc.value.budget == 100
        assert "423" in str(exc.value) and "100" in str(exc.value)
        assert DEFAULT_ORACLE_BUDGET == 10 ** 7

    def test_budget_estimate_is_honored(self):
        t = chain_algebra(2, QQ)
        w = bar_oracle(t, L=2, budget=bar_budget_estimate(3, 3, 2))
        assert cohomology_dims(w) == [1, 0, 0]

    def test_delta_squared_zero(self):
        w = bar_oracle(nilpotent_action_algebra(), L=2)
        for l in range(w.L):
            assert_composes_to_zero(w.diffs[l + 1], w.diffs[l], l)

    def test_zero_algebra(self):
        """1 = 0 in the zero algebra, so no letter is dropped."""
        zero = FiniteDimAlgebra(QQ, 0, {}, {})
        t = TriangularAlgebra(QQ, 1, [zero], {}, {})
        assert cohomology_dims(bar_oracle(t, L=2)) == [0, 0, 0]

    @staticmethod
    def check_normalized(t, L=3):
        """The normalized oracle has (d-1)^l d basis vectors in degree l
        and the cohomology of the full bar complex."""
        d = t.total.dim
        w = bar_oracle(t, L=L)
        assert w.dims == [(d - 1) ** l * d for l in range(L + 2)]
        assert cohomology_dims(w) == cohomology_dims(full_bar(t, L))

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
    def test_normalized_is_the_full_bar(self, suite2, field):
        for inst in suite2:
            self.check_normalized(over_field(inst.t, field))

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
    def test_normalized_with_scaled_unit(self, field):
        t = parse_triangular_file(SCALED_TRI, field)
        assert validate_triangular(t) == []
        assert t.total.unit[1] != field.one
        self.check_normalized(t)
        assert (cohomology_dims(bar_oracle(t, L=3))
                == cohomology_dims(build_relative_complex(t, L=3)))


class TestKeptChecks:
    """The checks the column-wise emitter keeps: a term table that points
    past its cochain degree is refused, and the bar oracle refuses a
    differential that crosses its grading."""

    @staticmethod
    def one_slot_window(table):
        """delta_0 from one coefficient into two words of one letter,
        whose only term is the left action ``table``."""
        layout = [_layout([("x", (), 1, None)]),
                  _layout([("y", (2,), 1, None)])]
        return _word_window(QQ, 0, layout, lambda key: ((table, "x"), [], None))

    def test_term_table_in_range(self):
        w = self.one_slot_window({(0, 0): {0: 1}, (1, 0): {0: -1}})
        assert w.diffs[0].nrows == 2
        assert w.diffs[0].cols == [{0: 1, 1: -1}]

    @pytest.mark.parametrize("table", [
        {(2, 0): {0: 1}},     # letter 2 of a two-letter slot: row past C^1
        {(0, 1): {0: 1}},     # coefficient 1 of a one-dim block: past C^0
    ], ids=["row", "column"])
    def test_term_table_past_its_cell(self, table):
        with pytest.raises(InputError):
            self.one_slot_window(table)

    @staticmethod
    def right_action_window(table):
        """delta_0 from two one-dim cells a, b into two words p, q of one
        one-letter slot, each reading the right action ``table`` from its
        own column cell: q's batch reuses p's term plan one index on."""
        layout = [_layout([("a", (), 1, None), ("b", (), 1, None)]),
                  _layout([("p", (1,), 1, None), ("q", (1,), 1, None)])]
        below = {"p": "a", "q": "b"}
        return _word_window(QQ, 0, layout,
                            lambda key: (None, [], (table, below[key])))

    def test_reused_plan_in_range(self):
        w = self.right_action_window({(0, 0): {0: 1}})
        assert w.diffs[0].cols == [{0: -1}, {1: -1}]

    def test_reused_plan_past_its_degree(self):
        """Coefficient 1 of a one-dim block lands inside C^1 from p and
        past it from q."""
        with pytest.raises(InputError, match="outside its cochain degree"):
            self.right_action_window({(0, 0): {1: 1}})

    def test_contraction_past_its_degree(self):
        """Merged letter 1 of a one-letter slot: column past C^0."""
        layout = [_layout([("x", (1,), 1, None)]),
                  _layout([("y", (1, 1), 1, None)])]
        with pytest.raises(InputError, match="outside its cochain degree"):
            _word_window(QQ, 0, layout,
                         lambda key: (None, [({(0, 0): {1: 1}}, "x")], None))

    def test_grading_crossing_entry(self):
        t = kronecker_algebra(QQ)
        w = bar_oracle(t, L=1)
        # the grading ``bar_oracle`` hands to ``build_bar_complex``
        total = t.total
        weight = [j - i for (j, i) in t.block_of]
        _, letter = over_unit_quotients(
            [Bimodule(QQ, total.dim, total, total, total.mul, total.mul)])
        keys = _bar_grades([weight[k] for k in letter], weight, w.L)
        for l in range(w.L + 1):
            _check_grading(w.diffs[l], keys[l + 1], keys[l])
        d = w.diffs[1]
        c = 0
        r = next(r for r in range(d.nrows) if keys[2][r] != keys[1][c])
        d.cols[c][r] = QQ.one
        with pytest.raises(InternalInvariantError):
            _check_grading(d, keys[2], keys[1])

    def test_grading_that_products_cross(self):
        t = kronecker_algebra(QQ)
        total = t.total
        x = Bimodule(QQ, total.dim, total, total, total.mul, total.mul)
        weight = [j - i for (j, i) in t.block_of]
        arrow = weight.index(1)
        tweight = weight[:arrow] + [2] + weight[arrow + 1:]
        build_bar_complex(total, x, 1, grading=(weight, weight))
        with pytest.raises(InternalInvariantError):
            build_bar_complex(total, x, 1, grading=(tweight, weight))


class TestExtComplex:
    def test_semisimple_ground_case(self):
        k = FiniteDimAlgebra.field_algebra(FP)
        n = vector_space_bimodule(FP, k, 3)
        w = build_ext_complex(n, n, 2)
        assert cohomology_dims(w) == [9, 0, 0]

    def test_branching_wide_block_endomorphisms(self):
        t = branching_algebra()
        m31 = t.module(3, 1)
        w = build_ext_complex(m31, m31, 2)
        assert cohomology_dims(w) == [8, 0, 0]

    def test_zero_module(self):
        k = FiniteDimAlgebra.field_algebra(FP)
        z = Bimodule.zero(FP, k, k)
        w = build_ext_complex(z, z, 2)
        assert cohomology_dims(w) == [0, 0, 0]

    def test_coefficient_pair_checked(self):
        k = FiniteDimAlgebra.field_algebra(FP)
        other = FiniteDimAlgebra.field_algebra(FP)
        n = vector_space_bimodule(FP, k, 2)
        x = vector_space_bimodule(FP, other, 2)
        with pytest.raises(InputError):
            build_ext_complex(n, x, 1)

    def test_residue_field_has_periodic_ext(self):
        """The residue field of k[x]/(x^2) (x acting by zero) is not
        projective; its self-extensions are one-dimensional in every
        degree, unlike the semisimple cases above."""
        d = FiniteDimAlgebra.dual_numbers(FP)
        k = FiniteDimAlgebra.field_algebra(FP)
        m = thin_bimodule(FP, k, d)
        assert cohomology_dims(build_ext_complex(m, m, 3)) == [1, 1, 1, 1]

    def test_delta_squared_zero(self):
        d = FiniteDimAlgebra.dual_numbers(FP)
        residue = thin_bimodule(FP, FiniteDimAlgebra.field_algebra(FP), d)
        m31 = branching_algebra().module(3, 1)
        shift = nilpotent_action_algebra().module(2, 1)
        for m in (residue, m31, shift):
            w = build_ext_complex(m, m, 3)
            for l in range(w.L):
                assert_composes_to_zero(w.diffs[l + 1], w.diffs[l], l)

    def test_free_right_module_is_projective(self):
        """The shift module is free of rank one over k[x]/(x^2), so only
        degree zero survives: End = the algebra itself."""
        t = nilpotent_action_algebra()
        m = t.module(2, 1)
        assert cohomology_dims(build_ext_complex(m, m, 2)) == [2, 0, 0]


class TestCohomologyDims:
    def test_exact_complex(self):
        w = CochainWindow(QQ, 1, None, [1, 1, 0],
                          [Matrix(QQ, 1, 1, [{0: 1}]), Matrix(QQ, 0, 1)])
        assert cohomology_dims(w) == [0, 0]

    def test_zero_differentials(self):
        w = CochainWindow(QQ, 1, None, [2, 3, 1],
                          [Matrix(QQ, 3, 2), Matrix(QQ, 1, 3)])
        assert cohomology_dims(w) == [2, 3]


def plain_cohomology_dims(w):
    """dim C^l - rank delta_l - rank delta_{l-1} for l = 0..L, with one
    plain ``matrix_rank`` of each whole differential: no column cleared
    and no grading used."""
    ranks = [0] + [matrix_rank(m) for m in w.diffs]
    return [w.dims[l] - ranks[l + 1] - ranks[l] for l in range(w.L + 1)]


def every_window(t, L):
    """(kind, window) for every window kind built from ``t`` at window L:
    the relative complex; the bar oracle at the largest window up to L
    whose estimate stays within 10^6 entries, if any; the normalized bar
    complex of each diagonal algebra and the normalized Ext complex of
    each chain of levels, as ``e1_structure_report`` builds them."""
    yield "relative", build_relative_complex(t, L)
    d = t.total.dim
    lw = max((l for l in range(1, L + 1)
              if bar_budget_estimate(d, d, l) <= 10 ** 6), default=None)
    if lw is not None:
        yield "oracle", bar_oracle(t, lw)
    for i in range(1, t.n + 1):
        (x,), _ = over_unit_quotients([x_block_bimodule(t, i, i)])
        yield f"bar A{i}", build_bar_complex(x.left_alg, x, L)
    for p in range(1, t.n):
        for chain in combinations(range(1, t.n + 1), p + 1):
            (n_mod, x), _ = over_unit_quotients(
                [chain_module(t, chain),
                 x_block_bimodule(t, chain[-1], chain[0])])
            yield f"ext {chain}", build_ext_complex(n_mod, x, L)


FIELDS = [QQ, GF(32003), GF(2)]
FIELD_IDS = ["QQ", "F32003", "F2"]


class TestClearing:
    """``cohomology_dims`` skips the columns of delta_l at the pivot leads
    of delta_{l-1}; on every window kind it must give what one plain rank
    per differential gives."""

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_suite2(self, suite2, field):
        for inst in suite2:
            for kind, w in every_window(over_field(inst.t, field), 3):
                assert cohomology_dims(w) == plain_cohomology_dims(w), \
                    (inst.name, kind)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", DATA_NAMES)
    def test_data_inputs(self, name, field):
        t = data_algebra(name, field)
        for kind, w in every_window(t, 3 if t.total.dim <= 13 else 1):
            assert cohomology_dims(w) == plain_cohomology_dims(w), kind

    def test_row_side_clears_nothing(self):
        """delta_0 has one nonzero row and two nonzero columns, so it is
        eliminated by rows, and its pivot leads at index 0 of C^0.  Taken
        as an index of C^1, it would clear the one nonzero column of
        delta_1."""
        w = CochainWindow(QQ, 1, None, [3, 2, 1],
                          [Matrix(QQ, 2, 3, [{1: 1}, {1: 1}, {}]),
                           Matrix(QQ, 1, 2, [{0: 1}, {}])])
        assert_composes_to_zero(w.diffs[1], w.diffs[0])
        assert cohomology_dims(w) == plain_cohomology_dims(w) == [2, 0]


def cochain_differentials(w):
    """The window's differentials, each as its shape and (row, col, value)
    triples."""
    return [((d.nrows, d.ncols),
             [(r, c, v) for c, col in enumerate(d.cols) for r, v in col.items()])
            for d in w.diffs]


def differential_digest(w):
    """sha256 over every differential's shape and sorted triples."""
    pinned = [(shape, sorted((r, c, Fraction(v)) for r, c, v in entries))
              for shape, entries in cochain_differentials(w)]
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


def _residue_field_ext():
    m = thin_bimodule(FP, FiniteDimAlgebra.field_algebra(FP),
                      FiniteDimAlgebra.dual_numbers(FP))
    return build_ext_complex(m, m, 3)


def _branching_ext():
    m31 = branching_algebra().module(3, 1)
    return build_ext_complex(m31, m31, 2)


PINNED = {
    "relative-kronecker": (
        lambda: build_relative_complex(kronecker_algebra(QQ), L=3),
        "0c7f6593e45a93403a07c06242aeb02abc28b0a3ceceb4ad1727a3953ccb60f5"),
    "relative-nilpotent": (
        lambda: build_relative_complex(nilpotent_action_algebra(), L=3),
        "1cb4d8e3ea791d99c52a92f75e68eb234426a1c9d412fb2ba4cef8481f9a6726"),
    "relative-chain4": (
        lambda: build_relative_complex(chain_algebra(4, QQ), L=3),
        "8ddefa1432568d14b74af200f9cc68029e0238a5fdc2cc1327670626171637cb"),
    "relative-branching": (
        lambda: build_relative_complex(branching_algebra(), L=3),
        "cf723bf21f094e75f01230c4bfac8a99142dca5ebb51e3aa0eab76757f1fe667"),
    "bar-kronecker": (
        lambda: full_bar(kronecker_algebra(QQ), 2),
        "5eef3a4e79ef165a1ca377f3bc7e7c61d89c60be2350a506639674d5f3edcee2"),
    "bar-nilpotent": (
        lambda: full_bar(nilpotent_action_algebra(), 2),
        "c1ec0637c24bd524474454b402c13cd76f0e460657e3a9b34ca4fd4212a305b1"),
    "bar-branching": (
        lambda: full_bar(branching_algebra(), 2),
        "380399d4684a603849a4429b87c180501bd38940c1b3cc7b745b4689dd2af321"),
    "bar-normalized-kronecker": (
        lambda: bar_oracle(kronecker_algebra(QQ), L=2),
        "8ab1a997ee2a04f96f7922e648d73fbd024bc12651b5f03d0260114c60412070"),
    "bar-normalized-nilpotent": (
        lambda: bar_oracle(nilpotent_action_algebra(), L=2),
        "af4948e5fa6b243637146b5ade950aff446c46d81e7a41cd6a7a817fe0399a1e"),
    "bar-normalized-branching": (
        lambda: bar_oracle(branching_algebra(), L=2),
        "6a4a70241a610c67bf519ed8fa13191b1d00b6c5afeb1288550bcad81c392810"),
    "ext-residue-field": (
        _residue_field_ext,
        "45d731869feccc7f5d4b56db12e49614fe66b2e0d0e3f74677b8e96d19e8ebb1"),
    "ext-branching-m31": (
        _branching_ext,
        "67d485c843371f3cdbe18c0d1a679c32c392e710ac66c0c9168ab866ae32419f"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_differentials(name):
    """Every builder's differentials, entry for entry in basis order; a
    changed basis order or sign that keeps the dimensions shows here."""
    build, digest = PINNED[name]
    assert differential_digest(build()) == digest


def windows_digest(t, L):
    """sha256 over the kind and ``differential_digest`` of every window of
    ``every_window(t, L)``."""
    h = hashlib.sha256()
    for kind, w in every_window(t, L):
        h.update(f"{kind} {differential_digest(w)}\n".encode())
    return h.hexdigest()


# every_window's differentials, entry for entry, as the emitter assembled
# them before cells were keyed by tuples and terms planned once per shape:
# suite 2 at L=3, the data inputs over QQ at L=3 up to total dim 13, the
# tetrahedron at L=2, and RP^2 and the torus at L=1
PINNED_WINDOWS = {
    "path0": "34dc053d87c1f1c6b1aa1a0f037c8cf7dfc924ce12bd229bf9922d3130bccca9",
    "path1": "404659163d4503a6616cac01151b7f8b78a9b8cde94145d6579cc4176daf49d2",
    "path2": "83dfc18e0b286ba4480ea3e38d8b87462b406718767caeca0bbc830c134c0454",
    "path3": "bb7d822d406aa6f4c129b8681995e0b9e27c31d7c2a5e822fabefa7ccd22a896",
    "path4": "ea7794c193ba4eade78cc337f0ed577d86c42c39b838bf5a5c1a554d7373d10c",
    "path5": "27faf1bef32c64a78d0b78b98ddf1dcb2f4ef3e4c88ee25316e320d773319066",
    "path6": "e9b762cdd9ad0a695199e98bfcd98cb22a39f2d568a77c4fa6333a8b4b03efb7",
    "path7": "3d0e97ae6b009d07d04c6b84edde992a8236078d1dda678f1af58a94bc2b03ae",
    "tensorial0": "974cba7c6b20ce2b81b4962b94815893f586a97a72a5a2c389b25d24927b027f",
    "tensorial1": "974cba7c6b20ce2b81b4962b94815893f586a97a72a5a2c389b25d24927b027f",
    "tensorial2": "62e22319c2bb3d2ae8df6b6cc1b661aeef23b8d4f55e36da22fe59b4f1e78d12",
    "tensorial3": "a0c5f9b33259529a81a3a484733c33ea7ddc9d49fa2f26bfefd1c323cd155d59",
    "tensorial4": "a0c5f9b33259529a81a3a484733c33ea7ddc9d49fa2f26bfefd1c323cd155d59",
    "tensorial5": "c21b2930f9a0f73f92074c56eaeab6fd3eb188dcebec78aee30013d6dd33d0c3",
    "two_by_two": "4a52a4d36275c72473185d5d03d19457a5aa36fadd33011b854e18881556d1b5",
    "dual_square": "454c18b79df11e3a6eea29725382dd6f2d58aa94dd3fb8e28754a35007b90c29",
    "zero_block": "35b964670c81a6bec1f06479ee477e082f6b7039fe3526fcc032003779ba1168",
    "sparse_n4": "e7e536f91d4d2b20bcdb0d3effe8d014311dc5182b2fd020c552ca395e9837ad",
    "kronecker": "df1d10bac40d891c9ce36d9d9fa4e6ee47d42321e5700d6e5c8a6c6733abed32",
    "chain3": "29da94a7b277574714cb4acb600cc95da72f48af31e4d0af512efd7d497db8ea",
    "nilpotent_action": "10281e9d36e724a31302310e37b0dd7c6c33fd775bfb4823b0eb7ab2bdaaf6ff",
    "single_dual": "9b222f524f5382c8b42b11ee0f3e307038dd089973a5663392ea766a6b23e1e1",
    "branching4.quiver": "f4dc89d5e4f96ce0e315e10cba7323e65c88544337fd2209f3ca06ec236ebccd",
    "branching4.tri": "f4dc89d5e4f96ce0e315e10cba7323e65c88544337fd2209f3ca06ec236ebccd",
    "chain3.quiver": "29da94a7b277574714cb4acb600cc95da72f48af31e4d0af512efd7d497db8ea",
    "kronecker.quiver": "df1d10bac40d891c9ce36d9d9fa4e6ee47d42321e5700d6e5c8a6c6733abed32",
    "rp2.simplicial": "787a209637172f1fe5e17969d9fc228f81a8fb0eaf5629ec4421b5a5ac0fbd4d",
    "tetrahedron_boundary.simplicial": "ab5dcc939252022d47805f137c749b57a7ba7c23eb6c0c6730495f56db51d9de",
    "torus.simplicial": "4a6b151b73129310f9eb802ea70560e41d39efc3a8af804547f0cdfdf0060e7c",
    "triangle_boundary.simplicial": "377eb3177811080d5549bd7e90e3ae0b0454c91204bbe676ed5fcf04c9cb319a",
    "two_by_two.tri": "4a52a4d36275c72473185d5d03d19457a5aa36fadd33011b854e18881556d1b5",
}


def test_pinned_windows_suite2(suite2):
    got = {inst.name: windows_digest(inst.t, 3) for inst in suite2}
    assert got == {name: PINNED_WINDOWS[name] for name in got}


@pytest.mark.parametrize("name", DATA_NAMES)
def test_pinned_windows_data(name):
    t = data_algebra(name, QQ)
    d = t.total.dim
    L = 3 if d <= 13 else 2 if d <= 50 else 1
    assert windows_digest(t, L) == PINNED_WINDOWS[name]
