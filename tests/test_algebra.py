"""Structure-constant layer: algebras, bimodules, composition maps, the
assembled triangular algebra, and the balanced tensor product."""

import hashlib
import pathlib

import pytest

import trihoch.algebra
from trihoch import (
    GF,
    QQ,
    Bimodule,
    BimoduleMap,
    FiniteDimAlgebra,
    InputError,
    TriangularAlgebra,
    SimplicialComplex,
    build_tensorial,
    center,
    compute_levels,
    emit_triangular,
    incidence_algebra,
    is_separable,
    parse_quiver_file,
    parse_simplicial_file,
    path_algebra,
    tensor_over,
    validate_triangular,
)
from trihoch.spectral import _is_tensorial_3

from instances import (
    FP,
    chain_algebra,
    embedding,
    free_bimodule,
    kronecker_algebra,
    nilpotent_action_algebra,
    thin_bimodule,
)

FIELDS = [QQ, GF(32003)]
FIELD_IDS = ["QQ", "F32003"]


def violations(a):
    """The messages of ``validate_triangular`` on ``a`` as a one-level
    triangular algebra (empty iff ``a`` is a unital associative algebra)."""
    return validate_triangular(TriangularAlgebra(a.field, 1, [a], {}, {}))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
class TestMenuAlgebras:
    def test_field_algebra(self, f):
        a = FiniteDimAlgebra.field_algebra(f)
        assert a.dim == 1 and violations(a) == []
        assert is_separable(a)

    def test_product_of_fields(self, f):
        a = FiniteDimAlgebra.product_of_fields(f, 3)
        assert a.dim == 3 and violations(a) == []
        assert is_separable(a)
        assert center(a).dim == 3

    def test_dual_numbers(self, f):
        a = FiniteDimAlgebra.dual_numbers(f)
        assert a.dim == 2 and violations(a) == []
        assert not is_separable(a)
        assert center(a).dim == 2
        # x * x = 0
        assert a.basis_product(1, 1) == {}

    def test_broken_unit_detected(self, f):
        a = FiniteDimAlgebra(f, 1, {(0, 0): {0: f.of(2)}}, {0: f.one})
        assert violations(a) != []


def test_center_of_connected_path_algebra():
    t = kronecker_algebra(QQ)
    assert center(t.total).dim == 1


def test_validation_cost_is_linear_in_the_tables(monkeypatch):
    """Associativity is checked only at basis triples where a side can be
    nonzero: on k^r that is one triple (e_i, e_i, e_i) per product-table
    entry, where a scan of every basis triple makes 2 r^3 products."""
    calls = []
    bilinear = trihoch.algebra._bilinear

    def counted(*args):
        calls.append(args)
        return bilinear(*args)

    monkeypatch.setattr(trihoch.algebra, "_bilinear", counted)
    counts = {}
    for r in (30, 60):
        k = FiniteDimAlgebra.product_of_fields(QQ, r)
        calls.clear()
        assert validate_triangular(TriangularAlgebra(QQ, 1, [k], {}, {})) == []
        counts[r] = len(calls)
        assert 0 < counts[r] <= 2 * len(k.mul)
    assert counts[60] == 2 * counts[30]


class TestBimodules:
    def test_free_bimodule_valid(self):
        b = FiniteDimAlgebra.product_of_fields(FP, 2)
        a = FiniteDimAlgebra.dual_numbers(FP)
        m = free_bimodule(FP, b, a)
        assert m.dim == 4
        assert validate_triangular(embedding(m)) == []

    def test_thin_bimodule_valid(self):
        b = FiniteDimAlgebra.dual_numbers(FP)
        a = FiniteDimAlgebra.product_of_fields(FP, 2)
        m = thin_bimodule(FP, b, a)
        assert m.dim == 1
        assert validate_triangular(embedding(m)) == []
        # the nilpotent and the second idempotent both act by zero
        assert m.left_basis_act(1, 0) == {}
        assert m.right_basis_act(0, 1) == {}

    def test_unit_acts_as_identity(self):
        t = nilpotent_action_algebra()
        m = t.module(2, 1)
        for b in range(m.dim):
            assert m.right_basis_act(b, 0) == {b: FP.one}
            assert m.left_basis_act(0, b) == {b: FP.one}
        assert validate_triangular(t) == []

    def test_shift_action_squares_to_zero(self):
        m = nilpotent_action_algebra().module(2, 1)
        # m0.x = m1 and m1.x = 0
        assert m.right_basis_act(0, 1) == {1: FP.one}
        assert m.right_basis_act(1, 1) == {}

    def test_perturbed_action_detected(self):
        b = FiniteDimAlgebra.field_algebra(FP)
        a = FiniteDimAlgebra.dual_numbers(FP)
        # right action where x acts as the identity: violates x.x = 0
        m = Bimodule(FP, 1, b, a,
                     {(0, 0): {0: FP.one}},
                     {(0, 0): {0: FP.one}, (0, 1): {0: FP.one}})
        msgs = validate_triangular(embedding(m))
        assert any(s.startswith("blocks (2,1)(1,1)(1,1) ") for s in msgs)

    def test_zero_bimodule(self):
        b = FiniteDimAlgebra.field_algebra(FP)
        m = Bimodule.zero(FP, b, b)
        assert m.dim == 0 and validate_triangular(embedding(m)) == []


def tensorial_chain(n, kind):
    """An n-level tensorial algebra.  "thin" and "free" cycle the diagonal
    through the dual numbers, k and k x k; "scaled" alternates k and the
    dual numbers, joined by two-dimensional modules on which x moves the
    first basis vector to 3 (left) or 2 (right) times the second, so that
    the folds need sections with non-unit coefficients."""
    if kind == "scaled":
        k = FiniteDimAlgebra.field_algebra(FP)
        d = FiniteDimAlgebra.dual_numbers(FP)
        up = Bimodule(FP, 2, d, k, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                    (1, 0): {1: 3}},
                      {(0, 0): {0: 1}, (1, 0): {1: 1}})
        down = Bimodule(FP, 2, k, d, {(0, 0): {0: 1}, (0, 1): {1: 1}},
                        {(0, 0): {0: 1}, (1, 0): {1: 1}, (0, 1): {1: 2}})
        diag = [k, d] * n
        return build_tensorial(diag[:n], [(up, down)[r % 2]
                                          for r in range(n - 1)])
    menu = [FiniteDimAlgebra.dual_numbers, FiniteDimAlgebra.field_algebra,
            lambda f: FiniteDimAlgebra.product_of_fields(f, 2)]
    diag = [menu[r % 3](FP) for r in range(n)]
    adjacent = thin_bimodule if kind == "thin" else free_bimodule
    return build_tensorial(diag, [adjacent(FP, diag[r + 1], diag[r])
                                  for r in range(n - 1)])


class TestCompositionMaps:
    @pytest.mark.parametrize("kind", ["thin", "free", "scaled"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tensorial_mu_valid(self, n, kind):
        # from four levels on, mu[l,j,i] with j < l-1 unfolds through
        # mu[l-1,j,i], and validate_triangular checks the pentagon
        t = tensorial_chain(n, kind)
        assert len(t.mus) == (n - 2) * (n - 1) * n // 6
        assert all(mu.pair for mu in t.mus.values())
        assert validate_triangular(t) == []

    def test_perturbed_mu_detected(self):
        d = FiniteDimAlgebra.dual_numbers(FP)
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        k = FiniteDimAlgebra.field_algebra(FP)
        t = build_tensorial([d, sq, k], [free_bimodule(FP, sq, d),
                                         free_bimodule(FP, k, sq)])
        good = t.mu(3, 2, 1)
        pair = dict(good.pair)
        del pair[(0, 0)]
        t.mus[(3, 2, 1)] = BimoduleMap(good.outer, good.inner, good.target,
                                       pair)
        msgs = validate_triangular(t)
        assert any(s.startswith("blocks (3,2)(2,1)(1,1) ") for s in msgs)

    def test_zero_map(self):
        diag = [FiniteDimAlgebra.field_algebra(FP) for _ in range(3)]
        m21 = thin_bimodule(FP, diag[1], diag[0])
        m32 = thin_bimodule(FP, diag[2], diag[1])
        m31 = thin_bimodule(FP, diag[2], diag[0])
        z = BimoduleMap(m32, m21, m31, {})
        assert validate_triangular(embedding(z)) == []
        assert z.pair_apply(0, 0) == {}


class TestTriangularAssembly:
    def test_levels_must_decrease(self):
        diag = [FiniteDimAlgebra.field_algebra(FP) for _ in range(3)]
        t = build_tensorial(diag, [thin_bimodule(FP, diag[1], diag[0]),
                                   thin_bimodule(FP, diag[2], diag[1])])
        t.mus[(1, 2, 3)] = t.mus[(3, 2, 1)]
        msgs = validate_triangular(t)
        assert any("levels must strictly decrease" in s for s in msgs)

    def test_mismatched_action_algebra(self):
        k1 = FiniteDimAlgebra.field_algebra(FP)
        k2 = FiniteDimAlgebra.field_algebra(FP)
        stray = FiniteDimAlgebra.field_algebra(FP)
        m = thin_bimodule(FP, k2, stray)
        t = TriangularAlgebra(FP, 2, [k1, k2], {(2, 1): m}, {})
        msgs = validate_triangular(t)
        assert any("do not match the diagonal" in s for s in msgs)

    @pytest.mark.parametrize("perturb,blocks", [
        pytest.param(lambda t: t.diag[1].mul.update({(0, 0): {0: 1, 1: 1}}),
                     "(2,2)(2,2)(2,2)", id="diag-mul"),
        pytest.param(lambda t: t.diag[1].unit.update({1: 2}),
                     "(2,2)(2,2)", id="unit"),
        pytest.param(lambda t: t.module(2, 1).lact.update({(0, 0): {0: 2}}),
                     "(2,2)(2,2)(2,1)", id="lact"),
        pytest.param(lambda t: t.module(2, 1).ract.update({(0, 0): {0: 2}}),
                     "(2,1)(1,1)(1,1)", id="ract"),
        pytest.param(lambda t: _scale(t.mu(4, 3, 1).pair, 2, keys=1),
                     "(4,4)(4,3)(3,1)", id="mu-entry"),
        pytest.param(lambda t: _scale(t.mu(3, 2, 1).pair, 2),
                     "(4,3)(3,2)(2,1)", id="mu-scaled"),
    ])
    def test_single_perturbation_detected(self, perturb, blocks):
        t = _tensorial_four_levels()
        assert validate_triangular(t) == []
        perturb(t)
        msgs = validate_triangular(t)
        assert any(s.startswith(f"blocks {blocks} at basis ") for s in msgs)

    def test_total_assembly(self):
        t = nilpotent_action_algebra()
        assert t.total.dim == 5
        assert violations(t.total) == []
        assert t.blocks() == [(1, 1), (2, 1), (2, 2)]
        # the total basis runs through the blocks in row-major order
        assert t.block_of == [(1, 1)] * 2 + [(2, 1)] * 2 + [(2, 2)]
        assert t.block_dim(2, 1) == 2 and t.block_dim(1, 2) == 0

    def test_block_mul_names_each_block_table(self):
        t = chain_algebra(3, QQ)
        assert t.block_mul(2, 2, 2) is t.diag[1].mul
        assert t.block_mul(3, 3, 1) is t.module(3, 1).lact
        assert t.block_mul(3, 1, 1) is t.module(3, 1).ract
        assert t.block_mul(3, 2, 1) is t.mu(3, 2, 1).pair
        assert t.block_mul(3, 2, 1)

    def test_block_mul_of_missing_block_is_empty(self):
        diag = [FiniteDimAlgebra.field_algebra(FP) for _ in range(3)]
        mods = {(j, i): thin_bimodule(FP, diag[j - 1], diag[i - 1])
                for (j, i) in ((2, 1), (3, 2), (3, 1))}
        no_mu = TriangularAlgebra(FP, 3, diag, mods, {})
        assert no_mu.block_mul(3, 2, 1) == {}
        no_module = TriangularAlgebra(FP, 2, diag[:2], {}, {})
        assert no_module.block_mul(2, 2, 1) == {}
        assert no_module.block_mul(2, 1, 1) == {}

    def test_total_is_block_triangular(self):
        t = nilpotent_action_algebra()
        # products never move mass toward a shallower displacement
        for u in range(t.total.dim):
            for v in range(t.total.dim):
                ju, iu = t.block_of[u]
                jv, iv = t.block_of[v]
                for w in t.total.basis_product(u, v):
                    jw, iw = t.block_of[w]
                    assert jw - iw >= max(ju - iu, jv - iv)


class TestTensorOver:
    def test_over_field_is_plain_tensor(self):
        k = FiniteDimAlgebra.field_algebra(FP)
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        d = FiniteDimAlgebra.dual_numbers(FP)
        m = free_bimodule(FP, sq, k)   # right module over k
        n = free_bimodule(FP, k, d)    # left module over k
        q, _, free = tensor_over(k, m, n)
        assert q.dim == m.dim * n.dim
        assert free == list(range(q.dim))
        assert validate_triangular(embedding(q)) == []

    def test_over_product_glues_componentwise(self):
        # free(k, k^2) (x)_{k^2} free(k^2, k) has rank one on each side, so
        # the quotient is a copy of k^2: dimension 2, not the plain 4
        k1 = FiniteDimAlgebra.field_algebra(FP)
        k2 = FiniteDimAlgebra.field_algebra(FP)
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        m = free_bimodule(FP, k2, sq)
        n = free_bimodule(FP, sq, k1)
        q, _, _ = tensor_over(sq, m, n)
        assert q.dim == 2
        assert validate_triangular(embedding(q)) == []

    def test_projection_balances_middle_action(self):
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        k1 = FiniteDimAlgebra.field_algebra(FP)
        k2 = FiniteDimAlgebra.field_algebra(FP)
        m = free_bimodule(FP, k2, sq)
        n = free_bimodule(FP, sq, k1)
        q, proj, free = tensor_over(sq, m, n)
        for k, c in enumerate(free):
            assert proj.apply({c: FP.one}) == {k: FP.one}
        for a in range(sq.dim):
            for y in range(m.dim):
                for x in range(n.dim):
                    left = {}
                    for yy, c in m.right_basis_act(y, a).items():
                        left[yy * n.dim + x] = c
                    right = {}
                    for xx, c in n.left_basis_act(a, x).items():
                        right[y * n.dim + xx] = c
                    assert proj.apply(left) == proj.apply(right)

    def test_rejects_wrong_middle(self):
        k = FiniteDimAlgebra.field_algebra(FP)
        other = FiniteDimAlgebra.field_algebra(FP)
        m = thin_bimodule(FP, k, k)
        with pytest.raises(InputError):
            tensor_over(other, m, m)


class TestBuildTensorial:
    def test_adjacent_count_checked(self):
        diag = [FiniteDimAlgebra.field_algebra(FP) for _ in range(3)]
        with pytest.raises(InputError):
            build_tensorial(diag, [thin_bimodule(FP, diag[1], diag[0])])

    def test_adjacent_actions_identity_checked(self):
        diag = [FiniteDimAlgebra.field_algebra(FP) for _ in range(2)]
        stray = FiniteDimAlgebra.field_algebra(FP)
        with pytest.raises(InputError):
            build_tensorial(diag, [thin_bimodule(FP, diag[1], stray)])

    def test_wide_block_is_tensor_product(self):
        d = FiniteDimAlgebra.dual_numbers(FP)
        sq = FiniteDimAlgebra.product_of_fields(FP, 2)
        k = FiniteDimAlgebra.field_algebra(FP)
        t = build_tensorial([d, sq, k],
                            [free_bimodule(FP, sq, d), free_bimodule(FP, k, sq)])
        assert validate_triangular(t) == []
        assert _is_tensorial_3(t)
        # (k (x) k^2) (x)_{k^2} (k^2 (x) dual) folds the middle to one copy
        assert t.block_dim(3, 1) == 1 * 2 * 2


# ---------------------------------------------------------------------------
# pinned structure constants

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _path_from_file(name, f):
    q = parse_quiver_file((DATA / name).read_text(encoding="utf-8"))
    return path_algebra(q, compute_levels(q), f)


def _incidence_from_file(name):
    text = (DATA / name).read_text(encoding="utf-8")
    return incidence_algebra(parse_simplicial_file(text), QQ)


def _scale(pair, c, keys=None):
    """Multiply the images of the first ``keys`` pairs (all by default) of a
    composition table by c, in place."""
    for key in sorted(pair)[:keys]:
        pair[key] = {k: FP.mul(v, FP.of(c)) for k, v in pair[key].items()}


def _tensorial_four_levels():
    d = FiniteDimAlgebra.dual_numbers(FP)
    sq = FiniteDimAlgebra.product_of_fields(FP, 2)
    k = FiniteDimAlgebra.field_algebra(FP)
    return build_tensorial([d, sq, k, d], [free_bimodule(FP, sq, d),
                                           thin_bimodule(FP, k, sq),
                                           free_bimodule(FP, d, k)])


PINNED = {
    "path-branching4-QQ": (
        lambda: _path_from_file("branching4.quiver", QQ),
        "89320a0e1b86a24f6851a51933da8b5748614e7ec74c6ab7268d7b028e6d2ed3"),
    "path-branching4-F32003": (
        lambda: _path_from_file("branching4.quiver", GF(32003)),
        "89320a0e1b86a24f6851a51933da8b5748614e7ec74c6ab7268d7b028e6d2ed3"),
    "path-kronecker-QQ": (
        lambda: _path_from_file("kronecker.quiver", QQ),
        "7f6a5e86b0e3610a511704975a8fb7d4f388970b0031fd110c9d968c2eb01a95"),
    "path-kronecker-F32003": (
        lambda: _path_from_file("kronecker.quiver", GF(32003)),
        "7f6a5e86b0e3610a511704975a8fb7d4f388970b0031fd110c9d968c2eb01a95"),
    "incidence-triangle-boundary": (
        lambda: _incidence_from_file("triangle_boundary.simplicial"),
        "a12609d99d8103fa05212ca397dbb5548817cd2c684c8f146fd426e61d184aaa"),
    "incidence-non-pure": (
        lambda: incidence_algebra(
            SimplicialComplex([("p", "q", "r"), ("q", "r", "s"), ("x",)]), QQ),
        "574c3a0f08dc087c2f930124ad07b0fddfe5a925cf0d16bfab79e174a4b9c590"),
    "tensorial-four-levels": (
        _tensorial_four_levels,
        "c85004ba56caaa6723d9e4c1b127f6686077dd8ccb922e82f97814ebd925b1d1"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_structure(name):
    """Every structure constant of the path, incidence and tensorial
    builders, as the triangular file format spells them; a changed basis
    order or coefficient that keeps the dimensions shows here."""
    build, digest = PINNED[name]
    text = emit_triangular(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
