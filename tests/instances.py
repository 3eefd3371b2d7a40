"""Shared bench of triangular-algebra instances for the test suites, and
the linear-algebra checks several suites share.

Everything random is drawn from a caller-supplied ``random.Random`` so the
suites are reproducible; the seed lives in conftest.  Builders return fully
assembled ``TriangularAlgebra`` objects small enough (total dim <= 8 for
the oracle suite) that the brute-force complex stays cheap.
"""

import pathlib

from trihoch import (
    GF,
    QQ,
    Bimodule,
    FiniteDimAlgebra,
    Matrix,
    Quiver,
    TriangularAlgebra,
    build_tensorial,
    compute_levels,
    kernel,
    path_algebra,
)
from trihoch.cli import JobSpec, _build_algebra

SEED = 20260821
FP = GF(32003)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
DATA_NAMES = sorted(p.name for p in DATA.iterdir())

# menu entry kinds for random diagonal algebras
KIND_FIELD, KIND_PRODUCT, KIND_DUAL = 0, 1, 2


def make_algebra(f, kind):
    if kind == KIND_FIELD:
        return FiniteDimAlgebra.field_algebra(f)
    if kind == KIND_PRODUCT:
        return FiniteDimAlgebra.product_of_fields(f, 2)
    return FiniteDimAlgebra.dual_numbers(f)


def free_bimodule(f, outer, inner, label=""):
    """outer (x) inner over the ground field, with the outer algebra acting
    on the left tensor factor and the inner one on the right factor.
    Basis (b, a) is flattened as b * inner.dim + a."""
    dim = outer.dim * inner.dim
    lact = {}
    for c in range(outer.dim):
        for b in range(outer.dim):
            prod = outer.basis_product(c, b)
            for a in range(inner.dim):
                col = {bb * inner.dim + a: v for bb, v in prod.items()}
                if col:
                    lact[(c, b * inner.dim + a)] = col
    ract = {}
    for c in range(inner.dim):
        for a in range(inner.dim):
            prod = inner.basis_product(a, c)
            for b in range(outer.dim):
                col = {b * inner.dim + aa: v for aa, v in prod.items()}
                if col:
                    ract[(b * inner.dim + a, c)] = col
    return Bimodule(f, dim, outer, inner, lact, ract, label=label)


def thin_bimodule(f, outer, inner, label=""):
    """One-dimensional bimodule scaled through the first-coordinate
    character on each side (works for every menu algebra: the character
    kills the nilpotent of the dual numbers and the second idempotent of
    the product of fields)."""
    return Bimodule(f, 1, outer, inner,
                    {(0, 0): {0: f.one}}, {(0, 0): {0: f.one}}, label=label)


def embedding(piece):
    """The smallest triangular algebra holding a bimodule, at (2, 1), or a
    composition map with its three modules, at (3, 2, 1), so that
    validate_triangular checks the piece's axioms."""
    if isinstance(piece, Bimodule):
        return TriangularAlgebra(piece.field, 2,
                                 [piece.right_alg, piece.left_alg],
                                 {(2, 1): piece}, {})
    outer, inner = piece.outer, piece.inner
    return TriangularAlgebra(inner.field, 3,
                             [inner.right_alg, inner.left_alg, outer.left_alg],
                             {(2, 1): inner, (3, 2): outer,
                              (3, 1): piece.target},
                             {(3, 2, 1): piece})


def random_path_algebra(rng, f, cap=8):
    """Path algebra of a random layered acyclic quiver, retried until the
    path count (= total dim) fits under the cap."""
    while True:
        layers = rng.randint(2, 4)
        names = iter("abcdefgh")
        verts = [[next(names) for _ in range(rng.randint(1, 2))]
                 for _ in range(layers)]
        arrows = []
        for lay in range(layers - 1):
            for s in verts[lay]:
                for t in verts[lay + 1]:
                    for rep in range(rng.choice((0, 1, 1, 2))):
                        arrows.append((f"{s}{t}{rep}", s, t))
        if not arrows:
            continue
        q = Quiver([v for lay in verts for v in lay], arrows)
        t = path_algebra(q, compute_levels(q), f)
        if t.total.dim <= cap:
            return t


def random_tensorial3(rng, f, mid_kinds=(KIND_FIELD, KIND_PRODUCT, KIND_DUAL),
                      cap=8):
    """Random three-level tensorial algebra: diagonal algebras from the
    menu (the middle one restricted to ``mid_kinds``), adjacent bimodules
    either thin or free, wide block forced to be their balanced tensor
    product by build_tensorial."""
    while True:
        a1 = make_algebra(f, rng.choice((KIND_FIELD, KIND_PRODUCT, KIND_DUAL)))
        a2 = make_algebra(f, rng.choice(mid_kinds))
        a3 = make_algebra(f, rng.choice((KIND_FIELD, KIND_PRODUCT, KIND_DUAL)))

        def pick(outer, inner):
            if rng.random() < 0.6:
                return thin_bimodule(f, outer, inner)
            return free_bimodule(f, outer, inner)

        t = build_tensorial([a1, a2, a3], [pick(a2, a1), pick(a3, a2)])
        if t.total.dim <= cap:
            return t


def kronecker_algebra(f=QQ):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return path_algebra(q, compute_levels(q), f)


def chain_algebra(n, f=QQ):
    verts = [f"v{i}" for i in range(1, n + 1)]
    arrows = [(f"e{i}", verts[i - 1], verts[i]) for i in range(1, n)]
    q = Quiver(verts, arrows)
    return path_algebra(q, compute_levels(q), f)


def nilpotent_action_algebra(f=FP):
    """A1 = k[x]/(x^2) acting on the right of a rank-one free module by
    the shift m0.x = m1, m1.x = 0; the named non-semisimple level-1 case."""
    d = FiniteDimAlgebra.dual_numbers(f)
    k = FiniteDimAlgebra.field_algebra(f)
    lact = {(0, 0): {0: f.one}, (0, 1): {1: f.one}}
    ract = {(0, 0): {0: f.one}, (1, 0): {1: f.one}, (0, 1): {1: f.one}}
    m = Bimodule(f, 2, k, d, lact, ract, label="shift")
    return TriangularAlgebra(f, 2, [d, k], {(2, 1): m}, {})


def hand_coded_instances():
    """Fixed structure-constant instances, mixing ground fields; every one
    has total dim <= 8."""
    out = []

    k1 = FiniteDimAlgebra.field_algebra(QQ)
    k2 = FiniteDimAlgebra.field_algebra(QQ)
    out.append(("two_by_two",
                TriangularAlgebra(QQ, 2, [k1, k2],
                                  {(2, 1): thin_bimodule(QQ, k2, k1)}, {})))

    d = FiniteDimAlgebra.dual_numbers(FP)
    sq = FiniteDimAlgebra.product_of_fields(FP, 2)
    out.append(("dual_square",
                TriangularAlgebra(FP, 2, [d, sq],
                                  {(2, 1): free_bimodule(FP, sq, d)}, {})))

    # missing bimodule: the off-diagonal block is allowed to be zero
    out.append(("zero_block",
                TriangularAlgebra(FP, 2,
                                  [FiniteDimAlgebra.product_of_fields(FP, 2),
                                   FiniteDimAlgebra.field_algebra(FP)],
                                  {}, {})))

    ks = [FiniteDimAlgebra.field_algebra(FP) for _ in range(4)]
    out.append(("sparse_n4",
                TriangularAlgebra(FP, 4, ks,
                                  {(2, 1): thin_bimodule(FP, ks[1], ks[0]),
                                   (4, 3): thin_bimodule(FP, ks[3], ks[2])},
                                  {})))

    out.append(("kronecker", kronecker_algebra(QQ)))
    out.append(("chain3", chain_algebra(3, QQ)))
    out.append(("nilpotent_action", nilpotent_action_algebra(FP)))
    out.append(("single_dual",
                TriangularAlgebra(QQ, 1,
                                  [FiniteDimAlgebra.dual_numbers(QQ)],
                                  {}, {})))
    return out


# ---------------------------------------------------------------------------
# shared linear-algebra checks


def assert_composes_to_zero(second, first, label=None):
    """second o first = 0: ``second`` applied to every column of ``first``
    gives the zero vector."""
    assert second.ncols == first.nrows, label
    for c, col in enumerate(first.cols):
        assert not second.apply(col), (label, c)


def intersection_dim(u, v):
    """dim(u & v) for two subspaces of one space: the nullity of the matrix
    [U | -V] whose columns are u's basis and the negated basis of v, since
    both bases are independent."""
    f = u.field
    cols = list(u.rows) + [{k: f.neg(x) for k, x in b.items()} for b in v.rows]
    return kernel(Matrix(f, u.ambient_dim, len(cols), cols)).dim


def data_algebra(name, f):
    """The algebra of the input file data/<name> over ``f``, built as the
    command line builds it."""
    return _build_algebra(JobSpec((DATA / name).read_text(encoding="utf-8"),
                                  field=f))
