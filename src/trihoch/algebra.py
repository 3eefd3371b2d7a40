"""Structure-constant presentations of algebras, bimodules and the
assembled block lower-triangular algebra.

A triangular algebra is the data of unital algebras ``A_1 .. A_n`` on the
diagonal, bimodules ``M[j,i]`` (an ``A_j``-``A_i``-bimodule for ``j > i``)
below it, and composition maps ``mu[l,j,i] : M[l,j] (x) M[j,i] -> M[l,i]``
satisfying the associativity pentagon.  ``assemble_total`` realizes the whole
thing as one finite-dimensional algebra with block-matrix multiplication.

Everything is presented by sparse structure constants over an exact field.
Validation treats T as one algebra: it checks units and associativity
exhaustively over basis tuples of every composable block triple
(m,l)(l,j)(j,i), every product read through ``TriangularAlgebra.block_mul``.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .exactla import EchelonSolver, Matrix, Subspace, kernel

_MAX_REPORTED = 50


class FiniteDimAlgebra:
    """Unital associative algebra given by sparse structure constants.

    ``mul[(i, j)]`` is the sparse product vector of basis_i * basis_j
    (missing keys mean the product is zero); ``unit`` is the coefficient
    vector of the identity element.
    """

    __slots__ = ("field", "dim", "mul", "unit", "label")

    def __init__(self, field, dim, mul, unit, label=""):
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = unit
        self.label = label

    @classmethod
    def field_algebra(cls, field, label="k"):
        return cls(field, 1, {(0, 0): {0: field.one}}, {0: field.one}, label)

    @classmethod
    def product_of_fields(cls, field, r, label=None):
        """k x ... x k with r factors; basis = orthogonal idempotents."""
        mul = {(i, i): {i: field.one} for i in range(r)}
        unit = {i: field.one for i in range(r)}
        return cls(field, r, mul, unit, label or f"k^{r}")

    @classmethod
    def dual_numbers(cls, field, label="k[x]/(x^2)"):
        """Basis (1, x) with x^2 = 0."""
        one = field.one
        mul = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
        return cls(field, 2, mul, unit={0: one}, label=label)

    def basis_product(self, i, j):
        return self.mul.get((i, j), {})

    def __eq__(self, other):
        if not isinstance(other, FiniteDimAlgebra):
            return NotImplemented
        return (self.field is other.field and self.dim == other.dim
                and self.mul == other.mul and self.unit == other.unit)

    def __repr__(self):
        return f"FiniteDimAlgebra({self.label or '?'}, dim {self.dim})"


class Bimodule:
    """A left/right bimodule over a pair of algebras, via action tensors.

    ``lact[(a, m)]`` is the sparse vector of (left basis_a) . basis_m, and
    ``ract[(m, a)]`` of basis_m . (right basis_a).  Zero-dimensional
    bimodules are permitted; they simply kill every tensor word through them.
    """

    __slots__ = ("field", "dim", "left_alg", "right_alg", "lact", "ract", "label")

    def __init__(self, field, dim, left_alg, right_alg, lact, ract, label=""):
        self.field = field
        self.dim = dim
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.lact = lact
        self.ract = ract
        self.label = label

    @classmethod
    def zero(cls, field, left_alg, right_alg, label=""):
        return cls(field, 0, left_alg, right_alg, {}, {}, label)

    def left_basis_act(self, a, m):
        return self.lact.get((a, m), {})

    def right_basis_act(self, m, a):
        return self.ract.get((m, a), {})

    def __eq__(self, other):
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (self.field is other.field and self.dim == other.dim
                and self.lact == other.lact and self.ract == other.ract)

    def __repr__(self):
        return f"Bimodule({self.label or '?'}, dim {self.dim})"


class BimoduleMap:
    """A composition map  M_outer (x) M_inner -> M_target.

    ``pair`` maps a pair of basis indices (y from the outer module, x from
    the inner one) to the sparse image vector; ``matrix`` presents the same
    map on the flattened tensor basis (y major, x minor).
    """

    __slots__ = ("outer", "inner", "target", "pair")

    def __init__(self, outer, inner, target, pair):
        self.outer = outer
        self.inner = inner
        self.target = target
        self.pair = pair

    def pair_apply(self, y, x):
        return self.pair.get((y, x), {})

    @property
    def matrix(self):
        f = self.target.field
        nx = self.inner.dim
        entries = []
        for (y, x), v in self.pair.items():
            col = y * nx + x
            for t, c in v.items():
                entries.append((t, col, c))
        return Matrix.from_entries(f, self.target.dim,
                                   self.outer.dim * nx, entries)

    def __eq__(self, other):
        if not isinstance(other, BimoduleMap):
            return NotImplemented
        return self.pair == other.pair

    def __repr__(self):
        return f"BimoduleMap(nnz pairs {len(self.pair)})"


class TriangularAlgebra:
    """The assembled data (n, diagonal algebras, bimodules, compositions).

    Blocks are addressed by pairs ``(j, i)`` with 1-based levels: ``(i, i)``
    is the diagonal algebra ``A_i`` and ``(j, i)`` with ``j > i`` the
    bimodule ``M[j,i]``.  ``assemble_total`` fills in the total algebra and
    the index maps between total-basis indices and blocks.
    """

    __slots__ = ("field", "n", "diag", "mods", "mus", "total", "block_of")

    def __init__(self, field, n, diag, mods, mus):
        self.field = field
        self.n = n
        self.diag = diag
        self.mods = mods
        self.mus = mus
        self.total = None
        self.block_of = None
        assemble_total(self)

    def block_dim(self, j, i):
        if j == i:
            return self.diag[i - 1].dim
        if j > i:
            m = self.mods.get((j, i))
            return m.dim if m is not None else 0
        return 0

    def module(self, j, i):
        return self.mods.get((j, i))

    def block_mul(self, l, j, i):
        """Product table of block (l, j) times block (j, i), for
        l >= j >= i: (left index, right index) -> sparse vector over block
        (l, i), all in local indices; empty when a block or map is missing."""
        if l == j == i:
            return self.diag[i - 1].mul
        if l == j:
            m = self.mods.get((j, i))
            return m.lact if m else {}
        if j == i:
            m = self.mods.get((l, j))
            return m.ract if m else {}
        mu = self.mus.get((l, j, i))
        return mu.pair if mu else {}

    def mu(self, l, j, i):
        return self.mus.get((l, j, i))

    def blocks(self):
        """All block labels (j, i) with j >= i, in row-major order."""
        return [(j, i) for j in range(1, self.n + 1) for i in range(1, j + 1)]

    def __eq__(self, other):
        if not isinstance(other, TriangularAlgebra):
            return NotImplemented
        return (self.field is other.field and self.n == other.n
                and self.diag == other.diag and self.mods == other.mods
                and self.mus == other.mus)

    def __repr__(self):
        dims = ", ".join(str(a.dim) for a in self.diag)
        return f"TriangularAlgebra(n={self.n}, diag dims [{dims}], total dim {self.total.dim})"


def validate_triangular(t):
    """Every violated axiom of the triangular data, as a list of at most
    ``_MAX_REPORTED`` messages; an empty report means a valid algebra.

    Besides two structural checks (the modules act through the diagonal
    algebras, composition levels strictly decrease), T must be unital and
    associative under block-matrix multiplication.  Over composable block
    triples (m,l)(l,j)(j,i) this one axiom covers associativity of each
    A_i, the module axioms of each M[j,i], bilinearity and balance of each
    composition map, and the pentagon.
    """
    return list(itertools.islice(_violations(t), _MAX_REPORTED))


def _violations(t):
    """Yield one message per structural fault, then per failing unit or
    associativity instance, every product read from ``block_mul``.

    The work is proportional to the sizes of the product tables, not to
    the cube of the block dimensions: only basis triples at which a side
    of the associativity law can be nonzero are visited.
    """
    for (j, i), m in sorted(t.mods.items()):
        if m.left_alg is not t.diag[j - 1] or m.right_alg is not t.diag[i - 1]:
            yield f"M[{j},{i}]: action algebras do not match the diagonal"
    for (l, j, i) in sorted(t.mus):
        if not (l > j > i):
            yield f"mu[{l},{j},{i}]: levels must strictly decrease"
    f = t.field
    for (j, i) in t.blocks():
        left = _unit_action(f, t.block_mul(j, j, i), t.diag[j - 1].unit, 0)
        right = _unit_action(f, t.block_mul(j, i, i), t.diag[i - 1].unit, 1)
        for b in range(t.block_dim(j, i)):
            e = {b: f.one}
            if left.get(b) != e:
                yield _failure(((j, j), (j, i)), ("1", b), "1*b != b")
            if right.get(b) != e:
                yield _failure(((j, i), (i, i)), (b, "1"), "b*1 != b")
    for m, l, j, i in itertools.combinations_with_replacement(
            range(t.n, 0, -1), 4):
        mlj, lji = t.block_mul(m, l, j), t.block_mul(l, j, i)
        mji, mli = t.block_mul(m, j, i), t.block_mul(m, l, i)
        for a, b, c in _support_triples(mlj, lji, mji, mli):
            left = _bilinear(f, mji, mlj.get((a, b), {}), {c: f.one})
            right = _bilinear(f, mli, {a: f.one}, lji.get((b, c), {}))
            if left != right:
                yield _failure(((m, l), (l, j), (j, i)), (a, b, c),
                               "(ab)c != a(bc)")


def _unit_action(f, table, unit, side):
    """{b: 1*b} for ``side`` 0, {b: b*1} for ``side`` 1, in one pass over
    the product table; b missing means the product is zero."""
    out = {}
    for key, prod in table.items():
        c = unit.get(key[side])
        if c is not None:
            f.row_addmul(out.setdefault(key[1 - side], {}), prod, c)
    return out


def _support_triples(mlj, lji, mji, mli):
    """The sorted basis triples (a, b, c) at which (ab)c or a(bc) can be
    nonzero, from the keys of the four tables: elsewhere both vanish."""
    after = {}      # p -> every c with (p, c) a key of mji
    for p, c in mji:
        after.setdefault(p, []).append(c)
    before = {}     # q -> every a with (a, q) a key of mli
    for a, q in mli:
        before.setdefault(q, []).append(a)
    triples = set()
    for (a, b), ab in mlj.items():
        for p in ab:
            triples.update((a, b, c) for c in after.get(p, ()))
    for (b, c), bc in lji.items():
        for q in bc:
            triples.update((a, b, c) for a in before.get(q, ()))
    return sorted(triples)


def _failure(blocks, basis, what):
    where = "".join(f"({p},{q})" for p, q in blocks)
    return f"blocks {where} at basis ({','.join(map(str, basis))}): {what}"


def _bilinear(f, table, u, v):
    """Sum of u_p * v_q * table[(p, q)] over two sparse vectors."""
    out = {}
    for p, cu in u.items():
        for q, cv in v.items():
            prod = table.get((p, q))
            if prod:
                f.row_addmul(out, prod, f.mul(cu, cv))
    return out


def assemble_total(t):
    """Fill in the total algebra of ``t`` and return it.

    The basis is the disjoint union of the block bases, blocks in row-major
    order; products follow block-matrix multiplication, block by block
    from ``TriangularAlgebra.block_mul``, with keys in basis order.
    """
    f = t.field
    offset = {}
    block_of = []
    pos = 0
    for (j, i) in t.blocks():
        d = t.block_dim(j, i)
        offset[(j, i)] = pos
        block_of.extend([(j, i)] * d)
        pos += d
    dim = pos

    mul = {}
    for (l, j) in t.blocks():
        for i in range(1, j + 1):
            left, right, tgt = offset[(l, j)], offset[(j, i)], offset[(l, i)]
            for (a, b), prod in t.block_mul(l, j, i).items():
                if prod:
                    mul[(left + a, right + b)] = {tgt + k: c
                                                  for k, c in prod.items()}
    unit = {}
    for i in range(1, t.n + 1):
        base = offset[(i, i)]
        for k, c in t.diag[i - 1].unit.items():
            unit[base + k] = c
    t.total = FiniteDimAlgebra(f, dim, dict(sorted(mul.items())), unit,
                               label="T")
    t.block_of = block_of
    return t.total


def tensor_over(mid, m, n):
    """Balanced tensor product of a right module and a left module over
    ``mid``, as a quotient of the plain tensor product.

    Returns (quotient bimodule, projection matrix, free coordinates).  The
    quotient is the span of ``y.a (x) x  -  y (x) a.x`` divided out; its
    basis is the free (non-pivot) coordinates ``free`` of the flat tensor
    basis (y major, x minor), so the projection sends ``e_{free[k]}`` to
    ``e_k``.
    """
    f = mid.field
    if m.right_alg is not mid or n.left_alg is not mid:
        raise InputError("tensor_over: actions do not run through the middle algebra")
    dm, dn = m.dim, n.dim
    full = dm * dn
    relations = []
    for a in range(mid.dim):
        for y in range(dm):
            ya = m.right_basis_act(y, a)
            for x in range(dn):
                ax = n.left_basis_act(a, x)
                rel = {}
                for yy, c in ya.items():
                    rel[yy * dn + x] = c
                for xx, c in ax.items():
                    k = y * dn + xx
                    nv = f.sub(rel.get(k, f.zero), c)
                    if nv == f.zero:
                        rel.pop(k, None)
                    else:
                        rel[k] = nv
                if rel:
                    relations.append(rel)
    rel_space = Subspace.from_vectors(f, full, relations)
    pivset = set(rel_space.pivots)
    free = [c for c in range(full) if c not in pivset]
    qdim = len(free)
    free_pos = {c: k for k, c in enumerate(free)}

    def project(vec):
        red = rel_space.reduce(vec)
        return {free_pos[c]: v for c, v in red.items()}

    projection = Matrix(f, qdim, full,
                        [project({c: f.one}) for c in range(full)])

    lact = {}
    for a in range(m.left_alg.dim):
        for k, c in enumerate(free):
            y, x = divmod(c, dn)
            av = m.left_basis_act(a, y)
            img = {}
            for yy, cc in av.items():
                f.row_addmul(img, project({yy * dn + x: f.one}), cc)
            if img:
                lact[(a, k)] = img
    ract = {}
    for a in range(n.right_alg.dim):
        for k, c in enumerate(free):
            y, x = divmod(c, dn)
            av = n.right_basis_act(x, a)
            img = {}
            for xx, cc in av.items():
                f.row_addmul(img, project({y * dn + xx: f.one}), cc)
            if img:
                ract[(k, a)] = img
    label = f"{m.label}(x){n.label}" if m.label or n.label else ""
    quotient = Bimodule(f, qdim, m.left_alg, n.right_alg, lact, ract, label)
    return quotient, projection, free


def build_tensorial(diag, adjacent):
    """Triangular algebra whose gap blocks are iterated balanced tensor
    products of the given adjacent bimodules.

    ``adjacent[i]`` must be the ``A_{i+1}``-``A_i``-bimodule sitting at
    ``(i+1, i)``, for i = 1..n-1.  Every block with a wider gap is the left
    fold M[j,i] = M[j,j-1] (x)_{A_{j-1}} M[j-1,i], with projection p from the
    plain tensor product.  The compositions are the induced concatenations,
    unfolded one level at a time: mu(y, x) = p(y (x) x) when y lies in an
    adjacent block, and mu(p(a (x) b), x) = p(a (x) mu(b, x)) below that,
    which makes the pentagon hold by construction.
    """
    n = len(diag)
    if len(adjacent) != n - 1:
        raise InputError("need exactly one adjacent bimodule per gap")
    f = diag[0].field
    for i, m in enumerate(adjacent, start=1):
        if m.left_alg is not diag[i] or m.right_alg is not diag[i - 1]:
            raise InputError(f"adjacent bimodule {i + 1},{i} has mismatched actions")

    mods = {}
    folds = {}   # (j, i) -> (projection, free coordinates) of its fold
    for gap in range(1, n):
        for i in range(1, n - gap + 1):
            j = i + gap
            if gap == 1:
                mods[(j, i)] = adjacent[i - 1]
                continue
            folded, proj, free = tensor_over(diag[j - 2], adjacent[j - 2],
                                             mods[(j - 1, i)])
            folded.label = f"M[{j},{i}]"
            mods[(j, i)] = folded
            folds[(j, i)] = (proj, free)

    mus = {}
    for l in range(3, n + 1):
        for j in range(2, l):
            for i in range(1, j):
                outer, inner = mods[(l, j)], mods[(j, i)]
                proj = folds[(l, i)][0]
                width = mods[(l - 1, i)].dim
                if j < l - 1:
                    below = mus[(l - 1, j, i)]
                    split = mods[(l - 1, j)].dim
                    free = folds[(l, j)][1]
                pair = {}
                for y in range(outer.dim):
                    for x in range(inner.dim):
                        if j == l - 1:
                            tensor = {y * width + x: f.one}
                        else:
                            # y = p(a (x) b) for the free coordinate (a, b)
                            a, b = divmod(free[y], split)
                            tensor = {a * width + z: v for z, v
                                      in below.pair_apply(b, x).items()}
                        img = proj.apply(tensor)
                        if img:
                            pair[(y, x)] = img
                mus[(l, j, i)] = BimoduleMap(outer, inner, mods[(l, i)], pair)

    return TriangularAlgebra(f, n, list(diag), mods, mus)


def center(a):
    """The center of an algebra, as a subspace of its underlying space."""
    f = a.field
    # stacked commutator matrix: x -> x*b - b*x for every basis b
    entries = []
    nrow = 0
    for b in range(a.dim):
        for x in range(a.dim):
            xb = a.basis_product(x, b)
            bx = a.basis_product(b, x)
            diff = dict(xb)
            f.row_addmul(diff, bx, f.neg(f.one))
            for k, c in diff.items():
                entries.append((nrow + k, x, c))
        nrow += a.dim
    m = Matrix.from_entries(f, nrow, a.dim, entries)
    return kernel(m)


def is_separable(a):
    """Whether the algebra admits a separability idempotent, decided by a
    linear solve for e in A (x) A with (x (x) 1) e = e (1 (x) x) for all x
    and mul(e) = 1."""
    f = a.field
    d = a.dim
    # unknowns: e[(i,j)] flattened i*d+j
    entries = []
    nrow = 0
    for b in range(d):
        # constraint rows: for each (i,j) coordinate of (b(x)1)e - e(1(x)b)
        for i, j in itertools.product(range(d), repeat=2):
            col = i * d + j
            for ii, c in a.basis_product(b, i).items():
                entries.append((nrow + ii * d + j, col, c))
            for jj, c in a.basis_product(j, b).items():
                entries.append((nrow + i * d + jj, col, f.neg(c)))
        nrow += d * d
    m = Matrix.from_entries(f, nrow, d * d, entries)
    sol = kernel(m)
    if sol.dim == 0:
        return False
    # need some solution with mul(e) = 1: check the affine condition
    mul_mat = Matrix(f, d, d * d,
                     [a.basis_product(i, j)
                      for i, j in itertools.product(range(d), repeat=2)])
    # solve mul_mat * e = unit with e ranging over the commuting tensors
    solver = EchelonSolver(f)
    for k, v in enumerate(sol.rows):
        solver.add(mul_mat.apply(v), k)
    return solver.express(dict(a.unit)) is not None
