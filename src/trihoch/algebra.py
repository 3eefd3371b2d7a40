"""Structure-constant presentations of algebras, bimodules and the
assembled block lower-triangular algebra.

A triangular algebra is the data of unital algebras ``A_1 .. A_n`` on the
diagonal, bimodules ``M[j,i]`` (an ``A_j``-``A_i``-bimodule for ``j > i``)
below it, and composition maps ``mu[l,j,i] : M[l,j] (x) M[j,i] -> M[l,i]``
satisfying the associativity pentagon.  ``assemble_total`` realizes the whole
thing as one finite-dimensional algebra with block-matrix multiplication.

Everything is presented by sparse structure constants over an exact field;
validation checks the axioms exhaustively over basis tuples.
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

    def multiply(self, u, v):
        """Product of two coefficient vectors."""
        f = self.field
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                prod = self.mul.get((i, j))
                if prod:
                    f.row_addmul(out, prod, f.mul(a, b))
        return out

    def violations(self):
        """Messages for every broken algebra axiom (empty list iff valid)."""
        f = self.field
        out = []
        for i in range(self.dim):
            got = self.multiply(self.unit, {i: f.one})
            if got != {i: f.one}:
                out.append(f"{self.label or 'algebra'}: 1*b{i} != b{i}")
            got = self.multiply({i: f.one}, self.unit)
            if got != {i: f.one}:
                out.append(f"{self.label or 'algebra'}: b{i}*1 != b{i}")
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            left = self.multiply(self.basis_product(i, j), {k: f.one})
            right = self.multiply({i: f.one}, self.basis_product(j, k))
            if left != right:
                out.append(
                    f"{self.label or 'algebra'}: associativity fails at "
                    f"({i},{j},{k})")
                if len(out) > _MAX_REPORTED:
                    return out
        return out

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

    def left_apply(self, avec, mvec):
        f = self.field
        out = {}
        for a, ca in avec.items():
            for m, cm in mvec.items():
                v = self.lact.get((a, m))
                if v:
                    f.row_addmul(out, v, f.mul(ca, cm))
        return out

    def right_apply(self, mvec, avec):
        f = self.field
        out = {}
        for m, cm in mvec.items():
            for a, ca in avec.items():
                v = self.ract.get((m, a))
                if v:
                    f.row_addmul(out, v, f.mul(cm, ca))
        return out

    def violations(self):
        f = self.field
        out = []
        name = self.label or "bimodule"
        B, A = self.left_alg, self.right_alg
        for m in range(self.dim):
            e = {m: f.one}
            if self.left_apply(B.unit, e) != e:
                out.append(f"{name}: left unit fails at m{m}")
            if self.right_apply(e, A.unit) != e:
                out.append(f"{name}: right unit fails at m{m}")
        for a, b, m in itertools.product(range(B.dim), range(B.dim),
                                         range(self.dim)):
            lhs = self.left_apply({a: f.one}, self.left_basis_act(b, m))
            rhs = self.left_apply(B.basis_product(a, b), {m: f.one})
            if lhs != rhs:
                out.append(f"{name}: left action not associative at ({a},{b},m{m})")
        for m, a, b in itertools.product(range(self.dim), range(A.dim),
                                         range(A.dim)):
            lhs = self.right_apply(self.right_basis_act(m, a), {b: f.one})
            rhs = self.right_apply({m: f.one}, A.basis_product(a, b))
            if lhs != rhs:
                out.append(f"{name}: right action not associative at (m{m},{a},{b})")
        for a, m, b in itertools.product(range(B.dim), range(self.dim),
                                         range(A.dim)):
            lhs = self.right_apply(self.left_basis_act(a, m), {b: f.one})
            rhs = self.left_apply({a: f.one}, self.right_basis_act(m, b))
            if lhs != rhs:
                out.append(f"{name}: actions do not commute at ({a},m{m},{b})")
        return out

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

    @classmethod
    def zero(cls, outer, inner, target):
        return cls(outer, inner, target, {})

    def pair_apply(self, y, x):
        return self.pair.get((y, x), {})

    def apply(self, yvec, xvec):
        f = self.target.field
        out = {}
        for y, cy in yvec.items():
            for x, cx in xvec.items():
                v = self.pair.get((y, x))
                if v:
                    f.row_addmul(out, v, f.mul(cy, cx))
        return out

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

    def violations(self, name="mu"):
        f = self.target.field
        out = []
        outer, inner, target = self.outer, self.inner, self.target
        B = outer.left_alg        # acts on the left of the product
        mid = outer.right_alg     # must balance through the middle
        A = inner.right_alg
        for a, y, x in itertools.product(range(B.dim), range(outer.dim),
                                         range(inner.dim)):
            lhs = self.apply(outer.left_basis_act(a, y), {x: f.one})
            rhs = target.left_apply({a: f.one}, self.pair_apply(y, x))
            if lhs != rhs:
                out.append(f"{name}: not left-linear at ({a},{y},{x})")
        for y, x, a in itertools.product(range(outer.dim), range(inner.dim),
                                         range(A.dim)):
            lhs = self.apply({y: f.one}, inner.right_basis_act(x, a))
            rhs = target.right_apply(self.pair_apply(y, x), {a: f.one})
            if lhs != rhs:
                out.append(f"{name}: not right-linear at ({y},{x},{a})")
        for y, b, x in itertools.product(range(outer.dim), range(mid.dim),
                                         range(inner.dim)):
            lhs = self.apply(outer.right_basis_act(y, b), {x: f.one})
            rhs = self.apply({y: f.one}, inner.left_basis_act(b, x))
            if lhs != rhs:
                out.append(f"{name}: not balanced over the middle at ({y},{b},{x})")
        return out

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

    __slots__ = ("field", "n", "diag", "mods", "mus", "total", "block_of",
                 "block_offset", "tensorial_adjacent")

    def __init__(self, field, n, diag, mods, mus):
        self.field = field
        self.n = n
        self.diag = diag
        self.mods = mods
        self.mus = mus
        self.total = None
        self.block_of = None
        self.block_offset = None
        self.tensorial_adjacent = None
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

    def total_index(self, j, i, local):
        return self.block_offset[(j, i)] + local

    def total_block(self, idx):
        """(block, local index) of a total-basis element."""
        j, i = self.block_of[idx]
        return (j, i), idx - self.block_offset[(j, i)]

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
    """Every violated axiom of the triangular data, as a list of messages.

    Covers associativity and units of each diagonal algebra, the bimodule
    axioms of every block, bilinearity/balance of every composition map, and
    the associativity pentagon for every composable triple of compositions.
    An empty report means the data is a valid triangular algebra.
    """
    f = t.field
    out = []
    for a in t.diag:
        out.extend(a.violations())
    for (j, i), m in sorted(t.mods.items()):
        if m.left_alg is not t.diag[j - 1] or m.right_alg is not t.diag[i - 1]:
            out.append(f"M[{j},{i}]: action algebras do not match the diagonal")
        out.extend(m.violations())
    for (l, j, i), mu in sorted(t.mus.items()):
        if not (l > j > i):
            out.append(f"mu[{l},{j},{i}]: levels must strictly decrease")
            continue
        out.extend(mu.violations(name=f"mu[{l},{j},{i}]"))
    # pentagon: composing (m,l), (l,j), (j,i) both ways agrees
    for m_, l_, j_, i_ in itertools.combinations(range(t.n, 0, -1), 4):
        top = t.mods.get((m_, l_))
        midm = t.mods.get((l_, j_))
        low = t.mods.get((j_, i_))
        if not (top and midm and low and top.dim and midm.dim and low.dim):
            continue
        mu_lji = t.mu(l_, j_, i_)
        mu_mli = t.mu(m_, l_, i_)
        mu_mlj = t.mu(m_, l_, j_)
        mu_mji = t.mu(m_, j_, i_)
        for y, z, x in itertools.product(range(top.dim), range(midm.dim),
                                         range(low.dim)):
            a = _maybe_apply(mu_mli, {y: f.one}, _maybe_pair(mu_lji, z, x))
            b = _maybe_apply(mu_mji, _maybe_pair(mu_mlj, y, z), {x: f.one})
            if a != b:
                out.append(
                    f"pentagon fails on blocks ({m_},{l_},{j_},{i_}) at "
                    f"basis ({y},{z},{x})")
    return out


def _maybe_pair(mu, y, x):
    return mu.pair_apply(y, x) if mu is not None else {}


def _maybe_apply(mu, yvec, xvec):
    return mu.apply(yvec, xvec) if mu is not None else {}


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
    t.block_offset = offset
    return t.total


def tensor_over(mid, m, n):
    """Balanced tensor product of a right module and a left module over
    ``mid``, as a quotient of the plain tensor product.

    Returns (quotient bimodule, projection matrix).  The quotient is the
    span of ``y.a (x) x  -  y (x) a.x`` divided out; the projection sends
    the flat tensor basis (y major, x minor) onto the chosen complement
    coordinates.
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

    proj_entries = []
    for c in range(full):
        red = project({c: f.one})
        for k, v in red.items():
            proj_entries.append((k, c, v))
    projection = Matrix.from_entries(f, qdim, full, proj_entries)

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
    return quotient, projection


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
    folds = {}   # (j, i) -> (projection, section) of the fold making M[j,i]
    for gap in range(1, n):
        for i in range(1, n - gap + 1):
            j = i + gap
            if gap == 1:
                mods[(j, i)] = adjacent[i - 1]
                continue
            folded, proj = tensor_over(diag[j - 2], adjacent[j - 2],
                                       mods[(j - 1, i)])
            folded.label = f"M[{j},{i}]"
            mods[(j, i)] = folded
            folds[(j, i)] = (proj, _section_of(proj, f))

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
                    section = folds[(l, j)][1]
                pair = {}
                for y in range(outer.dim):
                    for x in range(inner.dim):
                        if j == l - 1:
                            tensor = {y * width + x: f.one}
                        else:
                            # y = p(sum c a (x) b), read from the section
                            tensor = {}
                            for ab, c in section[y].items():
                                a, b = divmod(ab, split)
                                mu_bx = below.pair_apply(b, x)
                                f.row_addmul(tensor, {a * width + z: v
                                                      for z, v in mu_bx.items()}, c)
                        img = proj.apply(tensor)
                        if img:
                            pair[(y, x)] = img
                mus[(l, j, i)] = BimoduleMap(outer, inner, mods[(l, i)], pair)

    t = TriangularAlgebra(f, n, list(diag), mods, mus)
    t.tensorial_adjacent = list(adjacent)
    return t


def _section_of(projection, f):
    """Right inverse of a surjective projection matrix, one sparse column
    per target basis vector, found by feeding columns to a solver."""
    solver = EchelonSolver(f)
    cols = {}
    for r, row in enumerate(projection.rows):
        for c, v in row.items():
            cols.setdefault(c, {})[r] = v
    for c in sorted(cols):
        solver.add(cols[c], c)
    secs = []
    for q in range(projection.nrows):
        combo = solver.express({q: f.one})
        if combo is None:
            raise InputError("projection is not surjective")
        secs.append(combo)
    return secs


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
    mul_rows = [{} for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        col = i * d + j
        for k, c in a.basis_product(i, j).items():
            mul_rows[k][col] = f.add(mul_rows[k].get(col, f.zero), c)
    mul_mat = Matrix(f, d, d * d, mul_rows)
    # solve mul_mat * e = unit with e ranging over the commuting tensors
    solver = EchelonSolver(f)
    for k, v in enumerate(sol.rows):
        solver.add(mul_mat.apply(v), k)
    return solver.express(dict(a.unit)) is not None
