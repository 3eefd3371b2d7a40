"""Exact sparse linear algebra over the rationals and over prime fields.

Scalars are plain Python values: ``int``/``Fraction`` over the rationals,
where an integral input always enters as an ``int``, and ``int`` in
``[0, p)`` over a prime field.  A ``Field`` object supplies the
arithmetic so the same elimination code runs over either field.  Vectors are
sparse dicts ``{index: value}`` with no stored zero.  A matrix is a list
of column dicts and nothing else, and no call changes the matrix it reads.
Everything is exact: no floating point anywhere.

Subspaces are stored as reduced-row-echelon bases, which are unique, so two
equal subspaces always have identical representations and equality is a
plain comparison.

``matrix_rank`` eliminates the shorter nonempty side of a matrix, the
columns unless the rows are fewer: row rank equals column rank, and the
tall differentials of a cochain window hold far fewer redundant columns
than redundant rows.  A line whose lead (its lowest index) no pivot
holds yet is a pivot as it stands, so it is stored without elimination
("emergent pairs": Bauer, "Ripser", J. Appl. Comput. Topol. 2021); on
the windows ranked here nearly every line is one.  A rank taken by
columns can hand back the rows at which its pivots lead; a pivot is a
combination of the columns, so this is how ``cohomology_dims`` learns
which columns of the next differential it may skip.

Everything that needs a basis goes through ``EchelonSolver``, the one
elimination loop; ranks feed it untagged.  ``kernel`` feeds a matrix's
columns and ``Subspace.from_vectors`` the coordinate columns of its
vectors, and each reads the RREF basis off the combinations the solver
tracks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


# ---------------------------------------------------------------------------
# fields


class Field:
    """Arithmetic for one exact field; instances are stateless and shared."""

    char = 0

    def of(self, v):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def row_addmul(self, dst, src, c):
        """dst += c * src, in place, dropping entries that become zero."""
        raise NotImplementedError


class RationalField(Field):
    """The rationals; elements are ints or Fractions, and ``of`` turns an
    integral input, ``Fraction`` or string, into an int."""

    char = 0
    zero = 0
    one = 1

    def of(self, v):
        if isinstance(v, int):
            return v
        if isinstance(v, str):
            v = Fraction(v)
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        raise InputError(f"cannot coerce {v!r} into the rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        # an exact integer quotient stays an int: Fraction construction
        # dominates elimination on the +-1 matrices of the common inputs
        if isinstance(a, int) and isinstance(b, int):
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return a / b

    def row_addmul(self, dst, src, c):
        if c == 0:
            return
        get = dst.get
        for k, v in src.items():
            nv = get(k, 0) + c * v
            if nv == 0:
                dst.pop(k, None)
            else:
                dst[k] = nv

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """Integers modulo a prime p < 2**31; elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2 or p >= 2**31:
            raise InputError(f"prime field order {p} out of the supported range")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v):
        p = self.p
        if isinstance(v, int):
            return v % p
        if isinstance(v, Fraction):
            den = v.denominator % p
            if den == 0:
                raise InputError(f"denominator of {v} vanishes modulo {p}")
            return (v.numerator % p) * pow(den, -1, p) % p
        if isinstance(v, str):
            return self.of(Fraction(v))
        raise InputError(f"cannot coerce {v!r} into GF({p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def row_addmul(self, dst, src, c):
        p = self.p
        c %= p
        if c == 0:
            return
        get = dst.get
        for k, v in src.items():
            nv = (get(k, 0) + c * v) % p
            if nv:
                dst[k] = nv
            else:
                dst.pop(k, None)

    def __repr__(self):
        return f"GF({self.p})"


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


QQ = RationalField()

_gf_cache = {}


def GF(p):
    """The prime field of order p (cached per order)."""
    f = _gf_cache.get(p)
    if f is None:
        f = _gf_cache[p] = PrimeField(p)
    return f


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse exact matrix stored by columns: ``cols[c]`` maps row index to
    nonzero entry."""

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, nrows, ncols, cols=None):
        if cols is None:
            cols = [{} for _ in range(ncols)]
        if len(cols) != ncols:
            raise InputError("column count mismatch")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries):
        """Build from an iterable of (row, col, value); repeats accumulate."""
        cols = [{} for _ in range(ncols)]
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise InputError(f"matrix index ({r},{c}) out of range")
            v = field.of(v)
            col = cols[c]
            nv = field.add(col.get(r, field.zero), v)
            if nv == field.zero:
                col.pop(r, None)
            else:
                col[r] = nv
        return cls(field, nrows, ncols, cols)

    def nnz(self):
        return sum(map(len, self.cols))

    def apply(self, vec):
        """Matrix times sparse column vector (dict over columns)."""
        cols = self.cols
        addmul = self.field.row_addmul
        out = {}
        for c, x in vec.items():
            addmul(out, cols[c], x)
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field is other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# ranks


def _rank(field, lines, leads=None):
    """Rank of the nonempty columns ``lines`` of a matrix, which are left
    unchanged; found by feeding them or the rows they make, whichever are
    fewer, sparsest first into one solver without tags.  A line whose lead
    no pivot holds is stored as a pivot as it stands, which is what the
    solver would do with it; only the others are fed.  When the columns
    were fed and ``leads`` is a set, the rows at which the pivots lead are
    added to it."""
    n = len(lines)
    rows = set()
    for line in lines:
        rows.update(line)
        if len(rows) >= n:
            break
    if len(rows) < n:
        # the loop ran to the end, so ``rows`` holds every row
        t = {k: {} for k in rows}
        for i, line in enumerate(lines):
            for k, v in line.items():
                t[k][i] = v
        lines = t.values()
        leads = None
    solver = EchelonSolver(field)
    pivots = solver.pivots
    feed = solver._feed
    for line in sorted(lines, key=len):
        lead = min(line)
        if lead in pivots:
            feed(line, {})
        else:
            pivots[lead] = line
    if leads is not None:
        leads.update(pivots)
    return len(pivots)


def matrix_rank(m, leads=None):
    """Rank, by sparse forward elimination only (no canonical form built);
    ``leads`` as for ``_rank``."""
    return _rank(m.field, [x for x in m.cols if x], leads)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of k^ambient_dim held as its unique RREF basis.

    ``rows`` are the basis vectors (sparse dicts) with strictly increasing
    pivot columns and pivot entries one; the representation is canonical, so
    ``==`` decides subspace equality.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        """The span of ``vectors``, which are left unchanged.

        One solver takes the coordinate columns of the vectors from left to
        right, each tagged by its coordinate.  An independent column p is a
        pivot and starts the row {p: 1}.  A dependent column c is the sum
        of -combo[p] times column p over the pivots p of its combination,
        and in an RREF those coefficients are the entries of the rows p at
        c.
        """
        cols = {}
        for i, v in enumerate(vectors):
            if v and max(v) >= ambient_dim:
                raise InputError("vector index out of ambient range")
            for k, x in v.items():
                cols.setdefault(k, {})[i] = x
        neg = field.neg
        solver = EchelonSolver(field)
        rows = {}
        for c in sorted(cols):
            combo = solver._feed(cols[c], {c: field.one})
            if combo is None:
                rows[c] = {c: field.one}
                continue
            del combo[c]
            for p, x in combo.items():
                rows[p][c] = neg(x)
        return cls(field, ambient_dim, list(rows.values()), list(rows))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of ``vec`` after subtracting its pivot components."""
        f = self.field
        out = dict(vec)
        for pc, row in zip(self.pivots, self.rows):
            x = out.get(pc)
            if x is not None:
                f.row_addmul(out, row, f.neg(x))
        return out

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field is other.field and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"


def kernel(m):
    """Kernel of ``m`` as a canonical Subspace of the column space; ``m`` is
    unchanged.

    One solver takes the columns from the last to the first, each tagged by
    its index.  A column that reduces to zero gives its combination: a one
    at its own index and otherwise only independent columns to its right.
    So these vectors, by ascending index, are the RREF basis of the kernel.
    """
    f = m.field
    solver = EchelonSolver(f)
    rows, pivots = [], []
    for c in reversed(range(m.ncols)):
        combo = solver._feed(m.cols[c], {c: f.one})
        if combo is not None:
            rows.append(combo)
            pivots.append(c)
    return Subspace(f, m.ncols, rows[::-1], pivots[::-1])


# ---------------------------------------------------------------------------
# incremental solver


class EchelonSolver:
    """Incremental elimination that remembers how each pivot was formed.

    Vectors are fed with tags; ``express`` then writes any vector of the
    accumulated span as a tagged linear combination of the fed vectors,
    modulo the span of the vectors fed without a tag.  Used for ranks,
    kernels, spans, representative lifting and class-coordinate solving.

    A fed vector is copied the first time it is reduced, so no input dict
    changes; pivots are only read, so a pivot that was never reduced is the
    caller's dict, which must not change afterwards.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # lead col -> rowdict
        self.combos = {}  # lead col -> combodict, only the nonempty ones

    def _reduce(self, vec, combo):
        f = self.field
        pivots, combos = self.pivots, self.combos
        v = vec
        while v:
            c = min(v)
            p = pivots.get(c)
            if p is None:
                return v, combo, c
            if v is vec:
                v = dict(vec)
            factor = f.neg(f.div(v[c], p[c]))
            f.row_addmul(v, p, factor)
            pcombo = combos.get(c)
            if pcombo:
                f.row_addmul(combo, pcombo, factor)
        return v, combo, None

    def _feed(self, vec, combo):
        """Reduce ``vec`` from the combination ``combo``.  Keep it as a pivot
        and return None if it enlarges the span; otherwise return its final
        combination, a relation among the tagged vectors modulo the
        untagged ones."""
        v, combo, lead = self._reduce(vec, combo)
        if lead is None:
            return combo
        self.pivots[lead] = v
        if combo:
            self.combos[lead] = combo
        return None

    def add(self, vec, tag=None):
        """Feed a vector; returns True if it enlarged the span.  An
        untagged vector is divided out of every combination."""
        combo = {} if tag is None else {tag: self.field.one}
        return self._feed(vec, combo) is None

    def express(self, vec):
        """Coefficients {tag: coeff} with vec - sum coeff * fed[tag] in the
        span of the untagged vectors, or None if vec is outside the span."""
        f = self.field
        residual, combo, lead = self._reduce(vec, {})
        if lead is not None:
            return None
        return {t: f.neg(c) for t, c in combo.items()}
