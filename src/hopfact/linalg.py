"""Exact linear algebra over the rationals and prime fields.

Scalars are ints or ``fractions.Fraction`` values (rationals, an int when
integral) or ints in ``[0, p)`` (prime fields); a :class:`Field` object
supplies the arithmetic.
The single canonical form used everywhere is the reduced row echelon form
(RREF), so equality of row spaces, subspaces and ideals is a literal matrix
comparison.  No floating point appears anywhere.

Everything in this module is immutable after construction and all
operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction

DEFAULT_ENUM_BOUND = 256
# Work cap of stable_subspaces: the containment tests of its sift for
# join-irreducible cyclics plus its |lattice| x |join-irreducible cyclics|
# joins.
JOIN_CAP = 200_000


class EnumerationBound(Exception):
    """A brute-force enumeration would exceed the configured cap."""


def enum_bound(override=None):
    """Enumeration cap on the number of field vectors (p**ambient_dim)."""
    return DEFAULT_ENUM_BOUND if override is None else int(override)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rational(q: Fraction):
    """The canonical rational scalar of ``q``: its numerator when integral."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """Exact scalar arithmetic for Q ('rationals') or F_p ('prime-field').

    Rationals are ints when integral and otherwise ``Fraction`` instances
    (lowest terms, positive denominator); an integral ``Fraction`` may also
    appear, and compares, hashes and prints like its int.  Prime-field
    elements are ints reduced mod p.  Either way zero is the only falsy
    scalar, so the hot loops test ``not x`` and accumulate with plain ``+``
    and ``*``, reducing once per output entry (:meth:`reduce`).
    """

    __slots__ = ("kind", "p", "zero", "one")

    def __init__(self, kind, p=None):
        if kind == "prime-field":
            if type(p) is not int or not _is_prime(p):
                raise ValueError(f"prime-field modulus p must be a prime int, "
                                 f"got {p!r}")
            self.p = p
        elif kind == "rationals":
            self.p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.zero, self.one = 0, 1

    def characteristic(self):
        return 0 if self.p is None else self.p

    def from_int(self, n):
        return n % self.p if self.p is not None else n

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0 in F_p")
            return pow(a, self.p - 2, self.p)
        return rational(Fraction(1) / a)

    def reduce(self, xs):
        """Canonical scalars from the list ``xs`` of sums of products of
        canonical scalars: each entry mod p over F_p; ``xs`` itself over Q."""
        p = self.p
        return xs if p is None else [x % p for x in xs]

    def is_zero(self, a):
        return (a % self.p == 0) if self.p is not None else a == 0

    def parse(self, text):
        """Parse a JSON scalar (int or 'a/b' string); native scalars pass through."""
        if isinstance(text, bool):
            raise ValueError(f"not a scalar: {text!r}")
        if isinstance(text, Fraction):
            if self.p is not None:
                if text.denominator != 1:
                    raise ValueError(f"non-integral scalar {text} over F_{self.p}")
                return text.numerator % self.p
            return rational(text)
        if isinstance(text, int):
            return self.from_int(text)
        if isinstance(text, str):
            if self.p is not None:
                return int(text) % self.p
            return rational(Fraction(text))
        raise ValueError(f"cannot parse scalar {text!r}")

    def render(self, a):
        """Serialize a scalar: decimal residue (F_p) or 'a/b' lowest terms (Q)."""
        return str(a)

    def to_json(self):
        if self.p is not None:
            return {"kind": "prime-field", "p": self.p}
        return {"kind": "rationals"}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"field: expected an object, got {obj!r}")
        return cls(obj.get("kind"), obj.get("p"))

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field("rationals")


def GF(p):
    return Field("prime-field", p)


def parse_dense(field, data, shape, key):
    """Parse nested lists of the given shape into scalars, checking every
    level: a level that is not a list of the declared length raises a
    ValueError naming ``key``."""
    if not isinstance(data, (list, tuple)) or len(data) != shape[0]:
        got = f"{len(data)} entries" if isinstance(data, (list, tuple)) else repr(data)
        raise ValueError(f"{key}: expected a list of {shape[0]} entries, got {got}")
    if len(shape) == 1:
        try:
            return [field.parse(c) for c in data]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return [parse_dense(field, row, shape[1:], key) for row in data]


def nonzero_terms(field, vec):
    """[(k, c)] for the nonzero coordinates c = vec[k]."""
    return [(k, c) for k, c in enumerate(vec) if not field.is_zero(c)]


def support(field, terms):
    """The dict ``terms`` of accumulated sums of products, reduced, without
    its zero entries: scalars are canonical, so two such dicts are equal iff
    the sums agree."""
    if not terms:
        return {}
    return {key: c for key, c in zip(terms, field.reduce([*terms.values()])) if c}


class Matrix:
    """Dense matrix over one Field; rows are lists of scalars.

    The nonzero terms of each column are computed on the first product and
    kept, so ``data`` must not be written once a product has been taken.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_columns")

    def __init__(self, field, nrows, ncols, data):
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise ValueError("matrix data does not match shape")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = [list(r) for r in data]
        self._columns = None

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for empty matrix")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, one = field.zero, field.one
        return cls(field, n, n, [[one if j == i else z for j in range(n)]
                                 for i in range(n)])

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows,
                      [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def mat_mul(self, other):
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("matrix product shape/field mismatch")
        F = self.field
        bterms = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.data]
        rows = []
        for row in self.data:
            orow = [0] * other.ncols
            for a, bt in zip(row, bterms):
                if a:
                    for j, b in bt:
                        orow[j] += a * b
            rows.append(F.reduce(orow))
        return Matrix(F, self.nrows, other.ncols, rows)

    @property
    def columns(self):
        """columns[j] = [(i, b)] for the nonzero entries b of column j."""
        if self._columns is None:
            self._columns = [[(i, b) for i, b in enumerate(col) if b]
                             for col in zip(*self.data)] or [[]] * self.ncols
        return self._columns

    def vec_mul(self, v):
        """Matrix times coordinate column vector (a list)."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = [0] * self.nrows
        for a, col in zip(v, self.columns):
            if a:
                for i, b in col:
                    out[i] += a * b
        return self.field.reduce(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.data!r})"


def combine(coeffs, mats) -> Matrix:
    """The matrix sum_i coeffs[i] mats[i]."""
    F = mats[0].field
    rows = [[0] * mats[0].ncols for _ in range(mats[0].nrows)]
    for c, m in zip(coeffs, mats):
        if c:
            for row, mrow in zip(rows, m.data):
                for j, x in enumerate(mrow):
                    if x:
                        row[j] += c * x
    return Matrix(F, mats[0].nrows, mats[0].ncols, [F.reduce(row) for row in rows])


def kron_sum(terms) -> Matrix:
    """The matrix sum c (a (x) b) over the terms (c, a, b), all products of
    one shape.

    This is the one home of the tensor-basis convention: row i of a and
    row k of b give row i * b.nrows + k (row-major, first factor major),
    and likewise for columns, so (a (x) b)[(i, k), (j, l)] = a[i][j] b[k][l].
    Only the nonzero entries of the factors are visited (scalars are
    canonical, so zero is the only falsy one).
    """
    _, a0, b0 = terms[0]
    F = a0.field
    nrows, ncols = a0.nrows * b0.nrows, a0.ncols * b0.ncols
    rows = [[0] * ncols for _ in range(nrows)]
    for c, a, b in terms:
        rb, cb = b.nrows, b.ncols
        if (a.nrows * rb, a.ncols * cb) != (nrows, ncols):
            raise ValueError("kron_sum: products of different shapes")
        if not c:
            continue
        bterms = [(k, l, y) for k, brow in enumerate(b.data)
                  for l, y in enumerate(brow) if y]
        for i, arow in enumerate(a.data):
            for j, x in enumerate(arow):
                if x:
                    cx = c * x
                    for k, l, y in bterms:
                        rows[i * rb + k][j * cb + l] += cx * y
    return Matrix(F, nrows, ncols, [F.reduce(row) for row in rows])


def sparse_apply(m: Matrix, v):
    """m v for the vector ``v`` given as a dict {j: a} of its nonzero
    coordinates, as the same kind of dict (canonical, via :func:`support`)."""
    cols = m.columns
    out = {}
    for j, a in v.items():
        for i, b in cols[j]:
            out[i] = out.get(i, 0) + a * b
    return support(m.field, out)


def apply_combination(coeffs, mats, v):
    """(sum_i coeffs[i] mats[i]) v, one operator image at a time: the
    summed matrix is never formed."""
    F = mats[0].field
    out = [0] * mats[0].nrows
    for c, m in zip(coeffs, mats):
        if c:
            for k, y in enumerate(m.vec_mul(v)):
                if y:
                    out[k] += c * y
    return F.reduce(out)


def _rref_data(field, data, ncols):
    """RREF of a copy of ``data``; returns (rows, pivot_columns).  A pivot
    of 1 is not inverted, and a row is cleared only on the columns where
    the pivot row is nonzero (the others do not change)."""
    F = field
    rows = [list(r) for r in data]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != 1:
            inv = F.inv(rows[r][c])
            rows[r] = F.reduce([inv * x for x in rows[r]])
        terms = [(j, y) for j, y in enumerate(rows[r]) if y]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for (j, _), x in zip(terms, F.reduce([row[j] - f * y for j, y in terms])):
                    row[j] = x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _residual(field, rows, pivots, v):
    """v minus v[pc] times the row of each pivot column pc of the RREF basis
    ``rows``.  Each row vanishes on the other pivot columns, so every
    coefficient is read off v itself and the sums are reduced once per
    entry."""
    w = list(v)
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            for j, y in enumerate(row):
                if y:
                    w[j] -= c * y
    return field.reduce(w)


def _echelon_insert(field, rows, pivots, w):
    """Add the vector ``w`` to the RREF basis ``rows`` (dense rows, pivots
    ascending) in place; False when it is already spanned."""
    w = _residual(field, rows, pivots, w)
    if not any(w):
        return False
    pc = next(j for j, x in enumerate(w) if x)
    if w[pc] != 1:
        inv = field.inv(w[pc])
        w = field.reduce([inv * x for x in w])
    for i, row in enumerate(rows):
        c = row[pc]
        if c:
            rows[i] = field.reduce([x - c * y for x, y in zip(row, w)])
    k = bisect.bisect(pivots, pc)
    rows.insert(k, w)
    pivots.insert(k, pc)
    return True


def spin(field, rows, pivots, todo, ops):
    """Close the RREF basis ``rows`` under the linear maps ``ops`` in place
    when ``todo`` spans it modulo a part already closed: the MeatAxe spin
    (Holt and Rees, J. Austral. Math. Soc. 57, 1994).  Each vector of
    ``todo``, and each image that enlarges the basis (appended to
    ``todo``, which is returned), gets each operator once."""
    for w in todo:
        for op in ops:
            if len(rows) == len(w):
                return todo
            u = op(w)
            if _echelon_insert(field, rows, pivots, u):
                todo.append(u)
    return todo


def _echelon_subspace(field, n, rows, pivots):
    return Subspace(field, n, tuple(map(tuple, rows)), tuple(pivots),
                    _canonical=True)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; same shape, zero rows at the bottom."""
    rows, _ = _rref_data(m.field, m.data, m.ncols)
    return Matrix(m.field, m.nrows, m.ncols, rows)


class Subspace:
    """A subspace of field**ambient_dim in canonical RREF basis form.

    Two subspaces are equal iff their basis matrices are identical, which
    holds iff they are the same subspace.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots, _canonical=False):
        if not _canonical:
            raise ValueError("use Subspace.from_vectors")
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows          # tuple of tuples, RREF, no zero rows
        self.pivots = pivots      # tuple of pivot column indices

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not vecs:
            return cls(field, ambient_dim, (), (), _canonical=True)
        rows, pivots = _rref_data(field, vecs, ambient_dim)
        rows = tuple(tuple(r) for r in rows[: len(pivots)])
        return cls(field, ambient_dim, rows, tuple(pivots), _canonical=True)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), (), _canonical=True)

    @classmethod
    def full(cls, field, ambient_dim):
        rows = tuple(tuple(field.one if i == j else field.zero
                           for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)), _canonical=True)

    @property
    def dim(self):
        return len(self.rows)

    def basis_vectors(self):
        return [list(r) for r in self.rows]

    def to_matrix(self):
        return Matrix.from_rows(self.field, self.basis_vectors() or [], self.ambient_dim)

    def reduce(self, v):
        return _residual(self.field, self.rows, self.pivots, v)

    def contains(self, v):
        return not any(self.reduce(v))

    def coords_in_basis(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside:
        the entries of v at the pivot columns."""
        if any(self.reduce(v)):
            return None
        return self.field.reduce([v[pc] for pc in self.pivots])

    def residual_coords(self, v):
        """Coordinates of v mod this subspace: residual at non-pivot columns."""
        w = self.reduce(v)
        piv = set(self.pivots)
        return [w[j] for j in range(self.ambient_dim) if j not in piv]

    def nonpivot_columns(self):
        piv = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in piv]

    def le(self, other):
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspace sum: ambient mismatch")
    rows, pivots = list(u.rows), list(u.pivots)
    for r in v.rows:
        _echelon_insert(u.field, rows, pivots, r)
    return _echelon_subspace(u.field, u.ambient_dim, rows, pivots)


def annihilator(u: Subspace) -> Subspace:
    """Vectors killed by every basis functional row of u (dot pairing): read
    off u's RREF rows, e_j minus row[j] e_pc over the pivots pc, for each
    non-pivot column j."""
    basis = []
    for j in u.nonpivot_columns():
        v = [0] * u.ambient_dim
        v[j] = 1
        for row, pc in zip(u.rows, u.pivots):
            v[pc] = -row[j]
        basis.append(u.field.reduce(v))
    return Subspace.from_vectors(u.field, u.ambient_dim, basis)


def _right_block(field, n, data, width):
    """The subspace spanned by the right halves (past column ``n``) of the
    rows of the RREF of ``data`` whose pivots lie past column ``n``: they
    vanish on the left block, and their right halves are already RREF."""
    rows, pivots = _rref_data(field, data, n + width)
    k = bisect.bisect_left(pivots, n)
    return Subspace(field, width, tuple(tuple(r[n:]) for r in rows[k:len(pivots)]),
                    tuple(pc - n for pc in pivots[k:]), _canonical=True)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u meet v by Zassenhaus's elimination: the vectors of the row space of
    [u | u ; v | 0] that vanish on the left block are (0, w), w in u meet v."""
    if u.field != v.field or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspace intersect: ambient mismatch")
    zero = (0,) * u.ambient_dim
    return _right_block(u.field, u.ambient_dim,
                        [r + r for r in u.rows] + [r + zero for r in v.rows], u.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """{v : m v = 0} as a canonical subspace; dim = ncols - rank."""
    F = m.field
    rows, pivots = _rref_data(F, m.data, m.ncols)
    pivset = set(pivots)
    basis = []
    for j in range(m.ncols):
        if j in pivset:
            continue
        v = [F.zero] * m.ncols
        v[j] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(rows[r][j])
        basis.append(v)
    return Subspace.from_vectors(F, m.ncols, basis)


def solve(m: Matrix, b) -> list | None:
    """Some solution x of m x = b, or None when inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("rhs length mismatch")
    F = m.field
    aug = [list(r) + [b[i]] for i, r in enumerate(m.data)]
    rows, pivots = _rref_data(F, aug, m.ncols + 1)
    if m.ncols in pivots:
        return None
    x = [F.zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.ncols]
    return x


def projection_matrix(sub: Subspace) -> Matrix:
    """Linear map v -> coordinates of v modulo sub (non-pivot residuals)."""
    F = sub.field
    n = sub.ambient_dim
    rows = [sub.residual_coords([F.one if t == j else F.zero for t in range(n)])
            for j in range(n)]
    # rows currently hold columns; transpose into (n - d) x n
    d = n - sub.dim
    return Matrix(F, d, n, [[rows[j][r] for j in range(n)] for r in range(d)])


def is_stable(space: Subspace, ops) -> bool:
    """Whether every operator matrix in ``ops`` maps ``space`` into itself."""
    return all(space.contains(op.vec_mul(list(row)))
               for op in ops for row in space.rows)


def closure(space: Subspace, ops) -> Subspace:
    """Smallest subspace containing ``space`` and mapped into itself by
    every operator matrix in ``ops``: the basis rows of ``space`` spun
    under ``ops`` (:func:`spin`), one echelon insert per image."""
    rows, pivots = list(space.rows), list(space.pivots)
    spin(space.field, rows, pivots, list(space.rows), [op.vec_mul for op in ops])
    return _echelon_subspace(space.field, space.ambient_dim, rows, pivots)


def largest_stable_inside(space: Subspace, ops) -> Subspace:
    """Largest subspace of ``space`` mapped into itself by every operator.

    A subspace U is T-stable iff its annihilator is stable under the
    transpose of T, so this is the annihilator of the closure of the
    annihilator of ``space`` under the transposed operators.
    """
    return annihilator(closure(annihilator(space), [op.transpose() for op in ops]))


def pull_back(embed: Matrix, image: Subspace, sub: Subspace) -> Subspace:
    """Coordinates, through the injective ``embed``, of ``sub`` intersected
    with ``image`` (the column span of ``embed``): {x : embed x in sub}, read
    off the vectors (0, x) of the row space of [embed^T | I ; sub | 0].
    Raises RuntimeError when ``image`` is not the span of the columns."""
    k = embed.ncols
    cols = embed.transpose().data
    if image.dim != k or not all(map(image.contains, cols)):
        raise RuntimeError("the image is not the column span of the embedding")
    eye = Matrix.identity(embed.field, k).data
    return _right_block(embed.field, embed.nrows,
                        [c + e for c, e in zip(cols, eye)]
                        + [list(r) + [0] * k for r in sub.rows], k)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p**n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(p, n):
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def _enumerable_prime(field, n, bound):
    """The characteristic p, after refusing Q and p**n above the cap."""
    p = field.characteristic()
    if p == 0:
        raise EnumerationBound("enumeration requires a prime field")
    cap = enum_bound(bound)
    if p ** n > cap:
        raise EnumerationBound(f"{p}**{n} exceeds enumeration bound {cap}")
    return p


def enumerate_subspaces(field: Field, ambient_dim: int, bound=None):
    """Every subspace of field**ambient_dim exactly once, canonical form.

    Deterministic order: dimension ascending, pivot columns lexicographic,
    free entries odometer (last position fastest).  Restricted to prime
    fields with p**ambient_dim within the enumeration cap.
    """
    p = _enumerable_prime(field, ambient_dim, bound)
    n = ambient_dim
    values = [field.from_int(i) for i in range(p)]
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                    if j not in pivots]
            for assign in itertools.product(range(p), repeat=len(free)):
                rows = [[field.zero] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = field.one
                for (pos, val) in zip(free, assign):
                    rows[pos[0]][pos[1]] = values[val]
                yield Subspace(field, n, tuple(tuple(r) for r in rows),
                               tuple(pivots), _canonical=True)


class _Packed:
    """F_p**n vectors as ints (the MeatAxe's packed rows, Parker 1984):
    coordinate j is the k-bit digit at shift (n - 1 - j) k, 2**(k - 1) >= p,
    so reduced vectors add with no carry between digits, one guard-bit test
    per digit reduces the sum mod p (SWAR), and vectors compare as their
    coordinate tuples.  A basis is an RREF dict {pivot shift: [-c row for c
    in range(p)]}, row last; ``negs`` memoises those lists for one call.
    Over F_2 :func:`stable_subspaces` packs into :class:`_Bits`, one bit a
    coordinate, instead; this route then serves as its oracle."""

    __slots__ = ("p", "n", "k", "digit", "shifts", "guard", "offset", "negs")

    def __init__(self, p, n):
        k = (p - 1).bit_length() + 1
        self.p, self.n, self.k, self.digit = p, n, k, (1 << k) - 1
        self.shifts = [(n - 1 - j) * k for j in range(n)]
        ones = sum(1 << s for s in self.shifts)
        self.guard, self.offset, self.negs = ones << (k - 1), ones * ((1 << (k - 1)) - p), {}

    def pack(self, vec):
        return sum(x << s for x, s in zip(vec, self.shifts))

    def unpack(self, w):
        return tuple(w >> s & self.digit for s in self.shifts)

    def multiples(self, w):
        """[c w for c in range(p)]."""
        p, k1, guard, offset = self.p, self.k - 1, self.guard, self.offset
        out = [0, w]
        for _ in range(p - 2):
            s = out[-1] + w
            out.append(s - ((s + offset & guard) >> k1) * p)
        return out

    def negated(self, r):
        if r not in self.negs:
            m = self.multiples(r)
            self.negs[r] = [m[-c] for c in range(self.p)]
        return self.negs[r]

    def tables(self, operators):
        """Each distinct matrix as [(shift j, :meth:`multiples` of op(e_j))]
        over its nonzero columns."""
        return [[(s, self.multiples(col)) for s, col in zip(self.shifts, cols) if col]
                for cols in dict.fromkeys(
                    tuple(self.pack([row[j] % self.p for row in m.data]) for j in range(self.n))
                    for m in operators)]

    def extend(self, us, m, top):
        """[u + c w for c in range(top) for u in us], ``m`` the multiples of
        w (None for w = 0)."""
        if m is None:
            return us * top
        p, k1, guard, offset = self.p, self.k - 1, self.guard, self.offset
        return us + [s - ((s + offset & guard) >> k1) * p
                     for w in m[1:top] for s in [u + w for u in us]]

    def key(self, basis):
        """The rows of ``basis`` by ascending pivot: equal iff the spans are."""
        return tuple(sorted([neg[-1] for neg in basis.values()], reverse=True))

    def reduce(self, basis, w):
        """w minus its digit at each pivot times that pivot's row: the rows
        vanish on the other pivots, so every digit is read off w itself."""
        p, k1, digit, guard, offset = self.p, self.k - 1, self.digit, self.guard, self.offset
        for sh, neg in basis.items():
            c = w >> sh & digit
            if c:
                s = w + neg[c]
                w = s - ((s + offset & guard) >> k1) * p
        return w

    def insert(self, basis, w):
        """Add ``w`` to ``basis`` in place; False when it is already spanned."""
        w = self.reduce(basis, w)
        if not w:
            return False
        sh = (w.bit_length() - 1) // self.k * self.k
        if w >> sh != 1:
            w = self.multiples(w)[pow(w >> sh, self.p - 2, self.p)]
        neg = self.negated(w)
        for s, other in basis.items():
            if other[-1] >> sh & self.digit:
                basis[s] = self.negated(self.reduce({sh: neg}, other[-1]))
        basis[sh] = neg
        return True


class _Bits(_Packed):
    """F_2**n vectors as ints, one bit a coordinate (as in M4RI, Albrecht,
    Bard and Hart, ACM TOMS 37, 2010): coordinate j is the bit at shift
    n - 1 - j, vectors add by XOR, a basis is an RREF dict {pivot: row}."""

    __slots__ = ()

    def __init__(self, n):
        self.p, self.n, self.k, self.digit = 2, n, 1, 1
        self.shifts = list(range(n - 1, -1, -1))

    def multiples(self, w):
        return [0, w]

    def extend(self, us, m, top):
        return us * 2 if m is None else us + [u ^ m[1] for u in us]

    def key(self, basis):
        return tuple(sorted(basis.values(), reverse=True))

    def reduce(self, basis, w):
        for sh, r in basis.items():
            if w >> sh & 1:
                w ^= r
        return w

    def insert(self, basis, w):
        w = self.reduce(basis, w)
        if not w:
            return False
        sh = w.bit_length() - 1
        for s, r in basis.items():
            if r >> sh & 1:
                basis[s] = r ^ w
        basis[sh] = w
        return True


def _components(graph):
    """The strongly connected components of ``graph`` (successor lists of
    0..len - 1), each after every component it reaches (Tarjan)."""
    index, low, done, stack = {-1: -1}, {-1: -1}, set(), []
    work = [(-1, iter(range(len(graph))))]     # a root that reaches them all
    while work:
        i, succ = work[-1]
        for j in succ:
            if j not in index:
                index[j] = low[j] = len(index)
                stack.append(j)
                work.append((j, iter(graph[j])))
                break
            if j not in done:
                low[i] = min(low[i], index[j])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[i])
                if low[i] == index[i]:
                    at = bisect.bisect_left(stack, index[i], key=index.__getitem__)
                    members, stack[at:] = stack[at:], []
                    done.update(members)
                    yield members


def _spin_cyclics(pk, ops):
    """The distinct cyclic submodules <v> of F_p**n under ``ops`` (tables
    from :meth:`_Packed.tables`), in line order, as (packed RREF rows, the
    first line v that spins to them, their basis).

    Every vector d e_j + t comes from a shorter t, so each operator's image
    of it is op(t) + d op(e_j), one add.  <v> is v plus the cyclics of the
    lines of v's images, so the lines of one strongly connected component
    of this image graph share their cyclic: the span of those lines and of
    the cyclics of the components they reach, each added unless its
    generator lies in the span so far.  When a line of the component lies
    in the largest of those, the component's cyclic is that one, and
    shares its basis."""
    p, n, cols = pk.p, pk.n, [dict(t) for t in ops]
    vecs, imgs = [0], [[0] for _ in ops]
    for sh in reversed(pk.shifts):
        # a leading coordinate d >= 2 starts neither a line nor a tail
        top = 2 if sh == pk.shifts[0] else p
        vecs = [d << sh | t for d in range(top) for t in vecs]
        imgs = [pk.extend(us, c.get(sh), top) for us, c in zip(imgs, cols)]
    # the lines with leading coordinate j sit at [p**l, 2 p**l), l = n - 1 - j
    order = [i for l in reversed(range(n)) for i in range(p ** l, 2 * p ** l)]
    lines = [vecs[i] for i in order]
    line_of = {m: i for i, v in enumerate(lines) for m in pk.multiples(v)[1:]}
    images = [[line_of[us[i]] for us in imgs if us[i]] for i in order]
    comp, found = [None] * len(lines), []     # found[c]: (rows, basis, a generator)
    for members in _components(images):
        for m in members:
            comp[m] = len(found)
        v = lines[members[0]]
        subs = sorted((found[c] for c in {comp[j] for m in members for j in images[m]}
                       - {len(found)}), key=lambda f: len(f[0]), reverse=True)
        if subs and not pk.reduce(subs[0][1], v):
            found.append(subs[0])
            continue
        basis = dict(subs[0][1]) if subs else {}
        for rows, _, u in subs[1:]:
            # a sum of cyclics is stable, so it holds <u> iff it holds u
            if pk.reduce(basis, u):
                for r in rows:
                    pk.insert(basis, r)
        for m in members:
            pk.insert(basis, lines[m])
        found.append((pk.key(basis), basis, v))
    cyclics = {}
    for v, c in zip(lines, comp):
        rows, basis, _ = found[c]
        cyclics.setdefault(rows, (rows, v, basis))
    return list(cyclics.values())


def _refuse_joins(p, n):
    return EnumerationBound(
        f"the stable-subspace lattice of {p}**{n} needs more than "
        f"{JOIN_CAP} joins (JOIN_CAP)")


def _join_irreducibles(pk, cyclics):
    """The cyclics that are not sums of smaller cyclics, by ascending
    dimension, as (rows, generator) pairs, and the number of containment
    tests made to find them; refuses once the tests pass :data:`JOIN_CAP`.

    A kept cyclic D lies inside C exactly when its generator does, and C
    is kept when the kept cyclics strictly inside it span less than C.
    """
    kept = []
    tests = 0
    for crows, v, cbasis in sorted(cyclics, key=lambda c: len(c[0])):
        dim = len(crows)
        basis = {}
        for drows, u in kept:
            if len(drows) == dim or len(basis) == dim:
                break
            tests += 1
            if not pk.reduce(cbasis, u):
                for r in drows:
                    pk.insert(basis, r)
        if tests > JOIN_CAP:
            raise _refuse_joins(pk.p, pk.n)
        if len(basis) < dim:
            kept.append((crows, v))
    return kept, tests


def stable_subspaces(field: Field, n, operators, bound=None):
    """All subspaces of field**n closed under each operator matrix.

    Output-sensitive (the MeatAxe approach): every stable subspace is a sum
    of cyclic submodules <v>, and so of the join-irreducible ones, those
    that are not sums of smaller cyclics (Lux, Mueller and Ringe, J.
    Symbolic Comput. 17, 1994).  The cyclics of the (p**n - 1)/(p - 1)
    lines come from one pass over the graph of their operator images, each
    computed once (:func:`_spin_cyclics`); the join-irreducible ones are
    sifted out (:func:`_join_irreducibles`), and {0} is closed under L + C
    for every join-irreducible C not inside L, so the joins number
    |lattice| x |join-irreducibles|.  Vectors are packed ints, one bit a
    coordinate over F_2 (:class:`_Bits`) and k bits over a larger F_p
    (:class:`_Packed`), unpacked only into the returned subspaces.  When
    every cyclic is a line (all operators scalars, or none) every subspace
    is stable: 177,975 joins at F_2^6 and 3.7 million at F_2^7.

    Refuses Q and p**n above the enumeration cap (:func:`enum_bound`), and
    refuses once the sift's containment tests and the joins tried pass
    :data:`JOIN_CAP` (before the first join when every cyclic is a line).
    The result is in the order of :func:`enumerate_subspaces`.
    """
    p = _enumerable_prime(field, n, bound)
    pk = _Bits(n) if p == 2 else _Packed(p, n)
    cyclics = _spin_cyclics(pk, pk.tables(operators))
    if (all(len(rows) == 1 for rows, _, _ in cyclics)
            and subspace_count(p, n) * len(cyclics) > JOIN_CAP):
        raise _refuse_joins(p, n)
    kept, joins = _join_irreducibles(pk, cyclics)
    lattice = {(): {}}
    queue = [{}]
    for basis in queue:
        joins += len(kept)
        if joins > JOIN_CAP:
            raise _refuse_joins(p, n)
        for crows, v in kept:
            if not pk.reduce(basis, v):
                continue
            joined = dict(basis)
            for r in crows:
                pk.insert(joined, r)
            key = pk.key(joined)
            if lattice.setdefault(key, joined) is joined:
                queue.append(joined)
    return [Subspace(field, n, tuple(map(pk.unpack, rows)), pivots, _canonical=True)
            for _, pivots, rows in sorted(
                (len(rows), tuple(n - 1 - (r.bit_length() - 1) // pk.k for r in rows), rows)
                for rows in lattice)]
