"""Finite-dimensional algebras and Hopf algebras by structure constants.

Every structure is stored as sparse term lists, built once:

- an algebra keeps ``mult_sparse[i][j]``, the pairs (k, c) with c nonzero of
  e_i e_j = sum_k c e_k, sorted by k, and the coordinate vector of its unit;
- a Hopf algebra adds ``comul_sparse[j]``, the triples (i, k, c) of
  delta(e_j) = sum c e_i (x) e_k sorted by (i, k), the counit as a row
  vector, and ``antipode_sparse[j]``, the pairs (i, c) of S(e_j) =
  sum c e_i sorted by i.

Builders emit the terms directly with native scalars.  The dense forms
(the rank-3 tensor ``mult``, the n^2 x n ``comul`` matrix with row i*n + k,
the n x n ``antipode`` matrix) are derived views for the JSON edge; dense
external data is parsed once, by the ``FiniteAlgebra`` constructor and
``workspace.load_hopf``.

Tensor products use the basis order of :func:`linalg.kron_sum`, first
factor major.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial
from math import comb

from .linalg import (GF, Field, Matrix, Subspace, closure, is_stable,
                     nonzero_terms, parse_dense, spin, support, _echelon_insert,
                     _residual)
from .report import Report


class FiniteAlgebra:
    """Associative unital algebra by structure constants over a Field.

    :attr:`generators` (basis indices) feeds the generator-lemma scans,
    :attr:`generator_elements` the ideal tests and closures."""

    def __init__(self, field: Field, dim: int, mult, unit, name=None):
        """Parse dense data: e_i e_j = sum_k mult[i][j][k] e_k."""
        if type(dim) is not int:
            raise ValueError(f"dim: expected an int, got {dim!r}")
        mult = parse_dense(field, mult, (dim, dim, dim), "mult")
        self.field = field
        self.dim = dim
        self.mult_sparse = [[nonzero_terms(field, row) for row in plane]
                            for plane in mult]
        self.unit = parse_dense(field, unit, (dim,), "unit")
        self.name = name

    @classmethod
    def from_terms(cls, field: Field, dim: int, terms, unit, name=None):
        """Builders' constructor: terms[i][j] = [(k, c)], c a nonzero native
        scalar, sorted by k; nothing is parsed."""
        alg = cls.__new__(cls)
        alg.field, alg.dim, alg.mult_sparse = field, dim, terms
        alg.unit, alg.name = list(unit), name
        return alg

    @cached_property
    def mult(self):
        """Dense view: mult[i][j][k], the coefficient of e_k in e_i e_j."""
        return [[self.basis_product(i, j) for j in range(self.dim)]
                for i in range(self.dim)]

    @cached_property
    def right_partners(self):
        """right_partners[i] = columns j with e_i e_j != 0."""
        return [[j for j in range(self.dim) if self.mult_sparse[i][j]]
                for i in range(self.dim)]

    def multiply(self, x, y):
        out = [0] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for a, plane in zip(x, self.mult_sparse):
            if a:
                for j, b in ys:
                    ab = a * b
                    for k, c in plane[j]:
                        out[k] += ab * c
        return self.field.reduce(out)

    def sparse_multiply(self, x, y):
        """x y for vectors given as dicts {i: a} of their nonzero
        coordinates, as the same kind of dict (canonical, via ``support``)."""
        out = {}
        for i, a in x.items():
            plane = self.mult_sparse[i]
            for j, b in y.items():
                ab = a * b
                for k, c in plane[j]:
                    out[k] = out.get(k, 0) + ab * c
        return support(self.field, out)

    def _left_basis_multiply(self, plane, y):
        """e_b y for ``plane`` = mult_sparse[b], over the nonzero y_j only."""
        out = [0] * self.dim
        for j, a in enumerate(y):
            if a:
                for k, c in plane[j]:
                    out[k] += a * c
        return self.field.reduce(out)

    def basis_product(self, i, j):
        out = [self.field.zero] * self.dim
        for k, c in self.mult_sparse[i][j]:
            out[k] = c
        return out

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x y on coordinates."""
        return self._mult_matrix(x, lambda a, b: self.mult_sparse[a][b])

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> y x on coordinates."""
        return self._mult_matrix(x, lambda a, b: self.mult_sparse[b][a])

    def _mult_matrix(self, x, terms):
        F = self.field
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(x):
            if a:
                for j in range(self.dim):
                    for k, c in terms(i, j):
                        rows[k][j] += a * c
        return Matrix(F, self.dim, self.dim, [F.reduce(row) for row in rows])

    @cached_property
    def generators(self):
        """Basis indices b whose elements e_b generate the algebra, for
        :func:`scan_generators`, which pays per basis case.

        On k^X (:attr:`_idempotent_basis`) 0, ..., n - 2, as the walk below
        finds.  Otherwise, in ascending order, b is kept when e_b lies
        outside W, the span of the words g1 (g2 (... (gk 1))) in the
        generators kept so far; W is the unit spun under left multiplication
        by the generators (:func:`~hopfact.linalg.spin`), and a new
        generator is applied once to every vector spun before it.  The
        result is deterministic.  When the unit is a right unit (so e_b =
        e_b 1 is a word) the words of the generators span the algebra: k^X
        needs |X| - 1 generators and a group algebra kG at most log2 |G|.
        When the words fall short, every basis index is a generator.
        """
        if self._idempotent_basis:
            return list(range(self.dim - 1))
        return self._generator_walk()

    def _generator_walk(self):
        F, n = self.field, self.dim
        rows, pivots = [], []
        spun = [self.unit] if _echelon_insert(F, rows, pivots, self.unit) else []
        gens, ops = [], []
        for b in range(n):
            e = self.basis_vector(b)
            if len(rows) < n and any(_residual(F, rows, pivots, e)):
                gens.append(b)
                ops.append(partial(self._left_basis_multiply, self.mult_sparse[b]))
                new = [u for u in map(ops[-1], spun) if _echelon_insert(F, rows, pivots, u)]
                spun += spin(F, rows, pivots, new, ops)
        return gens if len(rows) == n else list(range(n))

    @cached_property
    def _idempotent_basis(self):
        """Whether e_i e_j = [i = j] e_i and the unit is the sum of the e_i."""
        one = self.field.one
        return (all(c == one for c in self.unit)
                and all(plane[i] == [(i, one)] and sum(map(bool, plane)) == 1
                        for i, plane in enumerate(self.mult_sparse)))

    @cached_property
    def generator_elements(self):
        """Generating elements, read by :attr:`generator_operators`.  Over
        F_p: on k^X the ceil(log_p n) sums of d_t(i) e_i, d_t(i) the base-p
        digits of i (e_i is a product of Lagrange polynomials in them).
        Otherwise, and over Q (where closures under such sums eliminate
        growing fractions), the basis elements of :attr:`generators`."""
        F, n = self.field, self.dim
        if F.p is not None and self._idempotent_basis:
            return [[i // F.p ** t % F.p for i in range(n)] for t in range(n) if F.p ** t < n]
        return [self.basis_vector(b) for b in self.generators]

    @cached_property
    def generator_operators(self):
        """Left multiplication L_g by each of :attr:`generator_elements`,
        and right multiplication R_g where it differs from L_g.

        In an associative unital algebra the x with x W in W form a unital
        subalgebra, and so do the x with W x in W, so these operators keep
        exactly the two-sided ideals."""
        ops = []
        for e in self.generator_elements:
            left, right = self.left_mult_matrix(e), self.right_mult_matrix(e)
            ops += [left] if left == right else [left, right]
        return ops

    def is_commutative(self):
        sp = self.mult_sparse
        return all(sp[i][j] == sp[j][i]
                   for i in range(self.dim) for j in range(i))

    def power(self, x, n):
        out = list(self.unit)
        for _ in range(n):
            out = self.multiply(out, x)
        return out

    def to_json(self):
        F = self.field
        return {
            "field": F.to_json(),
            "dim": self.dim,
            "mult": [[[F.render(c) for c in row] for row in plane] for plane in self.mult],
            "unit": [F.render(c) for c in self.unit],
            **({"name": self.name} if self.name else {}),
        }

    def __repr__(self):
        return f"FiniteAlgebra({self.name or '?'}, dim={self.dim}, {self.field!r})"


class HopfAlgebra:
    """FiniteAlgebra plus coproduct and antipode terms and the counit."""

    def __init__(self, alg: FiniteAlgebra, comul_terms, counit, antipode_terms,
                 name=None):
        n = alg.dim
        if len(comul_terms) != n:
            raise ValueError("comul must have one term list per basis element")
        if len(counit) != n:
            raise ValueError("counit must have length n")
        if len(antipode_terms) != n:
            raise ValueError("antipode must have one term list per basis element")
        self.alg = alg
        self.comul_sparse = comul_terms
        self.counit = list(counit)
        self.antipode_sparse = antipode_terms
        self.name = name or alg.name

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    @cached_property
    def comul(self) -> Matrix:
        """Dense view: n^2 x n, column j = delta(e_j) on row i*n + k."""
        n = self.dim
        return _matrix_of_columns(self.field, n * n,
                                  [[(i * n + k, c) for i, k, c in col]
                                   for col in self.comul_sparse])

    @cached_property
    def antipode(self) -> Matrix:
        """Dense view: n x n, column j = S(e_j)."""
        return _matrix_of_columns(self.field, self.dim, self.antipode_sparse)

    def delta(self, x):
        """Coproduct coordinates of x on the n^2 tensor basis."""
        F = self.field
        n = self.dim
        out = [F.zero] * (n * n)
        for j, a in enumerate(x):
            if not F.is_zero(a):
                for i, k, c in self.comul_sparse[j]:
                    out[i * n + k] = F.add(out[i * n + k], F.mul(a, c))
        return out

    def eps(self, x):
        F = self.field
        out = F.zero
        for j, a in enumerate(x):
            if not F.is_zero(a):
                out = F.add(out, F.mul(a, self.counit[j]))
        return out

    def s_apply(self, x):
        F = self.field
        out = [F.zero] * self.dim
        for j, a in enumerate(x):
            if not F.is_zero(a):
                for i, c in self.antipode_sparse[j]:
                    out[i] = F.add(out[i], F.mul(a, c))
        return out

    def basis_vector(self, i):
        return self.alg.basis_vector(i)

    def to_json(self):
        F = self.field
        out = self.alg.to_json()
        out["comul"] = [[F.render(c) for c in row] for row in self.comul.data]
        out["counit"] = [F.render(c) for c in self.counit]
        out["antipode"] = [[F.render(c) for c in row] for row in self.antipode.data]
        if self.name:
            out["name"] = self.name
        return out

    def __repr__(self):
        return f"HopfAlgebra({self.name or '?'}, dim={self.dim}, {self.field!r})"


def _matrix_of_columns(F, nrows, columns) -> Matrix:
    """The matrix with entry c at (r, j) for each (r, c) in columns[j]."""
    rows = [[F.zero] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r, c in col:
            rows[r][j] = c
    return Matrix(F, nrows, len(columns), rows)


# -- verification -------------------------------------------------------------
# The multiplicative axioms are checked with the generator lemma: the elements
# that satisfy an axiom in one slot, for every basis element in the other
# slots, form a unital subalgebra once the verifier's own earlier checks
# (unit, associativity, unital maps) pass, so that slot need only run over
# FiniteAlgebra.generators.  Each loop below takes the indices of that slot
# as ``outer``; scan_generators runs it over the basis whenever the lemma
# does not apply or a generator case fails, so a failure lists every
# failing basis case exactly as a plain scan does.

def scan_generators(alg: FiniteAlgebra, ready, failures):
    """``failures(outer)``, the failing cases whose lemma slot is in
    ``outer``, with that slot over ``alg.generators`` when ``ready`` (the
    lemma's preconditions passed) and no generator case fails, and over the
    whole basis otherwise."""
    if ready:
        found = failures(alg.generators)
        if not found:
            return found
    return failures(range(alg.dim))


def verify_algebra(a: FiniteAlgebra) -> Report:
    """Associativity on all basis triples plus two-sided unit.

    Generator lemma: with a two-sided unit, the m with (x m) y = x (m y)
    for all x, y form a unital subalgebra (Light's associativity test), so
    the middle slot runs over the generators once both unit laws hold."""
    rep = Report("algebra-axioms", details={"name": a.name, "dim": a.dim})
    F = a.field
    n = a.dim
    unit_fails = []
    for j in range(n):
        ej = [F.one if t == j else F.zero for t in range(n)]
        if a.multiply(a.unit, ej) != ej:
            unit_fails.append({"axiom": "left-unit", "basis": j})
        if a.multiply(ej, a.unit) != ej:
            unit_fails.append({"axiom": "right-unit", "basis": j})
    for triple in scan_generators(a, not unit_fails,
                                  lambda outer: _associator_failures(a, outer)):
        rep.fail({"axiom": "associativity", "triple": triple})
    for witness in unit_fails:
        rep.fail(witness)
    return rep


def _associator_failures(a: FiniteAlgebra, middles):
    """The triples [i, j, k], j in ``middles``, with (e_i e_j) e_k !=
    e_i (e_j e_k); every k of one (i, j) at once, keyed (k, q)."""
    F, n = a.field, a.dim
    sparse, partners = a.mult_sparse, a.right_partners
    out = []
    for i in range(n):
        sp_i = sparse[i]
        for j in middles:
            diff = {}
            for m, c in sp_i[j]:
                sp_m = sparse[m]
                for k in partners[m]:
                    for q, d in sp_m[k]:
                        diff[k, q] = diff.get((k, q), 0) + c * d
            sp_j = sparse[j]
            for k in partners[j]:
                for m, c in sp_j[k]:
                    for q, d in sp_i[m]:
                        diff[k, q] = diff.get((k, q), 0) - c * d
            out.extend([i, j, k] for k in sorted({k for k, _ in support(F, diff)}))
    return out


def verify_hopf(h: HopfAlgebra) -> Report:
    """Coassociativity, counit law, bialgebra compatibility, antipode axiom.

    Generator lemma: H is associative (checked first), so when eps(1) = 1
    the x with eps(x y) = eps(x) eps(y) for all y form a unital subalgebra,
    and when delta(1) = 1 (x) 1 so do the x with delta(x y) =
    delta(x) delta(y); the first slot of each pair runs over the
    generators."""
    rep = Report("hopf-axioms", details={"name": h.name, "dim": h.dim})
    alg = h.alg
    F = h.field
    n = h.dim
    base = verify_algebra(alg)
    if not base.ok:
        rep.fail({"axiom": "underlying-algebra"})
        rep.witnesses.extend(base.witnesses)
        return rep

    cols = h.comul_sparse
    counit = h.counit
    for j in coassociativity_failures(h):
        rep.fail({"axiom": "coassociativity", "basis": j})
    for j in counit_failures(h):
        rep.fail({"axiom": "counit", "basis": j})

    # counit is an algebra map
    eps_unital = h.eps(alg.unit) == F.one
    if not eps_unital:
        rep.fail({"axiom": "counit-unital"})
    for pair in scan_generators(alg, eps_unital,
                                lambda outer: _counit_mult_failures(h, outer)):
        rep.fail({"axiom": "counit-multiplicative", "pair": pair})

    # comultiplication is an algebra map
    delta_unital = h.delta(alg.unit) == [F.mul(a, b) for a in alg.unit for b in alg.unit]
    if not delta_unital:
        rep.fail({"axiom": "comul-unital"})
    for pair in scan_generators(alg, delta_unital,
                                lambda outer: _comul_mult_failures(h, outer)):
        rep.fail({"axiom": "comul-multiplicative", "pair": pair})

    # antipode axiom: m (S (x) id) delta = unit . counit = m (id (x) S) delta
    scols = h.antipode_sparse
    for j in range(n):
        left = [0] * n
        right = [0] * n
        for (i, k, c) in cols[j]:
            for m, a in scols[i]:
                ca = c * a
                for q, d in alg.mult_sparse[m][k]:
                    left[q] += ca * d
            for m, a in scols[k]:
                ca = c * a
                for q, d in alg.mult_sparse[i][m]:
                    right[q] += ca * d
        target = [F.mul(counit[j], u) for u in alg.unit]
        if F.reduce(left) != target:
            rep.fail({"axiom": "antipode-left", "basis": j})
        if F.reduce(right) != target:
            rep.fail({"axiom": "antipode-right", "basis": j})
    return rep


def coassociativity_failures(h: HopfAlgebra):
    """The basis indices j with (delta (x) id) delta e_j !=
    (id (x) delta) delta e_j."""
    F, cols = h.field, h.comul_sparse
    out = []
    for j in range(h.dim):
        diff = {}
        for (i, k, c) in cols[j]:
            for (a, b, d) in cols[i]:
                diff[a, b, k] = diff.get((a, b, k), 0) + c * d
            for (a, b, d) in cols[k]:
                diff[i, a, b] = diff.get((i, a, b), 0) - c * d
        if support(F, diff):
            out.append(j)
    return out


def counit_failures(h: HopfAlgebra):
    """The basis indices j with (eps (x) id) delta e_j != e_j or
    (id (x) eps) delta e_j != e_j."""
    F, n, counit = h.field, h.dim, h.counit
    out = []
    for j in range(n):
        left = [0] * n
        right = [0] * n
        for (i, k, c) in h.comul_sparse[j]:
            left[k] += c * counit[i]
            right[i] += c * counit[k]
        ej = h.alg.basis_vector(j)
        if F.reduce(left) != ej or F.reduce(right) != ej:
            out.append(j)
    return out


def _counit_mult_failures(h: HopfAlgebra, firsts):
    """The pairs [i, j], i in ``firsts``, with eps(e_i e_j) != eps(e_i) eps(e_j)."""
    F, counit, sparse = h.field, h.counit, h.alg.mult_sparse
    return [[i, j] for i in firsts for j in range(h.dim)
            if F.reduce([sum(c * counit[k] for k, c in sparse[i][j])
                         - counit[i] * counit[j]])[0]]


def _comul_mult_failures(h: HopfAlgebra, firsts):
    """The pairs [i, j], i in ``firsts``, with delta(e_i e_j) !=
    delta(e_i) delta(e_j)."""
    alg, F, n, cols = h.alg, h.field, h.dim, h.comul_sparse
    partners = alg.right_partners
    by_first = []
    for j in range(n):
        buckets = {}
        for (d, e, c2) in cols[j]:
            buckets.setdefault(d, []).append((e, c2))
        by_first.append(buckets)
    out = []
    for i in firsts:
        for j in range(n):
            diff = {}
            for k, c in alg.mult_sparse[i][j]:
                for (a, b, d) in cols[k]:
                    diff[a, b] = diff.get((a, b), 0) + c * d
            buckets = by_first[j]
            for (a, b, c1) in cols[i]:
                for d in partners[a]:
                    bucket = buckets.get(d)
                    if not bucket:
                        continue
                    sp_ad = alg.mult_sparse[a][d]
                    for (e, c2) in bucket:
                        sp_be = alg.mult_sparse[b][e]
                        if not sp_be:
                            continue
                        c12 = c1 * c2
                        for (x, cx) in sp_ad:
                            c12x = c12 * cx
                            for (y, cy) in sp_be:
                                diff[x, y] = diff.get((x, y), 0) - c12x * cy
            if support(F, diff):
                out.append([i, j])
    return out


def is_cocommutative(h: HopfAlgebra) -> bool:
    """True iff the swap-composed comultiplication equals the original."""
    return all(sorted((k, i, c) for i, k, c in col) == col
               for col in h.comul_sparse)


# -- constructors --------------------------------------------------------------

def _check_group_table(table):
    n = len(table) if isinstance(table, list) else -1
    if n < 0 or any(not isinstance(row, list) or len(row) != n
                    or any(type(x) is not int or not 0 <= x < n for x in row)
                    for row in table):
        raise ValueError(f"group_table: expected a square list of lists of "
                         f"ints in 0..n-1, got {table!r}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValueError(f"table not associative at {(i, j, k)}")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == identity and table[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise ValueError(f"element {i} has no inverse")
    return identity, inverse


def _table_terms(n, entries):
    """Term lists with e_i e_j = c e_k for each listed (i, j, k, c), zero
    products elsewhere; at most one entry per (i, j)."""
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, k, c in entries:
        terms[i][j] = [(k, c)]
    return terms


def group_algebra(table, field: Field, name=None) -> HopfAlgebra:
    """Group algebra kG from a Cayley table: grouplike basis, S(g) = g^-1."""
    identity, inverse = _check_group_table(table)
    n = len(table)
    F = field
    terms = _table_terms(n, [(i, j, table[i][j], F.one)
                             for i in range(n) for j in range(n)])
    unit = [F.one if i == identity else F.zero for i in range(n)]
    alg = FiniteAlgebra.from_terms(F, n, terms, unit, name=name)
    comul = [[(j, j, F.one)] for j in range(n)]
    antipode = [[(inverse[j], F.one)] for j in range(n)]
    return HopfAlgebra(alg, comul, [F.one] * n, antipode, name=name)


def dual_hopf(h: HopfAlgebra, name=None) -> HopfAlgebra:
    """Finite-dimensional dual: mult <- comul^T, comul <- mult^T, S <- S^T,
    each a transpose of term lists."""
    n = h.dim
    mult = [[[] for _ in range(n)] for _ in range(n)]
    for j, col in enumerate(h.comul_sparse):
        for i, k, c in col:
            mult[i][k].append((j, c))
    comul = [[] for _ in range(n)]
    for i, plane in enumerate(h.alg.mult_sparse):
        for j, terms in enumerate(plane):
            for k, c in terms:
                comul[k].append((i, j, c))
    antipode = [[] for _ in range(n)]
    for j, col in enumerate(h.antipode_sparse):
        for i, c in col:
            antipode[i].append((j, c))
    alg = FiniteAlgebra.from_terms(h.field, n, mult, h.counit,
                                   name=name or (f"{h.name}^*" if h.name else None))
    return HopfAlgebra(alg, comul, h.alg.unit, antipode, name=alg.name)


def tensor_algebra_prod(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Componentwise product on the row-major tensor basis e_i (x) f_j.

    The pairs (k1, k2) of one product are distinct, so every term is one
    product of nonzero scalars and the terms come out sorted."""
    if a1.field != a2.field:
        raise ValueError("tensor product: field mismatch")
    F = a1.field
    n2 = a2.dim
    terms = [[[(k1 * n2 + k2, F.mul(c1, c2)) for k1, c1 in sp1 for k2, c2 in sp2]
              for sp1 in row1 for sp2 in row2]
             for row1 in a1.mult_sparse for row2 in a2.mult_sparse]
    unit = [F.mul(u1, u2) for u1 in a1.unit for u2 in a2.unit]
    return FiniteAlgebra.from_terms(F, a1.dim * n2, terms, unit, name=name)


def tensor_hopf(h1: HopfAlgebra, h2: HopfAlgebra, name=None) -> HopfAlgebra:
    """Tensor product Hopf algebra on the row-major tensor basis."""
    if h1.field != h2.field:
        raise ValueError("tensor product: field mismatch")
    F = h1.field
    n2 = h2.dim
    tname = name or (f"{h1.name}(x){h2.name}" if h1.name and h2.name else None)
    alg = tensor_algebra_prod(h1.alg, h2.alg, name=tname)
    comul = [sorted((a * n2 + b, c * n2 + d, F.mul(c1, c2))
                    for a, c, c1 in col1 for b, d, c2 in col2)
             for col1 in h1.comul_sparse for col2 in h2.comul_sparse]
    counit = [F.mul(e1, e2) for e1 in h1.counit for e2 in h2.counit]
    antipode = [[(i1 * n2 + i2, F.mul(c1, c2)) for i1, c1 in col1 for i2, c2 in col2]
                for col1 in h1.antipode_sparse for col2 in h2.antipode_sparse]
    return HopfAlgebra(alg, comul, counit, antipode, name=tname)


def is_group_basis(h: HopfAlgebra) -> bool:
    """Every basis element is grouplike: a group algebra in its group basis."""
    F = h.field
    return all(h.comul_sparse[j] == [(j, j, F.one)] and h.counit[j] == F.one
               for j in range(h.dim))


# -- bundled constructors used across the fixture corpus ----------------------

def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n):
    """Cayley table of S_n with elements enumerated in lexicographic order."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))
            row.append(index[pq])
        table.append(row)
    return table


def sweedler_hopf(field: Field, name="sweedler4") -> HopfAlgebra:
    """The 4-dimensional Hopf algebra on basis 1, g, x, gx.

    Relations g^2 = 1, x^2 = 0, xg = -gx; the coproduct sends g to g (x) g
    and x to x (x) 1 + g (x) x.  The canonical non-cocommutative control.
    """
    F = field
    one = F.one
    neg = F.neg(one)
    z = F.zero
    n = 4
    # basis order: 0 -> 1, 1 -> g, 2 -> x, 3 -> gx
    mult = _table_terms(n, [(0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
                            (0, 3, 3, one), (1, 0, 1, one), (1, 1, 0, one),
                            (1, 2, 3, one), (1, 3, 2, one), (2, 0, 2, one),
                            (2, 1, 3, neg), (3, 0, 3, one), (3, 1, 2, neg)])
    alg = FiniteAlgebra.from_terms(F, n, mult, [one, z, z, z], name=name)
    comul = [[(0, 0, one)], [(1, 1, one)], [(1, 2, one), (2, 0, one)],
             [(0, 3, one), (3, 1, one)]]
    # S(g) = g, S(x) = -gx, S(gx) = x
    antipode = [[(0, one)], [(1, one)], [(3, neg)], [(2, one)]]
    return HopfAlgebra(alg, comul, [one, one, z, z], antipode, name=name)


def matrix_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """Full matrix algebra by matrix units E_{ab}, basis index a*n + b."""
    F = field
    d = n * n
    terms = _table_terms(d, [(a * n + b, b * n + e, a * n + e, F.one)
                             for a in range(n) for b in range(n) for e in range(n)])
    unit = [F.one if i % (n + 1) == 0 else F.zero for i in range(d)]
    return FiniteAlgebra.from_terms(F, d, terms, unit, name=name or f"mat{n}")


def truncated_poly_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """k[t]/(t^n) on basis 1, t, ..., t^(n-1)."""
    F = field
    terms = _table_terms(n, [(i, j, i + j, F.one)
                             for i in range(n) for j in range(n - i)])
    unit = [F.one] + [F.zero] * (n - 1)
    return FiniteAlgebra.from_terms(F, n, terms, unit, name=name or f"trunc{n}")


def product_field_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """k x ... x k with idempotent basis."""
    F = field
    terms = _table_terms(n, [(i, i, i, F.one) for i in range(n)])
    return FiniteAlgebra.from_terms(F, n, terms, [F.one] * n,
                                    name=name or f"split{n}")


def upper_triangular_algebra(field: Field, name="upper2") -> FiniteAlgebra:
    """2x2 upper triangular matrices, basis E11, E12, E22."""
    F = field
    z, one = F.zero, F.one
    # E11*E11=E11, E11*E12=E12, E12*E22=E12, E22*E22=E22
    terms = _table_terms(3, [(0, 0, 0, one), (0, 1, 1, one), (1, 2, 1, one),
                             (2, 2, 2, one)])
    return FiniteAlgebra.from_terms(F, 3, terms, [one, z, one], name=name)


def dual_number_plane_algebra(field: Field, name="plane-jet") -> FiniteAlgebra:
    """k[x,y]/(x,y)^2 on basis 1, x, y."""
    F = field
    z, one = F.zero, F.one
    terms = _table_terms(3, [(0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
                             (1, 0, 1, one), (2, 0, 2, one)])
    return FiniteAlgebra.from_terms(F, 3, terms, [one, z, z], name=name)


def ideal_closure(alg: FiniteAlgebra, vectors) -> Subspace:
    """The two-sided ideal generated by the vectors: their span closed under
    multiplication by :attr:`FiniteAlgebra.generator_operators`."""
    return closure(Subspace.from_vectors(alg.field, alg.dim, vectors),
                   alg.generator_operators)


def subspace_is_ideal(alg: FiniteAlgebra, sub: Subspace) -> bool:
    """Closed under left and right multiplication by the generator elements
    (:attr:`FiniteAlgebra.generator_operators`), so by every element."""
    return is_stable(sub, alg.generator_operators)


def restricted_line_hopf(p, name=None) -> HopfAlgebra:
    """F_p[x]/(x^p) with primitive generator x.

    The coproduct x -> x (x) 1 + 1 (x) x is multiplicative only because the
    binomial coefficients of x^p vanish mod p, so this fixture exists in
    characteristic p alone.  Its primitive subspace is exactly the line kx.
    """
    F = GF(p)
    alg = truncated_poly_algebra(F, p, name=name or f"line{p}")
    # C(k, i) for k < p and S(x^k) = (-x)^k: all nonzero mod p
    comul = [[(i, k - i, F.from_int(comb(k, i))) for i in range(k + 1)]
             for k in range(p)]
    antipode = [[(k, F.from_int((-1) ** k))] for k in range(p)]
    counit = [F.one] + [F.zero] * (p - 1)
    return HopfAlgebra(alg, comul, counit, antipode, name=alg.name)
