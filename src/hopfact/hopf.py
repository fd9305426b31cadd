"""Finite-dimensional algebras and Hopf algebras by structure constants.

An algebra is a field, a dimension and a rank-3 multiplication tensor
``mult[i][j][k]`` (e_i e_j = sum_k mult[i][j][k] e_k) together with the
coordinate vector of the unit.  A Hopf algebra adds the comultiplication as
an n^2 x n matrix (column j = coordinates of the coproduct of e_j on the
tensor basis e_i (x) e_k, row-major index i*n + k), the counit as a row
vector, and the antipode as an n x n matrix.

The tensor basis order (i, j) -> i*dim2 + j is used everywhere.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb

from .linalg import (GF, Field, Matrix, Subspace, kernel, closure, is_stable,
                     _enumerable_prime)
from .report import Report


class FiniteAlgebra:
    """Associative unital algebra by structure constants over a Field."""

    def __init__(self, field: Field, dim: int, mult, unit, name=None):
        self.field = field
        self.dim = dim
        self.mult = [[[field.parse(c) for c in row] for row in plane] for plane in mult]
        self.unit = [field.parse(c) for c in unit]
        self.name = name
        if len(self.mult) != dim or len(self.unit) != dim:
            raise ValueError("structure constant shape mismatch")
        for plane in self.mult:
            if len(plane) != dim or any(len(r) != dim for r in plane):
                raise ValueError("structure constant shape mismatch")

    @cached_property
    def mult_sparse(self):
        """mult_sparse[i][j] = [(k, c)] with c nonzero."""
        F = self.field
        return [[[(k, c) for k, c in enumerate(self.mult[i][j]) if not F.is_zero(c)]
                 for j in range(self.dim)] for i in range(self.dim)]

    @cached_property
    def right_partners(self):
        """right_partners[i] = columns j with e_i e_j != 0."""
        return [[j for j in range(self.dim) if self.mult_sparse[i][j]]
                for i in range(self.dim)]

    def multiply(self, x, y):
        F = self.field
        out = [F.zero] * self.dim
        for i, a in enumerate(x):
            if F.is_zero(a):
                continue
            for j, b in enumerate(y):
                if F.is_zero(b):
                    continue
                ab = F.mul(a, b)
                for k, c in self.mult_sparse[i][j]:
                    out[k] = F.add(out[k], F.mul(ab, c))
        return out

    def basis_product(self, i, j):
        return list(self.mult[i][j])

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x y on coordinates."""
        F = self.field
        m = Matrix.zeros(F, self.dim, self.dim)
        for i, a in enumerate(x):
            if F.is_zero(a):
                continue
            for j in range(self.dim):
                for k, c in self.mult_sparse[i][j]:
                    m.data[k][j] = F.add(m.data[k][j], F.mul(a, c))
        return m

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> y x on coordinates."""
        F = self.field
        m = Matrix.zeros(F, self.dim, self.dim)
        for j, a in enumerate(x):
            if F.is_zero(a):
                continue
            for i in range(self.dim):
                for k, c in self.mult_sparse[i][j]:
                    m.data[k][i] = F.add(m.data[k][i], F.mul(a, c))
        return m

    @cached_property
    def ideal_operators(self):
        """Left and right multiplication by every basis element: the two-sided
        ideals are exactly the subspaces these operators stabilize."""
        ops = []
        for i in range(self.dim):
            e = self.basis_vector(i)
            ops.append(self.left_mult_matrix(e))
            ops.append(self.right_mult_matrix(e))
        return ops

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(self.dim))

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
    """FiniteAlgebra plus comultiplication, counit and antipode matrices."""

    def __init__(self, alg: FiniteAlgebra, comul: Matrix, counit, antipode: Matrix,
                 name=None):
        n = alg.dim
        if comul.nrows != n * n or comul.ncols != n:
            raise ValueError("comul must be n^2 x n")
        if len(counit) != n:
            raise ValueError("counit must have length n")
        if antipode.nrows != n or antipode.ncols != n:
            raise ValueError("antipode must be n x n")
        self.alg = alg
        self.comul = comul
        self.counit = [alg.field.parse(c) for c in counit]
        self.antipode = antipode
        self.name = name or alg.name

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    @cached_property
    def comul_sparse(self):
        """comul_sparse[j] = [(i, k, c)]: coproduct terms of basis j."""
        F = self.field
        n = self.dim
        cols = []
        for j in range(n):
            terms = []
            for row in range(n * n):
                c = self.comul.data[row][j]
                if not F.is_zero(c):
                    terms.append((row // n, row % n, c))
            cols.append(terms)
        return cols

    def delta(self, x):
        """Coproduct coordinates of x on the n^2 tensor basis."""
        return self.comul.vec_mul(x)

    def eps(self, x):
        F = self.field
        out = F.zero
        for j, a in enumerate(x):
            if not F.is_zero(a):
                out = F.add(out, F.mul(a, self.counit[j]))
        return out

    def s_apply(self, x):
        return self.antipode.vec_mul(x)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

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


# -- verification -------------------------------------------------------------

def verify_algebra(a: FiniteAlgebra) -> Report:
    """Associativity on all basis triples plus two-sided unit."""
    rep = Report("algebra-axioms", details={"name": a.name, "dim": a.dim})
    F = a.field
    n = a.dim
    sparse = a.mult_sparse
    for i in range(n):
        sp_i = sparse[i]
        for j in range(n):
            ij = sp_i[j]
            sp_j = sparse[j]
            for k in range(n):
                lhs = {}
                for m, c in ij:
                    for q, d in sparse[m][k]:
                        lhs[q] = F.add(lhs.get(q, F.zero), F.mul(c, d))
                rhs = {}
                for m, c in sp_j[k]:
                    for q, d in sp_i[m]:
                        rhs[q] = F.add(rhs.get(q, F.zero), F.mul(c, d))
                if _dict_ne(F, lhs, rhs):
                    rep.fail({"axiom": "associativity", "triple": [i, j, k]})
    for j in range(n):
        ej = [F.one if t == j else F.zero for t in range(n)]
        if a.multiply(a.unit, ej) != ej:
            rep.fail({"axiom": "left-unit", "basis": j})
        if a.multiply(ej, a.unit) != ej:
            rep.fail({"axiom": "right-unit", "basis": j})
    return rep


def verify_hopf(h: HopfAlgebra) -> Report:
    """Coassociativity, counit law, bialgebra compatibility, antipode axiom."""
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

    # coassociativity on each basis element
    for j in range(n):
        lhs, rhs = {}, {}
        for (i, k, c) in cols[j]:
            for (a, b, d) in cols[i]:
                key = (a, b, k)
                lhs[key] = F.add(lhs.get(key, F.zero), F.mul(c, d))
            for (a, b, d) in cols[k]:
                key = (i, a, b)
                rhs[key] = F.add(rhs.get(key, F.zero), F.mul(c, d))
        if _dict_ne(F, lhs, rhs):
            rep.fail({"axiom": "coassociativity", "basis": j})

    # counit law on each basis element
    for j in range(n):
        left = [F.zero] * n
        right = [F.zero] * n
        for (i, k, c) in cols[j]:
            left[k] = F.add(left[k], F.mul(c, h.counit[i]))
            right[i] = F.add(right[i], F.mul(c, h.counit[k]))
        ej = [F.one if t == j else F.zero for t in range(n)]
        if left != ej or right != ej:
            rep.fail({"axiom": "counit", "basis": j})

    # counit is an algebra map
    if h.eps(alg.unit) != F.one:
        rep.fail({"axiom": "counit-unital"})
    for i in range(n):
        for j in range(n):
            prod_eps = F.zero
            for k, c in alg.mult_sparse[i][j]:
                prod_eps = F.add(prod_eps, F.mul(c, h.counit[k]))
            if prod_eps != F.mul(h.counit[i], h.counit[j]):
                rep.fail({"axiom": "counit-multiplicative", "pair": [i, j]})

    # comultiplication is an algebra map
    unit_delta = {}
    du = h.delta(alg.unit)
    for row, c in enumerate(du):
        if not F.is_zero(c):
            unit_delta[(row // n, row % n)] = c
    expected = {}
    for i, a in enumerate(alg.unit):
        if F.is_zero(a):
            continue
        for k, b in enumerate(alg.unit):
            if not F.is_zero(b):
                expected[(i, k)] = F.mul(a, b)
    if _dict_ne(F, unit_delta, expected):
        rep.fail({"axiom": "comul-unital"})
    partners = alg.right_partners
    by_first = []
    for j in range(n):
        buckets = {}
        for (d, e, c2) in cols[j]:
            buckets.setdefault(d, []).append((e, c2))
        by_first.append(buckets)
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in alg.mult_sparse[i][j]:
                for (a, b, d) in cols[k]:
                    key = (a, b)
                    lhs[key] = F.add(lhs.get(key, F.zero), F.mul(c, d))
            rhs = {}
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
                        c12 = F.mul(c1, c2)
                        for (x, cx) in sp_ad:
                            for (y, cy) in sp_be:
                                key = (x, y)
                                rhs[key] = F.add(rhs.get(key, F.zero),
                                                 F.mul(c12, F.mul(cx, cy)))
            if _dict_ne(F, lhs, rhs):
                rep.fail({"axiom": "comul-multiplicative", "pair": [i, j]})

    # antipode axiom: m (S (x) id) delta = unit . counit = m (id (x) S) delta
    scols = [[(m, h.antipode.data[m][i]) for m in range(n)
              if not F.is_zero(h.antipode.data[m][i])] for i in range(n)]
    for j in range(n):
        left = [F.zero] * n
        right = [F.zero] * n
        for (i, k, c) in cols[j]:
            for m, a in scols[i]:
                for q, d in alg.mult_sparse[m][k]:
                    left[q] = F.add(left[q], F.mul(F.mul(c, a), d))
            for m, a in scols[k]:
                for q, d in alg.mult_sparse[i][m]:
                    right[q] = F.add(right[q], F.mul(F.mul(c, a), d))
        target = [F.mul(h.counit[j], u) for u in alg.unit]
        if left != target:
            rep.fail({"axiom": "antipode-left", "basis": j})
        if right != target:
            rep.fail({"axiom": "antipode-right", "basis": j})
    return rep


def _dict_ne(F, d1, d2):
    keys = set(d1) | set(d2)
    for key in keys:
        if not F.is_zero(F.sub(d1.get(key, F.zero), d2.get(key, F.zero))):
            return True
    return False


def is_cocommutative(h: HopfAlgebra) -> bool:
    """True iff the swap-composed comultiplication equals the original."""
    n = h.dim
    for j in range(n):
        for row in range(n * n):
            i, k = row // n, row % n
            if h.comul.data[row][j] != h.comul.data[k * n + i][j]:
                return False
    return True


def antipode_involutory(h: HopfAlgebra) -> bool:
    return h.antipode.mat_mul(h.antipode) == Matrix.identity(h.field, h.dim)


def antipode_antihom_report(h: HopfAlgebra) -> Report:
    """S(xy) = S(y)S(x) on all basis pairs."""
    rep = Report("antipode-antihomomorphism", details={"name": h.name})
    F, n, alg = h.field, h.dim, h.alg
    scol = [h.s_apply([F.one if t == i else F.zero for t in range(n)]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = h.s_apply(alg.basis_product(i, j))
            rhs = alg.multiply(scol[j], scol[i])
            if lhs != rhs:
                rep.fail({"pair": [i, j]})
    return rep


# -- constructors --------------------------------------------------------------

def _check_group_table(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise ValueError("group table is not square over 0..n-1")
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


def group_algebra(table, field: Field, name=None) -> HopfAlgebra:
    """Group algebra kG from a Cayley table: grouplike basis, S(g) = g^-1."""
    identity, inverse = _check_group_table(table)
    n = len(table)
    F = field
    mult = [[[F.one if table[i][j] == k else F.zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [F.one if i == identity else F.zero for i in range(n)]
    alg = FiniteAlgebra(F, n, mult, unit, name=name)
    comul = Matrix.zeros(F, n * n, n)
    for j in range(n):
        comul.data[j * n + j][j] = F.one
    counit = [F.one] * n
    antipode = Matrix.zeros(F, n, n)
    for j in range(n):
        antipode.data[inverse[j]][j] = F.one
    return HopfAlgebra(alg, comul, counit, antipode, name=name)


def dual_hopf(h: HopfAlgebra, name=None) -> HopfAlgebra:
    """Finite-dimensional dual: mult <- comul^T, comul <- mult^T, S <- S^T."""
    F = h.field
    n = h.dim
    mult = [[[h.comul.data[i * n + j][k] for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = list(h.counit)
    alg = FiniteAlgebra(F, n, mult, unit,
                        name=name or (f"{h.name}^*" if h.name else None))
    comul = Matrix.zeros(F, n * n, n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                comul.data[i * n + j][k] = h.alg.mult[i][j][k]
    counit = list(h.alg.unit)
    antipode = h.antipode.transpose()
    return HopfAlgebra(alg, comul, counit, antipode, name=alg.name)


def tensor_algebra_prod(a1: FiniteAlgebra, a2: FiniteAlgebra, name=None) -> FiniteAlgebra:
    """Componentwise product on the row-major tensor basis e_i (x) f_j."""
    if a1.field != a2.field:
        raise ValueError("tensor product: field mismatch")
    F = a1.field
    n1, n2 = a1.dim, a2.dim
    n = n1 * n2
    mult = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    for i1 in range(n1):
        for j1 in range(n1):
            sp1 = a1.mult_sparse[i1][j1]
            if not sp1:
                continue
            for i2 in range(n2):
                for j2 in range(n2):
                    sp2 = a2.mult_sparse[i2][j2]
                    if not sp2:
                        continue
                    row = mult[i1 * n2 + i2][j1 * n2 + j2]
                    for k1, c1 in sp1:
                        for k2, c2 in sp2:
                            row[k1 * n2 + k2] = F.add(row[k1 * n2 + k2], F.mul(c1, c2))
    unit = [F.zero] * n
    for i1, u1 in enumerate(a1.unit):
        if F.is_zero(u1):
            continue
        for i2, u2 in enumerate(a2.unit):
            if not F.is_zero(u2):
                unit[i1 * n2 + i2] = F.mul(u1, u2)
    return FiniteAlgebra(F, n, mult, unit, name=name)


def tensor_hopf(h1: HopfAlgebra, h2: HopfAlgebra, name=None) -> HopfAlgebra:
    """Tensor product Hopf algebra on the row-major tensor basis."""
    if h1.field != h2.field:
        raise ValueError("tensor product: field mismatch")
    F = h1.field
    n1, n2 = h1.dim, h2.dim
    n = n1 * n2
    tname = name or (f"{h1.name}(x){h2.name}" if h1.name and h2.name else None)
    alg = tensor_algebra_prod(h1.alg, h2.alg, name=tname)
    comul = Matrix.zeros(F, n * n, n)
    for j1 in range(n1):
        for j2 in range(n2):
            col = j1 * n2 + j2
            for (a, c, c1) in h1.comul_sparse[j1]:
                for (b, d, c2) in h2.comul_sparse[j2]:
                    row = (a * n2 + b) * n + (c * n2 + d)
                    comul.data[row][col] = F.add(comul.data[row][col], F.mul(c1, c2))
    counit = [F.mul(h1.counit[j1], h2.counit[j2])
              for j1 in range(n1) for j2 in range(n2)]
    antipode = Matrix.zeros(F, n, n)
    for j1 in range(n1):
        for j2 in range(n2):
            col = j1 * n2 + j2
            for i1 in range(n1):
                c1 = h1.antipode.data[i1][j1]
                if F.is_zero(c1):
                    continue
                for i2 in range(n2):
                    c2 = h2.antipode.data[i2][j2]
                    if not F.is_zero(c2):
                        antipode.data[i1 * n2 + i2][col] = F.mul(c1, c2)
    return HopfAlgebra(alg, comul, counit, antipode, name=tname)


def is_group_basis(h: HopfAlgebra) -> bool:
    """Every basis element is grouplike: a group algebra in its group basis."""
    F = h.field
    return all(h.comul_sparse[j] == [(j, j, F.one)] and h.counit[j] == F.one
               for j in range(h.dim))


def is_grouplike(h: HopfAlgebra, x) -> bool:
    """delta x = x (x) x and eps(x) = 1."""
    F = h.field
    n = h.dim
    if h.eps(x) != F.one:
        return False
    dx = h.delta(x)
    for i in range(n):
        for k in range(n):
            if dx[i * n + k] != F.mul(x[i], x[k]):
                return False
    return True


def enumerate_grouplikes(h: HopfAlgebra, bound=None):
    """All grouplikes by exhaustion over F_p**n (prime fields, small dims)."""
    F = h.field
    p = _enumerable_prime(F, h.dim, bound)
    out = []
    for coords in itertools.product(range(p), repeat=h.dim):
        x = [F.from_int(c) for c in coords]
        if is_grouplike(h, x):
            out.append(x)
    return out


def primitives(h: HopfAlgebra) -> Subspace:
    """Solution space of delta x = x (x) 1 + 1 (x) x."""
    F = h.field
    n = h.dim
    rows = []
    for i in range(n):
        for k in range(n):
            row = []
            for j in range(n):
                c = h.comul.data[i * n + k][j]
                if i == j:
                    c = F.sub(c, h.alg.unit[k])
                if k == j:
                    c = F.sub(c, h.alg.unit[i])
                row.append(c)
            rows.append(row)
    return kernel(Matrix.from_rows(F, rows, n))


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
    mult = [[[z] * n for _ in range(n)] for _ in range(n)]

    def put(i, j, k, c):
        mult[i][j][k] = c

    # basis order: 0 -> 1, 1 -> g, 2 -> x, 3 -> gx
    put(0, 0, 0, one); put(0, 1, 1, one); put(0, 2, 2, one); put(0, 3, 3, one)
    put(1, 0, 1, one); put(1, 1, 0, one); put(1, 2, 3, one); put(1, 3, 2, one)
    put(2, 0, 2, one); put(2, 1, 3, neg)
    put(3, 0, 3, one); put(3, 1, 2, neg)
    unit = [one, z, z, z]
    alg = FiniteAlgebra(F, n, mult, unit, name=name)
    comul = Matrix.zeros(F, n * n, n)

    def dput(i, k, j, c):
        comul.data[i * n + k][j] = c

    dput(0, 0, 0, one)
    dput(1, 1, 1, one)
    dput(2, 0, 2, one); dput(1, 2, 2, one)
    dput(3, 1, 3, one); dput(0, 3, 3, one)
    counit = [one, one, z, z]
    antipode = Matrix.zeros(F, n, n)
    antipode.data[0][0] = one
    antipode.data[1][1] = one
    antipode.data[3][2] = neg   # S(x) = -gx
    antipode.data[2][3] = one   # S(gx) = x
    return HopfAlgebra(alg, comul, counit, antipode, name=name)


def trivial_hopf(field: Field, name="base-field") -> HopfAlgebra:
    """H = k: the one-dimensional Hopf algebra."""
    F = field
    alg = FiniteAlgebra(F, 1, [[[F.one]]], [F.one], name=name)
    comul = Matrix.from_rows(F, [[F.one]], 1)
    return HopfAlgebra(alg, comul, [F.one], Matrix.identity(F, 1), name=name)


def matrix_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """Full matrix algebra by matrix units E_{ab}, basis index a*n + b."""
    F = field
    d = n * n
    mult = [[[F.zero] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        mult[a * n + b][c * n + e][a * n + e] = F.one
    unit = [F.zero] * d
    for a in range(n):
        unit[a * n + a] = F.one
    return FiniteAlgebra(F, d, mult, unit, name=name or f"mat{n}")


def truncated_poly_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """k[t]/(t^n) on basis 1, t, ..., t^(n-1)."""
    F = field
    mult = [[[F.one if i + j == k else F.zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [F.one] + [F.zero] * (n - 1)
    return FiniteAlgebra(F, n, mult, unit, name=name or f"trunc{n}")


def product_field_algebra(field: Field, n, name=None) -> FiniteAlgebra:
    """k x ... x k with idempotent basis."""
    F = field
    mult = [[[F.one if i == j == k else F.zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [F.one] * n
    return FiniteAlgebra(F, n, mult, unit, name=name or f"split{n}")


def upper_triangular_algebra(field: Field, name="upper2") -> FiniteAlgebra:
    """2x2 upper triangular matrices, basis E11, E12, E22."""
    F = field
    z, one = F.zero, F.one
    n = 3
    mult = [[[z] * n for _ in range(n)] for _ in range(n)]
    # E11*E11=E11, E11*E12=E12, E12*E22=E12, E22*E22=E22
    mult[0][0][0] = one
    mult[0][1][1] = one
    mult[1][2][1] = one
    mult[2][2][2] = one
    unit = [one, z, one]
    return FiniteAlgebra(F, n, mult, unit, name=name)


def dual_number_plane_algebra(field: Field, name="plane-jet") -> FiniteAlgebra:
    """k[x,y]/(x,y)^2 on basis 1, x, y."""
    F = field
    z, one = F.zero, F.one
    n = 3
    mult = [[[z] * n for _ in range(n)] for _ in range(n)]
    mult[0][0][0] = one
    mult[0][1][1] = one
    mult[0][2][2] = one
    mult[1][0][1] = one
    mult[2][0][2] = one
    unit = [one, z, z]
    return FiniteAlgebra(F, n, mult, unit, name=name)


def ideal_closure(alg: FiniteAlgebra, vectors) -> Subspace:
    """The two-sided ideal generated by the vectors."""
    return closure(Subspace.from_vectors(alg.field, alg.dim, vectors),
                   alg.ideal_operators)


def subspace_is_ideal(alg: FiniteAlgebra, sub: Subspace) -> bool:
    """Closed under left and right multiplication by every basis element."""
    return is_stable(sub, alg.ideal_operators)


def restricted_line_hopf(p, name=None) -> HopfAlgebra:
    """F_p[x]/(x^p) with primitive generator x.

    The coproduct x -> x (x) 1 + 1 (x) x is multiplicative only because the
    binomial coefficients of x^p vanish mod p, so this fixture exists in
    characteristic p alone.  Its primitive subspace is exactly the line kx.
    """
    F = GF(p)
    n = p
    alg = truncated_poly_algebra(F, n, name=name or f"line{p}")
    comul = Matrix.zeros(F, n * n, n)
    for k in range(n):
        for i in range(k + 1):
            comul.data[i * n + (k - i)][k] = F.from_int(comb(k, i))
    counit = [F.one] + [F.zero] * (n - 1)
    antipode = Matrix.zeros(F, n, n)
    for k in range(n):
        antipode.data[k][k] = F.from_int((-1) ** k)
    return HopfAlgebra(alg, comul, counit, antipode, name=alg.name)


def poly_quotient_algebra(field: Field, minpoly, name=None) -> FiniteAlgebra:
    """k[t]/(m) for a monic polynomial m given by its coefficient list."""
    F = field
    coeffs = [F.parse(c) for c in minpoly]
    if coeffs[-1] != F.one:
        raise ValueError("minimal polynomial must be monic")
    n = len(coeffs) - 1
    # reduction of t^n
    red = [F.neg(c) for c in coeffs[:n]]
    powers = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    # powers[i] = coords of t^i; extend through t^(2n-2)
    for i in range(n, 2 * n - 1):
        prev = powers[i - 1]
        shifted = [F.zero] + prev[:-1]
        top = prev[-1]
        powers.append([F.add(shifted[j], F.mul(top, red[j])) for j in range(n)])
    mult = [[list(powers[i + j]) for j in range(n)] for i in range(n)]
    unit = [F.one] + [F.zero] * (n - 1)
    return FiniteAlgebra(F, n, mult, unit, name=name)
