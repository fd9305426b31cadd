"""Ideals, cores, radicals, spectra, hearts and strata.

Primes of a finite-dimensional algebra are computed as preimages of the
"kill one simple block" maximal ideals after the radical quotient; blocks
come from splitting the center of the semisimple quotient into primitive
idempotents.  A splitting element x whose minimal polynomial is t^2 - t is
itself an idempotent and splits u into x and u - x with no polynomial
arithmetic; this covers every center of k^X.  Any other minimal polynomial
m is factored exactly: its roots in the base field are peeled off by
division (rational root theorem over Q, every residue over F_p), a
root-free remainder of degree 2 or 3 is irreducible, and only a root-free
remainder of degree >= 4 goes to sympy, imported then.  For each factor f
the extended gcd gives s with s (m / f) = 1 mod f, so that the block
idempotent is ((s m / f) rem m)(x).  Center factors irreducible over the
base field are kept as entries flagged inert (their heart is a proper field
extension that is never constructed).

The radical is computed by one of two exact routes and refuses anything
else: the trace-form kernel (characteristic zero, or p > dim), or the
kernel of the Frobenius map x -> x^p iterated until p^m > dim (commutative
over F_p).  A wrong radical in small characteristic would silently corrupt
the characteristic-2 counterexamples, so there is no fallback heuristic.

The H-primes reached by the core map are the bases of the strata: the
distinct cores of the primes, each with its fiber of the spectrum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .linalg import (Field, Matrix, Subspace, kernel, kron_sum, solve,
                     subspace_intersect, stable_subspaces, projection_matrix,
                     closure, largest_stable_inside, nonzero_terms, pull_back,
                     rational, sparse_apply, support, EnumerationBound)
from .hopf import (FiniteAlgebra, ideal_closure, subspace_is_ideal,
                   is_cocommutative, is_group_basis, tensor_algebra_prod)
from .action import (ModuleAlgebraAction, action_from_operators, hit_action,
                     verify_action)
from .report import Report, PASS, FAIL, ERROR, COUNTEREXAMPLE

# convolution is imported inside the three functions that use it, so that a
# fixture load that builds ideals does not compile it.

SPLITTER_BUDGET = 20_000    # splitting candidates _try_split tries per corner
SPLITTER_GRID_MAX = 65_536  # largest p**d whose whole coordinate grid is tried


class UnsupportedComputation(Exception):
    """An exact route for the requested computation is not available."""


class Ideal:
    """A two-sided ideal of a FiniteAlgebra in canonical subspace form."""

    def __init__(self, alg: FiniteAlgebra, space: Subspace, check=True,
                 name=None):
        if space.ambient_dim != alg.dim:
            raise ValueError("ideal subspace must live in the algebra")
        if check and not subspace_is_ideal(alg, space):
            raise ValueError("subspace is not a two-sided ideal")
        self.alg = alg
        self.space = space
        self.name = name

    @classmethod
    def generate(cls, alg, gens, name=None):
        vecs = [[alg.field.parse(c) for c in g] for g in gens]
        return cls(alg, ideal_closure(alg, vecs), check=False, name=name)

    @classmethod
    def zero(cls, alg, name=None):
        return cls(alg, Subspace.zero(alg.field, alg.dim), check=False, name=name)

    @classmethod
    def full(cls, alg, name=None):
        return cls(alg, Subspace.full(alg.field, alg.dim), check=False, name=name)

    @property
    def dim(self):
        return self.space.dim

    def contains(self, v):
        return self.space.contains(v)

    def le(self, other):
        return self.space.le(other.space)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.alg is other.alg
                and self.space == other.space)

    def __hash__(self):
        return hash(self.space)

    def to_json(self):
        F = self.alg.field
        return {"algebra": self.alg.name,
                "basis": [[F.render(c) for c in row] for row in self.space.rows],
                **({"name": self.name} if self.name else {})}

    def __repr__(self):
        return f"Ideal({self.name or '?'}, dim={self.dim} of {self.alg.name})"


# -- quotients and subalgebras -------------------------------------------------

def quotient_algebra(alg: FiniteAlgebra, sub: Subspace, name=None):
    """(A / I, projection, lift) with basis the non-pivot coordinates.

    The product of two representatives e_a e_b is the projection of the
    terms ``mult_sparse[a][b]``, taken over the nonzero entries of the
    projection's columns."""
    F = alg.field
    n = alg.dim
    proj = projection_matrix(sub)
    nonpiv = sub.nonpivot_columns()
    d = len(nonpiv)
    lift = Matrix(F, n, d, [[F.one if j == k else F.zero for k in nonpiv]
                            for j in range(n)])
    planes = [alg.mult_sparse[a] for a in nonpiv]
    mult = [[sorted(sparse_apply(proj, dict(plane[b])).items()) for b in nonpiv]
            for plane in planes]
    unit = proj.vec_mul(alg.unit)
    q = FiniteAlgebra.from_terms(
        F, d, mult, unit,
        name=name or (f"{alg.name}/(dim{sub.dim})" if alg.name else None))
    return q, proj, lift


def subalgebra_structure(alg: FiniteAlgebra, sub: Subspace, name=None):
    """(S, embed) for a unital subalgebra given as a subspace (must contain
    the unit and be multiplicatively closed).

    Products of basis vectors are taken on their nonzero coordinates; the
    coordinates of a product are its entries at the pivot columns."""
    F = alg.field
    basis = sub.basis_vectors()
    d = len(basis)
    sparse = [dict(nonzero_terms(F, v)) for v in basis]
    mult = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            prod = alg.sparse_multiply(sparse[a], sparse[b])
            coords = [(r, prod[pc]) for r, pc in enumerate(sub.pivots) if pc in prod]
            rest = dict(prod)
            for r, c in coords:
                for j, y in sparse[r].items():
                    rest[j] = rest.get(j, 0) - c * y
            if support(F, rest):
                raise ValueError("subspace is not multiplicatively closed")
            mult[a][b] = coords
    unit = sub.coords_in_basis(alg.unit)
    if unit is None:
        raise ValueError("subspace does not contain the unit")
    embed = Matrix(F, alg.dim, d, [[basis[c][r] for c in range(d)]
                                   for r in range(alg.dim)])
    return FiniteAlgebra.from_terms(F, d, mult, unit, name=name), embed


def center_subspace(alg: FiniteAlgebra) -> Subspace:
    """Solutions of x g = g x for the generators g of
    :attr:`~hopfact.hopf.FiniteAlgebra.generators` (the x commuting
    with an element form a subalgebra): n rows per generator, read off
    ``mult_sparse``, zero rows dropped.  Kept on the algebra."""
    return _kept(alg, "_center", _center_subspace)


def _center_subspace(alg: FiniteAlgebra) -> Subspace:
    F, n, sparse = alg.field, alg.dim, alg.mult_sparse
    rows = []
    for g in alg.generators:
        # row k: the coefficient of e_k in g e_j - e_j g, over j
        block = [{} for _ in range(n)]
        for j in range(n):
            for k, c in sparse[g][j]:
                block[k][j] = block[k].get(j, 0) + c
            for k, c in sparse[j][g]:
                block[k][j] = block[k].get(j, 0) - c
        for terms in block:
            terms = support(F, terms)
            if terms:
                row = [F.zero] * n
                for j, c in terms.items():
                    row[j] = c
                rows.append(row)
    return kernel(Matrix.from_rows(F, rows, n))


def _kept(obj, key, compute):
    """compute(obj), computed once and kept on ``obj``: algebras and actions
    are immutable after construction, as their cached properties assume.  A
    refusal raises and keeps nothing, so the next call refuses again."""
    kept = obj.__dict__.get(key)
    if kept is None:
        kept = obj.__dict__[key] = compute(obj)
    return kept


# -- polynomials: roots peeled exactly, sympy for the rest -------------------------

ROOT_SEARCH_MAX = 10_000    # largest p, or cleared |a_0|, |a_n| over Q, searched


def _to_poly(F, coeffs):
    """sympy polynomial in t over F from ascending coefficients.  sympy is
    imported here, on first use: the import costs more than most commands."""
    import sympy
    t = sympy.Symbol("t")
    if F.p is None:
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)], t, domain="QQ")
    return sympy.Poly([int(c) for c in reversed(coeffs)], t, modulus=F.p)


def _from_poly(F, poly):
    """Ascending canonical coefficients over F of a sympy polynomial."""
    cs = reversed(poly.all_coeffs())
    if F.p is None:
        return [rational(Fraction(int(c.p), int(c.q))) for c in cs]
    return [int(c) % F.p for c in cs]


def _poly(F, coeffs):
    """Ascending canonical coefficients, leading zeros dropped: [] is 0."""
    out = [F.parse(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_mul(F, a, b):
    out = [F.zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly(F, F.reduce(out))


def _poly_divmod(F, a, b):
    """(q, r) with a = q b + r and deg r < deg b, for b != 0."""
    r, n, inv = list(a), len(b) - 1, F.inv(b[-1])
    q = [F.zero] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        q[k] = c = F.mul(r[k + n], inv)
        for j, y in enumerate(b):
            r[k + j] = F.sub(r[k + j], F.mul(c, y))
    return _poly(F, q), _poly(F, r[:n])


def _poly_gcdex(F, a, b):
    """(s, g): g = gcd(a, b) monic and s a = g mod b, deg s least (as sympy)."""
    r0, r1, s0, s1 = a, b, [F.one], []
    while r1:
        q, rem = _poly_divmod(F, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly(F, [F.sub(x, y) for x, y in itertools.zip_longest(
            s0, _poly_mul(F, q, s1), fillvalue=F.zero)])
    inv = F.inv(r0[-1])
    return [F.mul(c, inv) for c in s0], [F.mul(c, inv) for c in r0]


def _root_candidates(F, m):
    """A list holding every root of m in the base field, or None when the
    search would pass ROOT_SEARCH_MAX: every residue over F_p, and over Q
    0 and the +-r/s with r | a_0, s | a_n (rational root theorem, a_0 the
    lowest nonzero coefficient of the integer-cleared m)."""
    if F.p is not None:
        return range(F.p) if F.p <= ROOT_SEARCH_MAX else None
    scale = math.lcm(*(Fraction(c).denominator for c in m))
    low, high = (abs(int(c * scale)) for c in (next(c for c in m if c), m[-1]))
    if max(low, high) > ROOT_SEARCH_MAX:
        return None
    tops, bottoms = ([d for d in range(1, n + 1) if n % d == 0] for n in (low, high))
    return list(dict.fromkeys([0] + [rational(Fraction(sign * r, s)) for r in tops
                                     for s in bottoms for sign in (1, -1)]))


def factor_irreducible(field: Field, coeffs):
    """Monic irreducible factors with multiplicities, exactly.

    Every root in the base field is peeled off by division by t - r, as
    often as it divides.  A root-free remainder of degree 2 or 3 has no
    factor of degree 1, so it is irreducible.  Only a root-free remainder
    of degree >= 4, or an m whose root search would pass ROOT_SEARCH_MAX,
    goes to sympy's ``factor_list``."""
    F = field
    m = _poly(F, coeffs)
    if len(m) < 2:
        raise ValueError("factoring a constant polynomial")
    m = _poly_divmod(F, m, m[-1:])[0]       # monic
    out = []
    candidates = _root_candidates(F, m)
    for r in candidates or ():
        k, linear = 0, [F.neg(r), F.one]
        while len(m) > 1 and not (qr := _poly_divmod(F, m, linear))[1]:
            m, k = qr[0], k + 1
        if k:
            out.append((linear, k))
    if 1 < len(m) <= 4 and candidates is not None:
        out.append((m, 1))
    elif len(m) > 1:
        out += [(_from_poly(F, fac.monic()), int(mult))
                for fac, mult in _to_poly(F, m).factor_list()[1]]
    out.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
    return out


def minimal_polynomial(alg: FiniteAlgebra, x, unit=None):
    """Monic minimal polynomial of x, powers taken relative to ``unit``.

    ``unit`` defaults to the algebra unit; passing an idempotent u computes
    the minimal polynomial inside the corner algebra u A u.
    """
    F = alg.field
    n = alg.dim
    u = list(alg.unit) if unit is None else list(unit)
    powers = [u]
    while True:
        cur = powers[-1]
        mat = Matrix(F, n, len(powers), [[powers[c][r] for c in range(len(powers))]
                                         for r in range(n)])
        nxt = alg.multiply(cur, x)
        coeffs = solve(mat, nxt)
        if coeffs is not None:
            # x^k = sum coeffs_i x^i  ->  minpoly = t^k - sum coeffs_i t^i
            return [F.neg(c) for c in coeffs] + [F.one]
        powers.append(nxt)
        if len(powers) > n + 1:
            raise RuntimeError("minimal polynomial search exceeded dimension")


def poly_eval_in_algebra(alg: FiniteAlgebra, coeffs, x, unit=None):
    """Evaluate a polynomial at x with x^0 = unit."""
    u = list(alg.unit) if unit is None else list(unit)
    out = [0] * alg.dim
    power = u
    for i, c in enumerate(coeffs):
        if c:
            out = [o + c * y for o, y in zip(out, power)]
        if i + 1 < len(coeffs):
            power = alg.multiply(power, x)
    return alg.field.reduce(out)


# -- radical -------------------------------------------------------------------

def _trace_form_kernel(alg: FiniteAlgebra) -> Subspace:
    """Kernel of the Gram matrix tr(L_i L_j) of left multiplications.

    L_i L_j = L_(e_i e_j) in an associative algebra, so tr(L_i L_j) =
    sum_m c_ij^m t_m with t_m = tr(L_m) = sum_k c_mk^k, all read off
    ``mult_sparse`` with no L_i built (Ronyai, J. Symbolic Comput. 9, 1990;
    Cohen, Ivanyos and Wales, J. Pure Appl. Algebra 117-118, 1997)."""
    F = alg.field
    n = alg.dim
    sparse = alg.mult_sparse
    t = F.reduce([sum(c for k, terms in enumerate(plane) for q, c in terms if q == k)
                  for plane in sparse])
    gram = [F.reduce([sum(c * t[m] for m, c in terms) for terms in plane])
            for plane in sparse]
    return kernel(Matrix(F, n, n, gram))


def _frobenius_kernel(alg: FiniteAlgebra) -> Subspace:
    """Nilpotents of a commutative algebra over F_p: kernel of x -> x^(p^m)
    with p^m > dim, the m-th power of the (linear) Frobenius map."""
    F = alg.field
    p = F.p
    n = alg.dim
    m = 1
    while p ** m <= n:
        m += 1
    cols = [alg.basis_vector(j) for j in range(n)]
    for _ in range(m):
        cols = [alg.power(c, p) for c in cols]
    return kernel(Matrix.from_rows(F, zip(*cols), n))


def radical_subspace(alg: FiniteAlgebra) -> Subspace:
    """The radical as a subspace, kept on the algebra; refusals are not kept."""
    return _kept(alg, "_radical", _radical_subspace)


def _radical_subspace(alg: FiniteAlgebra) -> Subspace:
    F = alg.field
    p = F.characteristic()
    if p == 0 or p > alg.dim:
        return _trace_form_kernel(alg)
    if alg.is_commutative():
        return _frobenius_kernel(alg)
    raise UnsupportedComputation(
        f"radical over F_{p} needs p > dim ({alg.dim}) or a commutative algebra; "
        "no exact route for this input")


def radical(alg: FiniteAlgebra) -> Ideal:
    """The largest nilpotent ideal (equals the prime radical here)."""
    return Ideal(alg, radical_subspace(alg), check=True, name="radical")


def radical_of_ideal(alg: FiniteAlgebra, ideal: Ideal) -> Ideal:
    """Smallest semiprime ideal containing the given ideal."""
    q, proj, lift = quotient_algebra(alg, ideal.space)
    rad = radical_subspace(q)
    vecs = [list(r) for r in ideal.space.rows]
    vecs += [lift.vec_mul(list(r)) for r in rad.rows]
    return Ideal(alg, Subspace.from_vectors(alg.field, alg.dim, vecs), check=True)


def is_semiprime(alg: FiniteAlgebra, ideal: Ideal) -> bool:
    q, _, _ = quotient_algebra(alg, ideal.space)
    if q.dim == 0:
        return True    # the unit ideal: empty intersection of primes
    return radical_subspace(q).dim == 0


# -- block decomposition of the semisimple quotient ----------------------------

def _splitter_candidates(Z: FiniteAlgebra, corner_basis):
    """Deterministic supply of elements likely to split the corner algebra."""
    for v in corner_basis:
        yield v
    for a, b in itertools.combinations(range(len(corner_basis)), 2):
        yield Z.multiply(corner_basis[a], corner_basis[b])
        yield [Z.field.add(x, y) for x, y in zip(corner_basis[a], corner_basis[b])]
    F = Z.field
    p = F.characteristic()
    d = len(corner_basis)
    if p and p ** d <= SPLITTER_GRID_MAX:
        grid = itertools.product(range(p), repeat=d)
    else:
        grid = (coords for radius in (2, 3, 5)
                for coords in itertools.product(range(-radius, radius + 1), repeat=d)
                if any(coords))
    for coords in grid:
        v = [F.zero] * Z.dim
        for c, vec in zip(coords, corner_basis):
            if c:
                v = [F.add(v[k], F.mul(F.from_int(c), vec[k]))
                     for k in range(Z.dim)]
        yield v


def _corner_basis(Z: FiniteAlgebra, u):
    img = Subspace.from_vectors(Z.field, Z.dim,
                                [Z.multiply(u, Z.basis_vector(j)) for j in range(Z.dim)])
    return img.basis_vectors()


def _try_split(Z: FiniteAlgebra, u):
    """Either None (u Z certified a field) or a list of finer idempotents."""
    F = Z.field
    corner = _corner_basis(Z, u)
    d = len(corner)
    if d == 1:
        return None
    for cand in itertools.islice(_splitter_candidates(Z, corner), SPLITTER_BUDGET):
        x = Z.multiply(cand, u)
        mp = minimal_polynomial(Z, x, unit=u)
        if mp == [F.zero, F.neg(F.one), F.one]:
            # t^2 - t: x is an idempotent other than 0 and u, and x, u - x
            # are the CRT idempotents of the factors t - 1 and t
            return [x, [F.sub(a, b) for a, b in zip(u, x)]]
        if len(mp) == 2:
            continue       # linear: x is a multiple of u, of degree 1 < d
        factors = factor_irreducible(F, mp)
        if any(m > 1 for _, m in factors):
            raise RuntimeError("repeated factor inside a semisimple center")
        if len(factors) == 1:
            if len(mp) - 1 == d:
                return None        # irreducible of full degree: a field
            continue
        pieces = []
        for fac, _ in factors:
            n_i = _poly_divmod(F, mp, fac)[0]
            s, g = _poly_gcdex(F, n_i, fac)
            if len(g) != 1:
                raise RuntimeError("factors of a squarefree polynomial not coprime")
            # s * n_i = 1 mod fac; the idempotent is (s n_i)(x)
            e_red = _poly_divmod(F, _poly_mul(F, s, n_i), mp)[1]
            pieces.append(poly_eval_in_algebra(Z, e_red, x, unit=u))
        return pieces
    raise UnsupportedComputation(
        "could not certify a center factor as a field within "
        f"{SPLITTER_BUDGET} splitting candidates (SPLITTER_BUDGET)")


def split_primitive_idempotents(Z: FiniteAlgebra):
    """Primitive idempotents of a commutative semisimple algebra, canonical order.

    The orthogonal idempotents found are linearly independent, so there are
    at most dim Z of them; a split past that refuses.
    """
    pieces = [list(Z.unit)]
    done = []
    while pieces:
        if len(done) + len(pieces) > Z.dim:
            raise UnsupportedComputation(
                f"more than dim Z = {Z.dim} orthogonal idempotents split off: "
                "a semisimple center has at most dim Z primitive idempotents")
        u = pieces.pop()
        finer = _try_split(Z, u)
        if finer is None:
            done.append(u)
        else:
            pieces.extend(finer)
    done.sort(key=lambda v: [str(c) for c in v])
    return done


class SpectrumEntry:
    """A prime with its block data: immutable, equal and hashed by value.  A
    plain class, as ``report.Report``, so that no load imports ``dataclasses``."""

    __slots__ = ("prime", "simple_quotient_dim", "heart_dim", "inert")

    def __init__(self, prime, simple_quotient_dim, heart_dim, inert=False):
        for name, value in zip(self.__slots__, (prime, simple_quotient_dim,
                                                heart_dim, inert)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SpectrumEntry is immutable ({name!r})")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def to_json(self):
        return {"prime": self.prime.to_json(),
                "simple_quotient_dim": self.simple_quotient_dim,
                "heart_dim": self.heart_dim,
                "inert": self.inert}


def spectrum(alg: FiniteAlgebra):
    """All prime (= maximal) two-sided ideals with block and heart data.

    Computed once per algebra and kept on it; each call returns a new list.
    A refusal (:class:`UnsupportedComputation`) is not kept."""
    return list(_kept(alg, "_spectrum", _spectrum))


def _spectrum(alg: FiniteAlgebra):
    rad = radical_subspace(alg)
    S, proj, lift = quotient_algebra(alg, rad)
    if S.dim == 0:
        return ()
    zsub = center_subspace(S)
    Z, zembed = subalgebra_structure(S, zsub, name="center")
    idems = split_primitive_idempotents(Z)
    entries = []
    for u in idems:
        u_in_s = zembed.vec_mul(u)
        ker = kernel(S.left_mult_matrix(u_in_s))
        vecs = [list(r) for r in rad.rows]
        vecs += [lift.vec_mul(list(r)) for r in ker.rows]
        prime = Ideal(alg, Subspace.from_vectors(alg.field, alg.dim, vecs),
                      check=True)
        block_dim = S.dim - ker.dim
        heart_dim = len(_corner_basis(Z, u))
        entries.append(SpectrumEntry(prime, block_dim, heart_dim,
                                     inert=heart_dim > 1))
    entries.sort(key=lambda e: [[str(c) for c in row] for row in e.prime.space.rows])
    return tuple(entries)


def _simple_center(q: FiniteAlgebra):
    """The center of the quotient q = A/I when q is simple (nonzero,
    semisimple, one block), else None; q keeps its radical and center."""
    if q.dim == 0 or radical_subspace(q).dim != 0:
        return None
    Z, _ = subalgebra_structure(q, center_subspace(q))
    return Z if len(split_primitive_idempotents(Z)) == 1 else None


def is_prime(alg: FiniteAlgebra, ideal: Ideal) -> bool:
    """Finite-dimensional prime = simple quotient: semiprime with one block."""
    return _simple_center(quotient_algebra(alg, ideal.space)[0]) is not None


def is_completely_prime(alg: FiniteAlgebra, ideal: Ideal) -> bool:
    """Quotient is a domain; decided only for commutative quotients."""
    q, _, _ = quotient_algebra(alg, ideal.space)
    if not q.is_commutative():
        raise UnsupportedComputation(
            "complete primeness is decided only for commutative quotients")
    return is_prime(alg, ideal)


# -- H-cores ---------------------------------------------------------------------

def core(act: ModuleAlgebraAction, ideal: Ideal) -> Ideal:
    """The H-core: the largest action-stable ideal inside the given ideal.

    The h with h.W in W form a subalgebra of H, so this is the largest
    subspace of the ideal that the operators of H's generators keep
    (:attr:`~hopfact.action.ModuleAlgebraAction.generator_operators`,
    :func:`~hopfact.linalg.largest_stable_inside`).
    """
    if ideal.alg is not act.alg:
        raise ValueError("ideal does not live on the acted algebra")
    space = largest_stable_inside(ideal.space, act.generator_operators)
    out = Ideal(act.alg, space, check=True, name="core")
    if not out.space.le(ideal.space):
        raise RuntimeError("computed core escapes the ideal")
    if not act.subspace_stable(out.space):
        raise RuntimeError("computed core is not action-stable")
    return out


def core_via_psi(act: ModuleAlgebraAction, ideal: Ideal) -> Ideal:
    """Independent route: inverse-twist the ideal's dual tensor inside the
    convolution algebra and intersect with the constant-value copy of A."""
    from .convolution import ConvolutionAlgebra, transport_subspace
    conv = ConvolutionAlgebra(act)
    t = transport_subspace(conv, ideal.space)
    space = pull_back(conv.iota_matrix, conv.iota_image, t)
    return Ideal(act.alg, space, check=True, name="core-via-twist")


def group_core_by_intersection(act: ModuleAlgebraAction, ideal: Ideal) -> Ideal:
    """For group-algebra actions: the intersection of the translates g.I."""
    if not is_group_basis(act.hopf):
        raise ValueError("intersection core needs a group algebra "
                         "in its grouplike basis")
    space = ideal.space
    for i in range(act.hopf.dim):
        translate = Subspace.from_vectors(
            act.field, act.alg.dim,
            [act.act_basis(i, list(r)) for r in ideal.space.rows])
        space = subspace_intersect(space, translate)
    return Ideal(act.alg, space, check=True, name="intersection-core")


def certify_h_prime(act: ModuleAlgebraAction, ideal: Ideal, bound=None) -> Report:
    """Certify H-primeness of an action-stable ideal.

    Route (a): the ideal is the core of a computed prime and is itself prime.
    Route (b): pairwise product check over the lattice of action-stable
    ideals (prime fields within the enumeration cap), enumerated as the
    subspaces kept by multiplication by A's generators and by the operators
    of H's generators.
    """
    rep = Report("h-prime-certificate", details={"dim": ideal.dim})
    try:
        if is_prime(act.alg, ideal):
            for _, c in _prime_cores(act):
                if c.space == ideal.space:
                    rep.details["route"] = "core-of-prime"
                    return rep
    except UnsupportedComputation:
        pass
    try:
        lattice = stable_subspaces(act.field, act.alg.dim,
                                   act.alg.generator_operators + act.generator_operators,
                                   bound)
    except EnumerationBound:
        rep.status = ERROR
        rep.details["reason"] = "no certificate route available (enumeration bound)"
        return rep
    above = [s for s in lattice if ideal.space.le(s) and s.dim > ideal.dim]
    for j_space in above:
        for k_space in above:
            prod_vecs = [act.alg.multiply(list(x), list(y))
                         for x in j_space.rows for y in k_space.rows]
            if all(ideal.contains(v) for v in prod_vecs):
                rep.status = FAIL
                rep.witnesses.append({"pair-dims": [j_space.dim, k_space.dim]})
                return rep
    rep.details["route"] = "lattice-products"
    rep.details["lattice-size"] = len(lattice)
    return rep


def _prime_cores(act: ModuleAlgebraAction):
    """(entry, core of its prime) for each entry of the spectrum of the
    acted algebra, in spectrum order: computed once per action and kept."""
    return _kept(act, "_prime_cores",
                 lambda act: tuple((e, core(act, e.prime)) for e in spectrum(act.alg)))


def h_spectrum(act: ModuleAlgebraAction):
    """Distinct cores of the primes: the reachable H-prime ideals."""
    return [c for c, _ in strata(act)]


def strata(act: ModuleAlgebraAction):
    """Fibers of the core map on the spectrum: core -> list of entries."""
    fibers = {}
    for e, c in _prime_cores(act):
        fibers.setdefault(c.space.rows, (c, []))[1].append(e)
    out = []
    for key in sorted(fibers, key=lambda rows: [[str(c) for c in r] for r in rows]):
        out.append(fibers[key])
    return out


# -- theorem-level checks --------------------------------------------------------

def semiprime_core_check(act: ModuleAlgebraAction, ideal: Ideal) -> Report:
    """Is the core of a semiprime ideal semiprime?

    In characteristic zero with a cocommutative Hopf algebra a failure
    contradicts the semiprimeness transfer theorem and is reported as a
    build-stopping failure; in positive characteristic a failure is the
    expected counterexample and exits cleanly flagged as such.
    """
    rep = Report("semiprime-core", details={"fixture": act.name})
    if not is_semiprime(act.alg, ideal):
        rep.status = ERROR
        rep.details["reason"] = "input ideal is not semiprime"
        return rep
    c = core(act, ideal)
    rep.details["core-dim"] = c.dim
    ok = is_semiprime(act.alg, c)
    rep.details["core-semiprime"] = ok
    char = act.field.characteristic()
    cocomm = is_cocommutative(act.hopf)
    rep.details["characteristic"] = char
    rep.details["cocommutative"] = cocomm
    if ok:
        return rep
    if char == 0 and cocomm:
        rep.status = FAIL
        rep.witnesses.append({"reason": "semiprimeness transfer violated in "
                                        "characteristic zero"})
    else:
        rep.status = COUNTEREXAMPLE
    return rep


def reformulation_check(act: ModuleAlgebraAction, ideal: Ideal) -> Report:
    """Inclusion of the acted radical in the radical of the acted ideal.

    Checks H . sqrt(I) inside sqrt(J) where J is the smallest action-stable
    ideal containing I; in characteristic zero (cocommutative) this must
    hold, in characteristic p it may fail and the failure is flagged as the
    expected counterexample.
    """
    rep = Report("radical-inclusion", details={"fixture": act.name})
    alg = act.alg
    F = act.field
    sqrt_i = radical_of_ideal(alg, ideal)
    rep.details["sqrt-dim"] = sqrt_i.dim
    acted = [act.act_basis(i, list(r))
             for i in range(act.hopf.dim) for r in sqrt_i.space.rows]
    acted_span = Subspace.from_vectors(F, alg.dim, acted)
    # the smallest action-stable ideal containing I
    j_space = closure(ideal.space, alg.generator_operators + act.generator_operators)
    j = Ideal(alg, j_space, check=True)
    # with a bijective antipode the plain acted span is already that ideal
    hi_span = Subspace.from_vectors(
        F, alg.dim, [act.act_basis(i, list(r))
                     for i in range(act.hopf.dim) for r in ideal.space.rows])
    rep.details["acted-span-is-ideal"] = (hi_span == j.space)
    sqrt_j = radical_of_ideal(alg, j)
    ok = acted_span.le(sqrt_j.space)
    rep.details["inclusion-holds"] = ok
    if not ok:
        witness = next(list(r) for r in acted_span.rows
                       if not sqrt_j.contains(list(r)))
        char = act.field.characteristic()
        if char == 0 and is_cocommutative(act.hopf):
            rep.status = FAIL
        else:
            rep.status = COUNTEREXAMPLE
        rep.witnesses.append({"vector": [F.render(c) for c in witness]})
    return rep


def composite_core(lie_act, act: ModuleAlgebraAction, ideal: Ideal) -> Ideal:
    """Derivation core followed by the Hopf core, cross-checked against the
    largest subspace stable under both operator families."""
    from .lie import lie_core
    step = lie_core(lie_act, ideal)
    out = core(act, step)
    # joint oracle: stable under all operators at once
    joint = largest_stable_inside(ideal.space,
                                  lie_act.derivations + act.operator_matrices)
    if joint != out.space:
        raise RuntimeError("composite core disagrees with the joint core")
    return out


# -- strata ----------------------------------------------------------------------

def induced_action(act: ModuleAlgebraAction, sub: Subspace, name=None,
                   quotient=None):
    """Action on the quotient modulo an action-stable ideal subspace;
    ``quotient`` is :func:`quotient_algebra` of ``sub`` when already built."""
    if not act.subspace_stable(sub):
        raise ValueError("subspace is not action-stable; no induced action")
    q, proj, lift = quotient or quotient_algebra(act.alg, sub)
    tbar = []
    for i in range(act.hopf.dim):
        comp = proj.mat_mul(act.operator_matrices[i].mat_mul(lift))
        tbar.append([[comp.data[b][a] for b in range(q.dim)] for a in range(q.dim)])
    bar = ModuleAlgebraAction(act.hopf, q, tbar,
                              name=name or (f"{act.name}-mod" if act.name else None))
    return bar, q, proj, lift


class StratumAlgebra:
    """The commutative coefficient algebra C = Z(A/I) (x) H* of one stratum
    base, with its parts by keyword: ``base_action`` (on A/I), ``quotient``
    (A/I), ``center_alg`` (Z(A/I)), ``algebra`` (C), ``action`` (on C),
    ``conv`` (B over A/I), ``embed`` (C coordinates -> B coordinates), and
    ``entries`` (the spectrum of C), ``h_primes`` and ``stable_primes``."""

    def __init__(self, **parts):
        self.__dict__.update(parts)


def _build_stratum_pieces(act: ModuleAlgebraAction, ideal: Ideal, quotient=None):
    """Everything the stratum checks need; raises on structural failures.
    ``quotient`` is :func:`quotient_algebra` of the base when the caller has
    built it."""
    from .convolution import ConvolutionAlgebra
    if not act.subspace_stable(ideal.space):
        raise ValueError("stratum base must be an action-stable ideal")
    bar, q, proj, lift = induced_action(act, ideal.space, quotient=quotient)
    zsub = center_subspace(q)
    if not bar.subspace_stable(zsub):
        raise ValueError("induced action does not stabilize the center")
    zalg, zembed = subalgebra_structure(q, zsub, name="center")
    # the action restricted to the center, in center coordinates
    nH = act.hopf.dim
    zact = ModuleAlgebraAction(act.hopf, zalg, [
        [zsub.coords_in_basis(bar.act_basis(i, list(z))) for z in zsub.rows]
        for i in range(nH)])
    hit = hit_action(act.hopf)
    c_alg = tensor_algebra_prod(zalg, hit.alg,
                                name=f"stratum:{act.name}" if act.name else "stratum")
    # h.(z (x) f) = h_1.z (x) (h_2 -> f)
    zops, hops = zact.operator_matrices, hit.operator_matrices
    c_act = action_from_operators(
        act.hopf, c_alg,
        [kron_sum([(c, zops[u], hops[v]) for u, v, c in coproduct])
         for coproduct in act.hopf.comul_sparse],
        name=f"stratum-action:{act.name}" if act.name else None)
    conv = ConvolutionAlgebra(bar)
    # z (x) f -> (f (x) 1)(eps (x) z) = f (x) z in B = H* (x) A/I
    F = act.field
    cols = [conv.mul(conv.ustar(f), conv.iota(z)).coords
            for z in zsub.basis_vectors() for f in Matrix.identity(F, nH).data]
    embed = Matrix(F, len(cols), conv.dim, cols).transpose()
    return {
        "bar": bar, "quotient": q, "proj": proj, "lift": lift,
        "zsub": zsub, "zalg": zalg, "zembed": zembed,
        "c_alg": c_alg, "c_act": c_act, "conv": conv, "embed": embed,
    }


def stratum_algebra(act: ModuleAlgebraAction, ideal: Ideal) -> StratumAlgebra:
    """Commutative stratum coefficient algebra with its combined H-action.

    Requires the base ideal to have a prime quotient: the finite-dimensional
    collapse identifies the heart with the center of a simple quotient, and
    cores of primes are prime only under that hypothesis.
    """
    quotient = quotient_algebra(act.alg, ideal.space)
    if _simple_center(quotient[0]) is None:
        raise ValueError(
            "stratum base does not have a prime quotient; the heart-center "
            "identification needs a simple quotient")
    pieces = _build_stratum_pieces(act, ideal, quotient)
    check = verify_action(pieces["c_act"])
    if not check.ok:
        raise ValueError(
            "combined stratum action fails measuring; tensor actions need a "
            f"cocommutative Hopf algebra (witnesses {check.witnesses[:2]})")
    entries = spectrum(pieces["c_alg"])
    h_primes = h_spectrum(pieces["c_act"])
    stable = [e for e in entries if pieces["c_act"].subspace_stable(e.prime.space)]
    return StratumAlgebra(
        base_action=pieces["bar"], quotient=pieces["quotient"],
        center_alg=pieces["zalg"], algebra=pieces["c_alg"],
        action=pieces["c_act"], conv=pieces["conv"], embed=pieces["embed"],
        entries=entries, h_primes=h_primes, stable_primes=stable)


def verify_strat_bijection(act: ModuleAlgebraAction, ideal: Ideal,
                           bound=None) -> Report:
    """Graded verification of the stratum correspondence over one base.

    Builds the twisted transport of each stratum prime, intersects with the
    stratum coefficient algebra, and checks: the core identities, primality
    transfer under the twist automorphism, injectivity and order
    compatibility of the induced map, surjectivity onto the reachable
    H-primes, and the heart dimension equality.  Hypothesis gaps (base not
    prime, dual coefficients not a domain) degrade the verdict instead of
    failing: the report names the check that could not be asserted.
    """
    from .convolution import transport_subspace
    rep = Report("stratum-bijection", details={"fixture": act.name})
    notes = []
    rep.details["notes"] = notes

    if not act.subspace_stable(ideal.space):
        rep.status = ERROR
        rep.details["reason"] = "base ideal is not action-stable"
        return rep

    try:
        prime_cores = _prime_cores(act)
    except UnsupportedComputation as exc:
        rep.status = ERROR
        rep.details["reason"] = str(exc)
        return rep
    stratum = [e for e, c in prime_cores if c.space == ideal.space]
    rep.details["stratum-size"] = len(stratum)
    if not stratum:
        rep.details["verdict"] = "empty-stratum"
        return rep

    # the base quotient, built once: its radical and center are kept on it
    quotient = quotient_algebra(act.alg, ideal.space)
    q = quotient[0]
    try:
        base_semiprime = radical_subspace(q).dim == 0
    except UnsupportedComputation:
        base_semiprime = False
        notes.append("base semiprimeness undecidable (radical refusal)")
    if not base_semiprime:
        notes.append("base quotient not semiprime: center collapse unavailable")
        rep.details["verdict"] = "undefined-base"
        return rep
    base_prime = _simple_center(q) is not None
    rep.details["base-prime"] = base_prime
    if not base_prime:
        notes.append("base quotient not prime: using the center of a "
                     "semiprime quotient")

    try:
        pieces = _build_stratum_pieces(act, ideal, quotient)
    except ValueError as exc:
        notes.append(str(exc))
        rep.details["verdict"] = "undefined-structure"
        return rep
    c_act, c_alg, conv, embed = (pieces["c_act"], pieces["c_alg"],
                                 pieces["conv"], pieces["embed"])
    action_ok = verify_action(c_act).ok
    if not action_ok:
        notes.append("combined stratum action fails measuring "
                     "(Hopf algebra not cocommutative): map undefined")
        rep.details["verdict"] = "undefined-action"
        return rep

    proj = pieces["proj"]
    bar = pieces["bar"]
    c_embed_space = Subspace.from_vectors(act.field, conv.dim,
                                          embed.transpose().data)

    c_map = []
    hearts_ok = True
    transfer_gap = False
    for e in stratum:
        pbar_space = Subspace.from_vectors(
            act.field, bar.alg.dim,
            [proj.vec_mul(list(r)) for r in e.prime.space.rows])
        pbar = Ideal(bar.alg, pbar_space, check=True)
        # the two core routes on the quotient must coincide and vanish
        c_direct = core(bar, pbar)
        c_psi = core_via_psi(bar, pbar)
        if c_direct.space != c_psi.space:
            rep.fail({"check": "core-routes-disagree"})
        if c_direct.dim != 0:
            rep.fail({"check": "stratum-core-nonzero", "dim": c_direct.dim})
        tens = conv.tensor_with_dual(pbar_space)
        transported = transport_subspace(conv, pbar_space)
        # primality must transfer along the twist automorphism
        try:
            p1 = is_prime(conv.algebra, Ideal(conv.algebra, tens, check=True))
            p2 = is_prime(conv.algebra, Ideal(conv.algebra, transported, check=True))
            if p1 != p2:
                rep.fail({"check": "twist-primality-transfer", "plain": p1,
                          "twisted": p2})
            if not p1:
                transfer_gap = True
        except UnsupportedComputation:
            notes.append("primality of the transported ideal undecidable "
                         "(radical refusal)")
            transfer_gap = True
        c_p = pull_back(embed, c_embed_space, transported)
        if not subspace_is_ideal(c_alg, c_p):
            rep.fail({"check": "image-not-ideal"})
        if not c_act.subspace_stable(c_p):
            rep.fail({"check": "image-not-stable"})
        want = e.heart_dim * act.hopf.dim
        got = c_alg.dim - c_p.dim
        if want != got:
            hearts_ok = False
            rep.fail({"check": "heart-dimension", "expected": want, "got": got})
        c_map.append((e, c_p))
    if transfer_gap:
        notes.append("dual coefficients are not a domain here: plain tensor "
                     "with a prime need not be prime")

    # injectivity and order compatibility
    for i in range(len(c_map)):
        for j in range(len(c_map)):
            if i == j:
                continue
            ei, ci = c_map[i]
            ej, cj = c_map[j]
            if ci == cj:
                rep.fail({"check": "injectivity", "pair": [i, j]})
            if (ei.prime.space.le(ej.prime.space)) != (ci.le(cj)):
                rep.fail({"check": "order-compatibility", "pair": [i, j]})

    # surjectivity onto the reachable H-primes of the stratum algebra
    h_primes = h_spectrum(c_act)
    rep.details["h-primes"] = len(h_primes)
    image_rows = {c_p.rows for _, c_p in c_map}
    target_rows = {hp.space.rows for hp in h_primes}
    surjective = image_rows == target_rows
    rep.details["surjective"] = surjective
    if base_prime and not surjective:
        rep.fail({"check": "surjectivity",
                  "image": len(image_rows), "target": len(target_rows)})

    # certification of the image as H-primes, where a route exists
    certified = 0
    for _, c_p in c_map:
        try:
            cert = certify_h_prime(c_act, Ideal(c_alg, c_p, check=False), bound)
            if cert.status == PASS:
                certified += 1
            elif cert.status == FAIL:
                rep.fail({"check": "h-prime-certificate"})
        except EnumerationBound:
            pass
    rep.details["certified-h-prime"] = certified

    if rep.status == FAIL:
        rep.details["verdict"] = "failed"
    elif base_prime and surjective and hearts_ok:
        rep.details["verdict"] = "bijection-verified"
    else:
        rep.details["verdict"] = "injective-only"
    return rep
