"""The convolution algebra of an action, its embeddings and automorphisms.

For a finite-dimensional Hopf algebra every linear map H -> A has finite
rank, so the convolution algebra is H* (x) A in its entirety, and it is
built as that tensor product of algebras with the Hopf factor first: the
basis E_{p,q} = (h_p -> a_q) is ordered by :func:`linalg.kron_sum`.
Elements are stored on it, equivalently as the dim(A) x dim(H) matrix of
values, and the embedding a -> (h -> h.a) is the coaction A -> A (x) H*.

The two H-module structures (right-translation and the twisted action that
uses the given action on values) and the mutually inverse automorphisms
that exchange them are materialized as explicit matrices, so every claimed
identity is an exhaustive finite check.  The embeddings and both H-actions
are Kronecker products of operators on H and on A.
"""

from __future__ import annotations

from functools import cached_property

# ``kernel`` is unused here but stays bound: bench/tests/test_tracer.py checks
# that the tracer patches this module's copy of it.
from .linalg import (Matrix, Subspace, apply_combination, combine, is_stable,
                     kernel, kron_sum, nonzero_terms, pull_back, sparse_apply,
                     support, enumerate_subspaces, stable_subspaces,
                     subspace_count)
from .hopf import (FiniteAlgebra, dual_hopf, ideal_closure, is_cocommutative,
                   subspace_is_ideal, tensor_algebra_prod, verify_algebra)
from .action import (ModuleAlgebraAction, comodule_map, hit_action,
                     invariants_of, trivial_action)
from .report import Report

DEFAULT_DIM_CAP = 64


class ConvElement:
    """An element of the convolution algebra: coordinates over E_{p,q}."""

    __slots__ = ("conv", "coords")

    def __init__(self, conv, coords):
        if len(coords) != conv.dim:
            raise ValueError("coordinate length mismatch")
        self.conv = conv
        self.coords = list(coords)

    def value_matrix(self):
        """dim(A) x dim(H) matrix: column p = value at the p-th Hopf basis."""
        nA, nH = self.conv.alg.dim, self.conv.hopf.dim
        return [[self.coords[p * nA + q] for p in range(nH)] for q in range(nA)]

    def __eq__(self, other):
        return (isinstance(other, ConvElement) and self.conv is other.conv
                and self.coords == other.coords)

    def to_json(self):
        F = self.conv.field
        return [[F.render(c) for c in row] for row in self.value_matrix()]

    def __repr__(self):
        return f"ConvElement({self.coords!r})"


class ConvolutionAlgebra:
    """B = Hom(H, A) with (f*g)(h) = f(h_1) g(h_2), built from an action."""

    def __init__(self, act: ModuleAlgebraAction):
        self.action = act
        self.hopf = act.hopf
        self.alg = act.alg
        self.dim = self.hopf.dim * self.alg.dim
        if self.dim > DEFAULT_DIM_CAP:
            raise ValueError(f"convolution algebra dim {self.dim} exceeds cap "
                             f"{DEFAULT_DIM_CAP}")
        self.field = act.field

    def index(self, p, q):
        return p * self.alg.dim + q

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        """B = H* (x) A: structure constants on the E_{p,q} basis."""
        name = f"conv:{self.action.name}" if self.action.name else None
        return tensor_algebra_prod(dual_hopf(self.hopf).alg, self.alg, name=name)

    # -- embeddings -----------------------------------------------------------

    @cached_property
    def iota_matrix(self) -> Matrix:
        """a -> eps (x) a."""
        F = self.field
        eps = Matrix.from_rows(F, [self.hopf.counit]).transpose()
        return kron_sum([(F.one, eps, Matrix.identity(F, self.alg.dim))])

    @cached_property
    def del_matrix(self) -> Matrix:
        """a -> (h -> h.a): the coaction."""
        return comodule_map(self.action)

    @cached_property
    def ustar_matrix(self) -> Matrix:
        """f -> f (x) 1_A."""
        F = self.field
        unit = Matrix.from_rows(F, [self.alg.unit]).transpose()
        return kron_sum([(F.one, Matrix.identity(F, self.hopf.dim), unit)])

    def iota(self, avec) -> ConvElement:
        return ConvElement(self, self.iota_matrix.vec_mul(avec))

    def del_embed(self, avec) -> ConvElement:
        return ConvElement(self, self.del_matrix.vec_mul(avec))

    def ustar(self, fvec) -> ConvElement:
        return ConvElement(self, self.ustar_matrix.vec_mul(fvec))

    def one(self) -> ConvElement:
        return ConvElement(self, self.algebra.unit)

    def mul(self, b1: ConvElement, b2: ConvElement) -> ConvElement:
        return ConvElement(self, self.algebra.multiply(b1.coords, b2.coords))

    # -- the twist automorphisms ------------------------------------------------

    def _twist(self, ops) -> Matrix:
        """b -> (h -> h_1 . b(h_2)) on coordinates, for the action with one
        operator matrix per Hopf basis element."""
        F = self.field
        terms = [[nonzero_terms(F, col) for col in zip(*op.data)] for op in ops]
        rows = [[F.zero] * self.dim for _ in range(self.dim)]
        for l, coproduct in enumerate(self.hopf.comul_sparse):
            for (u, p, c) in coproduct:
                for q in range(self.alg.dim):
                    col = self.index(p, q)
                    for mm, t in terms[u][q]:
                        row = rows[self.index(l, mm)]
                        row[col] = F.add(row[col], F.mul(c, t))
        return Matrix(F, self.dim, self.dim, rows)

    @cached_property
    def phi_matrix(self) -> Matrix:
        """b -> (h -> h_1 . b(h_2)) on coordinates."""
        return self._twist(self.action.operator_matrices)

    @cached_property
    def psi_matrix(self) -> Matrix:
        """b -> (h -> S(h_1) . b(h_2)): the twist of the action composed
        with the antipode, the operator of h_u being that of S(h_u)."""
        ops = self.action.operator_matrices
        return self._twist([combine(s, ops)
                            for s in self.hopf.antipode.transpose().data])

    def phi(self, b: ConvElement) -> ConvElement:
        return ConvElement(self, self.phi_matrix.vec_mul(b.coords))

    def psi(self, b: ConvElement) -> ConvElement:
        return ConvElement(self, self.psi_matrix.vec_mul(b.coords))

    # -- the two H-actions on B -------------------------------------------------

    def _dot_operators_of(self, ops):
        """Operators (h . b)(k) = h_1 . b(k h_2), one per basis, for the
        action with operator matrices ``ops``: the sum of c R_v^T (x) ops[u]
        over the terms (u, v, c) of delta(h), R_v the right multiplication
        by h_v on H."""
        H = self.hopf
        right = [Matrix(self.field, H.dim, H.dim,
                        [H.alg.basis_product(l, v) for l in range(H.dim)])
                 for v in range(H.dim)]
        return [kron_sum([(c, right[v], ops[u]) for u, v, c in coproduct])
                for coproduct in H.comul_sparse]

    @cached_property
    def rh_operators(self):
        """Right-translation operators: (h -> b)(k) = b(k h), one per basis;
        the twisted operators of the trivial action h . a = eps(h) a."""
        return self._dot_operators_of(
            trivial_action(self.hopf, self.alg).operator_matrices)

    @cached_property
    def dot_operators(self):
        """Twisted operators: (h . b)(k) = h_1 . b(k h_2), one per basis."""
        return self._dot_operators_of(self.action.operator_matrices)

    def rh_act(self, hvec, b: ConvElement) -> ConvElement:
        return ConvElement(self, apply_combination(hvec, self.rh_operators, b.coords))

    def dot_act(self, hvec, b: ConvElement) -> ConvElement:
        return ConvElement(self, apply_combination(hvec, self.dot_operators, b.coords))

    def invariants_of(self, ops) -> Subspace:
        """Joint eigenspace: op_i b = eps(h_i) b for all basis operators."""
        return invariants_of(ops, self.hopf.counit)

    @cached_property
    def translation_invariants(self) -> Subspace:
        """The right-translation invariants, computed once for every battery."""
        return self.invariants_of(self.rh_operators)

    @cached_property
    def iota_image(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim,
                                     self.iota_matrix.transpose().data)

    @cached_property
    def psi_iota_matrix(self) -> Matrix:
        """a -> psi(iota a): A onto the invariant subalgebra of B."""
        return self.psi_matrix.mat_mul(self.iota_matrix)

    @cached_property
    def psi_iota_image(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim,
                                     self.psi_iota_matrix.transpose().data)

    def tensor_with_dual(self, sub_a: Subspace) -> Subspace:
        """H* (x) W as a subspace of B, for W a subspace of A: the rows
        e_p (x) w of W's RREF rows w, p major, are already RREF."""
        nA, nH = self.alg.dim, self.hopf.dim
        zero = (self.field.zero,) * nA
        rows = tuple(zero * p + w + zero * (nH - 1 - p) for p in range(nH) for w in sub_a.rows)
        pivots = tuple(p * nA + pc for p in range(nH) for pc in sub_a.pivots)
        return Subspace(self.field, self.dim, rows, pivots, _canonical=True)


# -- identity batteries --------------------------------------------------------
# Every identity is compared column by column: vectors are dicts of their
# nonzero coordinates, canonical (linalg.support), so dict equality is
# equality of vectors.

def _basis_images(m: Matrix):
    """m e_r for every basis vector e_r, as canonical dicts: the column
    terms of m, whose entries are canonical scalars."""
    return [dict(col) for col in m.columns]


def embedding_report(conv: ConvolutionAlgebra) -> Report:
    """The three canonical maps into B are unital algebra embeddings, and
    the constant-value copy of A commutes with the dual copy of H*."""
    rep = Report("embeddings", details={"fixture": conv.action.name})
    A, H = conv.alg, conv.hopf
    B = conv.algebra
    if conv.iota(A.unit).coords != B.unit:
        rep.fail({"map": "iota", "identity": "unit"})
    if conv.del_embed(A.unit).coords != B.unit:
        rep.fail({"map": "del", "identity": "unit"})
    eps = list(H.counit)
    if conv.ustar(eps).coords != B.unit:
        rep.fail({"map": "ustar", "identity": "unit"})
    mul = B.sparse_multiply
    iota = _basis_images(conv.iota_matrix)
    embs = (("iota", conv.iota_matrix, iota),
            ("del", conv.del_matrix, _basis_images(conv.del_matrix)))
    for i in range(A.dim):
        for j in range(A.dim):
            prod = dict(A.mult_sparse[i][j])
            for tag, m, cols in embs:
                if sparse_apply(m, prod) != mul(cols[i], cols[j]):
                    rep.fail({"map": tag, "pair": [i, j]})
    nH = H.dim
    dual = dual_hopf(H).alg
    ustar = _basis_images(conv.ustar_matrix)
    for i in range(nH):
        for j in range(nH):
            lhs = sparse_apply(conv.ustar_matrix, dict(dual.mult_sparse[i][j]))
            if lhs != mul(ustar[i], ustar[j]):
                rep.fail({"map": "ustar", "pair": [i, j]})
    # iota(A) commutes with ustar(H*)
    for i in range(A.dim):
        for j in range(nH):
            if mul(iota[i], ustar[j]) != mul(ustar[j], iota[i]):
                rep.fail({"identity": "iota-ustar-commute", "pair": [i, j]})
    return rep


def check_intertwining(conv: ConvolutionAlgebra) -> Report:
    """Phi((iota a) b) = (del a)(Phi b) and Phi(h.b) = h->(Phi b), with the
    inverse-twist forms, on every basis element.  Needs no cocommutativity."""
    rep = Report("intertwining", details={"fixture": conv.action.name})
    mul = conv.algebra.sparse_multiply
    phi, psi = conv.phi_matrix, conv.psi_matrix
    phib, psib = _basis_images(phi), _basis_images(psi)
    basis = [{r: 1} for r in range(conv.dim)]
    for i, (ia, da) in enumerate(zip(_basis_images(conv.iota_matrix),
                                     _basis_images(conv.del_matrix))):
        for r, b in enumerate(basis):
            if sparse_apply(phi, mul(ia, b)) != mul(da, phib[r]):
                rep.fail({"identity": "phi-iota", "a": i, "b": r})
            if sparse_apply(psi, mul(da, b)) != mul(ia, psib[r]):
                rep.fail({"identity": "psi-del", "a": i, "b": r})
    for hidx, (dot, rh) in enumerate(zip(conv.dot_operators, conv.rh_operators)):
        dotb, rhb = _basis_images(dot), _basis_images(rh)
        for r in range(conv.dim):
            if sparse_apply(phi, dotb[r]) != sparse_apply(rh, phib[r]):
                rep.fail({"identity": "phi-exchanges-actions", "h": hidx, "b": r})
            if sparse_apply(dot, psib[r]) != sparse_apply(psi, rhb[r]):
                rep.fail({"identity": "psi-exchanges-actions", "h": hidx, "b": r})
    return rep


def identity_report(conv: ConvolutionAlgebra) -> Report:
    """The full per-fixture identity battery.

    Covers: convolution associativity/unit, both action formulas against
    their tensor-split forms on A (x) H*, the intertwining identities, the
    twists being mutually inverse and fixing the unit, the factorization of
    the value-evaluation embedding through the twist, and the computation of
    the right-translation invariants.
    """
    rep = Report("identity-suite", details={"fixture": conv.action.name})
    F = conv.field
    A, H = conv.alg, conv.hopf
    nA, nH, nB = A.dim, H.dim, conv.dim
    base = verify_algebra(conv.algebra)
    if not base.ok:
        rep.fail({"identity": "convolution-associativity"})
        rep.witnesses.extend(base.witnesses[:3])

    emb = embedding_report(conv)
    if not emb.ok:
        rep.fail({"identity": "embeddings"})
        rep.witnesses.extend(emb.witnesses[:3])

    # action formulas against the tensor-split forms, via the hit action
    hit = [[nonzero_terms(F, row) for row in plane] for plane in hit_action(H).tensor]
    act = [[nonzero_terms(F, row) for row in plane] for plane in conv.action.tensor]
    for i, (rh, dot) in enumerate(zip(conv.rh_operators, conv.dot_operators)):
        rhb, dotb = _basis_images(rh), _basis_images(dot)
        for p in range(nH):
            for q in range(nA):
                b = conv.index(p, q)
                # h -> (a (x) f) = a (x) (h -> f)
                rhs = {conv.index(l, q): c for l, c in hit[i][p]}
                if rhb[b] != support(F, rhs):
                    rep.fail({"identity": "translation-splits", "h": i, "basis": [p, q]})
                # h . (a (x) f) = h_1.a (x) (h_2 -> f)
                rhs = {}
                for (u, v, c) in H.comul_sparse[i]:
                    for m, t1 in act[u][q]:
                        for l, t2 in hit[v][p]:
                            idx = conv.index(l, m)
                            rhs[idx] = rhs.get(idx, 0) + c * t1 * t2
                if dotb[b] != support(F, rhs):
                    rep.fail({"identity": "twist-splits", "h": i, "basis": [p, q]})

    inter = check_intertwining(conv)
    if not inter.ok:
        rep.fail({"identity": "intertwining"})
        rep.witnesses.extend(inter.witnesses[:3])

    # twists are mutually inverse, fix the unit, restrict to identity on H*
    ident = Matrix.identity(F, nB)
    if conv.phi_matrix.mat_mul(conv.psi_matrix) != ident:
        rep.fail({"identity": "phi-psi-inverse"})
    if conv.psi_matrix.mat_mul(conv.phi_matrix) != ident:
        rep.fail({"identity": "psi-phi-inverse"})
    if conv.phi(conv.one()).coords != conv.one().coords:
        rep.fail({"identity": "phi-fixes-unit"})
    for j in range(nH):
        f = [F.one if t == j else F.zero for t in range(nH)]
        uf = conv.ustar(f)
        if conv.phi(uf).coords != uf.coords:
            rep.fail({"identity": "phi-fixes-dual", "f": j})

    # evaluation embedding factors through the twist
    if conv.phi_matrix.mat_mul(conv.iota_matrix) != conv.del_matrix:
        rep.fail({"identity": "phi-iota-is-del"})

    # right-translation invariants are exactly the constant-value copy of A
    inv_rh = conv.translation_invariants
    if inv_rh != conv.iota_image:
        rep.fail({"identity": "translation-invariants",
                  "got-dim": inv_rh.dim, "want-dim": conv.iota_image.dim})
    return rep


def check_dotinv(conv: ConvolutionAlgebra) -> Report:
    """Multiplicativity of the twist and the two invariant computations.

    Multiplicativity must hold when the Hopf algebra is cocommutative and is
    expected to fail (with a witness) on non-cocommutative fixtures with a
    nontrivial action; the verdict is recorded, not asserted, so suites can
    pair it with the fixture's cocommutativity flag.
    """
    rep = Report("twist-multiplicativity", details={"fixture": conv.action.name})
    nB = conv.dim
    cocomm = is_cocommutative(conv.hopf)
    rep.details["cocommutative"] = cocomm
    witness = None
    phi = conv.phi_matrix
    phicols = _basis_images(phi)
    B = conv.algebra
    mul = B.sparse_multiply
    for i in range(nB):
        for j in range(nB):
            if sparse_apply(phi, dict(B.mult_sparse[i][j])) != mul(phicols[i], phicols[j]):
                witness = {"pair": [i, j]}
                break
        if witness:
            break
    rep.details["multiplicative"] = witness is None
    if witness:
        rep.witnesses.append(witness)
    if cocomm and witness is not None:
        rep.status = "fail"

    inv_dot = conv.invariants_of(conv.dot_operators)
    rep.details["twist-invariants-dim"] = inv_dot.dim
    rep.details["twist-invariants-match"] = (inv_dot == conv.psi_iota_image)
    if cocomm and not rep.details["twist-invariants-match"]:
        rep.status = "fail"
        rep.witnesses.append({"identity": "twist-invariants"})
    if conv.translation_invariants != conv.iota_image:
        rep.status = "fail"
        rep.witnesses.append({"identity": "translation-invariants"})
    return rep


# -- ideal-lattice transport ---------------------------------------------------

def transport_subspace(conv: ConvolutionAlgebra, sub_a: Subspace) -> Subspace:
    """Image of I (x) H* under the inverse twist, as a subspace of B."""
    if sub_a.ambient_dim != conv.alg.dim:
        raise ValueError("transport: subspace must live in A")
    tens = conv.tensor_with_dual(sub_a)
    vecs = [conv.psi_matrix.vec_mul(list(r)) for r in tens.rows]
    return Subspace.from_vectors(conv.field, conv.dim, vecs)


def restrict_subspace(conv: ConvolutionAlgebra, sub_b: Subspace) -> Subspace:
    """Apply the twist, intersect with the constant-value copy of A, and
    return coordinates in A."""
    if sub_b.ambient_dim != conv.dim:
        raise ValueError("restrict: subspace must live in B")
    vecs = [conv.phi_matrix.vec_mul(list(r)) for r in sub_b.rows]
    img = Subspace.from_vectors(conv.field, conv.dim, vecs)
    return pull_back(conv.iota_matrix, conv.iota_image, img)


def invariant_contract(conv: ConvolutionAlgebra, sub_b: Subspace) -> Subspace:
    """Intersect with the invariant subalgebra copy of A; A-coordinates."""
    return pull_back(conv.psi_iota_matrix, conv.psi_iota_image, sub_b)


def invariant_extend(conv: ConvolutionAlgebra, sub_a: Subspace) -> Subspace:
    """Two-sided ideal of B generated by the invariant-subalgebra image."""
    vecs = [conv.psi_iota_matrix.vec_mul(list(r)) for r in sub_a.rows]
    return ideal_closure(conv.algebra, vecs)


def check_transport(conv: ConvolutionAlgebra, sub_a: Subspace, t: Subspace) -> Report:
    """Round-trip of the three-corner ideal maps on one ideal of A, whose
    :func:`transport_subspace` is ``t``."""
    rep = Report("ideal-transport", details={"fixture": conv.action.name,
                                             "ideal-dim": sub_a.dim})
    if not subspace_is_ideal(conv.alg, sub_a):
        rep.status = "error"
        rep.details["reason"] = "input subspace is not a two-sided ideal"
        return rep
    if not subspace_is_ideal(conv.algebra, t):
        rep.fail({"identity": "transport-is-ideal"})
    if not is_stable(t, conv.dot_operators):
        rep.fail({"identity": "transport-is-stable"})
    if t.dim != sub_a.dim * conv.hopf.dim:
        rep.fail({"identity": "transport-dim"})
    back = restrict_subspace(conv, t)
    if back != sub_a:
        rep.fail({"identity": "restrict-roundtrip"})
    contracted = invariant_contract(conv, t)
    if contracted != sub_a:
        rep.fail({"identity": "contract-roundtrip"})
    ext = invariant_extend(conv, contracted)
    if ext != t:
        rep.fail({"identity": "extend-roundtrip"})
    return rep


def enumerate_h_ideals(conv: ConvolutionAlgebra, bound=None):
    """All twist-stable two-sided ideals of B (prime fields): the subspaces
    kept by multiplication by B's generators and by the twisted operators
    of H's generators, enumerated by :func:`~hopfact.linalg.stable_subspaces`."""
    B = conv.algebra
    dots = [conv.dot_operators[g] for g in conv.hopf.alg.generators]
    return stable_subspaces(conv.field, B.dim, B.generator_operators + dots, bound)


def check_dotinv_lattice(conv: ConvolutionAlgebra, bound=None) -> Report:
    """Exhaustive three-corner bijection check over a prime field.

    Enumerates every ideal of A and every twist-stable ideal of B and
    verifies that transport is a bijection between them commuting with the
    restriction and invariant-corner maps.
    """
    rep = Report("ideal-lattice-bijection", details={"fixture": conv.action.name})
    A = conv.alg
    ideals_a = stable_subspaces(conv.field, A.dim, A.generator_operators, bound)
    rep.details["ideals-of-A"] = len(ideals_a)
    transported = {}
    for ia in ideals_a:
        t = transport_subspace(conv, ia)
        sub = check_transport(conv, ia, t)
        if not sub.ok:
            rep.fail({"ideal-dim": ia.dim})
            rep.witnesses.extend(sub.witnesses[:2])
        transported[t.rows] = ia
    h_ideals = enumerate_h_ideals(conv, bound)
    rep.details["h-ideals-of-B"] = len(h_ideals)
    if len(h_ideals) != len(ideals_a):
        rep.fail({"identity": "corner-counts",
                  "ideals": len(ideals_a), "h-ideals": len(h_ideals)})
    for hb in h_ideals:
        if hb.rows not in transported:
            rep.fail({"identity": "unreached-h-ideal", "dim": hb.dim})
    return rep


def stability_scan(conv: ConvolutionAlgebra, bound=None) -> Report:
    """Exhaustive check that the subspaces of A (x) H* stable under right
    multiplication by the dual copy and under right translation are exactly
    the W (x) H*; the count must match the subspace count of A."""
    rep = Report("stability-scan", details={"fixture": conv.action.name})
    F = conv.field
    p = F.characteristic()
    if p != 2:
        rep.status = "error"
        rep.details["reason"] = "stability scan is an F_2 oracle"
        return rep
    # f -> f (x) 1 is a unital algebra map from H* and right translation a
    # module action of H, so their generators suffice
    B, dual = conv.algebra, dual_hopf(conv.hopf).alg
    ops = [B.right_mult_matrix(conv.ustar_matrix.vec_mul(dual.basis_vector(r)))
           for r in dual.generators]
    ops += [conv.rh_operators[g] for g in conv.hopf.alg.generators]
    stable = stable_subspaces(F, conv.dim, ops, bound)
    rep.details["stable-count"] = len(stable)
    expected = {}
    for w in enumerate_subspaces(F, conv.alg.dim, bound):
        expected[conv.tensor_with_dual(w).rows] = w
    rep.details["expected-count"] = len(expected)
    rep.details["subspace-count-of-A"] = subspace_count(p, conv.alg.dim)
    if len(expected) != rep.details["subspace-count-of-A"]:
        rep.fail({"identity": "expected-count-mismatch"})
    got = {s.rows for s in stable}
    if got != set(expected):
        rep.fail({"identity": "stable-set-mismatch",
                  "only-got": len(got - set(expected)),
                  "only-expected": len(set(expected) - got)})
    return rep
