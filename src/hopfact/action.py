"""Hopf algebra actions on algebras as rank-3 tensors.

An action stores ``tensor[i][j][k]``: the i-th Hopf basis element sends the
j-th algebra basis element to ``sum_k tensor[i][j][k] a_k``.  Everything a
verifier needs (module axioms, measuring) is then a finite loop over basis
elements.

The coaction lands in H* (x) A on the basis of :func:`linalg.kron_sum`,
the Hopf factor first, as the convolution algebra does.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import (Matrix, Subspace, apply_combination, closure, combine,
                     is_stable, kernel, kron_sum, parse_dense, support)
from .hopf import (FiniteAlgebra, HopfAlgebra, coassociativity_failures,
                   counit_failures, dual_hopf, scan_generators, verify_algebra)
from .report import Report


class ModuleAlgebraAction:
    """A measuring action of a Hopf algebra on a finite-dimensional algebra."""

    def __init__(self, hopf: HopfAlgebra, alg: FiniteAlgebra, tensor, name=None):
        F = hopf.field
        if alg.field != F:
            raise ValueError("action: field mismatch between Hopf algebra and algebra")
        self.hopf = hopf
        self.alg = alg
        self.tensor = parse_dense(F, tensor, (hopf.dim, alg.dim, alg.dim), "tensor")
        self.name = name

    @property
    def field(self):
        return self.hopf.field

    @cached_property
    def operator_matrices(self):
        """Matrix of each Hopf basis element acting on A coordinates."""
        nA = self.alg.dim
        return [Matrix(self.field, nA, nA, plane).transpose() for plane in self.tensor]

    def act_basis(self, i, avec):
        return self.operator_matrices[i].vec_mul(avec)

    @cached_property
    def generator_operators(self):
        """The operators of H's generators (:attr:`FiniteAlgebra.generators`
        of ``hopf.alg``): the h with h.W in W form a subalgebra of H, so
        these keep exactly the action-stable subspaces."""
        return [self.operator_matrices[g] for g in self.hopf.alg.generators]

    def subspace_stable(self, sub: Subspace) -> bool:
        return is_stable(sub, self.generator_operators)

    def to_json(self):
        F = self.field
        return {
            "hopf": self.hopf.name,
            "algebra": self.alg.name,
            "tensor": [[[F.render(c) for c in row] for row in plane]
                       for plane in self.tensor],
            **({"name": self.name} if self.name else {}),
        }

    def __repr__(self):
        return (f"ModuleAlgebraAction({self.name or '?'}: "
                f"{self.hopf.name} on {self.alg.name})")


class Representation:
    """An algebra map from a Hopf algebra into End(V), one matrix per basis."""

    def __init__(self, hopf: HopfAlgebra, rho, name=None):
        """Parse dense data: rho[i], the square matrix of basis element i;
        every matrix has the size of rho[0]."""
        if len(rho) != hopf.dim:
            raise ValueError("need one matrix per Hopf basis element")
        if not isinstance(rho[0], list):
            raise ValueError(f'rho["0"]: expected a square list of rows, got {rho[0]!r}')
        F = hopf.field
        self.hopf = hopf
        self.dim_v = n = len(rho[0])
        self.rho = [Matrix(F, n, n, parse_dense(F, m, (n, n), f'rho["{i}"]'))
                    for i, m in enumerate(rho)]
        self.name = name

    def of(self, hvec) -> Matrix:
        return combine(hvec, self.rho)

    def verify(self) -> Report:
        """rho(1) = id and rho(x y) = rho(x) rho(y) on basis pairs.

        Generator lemma: when rho(1) = id and H is associative with a
        two-sided unit, the x with rho(x y) = rho(x) rho(y) for all y form a
        unital subalgebra, so x runs over the generators of H."""
        rep = Report("representation-axioms", details={"name": self.name})
        F = self.hopf.field
        halg = self.hopf.alg
        unital = self.of(halg.unit) == Matrix.identity(F, self.dim_v)
        if not unital:
            rep.fail({"axiom": "unit"})
        ready = unital and verify_algebra(halg).ok
        for pair in scan_generators(halg, ready, lambda outer: _multiplicative_failures(
                halg, self.rho, outer)):
            rep.fail({"axiom": "multiplicative", "pair": pair})
        return rep


def _multiplicative_failures(alg: FiniteAlgebra, mats, firsts):
    """The pairs [i, j], i in ``firsts``, with mats[i] mats[j] != the
    combination of ``mats`` that e_i e_j is."""
    return [[i, j] for i in firsts for j in range(alg.dim)
            if mats[i].mat_mul(mats[j]) != combine(alg.basis_product(i, j), mats)]


def verify_action(act: ModuleAlgebraAction) -> Report:
    """Module axioms plus the measuring conditions, all on basis elements.

    Generator lemmas, each used only after its preconditions pass here:
    - module associativity: when 1 acts as the identity and H is
      associative with a two-sided unit, the h with (h h').a = h.(h'.a) for
      all h', a form a unital subalgebra, so h runs over the generators
      of H;
    - measuring: when A is associative with a two-sided unit, H is
      coassociative and satisfies the counit law, and h.1 = eps(h) 1, the a
      with h.(a b) = (h_1.a)(h_2.b) for all h, b form a unital subalgebra,
      so a runs over the generators of A.
    """
    rep = Report("action-axioms", details={"name": act.name})
    F = act.field
    H, A = act.hopf, act.alg
    nA = A.dim
    ops = act.operator_matrices

    # unit of H acts as identity
    unit_fails = [j for j in range(nA)
                  if apply_combination(H.alg.unit, ops, A.basis_vector(j))
                  != A.basis_vector(j)]
    for j in unit_fails:
        rep.fail({"axiom": "unit-acts-trivially", "basis": j})

    # associativity of the module structure on basis pairs
    ready = not unit_fails and verify_algebra(H.alg).ok
    for pair in scan_generators(H.alg, ready, lambda outer: _multiplicative_failures(
            H.alg, ops, outer)):
        rep.fail({"axiom": "module-associativity", "pair": pair})

    # h . 1 = eps(h) 1
    unit_rule_fails = [i for i in range(H.dim)
                       if act.act_basis(i, A.unit) != [F.mul(H.counit[i], u) for u in A.unit]]
    for i in unit_rule_fails:
        rep.fail({"axiom": "measuring-unit", "hopf-basis": i})

    # h . (a b) = (h_1 . a)(h_2 . b)
    ready = (not unit_rule_fails and verify_algebra(A).ok
             and not coassociativity_failures(H) and not counit_failures(H))
    for triple in scan_generators(A, ready, lambda outer: _measuring_failures(act, outer)):
        rep.fail({"axiom": "measuring", "triple": triple})
    return rep


def _measuring_failures(act: ModuleAlgebraAction, middles):
    """The triples [i, j, k], j in ``middles``, with h_i . (e_j e_k) !=
    sum (h_i1 . e_j)(h_i2 . e_k); every k of one (i, j) at once, keyed
    (k, q)."""
    F, A = act.field, act.alg
    sparse, partners = A.mult_sparse, A.right_partners
    # images[p][j]: the terms of h_p . e_j; preimages[r][l]: the (k, b)
    # with b the coefficient of e_l in h_r . e_k
    images = [[[(m, c) for m, c in enumerate(row) if c] for row in plane]
              for plane in act.tensor]
    preimages = []
    for plane in images:
        by_image = [[] for _ in range(A.dim)]
        for k, terms in enumerate(plane):
            for l, b in terms:
                by_image[l].append((k, b))
        preimages.append(by_image)
    out = []
    for i, img_i in enumerate(images):
        for j in middles:
            diff = {}
            sp_j = sparse[j]
            for k in partners[j]:
                for m, c in sp_j[k]:
                    for q, d in img_i[m]:
                        diff[k, q] = diff.get((k, q), 0) + c * d
            for p, r, c in act.hopf.comul_sparse[i]:
                pre_r = preimages[r]
                for m, a in images[p][j]:
                    ca = c * a
                    sp_m = sparse[m]
                    for l in partners[m]:
                        for k, b in pre_r[l]:
                            cab = ca * b
                            for q, d in sp_m[l]:
                                diff[k, q] = diff.get((k, q), 0) - cab * d
            out.extend([i, j, k] for k in sorted({k for k, _ in support(F, diff)}))
    return out


def invariants_of(ops, counit) -> Subspace:
    """Joint eigenspace {v : op_i v = eps_i v}: the kernel of the stacked
    op_i - eps_i I, one operator per Hopf basis element."""
    F = ops[0].field
    rows = []
    for op, e in zip(ops, counit):
        for r, row in enumerate(op.data):
            rows.append(list(row))
            rows[-1][r] = F.sub(row[r], e)
    return kernel(Matrix.from_rows(F, rows, ops[0].ncols))


def comodule_map(act: ModuleAlgebraAction) -> Matrix:
    """The coaction A -> A (x) H* determined by evaluation against the action.

    Target coordinates are (p, q) -> p * dim(A) + q, so the matrix is a
    re-index of the tensor and h.a = a_0 <a_1, h> holds by construction.
    """
    nH, nA = act.hopf.dim, act.alg.dim
    rows = [[plane[j][q] for j in range(nA)] for plane in act.tensor
            for q in range(nA)]
    return Matrix(act.field, nH * nA, nA, rows)


def matrix_coefficients(rep: Representation):
    """Coordinate vectors in H* of the matrix coefficient functionals.

    Entry (i, j) of the list is the functional h -> (rho h)_{i,j}, returned
    as its coordinates over the dual basis.
    """
    n = rep.hopf.dim
    out = []
    for i in range(rep.dim_v):
        for j in range(rep.dim_v):
            out.append([rep.rho[k].data[i][j] for k in range(n)])
    return out


def coefficient_subalgebra(h: HopfAlgebra, coeffs) -> Subspace:
    """Smallest dual subspace containing the counit, the given functionals
    and their antipode images, closed under the convolution product.

    The counit is the unit of H*, so this is the span of all products of
    generators: the closure under left multiplication by each generator.
    """
    dual = dual_hopf(h)
    gens = [list(h.counit)] + [list(c) for c in coeffs]
    gens += [dual.s_apply(c) for c in coeffs]
    return closure(Subspace.from_vectors(h.field, h.dim, gens),
                   [dual.alg.left_mult_matrix(g) for g in gens])


def verify_sub_hopf(h: HopfAlgebra, sub: Subspace) -> "Report":
    """Certify a subspace of the dual as a Hopf subalgebra: contains the
    counit, closed under the convolution product and the antipode image,
    and its coproduct lands in the tensor square of the subspace."""
    rep = Report("sub-hopf-certificate", details={"dim": sub.dim})
    F = h.field
    n = h.dim
    if sub.ambient_dim != n:
        rep.status = "error"
        rep.details["reason"] = "subspace does not live in the dual"
        return rep
    if not sub.contains(list(h.counit)):
        rep.fail({"axiom": "contains-counit"})
    dual = dual_hopf(h)
    basis = sub.basis_vectors()
    for f in basis:
        if not sub.contains(dual.s_apply(f)):
            rep.fail({"axiom": "antipode-stable"})
        for g in basis:
            if not sub.contains(dual.alg.multiply(f, g)):
                rep.fail({"axiom": "product-closed"})
    pairs = kron_sum([(F.one, sub.to_matrix(), sub.to_matrix())])
    pair_span = Subspace.from_vectors(F, n * n, pairs.data)
    for f in basis:
        if not pair_span.contains(dual.delta(f)):
            rep.fail({"axiom": "coproduct-stable"})
    return rep


def hit_action(h: HopfAlgebra, name=None) -> ModuleAlgebraAction:
    """The right-translation action of H on its dual: <h -> f, k> = <f, kh>."""
    n = h.dim
    dual = dual_hopf(h)
    tensor = [[[h.alg.mult[l][i][j] for l in range(n)] for j in range(n)]
              for i in range(n)]
    act = ModuleAlgebraAction(h, dual.alg, tensor,
                              name=name or f"hit:{h.name}")
    check = verify_action(act)
    if not check.ok:
        raise ValueError(f"hit action failed measuring verification: {check.witnesses[:3]}")
    return act


# -- stock action builders -----------------------------------------------------

def action_from_operators(hopf: HopfAlgebra, alg: FiniteAlgebra, mats, name=None):
    """Action tensor from one operator matrix per Hopf basis element."""
    tensor = [[[m.data[k][j] for k in range(alg.dim)] for j in range(alg.dim)]
              for m in mats]
    return ModuleAlgebraAction(hopf, alg, tensor, name=name)


def trivial_action(hopf: HopfAlgebra, alg: FiniteAlgebra, name=None):
    """h . a = eps(h) a."""
    ident = Matrix.identity(hopf.field, alg.dim)
    mats = [combine([e], [ident]) for e in hopf.counit]
    return action_from_operators(hopf, alg, mats,
                                 name=name or f"trivial:{hopf.name}:{alg.name}")


def grading_action(group_hopf: HopfAlgebra, name=None, dual=None):
    """The dual (kG)* acting on kG by projection onto group components."""
    F = group_hopf.field
    n = group_hopf.dim
    if dual is None:
        dual = dual_hopf(group_hopf)
    tensor = [[[F.one if i == j == k else F.zero for k in range(n)]
               for j in range(n)] for i in range(n)]
    return ModuleAlgebraAction(dual, group_hopf.alg, tensor,
                               name=name or f"grading:{group_hopf.name}")
