from fractions import Fraction

from hopfact.linalg import QQ, Subspace
from hopfact.hopf import dual_hopf
from hopfact.action import (ModuleAlgebraAction, Representation, verify_action,
                            invariants_of, comodule_map, matrix_coefficients,
                            coefficient_subalgebra, hit_action)


def test_verify_action_fixtures(ws):
    for name in ("swap", "grading", "grading2", "conj", "sweedler-act"):
        assert verify_action(ws.actions[name]).status == "pass"


def test_verify_action_bad_unit_rule(ws):
    # g.(1) = g is not eps(g) 1: fails the unit measuring rule
    tensor = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    bad = ModuleAlgebraAction(ws.hopfs["qc2"], ws.algebras["qxq"],
                              [[[1, 0], [0, 1]], [[0, 1], [0, 1]]])
    rep = verify_action(bad)
    assert rep.status == "fail"


def test_invariants(ws):
    swap, triv, grading = (ws.actions[n] for n in ("swap", "trivial-m2", "grading"))
    inv = invariants_of(swap.operator_matrices, swap.hopf.counit)
    assert inv.rows == ((Fraction(1), Fraction(1)),)
    # trivial action: everything invariant
    assert invariants_of(triv.operator_matrices, triv.hopf.counit).dim == 4
    # grading: only the identity component
    inv = invariants_of(grading.operator_matrices, grading.hopf.counit)
    assert inv.rows == ((Fraction(1), Fraction(0)),)


def test_comodule_map_values(ws):
    act = ws.actions["swap"]
    dm = comodule_map(act)
    # invariant vector (1,1): coaction is (1,1) (x) eps
    col = dm.vec_mul([1, 1])
    assert col == [1, 1, 1, 1]  # (p,q) index: eps has both dual coords one
    # a = (1,0): value at g is (0,1)
    col = dm.vec_mul([1, 0])
    assert [col[1 * 2 + 0], col[1 * 2 + 1]] == [0, 1]


def test_matrix_coefficients_sign_rep(ws):
    rep = ws.representations["signrep"]
    mc = matrix_coefficients(rep)
    assert mc[0] == [Fraction(1), Fraction(1)]      # the counit
    assert mc[3] == [Fraction(1), Fraction(-1)]     # the sign character
    assert mc[1] == [Fraction(0)] * 2 and mc[2] == [Fraction(0)] * 2
    # 2x2 oracle by hand: rho(g) = diag(1,-1), cofactor_{22} = 1, det = -1
    assert dual_hopf(rep.hopf).s_apply(mc[3])[1] == Fraction(1) / Fraction(-1)


def test_matrix_coefficients_identity_rep(ws):
    rep = Representation(ws.hopfs["qc2"],
                         [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    mc = matrix_coefficients(rep)
    eps = list(ws.hopfs["qc2"].counit)
    assert mc[0] == eps and mc[3] == eps
    assert mc[1] == [Fraction(0)] * 2


def test_regular_rep_coefficients_span(ws):
    reg = Representation(ws.hopfs["qc2"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    span = Subspace.from_vectors(QQ, 2, matrix_coefficients(reg))
    assert span.dim == 2


def test_coefficient_subalgebra(ws):
    c2 = ws.hopfs["qc2"]
    sign = [Fraction(1), Fraction(-1)]
    assert coefficient_subalgebra(c2, [sign]).dim == 2
    assert coefficient_subalgebra(c2, [list(c2.counit)]).dim == 1
    # closure under the dual product and antipode image, counit inside
    s3 = ws.hopfs["qs3"]
    coeffs = matrix_coefficients(ws.representations["perm3"])
    sub = coefficient_subalgebra(s3, coeffs)
    # products of two coefficient indicators separate the six group
    # elements, so the closure is the whole dual
    assert sub.dim == 6
    dual = dual_hopf(s3)
    for f in coeffs:
        assert sub.contains(dual.s_apply(f))
    assert sub.contains(list(s3.counit))
    for f in sub.basis_vectors():
        for g in sub.basis_vectors():
            assert sub.contains(dual.alg.multiply(f, g))


def test_coefficient_subalgebra_character_class_functions(ws):
    # seeded with the permutation character alone the closure is the
    # three-dimensional algebra of class functions of S3
    s3 = ws.hopfs["qs3"]
    coeffs = matrix_coefficients(ws.representations["perm3"])
    char = [sum(coeffs[i * 3 + i][k] for i in range(3)) for k in range(6)]
    sub = coefficient_subalgebra(s3, [char])
    assert sub.dim == 3


def test_coefficient_subalgebra_delta_stable(ws):
    c2 = ws.hopfs["qc2"]
    sub = coefficient_subalgebra(c2, [[Fraction(1), Fraction(-1)]])
    dual = dual_hopf(c2)
    # tensor square of the subspace inside the dual of the tensor
    pair_span = Subspace.from_vectors(
        QQ, 4, [[a * b for a in f for b in g]
                for f in sub.basis_vectors() for g in sub.basis_vectors()])
    for f in sub.basis_vectors():
        assert pair_span.contains(dual.delta(f))


def test_hit_action(ws):
    c2 = ws.hopfs["qc2"]
    hit = hit_action(c2)
    assert verify_action(hit).status == "pass"
    # g moves the idempotent at the identity to the one at g
    assert hit.act_basis(1, [1, 0]) == [0, 1]
    # acting by 1 fixes everything
    assert hit.act_basis(0, [3, 5]) == [3, 5]
    # evaluation at 1 recovers the original functional evaluated at h
    f = [Fraction(2), Fraction(7)]
    for hidx in range(2):
        moved = hit.act_basis(hidx, f)
        unit_coords = c2.alg.unit
        val = sum(m * u for m, u in zip(moved, unit_coords))
        assert val == f[hidx]


def test_representation_verifier(ws):
    rep = Representation(ws.hopfs["qc2"], [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])
    assert rep.verify().status == "fail"   # that matrix has infinite order


def test_verify_sub_hopf(ws):
    from hopfact.action import verify_sub_hopf, coefficient_subalgebra
    c2 = ws.hopfs["qc2"]
    whole = Subspace.full(QQ, 2)
    assert verify_sub_hopf(c2, whole).status == "pass"
    counit_line = Subspace.from_vectors(QQ, 2, [list(c2.counit)])
    assert verify_sub_hopf(c2, counit_line).status == "pass"
    # a random line through the origin is not a sub-Hopf subspace
    bad = Subspace.from_vectors(QQ, 2, [[1, 0]])
    assert verify_sub_hopf(c2, bad).status == "fail"
    # coefficient subalgebras certify by construction
    sub = coefficient_subalgebra(c2, [[Fraction(1), Fraction(-1)]])
    assert verify_sub_hopf(c2, sub).status == "pass"
