from fractions import Fraction

import pytest

from hopfact.linalg import QQ, GF
from hopfact.hopf import (FiniteAlgebra, group_algebra, dual_hopf, tensor_hopf,
                          tensor_algebra_prod, verify_algebra, verify_hopf,
                          is_cocommutative, restricted_line_hopf,
                          cyclic_group_table, symmetric_group_table,
                          matrix_algebra, ideal_closure)


def test_verify_algebra_examples(ws):
    assert verify_algebra(ws.hopfs["qc2"].alg).status == "pass"
    assert verify_algebra(ws.algebras["m2q"]).status == "pass"


def test_verify_algebra_corrupted():
    a = matrix_algebra(QQ, 2)
    a.mult[0][0][0] = Fraction(5)
    rep = verify_algebra(FiniteAlgebra(QQ, 4, a.mult, a.unit))
    assert rep.status == "fail"
    assert any(w.get("axiom") in ("associativity", "left-unit", "right-unit")
               for w in rep.witnesses)


def test_verify_hopf_examples(ws):
    assert verify_hopf(ws.hopfs["qc2"]).status == "pass"
    assert verify_hopf(ws.hopfs["sweedler4"]).status == "pass"


def test_verify_hopf_bad_comul():
    # redefine the coproduct of g as g (x) 1: breaks the counit law
    h = group_algebra(cyclic_group_table(2), QQ)
    h.comul_sparse[1] = [(1, 0, Fraction(1))]
    rep = verify_hopf(h)
    assert rep.status == "fail"
    assert any(w.get("axiom") == "counit" for w in rep.witnesses)


def test_cocommutativity(ws):
    assert is_cocommutative(ws.hopfs["qc2"])
    assert is_cocommutative(ws.hopfs["qs3"])
    assert not is_cocommutative(ws.hopfs["qs3dual"])
    assert not is_cocommutative(ws.hopfs["sweedler4"])
    assert is_cocommutative(ws.hopfs["qc2dual"])  # C2 abelian


def test_group_algebra_rejects_non_group():
    with pytest.raises(ValueError):
        group_algebra([[0, 1], [1, 1]], QQ)
    with pytest.raises(ValueError):
        group_algebra([[1, 0], [1, 0]], QQ)


def test_group_algebra_s3():
    h = group_algebra(symmetric_group_table(3), QQ)
    assert h.dim == 6
    assert verify_hopf(h).status == "pass"
    assert is_cocommutative(h)


def test_dual_hopf_idempotents(ws):
    d = ws.hopfs["qc2dual"]
    # dual basis multiplies pointwise: p_i p_j = delta_ij p_i
    for i in range(2):
        for j in range(2):
            expect = [Fraction(0)] * 2
            if i == j:
                expect[i] = Fraction(1)
            assert d.alg.basis_product(i, j) == expect
    # coproduct of p_1 is p_1 (x) p_1 + p_2 (x) p_2 (indices over C2 mult)
    col = [d.comul.data[r][0] for r in range(4)]
    assert col == [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    assert d.alg.is_commutative()


def test_double_dual_is_original(ws):
    h = ws.hopfs["qc2"]
    dd = dual_hopf(dual_hopf(h))
    assert dd.alg.mult == h.alg.mult
    assert dd.alg.unit == h.alg.unit
    assert dd.comul.data == h.comul.data
    assert dd.counit == h.counit
    assert dd.antipode.data == h.antipode.data


def test_dual_flips_commutativity(ws):
    s3 = ws.hopfs["qs3"]
    d = ws.hopfs["qs3dual"]
    assert not s3.alg.is_commutative() and is_cocommutative(s3)
    assert d.alg.is_commutative() and not is_cocommutative(d)


def test_tensor_products(ws):
    c2 = ws.hopfs["qc2"]
    t = tensor_hopf(c2, c2)
    assert t.dim == 4
    assert verify_hopf(t).status == "pass"
    # kC2 (x) kC2 has the Klein group's multiplication table
    klein = group_algebra([[i ^ j for j in range(4)] for i in range(4)], QQ)
    assert t.alg.mult == klein.alg.mult
    # tensoring with the base field changes nothing
    k = group_algebra(cyclic_group_table(1), QQ)
    ta = tensor_algebra_prod(c2.alg, k.alg)
    assert ta.mult == c2.alg.mult and ta.unit == c2.alg.unit


def test_primitives():
    # x primitive, x -> x (x) 1 + 1 (x) x, is multiplicative on F_p[x]/(x^p)
    # because the binomial coefficients of (x (x) 1 + 1 (x) x)^p vanish mod p
    for p in (2, 3, 5):
        assert verify_hopf(restricted_line_hopf(p)).status == "pass"


def test_sweedler_relations(ws):
    sw = ws.hopfs["sweedler4"]
    one, g, x, gx = (sw.basis_vector(i) for i in range(4))
    mul = sw.alg.multiply
    assert mul(g, g) == one
    assert mul(x, x) == [Fraction(0)] * 4
    neg_gx = [-c for c in gx]
    assert mul(x, g) == neg_gx and mul(g, x) == gx


def test_ideal_closure():
    m2 = matrix_algebra(QQ, 2)
    # a matrix unit generates the whole simple algebra
    closure = ideal_closure(m2, [m2.basis_vector(1)])
    assert closure.dim == 4


def test_dual_commutativity_flip_whole_corpus(ws):
    for name, h in ws.hopfs.items():
        d = dual_hopf(h)
        if is_cocommutative(h):
            assert d.alg.is_commutative(), name
        if h.alg.is_commutative():
            assert is_cocommutative(d), name


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_sparse_multiply_is_multiply(ws, field):
    """x y on dicts of nonzero coordinates equals the dense product."""
    import random
    rng = random.Random(f"sparse-multiply/{field!r}")
    algs = [a for a in ws.algebras.values() if a.field == field]
    algs += [matrix_algebra(field, 2), group_algebra(symmetric_group_table(3), field).alg]
    for alg in algs:
        for _ in range(6):
            x, y = ([field.parse(rng.choice([0, 0, 1, -1, 2])) for _ in range(alg.dim)]
                    for _ in range(2))
            got = alg.sparse_multiply({i: c for i, c in enumerate(x) if c},
                                      {j: c for j, c in enumerate(y) if c})
            assert got == {k: c for k, c in enumerate(alg.multiply(x, y)) if c}, alg.name
