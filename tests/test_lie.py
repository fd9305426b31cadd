import random
from fractions import Fraction

import pytest

from hopfact.linalg import QQ, GF, stable_subspaces
from hopfact.hopf import truncated_poly_algebra, dual_number_plane_algebra
from hopfact.ideals import Ideal
from hopfact.lie import (LieAction, verify_lie_action, lie_core,
                         lie_semiprime_transfer_check,
                         indices_up_to, pbw_comul, monomial_cmp,
                         TruncatedSeries, AlgebraRing,
                         lowest_coefficient, algebra_map_functional,
                         counit_functional, conv_mult_functionals,
                         convolution_power, series_iso_phi,
                         phi_multiplicativity_report, charp_grouplike_demo,
                         check_truncation)

from test_merged_helpers import ideal_operators_oracle


def test_verify_euler(ws):
    assert verify_lie_action(ws.lie_actions["euler"]).status == "pass"
    assert verify_lie_action(ws.lie_actions["zeroder"]).status == "pass"


def test_verify_naive_ddx_fails():
    # d/dx is not well-defined on Q[x]/(x^3): the Leibniz check sees it
    x3 = truncated_poly_algebra(QQ, 3)
    naive = LieAction(x3, [[[0, 1, 0], [0, 0, 2], [0, 0, 0]]])
    rep = verify_lie_action(naive)
    assert rep.status == "fail"
    assert any(w["axiom"] == "leibniz" for w in rep.witnesses)


def test_verify_bracket_compatibility():
    jet = dual_number_plane_algebra(QQ)
    d1 = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]      # x -> y
    d2 = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]      # x -> x, y -> 2y
    # oracle by hand: [d1, d2] x = d1(x) - d2(y) = y - 2y = -y, so the
    # bracket is -d1; declaring it zero must fail
    bad = LieAction(jet, [d1, d2],
                    brackets=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    rep = verify_lie_action(bad)
    assert rep.status == "fail"
    assert any(w["axiom"] == "bracket-compatibility" for w in rep.witnesses)
    good = LieAction(jet, [d1, d2],
                     brackets=[[[0, 0], [-1, 0]], [[1, 0], [0, 0]]])
    assert verify_lie_action(good).status == "pass"


def test_lie_core_examples(ws):
    euler = ws.lie_actions["euler"]
    xbar = ws.ideals["xbar"]
    assert lie_core(euler, xbar).space == xbar.space
    nil = ws.lie_actions["nilshift"]
    assert lie_core(nil, ws.ideals["xline"]).dim == 0
    assert lie_core(nil, ws.ideals["xyline"]).space == ws.ideals["xyline"].space
    zero = ws.lie_actions["zeroder"]
    assert lie_core(zero, xbar).space == xbar.space


def test_lie_core_fixed_point_and_maximality(ws):
    for name in ("f2nilshift", "f3euler"):
        lact = ws.lie_actions[name]
        for gens in ([], [[0, 1, 0]], [[0, 1, 0], [0, 0, 1]]):
            ideal = Ideal.generate(lact.alg, gens)
            c = lie_core(lact, ideal)
            assert lie_core(lact, c).space == c.space
            ops = ideal_operators_oracle(lact.alg) + lact.derivations
            for stable in stable_subspaces(lact.field, lact.alg.dim, ops, bound=4096):
                if stable.le(ideal.space):
                    assert stable.le(c.space)


def test_lie_transfer(ws):
    euler = ws.lie_actions["euler"]
    rep = lie_semiprime_transfer_check(euler, ws.ideals["xbar"])
    assert rep.status == "pass"
    assert rep.details["input"]["prime"] is True
    assert rep.details["input"]["completely-prime"] is True
    nil = ws.lie_actions["nilshift"]
    assert lie_semiprime_transfer_check(nil, ws.ideals["xyline"]).status == "pass"
    # characteristic p inputs are refused
    rep = lie_semiprime_transfer_check(ws.lie_actions["f3euler"],
                                       ws.ideals["f3xbar"])
    assert rep.status == "error"


def test_indices_and_comul():
    idx = indices_up_to(2, 2)
    assert idx[0] == (0, 0)
    assert len(idx) == 6
    assert pbw_comul((0,), 6) == [((0,), (0,))]
    assert pbw_comul((2,), 6) == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
    assert len(pbw_comul((1, 1), 6)) == 4
    with pytest.raises(ValueError):
        pbw_comul((7,), 6)


def compositions_oracle(nvars, total):
    """The exponent tuples of one total degree, lexicographically
    descending, by recursion on the number of variables."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions_oracle(nvars - 1, total - head):
            yield (head,) + rest


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_indices_follow_the_recursive_order(nvars):
    for degree in range(7):
        want = [n for total in range(degree + 1) for n in compositions_oracle(nvars, total)]
        assert indices_up_to(nvars, degree) == want, degree
    # more variables than the recursion limit allows frames
    assert len(indices_up_to(1500, 1)) == 1501
    with pytest.raises(ValueError):
        indices_up_to(0, 2)


def test_monomial_order_axioms():
    idx = indices_up_to(2, 3)
    zero = (0, 0)
    for a in idx:
        assert monomial_cmp(zero, a) <= 0
        assert monomial_cmp(a, a) == 0
        for b in idx:
            assert monomial_cmp(a, b) == -monomial_cmp(b, a)
            for c in idx:
                shifted = monomial_cmp(tuple(x + y for x, y in zip(a, c)),
                                       tuple(x + y for x, y in zip(b, c)))
                assert shifted == monomial_cmp(a, b)
    # total: any finite set has a unique minimum
    smallest = min(idx, key=lambda n: (sum(n), n))
    assert smallest == zero


def test_exp_series_convolution():
    # oracle: values of the product functional are 2^n / n! (binomial sum)
    ring = QQ
    f = algebra_map_functional(QQ, 1, 6, [1])
    conv = conv_mult_functionals(f, f, 1, 6, ring)
    fact = [1, 1, 2, 6, 24, 120, 720]
    for n in range(7):
        assert conv[(n,)] == Fraction(2 ** n, fact[n])
    assert phi_multiplicativity_report(QQ, 1, 6, [(f, f)]).status == "pass"


def test_unit_functional_maps_to_one():
    ring = QQ
    eps = counit_functional(QQ, 2, 4)
    s = series_iso_phi(eps, 2, 4, ring)
    assert s.coeffs == {(0, 0): Fraction(1)}
    f = algebra_map_functional(QQ, 2, 4, [1, 1])
    assert conv_mult_functionals(eps, f, 2, 4, ring) == f


def test_phi_multiplicativity_random_pairs():
    rng = random.Random(424242)
    idx = indices_up_to(2, 5)
    pairs = []
    for _ in range(100):
        f = {i: Fraction(rng.randint(-3, 3)) for i in idx if rng.random() < 0.5}
        g = {i: Fraction(rng.randint(-3, 3)) for i in idx if rng.random() < 0.5}
        pairs.append(({k: v for k, v in f.items() if v},
                      {k: v for k, v in g.items() if v}))
    assert phi_multiplicativity_report(QQ, 2, 5, pairs).status == "pass"


def test_truncation_guard():
    with pytest.raises(ValueError):
        algebra_map_functional(GF(3), 1, 3, [1])
    check_truncation(GF(5), 4)
    with pytest.raises(ValueError):
        check_truncation(GF(5), 5)


def test_charp_demos():
    for p in (2, 3, 5):
        rep = charp_grouplike_demo(p)
        assert rep.status == "pass", rep.witnesses
        assert rep.details["nilpotent-support"]
    # f = eps trivially has eps^p = eps
    ring = GF(3)
    eps = counit_functional(GF(3), 1, 2)
    assert convolution_power(eps, 3, 1, 2, ring) == eps


def test_lowest_coefficient():
    ring = QQ
    s = TruncatedSeries(ring, 1, 6, {(1,): Fraction(1), (2,): Fraction(1)})
    assert lowest_coefficient(s) == ((1,), Fraction(1))
    with pytest.raises(ValueError):
        lowest_coefficient(TruncatedSeries(ring, 1, 6, {}))


def test_lowest_coefficient_product_law(ws):
    # (s u t)_min = s_min r t_min whenever that product is nonzero
    rng = random.Random(99)
    ring = AlgebraRing(ws.algebras["qxq"])
    done = 0
    while done < 50:
        coeffs_s = {i: (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                    for i in indices_up_to(2, 5) if rng.random() < 0.3}
        coeffs_t = {i: (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                    for i in indices_up_to(2, 5) if rng.random() < 0.3}
        s = TruncatedSeries(ring, 2, 5, coeffs_s)
        t = TruncatedSeries(ring, 2, 5, coeffs_t)
        if s.is_zero() or t.is_zero():
            continue
        (si, sc), (ti, tc) = lowest_coefficient(s), lowest_coefficient(t)
        if sum(si) + sum(ti) > 5:
            continue
        r = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        mid = ring.mul(ring.mul(sc, r), tc)
        if ring.is_zero(mid):
            continue
        higher = {i: (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                  for i in indices_up_to(2, 5)
                  if sum(i) >= 1 and rng.random() < 0.3}
        u = TruncatedSeries(ring, 2, 5, higher) + \
            TruncatedSeries.constant(ring, 2, 5, r)
        prod = s * u * t
        idx, coeff = lowest_coefficient(prod)
        assert idx == tuple(a + b for a, b in zip(si, ti))
        assert coeff == mid
        done += 1
    assert done == 50


def test_series_render():
    ring = QQ
    s = TruncatedSeries(ring, 2, 4, {(0, 0): Fraction(1), (2, 1): Fraction(-3, 2)})
    assert s.render() == "1 + -3/2 * X1^2 X2^1"
