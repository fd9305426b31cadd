import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hopfact.linalg import (QQ, GF, Matrix, Subspace, closure, kernel,
                            nonzero_terms, stable_subspaces)
from hopfact.action import action_from_operators, verify_action
from hopfact.hopf import (FiniteAlgebra, matrix_algebra, truncated_poly_algebra,
                          product_field_algebra, upper_triangular_algebra,
                          group_algebra, cyclic_group_table)
from hopfact.ideals import (Ideal, quotient_algebra, center_subspace,
                            minimal_polynomial, factor_irreducible, radical,
                            split_primitive_idempotents, is_semiprime, is_prime,
                            is_completely_prime, spectrum, core, core_via_psi,
                            group_core_by_intersection, h_spectrum, strata,
                            certify_h_prime, semiprime_core_check,
                            reformulation_check, composite_core,
                            UnsupportedComputation)
from hopfact import ideals
from hopfact.convolution import DEFAULT_DIM_CAP

from test_merged_helpers import ideal_operators_oracle, sympy_calls


def poly_quotient_algebra(field, minpoly, name=None):
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
    terms = [[nonzero_terms(F, powers[i + j]) for j in range(n)] for i in range(n)]
    unit = [F.one] + [F.zero] * (n - 1)
    return FiniteAlgebra.from_terms(F, n, terms, unit, name=name)


def test_ideal_construction_checks(ws):
    m2 = ws.algebras["m2q"]
    with pytest.raises(ValueError):
        Ideal(m2, Subspace.from_vectors(QQ, 4, [[0, 1, 0, 0]]))
    assert Ideal.generate(m2, [[0, 1, 0, 0]]).dim == 4
    assert Ideal.generate(ws.algebras["qxq"], []).dim == 0


def test_quotient_algebra():
    x3 = truncated_poly_algebra(QQ, 3)
    xbar = Ideal.generate(x3, [[0, 1, 0]])
    q, proj, lift = quotient_algebra(x3, xbar.space)
    assert q.dim == 1 and q.unit == [Fraction(1)]
    # modding the radical of upper triangulars leaves the split diagonal
    ut = upper_triangular_algebra(QQ)
    q2, _, _ = quotient_algebra(ut, radical(ut).space)
    assert q2.dim == 2 and q2.is_commutative()


def test_center(ws):
    assert center_subspace(ws.algebras["m2q"]).dim == 1
    assert center_subspace(ws.algebras["qc2"]).dim == 2
    assert center_subspace(ws.algebras["qs3"]).dim == 3


def test_minimal_polynomial_and_factoring():
    split = product_field_algebra(QQ, 2)
    mp = minimal_polynomial(split, [Fraction(1), Fraction(0)])
    # t^2 - t, the idempotent equation
    assert mp == [Fraction(0), Fraction(-1), Fraction(1)]
    factors = factor_irreducible(QQ, mp)
    assert sorted(len(f) for f, _ in factors) == [2, 2]
    # x in Q[x]/(x^3): t^3
    x3 = truncated_poly_algebra(QQ, 3)
    assert minimal_polynomial(x3, [0, 1, 0]) == [0, 0, 0, 1]
    fs = factor_irreducible(GF(2), [1, 0, 1])   # t^2 + 1 = (t+1)^2 mod 2
    assert fs == [([1, 1], 2)]
    # t^2 - 1/4: sympy returns 2t - 1 and 2t + 1, the factors are monic
    assert factor_irreducible(QQ, [Fraction(-1, 4), 0, 1]) == [
        ([Fraction(-1, 2), Fraction(1)], 1), ([Fraction(1, 2), Fraction(1)], 1)]


def test_radical_examples(ws):
    assert radical(ws.algebras["qc2"]).dim == 0          # Maschke, char 0
    assert radical(ws.algebras["f2c2"]).space.rows == ((1, 1),)
    ut = upper_triangular_algebra(QQ)
    assert radical(ut).space.rows == ((Fraction(0), Fraction(1), Fraction(0)),)
    assert radical(ws.algebras["qx3"]).dim == 2
    # radical route refusal: noncommutative over small p
    f2m2 = matrix_algebra(GF(2), 2)
    with pytest.raises(UnsupportedComputation):
        radical(f2m2)
    # trace form route over p > dim: F_7 C_3 is semisimple
    assert radical(ws.algebras["f7c3"]).dim == 0


def test_radical_power_vanishes(ws):
    for name in ("f2c2", "qx3", "upper2q", "qjet"):
        alg = ws.algebras[name]
        rad = radical(alg)
        power = rad.space
        for _ in range(alg.dim):
            power = Subspace.from_vectors(alg.field, alg.dim, [
                alg.multiply(list(x), list(y)) for x in power.rows
                for y in rad.space.rows])
        assert power.dim == 0
        q, _, _ = quotient_algebra(alg, rad.space)
        from hopfact.ideals import radical_subspace
        assert radical_subspace(q).dim == 0


def test_semiprime_prime(ws):
    m2 = ws.algebras["m2q"]
    split = ws.algebras["qxq"]
    assert is_prime(m2, Ideal.zero(m2))
    assert not is_prime(split, Ideal.zero(split))
    assert is_semiprime(split, Ideal.zero(split))
    f2c2 = ws.algebras["f2c2"]
    assert is_prime(f2c2, ws.ideals["aug2"])
    assert not is_semiprime(f2c2, Ideal.zero(f2c2))
    assert is_completely_prime(split, ws.ideals["half"])
    with pytest.raises(UnsupportedComputation):
        is_completely_prime(m2, Ideal.zero(m2))


def test_spectrum_examples(ws):
    split = ws.algebras["qxq"]
    entries = spectrum(split)
    assert len(entries) == 2
    assert all(e.simple_quotient_dim == 1 and e.heart_dim == 1 for e in entries)
    m2 = ws.algebras["m2q"]
    sp = spectrum(m2)
    assert len(sp) == 1 and sp[0].prime.dim == 0 and sp[0].simple_quotient_dim == 4
    x3 = ws.algebras["qx3"]
    sp3 = spectrum(x3)
    assert len(sp3) == 1 and sp3[0].prime.dim == 2
    # intersection of all primes is the radical
    ut = ws.algebras["upper2q"]
    inter = Subspace.full(QQ, ut.dim)
    from hopfact.linalg import subspace_intersect
    for e in spectrum(ut):
        inter = subspace_intersect(inter, e.prime.space)
    assert inter == radical(ut).space


def spectrum_key(entries):
    return [(e.prime.space, e.simple_quotient_dim, e.heart_dim, e.inert) for e in entries]


def test_kept_spectrum_is_not_shared_with_callers(ws):
    """The spectrum is computed once per algebra; callers get new lists of
    immutable entries, so nothing they do reaches the kept one."""
    from hopfact.workspace import load_bundled
    alg = ws.algebras["qs3"]
    first, second = spectrum(alg), spectrum(alg)
    assert first == second and first is not second
    want = spectrum_key(first)
    first.clear()
    second.reverse()
    second.append(None)
    assert spectrum_key(spectrum(alg)) == want
    with pytest.raises(AttributeError, match="immutable"):
        spectrum(alg)[0].heart_dim = 7
    with pytest.raises(AttributeError, match="immutable"):
        del spectrum(alg)[0].inert
    assert len({*spectrum(alg), *spectrum(alg)}) == len(want)
    # strata do not depend on whether the spectrum was kept before them
    warm, cold = (load_bundled(verify=False).actions["swap"] for _ in range(2))
    spectrum(warm.alg)
    assert ([(c.space, spectrum_key(es)) for c, es in strata(warm)]
            == [(c.space, spectrum_key(es)) for c, es in strata(cold)])


def test_refused_spectrum_is_refused_again(ws):
    alg = ws.hopfs["f3sweedler"].alg    # non-commutative over F_3, dim 4 >= 3
    for _ in range(2):
        with pytest.raises(UnsupportedComputation):
            spectrum(alg)


def test_spectrum_inert_entries(ws):
    # Q C_3 = Q x Q(omega): the cyclotomic factor stays inert over Q
    entries = spectrum(ws.algebras["qc3"])
    hearts = sorted((e.heart_dim, e.inert) for e in entries)
    assert hearts == [(1, False), (2, True)]
    # Q[i] itself: spectrum is the zero ideal with an inert heart
    qi = poly_quotient_algebra(QQ, [1, 0, 1], name="qi")
    entries = spectrum(qi)
    assert len(entries) == 1 and entries[0].heart_dim == 2 and entries[0].inert
    # same phenomenon over F_2: F_2 C_3 = F_2 x F_4
    entries = spectrum(ws.algebras["f2c3"]) if "f2c3" in ws.algebras else \
        spectrum(group_algebra(cyclic_group_table(3), GF(2)).alg)
    assert sorted(e.heart_dim for e in entries) == [1, 2]


def test_core_examples(ws):
    # trivial action: core is the ideal itself
    triv = ws.actions["trivial-m2"]
    z = Ideal.zero(ws.algebras["m2q"])
    assert core(triv, z).space == z.space
    # swap: the half ideal collapses
    swap = ws.actions["swap"]
    half = ws.ideals["half"]
    assert core(swap, half).dim == 0
    # grading in char 2: the augmentation ideal has zero core
    assert core(ws.actions["grading2"], ws.ideals["aug2"]).dim == 0


def test_core_oracle_equivalence(ws):
    for aname, act in sorted(ws.actions.items()):
        ideals = {"zero": Ideal.zero(act.alg), "full": Ideal.full(act.alg)}
        for iname, ideal in ws.ideals.items():
            if ideal.alg is act.alg:
                ideals[iname] = ideal
        for iname, ideal in sorted(ideals.items()):
            direct = core(act, ideal)
            twisted = core_via_psi(act, ideal)
            assert direct.space == twisted.space, (aname, iname)


def test_core_group_intersection(ws):
    swap = ws.actions["swap"]
    half = ws.ideals["half"]
    byint = group_core_by_intersection(swap, half)
    assert byint.space == core(swap, half).space
    with pytest.raises(ValueError):
        group_core_by_intersection(ws.actions["grading"], ws.ideals["aug"])


def test_core_idempotent_and_maximal(ws):
    act = ws.actions["grading2"]
    aug = ws.ideals["aug2"]
    c = core(act, aug)
    assert core(act, c).space == c.space
    assert c.space.le(aug.space)
    # maximality against the enumerated action-stable ideal lattice
    lattice = stable_subspaces(act.field, act.alg.dim,
                               ideal_operators_oracle(act.alg) + act.operator_matrices,
                               bound=4096)
    for stable in lattice:
        if stable.le(aug.space):
            assert stable.le(c.space)


def test_h_ideal_generated(ws):
    act = ws.actions["grading2"]
    out = closure(Subspace.from_vectors(act.field, 2, [[1, 1]]),
                  ideal_operators_oracle(act.alg) + act.operator_matrices)
    # acting by the grading projections splits 1+g into components
    assert out.dim == 2


def test_certify_h_prime(ws):
    act = ws.actions["grading2"]
    cert = certify_h_prime(act, Ideal.zero(act.alg), bound=4096)
    assert cert.status == "pass" and cert.details["route"] == "lattice-products"
    cert2 = certify_h_prime(ws.actions["swap2"],
                            Ideal.zero(ws.actions["swap2"].alg), bound=4096)
    assert cert2.status == "pass"
    # over Q neither route applies to a non-prime H-prime: stays undecided
    cert3 = certify_h_prime(ws.actions["swap"], Ideal.zero(ws.actions["swap"].alg))
    assert cert3.status == "error"
    # route (a): an H-stable prime that is a core of a prime certifies directly
    aug2 = ws.ideals["aug2"]
    triv2 = None
    from hopfact.action import trivial_action
    triv2 = trivial_action(ws.hopfs["f2c2"], ws.algebras["f2c2"])
    cert4 = certify_h_prime(triv2, aug2, bound=4096)
    assert cert4.status == "pass" and cert4.details["route"] == "core-of-prime"


def test_h_spectrum_and_strata(ws):
    swap = ws.actions["swap"]
    hs = h_spectrum(swap)
    assert len(hs) == 1 and hs[0].dim == 0
    fibers = strata(swap)
    assert len(fibers) == 1 and len(fibers[0][1]) == 2
    triv = ws.actions["trivial-m2"]
    fibers = strata(triv)
    assert [len(es) for _, es in fibers] == [1]
    grading = ws.actions["grading"]
    fibers = strata(grading)
    assert len(fibers) == 1 and len(fibers[0][1]) == 2 and fibers[0][0].dim == 0
    # fibers partition the spectrum
    for act in ws.actions.values():
        entries = spectrum(act.alg)
        fibers = strata(act)
        assert sum(len(es) for _, es in fibers) == len(entries)


def test_group_core_semiprime_but_not_prime(ws):
    # both primes of Q x Q are prime; their swap-core 0 is semiprime only
    swap = ws.actions["swap"]
    for e in spectrum(swap.alg):
        c = core(swap, e.prime)
        assert c.dim == 0
        assert is_semiprime(swap.alg, c)
        assert not is_prime(swap.alg, c)


def test_semiprime_core_checks(ws):
    swap = ws.actions["swap"]
    assert semiprime_core_check(swap, ws.ideals["half"]).status == "pass"
    rep = semiprime_core_check(ws.actions["grading2"], ws.ideals["aug2"])
    assert rep.status == "counterexample"
    assert rep.details["core-semiprime"] is False
    # non-semiprime input is a usage error
    bad = semiprime_core_check(ws.actions["grading2"],
                               Ideal.zero(ws.algebras["f2c2"]))
    assert bad.status == "error"
    triv = ws.actions["trivial-m2"]
    assert semiprime_core_check(triv, Ideal.zero(triv.alg)).status == "pass"


def test_reformulation_checks(ws):
    assert reformulation_check(ws.actions["swap"], ws.ideals["half"]).status == "pass"
    assert reformulation_check(ws.actions["grading"],
                               Ideal.zero(ws.algebras["qc2"])).status == "pass"
    rep = reformulation_check(ws.actions["grading2"],
                              Ideal.zero(ws.algebras["f2c2"]))
    assert rep.status == "counterexample"
    assert rep.witnesses
    assert reformulation_check(ws.actions["grading2"],
                               Ideal.full(ws.algebras["f2c2"])).status == "pass"


def test_composite_core(ws):
    nil = ws.lie_actions["nilshift"]
    c2jet = ws.actions["c2jet"]
    assert composite_core(nil, c2jet, ws.ideals["xline"]).dim == 0
    out = composite_core(nil, c2jet, ws.ideals["xyline"])
    assert out.space == ws.ideals["xyline"].space
    triv_lie = ws.lie_actions["zeroder"]
    # with no derivations and the trivial Hopf action the ideal is returned
    from hopfact.action import trivial_action
    qx3 = ws.algebras["qx3"]
    tr = trivial_action(ws.hopfs["qc2"], qx3)
    xbar = ws.ideals["xbar"]
    assert composite_core(triv_lie, tr, xbar).space == xbar.space


# -- the block splitter on k[t]/(m), m squarefree ------------------------------------

def squarefree_monic(p, max_degree, low, high):
    """Monic m (ascending coefficients) of degree 1..max_degree, squarefree
    over F_p (p > 0) or over Q (p == 0)."""
    @st.composite
    def build(draw):
        d = draw(st.integers(1, max_degree))
        m = draw(st.lists(st.integers(low, high), min_size=d, max_size=d)) + [1]
        kw = {"modulus": p} if p else {"domain": "QQ"}
        poly = sympy.Poly(list(reversed(m)), sympy.Symbol("t"), **kw)
        # Poly.is_sqf answers True for t**2 over F_2; the multiplicities of
        # the square-free decomposition do not
        assume(all(k == 1 for _, k in poly.sqf_list()[1]))
        return m
    return build()


def assert_complete_orthogonal_idempotents(alg, idems):
    F = alg.field
    for i, e in enumerate(idems):
        assert alg.multiply(e, e) == e
        for f in idems[i + 1:]:
            assert alg.multiply(e, f) == [F.zero] * alg.dim
            assert alg.multiply(f, e) == [F.zero] * alg.dim
    total = [F.zero] * alg.dim
    for e in idems:
        total = [F.add(x, y) for x, y in zip(total, e)]
    assert total == alg.unit


def berlekamp_count(alg):
    """Irreducible factors of a squarefree m over F_p: the nullity of
    Frobenius - I on F_p[t]/(m) (Berlekamp 1967)."""
    F, n = alg.field, alg.dim
    cols = [alg.power(alg.basis_vector(j), F.p) for j in range(n)]
    rows = [[F.sub(cols[j][i], F.one if i == j else F.zero) for j in range(n)]
            for i in range(n)]
    return kernel(Matrix.from_rows(F, rows, n)).dim


PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=40)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_splitter_counts_factors_over_fp(p):
    @PROPERTY
    @given(squarefree_monic(p, 6, 0, p - 1))
    def check(m):
        alg = poly_quotient_algebra(GF(p), m)
        idems = split_primitive_idempotents(alg)
        assert_complete_orthogonal_idempotents(alg, idems)
        assert len(idems) == berlekamp_count(alg)
    check()


@PROPERTY
@given(squarefree_monic(0, 4, -3, 3))
def test_splitter_over_q(m):
    alg = poly_quotient_algebra(QQ, m)
    assert_complete_orthogonal_idempotents(alg, split_primitive_idempotents(alg))


def test_split_loop_refuses_past_dim_z(monkeypatch):
    # a splitter that splits every piece, as a fault in the corner algebra
    # can make it: the loop stops once the idempotents outnumber dim Z
    Z = product_field_algebra(QQ, 3)
    calls = []

    def always_split(Z, u):
        calls.append(u)
        if len(calls) > 1000:
            raise AssertionError("the split loop did not stop")
        return [u, [Z.field.zero] * Z.dim]

    monkeypatch.setattr(ideals, "_try_split", always_split)
    start = time.perf_counter()
    with pytest.raises(UnsupportedComputation, match="dim Z = 3"):
        split_primitive_idempotents(Z)
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 3


def test_splitter_budget_is_named(monkeypatch):
    monkeypatch.setattr(ideals, "SPLITTER_BUDGET", 0)
    with pytest.raises(UnsupportedComputation,
                       match=r"within 0 splitting candidates \(SPLITTER_BUDGET\)"):
        split_primitive_idempotents(product_field_algebra(QQ, 2))


@pytest.mark.parametrize("cap,grid", [(9, True), (8, False)])
def test_splitter_grid_switch_is_named(monkeypatch, cap, grid):
    """A corner of dimension d over F_p gets the whole grid of p**d
    combinations when p**d is at most SPLITTER_GRID_MAX, and the radius
    2, 3, 5 integer supply above it."""
    Z = product_field_algebra(GF(3), 2)
    corner = [Z.basis_vector(0), Z.basis_vector(1)]
    monkeypatch.setattr(ideals, "SPLITTER_GRID_MAX", cap)
    got = list(ideals._splitter_candidates(Z, corner))[4:]
    if grid:
        want = [[a, b] for a in range(3) for b in range(3)]
    else:
        want = [[a % 3, b % 3] for r in (2, 3, 5)
                for a in range(-r, r + 1) for b in range(-r, r + 1) if (a, b) != (0, 0)]
    assert got == want


# -- factoring and the polynomial helpers against sympy -------------------------------

def factor_oracle(F, coeffs):
    """sympy's factor_list on the whole polynomial, monic factors in the
    program's order: the route factor_irreducible took for every input."""
    out = [(ideals._from_poly(F, fac.monic()), int(k))
           for fac, k in ideals._to_poly(F, coeffs).factor_list()[1]]
    out.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
    return out


def poly_product(F, factors):
    out = [F.one]
    for f in factors:
        out = ideals._poly_mul(F, out, f)
    return out


PHI5, T4_PLUS_1 = [1, 1, 1, 1, 1], [1, 0, 0, 0, 1]
# monic irreducibles over Q past the linear ones: t^2 + 1, t^2 + t + 1,
# t^2 - 2, t^3 - 2, Phi_5 and t^4 + 1 (which splits mod every p)
Q_IRREDUCIBLES = [[1, 0, 1], [1, 1, 1], [-2, 0, 1], [-2, 0, 0, 1], PHI5, T4_PLUS_1]
FACTOR_FIELDS = [QQ, GF(2), GF(3), GF(5)]


@st.composite
def factored_products(draw, F):
    """(scalar, factors): a product of chosen monic factors, each repeated
    1-3 times, times a nonzero scalar.  The factors are linear with roots
    of small height (denominators over Q, 0 included), the irreducibles
    above or random monic quadratics over F_p, Phi_5 and t^4 + 1."""
    if F.p is None:
        root = st.builds(lambda a, b: Fraction(a, b), st.integers(-6, 6), st.integers(1, 4))
        pool = st.one_of(root.map(lambda r: [-r, 1]), st.sampled_from(Q_IRREDUCIBLES))
        scalar = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    else:
        coeff = st.integers(0, F.p - 1)
        pool = st.one_of(coeff.map(lambda r: [-r, 1]),
                         st.tuples(coeff, coeff).map(lambda ab: [*ab, 1]),
                         st.sampled_from([PHI5, T4_PLUS_1]))
        scalar = st.integers(1, F.p - 1)
    pieces = draw(st.lists(st.tuples(pool, st.integers(1, 3)), min_size=1, max_size=4))
    return draw(scalar), [f for f, k in pieces for _ in range(k)]


@pytest.mark.parametrize("field", FACTOR_FIELDS)
def test_factoring_matches_sympy(field):
    F = field

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(factored_products(F))
    def check(drawn):
        scalar, factors = drawn
        m = [F.mul(F.parse(scalar), c) for c in poly_product(F, [[F.parse(c) for c in f]
                                                                 for f in factors])]
        got = factor_irreducible(F, m)
        assert got == factor_oracle(F, m)
        # canonical scalars: ints when integral, monic factors
        assert all(type(c) is int or c.denominator > 1 for f, _ in got for c in f)
        assert all(f[-1] == 1 for f, _ in got)
    check()


@pytest.mark.parametrize("field,m", [
    (QQ, [1, 0, 1]), (QQ, [-2, 0, 0, 1]), (QQ, [0, 0, -2, 0, 0, 1]),
    (GF(2), [1, 1, 1]), (GF(3), [1, 0, 1]), (GF(5), [2, 0, 0, 1])])
def test_root_free_cubics_and_quadratics_need_no_sympy(monkeypatch, field, m):
    want = factor_oracle(field, m)
    calls = sympy_calls(monkeypatch)
    assert factor_irreducible(field, m) == want
    assert calls == []


@pytest.mark.parametrize("field,m", [
    (QQ, PHI5), (QQ, T4_PLUS_1), (GF(3), T4_PLUS_1), (GF(2), PHI5),
    # (t^2 + 1)^2 and (t^2 + 1)(t^2 + 2): root-free, reducible quartics
    (QQ, [1, 0, 2, 0, 1]), (QQ, [2, 0, 3, 0, 1]), (GF(3), [1, 0, 2, 0, 1])])
def test_root_free_quartics_go_to_sympy(monkeypatch, field, m):
    # a root on top: only the root-free part goes to sympy
    m1 = ideals._poly_mul(field, m, [field.neg(field.one), field.one])
    want = factor_oracle(field, m1)
    calls = sympy_calls(monkeypatch)
    assert factor_irreducible(field, m1) == want
    assert calls == [m]


@pytest.mark.parametrize("field,m,bound", [
    (QQ, [-10**6, 1], None), (QQ, [1, 0, 0, 10**5 + 3], None),
    (QQ, [-3, 0, 1], 2), (GF(7), [6, 0, 0, 1], 6), (GF(3), [1, 0, 1], 2)])
def test_past_the_root_search_bound_sympy_factors(monkeypatch, field, m, bound):
    if bound is not None:
        monkeypatch.setattr(ideals, "ROOT_SEARCH_MAX", bound)
    want = factor_oracle(field, m)
    calls = sympy_calls(monkeypatch)
    assert factor_irreducible(field, m) == want
    # the whole (monic) polynomial: no root was peeled off first
    assert len(calls) == 1 and len(calls[0]) == len(m) and calls[0][-1] == 1


def test_factoring_refuses_a_constant():
    for F, m in ((QQ, [3]), (QQ, [2, 0, 0]), (GF(3), [1, 3, 6])):
        with pytest.raises(ValueError, match="constant"):
            factor_irreducible(F, m)


def small_polys(F, max_degree):
    low, high = (-6, 6) if F.p is None else (0, F.p - 1)
    return st.lists(st.integers(low, high), min_size=1, max_size=max_degree + 1).map(
        lambda cs: ideals._poly(F, cs))


@pytest.mark.parametrize("field", FACTOR_FIELDS)
def test_divmod_and_gcdex_match_sympy(field):
    F = field

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(small_polys(F, 6), small_polys(F, 4))
    def check(a, b):
        assume(b)
        q, r = ideals._poly_divmod(F, a, b)
        pa, pb = ideals._to_poly(F, a or [0]), ideals._to_poly(F, b)
        assert q == ideals._poly(F, ideals._from_poly(F, pa.quo(pb)))
        assert r == ideals._poly(F, ideals._from_poly(F, pa.rem(pb)))
        if a:
            s, g = ideals._poly_gcdex(F, a, b)
            ps, _, ph = pa.gcdex(pb)
            assert (s, g) == (ideals._poly(F, ideals._from_poly(F, ps)),
                              ideals._from_poly(F, ph))
    check()


def test_repeated_factor_in_a_semisimple_center_is_refused():
    # Q[t]/(t^2 (t - 1)) is not semisimple: t has minimal polynomial
    # t^2 (t - 1), and splitting it must not pass the square off as a block
    alg = poly_quotient_algebra(QQ, [0, 0, -1, 1])
    with pytest.raises(RuntimeError, match="repeated factor inside a semisimple center"):
        split_primitive_idempotents(alg)


@st.composite
def permutation_groups(draw):
    """(n, elements, table): the group generated by one or two random
    permutations of X = {0, ..., n - 1}, n <= 4, each element a tuple p
    with p[x] the image of x, and table[i][j] the index of p_i o p_j."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    elements = [tuple(range(n))]
    index = {elements[0]: 0}
    for p in elements:                      # grows until closed
        for g in gens:
            q = tuple(g[p[x]] for x in range(n))
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in elements]
             for p in elements]
    return n, elements, table


def orbit_rule_core(n, elements, subset):
    """span{e_x : g(x) in subset for every g}: the largest G-stable ideal
    of k^X inside span{e_x : x in subset}."""
    return [x for x in range(n) if all(p[x] in subset for p in elements)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(permutation_groups(), st.sampled_from([QQ, GF(2), GF(3), GF(5)]), st.data())
def test_permutation_cores_follow_the_orbit_rule(group, field, data):
    """Over Q and F_p, the three core routes give the orbit rule's ideal;
    core_via_psi refuses past the convolution dimension cap."""
    n, elements, table = group
    hopf = group_algebra(table, field, name="G")
    alg = product_field_algebra(field, n)
    mats = [Matrix(field, n, n, [[1 if p[j] == k else 0 for j in range(n)]
                                 for k in range(n)]) for p in elements]
    act = action_from_operators(hopf, alg, mats, name="perm")
    assert verify_action(act).ok
    subset = set(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
    basis = [[1 if t == x else 0 for t in range(n)] for x in range(n)]
    ideal = Ideal.generate(alg, [basis[x] for x in sorted(subset)])
    want = Subspace.from_vectors(
        field, n, [basis[x] for x in orbit_rule_core(n, elements, subset)])
    assert core(act, ideal).space == want
    assert group_core_by_intersection(act, ideal).space == want
    if len(elements) * n <= DEFAULT_DIM_CAP:
        assert core_via_psi(act, ideal).space == want
    else:
        with pytest.raises(ValueError, match="exceeds cap"):
            core_via_psi(act, ideal)
    # k^X is a product of fields, so every ideal is semiprime, and so is its
    # core: in characteristic 0 this is the paper's second theorem for the
    # cocommutative kG
    rep = semiprime_core_check(act, ideal)
    assert rep.status == "pass" and rep.details["core-semiprime"]
    assert rep.details["core-dim"] == want.dim
