import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfact.linalg import (QQ, GF, Matrix, Subspace, rref, kernel, kron_sum,
                            solve, subspace_sum, subspace_intersect,
                            enumerate_subspaces, gaussian_binomial,
                            subspace_count, EnumerationBound, annihilator,
                            is_stable, stable_subspaces, JOIN_CAP)
from hopfact.convolution import ConvolutionAlgebra

from test_merged_helpers import ideal_operators_oracle


def test_field_descriptor():
    assert QQ.characteristic() == 0
    assert GF(5).characteristic() == 5
    with pytest.raises(ValueError):
        GF(6)
    assert GF(3) == GF(3) and GF(3) != GF(5) and QQ != GF(2)


def test_scalar_serialization():
    assert QQ.render(Fraction(-2, 4)) == "-1/2"
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert GF(7).parse("12") == 5
    assert GF(7).render(GF(7).from_int(-1)) == "6"


def test_rref_identity_fixed():
    m = Matrix.identity(QQ, 2)
    assert rref(m) == m


def test_rref_rank_one():
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    assert rref(m).data == [[1, 2], [0, 0]]


def test_rref_gf2():
    m = Matrix.from_rows(GF(2), [[1, 1], [1, 1]])
    assert rref(m).data == [[1, 1], [0, 0]]


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        m = Matrix.from_rows(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                   for _ in range(4)] for _ in range(3)])
        r = rref(m)
        assert rref(r) == r


def test_kernel_examples():
    assert kernel(Matrix(QQ, 3, 3, [[0] * 3 for _ in range(3)])).dim == 3
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    k = kernel(Matrix.from_rows(QQ, [[1, 1]]))
    assert k.rows == ((Fraction(1), Fraction(-1)),)


def test_kernel_solve_consistency_random():
    rng = random.Random(11)
    for _ in range(20):
        m = Matrix.from_rows(GF(3), [[rng.randrange(3) for _ in range(5)]
                                     for _ in range(3)])
        for v in kernel(m).basis_vectors():
            assert all(x == 0 for x in m.vec_mul(v))


def test_solve():
    ident = Matrix.identity(QQ, 2)
    assert solve(ident, [3, 4]) == [3, 4]
    assert solve(Matrix.from_rows(QQ, [[1, 1]]), [0]) == [0, 0]
    assert solve(Matrix.from_rows(QQ, [[0]]), [1]) is None


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(QQ, 2, [[1, 1], [2, 2]])
    b = Subspace.from_vectors(QQ, 2, [[3, 3]])
    assert a == b and a.dim == 1


def test_subspace_ops():
    f2 = GF(2)
    u = Subspace.from_vectors(f2, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.from_vectors(f2, 3, [[0, 1, 0], [0, 0, 1]])
    w = subspace_intersect(u, v)
    assert w.rows == ((0, 1, 0),)
    assert subspace_sum(u, Subspace.zero(f2, 3)) == u
    assert subspace_intersect(u, u) == u
    assert u.contains([1, 1, 0]) and not u.contains([0, 0, 1])


def test_annihilator_double():
    u = Subspace.from_vectors(QQ, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    assert annihilator(annihilator(u)) == u


def test_modular_law_random_triples():
    # (u cap w) + (v cap w) is inside (u + v) cap w
    f2 = GF(2)
    rng = random.Random(3)
    subs = list(enumerate_subspaces(f2, 3))
    for _ in range(60):
        u, v, w = (subs[rng.randrange(len(subs))] for _ in range(3))
        lhs = subspace_sum(subspace_intersect(u, w), subspace_intersect(v, w))
        rhs = subspace_intersect(subspace_sum(u, v), w)
        assert lhs.le(rhs)


# oracle: the Gaussian binomial product formula, frozen small values
@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)])
def test_enumeration_counts_gf2(n, count):
    assert subspace_count(2, n) == count
    subs = list(enumerate_subspaces(GF(2), n))
    assert len(subs) == count
    assert len(set(subs)) == count


def test_enumeration_counts_gf3():
    assert gaussian_binomial(3, 1, 3) == 13
    subs = list(enumerate_subspaces(GF(3), 3))
    assert len(subs) == 1 + 13 + 13 + 1


def test_enumeration_bound():
    with pytest.raises(EnumerationBound):
        list(enumerate_subspaces(GF(2), 20))
    with pytest.raises(EnumerationBound):
        list(enumerate_subspaces(QQ, 2))


def test_stable_subspaces_swap_matches_filter():
    # stability under one operator: the lattice builder vs generic filtering
    f2 = GF(2)
    op = Matrix.from_rows(f2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    fast = stable_subspaces(f2, 3, [op])
    slow = [s for s in enumerate_subspaces(f2, 3)
            if all(s.contains(op.vec_mul(list(r))) for r in s.rows)]
    assert sorted(s.rows for s in fast) == sorted(s.rows for s in slow)


# -- stable_subspaces against the exhaustive scan --------------------------------
#
# Every (p, n) with p**n <= 256, except F_2^8: its 417,199 subspaces take the
# scan 6-27 s per operator set.  When every subspace is stable (no operators,
# a scalar) the builder pays |lattice| x |lines| joins, so those sets stop at
# lattices of a few hundred subspaces.

ORACLE_DIMS = [(p, n) for p, top in ((2, 7), (3, 5), (5, 3)) for n in range(1, top + 1)]
ALL_STABLE_DIMS = [(p, n) for p, top in ((2, 5), (3, 4), (5, 3)) for n in range(1, top + 1)]


def assert_matches_scan(field, n, ops):
    got = stable_subspaces(field, n, ops, bound=field.p ** n)
    want = [s for s in enumerate_subspaces(field, n, field.p ** n) if is_stable(s, ops)]
    assert [(s.rows, s.pivots) for s in got] == [(s.rows, s.pivots) for s in want]
    return got


@pytest.mark.parametrize("p,n", ALL_STABLE_DIMS)
def test_stable_subspaces_all_stable(p, n):
    field = GF(p)
    assert len(assert_matches_scan(field, n, [])) == subspace_count(p, n)
    scalar = Matrix(field, n, n, [[p - 1 if i == j else 0 for j in range(n)]
                                  for i in range(n)])
    assert len(assert_matches_scan(field, n, [scalar])) == subspace_count(p, n)


@pytest.mark.parametrize("p,n", ORACLE_DIMS)
def test_stable_subspaces_jordan_block(p, n):
    field = GF(p)
    jordan = Matrix(field, n, n, [[1 if j == i + 1 else 0 for j in range(n)]
                                  for i in range(n)])
    # a nilpotent Jordan block has exactly the n + 1 flag subspaces
    assert len(assert_matches_scan(field, n, [jordan])) == n + 1


@pytest.mark.parametrize("p,n", ORACLE_DIMS)
@pytest.mark.parametrize("seed", range(2))
def test_stable_subspaces_random(p, n, seed):
    field = GF(p)
    rng = random.Random(f"lattice/{p}/{n}/{seed}")
    ops = [Matrix(field, n, n, [[rng.randrange(p) if rng.random() < 0.4 else 0
                                 for _ in range(n)] for _ in range(n)])
           for _ in range(rng.randint(1, 2))]
    assert_matches_scan(field, n, ops)


def test_stable_subspaces_bundled_actions(ws):
    checked = 0
    for act in ws.actions.values():
        p = act.field.characteristic()
        if p == 0:
            continue
        conv = ConvolutionAlgebra(act)
        A, B = act.alg, conv.algebra
        for n, ops in ((A.dim, ideal_operators_oracle(A)),
                       (B.dim, ideal_operators_oracle(B) + conv.dot_operators),
                       (B.dim, conv.rh_operators)):
            if (p, n) in ORACLE_DIMS:
                assert_matches_scan(act.field, n, ops)
                checked += 1
    assert checked >= 8


def test_stable_subspaces_bound():
    with pytest.raises(EnumerationBound):
        stable_subspaces(QQ, 2, [])
    with pytest.raises(EnumerationBound):
        stable_subspaces(GF(3), 3, [], bound=26)
    assert len(stable_subspaces(GF(3), 3, [], bound=27)) == subspace_count(3, 3)


def test_stable_subspaces_join_cap():
    # with no operators F_2^7 has 29k stable subspaces and 127 cyclics, about
    # 3.7 million joins; the enumeration bound admits its 128 vectors, so
    # only the join cap stops it
    with pytest.raises(EnumerationBound, match=f"{JOIN_CAP} joins"):
        stable_subspaces(GF(2), 7, [])
    # likewise under the identity every cyclic of F_2^8 is a line: 255 x
    # 417,199 joins, refused before the first
    with pytest.raises(EnumerationBound, match=f"{JOIN_CAP} joins"):
        stable_subspaces(GF(2), 8, [Matrix.identity(GF(2), 8)])


def test_enumeration_order_deterministic():
    f2 = GF(2)
    first = [s.rows for s in enumerate_subspaces(f2, 3)]
    second = [s.rows for s in enumerate_subspaces(f2, 3)]
    assert first == second
    # dimension-ascending canonical order, zero space first, full space last
    assert first[0] == ()
    assert len(first[-1]) == 3


@st.composite
def kron_terms(draw, field):
    """One to three terms (c, a, b) with products of one shape; factors may
    have no rows, zero rows or zero entries, and need not be square."""
    scalar = st.sampled_from([0, 0, 0, 1, -1, 2, "1/2", -3]) if field is QQ \
        else st.sampled_from([0, 0, 0, 1, 2, 5])

    def matrix(nrows, ncols):
        rows = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        return Matrix(field, nrows, ncols, [[field.parse(x) for x in r] for r in rows])

    ra, ca, rb, cb = (draw(st.integers(0, 3)) for _ in range(4))
    return [(field.parse(draw(scalar)), matrix(ra, ca), matrix(rb, cb))
            for _ in range(draw(st.integers(1, 3)))]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_kron_sum_entry_formula(field):
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kron_terms(field))
    def check(terms):
        _, a0, b0 = terms[0]
        got = kron_sum(terms)
        assert (got.nrows, got.ncols) == (a0.nrows * b0.nrows, a0.ncols * b0.ncols)
        for i in range(a0.nrows):
            for k in range(b0.nrows):
                for j in range(a0.ncols):
                    for l in range(b0.ncols):
                        want = field.zero
                        for c, a, b in terms:
                            want = field.add(want, field.mul(
                                c, field.mul(a.data[i][j], b.data[k][l])))
                        assert got.data[i * b0.nrows + k][j * b0.ncols + l] == want
        entries = [x for row in got.data for x in row]
        if field.p is None:
            assert all(type(x) in (int, Fraction) for x in entries)
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in entries)
    check()


def test_kron_sum_shapes():
    a = Matrix.from_rows(QQ, [[1, 2, 0]])
    col = a.transpose()
    # one product is one term; a zero-row factor gives a matrix with no rows
    assert kron_sum([(QQ.one, a, col)]).data == [[1, 2, 0], [2, 4, 0], [0, 0, 0]]
    assert kron_sum([(QQ.one, Matrix(QQ, 0, 2, []), a)]).nrows == 0
    # products of one shape may come from factors of different shapes
    ident = Matrix.identity(QQ, 3)
    both = kron_sum([(QQ.one, ident, col), (QQ.one, col, ident)])
    assert (both.nrows, both.ncols) == (9, 3)
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, a, col), (QQ.one, ident, ident)])


def dense_product(m, v):
    """m v entry by entry with Field methods: no column terms are read."""
    F = m.field
    out = []
    for row in m.data:
        acc = F.zero
        for x, a in zip(row, v):
            acc = F.add(acc, F.mul(x, a))
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_vec_mul_is_the_dense_product_for_every_constructor(field):
    """vec_mul and sparse_apply read column terms computed on the first
    product; every constructor must have finished writing ``data`` by then."""
    from hopfact.hopf import matrix_algebra
    from hopfact.linalg import combine, sparse_apply
    rng = random.Random(f"columns/{field!r}")

    def entries(nrows, ncols):
        return [[field.parse(rng.choice([0, 0, 1, -1, 2])) for _ in range(ncols)]
                for _ in range(nrows)]

    a = Matrix.from_rows(field, entries(3, 4))
    b = Matrix.from_rows(field, entries(4, 2))
    alg = matrix_algebra(field, 2)
    x = alg.basis_vector(1)
    built = {
        "from_rows": a,
        "zeros": Matrix(field, 3, 4, [[field.zero] * 4 for _ in range(3)]),
        "identity": Matrix.identity(field, 4),
        "transpose": a.transpose(),
        "mat_mul": a.mat_mul(b),
        "combine": combine([field.one, field.parse(2)], [a, Matrix.from_rows(field, entries(3, 4))]),
        "kron_sum": kron_sum([(field.one, b, a)]),
        "left_mult_matrix": alg.left_mult_matrix(x),
        "right_mult_matrix": alg.right_mult_matrix(x),
        "no rows": Matrix(field, 0, 3, []),
    }
    for name, m in built.items():
        for _ in range(4):
            v = [field.parse(rng.choice([0, 1, -1, 3])) for _ in range(m.ncols)]
            want = dense_product(m, v)
            assert m.vec_mul(v) == want, name
            assert sparse_apply(m, {j: c for j, c in enumerate(v) if c}) == \
                {i: c for i, c in enumerate(want) if c}, name
    assert Matrix.identity(field, 3).data == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
