"""Differential tests: each shared helper against an independent route.

The convolution algebra, the twist and H-action builders, the coaction,
the invariant solvers, the dual operations, the operator sums, the
Frobenius kernel and the H-spectrum are compared with the direct loops they
replaced (kept here as test-only oracles); the subspace helpers are
compared with brute force over small prime fields.
"""

import itertools
import random

import pytest

from hopfact.linalg import (GF, Matrix, Subspace, apply_combination, closure,
                            combine, kernel, largest_stable_inside, pull_back,
                            stable_subspaces)
from hopfact.hopf import (group_algebra, cyclic_group_table, dual_hopf,
                          is_group_basis, product_field_algebra)
from hopfact.action import (ModuleAlgebraAction, coefficient_subalgebra,
                            invariants, matrix_coefficients)
from hopfact.convolution import ConvElement, ConvolutionAlgebra
from hopfact.ideals import (UnsupportedComputation, _frobenius_kernel, core,
                            h_spectrum, spectrum)


# -- the direct loops, as oracles ------------------------------------------------

def phi_oracle(conv):
    """b -> (h -> h_1 . b(h_2)) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    cols = conv.hopf.comul_sparse
    m = Matrix.zeros(F, conv.dim, conv.dim)
    for p in range(nH):
        for q in range(nA):
            col = conv.index(p, q)
            for l in range(nH):
                for (u, v, c) in cols[l]:
                    if v != p:
                        continue
                    for mm in range(nA):
                        t = conv.action.tensor[u][q][mm]
                        if not F.is_zero(t):
                            row = conv.index(l, mm)
                            m.data[row][col] = F.add(m.data[row][col], F.mul(c, t))
    return m


def psi_oracle(conv):
    """b -> (h -> S(h_1) . b(h_2)) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    cols = conv.hopf.comul_sparse
    S = conv.hopf.antipode
    m = Matrix.zeros(F, conv.dim, conv.dim)
    for p in range(nH):
        for q in range(nA):
            col = conv.index(p, q)
            for l in range(nH):
                for (u, v, c) in cols[l]:
                    if v != p:
                        continue
                    for w in range(nH):
                        sc = S.data[w][u]
                        if F.is_zero(sc):
                            continue
                        csc = F.mul(c, sc)
                        for mm in range(nA):
                            t = conv.action.tensor[w][q][mm]
                            if not F.is_zero(t):
                                row = conv.index(l, mm)
                                m.data[row][col] = F.add(m.data[row][col],
                                                         F.mul(csc, t))
    return m


def rh_oracle(conv):
    """(h -> b)(k) = b(k h) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    multH = conv.hopf.alg.mult
    ops = []
    for i in range(nH):
        m = Matrix.zeros(F, conv.dim, conv.dim)
        for l in range(nH):
            for j in range(nH):
                c = multH[l][i][j]
                if F.is_zero(c):
                    continue
                for q in range(nA):
                    row, col = conv.index(l, q), conv.index(j, q)
                    m.data[row][col] = F.add(m.data[row][col], c)
        ops.append(m)
    return ops


def dot_oracle(conv):
    """(h . b)(k) = h_1 . b(k h_2) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    multH = conv.hopf.alg.mult
    cols = conv.hopf.comul_sparse
    ops = []
    for i in range(nH):
        m = Matrix.zeros(F, conv.dim, conv.dim)
        for (u, v, c) in cols[i]:
            for l in range(nH):
                for j in range(nH):
                    d = multH[l][v][j]
                    if F.is_zero(d):
                        continue
                    cd = F.mul(c, d)
                    for q in range(nA):
                        for mm in range(nA):
                            t = conv.action.tensor[u][q][mm]
                            if not F.is_zero(t):
                                row, col = conv.index(l, mm), conv.index(j, q)
                                m.data[row][col] = F.add(m.data[row][col],
                                                         F.mul(cd, t))
        ops.append(m)
    return ops


def test_builders_match_direct_loops(ws):
    for name, act in sorted(ws.actions.items()):
        conv = ConvolutionAlgebra(act)
        assert conv.phi_matrix == phi_oracle(conv), name
        assert conv.psi_matrix == psi_oracle(conv), name
        assert conv.rh_operators == rh_oracle(conv), name
        assert conv.dot_operators == dot_oracle(conv), name


def coefficient_subalgebra_oracle(h, coeffs):
    """Span-and-multiply until the dimension stops growing."""
    gens = [list(h.counit)] + [list(c) for c in coeffs]
    gens += [star_antipode_oracle(h, c) for c in coeffs]
    space = Subspace.from_vectors(h.field, h.dim, gens)
    while True:
        basis = space.basis_vectors()
        prods = [dual_product_oracle(h, f, g) for f in basis for g in basis]
        bigger = Subspace.from_vectors(h.field, h.dim, basis + prods)
        if bigger.dim == space.dim:
            return bigger
        space = bigger


def test_coefficient_subalgebra_matches_span_and_multiply(ws):
    for name, rep in sorted(ws.representations.items()):
        coeffs = matrix_coefficients(rep)
        assert (coefficient_subalgebra(rep.hopf, coeffs)
                == coefficient_subalgebra_oracle(rep.hopf, coeffs)), name
    rng = random.Random("coefficients")
    for name, h in sorted(ws.hopfs.items()):
        coeffs = [[h.field.parse(rng.choice([-1, 0, 0, 1])) for _ in range(h.dim)]
                  for _ in range(rng.randint(1, 2))]
        assert (coefficient_subalgebra(h, coeffs)
                == coefficient_subalgebra_oracle(h, coeffs)), name


# -- subspace helpers against brute force -----------------------------------------

def random_matrix(rng, field, nrows, ncols):
    p = field.characteristic()
    return Matrix.from_rows(field, [[rng.randrange(p) for _ in range(ncols)]
                                    for _ in range(nrows)], ncols)


def random_subspace(rng, field, n):
    p = field.characteristic()
    vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))]
    return Subspace.from_vectors(field, n, vecs)


CASES = [(p, n, seed) for p in (2, 3) for n in range(1, 5) for seed in range(6)]


@pytest.mark.parametrize("p,n,seed", CASES)
def test_closure_and_fixed_point_brute_force(p, n, seed):
    field = GF(p)
    rng = random.Random(f"stable/{p}/{n}/{seed}")
    ops = [random_matrix(rng, field, n, n) for _ in range(rng.randint(1, 2))]
    space = random_subspace(rng, field, n)
    lattice = stable_subspaces(field, n, ops, bound=p ** n)
    above = [s for s in lattice if space.le(s)]
    below = [s for s in lattice if s.le(space)]
    smallest = min(above, key=lambda s: s.dim)
    largest = max(below, key=lambda s: s.dim)
    assert all(smallest.le(s) for s in above)
    assert all(s.le(largest) for s in below)
    assert closure(space, ops) == smallest
    assert largest_stable_inside(space, ops) == largest


@pytest.mark.parametrize("p,n,seed", CASES)
def test_pull_back_brute_force(p, n, seed):
    field = GF(p)
    rng = random.Random(f"pull-back/{p}/{n}/{seed}")
    k = rng.randint(0, n)
    while True:
        embed = random_matrix(rng, field, n, k)
        image = Subspace.from_vectors(field, n, embed.transpose().data)
        if image.dim == k:
            break
    sub = random_subspace(rng, field, n)
    want = Subspace.from_vectors(
        field, k, [list(x) for x in itertools.product(range(p), repeat=k)
                   if sub.contains(embed.vec_mul(list(x)))])
    assert pull_back(embed, image, sub) == want


def test_pull_back_rejects_escaping_vector():
    field = GF(2)
    embed = Matrix.from_rows(field, [[1], [0]], 1)
    whole = Subspace.full(field, 2)
    with pytest.raises(RuntimeError):
        pull_back(embed, whole, whole)


def test_is_group_basis(ws):
    kc3 = group_algebra(cyclic_group_table(3), GF(7))
    assert is_group_basis(kc3)
    assert not is_group_basis(dual_hopf(kc3))
    assert not is_group_basis(ws.hopfs["sweedler4"])


# -- B = H* (x) A, the coaction, the dual operations and the invariants ------------

def algebra_oracle(conv):
    """Structure constants of B by the direct comultiplication loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    n = conv.dim
    comul = conv.hopf.comul
    mult = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    for p in range(nH):
        for r in range(nH):
            nz = [(l, c) for l, c in enumerate(comul.data[p * nH + r])
                  if not F.is_zero(c)]
            for q in range(nA):
                for s in range(nA):
                    target = mult[conv.index(p, q)][conv.index(r, s)]
                    for l, c in nz:
                        for m, d in conv.alg.mult_sparse[q][s]:
                            idx = conv.index(l, m)
                            target[idx] = F.add(target[idx], F.mul(c, d))
    unit = [F.zero] * n
    for p in range(nH):
        for q in range(nA):
            e, u = conv.hopf.counit[p], conv.alg.unit[q]
            if not (F.is_zero(e) or F.is_zero(u)):
                unit[conv.index(p, q)] = F.mul(e, u)
    return mult, unit


def del_oracle(conv):
    """a -> (h -> h.a) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    m = Matrix.zeros(F, conv.dim, nA)
    for j in range(nA):
        for p in range(nH):
            for q in range(nA):
                m.data[conv.index(p, q)][j] = conv.action.tensor[p][j][q]
    return m


def action_invariants_oracle(act):
    """{a : h.a = eps(h) a} from the action tensor."""
    F = act.field
    nA = act.alg.dim
    rows = []
    for i in range(act.hopf.dim):
        for k in range(nA):
            rows.append([F.sub(act.tensor[i][j][k], act.hopf.counit[i]) if j == k
                         else act.tensor[i][j][k] for j in range(nA)])
    return kernel(Matrix.from_rows(F, rows, nA))


def operator_invariants_oracle(conv, ops):
    """Joint eigenspace op_i b = eps(h_i) b from the operator rows."""
    F = conv.field
    rows = []
    for i, op in enumerate(ops):
        for r in range(conv.dim):
            row = list(op.data[r])
            row[r] = F.sub(row[r], conv.hopf.counit[i])
            rows.append(row)
    return kernel(Matrix.from_rows(F, rows, conv.dim))


def c2_on_three_points_f3():
    """C2 swapping two of three points, over F_3: not a bundled fixture."""
    f3 = GF(3)
    perms = [(0, 1, 2), (1, 0, 2)]
    tensor = [[[1 if g[x] == y else 0 for y in range(3)] for x in range(3)]
              for g in perms]
    return ModuleAlgebraAction(group_algebra(cyclic_group_table(2), f3),
                               product_field_algebra(f3, 3), tensor,
                               name="c2-on3-f3")


def all_actions(ws):
    return sorted(ws.actions.items()) + [("c2-on3-f3", c2_on_three_points_f3())]


def test_algebra_is_dual_tensor_a(ws):
    for name, act in all_actions(ws):
        conv = ConvolutionAlgebra(act)
        mult, unit = algebra_oracle(conv)
        B = conv.algebra
        assert B.mult == mult and B.unit == unit, name
        assert ([type(c) for plane in B.mult for row in plane for c in row]
                == [type(c) for plane in mult for row in plane for c in row]), name
        assert [type(c) for c in B.unit] == [type(c) for c in unit], name
        assert B.name == f"conv:{act.name}"


def test_del_matrix_is_comodule_map(ws):
    for name, act in all_actions(ws):
        conv = ConvolutionAlgebra(act)
        assert conv.del_matrix == del_oracle(conv), name


def test_invariants_match_direct_systems(ws):
    for name, act in all_actions(ws):
        assert invariants(act) == action_invariants_oracle(act), name
        conv = ConvolutionAlgebra(act)
        for ops in (conv.rh_operators, conv.dot_operators):
            assert conv.invariants_of(ops) == operator_invariants_oracle(conv, ops), name


def dual_product_oracle(h, f, g):
    """Convolution product of two functionals over the coproduct terms."""
    F = h.field
    out = [F.zero] * h.dim
    for l in range(h.dim):
        for (i, k, c) in h.comul_sparse[l]:
            if not (F.is_zero(f[i]) or F.is_zero(g[k])):
                out[l] = F.add(out[l], F.mul(c, F.mul(f[i], g[k])))
    return out


def star_antipode_oracle(h, f):
    """f composed with the antipode."""
    F = h.field
    out = []
    for j in range(h.dim):
        acc = F.zero
        for k in range(h.dim):
            acc = F.add(acc, F.mul(f[k], h.antipode.data[k][j]))
        out.append(acc)
    return out


@pytest.mark.parametrize("name", ["qs3", "sweedler4", "f3sweedler", "f2klein"])
def test_dual_product_and_antipode(ws, name):
    h = ws.hopfs[name]
    dual = dual_hopf(h)
    rng = random.Random(f"dual/{name}")
    vecs = [h.basis_vector(i) for i in range(h.dim)]
    vecs += [[h.field.parse(rng.randint(-2, 2)) for _ in range(h.dim)]
             for _ in range(4)]
    for f in vecs:
        assert dual.s_apply(f) == star_antipode_oracle(h, f)
        for g in vecs:
            assert dual.alg.multiply(f, g) == dual_product_oracle(h, f, g)


def frobenius_kernel_oracle(alg):
    """Kernel of x -> x^(p^m), one Frobenius matrix composed m times."""
    F = alg.field
    p, n = F.p, alg.dim
    m = 1
    while p ** m <= n:
        m += 1
    frob = Matrix.from_rows(F, [[alg.power(alg.basis_vector(j), p)[i]
                                 for j in range(n)] for i in range(n)], n)
    total = frob
    for _ in range(m - 1):
        cols = [alg.power([total.data[i][j] for i in range(n)], p)
                for j in range(n)]
        total = Matrix.from_rows(F, [[cols[j][i] for j in range(n)]
                                     for i in range(n)], n)
    return kernel(total)


def test_frobenius_kernel(ws):
    algs = [(name, a) for name, a in sorted(ws.algebras.items())
            if a.field.characteristic() and a.is_commutative()]
    assert len(algs) == 10
    for name, alg in algs:
        assert _frobenius_kernel(alg) == frobenius_kernel_oracle(alg), name


def h_spectrum_oracle(act):
    """Distinct cores of the primes, sorted by their rows."""
    seen = {}
    for e in spectrum(act.alg):
        c = core(act, e.prime)
        seen.setdefault(c.space.rows, c)
    return [seen[k] for k in sorted(seen, key=lambda rows: [[str(c) for c in r]
                                                           for r in rows])]


def test_h_spectrum_is_cores_of_strata(ws):
    checked = 0
    for name, act in all_actions(ws):
        try:
            want = h_spectrum_oracle(act)
        except UnsupportedComputation:
            with pytest.raises(UnsupportedComputation):
                h_spectrum(act)
            continue
        got = h_spectrum(act)
        assert [c.space for c in got] == [c.space for c in want], name
        checked += 1
    assert checked >= 8


def combine_oracle(coeffs, mats):
    """sum_i coeffs[i] mats[i], entry by entry."""
    F = mats[0].field
    out = Matrix.zeros(F, mats[0].nrows, mats[0].ncols)
    for i, c in enumerate(coeffs):
        if F.is_zero(c):
            continue
        for a in range(out.nrows):
            for b in range(out.ncols):
                out.data[a][b] = F.add(out.data[a][b], F.mul(c, mats[i].data[a][b]))
    return out


def apply_oracle(coeffs, mats, v):
    """(sum_i coeffs[i] mats[i]) v, one operator image at a time."""
    F = mats[0].field
    out = [F.zero] * mats[0].nrows
    for i, c in enumerate(coeffs):
        if F.is_zero(c):
            continue
        img = mats[i].vec_mul(v)
        out = [F.add(out[k], F.mul(c, img[k])) for k in range(len(out))]
    return out


def coefficient_vectors(rng, field, n):
    """The basis vectors, zero, and a few seeded combinations."""
    vecs = [[field.one if t == i else field.zero for t in range(n)]
            for i in range(n)]
    vecs.append([field.zero] * n)
    vecs += [[field.parse(rng.choice([-2, -1, 0, 0, 1, 3])) for _ in range(n)]
             for _ in range(3)]
    return vecs


def test_combine_on_representations(ws):
    for name, rep in sorted(ws.representations.items()):
        rng = random.Random(f"combine/{name}")
        for hvec in coefficient_vectors(rng, rep.hopf.field, rep.hopf.dim):
            want = combine_oracle(hvec, rep.rho)
            assert combine(hvec, rep.rho) == want == rep.of(hvec), name
            for v in coefficient_vectors(rng, rep.hopf.field, rep.dim_v):
                assert apply_combination(hvec, rep.rho, v) == want.vec_mul(v), name


def test_combination_of_translation_and_twist_operators(ws):
    for name, act in all_actions(ws):
        conv = ConvolutionAlgebra(act)
        F = conv.field
        rng = random.Random(f"operators/{name}")
        coords = coefficient_vectors(rng, F, conv.dim)[-3:]
        for ops, act_on in ((conv.rh_operators, conv.rh_act),
                            (conv.dot_operators, conv.dot_act)):
            for hvec in coefficient_vectors(rng, F, conv.hopf.dim):
                summed = combine(hvec, ops)
                assert summed == combine_oracle(hvec, ops), name
                for b in coords:
                    want = apply_oracle(hvec, ops, b)
                    assert apply_combination(hvec, ops, b) == want, name
                    assert summed.vec_mul(b) == want, name
                    assert act_on(hvec, ConvElement(conv, b)).coords == want, name
