"""Differential tests: each shared helper against an independent route.

The structure-constant builders, the convolution algebra, the twist and
H-action builders, the Kronecker-product operators (embeddings, H* (x) W,
the stratum action and embedding, sub-Hopf pair spans), the coaction, the
invariant solvers, the dual operations, the operator sums, the Frobenius
kernel and the H-spectrum are compared with the direct loops they replaced
(kept here as test-only oracles), and so are the plain-integer hot loops
(matrix products, elimination, the operator sums, subspace reduction, the
trace-form Gram matrix, polynomial evaluation) with their Field-method
bodies, the verifiers' generator fast paths with full basis scans, and the
block splitter with its route before the t^2 - t shortcut, the
stable-subspace lattice with its route that spun every line and joined every
cyclic and with the dense-row route its packed rows replaced, the packed-row
primitives with list arithmetic mod p, and the echelon spinner's closure,
largest stable subspace, algebra generators and insert with the rounds,
fixed point, sparse echelon and int-mod-p insert they replaced, the
structure layer (trace form, center, quotients, subalgebras, ideal tests and
closures on algebra generators) with the dense loops it replaced, and
elimination with its loop that inverted every pivot and cleared whole rows,
and the stability tests on generators (core, subspace_stable, the H-ideal,
ideal and stability-scan lattices, certify_h_prime, reformulation_check)
with the joint-kernel core and the all-basis operator lists they replaced,
and the one-elimination subspace moves (annihilator, intersection,
pull-back, H* (x) W) with the routes that eliminated again; the subspace
helpers are compared with brute force over small prime fields.
"""

import bisect
import importlib.util
import itertools
import math
import os
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from hopfact.linalg import (GF, JOIN_CAP, QQ, EnumerationBound, Matrix, Subspace,
                            apply_combination, closure, combine, is_stable, kernel, kron_sum,
                            largest_stable_inside, projection_matrix, pull_back,
                            solve, spin, stable_subspaces, subspace_intersect,
                            subspace_sum, support, _echelon_insert,
                            _enumerable_prime, _refuse_joins, _residual, _rref_data)
from hopfact import linalg
from hopfact.hopf import (FiniteAlgebra, HopfAlgebra, group_algebra,
                          cyclic_group_table, dual_hopf, ideal_closure,
                          dual_number_plane_algebra, is_cocommutative,
                          is_group_basis, matrix_algebra, product_field_algebra,
                          restricted_line_hopf, subspace_is_ideal, sweedler_hopf,
                          symmetric_group_table, tensor_algebra_prod, tensor_hopf,
                          truncated_poly_algebra, upper_triangular_algebra,
                          verify_algebra, verify_hopf)
from hopfact.workspace import Workspace, load_bundled, load_hopf
from hopfact.action import (ModuleAlgebraAction, Representation,
                            coefficient_subalgebra, hit_action, invariants_of,
                            matrix_coefficients, verify_action, verify_sub_hopf)
from hopfact import convolution
from hopfact.convolution import ConvolutionAlgebra
from hopfact.ideals import (Ideal, UnsupportedComputation, _build_stratum_pieces,
                            _frobenius_kernel, core, h_spectrum, spectrum)
from hopfact.lie import LieAction, verify_lie_action
from hopfact import ideals

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "write_goldens", os.path.join(HERE, "golden", "write_goldens.py"))
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


# -- the direct loops, as oracles ------------------------------------------------

def ideal_operators_oracle(alg):
    """Left multiplication L_b by every basis element b, followed by R_b
    where R_b differs from L_b, in basis order: the all-basis ideal test
    that the generators replaced."""
    ops = []
    for b in range(alg.dim):
        e = alg.basis_vector(b)
        left, right = alg.left_mult_matrix(e), alg.right_mult_matrix(e)
        ops += [left] + ([right] if right != left else [])
    return ops


def core_oracle(act, ideal):
    """The H-core as one joint kernel: the a with h.a in the ideal for every
    Hopf basis element h, the projection modulo the ideal of every basis
    operator stacked into one system."""
    F = act.field
    proj = projection_matrix(ideal.space)
    rows = [row for op in act.operator_matrices for row in proj.mat_mul(op).data]
    return kernel(Matrix.from_rows(F, rows, act.alg.dim)) if rows else ideal.space


def zero_matrix(F, nrows, ncols):
    return Matrix(F, nrows, ncols, [[F.zero] * ncols for _ in range(nrows)])


def phi_oracle(conv):
    """b -> (h -> h_1 . b(h_2)) by the direct loop."""
    F = conv.field
    nH, nA = conv.hopf.dim, conv.alg.dim
    cols = conv.hopf.comul_sparse
    m = zero_matrix(F, conv.dim, conv.dim)
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
    m = zero_matrix(F, conv.dim, conv.dim)
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
        m = zero_matrix(F, conv.dim, conv.dim)
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
        m = zero_matrix(F, conv.dim, conv.dim)
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
    for name, act in all_actions(ws):
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
    m = zero_matrix(F, conv.dim, nA)
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


def rebased(h, basis):
    """h in the basis whose i-th element has old coordinates basis[i], read
    back through load_hopf: coproduct and antipode columns of several terms."""
    F = h.field
    n = h.dim
    P = Matrix.from_rows(F, basis).transpose()
    new = lambda v: solve(P, v)     # noqa: E731
    comul = []
    for v in basis:
        d = h.delta(v)
        right = [new(d[i * n:(i + 1) * n]) for i in range(n)]
        both = [new([right[i][k] for i in range(n)]) for k in range(n)]
        comul.append([both[k][i] for i in range(n) for k in range(n)])
    return load_hopf({
        "field": F.to_json(), "dim": n,
        "mult": [[new(h.alg.multiply(u, v)) for v in basis] for u in basis],
        "unit": new(h.alg.unit), "counit": [h.eps(v) for v in basis],
        "comul": [list(row) for row in zip(*comul)],
        "antipode": [list(row) for row in zip(*[new(h.s_apply(v)) for v in basis])]})


def c3_on_three_points_rebased():
    """C3 rotating three points over Q, with H in the basis 1, g, g + g^2:
    S(g) = (g + g^2) - g and delta(g + g^2) repeats first tensor factors."""
    basis = [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
    h = rebased(group_algebra(cyclic_group_table(3), QQ), basis)
    rot = [[[1 if (x + g) % 3 == y else 0 for y in range(3)] for x in range(3)]
           for g in range(3)]
    tensor = [[[sum(b[g] * rot[g][x][y] for g in range(3)) for y in range(3)]
               for x in range(3)] for b in basis]
    return ModuleAlgebraAction(h, product_field_algebra(QQ, 3), tensor,
                               name="c3-on3-rebased")


def all_actions(ws):
    return sorted(ws.actions.items()) + [("c2-on3-f3", c2_on_three_points_f3()),
                                         ("c3-on3-rebased", c3_on_three_points_rebased())]


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
        assert (invariants_of(act.operator_matrices, act.hopf.counit)
                == action_invariants_oracle(act)), name
        conv = ConvolutionAlgebra(act)
        for ops in (conv.rh_operators, conv.dot_operators):
            got = invariants_of(ops, conv.hopf.counit)
            assert got == operator_invariants_oracle(conv, ops), name


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
    out = zero_matrix(F, mats[0].nrows, mats[0].ncols)
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
        img = vec_mul_oracle(mats[i], v)
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
        for ops in (conv.rh_operators, conv.dot_operators):
            for hvec in coefficient_vectors(rng, F, conv.hopf.dim):
                summed = combine(hvec, ops)
                assert summed == combine_oracle(hvec, ops), name
                for b in coords:
                    want = apply_oracle(hvec, ops, b)
                    assert apply_combination(hvec, ops, b) == want, name
                    assert summed.vec_mul(b) == want, name


# -- the dense structure-constant builders, as oracles ------------------------
# Each returns (mult, unit, comul, counit, antipode) as dense lists: mult is
# n x n x n, comul n^2 x n with row i*n + k, antipode n x n.

def dense_views(h):
    return (h.alg.mult, h.alg.unit, h.comul.data, h.counit, h.antipode.data)


def group_algebra_oracle(table, F):
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][j] == j for j in range(n)))
    mult = [[[F.one if table[i][j] == k else F.zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [F.one if i == identity else F.zero for i in range(n)]
    comul = [[F.zero] * n for _ in range(n * n)]
    antipode = [[F.zero] * n for _ in range(n)]
    for j in range(n):
        comul[j * n + j][j] = F.one
        antipode[table[j].index(identity)][j] = F.one
    return mult, unit, comul, [F.one] * n, antipode


def dual_hopf_oracle(h):
    n = h.dim
    comul = h.comul.data
    mult = [[[comul[i * n + j][k] for k in range(n)] for j in range(n)]
            for i in range(n)]
    dcomul = [[h.alg.mult[r // n][r % n][k] for k in range(n)] for r in range(n * n)]
    return (mult, list(h.counit), dcomul, list(h.alg.unit),
            h.antipode.transpose().data)


def tensor_algebra_prod_oracle(a1, a2):
    F = a1.field
    idx1 = list(itertools.product(range(a1.dim), range(a2.dim)))
    mult = [[[F.mul(a1.mult[i1][j1][k1], a2.mult[i2][j2][k2]) for k1, k2 in idx1]
             for j1, j2 in idx1] for i1, i2 in idx1]
    return mult, [F.mul(u1, u2) for u1 in a1.unit for u2 in a2.unit]


def tensor_hopf_oracle(h1, h2):
    F = h1.field
    n1, n2 = h1.dim, h2.dim
    n = n1 * n2
    mult, unit = tensor_algebra_prod_oracle(h1.alg, h2.alg)
    comul = [[F.zero] * n for _ in range(n * n)]
    for a, c, b, d in itertools.product(range(n1), range(n1), range(n2), range(n2)):
        row = (a * n2 + b) * n + (c * n2 + d)
        for j1, j2 in itertools.product(range(n1), range(n2)):
            comul[row][j1 * n2 + j2] = F.mul(h1.comul.data[a * n1 + c][j1],
                                             h2.comul.data[b * n2 + d][j2])
    counit = [F.mul(e1, e2) for e1 in h1.counit for e2 in h2.counit]
    antipode = [[F.mul(h1.antipode.data[i1][j1], h2.antipode.data[i2][j2])
                 for j1 in range(n1) for j2 in range(n2)]
                for i1 in range(n1) for i2 in range(n2)]
    return mult, unit, comul, counit, antipode


def sweedler_oracle(F):
    one, neg, z = F.one, F.neg(F.one), F.zero
    mult = [[[z] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, k, c in [(0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
                       (0, 3, 3, one), (1, 0, 1, one), (1, 1, 0, one),
                       (1, 2, 3, one), (1, 3, 2, one), (2, 0, 2, one),
                       (2, 1, 3, neg), (3, 0, 3, one), (3, 1, 2, neg)]:
        mult[i][j][k] = c
    comul = [[z] * 4 for _ in range(16)]
    for i, k, j in [(0, 0, 0), (1, 1, 1), (2, 0, 2), (1, 2, 2), (3, 1, 3), (0, 3, 3)]:
        comul[i * 4 + k][j] = one
    antipode = [[one, z, z, z], [z, one, z, z], [z, z, z, one], [z, z, neg, z]]
    return mult, [one, z, z, z], comul, [one, one, z, z], antipode


def restricted_line_oracle(p):
    F = GF(p)
    mult = [[[F.one if i + j == k else F.zero for k in range(p)]
             for j in range(p)] for i in range(p)]
    comul = [[F.zero] * p for _ in range(p * p)]
    for k in range(p):
        for i in range(k + 1):
            comul[i * p + (k - i)][k] = F.from_int(math.comb(k, i))
    antipode = [[F.from_int((-1) ** k) if r == k else F.zero for k in range(p)]
                for r in range(p)]
    return (mult, [F.one] + [F.zero] * (p - 1), comul,
            [F.one] + [F.zero] * (p - 1), antipode)


def flat(x):
    if isinstance(x, list):
        return [c for item in x for c in flat(item)]
    return [x]


def assert_terms_canonical(h):
    """Every stored term list is sorted, with distinct keys and no zero."""
    F = h.field
    lists = ([t for plane in h.alg.mult_sparse for t in plane]
             + [[((i, k), c) for i, k, c in col] for col in h.comul_sparse]
             + h.antipode_sparse)
    for terms in lists:
        keys = [key for key, _ in terms]
        assert keys == sorted(set(keys)), h.name
        assert not any(F.is_zero(c) for _, c in terms), h.name


def assert_matches_oracle(h, oracle):
    got = dense_views(h)
    assert got == oracle, h.name
    assert [type(c) for c in flat(list(got))] == [type(c) for c in flat(list(oracle))]
    assert_terms_canonical(h)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_term_builders_match_dense_builders(field):
    """Criterion 1's inputs: the five stock Hopf algebras, their tensor squares."""
    c2, s3 = cyclic_group_table(2), symmetric_group_table(3)
    base = [(group_algebra(c2, field), group_algebra_oracle(c2, field)),
            (group_algebra(s3, field), group_algebra_oracle(s3, field)),
            (sweedler_hopf(field), sweedler_oracle(field))]
    base += [(dual_hopf(h), dual_hopf_oracle(h)) for h, _ in base[:2]]
    for h, oracle in base:
        assert_matches_oracle(h, oracle)
    for (h1, _), (h2, _) in itertools.combinations_with_replacement(base, 2):
        assert_matches_oracle(tensor_hopf(h1, h2), tensor_hopf_oracle(h1, h2))


def test_bundled_hopfs_duals_and_builders(ws):
    rebased_c3 = c3_on_three_points_rebased().hopf
    for name, h in sorted(ws.hopfs.items()) + [("kC3-rebased", rebased_c3)]:
        assert_terms_canonical(h)
        dual = dual_hopf(h)
        assert_matches_oracle(dual, dual_hopf_oracle(h))
        assert_matches_oracle(dual_hopf(dual), dense_views(h))
    assert verify_hopf(rebased_c3).ok and is_cocommutative(rebased_c3)
    square = tensor_hopf(rebased_c3, rebased_c3)
    assert_matches_oracle(square, tensor_hopf_oracle(rebased_c3, rebased_c3))
    assert is_cocommutative(square)
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    for table, field in [(klein, GF(2)), (cyclic_group_table(3), GF(7)),
                         (cyclic_group_table(3), QQ)]:
        assert_matches_oracle(group_algebra(table, field),
                              group_algebra_oracle(table, field))
    for p in (2, 3, 5):
        assert_matches_oracle(restricted_line_hopf(p), restricted_line_oracle(p))


SMALL_GROUPS = [cyclic_group_table(n) for n in range(1, 5)] + [
    [[i ^ j for j in range(4)] for i in range(4)], symmetric_group_table(3)]


@st.composite
def relabelled_group(draw):
    """A small group table with its elements renamed by a random permutation."""
    table = draw(st.sampled_from(SMALL_GROUPS))
    perm = draw(st.permutations(range(len(table))))
    out = [[None] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            out[perm[i]][perm[j]] = perm[k]
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ])
def test_random_group_algebras_verify_and_round_trip(field):
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(relabelled_group())
    def check(table):
        h = group_algebra(table, field)
        hopfs = [h, dual_hopf(h)] + ([tensor_hopf(h, h)] if h.dim <= 4 else [])
        for x in hopfs:
            assert verify_hopf(x).ok
            back = load_hopf(x.to_json())
            assert ((back.alg.mult_sparse, back.alg.unit, back.comul_sparse,
                     back.counit, back.antipode_sparse)
                    == (x.alg.mult_sparse, x.alg.unit, x.comul_sparse,
                        x.counit, x.antipode_sparse))
    check()


# -- the Kronecker-product builders against the index loops they replaced -----

def iota_oracle(conv):
    """a -> eps (x) a by the index loop."""
    F = conv.field
    nA = conv.alg.dim
    rows = [[e if q == j else F.zero for j in range(nA)]
            for e in conv.hopf.counit for q in range(nA)]
    return Matrix(F, conv.dim, nA, rows)


def ustar_oracle(conv):
    """f -> f (x) 1_A by the index loop."""
    F = conv.field
    nH = conv.hopf.dim
    rows = [[u if r == p else F.zero for r in range(nH)]
            for p in range(nH) for u in conv.alg.unit]
    return Matrix(F, conv.dim, nH, rows)


def tensor_with_dual_oracle(conv, sub_a):
    """H* (x) W: each basis row of W placed in every Hopf slot."""
    F = conv.field
    vecs = []
    for row in sub_a.rows:
        for p in range(conv.hopf.dim):
            v = [F.zero] * conv.dim
            for q, x in enumerate(row):
                v[conv.index(p, q)] = x
            vecs.append(v)
    return Subspace.from_vectors(F, conv.dim, vecs)


def test_embeddings_and_dual_tensor_match_index_loops(ws):
    for name, act in all_actions(ws):
        conv = ConvolutionAlgebra(act)
        assert conv.iota_matrix == iota_oracle(conv), name
        assert conv.ustar_matrix == ustar_oracle(conv), name
        F, n = conv.field, conv.alg.dim
        rng = random.Random(f"dual-tensor/{name}")
        subs = [Subspace.zero(F, n), Subspace.full(F, n)]
        subs += [Subspace.from_vectors(F, n, [[F.parse(rng.choice([-1, 0, 0, 1, 2]))
                                               for _ in range(n)]
                                              for _ in range(rng.randint(1, n))])
                 for _ in range(4)]
        for sub in subs:
            assert conv.tensor_with_dual(sub) == tensor_with_dual_oracle(conv, sub), name


def stratum_oracle(act, pieces):
    """The stratum action tensor on Z (x) H* and the embedding into B, by
    the index loops."""
    F = act.field
    bar, zsub, zalg, zembed = (pieces.base_action, pieces.center, pieces.center_alg,
                               pieces.center_embed)
    nz, nH, nq = zalg.dim, act.hopf.dim, pieces.quotient.dim
    tz = [[zsub.coords_in_basis(bar.act_basis(i, zembed.vec_mul(zalg.basis_vector(a))))
           for a in range(nz)] for i in range(nH)]
    hit = hit_action(act.hopf)
    dC = nz * nH
    tC = [[[F.zero] * dC for _ in range(dC)] for _ in range(nH)]
    for i in range(nH):
        for (u, v, coef) in act.hopf.comul_sparse[i]:
            for a in range(nz):
                for c in range(nz):
                    t1 = tz[u][a][c]
                    if F.is_zero(t1):
                        continue
                    ct1 = F.mul(coef, t1)
                    for b in range(nH):
                        for d in range(nH):
                            t2 = hit.tensor[v][b][d]
                            if not F.is_zero(t2):
                                tC[i][a * nH + b][c * nH + d] = F.add(
                                    tC[i][a * nH + b][c * nH + d], F.mul(ct1, t2))
    conv = pieces.conv
    embed = [[F.zero] * dC for _ in range(conv.dim)]
    for a in range(nz):
        zvec = zembed.vec_mul(zalg.basis_vector(a))
        for b in range(nH):
            for qq in range(nq):
                embed[conv.index(b, qq)][a * nH + b] = zvec[qq]
    return tC, Matrix(F, conv.dim, dC, embed)


def test_stratum_pieces_match_index_loops(ws):
    built = 0
    for name, act in all_actions(ws):
        try:
            bases = h_spectrum(act)
        except UnsupportedComputation:
            continue
        for base in bases:
            try:
                pieces = _build_stratum_pieces(act, base)
            except ValueError:
                continue
            tC, embed = stratum_oracle(act, pieces)
            assert pieces.action.tensor == tC, name
            assert pieces.embed == embed, name
            built += 1
    assert built == 13


def sub_hopf_oracle(h, sub):
    """verify_sub_hopf's failures, with the pair span f (x) g by the index loop."""
    F = h.field
    dual = dual_hopf(h)
    basis = sub.basis_vectors()
    failures = [] if sub.contains(list(h.counit)) else [{"axiom": "contains-counit"}]
    for f in basis:
        if not sub.contains(dual.s_apply(f)):
            failures.append({"axiom": "antipode-stable"})
        for g in basis:
            if not sub.contains(dual.alg.multiply(f, g)):
                failures.append({"axiom": "product-closed"})
    pair_span = Subspace.from_vectors(F, h.dim * h.dim,
                                      [[F.mul(a, b) for a in f for b in g]
                                       for f in basis for g in basis])
    for f in basis:
        if not pair_span.contains(dual.delta(f)):
            failures.append({"axiom": "coproduct-stable"})
    return failures


def test_verify_sub_hopf_matches_index_loop(ws):
    rng = random.Random("sub-hopf")
    seen = set()
    for name, h in sorted(ws.hopfs.items()):
        F = h.field
        subs = [Subspace.zero(F, h.dim), Subspace.full(F, h.dim)]
        subs += [Subspace.from_vectors(F, h.dim, [list(h.counit)] + [
            [F.parse(rng.choice([-1, 0, 0, 1])) for _ in range(h.dim)]
            for _ in range(rng.randint(1, 2))]) for _ in range(4)]
        for sub in subs:
            want = sub_hopf_oracle(h, sub)
            assert verify_sub_hopf(h, sub).witnesses == want, name
            seen.update(w["axiom"] for w in want)
    assert "coproduct-stable" in seen


# -- the Field-method loops against the plain-integer hot loops -----------------
# Before integral rationals became ints, these loops called F.add, F.mul and
# F.is_zero on every scalar; the program now accumulates plain sums and
# reduces once per output entry.  The old bodies are the oracles.

def vec_mul_oracle(m, v):
    F = m.field
    out = [F.zero] * m.nrows
    for j, a in enumerate(v):
        if F.is_zero(a):
            continue
        for i in range(m.nrows):
            b = m.data[i][j]
            if not F.is_zero(b):
                out[i] = F.add(out[i], F.mul(a, b))
    return out


def mat_mul_oracle(a, b):
    F = a.field
    out = zero_matrix(F, a.nrows, b.ncols)
    for i in range(a.nrows):
        for k in range(a.ncols):
            x = a.data[i][k]
            if F.is_zero(x):
                continue
            for j in range(b.ncols):
                y = b.data[k][j]
                if not F.is_zero(y):
                    out.data[i][j] = F.add(out.data[i][j], F.mul(x, y))
    return out


def kron_sum_oracle(terms):
    _, a0, b0 = terms[0]
    F = a0.field
    rb, cb = b0.nrows, b0.ncols
    out = zero_matrix(F, a0.nrows * rb, a0.ncols * cb)
    for c, a, b in terms:
        if F.is_zero(c):
            continue
        for i, j, k, l in itertools.product(range(a.nrows), range(a.ncols),
                                            range(b.nrows), range(b.ncols)):
            x, y = a.data[i][j], b.data[k][l]
            if not F.is_zero(x) and not F.is_zero(y):
                row = out.data[i * rb + k]
                row[j * cb + l] = F.add(row[j * cb + l], F.mul(F.mul(c, x), y))
    return out


def rref_oracle(F, data, ncols):
    rows = [list(r) for r in data]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        if inv != F.one:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [F.sub(ri[j], F.mul(f, rr[j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def multiply_oracle(alg, x, y):
    F = alg.field
    out = [F.zero] * alg.dim
    for i, a in enumerate(x):
        if F.is_zero(a):
            continue
        for j, b in enumerate(y):
            if F.is_zero(b):
                continue
            ab = F.mul(a, b)
            for k, c in alg.mult_sparse[i][j]:
                out[k] = F.add(out[k], F.mul(ab, c))
    return out


def support_oracle(F, terms):
    return {key: c for key, c in terms.items() if not F.is_zero(c)}


def verify_algebra_oracle(a):
    """The witnesses of verify_algebra, one associator per basis triple."""
    F, n, sparse = a.field, a.dim, a.mult_sparse
    out = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs, rhs = {}, {}
        for m, c in sparse[i][j]:
            for q, d in sparse[m][k]:
                lhs[q] = F.add(lhs.get(q, F.zero), F.mul(c, d))
        for m, c in sparse[j][k]:
            for q, d in sparse[i][m]:
                rhs[q] = F.add(rhs.get(q, F.zero), F.mul(c, d))
        if support_oracle(F, lhs) != support_oracle(F, rhs):
            out.append({"axiom": "associativity", "triple": [i, j, k]})
    for j in range(n):
        ej = [F.one if t == j else F.zero for t in range(n)]
        if multiply_oracle(a, a.unit, ej) != ej:
            out.append({"axiom": "left-unit", "basis": j})
        if multiply_oracle(a, ej, a.unit) != ej:
            out.append({"axiom": "right-unit", "basis": j})
    return out


def verify_hopf_oracle(h):
    """The witnesses of verify_hopf, each side accumulated with Field methods."""
    F, n, alg = h.field, h.dim, h.alg
    base = verify_algebra_oracle(alg)
    if base:
        return [{"axiom": "underlying-algebra"}] + base
    out = []
    cols, sp = h.comul_sparse, alg.mult_sparse
    for j in range(n):
        lhs, rhs = {}, {}
        for (i, k, c) in cols[j]:
            for (a, b, d) in cols[i]:
                lhs[a, b, k] = F.add(lhs.get((a, b, k), F.zero), F.mul(c, d))
            for (a, b, d) in cols[k]:
                rhs[i, a, b] = F.add(rhs.get((i, a, b), F.zero), F.mul(c, d))
        if support_oracle(F, lhs) != support_oracle(F, rhs):
            out.append({"axiom": "coassociativity", "basis": j})
    for j in range(n):
        left, right = [F.zero] * n, [F.zero] * n
        for (i, k, c) in cols[j]:
            left[k] = F.add(left[k], F.mul(c, h.counit[i]))
            right[i] = F.add(right[i], F.mul(c, h.counit[k]))
        ej = [F.one if t == j else F.zero for t in range(n)]
        if left != ej or right != ej:
            out.append({"axiom": "counit", "basis": j})
    if h.eps(alg.unit) != F.one:
        out.append({"axiom": "counit-unital"})
    for i, j in itertools.product(range(n), repeat=2):
        prod_eps = F.zero
        for k, c in sp[i][j]:
            prod_eps = F.add(prod_eps, F.mul(c, h.counit[k]))
        if prod_eps != F.mul(h.counit[i], h.counit[j]):
            out.append({"axiom": "counit-multiplicative", "pair": [i, j]})
    if h.delta(alg.unit) != [F.mul(a, b) for a in alg.unit for b in alg.unit]:
        out.append({"axiom": "comul-unital"})
    for i, j in itertools.product(range(n), repeat=2):
        lhs, rhs = {}, {}
        for k, c in sp[i][j]:
            for (a, b, d) in cols[k]:
                lhs[a, b] = F.add(lhs.get((a, b), F.zero), F.mul(c, d))
        for (a, b, c1), (d, e, c2) in itertools.product(cols[i], cols[j]):
            for (x, cx), (y, cy) in itertools.product(sp[a][d], sp[b][e]):
                rhs[x, y] = F.add(rhs.get((x, y), F.zero),
                                  F.mul(F.mul(c1, c2), F.mul(cx, cy)))
        if support_oracle(F, lhs) != support_oracle(F, rhs):
            out.append({"axiom": "comul-multiplicative", "pair": [i, j]})
    for j in range(n):
        left, right = [F.zero] * n, [F.zero] * n
        for (i, k, c) in cols[j]:
            for m, a in h.antipode_sparse[i]:
                for q, d in sp[m][k]:
                    left[q] = F.add(left[q], F.mul(F.mul(c, a), d))
            for m, a in h.antipode_sparse[k]:
                for q, d in sp[i][m]:
                    right[q] = F.add(right[q], F.mul(F.mul(c, a), d))
        target = [F.mul(h.counit[j], u) for u in alg.unit]
        if left != target:
            out.append({"axiom": "antipode-left", "basis": j})
        if right != target:
            out.append({"axiom": "antipode-right", "basis": j})
    return out


PLAIN_LOOP_FIELDS = [QQ, GF(2), GF(3), GF(5)]


def scalars(field):
    """Canonical scalars; over Q both ints and Fractions, integral ones too."""
    if field.p is None:
        return st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(0), Fraction(2),
                                Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])
    return st.integers(0, field.p - 1)


def draw_matrix(draw, field, nrows, ncols):
    rows = draw(st.lists(st.lists(scalars(field), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(field, nrows, ncols, rows)


def stock_hopfs(field):
    c2 = group_algebra(cyclic_group_table(2), field, name="kC2")
    s3 = group_algebra(symmetric_group_table(3), field, name="kS3")
    return [c2, s3, dual_hopf(s3), sweedler_hopf(field), tensor_hopf(c2, c2)]


def stock_algebras(field):
    return [h.alg for h in stock_hopfs(field)] + [
        matrix_algebra(field, 2), upper_triangular_algebra(field),
        truncated_poly_algebra(field, 3), dual_number_plane_algebra(field)]


def as_fractions(field, xs):
    return [Fraction(x) for x in xs] if field.p is None else list(xs)


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_plain_loops_match_field_method_loops(field):
    algebras = stock_algebras(field)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def check(data):
        draw = data.draw
        r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
        a, b = draw_matrix(draw, field, r, k), draw_matrix(draw, field, k, c)
        v = draw(st.lists(scalars(field), min_size=k, max_size=k))
        assert a.vec_mul(v) == vec_mul_oracle(a, v)
        assert a.mat_mul(b) == mat_mul_oracle(a, b)
        assert _rref_data(field, a.data, k) == rref_oracle(field, a.data, k)
        mats = [draw_matrix(draw, field, r, k) for _ in range(draw(st.integers(1, 3)))]
        coeffs = [draw(scalars(field)) for _ in mats]
        assert apply_combination(coeffs, mats, v) == apply_oracle(coeffs, mats, v)
        terms = [(coeff, m, b) for coeff, m in zip(coeffs, mats)]
        assert kron_sum(terms) == kron_sum_oracle(terms)
        alg = draw(st.sampled_from(algebras))
        x, y = (draw(st.lists(scalars(field), min_size=alg.dim, max_size=alg.dim))
                for _ in range(2))
        assert alg.multiply(x, y) == multiply_oracle(alg, x, y)
    check()


def perturbed_terms(draw, field, terms, key_ranges):
    """``terms`` (lists of (key..., c) tuples) with one to three nonzero
    scalars added to coefficients; over Q every scalar may come back as a
    Fraction."""
    out = [list(t) for t in terms]
    wrap = field.p is None and draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        slot = draw(st.integers(0, len(out) - 1))
        key = tuple(draw(st.integers(0, n - 1)) for n in key_ranges)
        coeffs = {t[:-1]: t[-1] for t in out[slot]}
        coeffs[key] = field.add(coeffs.get(key, field.zero),
                                draw(scalars(field).filter(bool)))
        out[slot] = sorted(k + (c,) for k, c in coeffs.items() if c)
    return [[t[:-1] + (Fraction(t[-1]),) if wrap else t for t in ts] for ts in out]


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_verify_algebra_matches_per_triple_loop(ws, field):
    algebras = stock_algebras(field) + [a for _, a in sorted(ws.algebras.items())
                                        if a.field == field]
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        alg = data.draw(st.sampled_from(algebras))
        n = alg.dim
        flat_terms = perturbed_terms(data.draw, field,
                                     [t for plane in alg.mult_sparse for t in plane], [n])
        pert = FiniteAlgebra.from_terms(
            field, n, [flat_terms[i * n:(i + 1) * n] for i in range(n)],
            as_fractions(field, alg.unit), name=alg.name)
        got = verify_algebra(pert).witnesses
        assert got == verify_algebra_oracle(pert), alg.name
        failing.append(bool(got))
    check()
    assert verify_algebra_oracle(algebras[0]) == verify_algebra(algebras[0]).witnesses == []
    assert sum(failing) >= len(failing) // 2


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_verify_hopf_matches_field_method_loop(ws, field):
    hopfs = stock_hopfs(field) + [h for _, h in sorted(ws.hopfs.items())
                                  if h.field == field]
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        h = data.draw(st.sampled_from(hopfs))
        n = h.dim
        part = data.draw(st.sampled_from(["comul", "antipode", "counit"]))
        comul, antipode, counit = h.comul_sparse, h.antipode_sparse, h.counit
        if part == "comul":
            comul = perturbed_terms(data.draw, field, comul, [n, n])
        elif part == "antipode":
            antipode = perturbed_terms(data.draw, field, antipode, [n])
        else:
            counit = list(counit)
            j = data.draw(st.integers(0, n - 1))
            counit[j] = field.add(counit[j], data.draw(scalars(field).filter(bool)))
        pert = HopfAlgebra(h.alg, comul, counit, antipode, name=h.name)
        got = verify_hopf(pert).witnesses
        assert got == verify_hopf_oracle(pert), (h.name, part)
        failing.append(bool(got))
    check()
    assert all(verify_hopf(h).ok and not verify_hopf_oracle(h) for h in hopfs)
    assert sum(failing) >= len(failing) // 2


def fraction_workspace():
    """A fresh load of the bundled corpus in which every scalar a Q fixture
    stores is a Fraction, as all Q scalars were before integral rationals
    became ints; prime-field fixtures are shared as they are."""
    ws = load_bundled(verify=False)
    built = {}

    def once(obj, field, build):
        if field.p is not None:
            return obj
        if id(obj) not in built:
            built[id(obj)] = build()
        return built[id(obj)]

    def frac(xs):
        return [Fraction(x) for x in xs]

    def matrix(m):
        return Matrix(m.field, m.nrows, m.ncols, [frac(r) for r in m.data])

    def alg(a):
        return once(a, a.field, lambda: FiniteAlgebra.from_terms(
            a.field, a.dim, [[[(k, Fraction(c)) for k, c in t] for t in plane]
                             for plane in a.mult_sparse], frac(a.unit), name=a.name))

    def hopf(h):
        return once(h, h.field, lambda: HopfAlgebra(
            alg(h.alg), [[(i, k, Fraction(c)) for i, k, c in col] for col in h.comul_sparse],
            frac(h.counit), [[(i, Fraction(c)) for i, c in col] for col in h.antipode_sparse],
            name=h.name))

    def action(act):
        def build():
            new = ModuleAlgebraAction(hopf(act.hopf), alg(act.alg), act.tensor,
                                      name=act.name)
            new.tensor = [[frac(row) for row in plane] for plane in act.tensor]
            return new
        return once(act, act.field, build)

    def lie(lact):
        def build():
            new = LieAction(alg(lact.alg), [matrix(d) for d in lact.derivations],
                            lact.brackets, name=lact.name)
            new.brackets = [[frac(row) for row in plane] for plane in lact.brackets]
            return new
        return once(lact, lact.alg.field, build)

    def ideal(i):
        sp = i.space
        rows = tuple(tuple(frac(r)) for r in sp.rows)
        return once(i, sp.field, lambda: Ideal(
            alg(i.alg), Subspace(sp.field, sp.ambient_dim, rows, sp.pivots, _canonical=True),
            check=False, name=i.name))

    def representation(r):
        def build():
            new = Representation(hopf(r.hopf), [m.data for m in r.rho], name=r.name)
            new.rho = [matrix(m) for m in r.rho]
            return new
        return once(r, r.hopf.field, build)

    out = Workspace()
    for registry, rebuild in (("hopfs", hopf), ("algebras", alg), ("actions", action),
                              ("lie_actions", lie), ("ideals", ideal),
                              ("representations", representation)):
        setattr(out, registry, {name: rebuild(obj)
                                for name, obj in getattr(ws, registry).items()})
    return out


def test_fraction_scalars_give_equal_reports(ws):
    fws = fraction_workspace()
    wrapped = [x for h in fws.hopfs.values() if h.field.p is None for x in h.counit]
    assert wrapped and all(type(x) is Fraction for x in wrapped)
    for command in ("verify", "core", "strata"):
        argvs = goldens.cases(ws)[command]
        with goldens.shared_workspace(ws):
            want = [goldens.capture(argv) for argv in argvs]
        with goldens.shared_workspace(fws):
            got = [goldens.capture(argv) for argv in argvs]
        assert got == want, command


# -- the block splitter and the radical path against their old routes -----------

def poly_eval_oracle(alg, coeffs, x, unit=None):
    """poly_eval_in_algebra with a Field call per scalar."""
    F = alg.field
    u = list(alg.unit) if unit is None else list(unit)
    out = [F.zero] * alg.dim
    power = u
    for i, c in enumerate(coeffs):
        if not F.is_zero(c):
            out = [F.add(out[k], F.mul(c, power[k])) for k in range(alg.dim)]
        if i + 1 < len(coeffs):
            power = alg.multiply(power, x)
    return out


def trace_form_kernel_oracle(alg):
    """_trace_form_kernel with a Field call per scalar."""
    F = alg.field
    n = alg.dim
    L = [alg.left_mult_matrix(alg.basis_vector(b)) for b in range(n)]
    gram = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = F.zero
            Li, Lj = L[i].data, L[j].data
            for k in range(n):
                row = Li[k]
                for m in range(n):
                    x = row[m]
                    if not F.is_zero(x):
                        acc = F.add(acc, F.mul(x, Lj[m][k]))
            gram[i][j] = gram[j][i] = acc
    return kernel(Matrix(F, n, n, gram))


def structure_trace_form_oracle(alg):
    """The Gram matrix sum_m c_ij^m tr(L_m) with a Field call per scalar:
    the trace form read off the structure constants, which equals
    tr(L_i L_j) only when the algebra is associative."""
    F = alg.field
    n = alg.dim
    t = [F.zero] * n
    for m in range(n):
        for k in range(n):
            for q, c in alg.mult_sparse[m][k]:
                if q == k:
                    t[m] = F.add(t[m], c)
    gram = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for m, c in alg.mult_sparse[i][j]:
                gram[i][j] = F.add(gram[i][j], F.mul(c, t[m]))
    return kernel(Matrix(F, n, n, gram))


def try_split_oracle(Z, u):
    """_try_split without the t^2 - t shortcut: every minimal polynomial is
    factored by sympy and the idempotents come from its extended gcds."""
    F = Z.field
    corner = ideals._corner_basis(Z, u)
    d = len(corner)
    if d == 1:
        return None
    budget = 20000
    for cand in ideals._splitter_candidates(Z, corner):
        budget -= 1
        if budget < 0:
            break
        x = Z.multiply(cand, u)
        mp = ideals.minimal_polynomial(Z, x, unit=u)
        factors = ideals.factor_irreducible(F, mp)
        if any(m > 1 for _, m in factors):
            raise RuntimeError("repeated factor inside a semisimple center")
        if len(factors) == 1:
            if len(mp) - 1 == d:
                return None
            continue
        modulus = ideals._to_poly(F, mp)
        pieces = []
        for fac, _ in factors:
            f = ideals._to_poly(F, fac)
            n_i = modulus.quo(f)
            s, _, g = n_i.gcdex(f)
            if g.degree() != 0:
                raise RuntimeError("factors of a squarefree polynomial not coprime")
            e_red = ideals._from_poly(F, (s * n_i).rem(modulus))
            pieces.append(poly_eval_oracle(Z, e_red, x, unit=u))
        return pieces
    raise UnsupportedComputation(
        "could not certify a center factor as a field within the search budget")


def sympy_calls(monkeypatch):
    """The polynomials ``ideals`` hands to sympy from now on."""
    calls = []
    to_poly = ideals._to_poly

    def counted(F, coeffs):
        calls.append(list(coeffs))
        return to_poly(F, coeffs)

    monkeypatch.setattr(ideals, "_to_poly", counted)
    return calls


def split_oracle(Z):
    """split_primitive_idempotents on try_split_oracle."""
    pieces = [list(Z.unit)]
    done = []
    while pieces:
        u = pieces.pop()
        finer = try_split_oracle(Z, u)
        if finer is None:
            done.append(u)
        else:
            pieces.extend(finer)
    done.sort(key=lambda v: [str(c) for c in v])
    return done


def direct_product(a, b):
    """A x B, the basis of A followed by that of B."""
    n, m = a.dim, b.dim
    terms = [[[] for _ in range(n + m)] for _ in range(n + m)]
    for i, j in itertools.product(range(n), repeat=2):
        terms[i][j] = list(a.mult_sparse[i][j])
    for i, j in itertools.product(range(m), repeat=2):
        terms[n + i][n + j] = [(n + k, c) for k, c in b.mult_sparse[i][j]]
    return FiniteAlgebra.from_terms(a.field, n + m, terms, list(a.unit) + list(b.unit))


# C5 and C8 give root-free quartics (Phi_5, t^4 + 1): the sympy branch of
# factor_irreducible over every field of PLAIN_LOOP_FIELDS
SPLIT_GROUPS = {"C2": cyclic_group_table(2), "C3": cyclic_group_table(3),
                "C4": cyclic_group_table(4), "C5": cyclic_group_table(5),
                "C8": cyclic_group_table(8),
                "C2xC2": [[i ^ j for j in range(4)] for i in range(4)],
                "S3": symmetric_group_table(3)}


def algebra_copy(alg):
    """A new algebra object with the structure of ``alg``: nothing kept on
    ``alg`` (cached properties, spectrum, radical, center) carries over."""
    return FiniteAlgebra.from_terms(alg.field, alg.dim, alg.mult_sparse, alg.unit,
                                    name=alg.name)


def spectrum_key(entries):
    return [(e.prime.space, e.simple_quotient_dim, e.heart_dim, e.inert) for e in entries]


def group_center(table, field):
    """Z(kG), a commutative algebra (semisimple unless char k divides |G|)."""
    alg = group_algebra(table, field).alg
    return ideals.subalgebra_structure(alg, ideals.center_subspace(alg))[0]


def semisimple_center(alg):
    """The center of A / rad A, the algebra spectrum splits."""
    S = ideals.quotient_algebra(alg, ideals.radical_subspace(alg))[0]
    return ideals.subalgebra_structure(S, ideals.center_subspace(S))[0]


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_idempotent_shortcut_matches_factoring(field, monkeypatch):
    centers = {name: group_center(t, field) for name, t in SPLIT_GROUPS.items()}
    centers["k"] = product_field_algebra(field, 1)
    factored = []
    factor = ideals.factor_irreducible

    def counted_factor(F, coeffs):
        factored.append(coeffs)
        return factor(F, coeffs)

    monkeypatch.setattr(ideals, "factor_irreducible", counted_factor)
    to_sympy = sympy_calls(monkeypatch)
    saved, kept, reached_sympy, oracle_linear = [], [], [], []

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(st.lists(st.sampled_from(sorted(centers)), min_size=1, max_size=3))
    def check(names):
        alg = centers[names[0]]
        for name in names[1:]:
            alg = direct_product(alg, centers[name])
        Z = semisimple_center(alg)
        factored.clear()
        want = split_oracle(Z)
        calls = len(factored)
        oracle_linear.append(sum(len(m) == 2 for m in factored))
        factored.clear()
        to_sympy.clear()
        assert ideals.split_primitive_idempotents(Z) == want, names
        # a linear m neither splits the corner nor certifies it a field
        assert all(len(m) > 2 for m in factored), names
        saved.append(calls - len(factored))
        kept.append(len(factored))
        reached_sympy.append(len(to_sympy))
        # each route on its own copy: the spectrum is kept on the algebra
        with monkeypatch.context() as m:
            m.setattr(ideals, "_try_split", try_split_oracle)
            old = spectrum(algebra_copy(alg))
        assert spectrum_key(spectrum(algebra_copy(alg))) == spectrum_key(old), names
    check()
    # the shortcut took over some factorizations, the program factored
    # others, and some of those reached sympy (a root-free quartic)
    assert min(saved) >= 0 and sum(saved) > 0 and sum(kept) > 0
    assert sum(reached_sympy) > 0 and sum(oracle_linear) > 0


RADICAL_FIELDS = [QQ, GF(7)]    # p > dim for every algebra drawn: the trace-form route


@pytest.mark.parametrize("field", RADICAL_FIELDS)
def test_radical_path_matches_field_method_loops(ws, field):
    algebras = stock_algebras(field) + [a for _, a in sorted(ws.algebras.items())
                                        if a.field == field]

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        alg = data.draw(st.sampled_from(algebras))
        n = alg.dim
        flat_terms = perturbed_terms(data.draw, field,
                                     [t for plane in alg.mult_sparse for t in plane], [n])
        pert = FiniteAlgebra.from_terms(
            field, n, [flat_terms[i * n:(i + 1) * n] for i in range(n)],
            as_fractions(field, alg.unit), name=alg.name)
        # the perturbed algebra is not associative: there the structure
        # constant trace form is not the dense Gram matrix tr(L_i L_j)
        assert ideals._trace_form_kernel(alg) == trace_form_kernel_oracle(alg), alg.name
        for a in (alg, pert):
            assert ideals._trace_form_kernel(a) == structure_trace_form_oracle(a), a.name
            coeffs = data.draw(st.lists(scalars(field), max_size=4))
            x = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
            unit = data.draw(st.sampled_from([None, x]))
            assert (ideals.poly_eval_in_algebra(a, coeffs, x, unit)
                    == poly_eval_oracle(a, coeffs, x, unit)), a.name
    check()


# -- the operator sums and subspace elimination against their Field-method loops

def mult_matrix_oracle(alg, x, left):
    """left_mult_matrix / right_mult_matrix with a Field call per scalar."""
    F, n = alg.field, alg.dim
    rows = [[F.zero] * n for _ in range(n)]
    for i, a in enumerate(x):
        if F.is_zero(a):
            continue
        for j in range(n):
            for k, c in (alg.mult_sparse[i][j] if left else alg.mult_sparse[j][i]):
                rows[k][j] = F.add(rows[k][j], F.mul(a, c))
    return Matrix(F, n, n, rows)


def subspace_reduce_oracle(sub, v):
    """Subspace.reduce eliminating row by row with Field calls."""
    F = sub.field
    w = list(v)
    for row, pc in zip(sub.rows, sub.pivots):
        c = w[pc]
        if not F.is_zero(c):
            w = [F.sub(w[j], F.mul(c, row[j])) for j in range(sub.ambient_dim)]
    return w


def coords_in_basis_oracle(sub, v):
    F = sub.field
    w = list(v)
    coords = []
    for row, pc in zip(sub.rows, sub.pivots):
        c = w[pc]
        coords.append(c)
        if not F.is_zero(c):
            w = [F.sub(w[j], F.mul(c, row[j])) for j in range(sub.ambient_dim)]
    if any(not F.is_zero(x) for x in w):
        return None
    return coords


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_operator_sums_and_elimination_match_field_method_loops(field):
    algebras = stock_algebras(field)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def check(data):
        draw = data.draw
        r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        mats = [draw_matrix(draw, field, r, c) for _ in range(draw(st.integers(1, 3)))]
        coeffs = [draw(scalars(field)) for _ in mats]
        assert combine(coeffs, mats) == combine_oracle(coeffs, mats)
        alg = draw(st.sampled_from(algebras))
        x = draw(st.lists(scalars(field), min_size=alg.dim, max_size=alg.dim))
        assert alg.left_mult_matrix(x) == mult_matrix_oracle(alg, x, True)
        assert alg.right_mult_matrix(x) == mult_matrix_oracle(alg, x, False)
        n = draw(st.integers(1, 5))
        vecs = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=4))
        sub = Subspace.from_vectors(field, n, vecs)
        # members (combinations of the spanning vectors) and arbitrary vectors
        coeffs = [draw(scalars(field)) for _ in vecs]
        member = [field.reduce([sum(a * v[t] for a, v in zip(coeffs, vecs))])[0]
                  for t in range(n)]
        for v in (member, draw(st.lists(scalars(field), min_size=n, max_size=n))):
            assert sub.reduce(v) == subspace_reduce_oracle(sub, v)
            assert sub.contains(v) == all(field.is_zero(x)
                                          for x in subspace_reduce_oracle(sub, v))
            assert sub.coords_in_basis(v) == coords_in_basis_oracle(sub, v)
        assert sub.contains(member)
    check()


# -- one elimination per subspace move against the routes it replaced -------------
#
# annihilator eliminated u's RREF rows again, subspace_intersect took the kernel
# of the stacked annihilators, pull_back solved embed x = r for each row r of
# sub meet image, and tensor_with_dual eliminated the Kronecker rows of I (x) W.

def annihilator_oracle(u):
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    return kernel(u.to_matrix())


def subspace_intersect_oracle(u, v):
    au, av = annihilator_oracle(u), annihilator_oracle(v)
    rows = list(au.rows) + list(av.rows)
    if not rows:
        return Subspace.full(u.field, u.ambient_dim)
    return kernel(Matrix.from_rows(u.field, rows, u.ambient_dim))


def pull_back_oracle(embed, image, sub):
    pulled = []
    for r in subspace_intersect_oracle(sub, image).rows:
        x = solve(embed, list(r))
        if x is None:
            raise RuntimeError("intersection escaped the image of the embedding")
        pulled.append(x)
    return Subspace.from_vectors(embed.field, embed.ncols, pulled)


def tensor_with_dual_kron_oracle(conv, sub_a):
    F = conv.field
    rows = kron_sum([(F.one, Matrix.identity(F, conv.hopf.dim), sub_a.to_matrix())])
    return Subspace.from_vectors(F, conv.dim, rows.data)


def same_subspace(got, want):
    return got == want and got.pivots == want.pivots


def move_subspaces(rng, field, n):
    """Zero, full, random and rank-deficient subspaces of field**n (the last
    spanned by a, b and a + b)."""
    def vec():
        return [field.parse(rng.choice([-2, -1, 0, 0, 1, 3])) for _ in range(n)]
    out = [Subspace.zero(field, n), Subspace.full(field, n)]
    for _ in range(3):
        a, b = vec(), vec()
        deficient = [a, b, field.reduce([x + y for x, y in zip(a, b)])]
        out += [Subspace.from_vectors(field, n, [vec() for _ in range(rng.randint(1, n + 1))]),
                Subspace.from_vectors(field, n, deficient)]
    return out


def injective_matrix(rng, field, n, k):
    while True:
        m = Matrix.from_rows(field, [[field.parse(rng.randint(-2, 2)) for _ in range(k)]
                                     for _ in range(n)], k)
        if Subspace.from_vectors(field, n, m.transpose().data).dim == k:
            return m


def outcome_or_refusal(move, *args):
    try:
        return move(*args)
    except RuntimeError:
        return "refused"


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS, ids=repr)
def test_subspace_moves_match_old_routes(field):
    rng = random.Random(f"subspace-moves/{field!r}")
    refusals = 0
    for n in range(6):
        subs = move_subspaces(rng, field, n)
        for u in subs:
            assert same_subspace(linalg.annihilator(u), annihilator_oracle(u))
            for v in subs:
                assert same_subspace(subspace_intersect(u, v), subspace_intersect_oracle(u, v))
        for k in range(n + 1):
            embed = injective_matrix(rng, field, n, k)
            span = Subspace.from_vectors(field, n, embed.transpose().data)
            for sub in subs:
                assert same_subspace(pull_back(embed, span, sub),
                                     pull_back_oracle(embed, span, sub))
                # any other image is refused, and so is every image the old
                # route refused
                for image in subs:
                    if image != span:
                        assert outcome_or_refusal(pull_back, embed, image, sub) == "refused"
                        refusals += outcome_or_refusal(
                            pull_back_oracle, embed, image, sub) == "refused"
    assert refusals > 0


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS, ids=repr)
def test_tensor_with_dual_matches_kronecker_route(ws, field):
    rng = random.Random(f"dual-tensor-rref/{field!r}")
    actions = [a for _, a in sorted(ws.actions.items()) if a.field == field]
    for act in actions + stock_actions(field):
        conv = ConvolutionAlgebra(act)
        for sub in move_subspaces(rng, field, act.alg.dim):
            assert same_subspace(conv.tensor_with_dual(sub),
                                 tensor_with_dual_kron_oracle(conv, sub)), act.name


# -- the generator fast paths against full basis scans ---------------------------
# Each verifier checks a multiplicative axiom with one slot running over
# FiniteAlgebra.generators once the generator lemma's preconditions pass, and
# rescans the basis for witnesses when a generator case fails.  The oracles
# scan every basis case with Field calls; the perturbations keep the
# preconditions intact (two-sided unit, delta(1), eps(1), rho(1), h.1 and
# D(1)), so the generator scan is the one that must catch each fault.

def verify_action_oracle(act):
    """The witnesses of verify_action, every basis case, Field calls."""
    F = act.field
    H, A = act.hopf, act.alg
    nH, nA = H.dim, A.dim
    ops = act.operator_matrices
    out = []
    for j in range(nA):
        ej = A.basis_vector(j)
        if apply_oracle(H.alg.unit, ops, ej) != ej:
            out.append({"axiom": "unit-acts-trivially", "basis": j})
    for i, j in itertools.product(range(nH), repeat=2):
        if mat_mul_oracle(ops[i], ops[j]) != combine_oracle(H.alg.basis_product(i, j), ops):
            out.append({"axiom": "module-associativity", "pair": [i, j]})
    for i in range(nH):
        if vec_mul_oracle(ops[i], A.unit) != [F.mul(H.counit[i], u) for u in A.unit]:
            out.append({"axiom": "measuring-unit", "hopf-basis": i})
    for i, j, k in itertools.product(range(nH), range(nA), range(nA)):
        lhs = vec_mul_oracle(ops[i], A.basis_product(j, k))
        rhs = [F.zero] * nA
        for (p, q, c) in H.comul_sparse[i]:
            prod = multiply_oracle(A, act.tensor[p][j], act.tensor[q][k])
            rhs = [F.add(x, F.mul(c, y)) for x, y in zip(rhs, prod)]
        if lhs != rhs:
            out.append({"axiom": "measuring", "triple": [i, j, k]})
    return out


def verify_lie_action_oracle(lact):
    """The witnesses of verify_lie_action, every basis pair, Field calls."""
    F, alg = lact.field, lact.alg
    n, m = alg.dim, len(lact.derivations)
    out = []
    for d_idx, D in enumerate(lact.derivations):
        for i, j in itertools.product(range(n), repeat=2):
            ei, ej = alg.basis_vector(i), alg.basis_vector(j)
            lhs = vec_mul_oracle(D, alg.basis_product(i, j))
            rhs1 = multiply_oracle(alg, vec_mul_oracle(D, ei), ej)
            rhs2 = multiply_oracle(alg, ei, vec_mul_oracle(D, ej))
            if lhs != [F.add(x, y) for x, y in zip(rhs1, rhs2)]:
                out.append({"axiom": "leibniz", "derivation": d_idx, "pair": [i, j]})
    ders, br = lact.derivations, lact.brackets
    for a, b in itertools.product(range(m), repeat=2):
        ab, ba = mat_mul_oracle(ders[a], ders[b]), mat_mul_oracle(ders[b], ders[a])
        comm = Matrix(F, n, n, [[F.sub(x, y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(ab.data, ba.data)])
        if comm != combine_oracle(br[a][b], ders):
            out.append({"axiom": "bracket-compatibility", "pair": [a, b]})
        if any(not F.is_zero(F.add(x, y)) for x, y in zip(br[a][b], br[b][a])):
            out.append({"axiom": "antisymmetry", "pair": [a, b]})
    for a, b, c in itertools.product(range(m), repeat=3):
        for e in range(m):
            acc = F.zero
            for d in range(m):
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    acc = F.add(acc, F.mul(br[x][y][d], br[d][z][e]))
            if not F.is_zero(acc):
                out.append({"axiom": "jacobi", "triple": [a, b, c]})
    return out


def representation_oracle(rep):
    """The witnesses of Representation.verify, every basis pair, Field calls."""
    F, halg = rep.hopf.field, rep.hopf.alg
    out = []
    if combine_oracle(halg.unit, rep.rho) != Matrix.identity(F, rep.dim_v):
        out.append({"axiom": "unit"})
    for i, j in itertools.product(range(halg.dim), repeat=2):
        if mat_mul_oracle(rep.rho[i], rep.rho[j]) != combine_oracle(
                halg.basis_product(i, j), rep.rho):
            out.append({"axiom": "multiplicative", "pair": [i, j]})
    return out


SCANS = [("hopf", "_associator_failures"), ("hopf", "_counit_mult_failures"),
         ("hopf", "_comul_mult_failures"), ("action", "_multiplicative_failures"),
         ("action", "_measuring_failures"), ("lie", "_leibniz_failures")]


@pytest.fixture
def scans(monkeypatch):
    """Records each call of a verifier loop: (loop, full basis scan?, found
    failures?), in call order."""
    import hopfact.action
    import hopfact.hopf
    import hopfact.lie
    modules = {"hopf": hopfact.hopf, "action": hopfact.action, "lie": hopfact.lie}
    log = []
    for mod, name in SCANS:
        loop = getattr(modules[mod], name)

        def spy(*args, _loop=loop, _name=name):
            found = _loop(*args)
            log.append((_name, type(args[-1]) is range, bool(found)))
            return found
        monkeypatch.setattr(modules[mod], name, spy)
    return log


def assert_generator_scan_caught(log, loop, failing):
    """``loop`` ran once on the generators and found a failure exactly when
    the input has one, and only then rescanned the basis for witnesses."""
    runs = [(full, found) for name, full, found in log if name == loop]
    assert runs == [(False, failing)] + [(True, True)] * failing, (loop, runs)


def vanishing_functional(draw, field, unit):
    """Random coordinates of a functional f with f(unit) = 0, nonzero when
    the dimension allows it."""
    t = next(i for i, u in enumerate(unit) if u)
    f = draw(nonzero_vectors(field, len(unit) - 1))
    f.insert(t, field.zero)
    rest = field.reduce([sum(x * u for x, u in zip(f, unit))])[0]
    f[t] = field.mul(field.neg(rest), field.inv(unit[t]))
    return f


def nonzero_vectors(field, n):
    return st.lists(scalars(field), min_size=n, max_size=n).filter(
        lambda xs: n == 0 or any(xs))


def unit_preserving_algebra(draw, field, alg):
    """alg with f(e_i) g(e_j) v added to each product e_i e_j, f and g
    vanishing on the unit: the unit stays two-sided."""
    n = alg.dim
    f, g = (vanishing_functional(draw, field, alg.unit) for _ in range(2))
    v = draw(nonzero_vectors(field, n))
    mult = [[[field.add(c, field.mul(field.mul(f[i], g[j]), v[k]))
              for k, c in enumerate(row)] for j, row in enumerate(plane)]
            for i, plane in enumerate(alg.mult)]
    return FiniteAlgebra(field, n, mult, alg.unit, name=alg.name)


def stock_actions(field):
    """Small actions over any field: hit actions, a grading, a permutation
    of points, a trivial action on M_2."""
    from hopfact.action import (action_from_operators, grading_action,
                                trivial_action)
    c2 = group_algebra(cyclic_group_table(2), field, name="kC2")
    c3 = group_algebra(cyclic_group_table(3), field, name="kC3")
    sw = sweedler_hopf(field)
    rotate = [Matrix(field, 3, 3, [[field.one if (r - s) % 3 == g else field.zero
                                   for s in range(3)] for r in range(3)])
              for g in range(3)]
    return [hit_action(c2), hit_action(sw),
        grading_action(c3),
        action_from_operators(c3, product_field_algebra(field, 3), rotate, name="rotate3"),
        trivial_action(c2, matrix_algebra(field, 2))]


def stock_lie_actions(field):
    """One derivation each: the Euler derivation t d/dt of k[t]/(t^4) and
    inner derivations [x, -] of M_2 and the upper triangular matrices."""
    out = [LieAction(truncated_poly_algebra(field, 4),
                     [Matrix(field, 4, 4, [[field.from_int(r) if r == s else 0
                                           for s in range(4)] for r in range(4)])],
                     name="euler4")]
    for alg, x in ((matrix_algebra(field, 2), 1), (matrix_algebra(field, 2), 0),
                   (upper_triangular_algebra(field), 1)):
        n = alg.dim
        ex = alg.basis_vector(x)
        cols = [[a - b for a, b in zip(alg.multiply(ex, alg.basis_vector(j)),
                                       alg.multiply(alg.basis_vector(j), ex))]
                for j in range(n)]
        inner = Matrix(field, n, n, [[field.reduce([cols[j][r]])[0] for j in range(n)]
                                     for r in range(n)])
        out.append(LieAction(alg, [inner], name=f"ad{x}:{alg.name}"))
    return out


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_generator_words_span_the_algebra(ws, field):
    algebras = stock_algebras(field) + [a for _, a in sorted(ws.algebras.items())
                                        if a.field == field]
    algebras += [product_field_algebra(field, n) for n in range(1, 6)]
    for alg in algebras:
        gens = alg.generators
        assert gens == sorted(set(gens)), alg.name
        words = Subspace.from_vectors(field, alg.dim, [alg.unit])
        for k, g in enumerate(gens):
            # greedy: e_g lies outside the words of the generators before it
            assert not words.contains(alg.basis_vector(g)), alg.name
            words = closure(words, [alg.left_mult_matrix(alg.basis_vector(h))
                                    for h in gens[:k + 1]])
        assert words == Subspace.full(field, alg.dim), alg.name
    for n in range(1, 6):
        assert len(product_field_algebra(field, n).generators) == n - 1
    s3 = group_algebra(symmetric_group_table(3), field)
    assert s3.alg.generators == [1, 2]
    assert len(tensor_hopf(s3, s3).alg.generators) <= math.log2(36)


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_valid_inputs_take_the_generator_path(ws, field, scans):
    objects = [("algebra", a) for a in stock_algebras(field)]
    objects += [("hopf", h) for h in stock_hopfs(field)]
    objects += [("action", a) for a in stock_actions(field)]
    objects += [("lie", l) for l in stock_lie_actions(field)]
    objects += [(kind, obj) for kind, registry in (
        ("algebra", ws.algebras), ("hopf", ws.hopfs), ("action", ws.actions),
        ("lie", ws.lie_actions), ("representation", ws.representations))
        for _, obj in sorted(registry.items())
        if (obj.hopf.field if kind == "representation" else obj.field) == field]
    verifiers = {"algebra": verify_algebra, "hopf": verify_hopf,
                 "action": verify_action, "lie": verify_lie_action,
                 "representation": lambda r: r.verify()}
    for kind, obj in objects:
        scans.clear()
        assert verifiers[kind](obj).ok, (kind, obj.name)
        assert scans and not any(full or found for _, full, found in scans), (kind, obj.name)


def stock_representations(field):
    """The regular representations of kC2, kS3 and the Sweedler algebra."""
    return [Representation(h, [h.alg.left_mult_matrix(h.basis_vector(i)).data
                                for i in range(h.dim)], name=f"regular:{h.name}")
            for h in stock_hopfs(field)[:2] + [sweedler_hopf(field)]]


def unit_preserving_hopf(draw, field, h, counit=True):
    """h with f(e_j) T added to delta(e_j), and f'(e_j) c to eps(e_j) when
    ``counit``, f and f' vanishing on the unit: delta(1) and eps(1) stay as
    they are."""
    n = h.dim
    f, f2 = (vanishing_functional(draw, field, h.alg.unit) for _ in range(2))
    tensor = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
               draw(scalars(field))) for _ in range(draw(st.integers(1, 3)))]
    comul = []
    for j, col in enumerate(h.comul_sparse):
        terms = {(i, k): c for i, k, c in col}
        for i, k, c in tensor:
            terms[i, k] = field.add(terms.get((i, k), field.zero), field.mul(f[j], c))
        comul.append(sorted((i, k, c) for (i, k), c in terms.items() if c))
    c0 = draw(scalars(field)) if counit else field.zero
    counit = [field.add(e, field.mul(x, c0)) for e, x in zip(h.counit, f2)]
    return HopfAlgebra(h.alg, comul, counit, h.antipode_sparse, name=h.name)


def rank_one_operators(draw, field, unit_h, nrows, ncols, kill=None, free=False):
    """The operators f(h_i) v (x) g added to one matrix per Hopf basis
    element: f vanishes on the unit of H unless ``free``, and g on ``kill``
    when given."""
    f = (draw(nonzero_vectors(field, len(unit_h))) if free
         else vanishing_functional(draw, field, unit_h))
    g = (vanishing_functional(draw, field, kill) if kill is not None
         else draw(nonzero_vectors(field, ncols)))
    v = draw(nonzero_vectors(field, nrows))
    return [[[field.mul(field.mul(fi, vr), gc) for gc in g] for vr in v] for fi in f]


def perturbed_operators(field, mats, extra):
    return [[[field.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(m.data, e)]
            for m, e in zip(mats, extra)]


def field_objects(registry, field, key=lambda obj: obj.field):
    return [obj for _, obj in sorted(registry.items()) if key(obj) == field]


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_algebra_generator_scan_catches_faults(ws, field, scans):
    algebras = stock_algebras(field) + field_objects(ws.algebras, field)
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        pert = unit_preserving_algebra(data.draw, field, data.draw(st.sampled_from(algebras)))
        scans.clear()
        got = verify_algebra(pert).witnesses
        want = verify_algebra_oracle(pert)
        assert got == want, pert.name
        assert all(w["axiom"] == "associativity" for w in want)
        assert_generator_scan_caught(scans, "_associator_failures", bool(want))
        failing.append(bool(want))
    check()
    assert sum(failing) >= len(failing) // 4


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_hopf_generator_scans_catch_faults(ws, field, scans):
    hopfs = stock_hopfs(field) + field_objects(ws.hopfs, field)
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        pert = unit_preserving_hopf(data.draw, field, data.draw(st.sampled_from(hopfs)))
        scans.clear()
        got = verify_hopf(pert).witnesses
        want = verify_hopf_oracle(pert)
        assert got == want, pert.name
        axioms = {w["axiom"] for w in want}
        assert not axioms & {"counit-unital", "comul-unital"}
        assert_generator_scan_caught(scans, "_associator_failures", False)
        assert_generator_scan_caught(scans, "_counit_mult_failures",
                                     "counit-multiplicative" in axioms)
        assert_generator_scan_caught(scans, "_comul_mult_failures",
                                     "comul-multiplicative" in axioms)
        failing.append("comul-multiplicative" in axioms)
        seen.update(axioms)
    seen = set()
    check()
    assert sum(failing) >= len(failing) // 4
    assert {"counit-multiplicative", "comul-multiplicative"} <= seen


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_action_generator_scans_catch_faults(ws, field, scans):
    actions = stock_actions(field) + field_objects(ws.actions, field)
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        draw = data.draw
        act = draw(st.sampled_from(actions))
        H, A = act.hopf, act.alg
        part = draw(st.sampled_from(["tensor", "tensor", "algebra", "hopf", "free"]))
        ops = act.operator_matrices
        if part in ("tensor", "free"):
            free = part == "free"
            ops = perturbed_operators(field, ops, rank_one_operators(
                draw, field, H.alg.unit, A.dim, A.dim, kill=None if free else A.unit,
                free=free))
        else:
            ops = [m.data for m in ops]
        if part == "algebra":
            A = unit_preserving_algebra(draw, field, A)
        if part == "hopf":
            H = unit_preserving_hopf(draw, field, H, counit=False)
        tensor = [[[m[k][j] for k in range(A.dim)] for j in range(A.dim)] for m in ops]
        pert = ModuleAlgebraAction(H, A, tensor, name=act.name)
        scans.clear()
        got = verify_action(pert).witnesses
        want = verify_action_oracle(pert)
        assert got == want, (act.name, part)
        axioms = {w["axiom"] for w in want}
        if part == "free":
            return
        assert not axioms & {"unit-acts-trivially", "measuring-unit"}
        assert_generator_scan_caught(scans, "_multiplicative_failures",
                                     "module-associativity" in axioms)
        if part == "tensor":
            assert_generator_scan_caught(scans, "_measuring_failures", "measuring" in axioms)
            seen.update(axioms)
        failing.append(bool(want))
    seen = set()
    check()
    assert sum(failing) >= len(failing) // 4
    assert {"module-associativity", "measuring"} <= seen


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_derivation_generator_scan_catches_faults(ws, field, scans):
    lies = stock_lie_actions(field) + field_objects(ws.lie_actions, field)
    assert all(len(lact.derivations) == 1 for lact in lies)
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        draw = data.draw
        lact = draw(st.sampled_from(lies))
        alg, (D,) = lact.alg, lact.derivations
        part = draw(st.sampled_from(["derivation", "derivation", "algebra", "free"]))
        if part in ("derivation", "free"):
            (extra,) = rank_one_operators(draw, field, [field.one], alg.dim, alg.dim,
                                          kill=alg.unit if part == "derivation" else None,
                                          free=True)
            D = Matrix(field, alg.dim, alg.dim, perturbed_operators(field, [D], [extra])[0])
        else:
            alg = unit_preserving_algebra(draw, field, alg)
        pert = LieAction(alg, [D], lact.brackets, name=lact.name)
        scans.clear()
        got = verify_lie_action(pert).witnesses
        want = verify_lie_action_oracle(pert)
        assert got == want, (lact.name, part)
        if part == "derivation":
            caught = any(w["axiom"] == "leibniz" for w in want)
            assert_generator_scan_caught(scans, "_leibniz_failures", caught)
            seen.append(caught)
        failing.append(bool(want))
    seen = []
    check()
    assert sum(failing) >= len(failing) // 2 and any(seen)


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS)
def test_representation_generator_scan_catches_faults(ws, field, scans):
    reps = stock_representations(field) + field_objects(
        ws.representations, field, key=lambda r: r.hopf.field)
    failing = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.data())
    def check(data):
        rep = data.draw(st.sampled_from(reps))
        n = rep.dim_v
        free = data.draw(st.booleans())
        rho = perturbed_operators(field, rep.rho, rank_one_operators(
            data.draw, field, rep.hopf.alg.unit, n, n, free=free))
        pert = Representation(rep.hopf, rho, name=rep.name)
        scans.clear()
        got = pert.verify().witnesses
        want = representation_oracle(pert)
        assert got == want, rep.name
        if free:
            return
        assert {"axiom": "unit"} not in want
        assert_generator_scan_caught(scans, "_multiplicative_failures", bool(want))
        failing.append(bool(want))
    check()
    assert sum(failing) >= len(failing) // 4


def lemma_breaking_inputs(field):
    """(name, verifier, input, oracle, loop, loop arguments before the slot,
    lemma algebra): inputs that fail one precondition of a generator lemma
    and whose failures all lie off the generators, so that only the basis
    rescan the failed precondition calls for finds them."""
    import hopfact.action
    import hopfact.hopf
    import hopfact.lie
    two = field.from_int(2)
    line = truncated_poly_algebra(field, 3)    # generators [t]; t A holds no unit
    coalgebra = ([[(0, 0, 1)], [(0, 1, 1), (1, 0, 1)], [(0, 2, 1), (1, 1, two), (2, 0, 1)]],
                 [[(0, 1)], [(1, field.neg(1))], [(2, 1)]])
    comul, antipode = coalgebra
    # eps(1) = 2 and delta(1) = 2 (1 (x) 1), both zero on t and t^2
    eps_two = HopfAlgebra(line, comul, [two, 0, 0], antipode)
    delta_two = HopfAlgebra(line, [[(0, 0, two)], [], []], [1, 0, 0], antipode)
    # span{1, a, b}: a a = b, b a = b, a b = b b = 0; not associative
    skew = FiniteAlgebra.from_terms(field, 3, [[[(0, 1)], [(1, 1)], [(2, 1)]],
                                               [[(1, 1)], [(2, 1)], []],
                                               [[(2, 1)], [(2, 1)], []]], [1, 0, 0])
    skew_hopf = HopfAlgebra(skew, [[(j, 0, 1)] for j in range(3)], [1, 0, 0],
                            [[(j, 1)] for j in range(3)])
    shift = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    powers = [Matrix.identity(field, 3).data, shift, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]]
    # rho(1) = 2, rho(t) = rho(t^2) = 0
    doubled = [[[two]], [[0]], [[0]]]
    line_hopf = HopfAlgebra(line, comul, [1, 0, 0], antipode)
    k = product_field_algebra(field, 1)
    jet = truncated_poly_algebra(field, 2)     # generators [t]
    base = HopfAlgebra(k, [[(0, 0, 1)]], [1], [[(0, 1)]])
    base_eps_two = HopfAlgebra(k, [[(0, 0, 1)]], [two], [[(0, 1)]])
    # 1 acts on k[t]/(t^2) as diag(2, 0)
    diag = [[[two, 0], [0, 0]]]
    H, A, L = hopfact.hopf, hopfact.action, hopfact.lie
    return [
        ("eps(1) != 1", verify_hopf, eps_two, verify_hopf_oracle,
         H._counit_mult_failures, (eps_two,), line),
        ("delta(1) != 1 (x) 1", verify_hopf, delta_two, verify_hopf_oracle,
         H._comul_mult_failures, (delta_two,), line),
        ("rho(1) != id", lambda r: r.verify(), Representation(line_hopf, doubled),
         representation_oracle, A._multiplicative_failures,
         (line, [Matrix(field, 1, 1, m) for m in doubled]), line),
        ("representation of a non-associative H", lambda r: r.verify(),
         Representation(skew_hopf, powers), representation_oracle,
         A._multiplicative_failures, (skew, [Matrix(field, 3, 3, m) for m in powers]), skew),
        ("1 acts as 2", verify_action, ModuleAlgebraAction(line_hopf, k, doubled),
         verify_action_oracle, A._multiplicative_failures,
         (line, [Matrix(field, 1, 1, m) for m in doubled]), line),
        ("action of a non-associative H", verify_action,
         ModuleAlgebraAction(skew_hopf, product_field_algebra(field, 3),
                             [[list(col) for col in zip(*m)] for m in powers]),
         verify_action_oracle, A._multiplicative_failures,
         (skew, [Matrix(field, 3, 3, m) for m in powers]), skew),
        ("counit law fails", verify_action, ModuleAlgebraAction(base_eps_two, jet, diag),
         verify_action_oracle, A._measuring_failures,
         (ModuleAlgebraAction(base_eps_two, jet, diag),), jet),
        ("h.1 != eps(h) 1", verify_action, ModuleAlgebraAction(base, jet, diag),
         verify_action_oracle, A._measuring_failures,
         (ModuleAlgebraAction(base, jet, diag),), jet),
        ("D(1) != 0", verify_lie_action,
         LieAction(jet, [Matrix(field, 2, 2, [[0, 0], [1, 1]])]), verify_lie_action_oracle,
         L._leibniz_failures, (jet, Matrix(field, 2, 2, [[0, 0], [1, 1]])), jet),
    ]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_generator_lemmas_need_their_preconditions(field):
    for name, verifier, obj, oracle, loop, args, alg in lemma_breaking_inputs(field):
        want = oracle(obj)
        assert verifier(obj).witnesses == want, name
        assert want, name
        # the failures lie off the generators: the generator scan alone
        # misses them, the rescan over the basis finds them
        assert loop(*args, alg.generators) == [], name
        assert loop(*args, range(alg.dim)), name


# -- the stable-subspace lattice against its old routes ----------------------------
#
# The first stable_subspaces spun every line's cyclic submodule from scratch and
# joined every lattice element with every distinct cyclic; stable_subspaces_oracle
# below is its loop, with the spin split off so that its cyclics can be compared
# too.  The dense route after it is the one the packed rows replaced: dense
# int-mod-p rows through the shared _echelon_insert, an earlier line's known
# cyclic added unspun, the join-irreducible cyclics sifted out, and only those
# joined.

def sparse_columns(n, operators):
    return list(dict.fromkeys(
        tuple(tuple((i, m.data[i][j]) for i in range(n) if m.data[i][j])
              for j in range(n))
        for m in operators))


def apply_columns(cols, w, p):
    """Operator (as sparse columns ``cols[j] = ((i, a), ...)``) times ``w``."""
    out = [0] * len(w)
    for x, col in zip(w, cols):
        if x:
            for i, a in col:
                out[i] += x * a
    return [y % p for y in out]


def line_oracle(u, p):
    """``u`` scaled to leading coefficient 1, as a tuple; None for zero."""
    for x in u:
        if x:
            inv = pow(x, p - 2, p)
            return tuple(y * inv % p for y in u)
    return None


def echelon_insert_oracle(rows, pivots, w, p):
    """Add the int-mod-p vector ``w`` to the RREF basis ``rows`` (pivots
    ascending) in place; False when it is already spanned."""
    for row, pc in zip(rows, pivots):
        c = w[pc]
        if c:
            w = [(x - c * y) % p for x, y in zip(w, row)]
    pc = next((j for j, x in enumerate(w) if x), None)
    if pc is None:
        return False
    inv = pow(w[pc], p - 2, p)
    w = [x * inv % p for x in w]
    for i, row in enumerate(rows):
        c = row[pc]
        if c:
            rows[i] = [(x - c * y) % p for x, y in zip(row, w)]
    k = bisect.bisect(pivots, pc)
    rows.insert(k, w)
    pivots.insert(k, pc)
    return True


def spin_cyclics_oracle(p, n, ops):
    cyclics = {}
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = [0] * lead + [1, *tail]
            rows, pivots, spun = [v], [lead], [v]
            for w in spun:
                for cols in ops:
                    if len(rows) == n:
                        break
                    u = apply_columns(cols, w, p)
                    if echelon_insert_oracle(rows, pivots, u, p):
                        spun.append(u)
            cyclics.setdefault(tuple(map(tuple, rows)), v)
    return cyclics


def stable_subspaces_oracle(field, n, operators, bound=None):
    p = _enumerable_prime(field, n, bound)
    cyclics = spin_cyclics_oracle(p, n, sparse_columns(n, operators))
    lattice = {(): ()}
    queue = [((), [])]
    joins = 0
    for rows, pivots in queue:
        joins += len(cyclics)
        if joins > JOIN_CAP:
            raise EnumerationBound(
                f"the stable-subspace lattice of {p}**{n} needs more than "
                f"{JOIN_CAP} joins (JOIN_CAP)")
        for crows, v in cyclics.items():
            r, pv = list(rows), list(pivots)
            if not echelon_insert_oracle(r, pv, v, p):
                continue
            for c in crows:
                echelon_insert_oracle(r, pv, c, p)
            key = tuple(map(tuple, r))
            if key not in lattice:
                lattice[key] = tuple(pv)
                queue.append((key, pv))
    return [Subspace(field, n, rows, pivots, _canonical=True)
            for rows, pivots in sorted(lattice.items(),
                                       key=lambda kv: (len(kv[0]), kv[1], kv[0]))]


def dense_spin_cyclics(p, n, ops):
    """The distinct cyclics in line order, as (dense RREF rows, the first
    line that spins to them, pivots); an image whose line was spun before
    adds that line's cyclic unspun."""
    F = GF(p)
    cyclics = {}
    known = {}
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = [0] * lead + [1, *tail]
            rows, pivots, spun = [v], [lead], [v]
            for w in spun:
                for cols in ops:
                    if len(rows) == n:
                        break
                    u = apply_columns(cols, w, p)
                    sub = known.get(line_oracle(u, p))
                    if sub is not None:
                        for c in sub:
                            _echelon_insert(F, rows, pivots, c)
                    elif _echelon_insert(F, rows, pivots, u):
                        spun.append(u)
            key = tuple(map(tuple, rows))
            key = cyclics.setdefault(key, (key, v, pivots))[0]
            known[tuple(v)] = key
    return list(cyclics.values())


def dense_join_irreducibles(p, n, cyclics):
    F = GF(p)
    kept = []
    tests = 0
    for crows, v, cpivots in sorted(cyclics, key=lambda c: len(c[0])):
        dim = len(crows)
        rows, pivots = [], []
        for drows, u in kept:
            if len(drows) == dim or len(rows) == dim:
                break
            tests += 1
            if not any(_residual(F, crows, cpivots, u)):
                for r in drows:
                    _echelon_insert(F, rows, pivots, r)
        if tests > JOIN_CAP:
            raise _refuse_joins(p, n)
        if len(rows) < dim:
            kept.append((crows, v))
    return kept, tests


def dense_stable_subspaces(field, n, operators, bound=None):
    p = _enumerable_prime(field, n, bound)
    return dense_lattice(field, n, dense_spin_cyclics(p, n, sparse_columns(n, operators)))


def dense_lattice(field, n, cyclics):
    p = field.p
    if (all(len(rows) == 1 for rows, _, _ in cyclics)
            and linalg.subspace_count(p, n) * len(cyclics) > JOIN_CAP):
        raise _refuse_joins(p, n)
    kept, joins = dense_join_irreducibles(p, n, cyclics)
    lattice = {(): ()}
    queue = [((), [])]
    for rows, pivots in queue:
        joins += len(kept)
        if joins > JOIN_CAP:
            raise _refuse_joins(p, n)
        for crows, v in kept:
            r, pv = list(rows), list(pivots)
            if not _echelon_insert(field, r, pv, v):
                continue
            for c in crows:
                _echelon_insert(field, r, pv, c)
            key = tuple(map(tuple, r))
            if key not in lattice:
                lattice[key] = tuple(pv)
                queue.append((key, pv))
    return [Subspace(field, n, rows, pivots, _canonical=True)
            for rows, pivots in sorted(lattice.items(),
                                       key=lambda kv: (len(kv[0]), kv[1], kv[0]))]


def packer(p, n):
    """The packing that stable_subspaces uses: bit rows over F_2."""
    return linalg._Bits(n) if p == 2 else linalg._Packed(p, n)


def packed_cyclics(field, n, ops, pk=None):
    """The packed route's cyclics as (rows, generator) and its kept
    join-irreducible cyclics and containment tests, unpacked."""
    pk = pk or packer(field.p, n)
    cyclics = linalg._spin_cyclics(pk, pk.tables(ops))
    kept, tests = linalg._join_irreducibles(pk, cyclics)
    rows = lambda packed: tuple(map(pk.unpack, packed))  # noqa: E731
    return ([(rows(c), list(pk.unpack(v))) for c, v, _ in cyclics],
            [(rows(c), list(pk.unpack(v))) for c, v in kept], tests)


def lattice_or_refusal(enumerate_, field, n, ops):
    try:
        return [(s.rows, s.pivots) for s in enumerate_(field, n, ops, field.p ** n)]
    except EnumerationBound:
        return None


def assert_cyclics_sifted(field, n, ops):
    """The spin finds the old route's cyclics with the same generators, in
    the same order; a kept cyclic is not the sum of the cyclics strictly
    inside it, and every cyclic is the sum of the kept ones inside it."""
    p = field.p
    cyclics, kept, _ = packed_cyclics(field, n, ops)
    assert cyclics == list(spin_cyclics_oracle(p, n, sparse_columns(n, ops)).items())
    spaces = {rows: Subspace.from_vectors(field, n, [list(r) for r in rows])
              for rows, _ in cyclics}
    kept_rows = [rows for rows, _ in kept]
    assert len(set(kept_rows)) == len(kept_rows)

    def sum_inside(c, candidates, strictly):
        total = Subspace.zero(field, n)
        for rows in candidates:
            d = spaces[rows]
            if (d.dim < c.dim or not strictly) and d.le(c):
                total = subspace_sum(total, d)
        return total

    for rows in kept_rows:
        assert sum_inside(spaces[rows], spaces, strictly=True) != spaces[rows]
    for c in spaces.values():
        assert sum_inside(c, kept_rows, strictly=False) == c
    return cyclics, kept


# With only scalar operators every subspace is stable, so the old route
# pays |lines| joins per subspace: 2 s per call and route from F_2^6 up,
# where the join cap already refuses F_2^7 (tests/test_linalg.py).  Such
# sets stay at the ambient dimensions whose lattices are small.
ALL_STABLE_TOP = {2: 4, 3: 3, 5: 2, 7: 2}
# the largest n drawn for GF(p) otherwise
TOP = {2: 6, 3: 6, 5: 6, 7: 4}


@st.composite
def operator_sets(draw, primes=(2, 3, 5)):
    """GF(p)^n, n <= 6 (n <= 4 for p = 7), with up to three random,
    nilpotent (a strictly upper triangular matrix on a shuffled basis),
    permutation or scalar operators."""
    p = draw(st.sampled_from(primes))
    kinds = draw(st.lists(st.sampled_from(
        ["random", "nilpotent", "permutation", "scalar"]), max_size=3))
    top = TOP[p] if set(kinds) - {"scalar"} else ALL_STABLE_TOP[p]
    n = draw(st.integers(1, top))
    field = GF(p)
    return field, n, [draw_operator(draw, field, n, kind, st.integers(0, p - 1))
                      for kind in kinds]


def draw_operator(draw, field, n, kind, entry):
    """A random, nilpotent (strictly upper triangular on a shuffled basis),
    permutation or scalar n x n matrix with entries drawn from ``entry``."""
    if kind == "random":
        data = [[draw(entry) for _ in range(n)] for _ in range(n)]
    elif kind == "nilpotent":
        perm = draw(st.permutations(range(n)))
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                data[perm[i]][perm[j]] = draw(entry)
    elif kind == "permutation":
        perm = draw(st.permutations(range(n)))
        data = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
    else:
        c = draw(entry)
        data = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    return Matrix(field, n, n, data)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(operator_sets())
def test_stable_subspaces_match_old_route(case):
    field, n, ops = case
    got = lattice_or_refusal(stable_subspaces, field, n, ops)
    want = lattice_or_refusal(stable_subspaces_oracle, field, n, ops)
    if got is None:
        # sifting adds its containment tests to the joins, so a refusal is
        # only for lattices the old route refused as well
        assert want is None
    elif want is not None:
        assert got == want
    if want is not None:
        assert_cyclics_sifted(field, n, ops)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_all_line_lattices_refuse_as_the_old_route(p, n, monkeypatch):
    """With scalar operators every subspace is stable and the joins number
    subspace_count x lines; at a cap one below that both routes refuse,
    the new one before its sift, and at that cap both answer."""
    field = GF(p)
    ops = [Matrix(field, n, n, [[p - 1 if i == j else 0 for j in range(n)]
                                for i in range(n)])]
    joins = linalg.subspace_count(p, n) * (p ** n - 1) // (p - 1)
    for cap in (joins - 1, joins):
        monkeypatch.setattr(linalg, "JOIN_CAP", cap)
        monkeypatch.setitem(globals(), "JOIN_CAP", cap)
        if cap < joins:
            monkeypatch.setattr(linalg, "_join_irreducibles", None)
        got = lattice_or_refusal(stable_subspaces, field, n, ops)
        want = lattice_or_refusal(stable_subspaces_oracle, field, n, ops)
        assert got == want
        assert (got is None) == (cap < joins)
        assert got == lattice_or_refusal(dense_stable_subspaces, field, n, ops)
        monkeypatch.undo()


def passed_operators(monkeypatch, fn, conv):
    """The operators that ``fn(conv)`` hands to stable_subspaces."""
    passed = []

    def recording(field, n, ops, bound=None):
        passed.append(ops)
        return stable_subspaces(field, n, ops, bound)

    with monkeypatch.context() as m:
        m.setattr(convolution, "stable_subspaces", recording)
        fn(conv)
    [ops] = passed
    return ops


def kleinswap_operator_sets(ws, monkeypatch):
    """kleinswap's B = H* (x) A (dim 8 over F_2): the operators of its
    H-ideals and of its stability scan, as the all-basis lists and as the
    generator sets that enumerate_h_ideals and stability_scan pass."""
    conv = ConvolutionAlgebra(ws.actions["kleinswap"])
    B, F = conv.algebra, conv.field
    scan = [B.right_mult_matrix(conv.ustar_matrix.vec_mul(
        [F.one if t == r else F.zero for t in range(conv.hopf.dim)]))
        for r in range(conv.hopf.dim)]
    every = {"h-ideals": ideal_operators_oracle(B) + conv.dot_operators,
             "stability-scan": scan + conv.rh_operators}
    generators = {"h-ideals": passed_operators(monkeypatch, convolution.enumerate_h_ideals, conv),
                  "stability-scan": passed_operators(monkeypatch, convolution.stability_scan, conv)}
    return F, B.dim, every, generators


def packed_route_on(field, n, ops, monkeypatch):
    """(lattice, distinct tables, packed operator images) of stable_subspaces
    on ``ops``, checked against the old, the dense and the sifting routes."""
    tables = packer(2, n).tables(ops)
    counts = {"new": 0, "old": 0}
    extend = linalg._Bits.extend

    def counting_extend(pk, us, m, top):
        counts["new"] += 0 if m is None else len(us)
        return extend(pk, us, m, top)

    def counting(cols, w, p, apply=apply_columns):
        counts["old"] += 1
        return apply(cols, w, p)

    with monkeypatch.context() as m:
        m.setattr(linalg._Bits, "extend", counting_extend)
        m.setitem(globals(), "apply_columns", counting)
        got = [(s.rows, s.pivots) for s in stable_subspaces(field, n, ops)]
        want = stable_subspaces_oracle(field, n, ops)
    assert got == [(s.rows, s.pivots) for s in want]
    # each vector's image under a distinct operator is one XOR with a
    # nonzero column, op(e_j) added to 2 ** (n - 1 - j) images, where the
    # old route applied every operator to every vector of every line's spin
    assert counts["new"] == sum(1 << sh for table in tables for sh, _ in table)
    assert 0 < counts["new"] <= (2 ** n - 1) * len(tables)
    assert counts["new"] < counts["old"]
    assert lattice_or_refusal(dense_stable_subspaces, field, n, ops) == got
    cyclics, kept = assert_cyclics_sifted(field, n, ops)
    assert len(kept) < len(cyclics)
    return got, len(tables), counts["new"]


# distinct tables of the all-basis lists and of the generator sets
KLEINSWAP_TABLES = {"h-ideals": (10, 6), "stability-scan": (4, 2)}


@pytest.mark.parametrize("which", ["h-ideals", "stability-scan"])
def test_stable_subspaces_match_old_route_on_kleinswap(ws, which, monkeypatch):
    """The generator sets give the lattice of the all-basis lists from fewer
    distinct tables, so with fewer operator applications."""
    field, n, every, generators = kleinswap_operator_sets(ws, monkeypatch)
    old = packed_route_on(field, n, every[which], monkeypatch)
    new = packed_route_on(field, n, generators[which], monkeypatch)
    assert new[0] == old[0]
    assert (old[1], new[1]) == KLEINSWAP_TABLES[which]
    assert new[2] < old[2]


def lattice_or_message(enumerate_, field, n, ops):
    try:
        return [(s.rows, s.pivots) for s in enumerate_(field, n, ops, field.p ** n)]
    except EnumerationBound as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(operator_sets(primes=(2, 3, 5, 7)))
def test_packed_route_matches_dense_route(case):
    """The packed rows give the dense route's lattice or refusal, its
    cyclics with their generators in line order, and its join-irreducible
    cyclics and containment tests."""
    field, n, ops = case
    dense = dense_spin_cyclics(field.p, n, sparse_columns(n, ops))
    assert (lattice_or_message(stable_subspaces, field, n, ops)
            == lattice_or_message(lambda *_: dense_lattice(field, n, dense), field, n, ops))
    try:
        want = dense_join_irreducibles(field.p, n, dense)
    except EnumerationBound:
        with pytest.raises(EnumerationBound):
            packed_cyclics(field, n, ops)
        return
    cyclics, kept, tests = packed_cyclics(field, n, ops)
    assert cyclics == [(rows, v) for rows, v, _ in dense]
    assert (kept, tests) == want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_packed_primitives_match_list_arithmetic(data):
    """Packing, scaling, operator tables, image extension, residuals,
    inserts and the line order of both packings (the k-bit digits over
    every prime, the bit rows over F_2) against plain lists mod p, with the
    vector and the matrix whose every entry is p - 1 (every digit sum then
    sets its guard bit) always among the cases."""
    p = data.draw(st.sampled_from([2, 3, 5, 7, 251]))
    n = 1 if p == 251 else data.draw(st.integers(1, TOP[p]))
    F = GF(p)
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    vectors = data.draw(st.lists(entries, min_size=1, max_size=6)) + [[p - 1] * n]
    mats = [data.draw(st.lists(entries, min_size=n, max_size=n)), [[p - 1] * n] * n]
    lines = [tuple([0] * lead + [1, *tail]) for lead in range(n)
             for tail in itertools.product(range(p), repeat=n - lead - 1)]
    for pk in [linalg._Packed(p, n)] + ([linalg._Bits(n)] if p == 2 else []):
        packed = [pk.pack(u) for u in vectors]
        for u, w in zip(vectors, packed):
            assert pk.unpack(w) == tuple(u)
            assert [v < w for v in packed] == [v < u for v in vectors]
            assert pk.multiples(w) == [pk.pack([c * x % p for x in u]) for c in range(p)]
            if type(pk) is linalg._Packed:
                assert pk.negated(w) == [pk.pack([-c * x % p for x in u]) for c in range(p)]
        # entries outside 0..p - 1 are read mod p, as the dense route read them
        assert pk.tables([Matrix(F, n, n, [[x - p for x in row] for row in mats[1]])]) == \
            pk.tables([Matrix(F, n, n, mats[1])])
        for m, table in zip(mats, pk.tables([Matrix(F, n, n, m) for m in mats])):
            cols = [[row[j] for row in m] for j in range(n)]
            assert table == [(sh, pk.multiples(pk.pack(col)))
                             for sh, col in zip(pk.shifts, cols) if any(col)]
            for sh, col in zip(pk.shifts, cols):
                for top in {2, p}:
                    got = pk.extend(packed, dict(table).get(sh), top)
                    assert got == [pk.pack([(x + c * y) % p for x, y in zip(u, col)])
                                   for c in range(top) for u in vectors]
        basis, rows, pivots = {}, [], []
        for u in vectors + [list(r) for r in reversed(mats[0])]:
            w = pk.pack(u)
            assert pk.reduce(basis, w) == pk.pack(_residual(F, rows, pivots, u))
            assert pk.insert(basis, w) == _echelon_insert(F, rows, pivots, u)
            assert pk.key(basis) == tuple(pk.pack(r) for r in rows)
        assert [pk.unpack(v) for _, v, _ in linalg._spin_cyclics(pk, [])] == lines


def swar_route(m):
    """stable_subspaces packs F_2 vectors into 2-bit digits, as it did
    before the bit rows."""
    m.setattr(linalg, "_Bits", lambda n: linalg._Packed(2, n))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(operator_sets(primes=(2,)))
def test_bit_rows_match_swar_digits(case):
    """Over F_2 the bit rows give the k-bit digits' cyclics with their
    generators, join-irreducibles and containment tests, and lattice or
    JOIN_CAP refusal."""
    field, n, ops = case
    swar = linalg._Packed(2, n)
    try:
        want = packed_cyclics(field, n, ops, swar)
    except EnumerationBound as exc:
        with pytest.raises(EnumerationBound, match=re.escape(str(exc))):
            packed_cyclics(field, n, ops)
    else:
        assert packed_cyclics(field, n, ops) == want
    got = lattice_or_message(stable_subspaces, field, n, ops)
    with pytest.MonkeyPatch.context() as m:
        swar_route(m)
        assert lattice_or_message(stable_subspaces, field, n, ops) == got


def test_bit_rows_refuse_as_swar_digits(monkeypatch):
    """On each side of the JOIN_CAP edge of an all-line lattice (67
    subspaces x 15 lines) and of a Jordan block's chain (its sift and joins)
    both packings refuse, or give the same lattice."""
    field = GF(2)
    shift = Matrix(field, 6, 6, [[int(j == i + 1) for j in range(6)] for i in range(6)])
    for n, ops, edge in ((4, [Matrix.identity(field, 4)], 1005), (6, [shift], 57)):
        for cap in (edge - 1, edge):
            monkeypatch.setattr(linalg, "JOIN_CAP", cap)
            got = lattice_or_message(stable_subspaces, field, n, ops)
            assert isinstance(got, str) == (cap < edge)
            with monkeypatch.context() as m:
                swar_route(m)
                assert lattice_or_message(stable_subspaces, field, n, ops) == got
        monkeypatch.undo()


# -- the echelon spinner against the routes it replaced ----------------------------
#
# closure re-ran Subspace.from_vectors on every row and image once per round;
# largest_stable_inside intersected with operator preimages to a fixed point;
# FiniteAlgebra.generators kept its own sparse-dict echelon basis; and the
# lattice spin inserted with echelon_insert_oracle above.

def closure_oracle(space, ops):
    while True:
        extra = []
        for row in space.rows:
            for op in ops:
                w = op.vec_mul(list(row))
                if not space.contains(w):
                    extra.append(w)
        if not extra:
            return space
        space = Subspace.from_vectors(space.field, space.ambient_dim,
                                      list(space.rows) + extra)


def largest_stable_inside_oracle(space, ops):
    while True:
        proj = projection_matrix(space)
        nxt = space
        for op in ops:
            nxt = subspace_intersect(nxt, kernel(proj.mat_mul(op)))
        if nxt == space:
            return space
        space = nxt


def generators_oracle(alg):
    F, n, sparse = alg.field, alg.dim, alg.mult_sparse
    echelon = {}    # pivot -> row {column: scalar}, zero before the pivot, 1 at it

    def residual(w):
        while True:
            pc = min((k for k in w if k in echelon), default=None)
            if pc is None:
                return w
            c, w = w[pc], dict(w)
            for k, y in echelon[pc].items():
                w[k] = w.get(k, 0) - c * y
            w = support(F, w)

    def insert(w):
        w = residual(w)
        if w:
            pc = min(w)
            inv = F.inv(w[pc])
            echelon[pc] = dict(zip(w, F.reduce([inv * x for x in w.values()])))
        return bool(w)

    unit = {k: c for k, c in enumerate(alg.unit) if c}
    spun = [unit] if insert(unit) else []
    gens = []
    for b in range(n):
        if len(echelon) == n:
            break
        if not residual({b: F.one}):
            continue
        gens.append(b)
        old = len(spun)
        for t, w in enumerate(spun):    # spun grows inside the loop
            if len(echelon) == n:
                break
            for g in (gens if t >= old else (b,)):
                u = {}
                for j, a in w.items():
                    for k, c in sparse[g][j]:
                        u[k] = u.get(k, 0) + a * c
                u = support(F, u)
                if insert(u):
                    spun.append(u)
    return gens


# Q entries are ints and Fractions; the prime fields draw residues.
SPIN_FIELDS = [QQ, GF(2), GF(3), GF(5)]
QQ_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def spun_subspaces(draw):
    """A field of SPIN_FIELDS, n <= 6, one to three operators of the kinds
    of operator_sets, and two subspaces spanned by one to n vectors each."""
    field = draw(st.sampled_from(SPIN_FIELDS))
    n = draw(st.integers(1, 6))
    entry = (QQ_ENTRIES.map(field.parse) if field is QQ
             else st.integers(0, field.p - 1))
    kinds = draw(st.lists(st.sampled_from(
        ["random", "nilpotent", "permutation", "scalar"]), min_size=1, max_size=3))
    ops = [draw_operator(draw, field, n, kind, entry) for kind in kinds]
    vectors = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n)
    space, other = (Subspace.from_vectors(field, n, draw(vectors)) for _ in range(2))
    return field, n, ops, space, other


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(spun_subspaces())
def test_spinner_matches_old_routes(case):
    field, n, ops, space, other = case
    for some in (ops, ops[:1], []):
        assert closure(space, some) == closure_oracle(space, some)
        assert (largest_stable_inside(space, some)
                == largest_stable_inside_oracle(space, some))
    assert subspace_sum(space, other) == Subspace.from_vectors(
        field, n, list(space.rows) + list(other.rows))
    if field is not QQ:
        # one insert at a time, the same basis and the same verdicts
        rows, pivots, old_rows, old_pivots = [], [], [], []
        for v in list(other.rows) + [op.vec_mul(list(r)) for op in ops
                                     for r in space.rows]:
            assert (_echelon_insert(field, rows, pivots, v)
                    == echelon_insert_oracle(old_rows, old_pivots, list(v), field.p))
            assert (rows, pivots) == (old_rows, old_pivots)


def permuted_basis(alg, perm):
    """alg in the basis whose i-th element is e_perm[i]."""
    place = {old: new for new, old in enumerate(perm)}
    terms = [[sorted((place[k], c) for k, c in alg.mult_sparse[i][j]) for j in perm]
             for i in perm]
    return FiniteAlgebra.from_terms(alg.field, alg.dim, terms,
                                    [alg.unit[i] for i in perm], name=alg.name)


def unitriangular_basis(alg, rng):
    """alg in the basis e_i + sum_{j > i} r_ij e_j for random r_ij in -1..1:
    its products have several terms."""
    F, n = alg.field, alg.dim
    basis = [[F.zero] * i + [F.one] + [F.from_int(rng.randint(-1, 1)) for _ in range(i + 1, n)]
             for i in range(n)]
    P = Matrix.from_rows(F, basis).transpose()
    return FiniteAlgebra(F, n, [[solve(P, alg.multiply(u, v)) for v in basis] for u in basis],
                         solve(P, alg.unit), name=alg.name)


def test_generators_match_old_route(ws):
    algebras = [a for _, a in sorted(ws.algebras.items())]
    algebras += [h.alg for _, h in sorted(ws.hopfs.items())]
    rng = random.Random("generators")
    for field in (QQ, GF(3)):
        s3, s4 = (group_algebra(symmetric_group_table(k), field) for k in (3, 4))
        c4 = group_algebra(cyclic_group_table(4), field)
        algebras += [tensor_hopf(s3, s3).alg, tensor_hopf(s4, c4).alg]
        # M_3 with its matrix units shuffled: a new generator's words on
        # the left of older words are needed here
        algebras += [permuted_basis(matrix_algebra(field, 3), rng.sample(range(9), 9))
                     for _ in range(6)]
        algebras += [unitriangular_basis(matrix_algebra(field, 3), rng) for _ in range(3)]
    assert max(a.dim for a in algebras) == 96
    for alg in algebras:
        assert alg.generators == generators_oracle(alg), alg.name


# -- the structure layer against the dense loops it replaced -----------------------
#
# The trace form came from the dense L_i (trace_form_kernel_oracle above), the
# center from n^2 rows of the ideal operators, quotients and subalgebras from
# dense products stripped to their nonzero terms, and ideal tests and ideal
# closures from all 2n ideal operators.  The spectrum is kept on its algebra,
# so each algebra below is a new object.

def rref_full_rows_oracle(field, data, ncols):
    """_rref_data before it skipped unit pivots and cleared only the pivot
    row's nonzero columns: an inverse per pivot, x - f y on every column."""
    F = field
    rows = [list(r) for r in data]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        if inv != 1:
            rows[r] = F.reduce([inv * x for x in rows[r]])
        rr = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = F.reduce([x - f * y for x, y in zip(rows[i], rr)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS, ids=repr)
def test_rref_matches_full_row_loop(field):
    shapes = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def check(data):
        draw = data.draw
        ncols = draw(st.integers(1, 6))
        vector = st.lists(scalars(field), min_size=ncols, max_size=ncols)
        rows = draw(st.lists(vector, max_size=5))
        # zero rows and combinations of other rows: rank below the row count
        for _ in range(draw(st.integers(0, 3))):
            if rows and draw(st.booleans()):
                a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                s, t = draw(scalars(field)), draw(scalars(field))
                extra = field.reduce([s * x + t * y for x, y in zip(a, b)])
            else:
                extra = [field.zero] * ncols
            rows.insert(draw(st.integers(0, len(rows))), extra)
        before = [list(r) for r in rows]
        got = _rref_data(field, rows, ncols)
        assert got == rref_full_rows_oracle(field, rows, ncols)
        assert rows == before
        shapes.add((not any(map(any, rows)) if rows else None,
                    len(got[1]) < len(rows)))
    check()
    assert (False, True) in shapes and (True, True) in shapes


def read_over(alg, field):
    """``alg`` with its structure constants read over ``field``: an F_p
    constant is lifted to the residue of least absolute value first."""
    def read(c):
        p = alg.field.p
        if p is not None and c > p // 2:
            c -= p
        return field.parse(c)
    terms = [[[(k, v) for k, c in ts if (v := read(c))] for ts in plane]
             for plane in alg.mult_sparse]
    return FiniteAlgebra.from_terms(field, alg.dim, terms, [read(c) for c in alg.unit],
                                    name=alg.name)


def center_oracle(alg):
    """Solutions of x e_i = e_i x for every basis element: n^2 rows of the
    ideal operators."""
    F, n = alg.field, alg.dim
    basis = [alg.basis_vector(b) for b in range(n)]
    rows = [[F.sub(L.data[r][c], R.data[r][c]) for c in range(n)]
            for L, R in zip(map(alg.left_mult_matrix, basis), map(alg.right_mult_matrix, basis))
            for r in range(n)]
    return kernel(Matrix.from_rows(F, rows, n))


def quotient_oracle(alg, sub):
    """(terms, unit, proj, lift) of A / sub from dense products."""
    F, n = alg.field, alg.dim
    proj = projection_matrix(sub)
    nonpiv = sub.nonpivot_columns()
    lift = Matrix(F, n, len(nonpiv), [[F.one if j == k else F.zero for k in nonpiv]
                                      for j in range(n)])
    terms = [[linalg.nonzero_terms(F, proj.vec_mul(
        alg.multiply(alg.basis_vector(a), alg.basis_vector(b)))) for b in nonpiv]
        for a in nonpiv]
    return terms, proj.vec_mul(alg.unit), proj, lift


def subalgebra_oracle(alg, sub):
    """(terms, unit) of a unital subalgebra from dense products, or the
    ValueError's message."""
    F = alg.field
    basis = sub.basis_vectors()
    terms = []
    for x in basis:
        terms.append([])
        for y in basis:
            coords = sub.coords_in_basis(alg.multiply(x, y))
            if coords is None:
                return "subspace is not multiplicatively closed"
            terms[-1].append(linalg.nonzero_terms(F, coords))
    unit = sub.coords_in_basis(alg.unit)
    return "subspace does not contain the unit" if unit is None else (terms, unit)


def subalgebra_or_refusal(alg, sub):
    try:
        s, embed = ideals.subalgebra_structure(alg, sub)
    except ValueError as exc:
        return str(exc)
    assert embed.data == [list(col) for col in zip(*sub.rows)] if sub.rows else True
    return s.mult_sparse, s.unit


def short_spin_algebras(field):
    """Algebras whose generators' words do not span them: k^n with e_0 given
    as the unit, so that ideal tests fall back to every basis element."""
    out = []
    for n in (2, 3):
        k = product_field_algebra(field, n)
        out.append(FiniteAlgebra.from_terms(field, n, k.mult_sparse,
                                            [field.one] + [field.zero] * (n - 1),
                                            name=f"k^{n} with unit e_0"))
    return out


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS, ids=repr)
def test_structure_layer_matches_dense_loops(ws, field):
    rng = random.Random(f"structure/{field!r}")
    algebras = [read_over(a, field) for _, a in sorted(ws.algebras.items())]
    algebras += [unitriangular_basis(matrix_algebra(field, 2), rng),
                 unitriangular_basis(group_algebra(symmetric_group_table(3), field).alg, rng)]
    short = short_spin_algebras(field)
    for alg in short:
        assert alg.generators == list(range(alg.dim))
        assert alg.generator_operators == ideal_operators_oracle(alg)
    assert sum(len(a.generators) < a.dim for a in algebras) >= len(algebras) // 2
    verdicts = []
    for alg in algebras + short:
        F, n = alg.field, alg.dim
        every = ideal_operators_oracle(alg)
        assert ideals._trace_form_kernel(alg) == trace_form_kernel_oracle(alg), alg.name
        center = ideals.center_subspace(alg)
        assert center == center_oracle(alg), alg.name
        vectors = [[F.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)]
        spaces = [Subspace.from_vectors(F, n, vectors[:k]) for k in (1, 2, 3)]
        ideals_ = [closure(s, every) for s in spaces[:2]]
        for k, ideal in enumerate(ideals_):
            assert ideals.ideal_closure(alg, vectors[:k + 1]) == ideal, alg.name
        try:
            primes = [e.prime.space for e in spectrum(alg)]
        except UnsupportedComputation:
            primes = []
        for sub in (spaces + ideals_ + primes
                    + [center, Subspace.zero(F, n), Subspace.full(F, n)]):
            want = linalg.is_stable(sub, every)
            assert ideals.subspace_is_ideal(alg, sub) == want, alg.name
            verdicts.append(want)
            if want:
                q, proj, lift = ideals.quotient_algebra(alg, sub)
                assert (q.mult_sparse, q.unit, proj, lift) == quotient_oracle(alg, sub)
            assert subalgebra_or_refusal(alg, sub) == subalgebra_oracle(alg, sub), alg.name
    # non-ideals: at least one subspace per algebra on average
    assert verdicts.count(False) >= len(algebras) + len(short)


def test_generator_operators_list_right_multiplication_where_it_differs():
    for n in range(1, 5):
        kx = product_field_algebra(QQ, n)
        assert len(kx.generators) == n - 1
        assert kx.generator_elements == [kx.basis_vector(g) for g in kx.generators]
        assert kx.generator_operators == [kx.left_mult_matrix(g)
                                          for g in kx.generator_elements]
        assert len(ideal_operators_oracle(kx)) == n
    for alg in (matrix_algebra(QQ, 2), group_algebra(symmetric_group_table(3), QQ).alg):
        basis = [alg.basis_vector(g) for g in alg.generators]
        assert basis and alg.generator_elements == basis
        assert alg.generator_operators == [m for e in basis for m in
                                           (alg.left_mult_matrix(e), alg.right_mult_matrix(e))]


def element_algebras(ws, field):
    """k^X for |X| = 1..9 (past p for every prime drawn), tensor products
    with an orthogonal-idempotent product basis, with one factor that is
    not (kS3, M_2, k[t]/(t^3), the dual of kC4) and with neither, and the
    bundled algebras over ``field``."""
    s3 = group_algebra(symmetric_group_table(3), field)
    c4 = group_algebra(cyclic_group_table(4), field)
    out = [product_field_algebra(field, n) for n in range(1, 10)]
    out += [tensor_algebra_prod(product_field_algebra(field, 2), product_field_algebra(field, 3)),
            tensor_algebra_prod(s3.alg, product_field_algebra(field, 3)),
            tensor_algebra_prod(product_field_algebra(field, 5), matrix_algebra(field, 2)),
            tensor_algebra_prod(dual_hopf(c4).alg, truncated_poly_algebra(field, 3)),
            tensor_algebra_prod(truncated_poly_algebra(field, 2), s3.alg),
            tensor_hopf(s3, c4).alg]
    return out + [a for _, a in sorted(ws.algebras.items()) if a.field == field]


@pytest.mark.parametrize("field", SPIN_FIELDS, ids=repr)
def test_generator_elements_generate(ws, field):
    """The unit spun under left multiplication by the generator elements
    reaches every element; k^X over F_p needs ceil(log_p |X|) of them (Q
    keeps its |X| - 1 basis generators), and its closed-form generators
    are those of the basis walk."""
    rng = random.Random(f"elements/{field!r}")
    for alg in element_algebras(ws, field):
        F, n, elements = alg.field, alg.dim, alg.generator_elements
        rows, pivots = [], []
        _echelon_insert(F, rows, pivots, alg.unit)
        spin(F, rows, pivots, [alg.unit], [partial(alg.multiply, g) for g in elements])
        assert len(rows) == n, alg.name
        if alg._idempotent_basis:
            assert alg.generators == alg._generator_walk() == list(range(n - 1))
            assert len(elements) == (n - 1 if field is QQ else
                                     next(t for t in range(n) if field.p ** t >= n))
        # ideal tests and ideal closures on the elements against every basis operator
        every = ideal_operators_oracle(alg)
        for k in (1, 2):
            vectors = [[F.from_int(rng.randint(-1, 1)) for _ in range(n)] for _ in range(k)]
            sub = Subspace.from_vectors(F, n, vectors)
            ideal = closure(sub, every)
            assert ideal_closure(alg, vectors) == ideal, alg.name
            assert subspace_is_ideal(alg, sub) == is_stable(sub, every), alg.name
            assert subspace_is_ideal(alg, ideal)


# -- stability on generators against the all-basis operator lists ----------------
#
# core solved one joint kernel over every Hopf basis operator (core_oracle);
# subspace_stable, certify_h_prime, reformulation_check and the lattices of
# enumerate_h_ideals, check_dotinv_lattice and stability_scan took L_b and R_b
# for every basis element b and one operator per basis element of H and of
# H*.  A repeated operator keeps the same subspaces, so ideal_operators_oracle
# lists R_b only where it differs from L_b, as generator_operators does.  With
# every basis index as the generators (old_route), the same code runs on
# exactly those lists.

LATTICE_VECTORS = 3 ** 8    # p ** dim B up to which the lattices are compared


def lattice_bound(act):
    """p ** dim B when the lattices of ``act`` are compared, else None."""
    p = act.field.p
    vectors = p ** (act.hopf.dim * act.alg.dim) if p else None
    return vectors if vectors and vectors <= LATTICE_VECTORS else None


def old_route(monkeypatch):
    """Every basis index as the generators of every algebra, and every
    basis element as its generator elements."""
    monkeypatch.setattr(FiniteAlgebra, "generators",
                        property(lambda alg: list(range(alg.dim))))
    monkeypatch.setattr(FiniteAlgebra, "generator_elements",
                        property(lambda alg: list(map(alg.basis_vector, range(alg.dim)))))


def fresh_action(act):
    """A new action with the structure of ``act``: nothing kept on ``act``
    or on its algebras carries over."""
    h = act.hopf
    hopf = HopfAlgebra(algebra_copy(h.alg), h.comul_sparse, h.counit,
                       h.antipode_sparse, name=h.name)
    return ModuleAlgebraAction(hopf, algebra_copy(act.alg), act.tensor, name=act.name)


def generated_permutation_action(field, rng, npts, ngens):
    """kG acting on k^X by permuting ``npts`` points, G generated by
    ``ngens`` random permutations, its elements in random order."""
    compose = lambda g, s: tuple(g[s[x]] for x in range(npts))     # noqa: E731
    gens = [tuple(rng.sample(range(npts), npts)) for _ in range(ngens)]
    elems, todo = {tuple(range(npts))}, [tuple(range(npts))]
    while todo:
        g = todo.pop()
        for s in gens:
            if compose(g, s) not in elems:
                elems.add(compose(g, s))
                todo.append(compose(g, s))
    elems = sorted(elems)
    rng.shuffle(elems)
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[compose(g, s)] for s in elems] for g in elems]
    tensor = [[[field.one if g[x] == y else field.zero for y in range(npts)]
               for x in range(npts)] for g in elems]
    return ModuleAlgebraAction(group_algebra(table, field),
                               product_field_algebra(field, npts), tensor,
                               name=f"perm{npts}-order{len(elems)}")


def ideals_to_test(act, rng):
    """Ideals of the acted algebra: two generated by random vectors, the
    primes, zero and the whole algebra; most are not H-stable."""
    alg, F = act.alg, act.field
    out = [Ideal.zero(alg), Ideal.full(alg)]
    for k in (1, 2):
        vectors = [[F.from_int(rng.randint(-1, 1)) for _ in range(alg.dim)]
                   for _ in range(k)]
        out.append(Ideal.generate(alg, vectors))
    try:
        out += [e.prime for e in spectrum(alg)]
    except UnsupportedComputation:
        pass
    return out


def outcome(fn, *args):
    try:
        return fn(*args).to_json_dict(with_timing=False)
    except UnsupportedComputation as exc:
        return f"{type(exc).__name__}: {exc}"


def stability_outcomes(act, rng):
    """Reports and lattices of the stability tests on ``act``, with the
    generator sets checked against their oracles on the way, and the
    number of subspaces found not H-stable."""
    alg, F, p = act.alg, act.field, act.field.p
    A_bound = p ** alg.dim if p else None
    out, unstable = [], 0
    for ideal in ideals_to_test(act, rng):
        c = core(act, ideal)
        assert c.space == core_oracle(act, ideal), act.name
        others = [Subspace.from_vectors(F, alg.dim, [[F.from_int(rng.randint(-1, 1))
                                                      for _ in range(alg.dim)]])]
        for sub in [ideal.space, c.space] + others:
            want = linalg.is_stable(sub, act.operator_matrices)
            assert act.subspace_stable(sub) == want, act.name
            unstable += not want
        out += [outcome(ideals.reformulation_check, act, ideal),
                outcome(ideals.certify_h_prime, act, c, A_bound)]
    bound = lattice_bound(act)
    if bound:
        conv = ConvolutionAlgebra(act)
        B = conv.algebra
        got = convolution.enumerate_h_ideals(conv, bound)
        assert got == stable_subspaces(
            F, B.dim, ideal_operators_oracle(B) + conv.dot_operators, bound), act.name
        out += [[s.rows for s in got], outcome(convolution.check_dotinv_lattice, conv, bound),
                outcome(convolution.stability_scan, conv, bound)]
    return out, unstable


@pytest.mark.parametrize("field", PLAIN_LOOP_FIELDS, ids=repr)
def test_stability_on_generators_matches_every_basis_operator(ws, field, monkeypatch):
    rng = random.Random(f"generator-sets/{field!r}")
    actions = [a for _, a in sorted(ws.actions.items()) if a.field == field]
    actions += stock_actions(field)
    actions += [generated_permutation_action(field, rng, 2 + k % 3, 1 + k // 4)
                for k in range(8)]
    seeds = [rng.random() for _ in actions]
    unstable = lattices = 0
    for act, seed in zip(actions, seeds):
        new, count = stability_outcomes(fresh_action(act), random.Random(seed))
        with monkeypatch.context() as m:
            old_route(m)
            old = fresh_action(act)
            assert old.alg.generator_operators == ideal_operators_oracle(old.alg)
            assert old.generator_operators == old.operator_matrices
            assert stability_outcomes(old, random.Random(seed)) == (new, count), act.name
        unstable += count
        lattices += lattice_bound(act) is not None
    assert unstable >= len(actions)
    assert lattices >= (0 if field is QQ else 3)
