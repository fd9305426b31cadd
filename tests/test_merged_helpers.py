"""Differential tests: each shared helper against an independent route.

The twist and H-action builders are compared matrix for matrix with the
direct loops they replaced (kept here as test-only oracles); the subspace
helpers are compared with brute force over small prime fields.
"""

import itertools
import random

import pytest

from hopfact.linalg import (GF, Matrix, Subspace, closure, largest_stable_inside,
                            pull_back, stable_subspaces)
from hopfact.hopf import group_algebra, cyclic_group_table, dual_hopf, is_group_basis
from hopfact.action import (coefficient_subalgebra, dual_product, star_antipode,
                            matrix_coefficients)
from hopfact.convolution import ConvolutionAlgebra


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
    gens += [star_antipode(h, c) for c in coeffs]
    space = Subspace.from_vectors(h.field, h.dim, gens)
    while True:
        basis = space.basis_vectors()
        prods = [dual_product(h, f, g) for f in basis for g in basis]
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
