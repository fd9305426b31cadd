"""Seeded benchmark inputs as plain data: tables, tensors and fixture objects.

Nothing here imports hopfact.  Every input family has a fixed shape (group,
point set, algebra dimension); the seed only relabels group elements and
points, picks ideal generators and coefficients, and places perturbations.
That keeps the work of a round nearly the same from one seed to the next,
so the spread between seeds measures the machine, not the inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Permutation groups given by generators on a point set.  Points no
# generator moves are fixed points, i.e. orbits of their own.
GROUPS = {
    "c2": ([(1, 0)], 2),
    "c2-on3": ([(1, 0, 2)], 3),
    "c2-on4": ([(1, 0, 3, 2)], 4),
    "c3": ([(1, 2, 0, 3)], 4),
    "c4": ([(1, 2, 3, 0, 4)], 5),
    "c2xc2": ([(1, 0, 2, 3, 4), (0, 1, 3, 2, 4)], 5),
    "d4": ([(1, 2, 3, 0), (0, 3, 2, 1)], 4),
    "s3": ([(1, 2, 0, 3, 4), (1, 0, 2, 4, 3)], 5),
}


def compose(p, q):
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def closure(gens, npts):
    """All elements of the permutation group generated by ``gens``."""
    ident = tuple(range(npts))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


class PermGroup:
    """A permutation group with its elements in a fixed (seeded) order.

    Element i is ``perms[i]``; ``table[i][j]`` is the index of
    perms[i] o perms[j], so the natural action g.x = perms[g][x] is a
    left action and ``table`` is a Cayley table for the group algebra.
    """

    def __init__(self, name, perms, npts):
        self.name = name
        self.perms = [tuple(p) for p in perms]
        self.npts = npts
        index = {p: i for i, p in enumerate(self.perms)}
        self.table = [[index[compose(p, q)] for q in self.perms] for p in self.perms]
        self.identity = index[tuple(range(npts))]

    @property
    def order(self):
        return len(self.perms)


def seeded_group(name, rnd):
    """The family ``name`` with shuffled element order and relabelled points."""
    gens, npts = GROUPS[name]
    perms = closure(gens, npts)
    rnd.shuffle(perms)
    tau = list(range(npts))
    rnd.shuffle(tau)
    tau = tuple(tau)
    tau_inv = inverse(tau)
    perms = [compose(tau, compose(p, tau_inv)) for p in perms]
    return PermGroup(name, perms, npts)


# -- algebras and actions as plain structure constants -----------------------

def product_algebra_mult(n):
    """k^n with idempotent basis: mult[i][j][k] = [i == j == k]."""
    return [[[1 if i == j == k else 0 for k in range(n)] for j in range(n)]
            for i in range(n)]


def group_algebra_mult(table):
    n = len(table)
    return [[[1 if table[i][j] == k else 0 for k in range(n)] for j in range(n)]
            for i in range(n)]


def truncated_poly_mult(n):
    """k[t]/(t^n) on the basis 1, t, ..., t^(n-1)."""
    return [[[1 if i + j == k else 0 for k in range(n)] for j in range(n)]
            for i in range(n)]


def matrix_algebra_mult(n):
    """M_n(k) on matrix units E_ab, basis index a*n + b."""
    d = n * n
    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for e in range(n):
                mult[a * n + b][b * n + e][a * n + e] = 1
    return mult


def perm_action_tensor(group):
    """tensor[g][x][y] = [y == g.x]: the group permuting the idempotents of k^X."""
    n = group.npts
    return [[[1 if p[x] == y else 0 for y in range(n)] for x in range(n)]
            for p in group.perms]


def group_hopf_json(group, field, name):
    """kG by structure constants: grouplike basis, S(g) = g^-1."""
    n = group.order
    inv = [group.table[i].index(group.identity) for i in range(n)]
    comul = [[0] * n for _ in range(n * n)]
    for g in range(n):
        comul[g * n + g][g] = 1
    antipode = [[0] * n for _ in range(n)]
    for j in range(n):
        antipode[inv[j]][j] = 1
    return {"name": name, "field": field, "dim": n,
            "mult": group_algebra_mult(group.table),
            "unit": unit_vector(n, group.identity),
            "comul": comul, "counit": [1] * n, "antipode": antipode}


def perturb(obj, kind, rnd):
    """Add 1 to one seeded entry of the unit, the counit or the antipode.

    A unit, a counit and an antipode are each unique when they exist, so
    the perturbed structure is never a Hopf algebra.
    """
    out = json.loads(json.dumps(obj))
    n = out["dim"]
    if kind == "antipode":
        r, c = rnd.randrange(n), rnd.randrange(n)
        out["antipode"][r][c] += 1
    else:
        out[kind][rnd.randrange(n)] += 1
    return out


def grading_tensor(order):
    """(kG)* on kG: the dual basis element of g projects onto the g-component."""
    return [[[1 if i == j == k else 0 for k in range(order)] for j in range(order)]
            for i in range(order)]


def signed_cycle_conjugation(rnd, n=3):
    """C_n acting on M_n(k) by conjugation with a seeded signed n-cycle M.

    M e_b = s(b) e_sigma(b); M^n is a scalar, so g -> Ad(M^g) is an action
    of C_n.  Returns the group (elements are powers of sigma, shuffled) and
    the action tensor on matrix units.
    """
    sigma = tuple((x + 1) % n for x in range(n))
    signs = [rnd.choice((1, -1)) for _ in range(n)]
    powers = list(range(n))
    rnd.shuffle(powers)
    perms, tensor = [], []
    for k in powers:
        # M^k as a signed permutation: e_b -> s_k(b) e_{pi(b)}
        pi, s = tuple(range(n)), [1] * n
        for _ in range(k):
            s = [s[b] * signs[pi[b]] for b in range(n)]
            pi = compose(sigma, pi)
        perms.append(pi)
        plane = [[0] * (n * n) for _ in range(n * n)]
        for a in range(n):
            for b in range(n):
                plane[a * n + b][pi[a] * n + pi[b]] = s[a] * s[b]
        tensor.append(plane)
    return PermGroup(f"c{n}", perms, n), tensor


def derivation_matrix(coeffs, n):
    """D on k[t]/(t^n) with D(t) = sum_m coeffs[m-1] t^m (no constant term).

    D(t^j) = j t^(j-1) D(t); columns are images (D e_j = sum_i D[i][j] e_i).
    """
    D = [[0] * n for _ in range(n)]
    for j in range(1, n):
        for m, c in enumerate(coeffs, start=1):
            i = j - 1 + m
            if i < n:
                D[i][j] += j * c
    return D


def unit_vector(n, i):
    v = [0] * n
    v[i] = 1
    return v


def random_subset(rnd, n, k):
    return sorted(rnd.sample(range(n), k))


def random_rational(rnd):
    num = rnd.choice([x for x in range(-5, 6) if x])
    return str(Fraction(num, rnd.randint(1, 4)))
