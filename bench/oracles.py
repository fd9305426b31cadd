"""Oracles and output checkers that run apart from hopfact.

Each oracle computes the expected answer from the plain inputs by a route
that shares no code with the program: orbits of a permutation group,
Gaussian subspace counts from ordered bases, the ideals of k^X, cyclic
subgroup classes.  Each checker takes plain values read off a program
result (status strings, report details, basis rows) and raises
``CheckFailed`` when they disagree with the oracle or with a property the
method must have.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """A program output disagrees with an oracle."""


# -- oracles -----------------------------------------------------------------

def orbits(perms, npts):
    """Orbits of the group generated by ``perms`` on range(npts)."""
    seen, out = set(), []
    for x in range(npts):
        if x in seen:
            continue
        orb, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for p in perms:
                if p[y] not in orb:
                    orb.add(p[y])
                    frontier.append(p[y])
        seen |= orb
        out.append(frozenset(orb))
    return out


def orbit_core(perms, npts, support):
    """Orbit rule: core(span{e_x : x in S}) = span{e_x : G.x inside S}."""
    support = set(support)
    return sorted(x for orb in orbits(perms, npts) if orb <= support for x in orb)


def subspaces_of_dim(p, n, k):
    """k-dimensional subspaces of F_p^n: ordered bases over |GL_k(F_p)|."""
    bases = glk = 1
    for i in range(k):
        bases *= p ** n - p ** i
        glk *= p ** k - p ** i
    return bases // glk


def subspace_total(p, n):
    """Number of subspaces of F_p^n."""
    return sum(subspaces_of_dim(p, n, k) for k in range(n + 1))


def product_ideal_count(npts):
    """k^X has 2^|X| ideals: the spans of subsets of its idempotents."""
    return 2 ** npts


def cyclic_subgroup_classes(perms):
    """Conjugacy classes of cyclic subgroups: the simple components of QG."""
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[x] for x in q)

    def inv(p):
        out = [0] * len(p)
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    def generated(g):
        out, cur = set(), tuple(range(len(g)))
        while cur not in out:
            out.add(cur)
            cur = mul(g, cur)
        return frozenset(out)

    subgroups = {generated(g) for g in perms}
    classes = set()
    for c in subgroups:
        classes.add(min(tuple(sorted(index[mul(mul(h, x), inv(h))] for x in c))
                        for h in perms))
    return len(classes)


def rank(rows):
    """Rank of a list of rational vectors, by elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# -- checkers ----------------------------------------------------------------

def _fail(what, got, want):
    raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def check_equal(what, got, want):
    if got != want:
        _fail(what, got, want)


def check_status(what, status, want="pass"):
    check_equal(f"{what} status", status, want)


def check_coordinate_span(what, rows, support):
    """span(rows) must equal span{e_x : x in support}.

    Every row must vanish off the support, and the rows must have rank
    |support|; an extra vector, a missing one or a wrong coordinate fails.
    """
    support = set(support)
    for row in rows:
        off = [j for j, c in enumerate(row) if c != 0 and j not in support]
        if off:
            _fail(f"{what} support", sorted(set(off) | support), sorted(support))
    got = rank(rows) if rows else 0
    if got != len(support) or len(rows) != len(support):
        _fail(f"{what} dimension", (len(rows), got), len(support))


def check_stability_scan(what, details, p, dim_a):
    """Stable subspaces of A (x) H* are the W (x) H*: one per subspace of A."""
    want = subspace_total(p, dim_a)
    check_equal(f"{what} stable-count", details.get("stable-count"), want)
    check_equal(f"{what} subspace-count-of-A", details.get("subspace-count-of-A"), want)


def check_lattice(what, details, ideals_of_a=None):
    """The three-corner bijection: as many H-ideals of B as ideals of A."""
    got_a = details.get("ideals-of-A")
    if ideals_of_a is not None:
        check_equal(f"{what} ideals-of-A", got_a, ideals_of_a)
    check_equal(f"{what} h-ideals-of-B", details.get("h-ideals-of-B"), got_a)


def check_multiplicative(what, details, cocommutative):
    """Twist multiplicativity holds exactly for the cocommutative inputs."""
    check_equal(f"{what} cocommutative", details.get("cocommutative"), cocommutative)
    check_equal(f"{what} multiplicative", details.get("multiplicative"), cocommutative)


def check_semiprime_core(what, status, details, core_dim):
    """Characteristic 0: a semiprime ideal has a semiprime core."""
    check_status(what, status)
    check_equal(f"{what} core-semiprime", details.get("core-semiprime"), True)
    check_equal(f"{what} core-dim", details.get("core-dim"), core_dim)


def check_rejected(what, status):
    """A perturbed structure is not a Hopf algebra: the verifier must fail."""
    check_status(what, status, "fail")
