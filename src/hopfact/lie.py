"""Lie algebras acting by derivations, and truncated divided-power duals.

The enveloping algebra itself is never materialized.  Convolution of
functionals on it only needs the coproduct of the divided-power basis,
which splits an exponent multi-index into all componentwise summand pairs;
truncating at a total degree keeps everything finite.  The isomorphism onto
truncated power series sends a functional to the series of its values, and
is checked to be multiplicative degree by degree.

In characteristic p the divided powers need every factorial below the
truncation to be invertible, so truncation degrees are capped at p - 1.
"""

from __future__ import annotations

import itertools
from math import comb

from .linalg import (GF, EnumerationBound, Field, Matrix, combine, is_stable,
                     largest_stable_inside, support)
from .hopf import FiniteAlgebra, scan_generators, verify_algebra
from .report import Report, ERROR
from .ideals import (Ideal, is_prime, is_semiprime, is_completely_prime,
                     UnsupportedComputation)


class LieAction:
    """Derivations of an algebra with bracket structure constants.

    ``derivations`` are coordinate matrices D_1..D_m; ``brackets[a][b]`` is
    the coefficient vector expressing [D_a, D_b] over the derivation list.
    """

    def __init__(self, alg: FiniteAlgebra, derivations, brackets=None, name=None):
        F = alg.field
        self.alg = alg
        self.derivations = [d if isinstance(d, Matrix) else
                            Matrix.from_rows(F, [[F.parse(c) for c in row] for row in d])
                            for d in derivations]
        m = len(self.derivations)
        for d in self.derivations:
            if d.nrows != alg.dim or d.ncols != alg.dim:
                raise ValueError("derivation matrix shape mismatch")
        if brackets is None:
            brackets = [[[F.zero] * m for _ in range(m)] for _ in range(m)]
        self.brackets = [[[F.parse(c) for c in row] for row in plane]
                         for plane in brackets]
        if len(self.brackets) != m or any(len(p) != m for p in self.brackets):
            raise ValueError("bracket tensor shape mismatch")
        self.name = name

    @property
    def field(self):
        return self.alg.field

    def to_json(self):
        F = self.field
        return {"algebra": self.alg.name,
                "derivations": [[[F.render(c) for c in row] for row in d.data]
                                for d in self.derivations],
                "brackets": [[[F.render(c) for c in row] for row in plane]
                             for plane in self.brackets],
                **({"name": self.name} if self.name else {})}


def verify_lie_action(act: LieAction) -> Report:
    """Leibniz rule, bracket compatibility, antisymmetry and Jacobi.

    Generator lemma: when A is associative with a two-sided unit and
    D(1) = 0, the a with D(a b) = D(a) b + a D(b) for all b form a unital
    subalgebra, so the Leibniz rule of D is checked with a running over the
    generators of A."""
    rep = Report("derivation-axioms", details={"name": act.name})
    F = act.field
    alg = act.alg
    n = alg.dim
    m = len(act.derivations)
    alg_ok = verify_algebra(alg).ok
    for d_idx, D in enumerate(act.derivations):
        ready = alg_ok and not any(D.vec_mul(alg.unit))
        for pair in scan_generators(alg, ready, lambda outer: _leibniz_failures(alg, D, outer)):
            rep.fail({"axiom": "leibniz", "derivation": d_idx, "pair": pair})
    for a in range(m):
        for b in range(m):
            comm = act.derivations[a].mat_mul(act.derivations[b])
            ba = act.derivations[b].mat_mul(act.derivations[a])
            comm = Matrix(F, n, n, [[F.sub(comm.data[r][c], ba.data[r][c])
                                     for c in range(n)] for r in range(n)])
            if comm != combine(act.brackets[a][b], act.derivations):
                rep.fail({"axiom": "bracket-compatibility", "pair": [a, b]})
            anti = [F.add(act.brackets[a][b][c], act.brackets[b][a][c])
                    for c in range(m)]
            if any(not F.is_zero(x) for x in anti):
                rep.fail({"axiom": "antisymmetry", "pair": [a, b]})
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for e in range(m):
                    acc = F.zero
                    for d in range(m):
                        acc = F.add(acc, F.mul(act.brackets[a][b][d],
                                               act.brackets[d][c][e]))
                        acc = F.add(acc, F.mul(act.brackets[b][c][d],
                                               act.brackets[d][a][e]))
                        acc = F.add(acc, F.mul(act.brackets[c][a][d],
                                               act.brackets[d][b][e]))
                    if not F.is_zero(acc):
                        rep.fail({"axiom": "jacobi", "triple": [a, b, c]})
    return rep


def _leibniz_failures(alg: FiniteAlgebra, D: Matrix, firsts):
    """The pairs [i, j], i in ``firsts``, with D(e_i e_j) !=
    D(e_i) e_j + e_i D(e_j); every j of one i at once, keyed (j, q)."""
    F, n = alg.field, alg.dim
    sparse, partners = alg.mult_sparse, alg.right_partners
    images = [[(r, row[c]) for r, row in enumerate(D.data) if row[c]] for c in range(n)]
    out = []
    for i in firsts:
        sp_i = sparse[i]
        diff = {}
        for j in partners[i]:
            for m, c in sp_i[j]:
                for q, d in images[m]:
                    diff[j, q] = diff.get((j, q), 0) + c * d
        for r, x in images[i]:
            sp_r = sparse[r]
            for j in partners[r]:
                for q, d in sp_r[j]:
                    diff[j, q] = diff.get((j, q), 0) - x * d
        for j, image in enumerate(images):
            for r, x in image:
                for q, d in sp_i[r]:
                    diff[j, q] = diff.get((j, q), 0) - x * d
        out.extend([i, j] for j in sorted({j for j, _ in support(F, diff)}))
    return out


def lie_core(act: LieAction, ideal: Ideal) -> Ideal:
    """Largest derivation-stable ideal inside the given ideal
    (:func:`~hopfact.linalg.largest_stable_inside`)."""
    if ideal.alg is not act.alg:
        raise ValueError("ideal does not live on the derived algebra")
    space = largest_stable_inside(ideal.space, act.derivations)
    out = Ideal(act.alg, space, check=True, name="derivation-core")
    if not is_stable(out.space, act.derivations):
        raise RuntimeError("derivation core is not stable")
    return out


def lie_semiprime_transfer_check(act: LieAction, ideal: Ideal) -> Report:
    """Prime / semiprime / completely prime must transfer to the core.

    Characteristic zero only; any failure contradicts the derivation-core
    transfer theorem and is reported as a build-stopping failure.
    """
    rep = Report("derivation-core-transfer", details={"name": act.name})
    if act.field.characteristic() != 0:
        rep.status = ERROR
        rep.details["reason"] = "transfer check is a characteristic-zero statement"
        return rep
    alg = act.alg
    props = {}
    props["semiprime"] = is_semiprime(alg, ideal)
    props["prime"] = is_prime(alg, ideal)
    try:
        props["completely-prime"] = is_completely_prime(alg, ideal)
    except UnsupportedComputation:
        props["completely-prime"] = None
    c = lie_core(act, ideal)
    rep.details["input"] = dict(props)
    rep.details["core-dim"] = c.dim
    for prop, holds in props.items():
        if not holds:
            continue
        if prop == "semiprime":
            ok = is_semiprime(alg, c)
        elif prop == "prime":
            ok = is_prime(alg, c)
        else:
            try:
                ok = is_completely_prime(alg, c)
            except UnsupportedComputation:
                continue
        if not ok:
            rep.fail({"property": prop})
    return rep


# -- divided-power indices and truncated series ---------------------------------

def indices_up_to(nvars, degree):
    """All exponent multi-indices of total degree <= degree, graded lex order."""
    out = []
    for total in range(degree + 1):
        out.extend(_compositions(nvars, total))
    return out


def _compositions(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(nvars - 1, total - head):
            yield (head,) + rest


def monomial_cmp(n, m):
    """Graded lexicographic order: -1, 0 or 1."""
    sn, sm = sum(n), sum(m)
    if sn != sm:
        return -1 if sn < sm else 1
    if n == m:
        return 0
    return -1 if n < m else 1


def pbw_comul(n, trunc):
    """All splittings r + s = n of a divided-power index, coefficient one."""
    if sum(n) > trunc:
        raise ValueError("index degree exceeds the truncation")
    ranges = [range(k + 1) for k in n]
    out = []
    for r in itertools.product(*ranges):
        s = tuple(k - rk for k, rk in zip(n, r))
        out.append((tuple(r), s))
    return out


class AlgebraRing:
    """Coefficient adapter: a finite-dimensional algebra (vectors as values)."""

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg
        self.field = alg.field
        self.zero = tuple(self.field.zero for _ in range(alg.dim))
        self.one = tuple(alg.unit)

    def add(self, a, b):
        F = self.field
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(self.alg.multiply(list(a), list(b)))

    def neg(self, a):
        F = self.field
        return tuple(F.neg(x) for x in a)

    def is_zero(self, a):
        F = self.field
        return all(F.is_zero(x) for x in a)

    def render(self, a):
        F = self.field
        return [F.render(x) for x in a]


class TruncatedSeries:
    """Power series support truncated at a total degree.

    Coefficients live in a Field or an AlgebraRing; keys are exponent
    tuples.  Zero coefficients are never stored.
    """

    __slots__ = ("ring", "nvars", "trunc", "coeffs")

    def __init__(self, ring, nvars, trunc, coeffs=None):
        self.ring = ring
        self.nvars = nvars
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for key, val in coeffs.items():
                key = tuple(key)
                if len(key) != nvars or sum(key) > trunc:
                    raise ValueError(f"bad index {key} for truncation {trunc}")
                if not ring.is_zero(val):
                    self.coeffs[key] = val

    @classmethod
    def constant(cls, ring, nvars, trunc, value):
        zero_key = (0,) * nvars
        return cls(ring, nvars, trunc, {zero_key: value})

    def __add__(self, other):
        self._match(other)
        out = dict(self.coeffs)
        R = self.ring
        for key, val in other.coeffs.items():
            acc = R.add(out.get(key, R.zero), val)
            if R.is_zero(acc):
                out.pop(key, None)
            else:
                out[key] = acc
        return TruncatedSeries(self.ring, self.nvars, self.trunc, out)

    def __neg__(self):
        R = self.ring
        return TruncatedSeries(self.ring, self.nvars, self.trunc,
                               {k: R.neg(v) for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._match(other)
        R = self.ring
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                if sum(key) > self.trunc:
                    continue
                prod = R.mul(v1, v2)
                if R.is_zero(prod):
                    continue
                acc = R.add(out.get(key, R.zero), prod)
                if R.is_zero(acc):
                    out.pop(key, None)
                else:
                    out[key] = acc
        return TruncatedSeries(self.ring, self.nvars, self.trunc, out)

    def power(self, k):
        out = TruncatedSeries.constant(self.ring, self.nvars, self.trunc, self.ring.one)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.nvars == other.nvars
                and self.trunc == other.trunc and self.coeffs == other.coeffs)

    def _match(self, other):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("series shape mismatch")

    def render(self):
        parts = []
        for key in sorted(self.coeffs, key=lambda k: (sum(k), tuple(-x for x in k))):
            mono = " ".join(f"X{i+1}^{e}" for i, e in enumerate(key) if e)
            coeff = self.ring.render(self.coeffs[key])
            parts.append(f"{coeff} * {mono}" if mono else f"{coeff}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncatedSeries({self.render()})"


def lowest_coefficient(s: TruncatedSeries):
    """(index, coefficient) at the graded-lex minimal supported index."""
    if s.is_zero():
        raise ValueError("lowest coefficient of the zero series")
    best = None
    for key in s.coeffs:
        if best is None or monomial_cmp(key, best) < 0:
            best = key
    return best, s.coeffs[best]


# -- functionals on the divided-power basis --------------------------------------

def check_series_size(nvars, trunc):
    """Refuse series with more than SERIES_MONOMIAL_CAP monomials."""
    size = comb(nvars + trunc, trunc)
    if size > SERIES_MONOMIAL_CAP:
        raise EnumerationBound(
            f"a series in {nvars} variables truncated at degree {trunc} has "
            f"{size} monomials, above the cap {SERIES_MONOMIAL_CAP} "
            f"(SERIES_MONOMIAL_CAP)")


def check_truncation(field: Field, trunc):
    p = field.characteristic()
    if p and trunc >= p:
        raise ValueError(
            f"truncation {trunc} needs {trunc}! invertible; over F_{p} the "
            f"divided powers require degree < {p}")


def series_iso_phi(values, nvars, trunc, ring) -> TruncatedSeries:
    """The functional-to-series isomorphism: coefficients are the values."""
    return TruncatedSeries(ring, nvars, trunc, dict(values))


def conv_mult_functionals(f, g, nvars, trunc, ring):
    """Convolution against the divided-power coproduct, degree by degree."""
    out = {}
    R = ring
    for n in indices_up_to(nvars, trunc):
        acc = R.zero
        for r, s in pbw_comul(n, trunc):
            fr = f.get(r)
            gs = g.get(s)
            if fr is None or gs is None:
                continue
            acc = R.add(acc, R.mul(fr, gs))
        if not R.is_zero(acc):
            out[n] = acc
    return out


def counit_functional(field: Field, nvars, trunc):
    """The convolution unit: value one at the zero index."""
    return {(0,) * nvars: field.one}


def algebra_map_functional(field: Field, nvars, trunc, gen_values):
    """The multiplicative functional with prescribed values on degree one.

    On a divided-power index the value is the product of generator values
    over the factorial of the index, so all factorials below the truncation
    must be invertible (guarded), and the series size is capped
    (:func:`check_series_size`).
    """
    check_truncation(field, trunc)
    check_series_size(nvars, trunc)
    F = field
    vals = {}
    for n in indices_up_to(nvars, trunc):
        acc = F.one
        for e, c in zip(n, gen_values):
            num = F.one
            for _ in range(e):
                num = F.mul(num, F.parse(c))
            fact = 1
            for t in range(2, e + 1):
                fact *= t
            acc = F.mul(acc, F.mul(num, F.inv(F.from_int(fact))))
        if not F.is_zero(acc):
            vals[n] = acc
    return vals


def phi_multiplicativity_report(field: Field, nvars, trunc, pairs) -> Report:
    """phi(f * g) = phi(f) phi(g) up to the truncation, for given pairs;
    refuses series above SERIES_MONOMIAL_CAP monomials."""
    check_series_size(nvars, trunc)
    rep = Report("series-iso-multiplicative",
                 details={"nvars": nvars, "trunc": trunc, "pairs": len(pairs)})
    for idx, (f, g) in enumerate(pairs):
        conv = conv_mult_functionals(f, g, nvars, trunc, field)
        lhs = series_iso_phi(conv, nvars, trunc, field)
        rhs = series_iso_phi(f, nvars, trunc, field) * \
            series_iso_phi(g, nvars, trunc, field)
        if lhs != rhs:
            rep.fail({"pair": idx})
    return rep


def convolution_power(f, k, nvars, trunc, ring):
    out = {(0,) * nvars: ring.one}
    for _ in range(k):
        out = conv_mult_functionals(out, f, nvars, trunc, ring)
    return out


# Monomials of total degree <= trunc in nvars variables, C(nvars + trunc,
# trunc), that one series may carry: series-phi takes 1.2 s at 495, 4-6 s
# at 1,287, 8-10 s at 1,820 and 21-24 s at 3,003 (fresh process; Python
# 3.11, one core of a 2-vCPU VM).
SERIES_MONOMIAL_CAP = 2_000
CHARP_DEMO_MAX_PRIME = 101


def charp_grouplike_demo(p: int) -> Report:
    """In characteristic p the canonical multiplicative functional has
    p-th convolution power equal to the counit, so its difference from the
    counit is nilpotent: a nonzero nilpotent in the dual.

    The cost grows faster than p**3 (2 s at p = 101, 135 s at p = 401;
    Python 3.11, one core), so primes above CHARP_DEMO_MAX_PRIME are
    refused."""
    if p > CHARP_DEMO_MAX_PRIME:
        raise EnumerationBound(f"charp-demo: prime {p} exceeds the cap "
                               f"{CHARP_DEMO_MAX_PRIME}")
    rep = Report("charp-grouplike", details={"p": p})
    field = GF(p)
    trunc = p - 1
    f = algebra_map_functional(field, 1, trunc, [1])
    eps = counit_functional(field, 1, trunc)
    fp = convolution_power(f, p, 1, trunc, field)
    if fp != eps:
        rep.fail({"identity": "p-th-power-is-counit", "got": sorted(fp)})
    # (f - eps) as a functional
    diff = {}
    for key in set(f) | set(eps):
        v = field.sub(f.get(key, field.zero), eps.get(key, field.zero))
        if not field.is_zero(v):
            diff[key] = v
    if not diff:
        rep.details["difference"] = "zero"
        return rep
    dp = convolution_power(diff, p, 1, trunc, field)
    if dp:
        rep.fail({"identity": "difference-p-nilpotent", "support": sorted(dp)})
    series = series_iso_phi(diff, 1, trunc, field)
    if series.power(p).coeffs:
        rep.fail({"identity": "series-power-vanishes"})
    rep.details["nilpotent-support"] = sorted(diff)
    return rep
