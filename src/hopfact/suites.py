"""Acceptance batteries: one function per criterion, shared by CLI and tests.

Each battery returns a Report whose status encodes the exit contract:
``pass`` (or ``counterexample`` for failures the theory predicts in positive
characteristic) means the corpus agrees with the theorems; ``fail`` means a
genuine contradiction.  Timing in milliseconds is recorded on every report.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .linalg import QQ, GF, Subspace, subspace_intersect, stable_subspaces
from .hopf import (group_algebra, dual_hopf, sweedler_hopf, tensor_hopf,
                   cyclic_group_table, symmetric_group_table, verify_hopf,
                   is_cocommutative, is_group_basis)
from .convolution import (ConvolutionAlgebra, identity_report, check_dotinv,
                          check_dotinv_lattice, stability_scan)
from .ideals import (Ideal, core, core_via_psi, group_core_by_intersection,
                     spectrum, strata, semiprime_core_check,
                     reformulation_check, verify_strat_bijection,
                     UnsupportedComputation)
from .lie import (lie_core, lie_semiprime_transfer_check, indices_up_to,
                  pbw_comul, phi_multiplicativity_report, charp_grouplike_demo,
                  TruncatedSeries, AlgebraRing, lowest_coefficient, monomial_cmp)
from .report import Report, PASS, FAIL, COUNTEREXAMPLE
from .workspace import load_bundled


def _timed(fn):
    def wrapper(ws=None, **kw):
        t0 = time.perf_counter()
        rep = fn(ws if ws is not None else load_bundled(verify=False), **kw)
        rep.timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        return rep
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _test_ideals(ws, alg):
    """Named ideals of the algebra plus the trivial ones."""
    out = {"zero": Ideal.zero(alg), "full": Ideal.full(alg)}
    for name, ideal in ws.ideals.items():
        if ideal.alg is alg:
            out[name] = ideal
    return out


@_timed
def criterion_axioms(ws) -> Report:
    """Hopf axioms on the five stock algebras and all their tensor squares
    over the three base fields."""
    rep = Report("acceptance-1-axioms")
    count = 0
    for field in (QQ, GF(2), GF(3)):
        base = [group_algebra(cyclic_group_table(2), field, name="kC2"),
                group_algebra(symmetric_group_table(3), field, name="kS3"),
                sweedler_hopf(field)]
        base += [dual_hopf(base[0]), dual_hopf(base[1])]
        hs = list(base)
        for i in range(len(base)):
            for j in range(i, len(base)):
                hs.append(tensor_hopf(base[i], base[j]))
        for h in hs:
            count += 1
            sub = verify_hopf(h)
            if not sub.ok:
                rep.fail({"hopf": h.name, "field": repr(field)})
                rep.witnesses.extend(sub.witnesses[:2])
    rep.details["verified"] = count
    return rep


@_timed
def criterion_identities(ws) -> Report:
    """The convolution identity battery on every bundled action fixture."""
    rep = Report("acceptance-2-identities")
    for name in sorted(ws.actions):
        conv = ConvolutionAlgebra(ws.actions[name])
        sub = identity_report(conv)
        rep.details[name] = sub.status
        if not sub.ok:
            rep.fail({"fixture": name})
            rep.witnesses.extend(sub.witnesses[:2])
    return rep


@_timed
def criterion_dotinv(ws) -> Report:
    """Twist multiplicativity exactly on the cocommutative fixtures, with a
    witness on each non-cocommutative one, and the invariant identities."""
    rep = Report("acceptance-3-dotinv")
    for name in sorted(ws.actions):
        act = ws.actions[name]
        sub = check_dotinv(ConvolutionAlgebra(act))
        cocomm = sub.details["cocommutative"]
        mult = sub.details["multiplicative"]
        rep.details[name] = {"cocommutative": cocomm, "multiplicative": mult}
        if not sub.ok:
            rep.fail({"fixture": name})
        if mult != cocomm:
            rep.fail({"fixture": name, "reason": "multiplicativity does not "
                      "match cocommutativity", "witness": sub.witnesses[:1]})
    return rep


@_timed
def criterion_lattice(ws) -> Report:
    """Exhaustive three-corner ideal bijection on the F_2 fixtures."""
    rep = Report("acceptance-4-ideal-lattice")
    for name in sorted(ws.actions):
        act = ws.actions[name]
        if act.field.characteristic() != 2:
            continue
        conv = ConvolutionAlgebra(act)
        if conv.dim > 8:
            continue
        sub = check_dotinv_lattice(conv, bound=4096)
        rep.details[name] = {k: sub.details[k]
                             for k in ("ideals-of-A", "h-ideals-of-B")}
        if not sub.ok:
            rep.fail({"fixture": name})
            rep.witnesses.extend(sub.witnesses[:2])
    if not rep.details:
        rep.fail({"reason": "no F_2 fixtures within the enumeration bound"})
    return rep


@_timed
def criterion_stability(ws) -> Report:
    """Exhaustive stability scans: stable subspaces are exactly W (x) H*."""
    rep = Report("acceptance-5-stability")
    for name in sorted(ws.actions):
        act = ws.actions[name]
        if act.field.characteristic() != 2:
            continue
        conv = ConvolutionAlgebra(act)
        if conv.dim > 8:
            continue
        sub = stability_scan(conv, bound=4096)
        rep.details[name] = sub.details.get("stable-count")
        if not sub.ok:
            rep.fail({"fixture": name})
            rep.witnesses.extend(sub.witnesses[:2])
    if not rep.details:
        rep.fail({"reason": "no F_2 fixtures within the enumeration bound"})
    return rep


@_timed
def criterion_core_oracles(ws) -> Report:
    """The two core routes agree on the whole corpus; the group-translate
    intersection gives a third route on group-algebra fixtures."""
    rep = Report("acceptance-6-core-oracles")
    pairs = 0
    for name in sorted(ws.actions):
        act = ws.actions[name]
        for iname, ideal in sorted(_test_ideals(ws, act.alg).items()):
            pairs += 1
            c1 = core(act, ideal)
            c2 = core_via_psi(act, ideal)
            if c1.space != c2.space:
                rep.fail({"fixture": name, "ideal": iname,
                          "direct": c1.dim, "via-twist": c2.dim})
            if is_group_basis(act.hopf):
                c3 = group_core_by_intersection(act, ideal)
                if c1.space != c3.space:
                    rep.fail({"fixture": name, "ideal": iname,
                              "reason": "translate intersection differs"})
    rep.details["pairs"] = pairs
    return rep


def _semiprime_ideals(alg):
    """All intersections of prime subsets (with the unit ideal)."""
    entries = spectrum(alg)
    out = {Subspace.full(alg.field, alg.dim).rows: Ideal.full(alg)}
    for r in range(1, len(entries) + 1):
        for subset in itertools.combinations(entries, r):
            space = subset[0].prime.space
            for e in subset[1:]:
                space = subspace_intersect(space, e.prime.space)
            out.setdefault(space.rows, Ideal(alg, space, check=False))
    return list(out.values())


@_timed
def criterion_theorem2(ws) -> Report:
    """Semiprimeness of cores in characteristic zero, the characteristic-2
    counterexample, and the radical-inclusion reformulation."""
    rep = Report("acceptance-7-semiprime-cores")
    checked = 0
    for name in sorted(ws.actions):
        act = ws.actions[name]
        if act.field.characteristic() != 0 or not is_cocommutative(act.hopf):
            continue
        for ideal in _semiprime_ideals(act.alg):
            checked += 1
            sub = semiprime_core_check(act, ideal)
            if sub.status != PASS:
                rep.fail({"fixture": name, "ideal-dim": ideal.dim,
                          "status": sub.status})
        zero = Ideal.zero(act.alg)
        for ideal in (_semiprime_ideals(act.alg) + [zero]):
            ref = reformulation_check(act, ideal)
            if ref.status == FAIL:
                rep.fail({"fixture": name, "check": "radical-inclusion"})
    rep.details["char0-checks"] = checked

    grading2 = ws.actions["grading2"]
    aug2 = ws.ideals["aug2"]
    sub = semiprime_core_check(grading2, aug2)
    rep.details["char2-semiprime-core"] = sub.status
    if sub.status != COUNTEREXAMPLE:
        rep.fail({"fixture": "grading2", "expected": "counterexample",
                  "got": sub.status})
    core0 = core(grading2, aug2)
    if core0.dim != 0:
        rep.fail({"fixture": "grading2", "reason": "core of augmentation "
                  "ideal is not zero"})
    ref = reformulation_check(grading2, Ideal.zero(grading2.alg))
    rep.details["char2-radical-inclusion"] = ref.status
    if ref.status != COUNTEREXAMPLE:
        rep.fail({"fixture": "grading2", "check": "radical-inclusion",
                  "expected": "counterexample", "got": ref.status})
    return rep


@_timed
def criterion_lie(ws) -> Report:
    """Derivation cores preserve primeness data in characteristic zero and
    are maximal against exhaustive stable-ideal enumeration over F_2, F_3."""
    rep = Report("acceptance-8-derivation-cores")
    transfers = 0
    for name in sorted(ws.lie_actions):
        lact = ws.lie_actions[name]
        ideals = _test_ideals(ws, lact.alg)
        if lact.field.characteristic() == 0:
            for iname, ideal in sorted(ideals.items()):
                transfers += 1
                sub = lie_semiprime_transfer_check(lact, ideal)
                if not sub.ok:
                    rep.fail({"fixture": name, "ideal": iname})
                    rep.witnesses.extend(sub.witnesses[:2])
        else:
            lattice = stable_subspaces(lact.field, lact.alg.dim,
                                       lact.alg.generator_operators + lact.derivations,
                                       bound=4096)
            rep.details[f"{name}-stable-ideals"] = len(lattice)
            for iname, ideal in sorted(ideals.items()):
                c = lie_core(lact, ideal)
                for stable in lattice:
                    if stable.le(ideal.space) and not stable.le(c.space):
                        rep.fail({"fixture": name, "ideal": iname,
                                  "reason": "enumerated stable ideal escapes "
                                  "the computed core"})
        # fixed point: one more refinement step is the identity
        for iname, ideal in sorted(ideals.items()):
            c = lie_core(lact, ideal)
            again = lie_core(lact, c)
            if again.space != c.space:
                rep.fail({"fixture": name, "ideal": iname,
                          "reason": "core is not a fixed point"})
    rep.details["char0-transfers"] = transfers
    return rep


@_timed
def criterion_pbw(ws) -> Report:
    """Divided-power coproduct, series-isomorphism multiplicativity, the
    characteristic-p nilpotent demos, and the lowest-coefficient law."""
    rep = Report("acceptance-9-pbw")
    # coproduct splittings against a brute-force pairing scan
    for nvars in (1, 2):
        all_idx = indices_up_to(nvars, 6)
        for n in all_idx:
            got = sorted(pbw_comul(n, 6))
            brute = sorted((r, s) for r in all_idx for s in all_idx
                           if tuple(a + b for a, b in zip(r, s)) == n)
            if got != brute:
                rep.fail({"check": "coproduct-splittings", "index": n})
    # multiplicativity: exhaustive delta-functional basis in degree <= 2
    for nvars in (1, 2):
        deg2 = indices_up_to(nvars, 2)
        basis = [{idx: QQ.one} for idx in deg2]
        pairs = [(f, g) for f in basis for g in basis]
        sub = phi_multiplicativity_report(QQ, nvars, 6, pairs)
        if not sub.ok:
            rep.fail({"check": "iso-multiplicative-basis", "nvars": nvars})
    # and on 100 seeded random functional pairs
    rng = random.Random(20260810)
    idx6 = indices_up_to(2, 6)
    pairs = []
    for _ in range(100):
        f = {idx: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for idx in idx6 if rng.random() < 0.4}
        g = {idx: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for idx in idx6 if rng.random() < 0.4}
        f = {k: v for k, v in f.items() if v}
        g = {k: v for k, v in g.items() if v}
        pairs.append((f, g))
    sub = phi_multiplicativity_report(QQ, 2, 6, pairs)
    rep.details["random-pairs"] = len(pairs)
    if not sub.ok:
        rep.fail({"check": "iso-multiplicative-random"})
    # characteristic-p nilpotent functionals
    for p in (2, 3, 5):
        demo = charp_grouplike_demo(p)
        rep.details[f"charp-{p}"] = demo.status
        if not demo.ok:
            rep.fail({"check": "charp-demo", "p": p})
    # lowest-coefficient product law over the split coefficient ring
    split2 = ws.algebras["qxq"]
    ring2 = AlgebraRing(split2)
    instances = 0
    tries = 0
    while instances < 50 and tries < 5000:
        tries += 1
        s = _random_series(rng, ring2, 2, 5)
        t = _random_series(rng, ring2, 2, 5)
        if s.is_zero() or t.is_zero():
            continue
        smin_i, smin_c = lowest_coefficient(s)
        tmin_i, tmin_c = lowest_coefficient(t)
        if sum(smin_i) + sum(tmin_i) > 5:
            continue
        r_elem = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        mid = ring2.mul(ring2.mul(smin_c, r_elem), tmin_c)
        if ring2.is_zero(mid):
            continue
        u = _random_series(rng, ring2, 2, 5, min_degree=1) + \
            TruncatedSeries.constant(ring2, 2, 5, r_elem)
        prod = s * u * t
        instances += 1
        if prod.is_zero():
            rep.fail({"check": "lowest-coefficient", "reason": "product vanished"})
            continue
        pmin_i, pmin_c = lowest_coefficient(prod)
        want_i = tuple(a + b for a, b in zip(smin_i, tmin_i))
        if pmin_i != want_i or pmin_c != mid:
            rep.fail({"check": "lowest-coefficient", "instance": instances})
    rep.details["lowest-coefficient-instances"] = instances
    if instances < 50:
        rep.fail({"check": "lowest-coefficient", "reason": "not enough instances"})
    # order axioms on the truncated index set
    idx3 = indices_up_to(2, 3)
    for a in idx3:
        if monomial_cmp((0, 0), a) > 0:
            rep.fail({"check": "order-zero-minimal"})
        for b in idx3:
            for c in idx3:
                if monomial_cmp(a, b) != monomial_cmp(
                        tuple(x + y for x, y in zip(a, c)),
                        tuple(x + y for x, y in zip(b, c))):
                    rep.fail({"check": "order-translation-invariance"})
    return rep


def _random_series(rng, ring, nvars, trunc, min_degree=0):
    coeffs = {}
    for idx in indices_up_to(nvars, trunc):
        if sum(idx) < min_degree:
            continue
        if rng.random() < 0.35:
            val = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            if not ring.is_zero(val):
                coeffs[idx] = val
    return TruncatedSeries(ring, nvars, trunc, coeffs)


@_timed
def criterion_strata(ws) -> Report:
    """Strata partition the spectrum everywhere; the stratum map is
    injective with matching hearts wherever defined; the conjugation
    fixture realizes a fully verified bijection."""
    rep = Report("acceptance-10-strata")
    flagship = verify_strat_bijection(ws.actions["conj"], ws.ideals["zero-m2q"])
    rep.details["conj-verdict"] = flagship.details.get("verdict")
    if flagship.details.get("verdict") != "bijection-verified":
        rep.fail({"fixture": "conj", "verdict": flagship.details.get("verdict")})
        rep.witnesses.extend(flagship.witnesses[:3])
    for name in sorted(ws.actions):
        act = ws.actions[name]
        try:
            entries = spectrum(act.alg)
            fibers = strata(act)
        except UnsupportedComputation:
            rep.details[name] = "spectrum-unsupported"
            continue
        total = sum(len(es) for _, es in fibers)
        keys = [e.prime.space.rows for _, es in fibers for e in es]
        if total != len(entries) or len(set(keys)) != len(entries):
            rep.fail({"fixture": name, "check": "partition"})
        rep.details[name] = {"primes": len(entries), "strata": len(fibers)}
        for base, _ in fibers:
            sub = verify_strat_bijection(act, base)
            if sub.status == FAIL:
                rep.fail({"fixture": name, "base-dim": base.dim,
                          "verdict": sub.details.get("verdict")})
                rep.witnesses.extend(sub.witnesses[:2])
            rep.details[name][f"base-dim-{base.dim}"] = sub.details.get("verdict")
    return rep


CRITERIA = [
    ("axioms", criterion_axioms),
    ("identities", criterion_identities),
    ("dotinv", criterion_dotinv),
    ("ideal-lattice", criterion_lattice),
    ("stability", criterion_stability),
    ("core-oracles", criterion_core_oracles),
    ("semiprime-cores", criterion_theorem2),
    ("derivation-cores", criterion_lie),
    ("pbw", criterion_pbw),
    ("strata", criterion_strata),
]

SUITES = {
    "paper-identities": ["axioms", "identities"],
    "dotinv": ["dotinv", "ideal-lattice", "stability"],
    "theorem2": ["core-oracles", "semiprime-cores", "derivation-cores"],
    "strata": ["strata"],
    "pbw": ["pbw"],
    "all": [name for name, _ in CRITERIA],
}


def run_suite(name, ws=None):
    """Run one named suite; returns the list of criterion reports."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    ws = ws if ws is not None else load_bundled(verify=False)
    table = dict(CRITERIA)
    return [table[c](ws) for c in SUITES[name]]
