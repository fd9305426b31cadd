"""Differential tests: the convolution identity batteries against their
dense routes.

``embedding_report``, ``check_intertwining``, ``identity_report`` and
``check_dotinv`` compare both sides of every identity column by column, as
canonical sparse dicts.  The dense per-basis loops they replaced (whole
``algebra.multiply`` products and dense ``vec_mul``s) are kept here as oracles,
and both routes must give the same reports, witnesses in the same order,
on every bundled action read over QQ, GF(2), GF(3) and GF(5), and on
inputs with one perturbed operator entry, where the identities fail.
"""

import random

import pytest

from hopfact import convolution
from hopfact.action import ModuleAlgebraAction, hit_action, invariants_of
from hopfact.convolution import ConvolutionAlgebra
from hopfact.hopf import dual_hopf, is_cocommutative, verify_algebra
from hopfact.linalg import GF, QQ, Matrix, apply_combination
from hopfact.report import Report
from hopfact.workspace import load_algebra, load_hopf
from test_merged_helpers import all_actions

FIELDS = [QQ, GF(2), GF(3), GF(5)]


# -- the dense batteries, as oracles ---------------------------------------------

def embedding_report_oracle(conv):
    rep = Report("embeddings", details={"fixture": conv.action.name})
    A, H = conv.alg, conv.hopf
    B = conv.algebra
    iota, dl = conv.iota_matrix.vec_mul, conv.del_matrix.vec_mul
    ustar = conv.ustar_matrix.vec_mul
    if iota(A.unit) != B.unit:
        rep.fail({"map": "iota", "identity": "unit"})
    if dl(A.unit) != B.unit:
        rep.fail({"map": "del", "identity": "unit"})
    eps = list(H.counit)
    if ustar(eps) != B.unit:
        rep.fail({"map": "ustar", "identity": "unit"})
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.basis_product(i, j)
            for tag, emb in (("iota", iota), ("del", dl)):
                lhs = emb(prod)
                rhs = B.multiply(emb(A.basis_vector(i)), emb(A.basis_vector(j)))
                if lhs != rhs:
                    rep.fail({"map": tag, "pair": [i, j]})
    nH = H.dim
    dual = dual_hopf(H).alg
    for i in range(nH):
        fi = dual.basis_vector(i)
        for j in range(nH):
            lhs = ustar(dual.basis_product(i, j))
            rhs = B.multiply(ustar(fi), ustar(dual.basis_vector(j)))
            if lhs != rhs:
                rep.fail({"map": "ustar", "pair": [i, j]})
    for i in range(A.dim):
        a = iota(A.basis_vector(i))
        for j in range(nH):
            f = ustar(dual.basis_vector(j))
            if B.multiply(a, f) != B.multiply(f, a):
                rep.fail({"identity": "iota-ustar-commute", "pair": [i, j]})
    return rep


def check_intertwining_oracle(conv):
    rep = Report("intertwining", details={"fixture": conv.action.name})
    A, H = conv.alg, conv.hopf
    F = conv.field
    nB = conv.dim
    mul, phi, psi = conv.algebra.multiply, conv.phi_matrix.vec_mul, conv.psi_matrix.vec_mul
    basis = [[F.one if t == r else F.zero for t in range(nB)] for r in range(nB)]
    for i in range(A.dim):
        a = A.basis_vector(i)
        ia, da = conv.iota_matrix.vec_mul(a), conv.del_matrix.vec_mul(a)
        for r, b in enumerate(basis):
            lhs = phi(mul(ia, b))
            rhs = mul(da, phi(b))
            if lhs != rhs:
                rep.fail({"identity": "phi-iota", "a": i, "b": r})
            lhs2 = psi(mul(da, b))
            rhs2 = mul(ia, psi(b))
            if lhs2 != rhs2:
                rep.fail({"identity": "psi-del", "a": i, "b": r})
    for hidx in range(H.dim):
        h = [F.one if t == hidx else F.zero for t in range(H.dim)]
        for r, b in enumerate(basis):
            lhs = phi(apply_combination(h, conv.dot_operators, b))
            rhs = apply_combination(h, conv.rh_operators, phi(b))
            if lhs != rhs:
                rep.fail({"identity": "phi-exchanges-actions", "h": hidx, "b": r})
            lhs2 = apply_combination(h, conv.dot_operators, psi(b))
            rhs2 = psi(apply_combination(h, conv.rh_operators, b))
            if lhs2 != rhs2:
                rep.fail({"identity": "psi-exchanges-actions", "h": hidx, "b": r})
    return rep


def identity_report_oracle(conv):
    rep = Report("identity-suite", details={"fixture": conv.action.name})
    F = conv.field
    A, H = conv.alg, conv.hopf
    nA, nH, nB = A.dim, H.dim, conv.dim
    base = verify_algebra(conv.algebra)
    if not base.ok:
        rep.fail({"identity": "convolution-associativity"})
        rep.witnesses.extend(base.witnesses[:3])

    emb = embedding_report_oracle(conv)
    if not emb.ok:
        rep.fail({"identity": "embeddings"})
        rep.witnesses.extend(emb.witnesses[:3])

    hit = hit_action(H)
    for i in range(nH):
        h = [F.one if t == i else F.zero for t in range(nH)]
        for p in range(nH):
            for q in range(nA):
                b = [F.one if t == conv.index(p, q) else F.zero for t in range(nB)]
                lhs = apply_combination(h, conv.rh_operators, b)
                rhs = [F.zero] * nB
                for l in range(nH):
                    c = hit.tensor[i][p][l]
                    if not F.is_zero(c):
                        rhs[conv.index(l, q)] = c
                if lhs != rhs:
                    rep.fail({"identity": "translation-splits", "h": i, "basis": [p, q]})
                lhs = apply_combination(h, conv.dot_operators, b)
                rhs = [F.zero] * nB
                for (u, v, c) in H.comul_sparse[i]:
                    for m in range(nA):
                        t1 = conv.action.tensor[u][q][m]
                        if F.is_zero(t1):
                            continue
                        for l in range(nH):
                            t2 = hit.tensor[v][p][l]
                            if not F.is_zero(t2):
                                idx = conv.index(l, m)
                                rhs[idx] = F.add(rhs[idx], F.mul(c, F.mul(t1, t2)))
                if lhs != rhs:
                    rep.fail({"identity": "twist-splits", "h": i, "basis": [p, q]})

    inter = check_intertwining_oracle(conv)
    if not inter.ok:
        rep.fail({"identity": "intertwining"})
        rep.witnesses.extend(inter.witnesses[:3])

    ident = Matrix.identity(F, nB)
    if conv.phi_matrix.mat_mul(conv.psi_matrix) != ident:
        rep.fail({"identity": "phi-psi-inverse"})
    if conv.psi_matrix.mat_mul(conv.phi_matrix) != ident:
        rep.fail({"identity": "psi-phi-inverse"})
    unit = conv.algebra.unit
    if conv.phi_matrix.vec_mul(unit) != unit:
        rep.fail({"identity": "phi-fixes-unit"})
    for j in range(nH):
        f = [F.one if t == j else F.zero for t in range(nH)]
        uf = conv.ustar_matrix.vec_mul(f)
        if conv.phi_matrix.vec_mul(uf) != uf:
            rep.fail({"identity": "phi-fixes-dual", "f": j})

    if conv.phi_matrix.mat_mul(conv.iota_matrix) != conv.del_matrix:
        rep.fail({"identity": "phi-iota-is-del"})

    inv_rh = invariants_of(conv.rh_operators, H.counit)
    if inv_rh != conv.iota_image:
        rep.fail({"identity": "translation-invariants",
                  "got-dim": inv_rh.dim, "want-dim": conv.iota_image.dim})
    return rep


def check_dotinv_oracle(conv):
    rep = Report("twist-multiplicativity", details={"fixture": conv.action.name})
    F = conv.field
    nB = conv.dim
    cocomm = is_cocommutative(conv.hopf)
    rep.details["cocommutative"] = cocomm
    witness = None
    phicols = [conv.phi_matrix.vec_mul([F.one if t == r else F.zero
                                        for t in range(nB)]) for r in range(nB)]
    B = conv.algebra
    for i in range(nB):
        for j in range(nB):
            lhs = conv.phi_matrix.vec_mul(B.basis_product(i, j))
            rhs = B.multiply(phicols[i], phicols[j])
            if lhs != rhs:
                witness = {"pair": [i, j]}
                break
        if witness:
            break
    rep.details["multiplicative"] = witness is None
    if witness:
        rep.witnesses.append(witness)
    if cocomm and witness is not None:
        rep.status = "fail"

    inv_dot = invariants_of(conv.dot_operators, conv.hopf.counit)
    rep.details["twist-invariants-dim"] = inv_dot.dim
    rep.details["twist-invariants-match"] = (inv_dot == conv.psi_iota_image)
    if cocomm and not rep.details["twist-invariants-match"]:
        rep.status = "fail"
        rep.witnesses.append({"identity": "twist-invariants"})
    inv_rh = invariants_of(conv.rh_operators, conv.hopf.counit)
    if inv_rh != conv.iota_image:
        rep.status = "fail"
        rep.witnesses.append({"identity": "translation-invariants"})
    return rep


BATTERIES = [
    (convolution.embedding_report, embedding_report_oracle),
    (convolution.check_intertwining, check_intertwining_oracle),
    (convolution.identity_report, identity_report_oracle),
    (convolution.check_dotinv, check_dotinv_oracle),
]


# -- inputs ------------------------------------------------------------------------

def refielded(act, field):
    """The action ``act`` read from its JSON over ``field``, or None when a
    scalar has no value there (a denominator divisible by p).  The result
    need not be an action: the batteries report what fails."""
    def with_field(obj):
        return {**obj, "field": field.to_json()}
    try:
        return ModuleAlgebraAction(load_hopf(with_field(act.hopf.to_json())),
                                   load_algebra(with_field(act.alg.to_json())),
                                   act.to_json()["tensor"], name=act.name)
    except ValueError:
        return None


def actions_over_fields(ws):
    """The bundled actions, and two built in test_merged_helpers (one with
    coproduct coefficients other than 1), read over every field."""
    out = []
    for name, act in all_actions(ws):
        for field in FIELDS:
            new = refielded(act, field)
            if new is not None:
                out.append((f"{name}/{field!r}", new))
    return out


def reports(conv, battery):
    """The report as JSON, or the error: ``identity_report`` refuses an H
    whose hit action fails verification (a Hopf algebra read over F_p need
    not be one)."""
    try:
        return battery(conv).to_json_dict(with_timing=False)
    except ValueError as exc:
        return {"status": "raised", "witnesses": [], "error": str(exc)}


# -- the differential tests ------------------------------------------------------

def test_batteries_match_dense_loops_on_every_field(ws):
    cases = actions_over_fields(ws)
    assert {repr(act.field) for _, act in cases} == {repr(f) for f in FIELDS}
    failing = 0
    for name, act in cases:
        for new, oracle in BATTERIES:
            want = reports(ConvolutionAlgebra(act), oracle)
            assert reports(ConvolutionAlgebra(act), new) == want, (name, new.__name__)
            failing += want["status"] != "pass"
    # reading a Q fixture over F_p breaks some identities, so witnesses are
    # compared too, not only passes
    assert failing > 0


def perturbed(m, rng):
    """A copy of ``m`` with one entry raised by 1."""
    F = m.field
    rows = [list(r) for r in m.data]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][j] = F.add(rows[i][j], F.one)
    return Matrix(F, m.nrows, m.ncols, rows)


def perturbations(conv, rng):
    """(name, value) for one perturbed entry of each operator the batteries
    read, to be set in the instance __dict__ over the cached property."""
    h = rng.randrange(conv.hopf.dim)
    out = [(key, perturbed(getattr(conv, key), rng))
           for key in ("phi_matrix", "psi_matrix", "del_matrix")]
    for key in ("dot_operators", "rh_operators"):
        ops = list(getattr(conv, key))
        ops[h] = perturbed(ops[h], rng)
        out.append((key, ops))
    return out


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=repr)
def test_batteries_match_dense_loops_on_perturbed_operators(ws, field):
    several = set()
    for name, act in actions_over_fields(ws):
        if act.field != field:
            continue
        rng = random.Random(f"perturb/{name}")
        for key, value in perturbations(ConvolutionAlgebra(act), rng):
            for new, oracle in BATTERIES:
                got, want = ConvolutionAlgebra(act), ConvolutionAlgebra(act)
                got.__dict__[key] = want.__dict__[key] = value
                want = reports(want, oracle)
                assert reports(got, new) == want, (name, key, new.__name__)
                if len(want["witnesses"]) > 1:
                    several.add(key)
    assert several == {"phi_matrix", "psi_matrix", "del_matrix", "dot_operators",
                       "rh_operators"}


def test_translation_invariants_are_computed_once(ws, monkeypatch):
    conv = ConvolutionAlgebra(ws.actions["grading-s3"])
    calls = []
    solve = convolution.invariants_of

    def counted(ops, counit):
        calls.append(ops is conv.rh_operators)
        return solve(ops, counit)

    monkeypatch.setattr(convolution, "invariants_of", counted)
    convolution.identity_report(conv)
    convolution.check_dotinv(conv)
    assert calls == [True, False]       # right translation once, then the twist
    assert conv.translation_invariants == conv.iota_image
