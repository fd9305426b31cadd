import pytest

from hopfact.ideals import (Ideal, spectrum, core, strata, stratum_algebra,
                            verify_strat_bijection, induced_action)
from hopfact.action import verify_action


def test_stratum_algebra_flagship(ws):
    """Conjugation on the 2x2 matrix algebra: the stratum coefficient
    algebra is a split two-dimensional commutative algebra whose two primes
    are swapped by the action, leaving the zero ideal as the only reachable
    H-prime -- matching the one-element stratum."""
    conj = ws.actions["conj"]
    sa = stratum_algebra(conj, ws.ideals["zero-m2q"])
    assert sa.algebra.dim == 2
    assert sa.algebra.is_commutative()
    assert len(sa.entries) == 2
    assert [hp.dim for hp in sa.h_primes] == [0]
    assert sa.stable_primes == []
    assert verify_action(sa.action).status == "pass"


def test_stratum_algebra_trivial_action(ws):
    triv = ws.actions["trivial-m2"]
    sa = stratum_algebra(triv, ws.ideals["zero-m2q"])
    # Z(M2) (x) H* has dimension 2; with a trivial action on the center the
    # translation action alone moves the dual idempotents
    assert sa.algebra.dim == 2
    assert [hp.dim for hp in sa.h_primes] == [0]


def test_stratum_algebra_requires_prime_base(ws):
    grading = ws.actions["grading"]
    with pytest.raises(ValueError):
        stratum_algebra(grading, Ideal.zero(ws.algebras["qc2"]))


def test_strat_bijection_flagship(ws):
    rep = verify_strat_bijection(ws.actions["conj"], ws.ideals["zero-m2q"])
    assert rep.status == "pass"
    assert rep.details["verdict"] == "bijection-verified"
    assert rep.details["stratum-size"] == 1
    assert rep.details["surjective"] is True


def test_strat_bijection_grading(ws):
    # base 0 is not prime for the grading on QC2; injectivity and the heart
    # dimensions still verify
    rep = verify_strat_bijection(ws.actions["grading"],
                                 Ideal.zero(ws.algebras["qc2"]))
    assert rep.status == "pass"
    assert rep.details["verdict"] in ("injective-only", "bijection-verified")
    assert rep.details["stratum-size"] == 2
    assert not any(w.get("check") == "heart-dimension" for w in rep.witnesses)


def test_strat_bijection_char2(ws):
    # the characteristic-2 base is not even semiprime: map undefined
    rep = verify_strat_bijection(ws.actions["grading2"],
                                 Ideal.zero(ws.algebras["f2c2"]))
    assert rep.status == "pass"
    assert rep.details["verdict"] == "undefined-base"


def test_strat_bijection_noncocommutative(ws):
    rep = verify_strat_bijection(ws.actions["grading-s3"],
                                 Ideal.zero(ws.algebras["qs3"]))
    assert rep.status == "pass"
    assert rep.details["verdict"].startswith("undefined")


def test_strat_bijection_swap(ws):
    rep = verify_strat_bijection(ws.actions["swap"],
                                 Ideal.zero(ws.algebras["qxq"]))
    assert rep.status == "pass"
    assert rep.details["stratum-size"] == 2


def test_strata_partition_every_fixture(ws):
    for name, act in sorted(ws.actions.items()):
        entries = spectrum(act.alg)
        fibers = strata(act)
        seen = []
        for base, es in fibers:
            assert act.subspace_stable(base.space)
            for e in es:
                assert core(act, e.prime).space == base.space
                seen.append(e.prime.space.rows)
        assert sorted(seen) == sorted(e.prime.space.rows for e in entries)


def test_strat_bijection_every_base(ws):
    # wherever the map is defined it must be injective with matching hearts
    for name, act in sorted(ws.actions.items()):
        for base, _ in strata(act):
            rep = verify_strat_bijection(act, base)
            assert rep.status == "pass", (name, base.dim, rep.witnesses)


def test_induced_action_requires_stability(ws):
    swap = ws.actions["swap"]
    half = ws.ideals["half"]
    with pytest.raises(ValueError):
        induced_action(swap, half.space)


def test_stratum_algebra_base_field_hopf(ws):
    # H = k: the stratum algebra is just the center and the reachable
    # H-primes are the primes themselves
    from hopfact.hopf import cyclic_group_table, group_algebra
    from hopfact.action import trivial_action
    from hopfact.linalg import QQ
    k = group_algebra(cyclic_group_table(1), QQ)
    act = trivial_action(k, ws.algebras["m2q"])
    sa = stratum_algebra(act, Ideal.zero(ws.algebras["m2q"]))
    assert sa.algebra.dim == 1
    assert [hp.dim for hp in sa.h_primes] == [0]
    assert len(sa.stable_primes) == 1
    rep = verify_strat_bijection(act, Ideal.zero(ws.algebras["m2q"]))
    assert rep.details["verdict"] == "bijection-verified"


def test_s4_adjoint_strata_and_cap_refusals():
    """kS4 acting on kS4 by conjugation over Q (built here, not bundled):
    five strata; the two dim-23 bases verify, and the convolution
    algebras of the others (dim 96 and 216) pass DEFAULT_DIM_CAP."""
    from hopfact.action import ModuleAlgebraAction
    from hopfact.hopf import group_algebra, symmetric_group_table
    from hopfact.linalg import QQ
    table = symmetric_group_table(4)
    n = len(table)
    inverse = [row.index(0) for row in table]
    tensor = [[[1 if k == table[table[g][x]][inverse[g]] else 0 for k in range(n)]
               for x in range(n)] for g in range(n)]
    act = ModuleAlgebraAction(group_algebra(table, QQ, name="kS4"),
                              group_algebra(table, QQ, name="kS4").alg, tensor,
                              name="s4-adjoint")
    fibers = strata(act)
    assert [base.dim for base, _ in fibers] == [20, 23, 23, 15, 15]
    for base, _ in fibers:
        rep = verify_strat_bijection(act, base)
        assert rep.status == "pass", (base.dim, rep.witnesses)
        if base.dim == 23:
            assert rep.details["verdict"] == "bijection-verified"
        else:
            assert rep.details["verdict"] == "undefined-structure"
            assert any("cap 64" in note for note in rep.details["notes"])
