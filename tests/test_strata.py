import pytest

from hopfact import ideals
from hopfact.ideals import (Ideal, UnsupportedComputation, spectrum, core,
                            core_via_psi, certify_h_prime, is_prime,
                            quotient_algebra, radical_subspace, strata,
                            stratum_algebra, verify_strat_bijection, induced_action)
from hopfact.action import ModuleAlgebraAction, trivial_action, verify_action
from hopfact.convolution import transport_subspace
from hopfact.hopf import (cyclic_group_table, group_algebra, symmetric_group_table,
                          upper_triangular_algebra)
from hopfact.linalg import GF, QQ, EnumerationBound, Subspace, pull_back, stable_subspaces


def s4_adjoint():
    """kS4 acting on kS4 by conjugation over Q (built here, not bundled)."""
    table = symmetric_group_table(4)
    n = len(table)
    inverse = [row.index(0) for row in table]
    tensor = [[[1 if k == table[table[g][x]][inverse[g]] else 0 for k in range(n)]
               for x in range(n)] for g in range(n)]
    return ModuleAlgebraAction(group_algebra(table, QQ, name="kS4"),
                               group_algebra(table, QQ, name="kS4").alg, tensor,
                               name="s4-adjoint")


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
    algebras of the others (dim 96 and 216) pass DEFAULT_DIM_CAP, which
    is a refusal, not a verdict on the structure."""
    act = s4_adjoint()
    fibers = strata(act)
    assert [base.dim for base, _ in fibers] == [20, 23, 23, 15, 15]
    for base, _ in fibers:
        rep = verify_strat_bijection(act, base)
        if base.dim == 23:
            assert rep.status == "pass", (base.dim, rep.witnesses)
            assert rep.details["verdict"] == "bijection-verified"
        else:
            assert rep.status == "error", (base.dim, rep.witnesses)
            assert rep.details["verdict"] == "refused"
            assert "the cap 64 (DEFAULT_DIM_CAP)" in rep.details["reason"]


def stable_ideals(act):
    """The stratum bases and every action-stable ideal that stable_subspaces
    reaches within its bound (none over Q)."""
    spaces = {base.space: None for base, _ in strata(act)}
    try:
        spaces.update(dict.fromkeys(stable_subspaces(
            act.field, act.alg.dim,
            act.alg.generator_operators + act.generator_operators)))
    except EnumerationBound:
        pass
    return [Ideal(act.alg, space, check=False) for space in spaces]


def test_stratum_routes_match_quotient_oracles(ws):
    """The stratum checks read rad A and the kept spectrum; the quotient
    routes they replaced (the radical of A/I, is_prime, the core of a prime
    that is prime, core_via_psi on a second convolution algebra) are the
    oracles."""
    fields, ideals_seen, twisted_seen = set(), 0, 0
    for name, act in sorted(ws.actions.items()) + [("s4-adjoint", s4_adjoint())]:
        try:
            prime_cores = ideals._prime_cores(act)
        except UnsupportedComputation:
            continue
        fields.add(act.field.characteristic())
        primes = {e.prime.space for e, _ in prime_cores}
        cores = {c.space for _, c in prime_cores}
        rad = radical_subspace(act.alg)
        for ideal in stable_ideals(act):
            q = quotient_algebra(act.alg, ideal.space)[0]
            assert rad.le(ideal.space) == (radical_subspace(q).dim == 0), name
            prime = is_prime(act.alg, ideal)
            assert (ideal.space in primes) == prime, name
            route_a = certify_h_prime(act, ideal).details.get("route") == "core-of-prime"
            assert route_a == (prime and ideal.space in cores), name
            ideals_seen += 1
        for base, stratum in strata(act):
            try:
                sa = ideals._build_stratum_pieces(act, base)
            except EnumerationBound:
                continue       # the convolution algebra passes its cap
            except ValueError:
                continue       # the induced action does not keep the center
            bar = sa.base_action
            for e in stratum:
                pbar = Ideal(bar.alg, Subspace.from_vectors(
                    act.field, bar.alg.dim,
                    [sa.proj.vec_mul(list(r)) for r in e.prime.space.rows]))
                twisted = pull_back(sa.conv.iota_matrix, sa.conv.iota_image,
                                    transport_subspace(sa.conv, pbar.space))
                assert twisted == core_via_psi(bar, pbar).space, name
                twisted_seen += 1
    assert fields == {0, 2, 3}
    assert ideals_seen > 0 and twisted_seen > 0


def test_stratum_algebra_where_the_spectrum_refuses():
    """The trivial action of k = F_2 on the upper triangular 2x2 matrices:
    spectrum(A) refuses (p = 2 <= dim 3, A not commutative), but A/I is F_2
    for I = span(E12, E22), so stratum_algebra's own primality route still
    answers, while verify_strat_bijection names the radical refusal."""
    F2 = GF(2)
    A = upper_triangular_algebra(F2)
    act = trivial_action(group_algebra(cyclic_group_table(1), F2), A)
    ideal = Ideal.generate(A, [[0, 1, 0], [0, 0, 1]])
    assert ideal.dim == 2
    with pytest.raises(UnsupportedComputation):
        spectrum(A)
    sa = stratum_algebra(act, ideal)
    assert sa.algebra.dim == 1
    assert [hp.dim for hp in sa.h_primes] == [0]
    rep = verify_strat_bijection(act, ideal)
    assert rep.status == "error"
    assert "radical" in rep.details["reason"]
