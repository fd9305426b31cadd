from fractions import Fraction

import pytest

from hopfact.linalg import QQ, Matrix, Subspace, is_stable, subspace_count
from hopfact import convolution
from hopfact.hopf import cyclic_group_table, group_algebra, verify_algebra
from hopfact.action import trivial_action
from hopfact.convolution import (ConvolutionAlgebra, ConvElement, identity_report,
                                 embedding_report, check_intertwining,
                                 check_dotinv, check_transport,
                                 check_dotinv_lattice, stability_scan,
                                 transport_subspace, restrict_subspace,
                                 invariant_contract, invariant_extend,
                                 enumerate_h_ideals)


def conv_of(ws, name):
    return ConvolutionAlgebra(ws.actions[name])


def test_dimensions_and_unit(ws):
    conv = conv_of(ws, "swap")
    assert conv.dim == 4
    assert verify_algebra(conv.algebra).status == "pass"
    # unit is the constant-one map 1 (x) eps
    assert conv.one().coords == conv.iota(ws.algebras["qxq"].unit).coords
    assert conv.one().coords == conv.ustar(list(ws.hopfs["qc2"].counit)).coords


def test_degenerate_factors():
    # H = k: the convolution algebra is A itself
    from hopfact.hopf import matrix_algebra
    k = group_algebra(cyclic_group_table(1), QQ)
    a = matrix_algebra(QQ, 2)
    conv = ConvolutionAlgebra(trivial_action(k, a))
    assert conv.dim == 4
    assert conv.algebra.mult == a.mult


def test_trivial_algebra_factor(ws):
    # A = k: the convolution algebra is the dual algebra
    from hopfact.hopf import FiniteAlgebra, dual_hopf
    c2 = ws.hopfs["qc2"]
    kalg = FiniteAlgebra(QQ, 1, [[[1]]], [1], name="k")
    conv = ConvolutionAlgebra(trivial_action(c2, kalg))
    assert conv.algebra.mult == dual_hopf(c2).alg.mult


def test_value_matrix_view(ws):
    conv = conv_of(ws, "swap")
    b = conv.del_embed([1, 0])
    # value table: 1 -> (1,0), g -> (0,1)
    vm = b.value_matrix()
    assert [row[0] for row in vm] == [1, 0]
    assert [row[1] for row in vm] == [0, 1]
    assert vm == [[1, 0], [0, 1]]


def test_embeddings(ws):
    for name in ("swap", "grading2", "conj", "sweedler-act"):
        assert embedding_report(conv_of(ws, name)).status == "pass"


def test_phi_psi_inverse_and_unit(ws):
    conv = conv_of(ws, "swap")
    ident = Matrix.identity(QQ, conv.dim)
    assert conv.phi_matrix.mat_mul(conv.psi_matrix) == ident
    assert conv.phi(conv.one()).coords == conv.one().coords
    # evaluation embedding factors through the twist
    assert conv.phi_matrix.mat_mul(conv.iota_matrix) == conv.del_matrix


def test_phi_iota_is_del_pointwise(ws):
    conv = conv_of(ws, "swap")
    b = conv.phi(conv.iota([1, 0]))
    assert b.coords == conv.del_embed([1, 0]).coords


def test_intertwining_all_fixtures(ws):
    # these identities need no cocommutativity at all
    for name in sorted(ws.actions):
        assert check_intertwining(conv_of(ws, name)).status == "pass", name


def test_identity_battery(ws):
    for name in sorted(ws.actions):
        assert identity_report(conv_of(ws, name)).status == "pass", name


def test_dot_action_examples(ws):
    conv = conv_of(ws, "swap")
    # 1 . b = b on every basis element
    one = [Fraction(1), Fraction(0)]
    for r in range(conv.dim):
        b = ConvElement(conv, [1 if t == r else 0 for t in range(conv.dim)])
        assert conv.dot_act(one, b).coords == b.coords
    # g . ((1,0) (x) eps) = (0,1) (x) eps
    g = [Fraction(0), Fraction(1)]
    b = conv.iota([1, 0])
    assert conv.dot_act(g, b).coords == conv.iota([0, 1]).coords


def test_rh_action_on_dual_basis(ws):
    conv = conv_of(ws, "grading")    # H = (kC2)*, H* = kC2 group basis
    # translation by a dual idempotent: (p_i -> b)(p_j) = b(p_j p_i)
    F = conv.field
    p0 = [F.one, F.zero]
    b = conv.ustar([F.zero, F.one])  # 1 (x) (second dual basis vector)
    moved = conv.rh_act(p0, b)
    assert all(F.is_zero(c) for c in moved.coords)


def test_dotinv_multiplicativity_matches_cocommutativity(ws):
    for name in sorted(ws.actions):
        conv = conv_of(ws, name)
        rep = check_dotinv(conv)
        assert rep.ok, (name, rep.witnesses)
        assert rep.details["multiplicative"] == rep.details["cocommutative"], name


def test_dotinv_sweedler_witness(ws):
    rep = check_dotinv(conv_of(ws, "sweedler-act"))
    assert rep.details["multiplicative"] is False
    assert rep.witnesses, "expected an explicit violating pair"


def test_dot_invariants_cocommutative(ws):
    for name in ("swap", "grading", "grading2", "conj", "c2jet", "kleinswap"):
        conv = conv_of(ws, name)
        rep = check_dotinv(conv)
        assert rep.details["twist-invariants-match"] is True, name


def test_transport_trivial_ideals(ws):
    conv = conv_of(ws, "swap")
    alg = ws.algebras["qxq"]
    zero = Subspace.zero(QQ, 2)
    assert transport_subspace(conv, zero).dim == 0
    full = Subspace.full(QQ, 2)
    assert transport_subspace(conv, full).dim == conv.dim
    assert check_transport(conv, zero, transport_subspace(conv, zero)).status == "pass"
    assert check_transport(conv, full, transport_subspace(conv, full)).status == "pass"


def test_transport_roundtrip_named_ideals(ws):
    cases = [("swap", "half"), ("grading", "aug"), ("grading2", "aug2"),
             ("swap2", "half2")]
    for aname, iname in cases:
        conv = conv_of(ws, aname)
        ideal = ws.ideals[iname]
        rep = check_transport(conv, ideal.space, transport_subspace(conv, ideal.space))
        assert rep.status == "pass", (aname, iname, rep.witnesses)


def test_transport_rejects_non_ideal(ws):
    conv = conv_of(ws, "swap")
    not_ideal = Subspace.from_vectors(QQ, 2, [[1, 2]])
    rep = check_transport(conv, not_ideal, transport_subspace(conv, not_ideal))
    assert rep.status == "error"


def test_transport_images_are_h_ideals(ws):
    conv = conv_of(ws, "grading2")
    aug = ws.ideals["aug2"]
    t = transport_subspace(conv, aug.space)
    assert is_stable(t, conv.dot_operators)
    # and the transported ideal restricts back
    assert restrict_subspace(conv, t) == aug.space
    assert invariant_contract(conv, t) == aug.space
    assert invariant_extend(conv, aug.space) == t


def test_lattice_bijection_f2(ws):
    # exhaustive three-corner correspondence on every F_2 fixture
    for name in ("swap2", "grading2", "kleinswap"):
        conv = conv_of(ws, name)
        rep = check_dotinv_lattice(conv, bound=4096)
        assert rep.status == "pass", (name, rep.witnesses)
        assert rep.details["ideals-of-A"] == rep.details["h-ideals-of-B"]


def test_h_ideal_counts_grading2(ws):
    # oracle: ideals of F_2 C_2 are 0, the augmentation ideal, A: three
    conv = conv_of(ws, "grading2")
    assert len(enumerate_h_ideals(conv, bound=4096)) == 3


def test_stability_scan_counts(ws):
    for name, adim in (("swap2", 2), ("grading2", 2), ("kleinswap", 4)):
        conv = conv_of(ws, name)
        rep = stability_scan(conv, bound=4096)
        assert rep.status == "pass", (name, rep.witnesses)
        assert rep.details["stable-count"] == subspace_count(2, adim)


def test_stability_scan_requires_f2(ws):
    rep = stability_scan(conv_of(ws, "swap"))
    assert rep.status == "error"


def test_stability_scan_degenerate_algebra(ws):
    # A one-dimensional: only the zero space and the full dual are stable
    from hopfact.hopf import FiniteAlgebra
    from hopfact.action import trivial_action
    from hopfact.linalg import GF
    f2 = GF(2)
    kalg = FiniteAlgebra(f2, 1, [[[1]]], [1], name="f2point")
    conv = ConvolutionAlgebra(trivial_action(ws.hopfs["f2c2"], kalg))
    rep = stability_scan(conv)
    assert rep.status == "pass"
    assert rep.details["stable-count"] == 2


def test_stability_scan_degenerate_hopf(ws):
    # H = k: every subspace of A is of the form W (x) k
    from hopfact.action import trivial_action
    from hopfact.linalg import GF, subspace_count
    k = group_algebra(cyclic_group_table(1), GF(2))
    conv = ConvolutionAlgebra(trivial_action(k, ws.algebras["f2xf2"]))
    rep = stability_scan(conv)
    assert rep.status == "pass"
    assert rep.details["stable-count"] == subspace_count(2, 2)


def test_dim_cap(ws, monkeypatch):
    monkeypatch.setattr(convolution, "DEFAULT_DIM_CAP", 4)
    with pytest.raises(ValueError):
        ConvolutionAlgebra(ws.actions["conj"])


def test_f3_sweedler_lattice_at_full_bound(ws):
    # 3**8 = 6561 vectors: the old subspace scan faced 127,902,864 subspaces.
    # Sweedler's H is not cocommutative, so the transport of the middle ideal
    # of A is no ideal of B and the bijection genuinely fails.
    conv = conv_of(ws, "f3sweedler-act")
    h_ideals = enumerate_h_ideals(conv, bound=6561)
    assert [s.dim for s in h_ideals] == [0, conv.dim]
    rep = check_dotinv_lattice(conv, bound=6561)
    assert rep.status == "fail"
    assert rep.details["ideals-of-A"] == 3
    assert rep.details["h-ideals-of-B"] == 2
    assert {"identity": "transport-is-ideal"} in rep.witnesses


def test_lattice_bijection_c2_on_five_points():
    # C2 by two 2-cycles on 5 points, over F_2^5: dim B = 10, and the ideals
    # of k^X are the 2^5 coordinate subspaces; F_2^10 has 229,755,605
    # subspaces, out of reach of a scan.
    from hopfact.hopf import group_algebra, cyclic_group_table, product_field_algebra
    from hopfact.action import ModuleAlgebraAction
    from hopfact.linalg import GF
    f2 = GF(2)
    perms = [(0, 1, 2, 3, 4), (1, 0, 3, 2, 4)]
    tensor = [[[1 if g[x] == y else 0 for y in range(5)] for x in range(5)]
              for g in perms]
    act = ModuleAlgebraAction(group_algebra(cyclic_group_table(2), f2),
                              product_field_algebra(f2, 5), tensor, name="c2-on5")
    rep = check_dotinv_lattice(ConvolutionAlgebra(act), bound=2 ** 10)
    assert rep.status == "pass", rep.witnesses
    assert rep.details["ideals-of-A"] == rep.details["h-ideals-of-B"] == 2 ** 5
