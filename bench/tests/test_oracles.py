"""Tests of the benchmark's oracles and checkers.

Each oracle is checked by hand or by brute force on a tiny case, and each
checker is fed a corrupted result that it must reject.

    python3 -m pytest bench/tests
"""

import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def vectors(p, n):
    return list(itertools.product(range(p), repeat=n))


def closed_subsets(p, n, closed):
    """Brute force: subsets of F_p^n that contain 0 and satisfy ``closed``."""
    vs = vectors(p, n)
    zero = (0,) * n
    count = 0
    for bits in range(1 << len(vs)):
        s = {v for i, v in enumerate(vs) if bits >> i & 1}
        if zero in s and closed(s):
            count += 1
    return count


def add(p, u, v):
    return tuple((a + b) % p for a, b in zip(u, v))


# -- the orbit rule ------------------------------------------------------------

def test_orbit_rule_by_hand():
    swap = [(0, 1, 2), (1, 0, 2)]          # C2 swapping 0 and 1, fixing 2
    assert sorted(map(sorted, oracles.orbits(swap, 3))) == [[0, 1], [2]]
    assert oracles.orbit_core(swap, 3, [0, 2]) == [2]
    assert oracles.orbit_core(swap, 3, [0, 1]) == [0, 1]
    assert oracles.orbit_core(swap, 3, [1]) == []


def test_core_checker_rejects_an_extra_vector():
    rows = [[0, 0, 1]]
    oracles.check_coordinate_span("core", rows, [2])
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("core", rows + [[1, 0, 0]], [2])
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("core", rows + [[0, 0, 2]], [2])
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("core", [], [2])
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("core", [[1, 0, 1]], [2])


# -- Gaussian subspace counts ----------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_subspace_total_matches_brute_force(p, n):
    def is_subspace(s):
        return all(add(p, u, v) in s for u in s for v in s) and \
            all(tuple(c * x % p for x in u) in s for u in s for c in range(p))
    assert oracles.subspace_total(p, n) == closed_subsets(p, n, is_subspace)


def test_subspace_counts_by_hand():
    assert oracles.subspace_total(2, 2) == 5          # 0, three lines, the plane
    assert oracles.subspaces_of_dim(2, 4, 2) == 35
    assert oracles.subspace_total(2, 4) == 67
    assert oracles.subspace_total(3, 6) == 56632
    assert oracles.subspace_total(2, 8) == 417199


def test_stability_checker_rejects_a_count_off_by_one():
    good = {"stable-count": 67, "subspace-count-of-A": 67}
    oracles.check_stability_scan("scan", good, 2, 4)
    with pytest.raises(CheckFailed):
        oracles.check_stability_scan("scan", dict(good, **{"stable-count": 68}), 2, 4)
    with pytest.raises(CheckFailed):
        oracles.check_stability_scan("scan", dict(good, **{"subspace-count-of-A": 66}), 2, 4)


# -- ideals of k^X -------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2)])
def test_product_ideal_count_matches_brute_force(p, n):
    def is_ideal(s):
        mul = [tuple(a * b % p for a, b in zip(u, v)) for u in s for v in vectors(p, n)]
        return all(add(p, u, v) in s for u in s for v in s) and all(w in s for w in mul)
    assert oracles.product_ideal_count(n) == closed_subsets(p, n, is_ideal)


def test_lattice_checker_rejects_a_broken_bijection():
    good = {"ideals-of-A": 16, "h-ideals-of-B": 16}
    oracles.check_lattice("lattice", good, 16)
    with pytest.raises(CheckFailed):
        oracles.check_lattice("lattice", dict(good, **{"h-ideals-of-B": 15}), 16)
    with pytest.raises(CheckFailed):
        oracles.check_lattice("lattice", {"ideals-of-A": 17, "h-ideals-of-B": 17}, 16)


# -- grading actions --------------------------------------------------------------

def subspaces(p, n):
    """Brute force: every subspace of F_p^n, as a frozenset of vectors."""
    vs = vectors(p, n)
    zero = (0,) * n
    found = []
    for bits in range(1 << len(vs)):
        s = frozenset(v for i, v in enumerate(vs) if bits >> i & 1)
        if zero in s and all(add(p, u, v) in s for u in s for v in s):
            found.append(s)
    return found


@pytest.mark.parametrize("p,order", [(2, 2), (3, 2), (2, 3)])
def test_grading_core_is_zero_by_brute_force(p, order):
    # kC_n with basis g^0 .. g^(n-1); g^i e_j = e_(i+j).  (kC_n)* acts on kC_n
    # through the projections onto the basis vectors.  Every proper ideal
    # has no nonzero subspace stable under the projections, so its core is 0.
    def shift(i, v):
        return tuple(v[(j - i) % order] for j in range(order))

    def project(x, v):
        return tuple(c if j == x else 0 for j, c in enumerate(v))

    spaces = subspaces(p, order)
    ideals = [s for s in spaces if len(s) < p ** order
              and all(shift(i, v) in s for i in range(order) for v in s)]
    assert len(ideals) >= 2          # 0 and at least the augmentation ideal
    for ideal in ideals:
        stable = [s for s in spaces if s <= ideal
                  and all(project(x, v) in s for x in range(order) for v in s)]
        assert stable == [frozenset({(0,) * order})]
    oracles.check_coordinate_span("grading core", [], [])


def test_grading_core_checker_rejects_a_nonzero_core():
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("grading core", [[-1, 1]], [])
    with pytest.raises(CheckFailed):
        oracles.check_coordinate_span("grading core", [[0, 1]], [])


def test_cyclic_subgroup_classes_by_hand():
    rnd = random.Random(0)
    # simple components of QG: S3 -> Q, Q, M2(Q); C4 -> Q, Q, Q(i);
    # C2 x C2 -> four copies of Q; D4 -> four copies of Q and M2(Q)
    for name, want in (("s3", 3), ("c4", 3), ("c2xc2", 4), ("d4", 5), ("c3", 2)):
        assert oracles.cyclic_subgroup_classes(gen.seeded_group(name, rnd).perms) == want


# -- other checkers ------------------------------------------------------------------

def test_multiplicativity_checker():
    oracles.check_multiplicative("dotinv", {"cocommutative": False, "multiplicative": False}, False)
    with pytest.raises(CheckFailed):
        oracles.check_multiplicative("dotinv", {"cocommutative": False,
                                                "multiplicative": True}, False)
    with pytest.raises(CheckFailed):
        oracles.check_multiplicative("dotinv", {"cocommutative": True,
                                                "multiplicative": False}, True)


def test_semiprime_and_rejection_checkers():
    details = {"core-semiprime": True, "core-dim": 2}
    oracles.check_semiprime_core("sp", "pass", details, 2)
    with pytest.raises(CheckFailed):
        oracles.check_semiprime_core("sp", "pass", dict(details, **{"core-semiprime": False}), 2)
    with pytest.raises(CheckFailed):
        oracles.check_semiprime_core("sp", "pass", details, 3)
    oracles.check_rejected("perturbed", "fail")
    with pytest.raises(CheckFailed):
        oracles.check_rejected("perturbed", "pass")


def test_rank():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[1, 0, 0], [0, 0, 1]]) == 2


# -- inputs and the workload checkers -------------------------------------------

@pytest.mark.parametrize("name", sorted(gen.GROUPS))
def test_seeded_groups_are_permutation_actions(name):
    base = gen.seeded_group(name, random.Random(1))
    g = gen.seeded_group(name, random.Random(2))
    assert g.order == base.order
    # relabelling keeps the orbit sizes, so the work of a round stays the same
    assert sorted(map(len, oracles.orbits(g.perms, g.npts))) == \
        sorted(map(len, oracles.orbits(base.perms, base.npts)))
    for i, p in enumerate(g.perms):
        for j, q in enumerate(g.perms):
            assert g.perms[g.table[i][j]] == gen.compose(p, q)


def test_perturbation_changes_one_entry():
    g = gen.seeded_group("c3", random.Random(0))
    base = gen.group_hopf_json(g, {"kind": "rationals"}, "kc3")
    for kind in ("unit", "counit", "antipode"):
        bad = gen.perturb(base, kind, random.Random(kind))
        flat = list(itertools.chain.from_iterable(
            x if isinstance(x, list) else [x] for x in bad[kind]))
        orig = list(itertools.chain.from_iterable(
            x if isinstance(x, list) else [x] for x in base[kind]))
        assert sum(a != b for a, b in zip(flat, orig)) == 1


def test_derivation_is_a_derivation_of_the_truncated_algebra():
    n = 5
    D = gen.derivation_matrix([2, -1, 3], n)
    mult = gen.truncated_poly_mult(n)

    def apply(v):
        return [sum(D[i][j] * v[j] for j in range(n)) for i in range(n)]

    def times(u, v):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[k] += u[i] * v[j] * mult[i][j][k]
        return out
    for i in range(n):
        for j in range(n):
            ei, ej = gen.unit_vector(n, i), gen.unit_vector(n, j)
            lhs = apply(times(ei, ej))
            rhs = [a + b for a, b in zip(times(apply(ei), ej), times(ei, apply(ej)))]
            assert lhs == rhs


def test_cli_checkers_reject_corrupted_reports(tmp_path):
    import workloads
    plan = workloads.CliPlan(3, str(tmp_path))
    checks = {tuple(cmd): check for cmd, _, check in plan.commands}
    scan = checks[("stability-scan", "--action", "perm2")]
    scan([{"details": {"stable-count": 16, "subspace-count-of-A": 16}}])
    with pytest.raises(CheckFailed):
        scan([{"details": {"stable-count": 17, "subspace-count-of-A": 16}}])
    core = checks[("core", "--action", "permq", "--ideal", "iq")]
    npts = plan.objects["xq"]["dim"]
    want = core_support_of(plan)
    rows = [[str(int(i == x)) for i in range(npts)] for x in want]
    core([{"details": {"core": {"basis": rows}}}])
    outside = next(x for x in range(npts) if x not in want)
    extra = [str(int(i == outside)) for i in range(npts)]
    with pytest.raises(CheckFailed):
        core([{"details": {"core": {"basis": rows + [extra]}}}])


def test_cli_check_counts_a_report_without_its_fields_as_wrong(tmp_path):
    import workloads
    plan = workloads.CliPlan(3, str(tmp_path))
    checks = {tuple(cmd): check for cmd, _, check in plan.commands}
    core = checks[("core", "--action", "permq", "--ideal", "iq")]
    with pytest.raises(CheckFailed):
        workloads.cli_check(0, core, 0, '[{"status": "pass", "details": {}}]')
    with pytest.raises(CheckFailed):
        workloads.cli_check(0, core, 0, "[]")
    with pytest.raises(workloads.ProgramExit):
        workloads.cli_check(0, core, 1, "")


def core_support_of(plan):
    """The orbit-rule core of the plan's ideal, recomputed from its JSON."""
    tensor = plan.objects["permq"]["tensor"]
    perms = [tuple(row.index(1) for row in plane) for plane in tensor]
    support = [row.index(1) for row in plan.objects["iq"]["generators"]]
    return oracles.orbit_core(perms, plan.objects["xq"]["dim"], support)


def test_only_known_faults_fail_expectedly():
    import workloads

    def boom(ctx):
        raise RecursionError("boom")

    res = workloads.run_round([workloads.Job("series-phi --nvars 0", boom),
                               workloads.Job("core --action permq", boom)])
    assert (res.attempted, res.failed, res.unexpected) == (2, 2, 1)
