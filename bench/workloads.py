"""The three workloads: seeded job lists and the checks on their outputs.

A workload's ``plan`` turns a seed into a fixed list of jobs over plain
data.  ``run_round`` runs every job once, in order, against a fresh
context, so each round builds its Hopf algebras, algebras, actions and
convolution algebras anew and no ``cached_property`` carries over.

A job that raises counts as failed.  A job whose output disagrees with an
oracle raises ``CheckFailed``; that makes the run incorrect.  Only the jobs
in ``KNOWN_FAULTS`` fail on the program as it stands; a failure of any
other job makes the run exit non-zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import select
import subprocess
import sys
import time

import gen
import oracles
from oracles import CheckFailed

QQ_JSON = {"kind": "rationals"}
F2_JSON = {"kind": "prime-field", "p": 2}

# Bundled fixtures each workload runs on, with the files they reference.
EXACT_Q_FIXTURES = ["grading-s3", "qs3dual", "qs3", "sweedler-act", "sweedler4",
                    "qy2", "conj", "qc2", "m2q"]
LATTICE_FP_FIXTURES = ["kleinswap", "swap2", "grading2", "f2c2", "f2klein",
                       "f2xf2", "f2c2dual"]

CHILD_TIMEOUT_S = 120

# Jobs that fail on every run through a known program fault: the usage
# error ``series-phi --nvars 0`` dies with RecursionError and exits 1,
# where the README of hopfact promises exit 2.
KNOWN_FAULTS = {"series-phi --nvars 0"}


class Job:
    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


class RoundResult:
    """Jobs attempted and failed, wrong outputs, and the largest child's RSS."""

    __slots__ = ("attempted", "failed", "unexpected", "wrong", "errors", "child_rss_mb")

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.wrong = []
        self.errors = []
        self.child_rss_mb = 0.0

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.wrong += other.wrong
        self.errors += other.errors
        self.child_rss_mb = max(self.child_rss_mb, other.child_rss_mb)


def run_round(jobs):
    res = RoundResult()
    ctx = {"result": res}
    for job in jobs:
        res.attempted += 1
        try:
            job.fn(ctx)
        except CheckFailed as exc:
            res.wrong.append(f"{job.name}: {exc}")
        except Exception as exc:  # a program fault: count it and go on
            res.failed += 1
            res.unexpected += job.name not in KNOWN_FAULTS
            res.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return res


def fixture_dir(root):
    return os.path.join(root, "src", "hopfact", "fixtures")


def read_fixtures(root, names):
    out = {}
    for name in names:
        with open(os.path.join(fixture_dir(root), f"{name}.json")) as fh:
            out[name] = json.load(fh)
    return out


# -- builders from plain data --------------------------------------------------

def build_hopf(obj, name=None):
    from hopfact.workspace import load_hopf
    return load_hopf(obj, name)


def build_algebra(obj, name=None):
    from hopfact.workspace import load_algebra
    if "group_table" in obj or "comul" in obj:
        return build_hopf(obj, name).alg
    return load_algebra(obj, name)


def build_fixture_action(objs, name):
    from hopfact.action import ModuleAlgebraAction
    a = objs[name]
    return ModuleAlgebraAction(build_hopf(objs[a["hopf"]], a["hopf"]),
                               build_algebra(objs[a["algebra"]], a["algebra"]),
                               a["tensor"], name=name)


def plain_algebra(field, mult, unit, name):
    from hopfact.hopf import FiniteAlgebra
    return FiniteAlgebra(field, len(unit), mult, unit, name=name)


def perm_action(field, group, name):
    """The group algebra of ``group`` permuting the idempotents of k^X."""
    from hopfact.hopf import group_algebra
    from hopfact.action import ModuleAlgebraAction
    n = group.npts
    H = group_algebra(group.table, field, name=f"k{group.name}")
    A = plain_algebra(field, gen.product_algebra_mult(n), [1] * n, f"k^{n}")
    return ModuleAlgebraAction(H, A, gen.perm_action_tensor(group), name=name)


def rows_of(ideal):
    return [list(r) for r in ideal.space.rows]


# -- exact-q -------------------------------------------------------------------

def exact_q_plan(seed, root):
    from hopfact.linalg import QQ
    rnd = random.Random(f"exact-q/{seed}")
    groups = {name: gen.seeded_group(name, rnd)
              for name in ("c3", "c4", "c2xc2", "d4", "s3")}
    jobs = []

    # Hopf algebras: kG and (kG)* for every family, two tensor squares, and
    # seeded perturbations of kD4 that no Hopf algebra can have.
    def hopf_job(g):
        def run(ctx):
            from hopfact.hopf import group_algebra, dual_hopf, verify_hopf
            H = group_algebra(g.table, QQ, name=f"k{g.name}")
            oracles.check_status(f"verify_hopf k{g.name}", verify_hopf(H).status)
            D = dual_hopf(H)
            oracles.check_status(f"verify_hopf (k{g.name})*", verify_hopf(D).status)
        return run

    def tensor_job(g):
        def run(ctx):
            from hopfact.hopf import group_algebra, tensor_hopf, verify_hopf
            H = group_algebra(g.table, QQ, name=f"k{g.name}")
            T = tensor_hopf(H, H)
            oracles.check_status(f"verify_hopf k{g.name}^2", verify_hopf(T).status)
        return run

    for g in groups.values():
        jobs.append(Job(f"hopf k{g.name}", hopf_job(g)))
    for name in ("c4", "s3"):
        jobs.append(Job(f"hopf k{name}^2", tensor_job(groups[name])))

    base = gen.group_hopf_json(groups["d4"], QQ_JSON, "kd4")
    for kind in ("unit", "counit", "antipode"):
        obj = gen.perturb(base, kind, rnd)

        def perturbed(ctx, obj=obj, kind=kind):
            from hopfact.hopf import verify_hopf
            oracles.check_rejected(f"perturbed {kind}",
                                   verify_hopf(build_hopf(obj)).status)
        jobs.append(Job(f"perturbed {kind}", perturbed))

    # Permutation actions on Q^X: identities, twist multiplicativity, the
    # three core routes against the orbit rule, semiprime cores, strata.
    for name in ("c4", "c2xc2", "s3"):
        jobs.extend(perm_action_jobs(QQ, groups[name], rnd))

    # C3 conjugating M_3(Q) by a seeded signed 3-cycle; M_3(Q) is simple,
    # so it has one prime and one stratum.
    cgroup, ctensor = gen.signed_cycle_conjugation(rnd, 3)

    def conj_m3():
        from hopfact.hopf import group_algebra
        from hopfact.action import ModuleAlgebraAction
        A = plain_algebra(QQ, gen.matrix_algebra_mult(3),
                          [1 if i % 4 == 0 else 0 for i in range(9)], "m3")
        return ModuleAlgebraAction(group_algebra(cgroup.table, QQ, name="kc3"), A,
                                   ctensor, name="conj-m3")
    jobs.extend(action_jobs("conj-m3", conj_m3, True, primes=1, strata_count=1,
                            cores=[core_job("conj-m3", [], [], group_route=True)]))

    # Grading actions of (kG)* on kG: cocommutative exactly when G is abelian.
    jobs.extend(grading_jobs(QQ, groups["c4"], rnd, identities=True))
    jobs.extend(grading_jobs(QQ, groups["s3"], rnd, identities=False))

    # Bundled fixtures, rebuilt from their JSON every round.
    jobs.extend(bundled_q_jobs(read_fixtures(root, EXACT_Q_FIXTURES), rnd))

    # Derivations of Q[t]/(t^6) and the divided-power series isomorphism.
    jobs.extend(derivation_jobs(QQ, rnd, n=6))
    jobs.append(series_job(QQ, rnd, nvars=3, trunc=5))
    return jobs


def action_jobs(name, build, cocommutative, cores, primes=None, strata_count=None,
                identities=True):
    """Build one action, verify it, run the convolution battery, the core
    jobs and, when the counts are known, spectrum and strata."""
    def build_job(ctx):
        ctx[name] = build()

    def verify(ctx):
        from hopfact.action import verify_action
        oracles.check_status(f"verify_action {name}", verify_action(ctx[name]).status)

    def convolution(ctx):
        from hopfact.convolution import ConvolutionAlgebra, identity_report, check_dotinv
        conv = ConvolutionAlgebra(ctx[name])
        if identities:
            oracles.check_status(f"identity_report {name}", identity_report(conv).status)
        rep = check_dotinv(conv)
        oracles.check_status(f"check_dotinv {name}", rep.status)
        oracles.check_multiplicative(f"check_dotinv {name}", rep.details, cocommutative)

    def spectra(ctx):
        from hopfact.ideals import spectrum, strata
        act = ctx[name]
        oracles.check_equal(f"spectrum {name} primes", len(spectrum(act.alg)), primes)
        oracles.check_equal(f"strata {name} count", len(strata(act)), strata_count)

    jobs = [Job(f"build {name}", build_job), Job(f"verify_action {name}", verify),
            Job(f"convolution {name}", convolution)]
    jobs += [Job(f"cores {name} {i}", fn) for i, fn in enumerate(cores)]
    if primes is not None:
        jobs.append(Job(f"spectrum/strata {name}", spectra))
    return jobs


def perm_action_jobs(field, g, rnd):
    """k^X has one prime per point; the strata are the orbits."""
    name = f"perm-{g.name}"
    cores = []
    for k in range(2):
        support = gen.random_subset(rnd, g.npts, (g.npts + 1) // 2 + k)
        cores.append(core_job(name, [gen.unit_vector(g.npts, x) for x in support],
                              oracles.orbit_core(g.perms, g.npts, support),
                              group_route=True))
    return action_jobs(name, lambda: perm_action(field, g, name), True, cores,
                       primes=g.npts, strata_count=len(oracles.orbits(g.perms, g.npts)))


def core_job(name, gens_, want_support, group_route):
    """Core routes and the semiprime-core check on one generated ideal."""
    def run(ctx):
        from hopfact.ideals import (Ideal, core, core_via_psi,
                                    group_core_by_intersection, semiprime_core_check)
        act = ctx[name]
        ideal = Ideal.generate(act.alg, gens_)
        routes = [core, core_via_psi]
        if group_route:
            routes.append(group_core_by_intersection)
        for route in routes:
            oracles.check_coordinate_span(f"{route.__name__} {name}",
                                          rows_of(route(act, ideal)), want_support)
        rep = semiprime_core_check(act, ideal)
        oracles.check_semiprime_core(f"semiprime_core_check {name}", rep.status,
                                     rep.details, len(want_support))
    return run


def proper_ideal(order, identity, rnd):
    """<g - e> for a seeded g != e: inside the augmentation ideal, so proper."""
    other = rnd.choice([i for i in range(order) if i != identity])
    return [[1 if i == other else (-1 if i == identity else 0) for i in range(order)]]


def grading_jobs(field, g, rnd, identities):
    """(kG)* on kG: every proper ideal has core 0, so there is one stratum;
    QG has one prime per class of cyclic subgroups."""
    name = f"grading-{g.name}"
    abelian = all(g.table[i][j] == g.table[j][i]
                  for i in range(g.order) for j in range(g.order))

    def build():
        from hopfact.hopf import group_algebra, dual_hopf
        from hopfact.action import ModuleAlgebraAction
        kg = group_algebra(g.table, field, name=f"k{g.name}")
        return ModuleAlgebraAction(dual_hopf(kg), kg.alg, gen.grading_tensor(g.order),
                                   name=name)

    cores = [core_job(name, proper_ideal(g.order, g.identity, rnd), [], group_route=False)]
    return action_jobs(name, build, abelian, cores,
                       primes=oracles.cyclic_subgroup_classes(g.perms), strata_count=1,
                       identities=identities)


def bundled_q_jobs(objs, rnd):
    unit = [int(c) for c in objs["qs3"]["unit"]]    # grouplike basis, e = unit
    specs = [
        # (S3 grading: a proper ideal has core 0, and (kS3)* is not cocommutative)
        ("grading-s3", False,
         core_job("grading-s3", proper_ideal(len(unit), unit.index(1), rnd), [],
                  group_route=False)),
        # (Sweedler's algebra is not cocommutative; no closed form for the core)
        ("sweedler-act", False, agreeing_cores_job("sweedler-act", [[0, 1]])),
        # (C2 conjugating M_2(Q): the zero ideal has core 0)
        ("conj", True, core_job("conj", [], [], group_route=True)),
    ]
    jobs = []
    for name, cocomm, cores in specs:
        jobs += action_jobs(name, lambda name=name: build_fixture_action(objs, name),
                            cocomm, [cores])
    return jobs


def agreeing_cores_job(name, gens_):
    """No closed form: the direct and the twisted route must agree."""
    def run(ctx):
        from hopfact.ideals import Ideal, core, core_via_psi
        act = ctx[name]
        ideal = Ideal.generate(act.alg, gens_)
        direct, twisted = core(act, ideal), core_via_psi(act, ideal)
        oracles.check_equal(f"core routes {name}", rows_of(twisted), rows_of(direct))
    return run


def derivation_jobs(field, rnd, n):
    """Every ideal (t^k) of Q[t]/(t^n) is stable, so it is its own core."""
    coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
    D = gen.derivation_matrix(coeffs, n)
    mult = gen.truncated_poly_mult(n)
    jobs = []
    for k in sorted(rnd.sample(range(1, n), 2)):
        def run(ctx, k=k):
            from hopfact.ideals import Ideal
            from hopfact.lie import LieAction, lie_core
            A = plain_algebra(field, mult, gen.unit_vector(n, 0), f"t{n}")
            lact = LieAction(A, [D], name="derivation")
            out = lie_core(lact, Ideal.generate(A, [gen.unit_vector(n, k)]))
            oracles.check_coordinate_span(f"lie_core (t^{k})", rows_of(out), range(k, n))
        jobs.append(Job(f"lie_core (t^{k})", run))
    return jobs


def series_job(field, rnd, nvars, trunc):
    vals = [[gen.random_rational(rnd) for _ in range(nvars)] for _ in range(2)]

    def run(ctx):
        from hopfact.lie import (algebra_map_functional, indices_up_to,
                                 phi_multiplicativity_report)
        f = algebra_map_functional(field, nvars, trunc, vals[0])
        g = algebra_map_functional(field, nvars, trunc, vals[1])
        pairs = [(f, g)] + [({idx: field.one}, f) for idx in indices_up_to(nvars, 2)]
        rep = phi_multiplicativity_report(field, nvars, trunc, pairs)
        oracles.check_status("series phi multiplicative", rep.status)
    return Job("series phi", run)


# -- lattice-fp ----------------------------------------------------------------

def lattice_fp_plan(seed, root):
    from hopfact.linalg import GF
    rnd = random.Random(f"lattice-fp/{seed}")
    objs = read_fixtures(root, LATTICE_FP_FIXTURES)
    jobs = []
    # (fixture, dim A, ideals of A where known): f2xf2 = F_2^2 has 2^2;
    # f2c2 = F_2[x]/(x^2) with x = 1 + g is a chain ring: 0, (x), A.
    for name, dim_a, ideals_a in (("kleinswap", 4, None),
                                  ("swap2", 2, oracles.product_ideal_count(2)),
                                  ("grading2", 2, 3)):
        jobs += lattice_jobs(name, lambda name=name: build_fixture_action(objs, name),
                             2, dim_a, ideals_a, scan=True)
    # C2 with two 2-cycles on 4 points over F_2: dim B = 2 * 4 = 8
    g8 = gen.seeded_group("c2-on4", rnd)
    jobs += lattice_jobs("perm-f2", lambda: perm_action(GF(2), g8, "perm-f2"),
                         2, 4, oracles.product_ideal_count(4), scan=True)
    # C2 over F_3 on three points (dim B = 6) and on two (dim B = 4); the
    # default bound of 256 vectors would refuse 3^6, so it is passed here.
    for gname in ("c2-on3", "c2"):
        g3 = gen.seeded_group(gname, rnd)
        name = f"perm-f3-{g3.npts}"
        jobs += lattice_jobs(name, lambda g3=g3, name=name: perm_action(GF(3), g3, name),
                             3, g3.npts, oracles.product_ideal_count(g3.npts),
                             scan=False, bound=3 ** (2 * g3.npts))
    return jobs


def lattice_jobs(name, build_action, p, dim_a, ideals_a, scan, bound=None):
    def lattice(ctx):
        from hopfact.convolution import ConvolutionAlgebra, check_dotinv_lattice
        rep = check_dotinv_lattice(ConvolutionAlgebra(build_action()), bound=bound)
        oracles.check_status(f"check_dotinv_lattice {name}", rep.status)
        oracles.check_lattice(f"check_dotinv_lattice {name}", rep.details, ideals_a)

    def stability(ctx):
        from hopfact.convolution import ConvolutionAlgebra, stability_scan
        rep = stability_scan(ConvolutionAlgebra(build_action()), bound=bound)
        oracles.check_status(f"stability_scan {name}", rep.status)
        oracles.check_stability_scan(f"stability_scan {name}", rep.details, p, dim_a)

    jobs = [Job(f"check_dotinv_lattice {name}", lattice)]
    if scan:
        jobs.append(Job(f"stability_scan {name}", stability))
    return jobs


# -- cli-oneshot -----------------------------------------------------------------

class CliPlan:
    """The generated fixture directory and the commands run against it."""

    def __init__(self, seed, outdir):
        rnd = random.Random(f"cli-oneshot/{seed}")
        self.dir = os.path.join(outdir, f"cli-fixtures-{seed}")
        gq = gen.seeded_group("s3", rnd)
        g2 = gen.seeded_group("c2-on3", rnd)
        support = gen.random_subset(rnd, gq.npts, 3)
        self.objects = {
            "gq": {"name": "gq", "field": QQ_JSON, "group_table": gq.table},
            "xq": {"name": "xq", "field": QQ_JSON, "dim": gq.npts,
                   "mult": gen.product_algebra_mult(gq.npts), "unit": [1] * gq.npts},
            "permq": {"name": "permq", "hopf": "gq", "algebra": "xq",
                      "tensor": gen.perm_action_tensor(gq)},
            "iq": {"name": "iq", "algebra": "xq",
                   "generators": [gen.unit_vector(gq.npts, x) for x in support]},
            "g2": {"name": "g2", "field": F2_JSON, "group_table": g2.table},
            "x2": {"name": "x2", "field": F2_JSON, "dim": g2.npts,
                   "mult": gen.product_algebra_mult(g2.npts), "unit": [1] * g2.npts},
            "perm2": {"name": "perm2", "hopf": "g2", "algebra": "x2",
                      "tensor": gen.perm_action_tensor(g2)},
        }
        core_support = oracles.orbit_core(gq.perms, gq.npts, support)
        norbits = len(oracles.orbits(gq.perms, gq.npts))
        # (arguments, expected exit code, check on the parsed reports)
        self.commands = [
            # verify: 4 algebras (two of them group algebras), 2 Hopf algebras, 2 actions
            (["verify"], 0, lambda r: check_verify(r, 8)),
            (["core", "--action", "permq", "--ideal", "iq"], 0,
             lambda r: oracles.check_coordinate_span(
                 "cli core", parse_basis(r[0]["details"]["core"]["basis"]), core_support)),
            (["spectrum", "--algebra", "xq"], 0,
             lambda r: oracles.check_equal("cli spectrum primes",
                                           len(r[0]["details"]["entries"]), gq.npts)),
            (["strata", "--action", "permq"], 0,
             lambda r: oracles.check_equal("cli strata count",
                                           len(r[0]["details"]["fibers"]), norbits)),
            (["dotinv", "--action", "permq"], 0,
             lambda r: oracles.check_multiplicative("cli dotinv", r[0]["details"], True)),
            (["semiprime-core", "--action", "permq", "--ideal", "iq"], 0,
             lambda r: oracles.check_semiprime_core("cli semiprime-core", r[0]["status"],
                                                    r[0]["details"], len(core_support))),
            (["stability-scan", "--action", "perm2"], 0,
             lambda r: oracles.check_stability_scan("cli stability-scan",
                                                    r[0]["details"], 2, g2.npts)),
            # a usage error: the README promises exit 2 and an error report
            (["series-phi", "--nvars", "0"], 2,
             lambda r: oracles.check_status("cli series-phi --nvars 0", r[0]["status"],
                                            "error")),
        ]

    def write(self):
        os.makedirs(self.dir, exist_ok=True)
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        for name, obj in self.objects.items():
            with open(os.path.join(self.dir, f"{name}.json"), "w") as fh:
                json.dump(obj, fh, sort_keys=True)

    def argv(self, command):
        return command[:1] + ["--fixtures", self.dir, "--json"] + command[1:]


def check_verify(reports, count):
    oracles.check_equal("cli verify reports", len(reports), count)
    for rep in reports:
        oracles.check_status(f"cli verify {rep['details'].get('object')}", rep["status"])


def parse_basis(rows):
    from fractions import Fraction
    return [[Fraction(c) for c in row] for row in rows]


class ProgramExit(Exception):
    """A command exited with another code than the one its input calls for."""


def cli_check(want_code, check, code, stdout):
    """Wrong reports make the run incorrect; a wrong exit code alone, or
    no reports at all, is a failed command."""
    try:
        reports = json.loads(stdout)
    except ValueError:
        raise ProgramExit(f"exit {code}, want {want_code}, no JSON reports") from None
    try:
        check(reports)
    except (KeyError, IndexError, TypeError) as exc:
        # a report without the fields the oracle reads is a wrong report
        raise CheckFailed(f"report lacks {type(exc).__name__}: {exc}") from None
    if code != want_code:
        raise ProgramExit(f"exit {code}, want {want_code}")


def child_env(src):
    """The environment of every child: ``src`` first on the path, and no
    enumeration bound inherited from the caller."""
    env = dict(os.environ)
    env.pop("HOPFACT_ENUM_BOUND", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_child_plan(plan, src, errdir):
    env = child_env(src)
    jobs = []
    for i, (command, want, check) in enumerate(plan.commands):
        def run(ctx, command=command, want=want, check=check, i=i):
            argv = [sys.executable, "-m", "hopfact.cli"] + plan.argv(command)
            code, out, rss = run_child(argv, env, os.path.join(errdir, f"cli-{i}.stderr"))
            res = ctx["result"]
            res.child_rss_mb = max(res.child_rss_mb, rss)
            cli_check(want, check, code, out)
        jobs.append(Job(" ".join(command), run))
    return jobs


def cli_inprocess_plan(plan):
    """The same commands through ``hopfact.cli.main`` in this process."""
    jobs = []
    for command, want, check in plan.commands:
        def run(ctx, command=command, want=want, check=check):
            from hopfact import cli
            saved = os.environ.get("HOPFACT_ENUM_BOUND")
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(plan.argv(command))
            finally:
                # cli.main writes --bound into the environment and leaves it
                if saved is None:
                    os.environ.pop("HOPFACT_ENUM_BOUND", None)
                else:
                    os.environ["HOPFACT_ENUM_BOUND"] = saved
            cli_check(want, check, code, buf.getvalue())
        jobs.append(Job(" ".join(command), run))
    return jobs


def run_child(argv, env, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run one child to its end; return (exit code, stdout, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        chunks = []
        deadline = time.monotonic() + timeout
        fd = proc.stdout.fileno()
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    break
                ready, _, _ = select.select([fd], [], [], left)
                if ready:
                    data = os.read(fd, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode(), usage.ru_maxrss / 1024.0
