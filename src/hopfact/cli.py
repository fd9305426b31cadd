"""Batch command-line interface.

Exit codes: 0 for pass (including counterexamples the theory predicts in
positive characteristic), 1 for a genuine contradiction of a theorem-level
check, 2 for usage, parse or verifier errors, 3 for an internal error (any
other exception, reported as ``internal-error``).  Reports render as text
by default and as deterministic JSON with --json (the timing field varies
and is excluded from byte comparisons).
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import GF, QQ, EnumerationBound
from .report import Report, FAIL, ERROR
from .workspace import Workspace, WorkspaceError, bundled_fixture_dir
from .convolution import (ConvolutionAlgebra, check_dotinv, check_intertwining,
                          check_transport, stability_scan, transport_subspace)
from .ideals import (core, core_via_psi, radical, spectrum, strata,
                     stratum_algebra, verify_strat_bijection, composite_core,
                     reformulation_check, semiprime_core_check,
                     UnsupportedComputation)
from .lie import (lie_core, lie_semiprime_transfer_check, charp_grouplike_demo,
                  phi_multiplicativity_report, algebra_map_functional,
                  indices_up_to)


class InputError(Exception):
    pass


def _action(ws, name):
    if name not in ws.actions:
        raise InputError(f"unknown action fixture {name!r}; "
                        f"available: {sorted(ws.actions)}")
    return ws.actions[name]


def _algebra(ws, name):
    if name not in ws.algebras:
        raise InputError(f"unknown algebra fixture {name!r}")
    return ws.algebras[name]


def _lie(ws, name):
    if name not in ws.lie_actions:
        raise InputError(f"unknown derivation fixture {name!r}")
    return ws.lie_actions[name]


def _ideal(ws, name, alg):
    if name not in ws.ideals:
        raise InputError(f"unknown ideal fixture {name!r}")
    ideal = ws.ideals[name]
    if ideal.alg is not alg:
        raise InputError(f"ideal {name!r} lives on {ideal.alg.name!r}, "
                        f"not on {alg.name!r}")
    return ideal


def _ideal_payload(ideal):
    F = ideal.alg.field
    return {"algebra": ideal.alg.name, "dim": ideal.dim,
            "basis": [[F.render(c) for c in row] for row in ideal.space.rows]}


def cmd_verify(ws, args):
    return ws.verify_all()


def cmd_core(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    out = core(act, ideal)
    return Report("core", details={"action": args.action, "ideal": args.ideal,
                                   "core": _ideal_payload(out)})


def cmd_core_psi(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    via = core_via_psi(act, ideal)
    direct = core(act, ideal)
    rep = Report("core-via-twist",
                 details={"action": args.action, "ideal": args.ideal,
                          "core": _ideal_payload(via),
                          "agrees-with-direct": via.space == direct.space})
    if via.space != direct.space:
        rep.fail({"reason": "twist route disagrees with the direct core"})
    return rep


def cmd_radical(ws, args):
    alg = _algebra(ws, args.algebra)
    out = radical(alg)
    return Report("radical", details={"algebra": args.algebra,
                                      "radical": _ideal_payload(out)})


def cmd_spectrum(ws, args):
    alg = _algebra(ws, args.algebra)
    entries = spectrum(alg)
    return Report("spectrum", details={
        "algebra": args.algebra,
        "entries": [{"prime": _ideal_payload(e.prime),
                     "simple_quotient_dim": e.simple_quotient_dim,
                     "heart_dim": e.heart_dim, "inert": e.inert}
                    for e in entries]})


def cmd_strata(ws, args):
    act = _action(ws, args.action)
    fibers = strata(act)
    return Report("strata", details={
        "action": args.action,
        "fibers": [{"core": _ideal_payload(base),
                    "primes": [_ideal_payload(e.prime) for e in entries]}
                   for base, entries in fibers]})


def cmd_stratum_algebra(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    sa = stratum_algebra(act, ideal)
    return Report("stratum-algebra", details={
        "action": args.action, "ideal": args.ideal,
        "dim": sa.algebra.dim,
        "commutative": sa.algebra.is_commutative(),
        "h-primes": [_ideal_payload(hp) for hp in sa.h_primes],
        "stable-primes": [_ideal_payload(e.prime) for e in sa.stable_primes]})


def _bound(args):
    """The --bound enumeration cap, refused below 1."""
    if args.bound is not None and args.bound < 1:
        raise InputError(f"--bound must be at least 1, got {args.bound}")
    return args.bound


def cmd_strat_bijection(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    return verify_strat_bijection(act, ideal, bound=_bound(args))


def cmd_transport(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    conv = ConvolutionAlgebra(act)
    t = transport_subspace(conv, ideal.space)
    rep = check_transport(conv, ideal.space, t)
    F = act.field
    rep.details["transported-basis"] = [[F.render(c) for c in row] for row in t.rows]
    return rep


def cmd_stability_scan(ws, args):
    act = _action(ws, args.action)
    return stability_scan(ConvolutionAlgebra(act), bound=_bound(args))


def cmd_dotinv(ws, args):
    act = _action(ws, args.action)
    return check_dotinv(ConvolutionAlgebra(act))


def cmd_intertwine(ws, args):
    act = _action(ws, args.action)
    return check_intertwining(ConvolutionAlgebra(act))


def cmd_lie_core(ws, args):
    lact = _lie(ws, args.lie)
    ideal = _ideal(ws, args.ideal, lact.alg)
    out = lie_core(lact, ideal)
    return Report("derivation-core", details={
        "lie": args.lie, "ideal": args.ideal, "core": _ideal_payload(out)})


def cmd_lie_transfer(ws, args):
    lact = _lie(ws, args.lie)
    ideal = _ideal(ws, args.ideal, lact.alg)
    return lie_semiprime_transfer_check(lact, ideal)


def cmd_series_phi(ws, args):
    if args.nvars < 1:
        raise InputError(f"--nvars must be at least 1, got {args.nvars}")
    if args.degree < 0:
        raise InputError(f"--degree must be at least 0, got {args.degree}")
    field = _field_for(args.prime)
    trunc = args.degree
    pairs = []
    gens = [[1] * args.nvars, [2] + [1] * (args.nvars - 1)]
    f = algebra_map_functional(field, args.nvars, trunc, gens[0])
    g = algebra_map_functional(field, args.nvars, trunc, gens[1])
    pairs.append((f, g))
    for idx in indices_up_to(args.nvars, min(2, trunc)):
        pairs.append(({idx: field.one}, f))
    return phi_multiplicativity_report(field, args.nvars, trunc, pairs)


def cmd_charp_demo(ws, args):
    return charp_grouplike_demo(args.prime)


def cmd_composite_core(ws, args):
    lact = _lie(ws, args.lie)
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    if lact.alg is not act.alg:
        raise InputError("derivations and Hopf action live on different algebras")
    out = composite_core(lact, act, ideal)
    return Report("composite-core", details={
        "lie": args.lie, "action": args.action, "ideal": args.ideal,
        "core": _ideal_payload(out)})


def cmd_reformulation(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    return reformulation_check(act, ideal)


def cmd_semiprime_core(ws, args):
    act = _action(ws, args.action)
    ideal = _ideal(ws, args.ideal, act.alg)
    return semiprime_core_check(act, ideal)


def cmd_suite(ws, args):
    from .suites import run_suite, SUITES    # only this command needs them
    if args.name not in SUITES:
        raise InputError(f"unknown suite {args.name!r}; "
                        f"available: {sorted(SUITES)}")
    return run_suite(args.name, ws)


def _field_for(prime):
    return QQ if not prime else GF(prime)


COMMANDS = {
    "verify": (cmd_verify, []),
    "core": (cmd_core, ["action", "ideal"]),
    "core-psi": (cmd_core_psi, ["action", "ideal"]),
    "radical": (cmd_radical, ["algebra"]),
    "spectrum": (cmd_spectrum, ["algebra"]),
    "strata": (cmd_strata, ["action"]),
    "stratum-algebra": (cmd_stratum_algebra, ["action", "ideal"]),
    "strat-bijection": (cmd_strat_bijection, ["action", "ideal"]),
    "transport": (cmd_transport, ["action", "ideal"]),
    "stability-scan": (cmd_stability_scan, ["action"]),
    "dotinv": (cmd_dotinv, ["action"]),
    "intertwine": (cmd_intertwine, ["action"]),
    "lie-core": (cmd_lie_core, ["lie", "ideal"]),
    "lie-transfer": (cmd_lie_transfer, ["lie", "ideal"]),
    "series-phi": (cmd_series_phi, ["series"]),
    "charp-demo": (cmd_charp_demo, ["prime"]),
    "composite-core": (cmd_composite_core, ["lie", "action", "ideal"]),
    "reformulation": (cmd_reformulation, ["action", "ideal"]),
    "semiprime-core": (cmd_semiprime_core, ["action", "ideal"]),
    "suite": (cmd_suite, ["suite-name"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfact",
        description="Exact workbench for Hopf algebra actions: cores, "
                    "radicals, spectra, strata, convolution identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, needs) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--fixtures", default=None,
                       help="fixture directory (default: bundled corpus)")
        p.add_argument("--json", action="store_true", help="emit JSON reports")
        p.add_argument("--bound", type=int, default=None,
                       help="enumeration cap on p**dim for stability-scan "
                            "and strat-bijection")
        if "action" in needs:
            p.add_argument("--action", required=True)
        if "algebra" in needs:
            p.add_argument("--algebra", required=True)
        if "lie" in needs:
            p.add_argument("--lie", required=True)
        if "ideal" in needs:
            p.add_argument("--ideal", required=True)
        if "prime" in needs:
            p.add_argument("--prime", type=int, required=True)
        if "series" in needs:
            p.add_argument("--nvars", type=int, default=1)
            p.add_argument("--degree", type=int, default=6)
            p.add_argument("--prime", type=int, default=0)
        if "suite-name" in needs:
            p.add_argument("name")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:    # not one of the mapped errors: a fault here
        import traceback
        traceback.print_exc()
        _emit(args.json, [{"check": args.command, "status": "internal-error",
                           "reason": f"{type(exc).__name__}: {exc}"}])
        return 3


def _run(args):
    try:
        fixture_dirs = [args.fixtures] if args.fixtures else [bundled_fixture_dir()]
        ws = Workspace.load(fixture_dirs)
    except WorkspaceError as exc:
        payload = {"check": "load", "status": "error", "reason": str(exc)}
        if exc.report is not None:
            payload["report"] = exc.report.to_json_dict(with_timing=False)
        _emit(getattr(args, "json", False), [payload])
        return 2
    try:
        result = args.fn(ws, args)
    except (InputError, UnsupportedComputation, EnumerationBound,
            ValueError, KeyError) as exc:
        _emit(args.json, [{"check": args.command, "status": "error",
                           "reason": str(exc)}])
        return 2
    reports = result if isinstance(result, list) else [result]
    payload = [r.to_json_dict() if isinstance(r, Report) else r for r in reports]
    if args.json:
        _emit(True, payload)
    else:
        for r in reports:
            print(r.render_text() if isinstance(r, Report) else json.dumps(r))
    statuses = [r.status if isinstance(r, Report) else r.get("status")
                for r in reports]
    if any(s == ERROR for s in statuses):
        return 2
    if any(s == FAIL for s in statuses):
        return 1
    return 0


def _emit(as_json, payload):
    if as_json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for item in payload:
            print(json.dumps(item, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
