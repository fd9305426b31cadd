"""Write the golden JSON reports: ``python3 tests/golden/write_goldens.py``.

Each golden file ``<command>.json`` holds, for one CLI command, the exit
code and the ``--json`` reports of ``hopfact.cli.main`` on every bundled
fixture combination the command takes (``timing_ms`` removed); the
commands without fixtures run on fixed argument sets (``series-phi`` over
``--nvars`` 1-2 and ``--prime`` 0/2/3, ``charp-demo`` for 2/3/5, ``suite``
for ``all`` and one unknown name).
``tests/test_golden.py`` recomputes every case and compares the files byte
for byte.  The script takes no options and rewrites every golden file;
running it is a deliberate act (see the README).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from hopfact import cli                            # noqa: E402
from hopfact.workspace import Workspace, load_bundled   # noqa: E402

ACTION_COMMANDS = ["dotinv", "intertwine", "stability-scan"]
ACTION_IDEAL_COMMANDS = ["core", "core-psi", "transport", "strat-bijection",
                         "stratum-algebra", "reformulation", "semiprime-core"]
LIE_IDEAL_COMMANDS = ["lie-core", "lie-transfer"]
COMMANDS = (ACTION_COMMANDS + ACTION_IDEAL_COMMANDS + LIE_IDEAL_COMMANDS
            + ["composite-core", "verify", "radical", "spectrum", "strata",
               "series-phi", "charp-demo", "suite"])


def cases(ws):
    """{command: [argv, ...]} over every fixture combination, sorted by name."""
    ideals = sorted(ws.ideals.items())
    actions = sorted(ws.actions.items())
    lies = sorted(ws.lie_actions.items())
    out = {c: [] for c in COMMANDS}
    out["verify"].append(["verify"])
    for alg_name in sorted(ws.algebras):
        for c in ("radical", "spectrum"):
            out[c].append([c, "--algebra", alg_name])
    for nvars in (1, 2):
        for prime in (0, 2, 3):
            out["series-phi"].append(["series-phi", "--nvars", str(nvars),
                                      "--prime", str(prime)])
    for prime in (2, 3, 5):
        out["charp-demo"].append(["charp-demo", "--prime", str(prime)])
    # The other suite names are fixed subsets of the criteria run by "all".
    out["suite"] += [["suite", "all"], ["suite", "no-such-suite"]]
    for aname, act in actions:
        out["strata"].append(["strata", "--action", aname])
        for c in ACTION_COMMANDS:
            out[c].append([c, "--action", aname])
        for iname, ideal in ideals:
            if ideal.alg is act.alg:
                for c in ACTION_IDEAL_COMMANDS:
                    out[c].append([c, "--action", aname, "--ideal", iname])
    for lname, lact in lies:
        for iname, ideal in ideals:
            if ideal.alg is not lact.alg:
                continue
            for c in LIE_IDEAL_COMMANDS:
                out[c].append([c, "--lie", lname, "--ideal", iname])
            for aname, act in actions:
                if act.alg is lact.alg:
                    out["composite-core"].append(
                        ["composite-core", "--lie", lname, "--action", aname,
                         "--ideal", iname])
    return out


@contextlib.contextmanager
def shared_workspace(ws):
    """Let every ``cli.main`` call reuse one verified load of the corpus."""
    original = Workspace.load
    Workspace.load = classmethod(lambda cls, paths, verify=True: ws)
    try:
        yield
    finally:
        Workspace.load = original


def capture(argv):
    """Exit code and parsed ``--json`` reports of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    reports = json.loads(buf.getvalue())
    for rep in reports:
        rep.pop("timing_ms", None)
    return {"argv": argv, "exit": code, "reports": reports}


def render(command_cases):
    return json.dumps([capture(argv) for argv in command_cases],
                      indent=1, sort_keys=True) + "\n"


def golden_path(command):
    return os.path.join(HERE, f"{command}.json")


def main():
    ws = load_bundled(verify=True)
    with shared_workspace(ws):
        for command, argvs in cases(ws).items():
            with open(golden_path(command), "w") as fh:
                fh.write(render(argvs))
            print(f"wrote {golden_path(command)} ({len(argvs)} cases)")


if __name__ == "__main__":
    main()
