import json
import os
import subprocess
import sys
import time

import pytest

from hopfact import cli
from hopfact.cli import main
from hopfact.fixtures import build_corpus, write_corpus
from hopfact.workspace import (Workspace, WorkspaceError, bundled_fixture_dir,
                               load_bundled)


def test_bundled_corpus_loads_clean(ws):
    assert ws.actions and ws.hopfs and ws.lie_actions and ws.ideals
    reports = ws.verify_all()
    assert all(r.ok for r in reports)


def test_corpus_files_match_builders(tmp_path):
    # the shipped JSON must be byte-identical to what the builders emit
    write_corpus(str(tmp_path))
    shipped = bundled_fixture_dir()
    names = sorted(os.listdir(shipped))
    assert names == sorted(os.listdir(tmp_path))
    for name in names:
        with open(os.path.join(shipped, name), "rb") as fh:
            a = fh.read()
        with open(tmp_path / name, "rb") as fh:
            b = fh.read()
        assert a == b, f"fixture drift in {name}"


def test_fixture_roundtrip(tmp_path, ws):
    # serialize, re-load, compare structure constants
    write_corpus(str(tmp_path))
    ws2 = Workspace.load([str(tmp_path)])
    for name, h in ws.hopfs.items():
        other = ws2.hopfs[name]
        assert other.alg.mult == h.alg.mult
        assert other.comul.data == h.comul.data
        assert other.antipode.data == h.antipode.data
    for name, act in ws.actions.items():
        assert ws2.actions[name].tensor == act.tensor
    for name, ideal in ws.ideals.items():
        assert ws2.ideals[name].space == ideal.space


def test_load_rejects_corrupted_comul(tmp_path):
    corpus = build_corpus()
    obj = corpus["hopfs"]["qc2"].to_json()
    obj["comul"][0][0] = "7"     # breaks coassociativity/counit
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(WorkspaceError):
        Workspace.load([str(path)])


def test_load_rejects_duplicates(tmp_path):
    obj = build_corpus()["hopfs"]["qc2"].to_json()
    (tmp_path / "a.json").write_text(json.dumps(obj))
    (tmp_path / "b.json").write_text(json.dumps(obj))
    with pytest.raises(WorkspaceError, match="duplicate"):
        Workspace.load([str(tmp_path)])


def test_load_rejects_unresolved_reference(tmp_path):
    act = build_corpus()["actions"]["swap"].to_json()
    (tmp_path / "dangling.json").write_text(json.dumps(act))
    with pytest.raises(WorkspaceError, match="unresolved"):
        Workspace.load([str(tmp_path)])


def test_load_rejects_one_path(tmp_path):
    # a str would be iterated character by character, and "/" loads the root
    path = tmp_path / "qc2.json"
    path.write_text(json.dumps(build_corpus()["hopfs"]["qc2"].to_json()))
    for one in (str(path), path):
        with pytest.raises(TypeError, match="list of paths"):
            Workspace.load(one)
    assert list(Workspace.load([str(path)]).hopfs) == ["qc2"]


def test_cli_core_example(capsys):
    assert main(["core", "--action", "grading2", "--ideal", "aug2"]) == 0
    out = capsys.readouterr().out
    assert "core" in out and '"dim":0' in out.replace(" ", "")


def test_cli_counterexample_exits_zero(capsys):
    code = main(["semiprime-core", "--action", "grading2", "--ideal", "aug2"])
    assert code == 0
    assert "COUNTEREXAMPLE" in capsys.readouterr().out


def test_cli_dotinv_sweedler(capsys):
    assert main(["dotinv", "--action", "sweedler-act"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out


def test_cli_unknown_fixture_is_usage_error(capsys):
    assert main(["core", "--action", "nosuch", "--ideal", "aug2"]) == 2
    assert main(["core", "--action", "swap", "--ideal", "aug2"]) == 2


def test_cli_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_corrupt_fixture_dir(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    code = main(["core", "--fixtures", str(tmp_path),
                 "--action", "x", "--ideal", "y"])
    assert code == 2


def test_cli_json_deterministic(capsys):
    argv = ["spectrum", "--algebra", "qc3", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip_timing(text):
        payload = json.loads(text)
        for item in payload:
            item.pop("timing_ms", None)
        return json.dumps(payload, sort_keys=True)

    assert strip_timing(first) == strip_timing(second)
    entries = json.loads(first)[0]["details"]["entries"]
    assert sorted(e["heart_dim"] for e in entries) == [1, 2]


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_radical_strata_lie(capsys):
    assert main(["radical", "--algebra", "f2c2"]) == 0
    assert main(["spectrum", "--algebra", "m2q"]) == 0
    assert main(["strata", "--action", "swap"]) == 0
    assert main(["stratum-algebra", "--action", "conj", "--ideal", "zero-m2q"]) == 0
    assert main(["strat-bijection", "--action", "conj", "--ideal", "zero-m2q"]) == 0
    assert main(["transport", "--action", "grading2", "--ideal", "aug2"]) == 0
    assert main(["stability-scan", "--action", "swap2"]) == 0
    assert main(["intertwine", "--action", "sweedler-act"]) == 0
    assert main(["lie-core", "--lie", "nilshift", "--ideal", "xline"]) == 0
    assert main(["lie-transfer", "--lie", "euler", "--ideal", "xbar"]) == 0
    assert main(["charp-demo", "--prime", "5"]) == 0
    assert main(["series-phi", "--nvars", "2", "--degree", "4"]) == 0
    assert main(["composite-core", "--lie", "nilshift", "--action", "c2jet",
                 "--ideal", "xline"]) == 0
    assert main(["reformulation", "--action", "grading2", "--ideal", "zero-f2c2"]) == 0
    assert main(["core-psi", "--action", "swap", "--ideal", "half"]) == 0
    capsys.readouterr()


def test_cli_radical_refusal_is_error(tmp_path, capsys):
    # build a fixture dir with a noncommutative F_2 algebra: radical refuses
    from hopfact.hopf import matrix_algebra
    from hopfact.linalg import GF
    obj = matrix_algebra(GF(2), 2, name="f2m2").to_json()
    (tmp_path / "f2m2.json").write_text(json.dumps(obj))
    code = main(["radical", "--fixtures", str(tmp_path), "--algebra", "f2m2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "no exact route" in out


def test_cli_suite(capsys):
    assert main(["suite", "pbw"]) == 0
    out = capsys.readouterr().out
    assert "acceptance-9-pbw" in out
    assert main(["suite", "nosuchsuite"]) == 2
    capsys.readouterr()


def test_cli_report_roundtrip(capsys):
    # ideals echoed in reports re-load to equal objects
    assert main(["core", "--action", "swap", "--ideal", "half", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    echoed = payload[0]["details"]["core"]
    ws2 = load_bundled(verify=False)
    from hopfact.ideals import Ideal
    rebuilt = Ideal.generate(ws2.algebras[echoed["algebra"]], echoed["basis"])
    assert rebuilt.dim == echoed["dim"]
    from hopfact.ideals import core
    direct = core(ws2.actions["swap"], ws2.ideals["half"])
    assert rebuilt.space == direct.space


def test_enum_bound_env():
    from hopfact.linalg import GF, enumerate_subspaces, EnumerationBound
    with pytest.raises(EnumerationBound):
        list(enumerate_subspaces(GF(2), 3, bound=4))
    assert len(list(enumerate_subspaces(GF(2), 3, bound=8))) == 16


def test_group_table_fixture_form(tmp_path):
    obj = {"name": "c4", "field": {"kind": "rationals"},
           "group_table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    (tmp_path / "c4.json").write_text(json.dumps(obj))
    ws2 = Workspace.load([str(tmp_path)])
    assert ws2.hopfs["c4"].dim == 4
    from hopfact.hopf import is_cocommutative
    assert is_cocommutative(ws2.hopfs["c4"])


def test_cli_bound_does_not_leak_into_environment(capsys):
    # 2**4 vectors exceed the bound of 7: a refusal, exit 2
    assert main(["stability-scan", "--action", "swap2", "--bound", "7", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)[0]["status"] == "error"
    # the next call runs under the default bound again
    assert main(["stability-scan", "--action", "swap2", "--json"]) == 0


def test_cli_bound_reaches_strat_bijection(capsys):
    # both stratum images are certified through the enumerated lattice,
    # which a bound of one vector refuses
    argv = ["strat-bijection", "--action", "swap2", "--ideal", "zero-f2xf2", "--json"]
    assert main(argv) == 0
    default = json.loads(capsys.readouterr().out)[0]["details"]
    assert main(argv + ["--bound", "1"]) == 0
    capped = json.loads(capsys.readouterr().out)[0]["details"]
    assert (default["certified-h-prime"], capped["certified-h-prime"]) == (2, 0)


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["stability-scan", "--action", "kleinswap"],
    ["strat-bijection", "--action", "swap2", "--ideal", "zero-f2xf2"]])
def test_cli_rejects_bound_below_one(argv, bound, capsys):
    assert main(argv + ["--bound", bound, "--json"]) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error" and "--bound" in report["reason"]


@pytest.mark.parametrize("flags", [["--nvars", "0"], ["--nvars", "-1"],
                                   ["--degree", "-1"]])
def test_cli_series_phi_rejects_bad_sizes(flags, capsys):
    assert main(["series-phi", "--json"] + flags) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error"
    assert flags[0] in report["reason"]


def test_cli_series_phi_refuses_above_the_monomial_cap(capsys):
    # C(8 + 10, 10) = 43,758 monomials
    assert main(["series-phi", "--nvars", "8", "--degree", "10", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error"
    assert "SERIES_MONOMIAL_CAP" in report["reason"] and "43758" in report["reason"]


@pytest.mark.parametrize("nvars,degree,cap", [
    ("1", "0", None), ("1", "1", None), ("990", "0", None),
    ("1500", "1", "SERIES_CHECK_CAP"), ("2000", "0", "SERIES_MONOMIAL_CAP")])
def test_cli_series_phi_answers_or_names_its_cap(nvars, degree, cap, capsys):
    # inside the monomial cap: delta functionals are paired up to the degree
    # asked, and many variables refuse before the check walks them
    code = main(["series-phi", "--nvars", nvars, "--degree", degree, "--json"])
    report = json.loads(capsys.readouterr().out)[0]
    if cap is None:
        assert (code, report["status"]) == (0, "pass")
    else:
        assert (code, report["status"]) == (2, "error")
        assert cap in report["reason"]


def _k2_algebra():
    """k x k over F_2 in the dense fixture form."""
    return {"name": "k2", "field": {"kind": "prime-field", "p": 2}, "dim": 2,
            "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 1]}


def _c2_hopf():
    """QC_2 as a group-table fixture."""
    return {"name": "c2", "field": {"kind": "rationals"}, "group_table": [[0, 1], [1, 0]]}


def _ragged_comul():
    obj = build_corpus()["hopfs"]["qc2"].to_json()
    obj["comul"][1] = obj["comul"][1][:1]
    return obj


@pytest.mark.parametrize("obj, expected", [
    (dict(_k2_algebra(), mult=5), "mult:"),
    (dict(_k2_algebra(), unit=None), "unit:"),
    (dict(_k2_algebra(), field={"kind": "prime-field", "p": "2"}), "modulus p"),
    (_ragged_comul(), "comul:"),
    (dict(_k2_algebra(), field="rationals"), "field:"),
    ({"name": "c2", "field": {"kind": "rationals"}, "group_table": 5}, "group_table:"),
    (dict(_k2_algebra(), unit=[1, "x"]), "unit:"),
    ({"name": "r", "hopf": "c2", "rho": {"0": 5, "1": [[1]]}}, 'rho["0"]:'),
    ({"name": "r", "hopf": "c2", "rho": {"0": [["x"]], "1": [[1]]}}, 'rho["0"]:'),
])
def test_cli_malformed_fixture_is_load_error(tmp_path, capsys, obj, expected):
    if "rho" in obj:
        (tmp_path / "c2.json").write_text(json.dumps(_c2_hopf()))
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert main(["verify", "--fixtures", str(tmp_path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["check"] == "load" and report["status"] == "error"
    assert expected in report["reason"]


def test_cli_representation_without_rho_0_is_load_error(tmp_path, capsys):
    (tmp_path / "c2.json").write_text(json.dumps(_c2_hopf()))
    (tmp_path / "r.json").write_text(json.dumps(
        {"name": "r", "hopf": "c2", "rho": {"1": [["1"]]}}))
    assert main(["verify", "--fixtures", str(tmp_path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["check"] == "load" and report["status"] == "error"
    assert "rho: no matrix for Hopf basis element 0" in report["reason"]


def test_cli_charp_demo_refuses_large_prime(capsys):
    t0 = time.perf_counter()
    assert main(["charp-demo", "--prime", "1009", "--json"]) == 2
    assert time.perf_counter() - t0 < 5
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error" and "101" in report["reason"]


def test_cli_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    (tmp_path / "k2.json").write_text(json.dumps(_k2_algebra()))
    argv = ["verify", "--fixtures", str(tmp_path), "--json"]
    assert main(argv) == 0
    capsys.readouterr()

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli.COMMANDS, "verify", (boom, []))
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == [
        {"check": "verify", "status": "internal-error",
         "reason": "RuntimeError: injected"}]
    # the load is covered too
    monkeypatch.setattr(Workspace, "load", boom)
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)[0]["status"] == "internal-error"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs each argv (a JSON list in argv[1]) through cli.main in one fresh
# interpreter and prints, per step, the exit code, the reports without
# timing and whether sympy has been imported by then.  With block_sympy,
# sys.modules["sympy"] = None first, so that any import of sympy fails.
_IMPORT_PROBE = """
import contextlib, io, json, sys
steps = []
import hopfact
def loaded():
    return sys.modules.get("sympy") is not None
steps.append({"step": "import hopfact", "sympy": loaded()})
from hopfact import cli
steps.append({"step": "import hopfact.cli", "sympy": loaded()})
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    reports = json.loads(buf.getvalue())
    for rep in reports:
        rep.pop("timing_ms", None)
    steps.append({"step": argv, "exit": code, "reports": reports,
                  "sympy": loaded()})
print(json.dumps(steps))
"""


def _import_probe(argvs, block_sympy=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    prelude = 'import sys; sys.modules["sympy"] = None\n' if block_sympy else ""
    done = subprocess.run([sys.executable, "-c", prelude + _IMPORT_PROBE,
                           json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sympy_is_imported_only_to_factor():
    # sympy is a large import: only factoring a root-free factor of degree
    # >= 4 may load it, never the package, the CLI or these commands
    steps = _import_probe([
        ["verify"],
        ["core", "--action", "grading2", "--ideal", "aug2"],
        ["dotinv", "--action", "sweedler-act"],
        ["semiprime-core", "--action", "grading", "--ideal", "aug"],
        ["stability-scan", "--action", "swap2"],
        ["series-phi"],
        ["spectrum", "--algebra", "qxq"],
        ["spectrum", "--algebra", "f2xf2"],
        ["strata", "--action", "swap"],
        ["strata", "--action", "swap2"]])
    assert [s["step"] for s in steps if s["sympy"]] == []
    assert all(s["exit"] == 0 for s in steps[2:])
    spectra = {s["step"][2]: s["reports"][0]["details"]["entries"]
               for s in steps if s["step"][0] == "spectrum"}
    assert {name: len(entries) for name, entries in spectra.items()} == {
        "qxq": 2, "f2xf2": 2}


def _golden(command, argv):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", f"{command}.json")) as fh:
        case = next(case for case in json.load(fh) if case["argv"] == argv)
    return case["exit"], case["reports"]


def test_group_algebra_spectrum_imports_no_sympy():
    # QC_3 = Q x Q(w): t^3 - 1 has the root 1, and the root-free remainder
    # t^2 + t + 1 has degree 2, so it is irreducible with no sympy
    argv = ["spectrum", "--algebra", "qc3"]
    step = _import_probe([argv])[-1]
    assert not step["sympy"]
    assert (step["exit"], step["reports"]) == _golden("spectrum", argv)


def test_suite_all_runs_with_sympy_blocked():
    argvs = [["suite", "all"], ["spectrum", "--algebra", "qc3"]]
    steps = _import_probe(argvs, block_sympy=True)[2:]
    assert [(s["exit"], s["reports"]) for s in steps] == [
        _golden("suite", argvs[0]), _golden("spectrum", argvs[1])]


def test_cyclic_five_spectrum_imports_sympy(tmp_path, monkeypatch):
    # k[C5] = k x k[t]/(Phi_5) over Q and F_2: Phi_5 is a root-free quartic,
    # so its irreducibility comes from sympy
    from hopfact import ideals
    from hopfact.hopf import cyclic_group_table, group_algebra
    from hopfact.linalg import GF, QQ
    from test_merged_helpers import try_split_oracle
    for name, field in (("qc5", QQ), ("f2c5", GF(2))):
        with open(tmp_path / f"{name}.json", "w") as fh:
            json.dump(group_algebra(cyclic_group_table(5), field, name=name).to_json(), fh)
    argvs = [["spectrum", "--algebra", name, "--fixtures", str(tmp_path)]
             for name in ("qc5", "f2c5")]
    ws = Workspace.load([str(tmp_path)])
    monkeypatch.setattr(ideals, "_try_split", try_split_oracle)
    for step in _import_probe(argvs)[2:]:
        assert step["sympy"] and step["exit"] == 0
        alg = ws.algebras[step["step"][2]]
        want = [([[alg.field.render(c) for c in row] for row in e.prime.space.rows],
                 e.inert) for e in ideals.spectrum(alg)]
        got = [(e["prime"]["basis"], e["inert"])
               for e in step["reports"][0]["details"]["entries"]]
        assert got == want and [inert for _, inert in got] == [False, True]
    # with sympy blocked, the quartic cannot be factored: an internal error
    assert [s["exit"] for s in _import_probe(argvs, block_sympy=True)[2:]] == [3, 3]


@pytest.mark.parametrize("prime", ["4", "1", "0", "-3"])
@pytest.mark.parametrize("command", ["series-phi", "charp-demo"])
def test_cli_rejects_non_prime_modulus(command, prime, capsys):
    code = main([command, "--prime", prime, "--json"])
    report = json.loads(capsys.readouterr().out)[0]
    if command == "series-phi" and prime == "0":
        # --prime 0 is the documented default: the series over Q
        assert (code, report["status"]) == (0, "pass")
        return
    assert code == 2 and report["status"] == "error"
    assert f"modulus p must be a prime int, got {prime}" in report["reason"]


def test_cli_stability_scan_refuses_a_join_past_the_cap(tmp_path, capsys):
    # the trivial Hopf algebra on F_2^7: every one of its 29k subspaces is
    # stable, so the lattice join passes JOIN_CAP and refuses (exit 2)
    from hopfact.action import trivial_action
    from hopfact.hopf import cyclic_group_table, group_algebra, product_field_algebra
    from hopfact.linalg import GF, JOIN_CAP
    hopf = group_algebra(cyclic_group_table(1), GF(2), name="k")
    alg = product_field_algebra(GF(2), 7, name="k7")
    act = trivial_action(hopf, alg, name="triv7")
    for name, obj in (("k", hopf), ("k7", alg), ("triv7", act)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj.to_json()))
    argv = ["stability-scan", "--fixtures", str(tmp_path), "--action", "triv7", "--json"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "error"
    assert "JOIN_CAP" in report["reason"] and str(JOIN_CAP) in report["reason"]
