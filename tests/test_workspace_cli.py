import json
import os
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
