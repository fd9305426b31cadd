"""The lazy ``hopfact`` namespace, the modules each load imports, and Report."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import hopfact
from hopfact.report import PASS, Report

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
TRACER = os.path.join(HERE, os.pardir, "bench", "tracer.py")

# The names the package exported when it imported every layer eagerly, less
# the library-only functions since deleted from src.
EXPORTS = {
    "linalg": ["QQ", "GF", "Field", "Matrix", "Subspace", "rref", "kernel", "solve",
               "subspace_sum", "subspace_intersect", "is_stable", "closure",
               "largest_stable_inside", "pull_back", "enumerate_subspaces",
               "gaussian_binomial", "subspace_count", "EnumerationBound"],
    "hopf": ["FiniteAlgebra", "HopfAlgebra", "verify_algebra", "verify_hopf",
             "is_cocommutative", "is_group_basis", "group_algebra", "dual_hopf",
             "tensor_hopf", "tensor_algebra_prod", "sweedler_hopf",
             "restricted_line_hopf", "ideal_closure"],
    "action": ["ModuleAlgebraAction", "Representation", "verify_action", "comodule_map",
               "matrix_coefficients", "coefficient_subalgebra", "hit_action"],
    "convolution": ["ConvolutionAlgebra", "identity_report", "check_intertwining",
                    "check_dotinv", "check_transport", "check_dotinv_lattice",
                    "stability_scan", "transport_subspace", "restrict_subspace"],
    "ideals": ["Ideal", "core", "core_via_psi", "group_core_by_intersection", "radical",
               "radical_of_ideal", "is_semiprime", "is_prime", "spectrum",
               "SpectrumEntry", "center_subspace", "h_spectrum", "strata",
               "stratum_algebra", "verify_strat_bijection", "composite_core",
               "reformulation_check", "semiprime_core_check", "UnsupportedComputation"],
    "lie": ["LieAction", "verify_lie_action", "lie_core",
            "lie_semiprime_transfer_check", "pbw_comul", "TruncatedSeries",
            "monomial_cmp", "lowest_coefficient", "charp_grouplike_demo"],
    "workspace": ["Workspace", "WorkspaceError", "load_bundled"],
    "report": ["Report"],
}
EXPORTED = [(mod, name) for mod, names in EXPORTS.items() for name in names]

# The modules bench/tracer.py wraps; it reaches them through ``from hopfact
# import cli``, so the CLI must keep importing all of them.
TRACED_MODULES = {"action", "cli", "convolution", "hopf", "ideals", "lie", "linalg",
                  "report", "workspace"}
LOAD_MODULES = {"action", "hopf", "linalg", "report", "workspace"}
LATTICE_FP = ["kleinswap", "swap2", "grading2", "f2c2", "f2klein", "f2xf2", "f2c2dual"]


# -- which modules a step imports --------------------------------------------------

_STATE_PROBE = """
import json, os, sys
import hopfact
def state(step):
    mods = sorted(m[len("hopfact."):] for m in sys.modules if m.startswith("hopfact."))
    steps.append({"step": step, "modules": mods,
                  "dataclasses": "dataclasses" in sys.modules})
steps = []
state("import hopfact")
from hopfact.workspace import Workspace
fixtures = json.loads(sys.argv[1])
loaded = []
for step, names in fixtures:
    loaded += [os.path.join(sys.argv[2], name + ".json") for name in names]
    Workspace.load(loaded, verify=True)
    state(step)
from hopfact import cli
state("import hopfact.cli")
print(json.dumps(steps))
"""


def _state_probe(fixtures):
    env = dict(os.environ, PYTHONPATH=SRC)
    fixture_dir = os.path.join(SRC, "hopfact", "fixtures")
    done = subprocess.run([sys.executable, "-c", _STATE_PROBE, json.dumps(fixtures),
                           fixture_dir],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {s["step"]: s for s in json.loads(done.stdout)}


def test_each_step_imports_only_what_it_needs():
    steps = _state_probe([["lattice-fp", LATTICE_FP], ["ideal", ["aug2"]],
                          ["lie", ["f2nilshift", "f2jet"]]])
    assert steps["import hopfact"]["modules"] == []
    assert set(steps["lattice-fp"]["modules"]) == LOAD_MODULES
    assert not steps["lattice-fp"]["dataclasses"]
    assert set(steps["ideal"]["modules"]) == LOAD_MODULES | {"ideals"}
    assert not steps["ideal"]["dataclasses"]
    assert set(steps["lie"]["modules"]) == LOAD_MODULES | {"ideals", "lie"}
    assert TRACED_MODULES <= set(steps["import hopfact.cli"]["modules"])


def test_traced_modules_match_the_tracer():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    wrapped = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    modules = {row.elts[1].value for row in wrapped.elts}
    assert modules == {f"hopfact.{m}" for m in TRACED_MODULES}


# -- the lazy namespace ------------------------------------------------------------

@pytest.mark.parametrize("mod,name", EXPORTED)
def test_exported_name_is_the_submodule_object(mod, name):
    assert getattr(hopfact, name) is getattr(importlib.import_module(f"hopfact.{mod}"), name)


def test_star_import_and_dir_list_every_exported_name():
    assert sorted(hopfact.__all__) == sorted(name for _, name in EXPORTED)
    namespace = {}
    exec("from hopfact import *", namespace)
    for mod, name in EXPORTED:
        assert namespace[name] is getattr(importlib.import_module(f"hopfact.{mod}"), name)
    assert {name for _, name in EXPORTED} <= set(dir(hopfact))
    assert "__version__" in dir(hopfact)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hopfact.no_such_name
    assert not hasattr(hopfact, "stable_subspaces_")
    with pytest.raises(ImportError):
        exec("from hopfact import no_such_name", {})


def test_submodules_are_attributes_of_the_package():
    assert hopfact.linalg is importlib.import_module("hopfact.linalg")
    assert hopfact.convolution is importlib.import_module("hopfact.convolution")


def test_a_patched_submodule_name_is_seen_and_undone(monkeypatch):
    original = hopfact.kernel

    def patched(*args):
        return original(*args)

    monkeypatch.setattr(hopfact.linalg, "kernel", patched)
    assert hopfact.kernel is patched
    monkeypatch.undo()
    assert hopfact.kernel is original


# -- Report as a plain class -------------------------------------------------------

DataclassReport = dataclasses.make_dataclass("Report", [
    ("check", str),
    ("status", str, dataclasses.field(default=PASS)),
    ("witnesses", list, dataclasses.field(default_factory=list)),
    ("details", dict, dataclasses.field(default_factory=dict)),
    ("timing_ms", "float | None", dataclasses.field(default=None)),
])

REPORT_ARGS = [
    ("algebra-axioms",),
    ("hopf-axioms", "fail"),
    ("core", "pass", [{"i": 1}], {"dim": 2}),
    ("spectrum", "error", [], {"reason": "no split"}, 1.5),
]


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(DataclassReport)}


@pytest.mark.parametrize("args", REPORT_ARGS)
def test_report_matches_the_dataclass_it_replaced(args):
    names = [f.name for f in dataclasses.fields(DataclassReport)]
    old = DataclassReport(*args)
    for new in (Report(*args), Report(**dict(zip(names, args)))):
        assert _fields(new) == _fields(old)
        assert repr(new) == repr(old)
        assert new == Report(*args)
        assert new != Report(*args[:4], timing_ms=99.0)
    assert list(inspect.signature(Report).parameters) == names


def test_reports_do_not_share_payloads():
    a, b = Report("x"), Report("x")
    a.fail({"w": 1}, note="n")
    assert b.witnesses == [] and b.details == {}
    assert a != b
    assert a != DataclassReport("x") and a != "x"
    with pytest.raises(TypeError):
        hash(a)
