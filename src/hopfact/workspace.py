"""Fixture loading: named registries with verification at load time."""

from __future__ import annotations

import json
import os

from .linalg import Field, nonzero_terms, parse_dense
from .hopf import (FiniteAlgebra, HopfAlgebra, group_algebra, verify_algebra,
                   verify_hopf)
from .action import ModuleAlgebraAction, Representation, verify_action
from .report import Report

# The lie and ideals layers are imported only by the fixture kinds that need
# them, so that a load of Hopf algebras, algebras and actions stays small.


class WorkspaceError(Exception):
    """Parse or verification failure while loading fixtures."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _classify(obj):
    if "group_table" in obj or "comul" in obj:
        return "hopf"
    if "tensor" in obj:
        return "action"
    if "derivations" in obj:
        return "lie"
    if "generators" in obj:
        return "ideal"
    if "rho" in obj:
        return "representation"
    if "mult" in obj:
        return "algebra"
    raise WorkspaceError(f"cannot classify fixture object with keys {sorted(obj)}")


class Workspace:
    """Named fixtures, all verified: loading fails loudly on bad axioms."""

    def __init__(self):
        self.hopfs = {}
        self.algebras = {}
        self.actions = {}
        self.lie_actions = {}
        self.ideals = {}
        self.representations = {}

    @classmethod
    def load(cls, paths, verify=True):
        """Load the fixtures in a list of JSON files and directories of them."""
        if isinstance(paths, (str, os.PathLike)):
            raise TypeError("Workspace.load takes a list of paths, not one path: "
                            f"pass [{paths!r}]")
        ws = cls()
        files = []
        for p in paths:
            if os.path.isdir(p):
                files.extend(sorted(os.path.join(p, f) for f in os.listdir(p)
                                    if f.endswith(".json")))
            else:
                files.append(p)
        parsed = []
        for path in files:
            try:
                with open(path) as fh:
                    obj = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise WorkspaceError(f"{path}: {exc}") from exc
            name = obj.get("name") or os.path.splitext(os.path.basename(path))[0]
            parsed.append((path, name, _classify(obj), obj))
        order = {"hopf": 0, "algebra": 0, "action": 1, "lie": 1, "ideal": 1,
                 "representation": 1}
        parsed.sort(key=lambda row: (order[row[2]], row[0]))
        for path, name, kind, obj in parsed:
            try:
                ws._add(name, kind, obj, verify)
            except WorkspaceError:
                raise
            except (ValueError, KeyError) as exc:
                raise WorkspaceError(f"{path}: {exc}") from exc
        return ws

    def _register(self, registry, name, value):
        if name in registry:
            raise WorkspaceError(f"duplicate fixture name {name!r}")
        registry[name] = value

    def _add(self, name, kind, obj, verify):
        if kind == "hopf":
            h = load_hopf(obj, name)
            if verify:
                _require(verify_hopf(h), name)
            self._register(self.hopfs, name, h)
            self.algebras.setdefault(name, h.alg)
        elif kind == "algebra":
            a = load_algebra(obj, name)
            if verify:
                _require(verify_algebra(a), name)
            self._register(self.algebras, name, a)
        elif kind == "action":
            act = ModuleAlgebraAction(
                self._get(self.hopfs, obj["hopf"], "hopf algebra"),
                self._get(self.algebras, obj["algebra"], "algebra"),
                obj["tensor"], name=name)
            if verify:
                _require(verify_action(act), name)
            self._register(self.actions, name, act)
        elif kind == "lie":
            from .lie import LieAction, verify_lie_action
            alg = self._get(self.algebras, obj["algebra"], "algebra")
            lact = LieAction(alg, obj["derivations"], obj.get("brackets"),
                             name=name)
            if verify:
                _require(verify_lie_action(lact), name)
            self._register(self.lie_actions, name, lact)
        elif kind == "ideal":
            from .ideals import Ideal
            alg = self._get(self.algebras, obj["algebra"], "algebra")
            ideal = Ideal.generate(alg, obj.get("generators", []), name=name)
            self._register(self.ideals, name, ideal)
        elif kind == "representation":
            h = self._get(self.hopfs, obj["hopf"], "hopf algebra")
            rho = obj["rho"] if isinstance(obj["rho"], dict) else {}
            for i in range(h.dim):
                if str(i) not in rho:
                    raise ValueError(f"rho: no matrix for Hopf basis element {i}")
            rep = Representation(h, [rho[str(i)] for i in range(h.dim)], name=name)
            if verify:
                _require(rep.verify(), name)
            self._register(self.representations, name, rep)

    def _get(self, registry, name, what):
        if name not in registry:
            raise WorkspaceError(f"unresolved {what} reference {name!r}")
        return registry[name]

    def verify_all(self):
        """Re-run every verifier; one report per object."""
        out = []
        for name, a in sorted(self.algebras.items()):
            rep = verify_algebra(a)
            rep.details["object"] = name
            out.append(rep)
        for name, h in sorted(self.hopfs.items()):
            rep = verify_hopf(h)
            rep.details["object"] = name
            out.append(rep)
        for name, act in sorted(self.actions.items()):
            rep = verify_action(act)
            rep.details["object"] = name
            out.append(rep)
        if self.lie_actions:
            from .lie import verify_lie_action
        for name, lact in sorted(self.lie_actions.items()):
            rep = verify_lie_action(lact)
            rep.details["object"] = name
            out.append(rep)
        for name, r in sorted(self.representations.items()):
            rep = r.verify()
            rep.details["object"] = name
            out.append(rep)
        return out


def _require(report: Report, name):
    if not report.ok:
        raise WorkspaceError(
            f"fixture {name!r} failed verification: {report.witnesses[:3]}",
            report=report)


def load_algebra(obj, name=None) -> FiniteAlgebra:
    field = Field.from_json(obj["field"])
    return FiniteAlgebra(field, obj["dim"], obj["mult"], obj["unit"],
                         name=obj.get("name") or name)


def load_hopf(obj, name=None) -> HopfAlgebra:
    """Parse a Hopf algebra: a group table, or the dense JSON matrices
    (comul n^2 x n with row i*n + k, antipode n x n), read into terms once."""
    field = Field.from_json(obj["field"])
    if "group_table" in obj:
        return group_algebra(obj["group_table"], field,
                             name=obj.get("name") or name)
    alg = load_algebra(obj, name)
    n = alg.dim
    comul = parse_dense(field, obj["comul"], (n * n, n), "comul")
    antipode = parse_dense(field, obj["antipode"], (n, n), "antipode")
    return HopfAlgebra(
        alg, [[(r // n, r % n, c) for r, c in nonzero_terms(field, col)]
              for col in zip(*comul)],
        parse_dense(field, obj["counit"], (n,), "counit"),
        [nonzero_terms(field, col) for col in zip(*antipode)],
        name=obj.get("name") or name)


def bundled_fixture_dir():
    """Directory of the JSON corpus shipped inside the package."""
    return os.path.join(os.path.dirname(__file__), "fixtures")


def load_bundled(verify=True) -> Workspace:
    return Workspace.load([bundled_fixture_dir()], verify=verify)
