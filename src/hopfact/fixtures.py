"""The bundled fixture corpus.

Everything the acceptance batteries run on is constructed here by name;
``write_corpus`` serializes the same objects to the JSON files shipped with
the package, and a test pins the two representations against each other so
the files cannot drift from the builders.
"""

from __future__ import annotations

import itertools
import json
import os

from .linalg import QQ, GF, Matrix
from .hopf import (group_algebra, dual_hopf,
                   sweedler_hopf, cyclic_group_table, symmetric_group_table,
                   matrix_algebra, truncated_poly_algebra, product_field_algebra,
                   dual_number_plane_algebra, upper_triangular_algebra,
                   restricted_line_hopf)
from .action import (Representation, action_from_operators,
                     trivial_action, grading_action)
from .lie import LieAction


def _klein_table():
    # C2 x C2 with elements 0 = e, 1 = g, 2 = h, 3 = gh
    return [[i ^ j for j in range(4)] for i in range(4)]


def build_corpus():
    """All named fixtures: hopf algebras, algebras, actions, lie actions,
    ideals (as generator lists), representations."""
    f2, f3, f7 = GF(2), GF(3), GF(7)

    hopfs = {}
    for name, field in (("qc2", QQ), ("f2c2", f2), ("f3c2", f3)):
        hopfs[name] = group_algebra(cyclic_group_table(2), field, name=name)
    hopfs["qs3"] = group_algebra(symmetric_group_table(3), QQ, name="qs3")
    hopfs["qc3"] = group_algebra(cyclic_group_table(3), QQ, name="qc3")
    hopfs["f7c3"] = group_algebra(cyclic_group_table(3), f7, name="f7c3")
    hopfs["f2klein"] = group_algebra(_klein_table(), f2, name="f2klein")
    hopfs["qc2dual"] = dual_hopf(hopfs["qc2"], name="qc2dual")
    hopfs["f2c2dual"] = dual_hopf(hopfs["f2c2"], name="f2c2dual")
    hopfs["qs3dual"] = dual_hopf(hopfs["qs3"], name="qs3dual")
    hopfs["sweedler4"] = sweedler_hopf(QQ, name="sweedler4")
    hopfs["f3sweedler"] = sweedler_hopf(f3, name="f3sweedler")
    hopfs["line2"] = restricted_line_hopf(2, name="line2")

    algebras = {}
    algebras["qxq"] = product_field_algebra(QQ, 2, name="qxq")
    algebras["f2xf2"] = product_field_algebra(f2, 2, name="f2xf2")
    algebras["m2q"] = matrix_algebra(QQ, 2, name="m2q")
    algebras["qx3"] = truncated_poly_algebra(QQ, 3, name="qx3")
    algebras["f3x3"] = truncated_poly_algebra(f3, 3, name="f3x3")
    algebras["qy2"] = truncated_poly_algebra(QQ, 2, name="qy2")
    algebras["f3y2"] = truncated_poly_algebra(f3, 2, name="f3y2")
    algebras["qjet"] = dual_number_plane_algebra(QQ, name="qjet")
    algebras["f2jet"] = dual_number_plane_algebra(f2, name="f2jet")
    algebras["upper2q"] = upper_triangular_algebra(QQ, name="upper2q")
    for name, h in hopfs.items():
        algebras.setdefault(name, h.alg)

    actions = {}
    actions["swap"] = action_from_operators(
        hopfs["qc2"], algebras["qxq"],
        [Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [[0, 1], [1, 0]])],
        name="swap")
    actions["swap2"] = action_from_operators(
        hopfs["f2c2"], algebras["f2xf2"],
        [Matrix.identity(f2, 2), Matrix.from_rows(f2, [[0, 1], [1, 0]])],
        name="swap2")
    actions["grading"] = grading_action(hopfs["qc2"], name="grading",
                                        dual=hopfs["qc2dual"])
    actions["grading2"] = grading_action(hopfs["f2c2"], name="grading2",
                                         dual=hopfs["f2c2dual"])
    actions["grading-s3"] = grading_action(hopfs["qs3"], name="grading-s3",
                                           dual=hopfs["qs3dual"])
    conj_op = Matrix.from_rows(QQ, [[1, 0, 0, 0], [0, -1, 0, 0],
                                    [0, 0, -1, 0], [0, 0, 0, 1]])
    actions["conj"] = action_from_operators(
        hopfs["qc2"], algebras["m2q"], [Matrix.identity(QQ, 4), conj_op],
        name="conj")
    sweedler_ops = [
        Matrix.identity(QQ, 2),
        Matrix.from_rows(QQ, [[1, 0], [0, -1]]),
        Matrix.from_rows(QQ, [[0, 1], [0, 0]]),
        Matrix.from_rows(QQ, [[0, 1], [0, 0]]),
    ]
    actions["sweedler-act"] = action_from_operators(
        hopfs["sweedler4"], algebras["qy2"], sweedler_ops, name="sweedler-act")
    actions["f3sweedler-act"] = action_from_operators(
        hopfs["f3sweedler"], algebras["f3y2"],
        [Matrix.identity(f3, 2),
         Matrix.from_rows(f3, [[1, 0], [0, -1]]),
         Matrix.from_rows(f3, [[0, 1], [0, 0]]),
         Matrix.from_rows(f3, [[0, 1], [0, 0]])],
        name="f3sweedler-act")
    actions["trivial-m2"] = trivial_action(hopfs["qc2"], algebras["m2q"],
                                           name="trivial-m2")
    sigma = Matrix.from_rows(QQ, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    actions["c2jet"] = action_from_operators(
        hopfs["qc2"], algebras["qjet"], [Matrix.identity(QQ, 3), sigma],
        name="c2jet")
    # C2 swapping the two factors of the Klein group algebra: basis e,g,h,gh
    swap_klein = Matrix.from_rows(f2, [[1, 0, 0, 0], [0, 0, 1, 0],
                                       [0, 1, 0, 0], [0, 0, 0, 1]])
    actions["kleinswap"] = action_from_operators(
        hopfs["f2c2"], algebras["f2klein"],
        [Matrix.identity(f2, 4), swap_klein], name="kleinswap")

    lie_actions = {}
    lie_actions["euler"] = LieAction(
        algebras["qx3"], [[[0, 0, 0], [0, 1, 0], [0, 0, 2]]], name="euler")
    lie_actions["f3euler"] = LieAction(
        algebras["f3x3"], [[[0, 0, 0], [0, 1, 0], [0, 0, 2]]], name="f3euler")
    lie_actions["nilshift"] = LieAction(
        algebras["qjet"], [[[0, 0, 0], [0, 0, 0], [0, 1, 0]]], name="nilshift")
    lie_actions["f2nilshift"] = LieAction(
        algebras["f2jet"], [[[0, 0, 0], [0, 0, 0], [0, 1, 0]]], name="f2nilshift")
    lie_actions["zeroder"] = LieAction(
        algebras["qx3"], [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]], name="zeroder")

    ideals = {
        "aug": {"algebra": "qc2", "generators": [[1, -1]]},
        "aug2": {"algebra": "f2c2", "generators": [[1, 1]]},
        "half": {"algebra": "qxq", "generators": [[1, 0]]},
        "half2": {"algebra": "f2xf2", "generators": [[1, 0]]},
        "xline": {"algebra": "qjet", "generators": [[0, 1, 0]]},
        "xyline": {"algebra": "qjet", "generators": [[0, 1, 0], [0, 0, 1]]},
        "xbar": {"algebra": "qx3", "generators": [[0, 1, 0]]},
        "f3xbar": {"algebra": "f3x3", "generators": [[0, 1, 0]]},
        "zero-m2q": {"algebra": "m2q", "generators": []},
        "zero-qc2": {"algebra": "qc2", "generators": []},
        "zero-f2c2": {"algebra": "f2c2", "generators": []},
        "zero-qxq": {"algebra": "qxq", "generators": []},
        "zero-f2xf2": {"algebra": "f2xf2", "generators": []},
        "zero-qs3": {"algebra": "qs3", "generators": []},
        "zero-f2klein": {"algebra": "f2klein", "generators": []},
    }

    representations = {}
    representations["signrep"] = Representation(
        hopfs["qc2"], [[[1, 0], [0, 1]], [[1, 0], [0, -1]]], name="signrep")
    representations["rot3f7"] = Representation(
        hopfs["f7c3"], [[[1, 0], [0, 1]], [[0, 6], [1, 6]], [[6, 1], [6, 0]]],
        name="rot3f7")
    perms = sorted(itertools.permutations(range(3)))
    mats = []
    for perm in perms:
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            m[perm[i]][i] = 1
        mats.append(m)
    representations["perm3"] = Representation(hopfs["qs3"], mats, name="perm3")

    return {"hopfs": hopfs, "algebras": algebras, "actions": actions,
            "lie_actions": lie_actions, "ideals": ideals,
            "representations": representations}


def write_corpus(directory):
    """Serialize the corpus, one JSON object per file, deterministic bytes."""
    corpus = build_corpus()
    os.makedirs(directory, exist_ok=True)
    written = []

    def dump(name, obj):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(path)

    for name, h in corpus["hopfs"].items():
        dump(name, h.to_json())
    for name, a in corpus["algebras"].items():
        if name in corpus["hopfs"]:
            continue    # the Hopf file already carries the algebra
        dump(name, a.to_json())
    for name, act in corpus["actions"].items():
        dump(name, act.to_json())
    for name, lact in corpus["lie_actions"].items():
        dump(name, lact.to_json())
    for name, spec in corpus["ideals"].items():
        dump(name, {"name": name, **spec})
    for name, rep in corpus["representations"].items():
        F = rep.hopf.field
        dump(name, {"name": name, "hopf": rep.hopf.name,
                    "rho": {str(i): [[F.render(c) for c in row] for row in m.data]
                            for i, m in enumerate(rep.rho)}})
    return written
