"""Every golden report in tests/golden/ is reproduced byte for byte."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "write_goldens", os.path.join(HERE, "golden", "write_goldens.py"))
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def test_golden_reports(ws):
    mismatched = []
    with goldens.shared_workspace(ws):
        for command, argvs in goldens.cases(ws).items():
            with open(goldens.golden_path(command)) as fh:
                want = fh.read()
            if goldens.render(argvs) != want:
                mismatched.append(command)
    assert not mismatched, f"golden reports differ: {mismatched}"

