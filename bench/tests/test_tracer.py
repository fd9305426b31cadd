"""Tests of the tracer: wrappers reach every binding, and self time adds up.

    python3 -m pytest bench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def test_wrappers_reach_imported_names_and_are_removed():
    import hopfact.convolution as convolution
    import hopfact.linalg as linalg
    orig = linalg.kernel
    assert convolution.kernel is orig
    tracer = Tracer()
    tracer.install()
    try:
        assert convolution.kernel is linalg.kernel is not orig
    finally:
        tracer.uninstall()
    assert convolution.kernel is linalg.kernel is orig


def test_spans_counts_and_self_time_on_a_small_core():
    from hopfact.action import action_from_operators
    from hopfact.hopf import cyclic_group_table, group_algebra, product_field_algebra
    from hopfact import ideals
    from hopfact.linalg import GF, Matrix
    F = GF(2)
    H = group_algebra(cyclic_group_table(2), F)
    A = product_field_algebra(F, 2)
    act = action_from_operators(H, A, [Matrix.identity(F, 2),
                                       Matrix.from_rows(F, [[0, 1], [1, 0]])])
    tracer = Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        # looked up after install: a name bound before it keeps the original
        ideals.core_via_psi(act, ideals.Ideal.generate(A, [[1, 0]]))
        self_ms, calls = tracer.figures(mark)
    finally:
        tracer.uninstall()
    spans = tracer.spans[mark:]
    layers = [tracer.layers[s[0]] for s in spans]
    assert "ideals.core" in layers and "convolution.build" in layers
    assert calls["linalg.elim"] == layers.count("linalg.elim") > 0
    assert tracer.field_ops[1] > 0 and tracer.field_ops[0] == 0
    # every child lies inside its parent, and self times add up to the
    # busy time of the top-level spans
    for lid, t0, t1, parent, busy in spans:
        if parent >= 0:
            assert tracer.spans[parent][1] <= t0 <= t1 <= tracer.spans[parent][2]
    top = sum(busy for lid, t0, t1, parent, busy in spans if parent == -1)
    assert abs(sum(self_ms.values()) - top * 1000.0) < 1e-6
