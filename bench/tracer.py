"""Spans and counters around the public functions of each hopfact module.

The tracer wraps functions from the outside; no program source changes.
A name bound by ``from .linalg import kernel`` lives in the importing
module's namespace, so every hopfact module that holds the original
object gets the wrapper (and ``cli.COMMANDS``, which holds the handlers).

A span is (layer, start, end, parent, busy): ``busy`` is end - start,
except for a generator, whose span covers only the time spent inside it
between yields.  Self time of a span is its busy time minus the busy time
of its children.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
from functools import cached_property
from time import perf_counter

import oracles

ELIM = "linalg.elim"
ENUM = "linalg.enum"

# (layer, module, attribute); "Cls.attr" names a method or property.
WRAPPED = [
    (ELIM, "hopfact.linalg", "rref"),
    (ELIM, "hopfact.linalg", "kernel"),
    (ELIM, "hopfact.linalg", "solve"),
    (ELIM, "hopfact.linalg", "subspace_intersect"),
    (ELIM, "hopfact.linalg", "subspace_sum"),
    (ELIM, "hopfact.linalg", "annihilator"),
    (ELIM, "hopfact.linalg", "Subspace.from_vectors"),
    (ENUM, "hopfact.linalg", "stable_subspaces"),
    (ENUM, "hopfact.linalg", "enumerate_subspaces"),
    ("hopf.verify", "hopfact.hopf", "verify_hopf"),
    ("hopf.verify", "hopfact.hopf", "verify_algebra"),
    ("hopf.build", "hopfact.hopf", "group_algebra"),
    ("hopf.build", "hopfact.hopf", "dual_hopf"),
    ("hopf.build", "hopfact.hopf", "tensor_hopf"),
    ("action.verify", "hopfact.action", "verify_action"),
    ("convolution.build", "hopfact.convolution", "ConvolutionAlgebra.algebra"),
    ("convolution.build", "hopfact.convolution", "ConvolutionAlgebra.phi_matrix"),
    ("convolution.build", "hopfact.convolution", "ConvolutionAlgebra.psi_matrix"),
    ("convolution.build", "hopfact.convolution", "ConvolutionAlgebra.dot_operators"),
    ("convolution.build", "hopfact.convolution", "ConvolutionAlgebra.rh_operators"),
    ("convolution.identities", "hopfact.convolution", "identity_report"),
    ("convolution.identities", "hopfact.convolution", "check_dotinv"),
    ("convolution.identities", "hopfact.convolution", "check_intertwining"),
    ("convolution.lattice", "hopfact.convolution", "check_dotinv_lattice"),
    ("convolution.lattice", "hopfact.convolution", "stability_scan"),
    ("convolution.lattice", "hopfact.convolution", "enumerate_h_ideals"),
    ("ideals.core", "hopfact.ideals", "core"),
    ("ideals.core", "hopfact.ideals", "core_via_psi"),
    ("ideals.core", "hopfact.ideals", "group_core_by_intersection"),
    ("ideals.spectrum", "hopfact.ideals", "spectrum"),
    ("ideals.spectrum", "hopfact.ideals", "radical"),
    ("ideals.spectrum", "hopfact.ideals", "strata"),
    ("ideals.factor", "hopfact.ideals", "factor_irreducible"),
    ("ideals.semiprime", "hopfact.ideals", "semiprime_core_check"),
    ("lie", "hopfact.lie", "lie_core"),
    ("lie", "hopfact.lie", "TruncatedSeries.__add__"),
    ("lie", "hopfact.lie", "TruncatedSeries.__neg__"),
    ("lie", "hopfact.lie", "TruncatedSeries.__sub__"),
    ("lie", "hopfact.lie", "TruncatedSeries.__mul__"),
    ("lie", "hopfact.lie", "TruncatedSeries.power"),
    ("workspace.load", "hopfact.workspace", "Workspace.load"),
    ("cli.emit", "hopfact.cli", "_emit"),
    ("cli.emit", "hopfact.report", "Report.to_json_dict"),
]
CLI_COMMAND = "cli.command"        # every cmd_* handler in hopfact.cli
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

# Layers whose self time is reported, in output order.
SELF_TIME_LAYERS = [ELIM, ENUM, "hopf.verify", "hopf.build", "action.verify",
                    "convolution.build", "convolution.identities",
                    "convolution.lattice", "ideals.core", "ideals.spectrum",
                    "ideals.factor", "ideals.semiprime", "lie", "workspace.load",
                    CLI_COMMAND, "cli.emit"]
CALL_COUNT_LAYERS = [ELIM, ENUM, "ideals.factor"]


class Tracer:
    def __init__(self):
        self.layers = []           # layer names; spans refer to them by index
        self.layer_index = {}
        self.spans = []
        self.stack = []
        self.field_ops = [0, 0]    # [over Q, over F_p]
        self.enum_visited = 0
        self.enum_kept = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = None
        self._patches = []

    # -- installing wrappers -------------------------------------------------

    def install(self):
        from hopfact import cli     # also imports every module the CLI uses
        targets = list(WRAPPED)
        targets += [(CLI_COMMAND, "hopfact.cli", name) for name in sorted(vars(cli))
                    if name.startswith("cmd_")]
        for layer, mod, attr in targets:
            self._wrap(layer, sys.modules[mod], attr)
        cli_wrapped = {id(orig): new for _, _, orig, new in self._patches}
        saved = dict(cli.COMMANDS)
        for name, (fn, needs) in saved.items():
            cli.COMMANDS[name] = (cli_wrapped.get(id(fn), fn), needs)
        self._patches.append((cli.COMMANDS, None, saved, None))
        from hopfact.linalg import Field
        for op in FIELD_OPS:
            orig = Field.__dict__[op]
            setattr(Field, op, self._counting(orig))
            self._patches.append((Field, op, orig, None))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig, _ in reversed(self._patches):
            if attr is None:
                owner.clear()
                owner.update(orig)
            else:
                setattr(owner, attr, orig)
        self._patches = []

    def _wrap(self, layer, module, attr):
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                new = classmethod(self._span(layer, raw.__func__))
            elif isinstance(raw, cached_property):
                new = cached_property(self._span(layer, raw.func))
                new.__set_name__(cls, name)
            else:
                new = self._span(layer, raw)
            setattr(cls, name, new)
            self._patches.append((cls, name, raw, new))
            return
        orig = getattr(module, attr)
        new = self._span(layer, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hopfact" and not mod_name.startswith("hopfact."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, orig, new))

    def _layer_id(self, layer):
        if layer not in self.layer_index:
            self.layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_index[layer]

    def _span(self, layer, fn):
        lid = self._layer_id(layer)
        spans, stack = self.spans, self.stack
        enum = layer == ENUM
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(lid, fn, enum)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            t0 = perf_counter()
            spans.append((lid, t0, t0, parent, 0.0))   # open until fn returns
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (lid, t0, t1, parent, t1 - t0)
            if enum:
                self._count_enum(parent, args, len(out))
            return out
        return wrapper

    def _generator_span(self, lid, fn, enum):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            first, busy, yielded = perf_counter(), 0.0, 0
            spans.append((lid, first, first, parent, 0.0))
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        busy += t1 - t0
                        spans[idx] = (lid, first, t1, parent, busy)
                    yielded += 1
                    yield item
            finally:
                inner.close()
                if enum:
                    self._count_enum(parent, args, yielded)
        return wrapper

    def _count_enum(self, parent, args, kept):
        """Visited and kept subspaces of an outermost enumerator call (field, n, ...)."""
        if parent >= 0 and self.layers[self.spans[parent][0]] == ENUM:
            return
        field, n = args[0], args[1]
        self.enum_visited += oracles.subspace_total(field.characteristic(), n)
        self.enum_kept += kept

    def _counting(self, fn):
        ops = self.field_ops

        @functools.wraps(fn)
        def wrapper(field, *args):
            ops[field.p is not None] += 1
            return fn(field, *args)
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- per-round figures -----------------------------------------------------

    def mark(self):
        """Reset the counters; return the span index where a round starts."""
        self.field_ops[0] = self.field_ops[1] = 0
        self.enum_visited = self.enum_kept = 0
        self.gc_collections, self.gc_pause_s = 0, 0.0
        return len(self.spans)

    def figures(self, start):
        """Per-layer self time (ms) and call counts of the spans since ``start``."""
        spans = self.spans
        child = [0.0] * (len(spans) - start)
        for lid, t0, t1, parent, busy in spans[start:]:
            if parent >= start:
                child[parent - start] += busy
        self_ms = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        calls = {layer: 0 for layer in CALL_COUNT_LAYERS}
        for i, (lid, t0, t1, parent, busy) in enumerate(spans[start:]):
            layer = self.layers[lid]
            self_ms[layer] += (busy - child[i]) * 1000.0
            if layer in calls:
                calls[layer] += 1
        return self_ms, calls
