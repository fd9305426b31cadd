"""Machine-readable pass/fail reports shared by all verifiers."""

from __future__ import annotations

import json
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
ERROR = "error"
COUNTEREXAMPLE = "counterexample"


class Report:
    """Outcome of one check: status plus explicit witnesses on failure.

    ``witnesses`` carries basis indices / vectors that exhibit a violation;
    ``details`` holds check-specific values worth echoing.  The JSON and the
    human rendering come from the same structure; ``timing_ms`` is excluded
    from comparisons.

    A plain class rather than a dataclass: importing ``dataclasses`` pulls in
    ``inspect``, a large share of a fixture load's import time.
    """

    _FIELDS = ("check", "status", "witnesses", "details", "timing_ms")

    def __init__(self, check: str, status: str = PASS, witnesses: list | None = None,
                 details: dict | None = None, timing_ms: float | None = None):
        self.check = check
        self.status = status
        self.witnesses = [] if witnesses is None else witnesses
        self.details = {} if details is None else details
        self.timing_ms = timing_ms

    def _values(self):
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def ok(self):
        return self.status in (PASS, COUNTEREXAMPLE)

    def fail(self, witness=None, **details):
        self.status = FAIL
        if witness is not None:
            self.witnesses.append(witness)
        self.details.update(details)
        return self

    def to_json_dict(self, with_timing=True):
        out = {
            "check": self.check,
            "status": self.status,
            "witnesses": _plain(self.witnesses),
            "details": _plain(self.details),
        }
        if with_timing and self.timing_ms is not None:
            out["timing_ms"] = self.timing_ms
        return out

    def render_text(self):
        lines = [f"[{self.status.upper()}] {self.check}"]
        for key in sorted(self.details):
            lines.append(f"    {key}: {_compact(self.details[key])}")
        for w in self.witnesses[:8]:
            lines.append(f"    witness: {_compact(w)}")
        if len(self.witnesses) > 8:
            lines.append(f"    ... {len(self.witnesses) - 8} more witnesses")
        return "\n".join(lines)


def _plain(obj):
    """Coerce report payloads into JSON-serializable primitives."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if isinstance(obj, Report):
        return obj.to_json_dict(with_timing=False)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return repr(obj)


def _compact(obj):
    return json.dumps(_plain(obj), separators=(",", ":"))

