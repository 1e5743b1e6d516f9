"""Spans around the public functions of each mwglue module, and their totals.

The traced pass runs every CLI command through `tracecli.py`, which wraps the
functions listed in TARGETS before calling `mwglue.cli.main`.  Spans are kept
in memory as `[name, start, end, parent, tag]` lists and written out once,
when the command exits.  Nothing under `src/` is changed: the wrappers are
installed from here, at every module that binds the function.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# (span name, module, attribute path).  A dotted path names a method or
# classmethod on a class, which every module shares; a plain name is a
# module-level function that other modules may also bind by name.
TARGETS = (
    ("example.run_example", "mwglue.example", "run_example"),
    ("glue.GluingData.build", "mwglue.glue", "GluingData.build"),
    ("glue.validate_identification", "mwglue.glue", "validate_identification"),
    ("glue.verify_cover_map", "mwglue.glue", "verify_cover_map"),
    ("family.find_primes", "mwglue.family", "find_primes"),
    ("family.build_instance", "mwglue.family", "build_instance"),
    ("family.verify_instance", "mwglue.family", "verify_instance"),
    ("ellcurve.torsion_subgroup", "mwglue.ellcurve", "EllipticCurve.torsion_subgroup"),
    ("ellcurve.add", "mwglue.ellcurve", "EllipticCurve.add"),
    ("poly.integer_roots_monic_cubic", "mwglue.poly", "integer_roots_monic_cubic"),
    ("poly.rational_roots_monic", "mwglue.poly", "rational_roots_monic"),
    ("arith.factor", "mwglue.arith", "factor"),
    ("arith.is_prime", "mwglue.arith", "is_prime"),
    ("arith.square_class", "mwglue.arith", "square_class"),
    ("arith.SquareClass", "mwglue.arith", "SquareClass.__init__"),
    ("arith.subgroup_contains", "mwglue.arith", "subgroup_contains"),
    ("etale.is_square", "mwglue.etale", "is_square"),
    ("etale.AlgebraSquareClass.of", "mwglue.etale", "AlgebraSquareClass.of"),
    ("etale.CubicEtaleAlgebra.from_cubic", "mwglue.etale", "CubicEtaleAlgebra.from_cubic"),
    ("descent.descent_class", "mwglue.descent", "descent_class"),
    ("descent.membership", "mwglue.descent", "membership"),
    ("descent.transfer_class", "mwglue.descent", "transfer_class"),
    ("descent.surjectivity_obstruction", "mwglue.descent", "surjectivity_obstruction"),
)

# is_square outcomes, by the class name of the decision it returns.
OUTCOMES = {"Square": "square", "NonSquare": "non_square", "Unknown": "unknown"}

# Extra facts recorded on a span: the input size of factor() and the
# outcome of is_square().
TAGS = {
    "arith.factor": lambda args, result: args[0].bit_length(),
    "etale.is_square": lambda args, result: OUTCOMES.get(type(result).__name__, "error"),
}


class Tracer:
    """Nested spans of one process, in the order they were opened."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float):
        """Add a closed span under the span that is open now."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap every target at each module that binds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mwglue" and m]
    for name, module, path in TARGETS:
        owner = sys.modules[module]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration minus the part of [start, end] that the children cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(children):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and tag counts.

    `s` counts only the outermost span of a name, so a function that is
    re-entered is not counted twice; `self_s` sums every span's own time.
    Each tag value gets its own call count and seconds under `tags`.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}})
        entry["calls"] += 1
        entry["self_s"] += _self_time(start, end, children[i])
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            entry["s"] += end - start
        if tag is not None:
            t = entry["tags"].setdefault(str(tag), {"calls": 0, "s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
    return out


def merge(totals: dict[str, dict], more: dict[str, dict]):
    """Add one command's aggregate into the running totals of a pass."""
    for name, entry in more.items():
        into = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": {}})
        into["calls"] += entry["calls"]
        into["s"] += entry["s"]
        into["self_s"] += entry["self_s"]
        for key, t in entry["tags"].items():
            tt = into["tags"].setdefault(key, {"calls": 0, "s": 0.0})
            tt["calls"] += t["calls"]
            tt["s"] += t["s"]
