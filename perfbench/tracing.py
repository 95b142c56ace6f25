"""Outside-in tracing of orbitcalc's layers.

The tracer replaces each listed public function at every binding in every
``orbitcalc`` module namespace (so intra-package calls such as ``from
.groebner import normal_form`` are caught), and the two cached
``OrbitSpace`` properties on the class.  Each call becomes a span {name,
start, end, parent}.  A span's self time is its duration minus the time its
child spans cover.  Spans of the hottest leaf functions are folded into
their totals instead of being kept, so memory stays flat on long passes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("algebra", "linalg", "groebner", "group_action", "exterior", "invariants", "quotient")
# Namespaces searched for bindings: the layers, the package, and the two
# modules that call into the layers without being layers themselves.
NAMESPACES = ("orbitcalc",) + tuple(f"orbitcalc.{m}" for m in LAYERS + ("verify", "cli"))


def _echelon_cells(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    width = args[1] if len(args) > 1 else kwargs.get("width")
    if width is None:
        width = len(rows[0]) if rows else 0
    return len(rows) * width


def _term_products(args, kwargs):
    a, b = args
    if isinstance(b, (int, Fraction)):
        return len(a.terms) if b else 0
    terms = getattr(b, "terms", None)
    return len(a.terms) * len(terms) if isinstance(terms, dict) else 0


# (metric prefix, attribute, work counter, success test).  The attribute
# lives in the module the prefix names; ``Class.member`` is a method or
# property, wrapped on the class.  The work counter sums a size computed
# from the arguments; the success test feeds a ratio of useful results to
# calls.
TARGETS = (
    ("group_action.reynolds", "reynolds", None, None),
    ("group_action.act_poly", "act_poly", None, None),
    ("group_action.mat_inverse", "mat_inverse", None, None),
    ("group_action.act_form", "act_form", None, None),
    ("group_action.is_invariant", "is_invariant", None, None),
    ("group_action.closure", "closure", None, None),
    ("invariants.invariant_basis", "invariant_basis", None, None),
    ("invariants.invariant_combination", "invariant_combination", None, lambda result: result is not None),
    ("invariants.subduct", "subduct", None, None),
    ("invariants.invariant_generators", "invariant_generators", None, None),
    ("invariants.relations", "relations", None, None),
    ("invariants.equivariant_generators", "equivariant_generators", None, None),
    ("linalg.echelon", "echelon", _echelon_cells, None),
    ("linalg.solve", "solve", None, None),
    ("groebner.buchberger", "buchberger", None, None),
    ("groebner.divide", "divide", None, None),
    ("groebner.normal_form", "normal_form", None, None),
    ("groebner.eliminate", "eliminate", None, None),
    ("groebner.module_solve", "module_solve", None, lambda result: result.member),
    ("groebner.syzygies", "syzygies", None, None),
    ("exterior.evaluate", "evaluate", None, None),
    ("exterior.d", "d", None, None),
    ("exterior.wedge", "wedge", None, None),
    ("exterior.interior", "interior", None, None),
    ("exterior.semibasic_check", "semibasic_check", None, None),
    ("quotient.push_vf", "push_vf", None, None),
    ("quotient.lift_vf", "lift_vf", None, None),
    ("quotient.orbit_bracket", "orbit_bracket", None, None),
    ("quotient.push_form", "push_form", None, None),
    ("quotient.pull_form", "pull_form", None, None),
    ("quotient.orbit_d", "orbit_d", None, None),
    ("quotient.orbit_wedge", "orbit_wedge", None, None),
    ("quotient.extend_check", "extend_check", None, None),
    ("quotient.pushed_generators", "OrbitSpace.pushed_generators", None, None),
    ("quotient.generator_syzygies", "OrbitSpace.generator_syzygies", None, None),
    ("algebra.poly_mul", "Polynomial.__mul__", _term_products, None),
    ("algebra.substitute", "Polynomial.substitute", None, None),
)

# Leaf functions called often enough that one record per call would grow
# without bound; their calls still count and still leave their parents'
# self time.
UNRECORDED = {
    "algebra.poly_mul",
    "algebra.substitute",
    "group_action.mat_inverse",
    "group_action.act_poly",
    "groebner.divide",
    "groebner.normal_form",
}


class _Stat:
    __slots__ = ("calls", "inclusive", "self_time", "work", "hits", "active")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.work = 0
        self.hits = 0
        self.active = 0


class Tracer:
    """Spans and per-name totals; wraps the targets between install() and
    uninstall()."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.spans: list[tuple[str, float, float, int]] = []
        # open frames: [name, start, child time, span index]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.enabled = True

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, -1]
        if name not in UNRECORDED:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            frame[3] = len(self.spans)
            self.spans.append((name, frame[1], frame[1], parent))
        self._stack.append(frame)
        self.stats[name].active += 1
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.active -= 1
        stat.self_time += duration - child
        if stat.active == 0:  # outermost call of a recursion
            stat.inclusive += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn, work, success):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            stat = tracer.stats[name]
            if work is not None:
                stat.work += work(args, kwargs)
            if success is not None and success(result):
                stat.hits += 1
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in NAMESPACES]
        for name, attr, work, success in TARGETS:
            module = importlib.import_module(f"orbitcalc.{name.split('.')[0]}")
            if "." not in attr:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, work, success)
                for ns in modules:
                    for binding, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, binding, wrapped)
                continue
            cls_name, member = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[member]
            if isinstance(original, property):
                self._set(cls, member, property(self._wrap(name, original.fget, work, success), doc=original.__doc__))
                continue
            wrapped = self._wrap(name, original, work, success)
            for binding, value in list(vars(cls).items()):
                if value is original:  # e.g. __rmul__ = __mul__
                    self._set(cls, binding, wrapped)

    def _set(self, owner, binding: str, value):
        self._restore.append((owner, binding, vars(owner)[binding]))
        setattr(owner, binding, value)

    def uninstall(self):
        while self._restore:
            owner, binding, value = self._restore.pop()
            setattr(owner, binding, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Calls made inside pass through untraced (the output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- results -------------------------------------------------------------------

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "unrecorded": sorted(UNRECORDED),
                    "spans": self.spans,
                },
                fh,
            )
