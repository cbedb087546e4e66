"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps, at run time, the public functions and methods of every
symident module, the ring operators of its classes and the ``CycField``
constructor.  Each call becomes a span (name, start, end, parent, check id).
Spans are kept in flat arrays while the pass runs and written out after it.

A name bound with ``from ... import`` lives in several module namespaces
(``det_cofactor`` sits in ``exactalg``, ``symfun``, ``cyclotomic`` and
``sequences``), so every namespace that holds an original object is patched
with the same wrapper; a call through any of them lands in one span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("exactalg", "combinat", "symfun", "cyclotomic", "identities",
           "sequences", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__pow__", "__neg__", "__eq__")

# Constructors worth a span of their own: building a CycField rebuilds its
# reduction table, so repeated construction is wasted work.
CONSTRUCTORS = ("CycField",)

# Modules whose outermost CheckReport-returning call is one check.
VERIFIER_MODULES = ("identities", "sequences")

# metric stem -> span name, for the spans the per-layer metrics name.
SPAN_ALIASES = {
    "exactalg.series_mul": "exactalg.Series.__mul__",
    "exactalg.series_inverse": "exactalg.Series.inverse",
    "exactalg.series_compose": "exactalg.series_compose",
    "exactalg.series_sqrt": "exactalg.series_sqrt",
    "exactalg.multilaurent_mul": "exactalg.MultiLaurent.__mul__",
    "exactalg.multilaurent_div": "exactalg.MultiLaurent.__truediv__",
    "exactalg.unilaurent_mul": "exactalg.UniLaurent.__mul__",
    "exactalg.det_cofactor": "exactalg.det_cofactor",
    "exactalg.det_fraction_free": "exactalg.det_fraction_free",
    "cyclotomic.cycint_mul": "cyclotomic.CycInt.__mul__",
    "cyclotomic.element": "cyclotomic.CycField.element",
    "cyclotomic.cycint_pow": "cyclotomic.CycInt.__pow__",
    "cyclotomic.field_new": "cyclotomic.CycField.__init__",
    "combinat.ballot_series": "combinat.ballot_series",
    "combinat.raising_factorial": "combinat.raising_factorial",
    "combinat.binom": "combinat.binom",
    "combinat.q_binom": "combinat.q_binom",
    "symfun.elementary_prefix": "symfun.elementary_prefix",
    "symfun.complete_prefix": "symfun.complete_prefix",
    "symfun.power": "symfun.power",
    "symfun.schur": "symfun.schur",
    "sequences.fib_recurrence": "sequences.fib_recurrence",
    "sequences.char_coeffs": "sequences.char_coeffs",
}

# Metric stems whose calls remember their argument tuples, to count calls
# that recompute something already computed in the pass.
REPEAT_TRACKED = ("cyclotomic.field_new", "combinat.ballot_series",
                  "sequences.fib_recurrence", "sequences.char_coeffs")
_REPEAT_SPANS = {SPAN_ALIASES[stem] for stem in REPEAT_TRACKED}


_DESCRIPTORS = {"classmethod": classmethod, "staticmethod": staticmethod}


def _is_own(obj, modname: str) -> bool:
    return callable(obj) and getattr(obj, "__module__", None) == modname


def _targets(mod, short: str):
    """Yield (name, original, is_method, owner, attr, kind) for everything
    in one module that gets a span.  kind is "" for a plain function,
    "classmethod" or "staticmethod" for those descriptors."""
    modname = mod.__name__
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if isinstance(obj, type):
            if obj.__module__ != modname:
                continue
            wanted = set(OPERATORS)
            if obj.__name__ in CONSTRUCTORS:
                wanted.add("__init__")
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_") and mattr not in wanted:
                    continue
                kind = ""
                if isinstance(mobj, (classmethod, staticmethod)):
                    kind = type(mobj).__name__
                    mobj = mobj.__func__
                if not _is_own(mobj, modname):
                    continue
                name = "%s.%s" % (short, mobj.__qualname__)
                yield name, mobj, kind != "staticmethod", obj, mattr, kind
        elif _is_own(obj, modname):
            yield "%s.%s" % (short, attr), obj, False, None, attr, ""


class Tracer:
    """Records one span per wrapped call.  Build it, ``install()`` it, run
    the pass, then ``uninstall()`` and read ``summary()``."""

    def __init__(self):
        self.names: list = []          # span name id -> name
        self.name_module: list = []    # span name id -> module short name
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.report_spans: set = set()  # spans that returned a CheckReport
        self.repeats: dict = {}         # name id -> calls with a seen key
        self._stack: list = []
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        report_type = importlib.import_module("symident.identities").CheckReport
        mods = {short: importlib.import_module("symident." + short)
                for short in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for name, fn, is_method, owner, attr, kind in _targets(mod, short):
                w = wrappers.get(id(fn))
                if w is None:
                    w = self._wrap(fn, name, short, is_method,
                                   report_type if short in VERIFIER_MODULES else None)
                    wrappers[id(fn)] = w
                if owner is not None:
                    self._undo.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, _DESCRIPTORS[kind](w) if kind else w)
        # every namespace that holds an original, however it got there
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    def _wrap(self, fn, name, short, is_method, report_type):
        nid = len(self.names)
        self.names.append(name)
        self.name_module.append(short)
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        stack, clock = self._stack, time.perf_counter
        report_spans = self.report_spans
        seen = None
        if name in _REPEAT_SPANS:
            seen = set()  # argument keys already seen
            self.repeats[nid] = 0
        repeats = self.repeats
        skip = 1 if is_method else 0

        def traced(*args, **kwargs):
            if seen is not None:
                key = (args[skip:], tuple(sorted(kwargs.items())))
                if key in seen:
                    repeats[nid] += 1
                else:
                    seen.add(key)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if report_type is not None and type(result) is report_type:
                report_spans.add(idx)
            return result

        return functools.update_wrapper(traced, fn)

    # -- results --------------------------------------------------------------

    def check_ids(self) -> array:
        """Check id of each span: the ordinal (from 1) of the outermost
        CheckReport-returning verifier call it ran under, 0 for none."""
        ids = array("i", [0]) * len(self.span_name)
        count = 0
        for i, p in enumerate(self.span_parent):
            if p >= 0 and ids[p]:
                ids[i] = ids[p]
            elif i in self.report_spans:
                count += 1
                ids[i] = count
        return ids

    def summary(self) -> dict:
        """Per span name: calls, inclusive busy seconds (a recursive call
        inside its own name is not counted twice), self seconds, and for
        tracked names the repeated-argument count; plus check counts per
        verifier module and per-module self seconds."""
        n = len(self.span_name)
        k = len(self.names)
        names, start, end, parent = (self.span_name, self.span_start,
                                     self.span_end, self.span_parent)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * k
        self_s = [0.0] * k
        busy = [0.0] * k
        for i in range(n):
            nid = names[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            # a span inside another of its own name is already in busy
            p = parent[i]
            while p >= 0 and names[p] != nid:
                p = parent[p]
            if p < 0:
                busy[nid] += dur
        ids = self.check_ids()
        checks = {m: 0 for m in VERIFIER_MODULES}
        for i in self.report_spans:
            p = parent[i]
            if p < 0 or ids[p] == 0:
                checks[self.name_module[names[i]]] += 1
        per_name = {}
        for nid, name in enumerate(self.names):
            rec = {"calls": calls[nid], "busy_s": busy[nid], "self_s": self_s[nid]}
            if nid in self.repeats:
                rec["repeats"] = self.repeats[nid]
            per_name[name] = rec
        module_self = {m: 0.0 for m in MODULES}
        for nid, s in enumerate(self_s):
            module_self[self.name_module[nid]] += s
        return {"spans": n, "names": per_name, "checks": checks,
                "module_self_s": module_self}

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header with the span names, then
        one [name id, start ns, end ns, parent, check id] row per span, with
        times counted from the first span's start and parent -1 at a root."""
        ids = self.check_ids()
        start, end = self.span_start, self.span_end
        base = start[0] if start else 0.0
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i, nid in enumerate(self.span_name):
                f.write("[%d,%d,%d,%d,%d]\n" % (nid, (start[i] - base) * 1e9,
                                                (end[i] - base) * 1e9,
                                                self.span_parent[i], ids[i]))
