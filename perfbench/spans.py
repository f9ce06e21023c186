"""Per-layer spans recorded from outside the program.

The tracer wraps every public function of the six layer modules
(``series``, ``continua``, ``faber``, ``bohr``, ``estimates``, ``cli``)
plus ``FaberPoly.cheb_floats`` and ``FaberPoly.eval_exact``.  The
modules import names from each other directly (``bohr`` has
``from .faber import faber_polys``), so every binding of a wrapped
function in every ``faberbohr.*`` namespace is replaced, not only the
one in the defining module.

Spans are kept in memory as (name, start, end, parent, op, extra) and
written out as JSON lines when the run ends.  ``summarise`` turns a
list of spans into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("series", "continua", "faber", "bohr", "estimates", "cli")
METHODS = (("faber", "FaberPoly", "cheb_floats"),
           ("faber", "FaberPoly", "eval_exact"))

# function spans whose self time (and for some, call count) is reported
# besides the module totals
SELF_ROWS = (
    "series.laurent_mul", "series.laurent_pow",
    "faber.faber_poly", "faber.faber_polys", "faber.cheb_floats",
    "faber.eval_exact", "faber.contour_float", "faber.contour_mp",
    "faber.faber_coeffs",
    "continua.psi", "continua.sup_norm", "continua.dist_to_level",
    "bohr.gen_bounded", "bohr.basis_norm",
    "estimates.thm31_conditions",
    "cli.main",
)
CALL_ROWS = ("series.laurent_mul", "faber.faber_polys", "faber.eval_exact",
             "continua.psi")


def _positional(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _span_name(name, args, kwargs):
    # contour_values(K, ns, zs, r, m=1024, dps=None): split on dps
    if name == "faber.contour_values":
        dps = _positional(args, kwargs, 5, "dps")
        return "faber.contour_float" if dps is None else "faber.contour_mp"
    return name


def _extra(name, args, kwargs, result):
    if name == "continua.psi":
        w = _positional(args, kwargs, 1, "w")
        return getattr(w, "size", 1)
    if name == "faber.faber_polys":
        return repr((args, sorted(kwargs.items())))
    if name == "bohr.gen_bounded":
        return 0 if result is None else len(result)
    return None


class Tracer:
    """Wraps the layer functions; spans are recorded while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []   # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (_span_name(name, args, kwargs), start, end,
                                parent, self.op,
                                _extra(name, args, kwargs, result))
        return wrapper

    def install(self) -> int:
        """Patch every binding; returns the number of bindings patched."""
        import faberbohr  # noqa: F401  (loads the layer modules)
        import faberbohr.cli  # noqa: F401

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["faberbohr." + layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "faberbohr" and not mod_name.startswith("faberbohr."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules["faberbohr." + layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, fn, self._wrap(f"{layer}.{meth}", fn))
        return len(self._patches)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i]
            for i, (_n, start, end, _p, _o, _e) in enumerate(spans)]


def self_by_op(span_groups, top=4) -> dict:
    """For each op, its total traced time and the spans holding the most."""
    table = {}
    for spans in span_groups:
        for span, own in zip(spans, _self_times(spans)):
            row = table.setdefault(span[4], {})
            row[span[0]] = row.get(span[0], 0.0) + own
    return {op: {"total_s": sum(row.values()),
                 "top_self_s": dict(sorted(row.items(),
                                           key=lambda kv: -kv[1])[:top])}
            for op, row in table.items()}


def summarise(span_groups, select=lambda op: True) -> dict:
    """Per-layer metrics over groups of spans, one group per process.

    Only spans whose op passes ``select`` are counted.  Parent indices
    refer to positions inside a group.  Self time is a span's duration
    minus the durations of its direct children.
    """
    self_by_name = {}
    calls = {}
    distinct = 0
    psi_points = 0
    members = 0
    count = 0
    for spans in span_groups:
        keys = set()
        for (name, _s, _e, _p, op, extra), own in zip(spans, _self_times(spans)):
            if not select(op):
                continue
            count += 1
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "faber.faber_polys":
                keys.add(extra)
            elif name == "continua.psi":
                psi_points += extra
            elif name == "bohr.gen_bounded":
                members += extra
        distinct += len(keys)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", sum(
            v for k, v in self_by_name.items() if k.split(".")[0] == layer))
    for name in SELF_ROWS:
        out[f"{name}.self_s"] = ("s", self_by_name.get(name, 0.0))
    for name in CALL_ROWS:
        out[f"{name}.calls"] = ("count", calls.get(name, 0))
    out["faber.faber_polys.distinct"] = ("count", distinct)
    psi_calls = calls.get("continua.psi", 0)
    out["continua.psi.points"] = (
        "points/call", psi_points / psi_calls if psi_calls else 0.0)
    out["bohr.members"] = ("count", members)
    out["trace.spans"] = ("count", count)
    return out
