"""Spans around torfill's layer functions, installed from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
(and class attribute) under `torfill` that holds it, because callers look
functions up there: `cli` imports inside its commands, `reduce` binds
`det_exact` at import time, `spectral` calls `analyze` through its own
globals.  `uninstall()` puts the originals back.

A span records name, start, end, parent span, item id and self time (its
duration minus the time covered by its child spans).  The hot chain kernels
are aggregated per (name, parent span, item) instead of one record per call.
Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute) -> (span name, position of the chain argument whose
# term count is added to `simplices`).  Kernel calls are aggregated.
KERNELS = {
    ("torfill.chains", "pushforward"): ("chains.pushforward", 1),
    ("torfill.chains", "prism_v"): ("chains.prism_v", 1),
    ("torfill.chains", "boundary"): ("chains.boundary", 0),
    ("torfill.chains", "parallelogram_cycle"): ("chains.parallelogram_cycle", None),
}


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute) -> (span name, measure(args, result) stored as the
# span's value, or None).
SPANS = {
    ("torfill.cli", "main"): ("cli.main", None),
    ("torfill.filling.reduce", "reduce_parallelogram"):
        ("filling.reduce_parallelogram", None),
    ("torfill.filling.reduce", "fv_upper_experiment"):
        ("filling.fv_upper_experiment", None),
    ("torfill.filling.certificate", "verify_certificate"):
        ("filling.verify_certificate", None),
    ("torfill.filling.certificate", "Piece.assemble"): (
        "filling.certificate.assemble",
        lambda args, result: (sum(len(c.terms) for _, c in args[0].chunks),
                              len(result[0].terms))),
    ("torfill.filling.solver", "fill_by_solve"): ("filling.fill_by_solve", None),
    ("torfill.formats", "save_certificate"): ("formats.save_certificate", _file_bytes),
    ("torfill.formats", "load_certificate"): ("formats.load_certificate", _file_bytes),
    ("torfill.exactlinalg", "snf"): ("exactlinalg.snf", None),
    ("torfill.exactlinalg", "hnf"): ("exactlinalg.hnf", None),
    ("torfill.exactlinalg", "charpoly"): ("exactlinalg.charpoly", None),
    ("torfill.exactlinalg", "det_exact"): ("exactlinalg.det_exact", None),
    ("torfill.spectral", "analyze"): ("spectral.analyze", None),
    ("torfill.spectral", "torsion_growth_table"):
        ("spectral.torsion_growth_table", None),
    ("torfill.psl2z", "decompose"): ("psl2z.decompose", None),
    ("torfill.psl2z", "word_power"):
        ("psl2z.word_power", lambda args, result: len(result.letters)),
    ("torfill.psl2z", "cyclically_reduced_length"):
        ("psl2z.cyclically_reduced_length", None),
}

# span fields
NAME, START, END, PARENT, ITEM, SELF, VALUE, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent, item, self, value, error]
        self.kernels = {}   # (name, parent, item) -> [calls, busy, self, simplices]
        self.stack = []     # active frames: [span id (or parent id), child time]
        self.item = None
        self._plan = None  # [(holder, attribute, original, wrapper)]

    # --- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, measure):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, perf(), None, stack[-1][0] if stack else -1,
                   self.item, 0.0, None, None]
            spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            else:
                if measure is not None:
                    rec[VALUE] = measure(args, result)
                return result
            finally:
                end = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                rec[END] = end
                rec[SELF] = end - rec[START] - frame[1]
                if stack:
                    stack[-1][1] += end - rec[START]
        return wrapper

    def _kernel_wrapper(self, name, fn, chain_arg):
        kernels, stack, perf = self.kernels, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [parent, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = kernels.get((name, parent, self.item))
                if agg is None:
                    agg = kernels[(name, parent, self.item)] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if chain_arg is not None:
                    agg[3] += len(args[chain_arg].terms)
        return wrapper

    # --- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every traced function wherever torfill modules hold it."""
        if self._plan is None:
            self._plan = self._make_plan()
        for holder, key, _, wrapper in self._plan:
            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original, _ in self._plan or ():
            setattr(holder, key, original)

    def _make_plan(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "torfill" or n.startswith("torfill."))]
        targets = [(key, self._kernel_wrapper, spec) for key, spec in KERNELS.items()]
        targets += [(key, self._span_wrapper, spec) for key, spec in SPANS.items()]
        plan = []
        for (module_name, attr), make, (name, extra) in targets:
            owner = sys.modules[module_name]
            holders = modules
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            original = getattr(owner, attr)
            wrapper = make(name, original, extra)
            for holder in holders:
                plan.extend((holder, key, original, wrapper)
                            for key, value in vars(holder).items()
                            if value is original)
        return plan

    def reset_stack(self):
        """Drop frames left open when an exception (a RecursionError at the
        interpreter's depth limit) kept a wrapper's `finally` from running."""
        del self.stack[:]

    # --- output -----------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "item": rec[ITEM],
                    "self_s": rec[SELF], "value": rec[VALUE],
                    "error": rec[ERROR]}) + "\n")
            for (name, parent, item), (calls, busy, self_s, simplices) in \
                    sorted(self.kernels.items(), key=lambda kv: (kv[0][1], kv[0][0])):
                fh.write(json.dumps({
                    "name": name, "parent": parent, "item": item,
                    "aggregate": True, "calls": calls, "busy_s": busy,
                    "self_s": self_s, "simplices": simplices}) + "\n")


# --- per-layer metrics ----------------------------------------------------------

def _in_scope(item, scope):
    return isinstance(item, int) if scope == "items" else item == scope


def layer_totals(tracer, scope):
    """{name: {calls, busy_s, self_s, simplices, values, errors}} over the
    spans whose item id is an integer (scope "items") or equals `scope`."""
    out = {}

    def entry(name):
        return out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "simplices": 0, "values": [], "errors": {}})
    for rec in tracer.spans:
        if rec[END] is None or not _in_scope(rec[ITEM], scope):
            continue
        e = entry(rec[NAME])
        e["calls"] += 1
        e["busy_s"] += rec[END] - rec[START]
        e["self_s"] += rec[SELF]
        if rec[VALUE] is not None:
            e["values"].append(rec[VALUE])
        if rec[ERROR]:
            e["errors"][rec[ERROR]] = e["errors"].get(rec[ERROR], 0) + 1
    for (name, _, item), (calls, busy, self_s, simplices) in tracer.kernels.items():
        if not _in_scope(item, scope):
            continue
        e = entry(name)
        e["calls"] += calls
        e["busy_s"] += busy
        e["self_s"] += self_s
        e["simplices"] += simplices
    return out


def self_time_by_item(tracer):
    """{item: summed self time of its spans and kernel aggregates}."""
    out = {}
    for rec in tracer.spans:
        if isinstance(rec[ITEM], int) and rec[END] is not None:
            out[rec[ITEM]] = out.get(rec[ITEM], 0.0) + rec[SELF]
    for (_, _, item), agg in tracer.kernels.items():
        if isinstance(item, int):
            out[item] = out.get(item, 0.0) + agg[2]
    return out


def dropped_spans(tracer):
    return sum(1 for rec in tracer.spans if rec[END] is None)
