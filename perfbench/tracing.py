"""Outside-in span tracing of the bihom layers.

The benchmark never edits the program. Instead it replaces public names,
each in the namespace it is called through, with wrappers that record a
span: a name, a start, an end and the index of the span that caused it
(the innermost open span). Spans stay in memory; `write` dumps them when
the run ends. A span's self time is its duration minus the time covered
by its direct children.

Shape counts (cells, multiply-accumulates, nonzero fractions) are
computed from the operands after the span has been closed; the time that
takes is kept out of the self time of the enclosing span as well.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from time import perf_counter


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        # [name, start, end, parent, extra, tracing cost inside the span]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           None, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra=None):
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        span[4] = extra

    def wrap(self, name: str, fn, extra=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(idx)
                raise
            rec.close(idx)
            if extra is not None:
                t0 = perf_counter()
                span = rec.spans[idx]
                span[4] = extra(args, kwargs, result)
                if span[3] >= 0:
                    rec.spans[span[3]][5] += perf_counter() - t0
            return result

        return wrapper

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed duration, summed self time, how many
        spans had no child span (`leaves`), the summed duration of those that
        had one (`parent_dur`), and the recorded extras."""
        child = [0.0] * len(self.spans)
        kids = [0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                kids[parent] += 1
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent, extra, cost) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "dur": 0.0, "self": 0.0, "leaves": 0,
                                        "parent_dur": 0.0, "extras": []})
            agg["calls"] += 1
            agg["dur"] += t1 - t0
            agg["self"] += (t1 - t0) - child[i] - cost
            if kids[i] == 0:
                agg["leaves"] += 1
            else:
                agg["parent_dur"] += t1 - t0
            if extra is not None:
                agg["extras"].append(extra)
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, extra, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# shape counts, computed from the operands


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x != 0)


def _tensor_counts(args, kwargs, result):
    a, b = args[0], args[1]
    return {"cells": result.rows * result.cols, "nnz": _nnz(a.a) * _nnz(b.a)}


def _matmul_counts(args, kwargs, result):
    a, b = args[0], args[1]
    col_nnz = [0] * a.cols
    for row in a.a:
        for k, x in enumerate(row):
            if x != 0:
                col_nnz[k] += 1
    effective = sum(col_nnz[k] * sum(1 for x in b.a[k] if x != 0) for k in range(a.cols))
    return {"dense": a.rows * a.cols * b.cols, "effective": effective}


def _compare_counts(args, kwargs, result):
    return {"columns": args[1].cols, "violations": len(result)}


def _file_bytes(index):
    def extra(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    return extra


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _verdict(args, kwargs, result):
    return {"ok": bool(result)}


def _count(args, kwargs, result):
    return {"n": len(result)}


# ---------------------------------------------------------------------------
# installation


def install(rec: Recorder, bihom) -> callable:
    """Wrap the layer boundaries of an imported `bihom` package; returns a
    function that puts every original back."""
    cli, axioms, constructions, models, catalog, ybe, exactcore, structures = (
        bihom.cli, bihom.axioms, bihom.constructions, bihom.models, bihom.catalog,
        bihom.ybe, bihom.exactcore, bihom.structures)
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}

    def patch(owner, attr, name, extra=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        if id(original) not in wrappers:
            wrappers[id(original)] = rec.wrap(name, original, extra)
        saved.append((owner, attr, original))
        put(owner, attr, wrappers[id(original)])

    lin = exactcore.LinMap
    patch(lin, "tensor", "exactcore.tensor", _tensor_counts)
    patch(lin, "__matmul__", "exactcore.matmul", _matmul_counts)
    for attr in ("__add__", "__sub__", "scale"):
        patch(lin, attr, "exactcore.linmap_arith")
    patch(ybe, "elem3_build", "exactcore.elem3_build")

    patch(ybe, "_solves", "ybe.candidate", _verdict)
    patch(ybe, "grid_search_r", "ybe.search", _count)
    for attr in ("abhybe_residual", "coabhybe_residual", "coboundary_check"):
        patch(ybe, attr, "ybe.call")

    checkers = [n for n, f in vars(axioms).items()
                if n.startswith("check_") and inspect.isfunction(f)]
    for attr in checkers:
        patch(axioms, attr, "axioms.check")
    for kind in cli.CHECKERS:
        patch(cli.CHECKERS, kind, "axioms.check")
    patch(axioms, "compare_maps", "axioms.compare", _compare_counts)
    patch(axioms, "render_flat", "axioms.render")

    patch(models, "load", "models.load", _file_bytes(0))
    patch(models, "save", "models.save", _file_bytes(1))
    patch(models, "dumps", "models.save", _text_bytes)
    for attr, fn in list(vars(models.ModelFile).items()):
        if attr == "to_structure" or (attr.startswith("as_") and inspect.isfunction(fn)):
            patch(models.ModelFile, attr, "models.to_structure")
    patch(catalog, "entry", "catalog.entry")
    patch(cli, "run", "cli.run")

    for attr, fn in list(vars(constructions).items()):
        if inspect.isfunction(fn) and fn.__module__ == constructions.__name__:
            patch(constructions, attr, "constructions.call")
    for module in (cli, constructions, ybe, structures):
        for attr, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == structures.__name__ \
                    and not attr.startswith("_"):
                patch(module, attr, "structures.call")

    def restore():
        for owner, attr, original in reversed(saved):
            put(owner, attr, original)
    return restore


def put(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
