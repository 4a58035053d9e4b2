"""Span tracing of ver4forms from outside the package.

`Tracer.installed()` replaces each traced public function with a timing
wrapper at every name the package binds it to (module globals, the package
namespace, class attributes), and puts the originals back on exit.  Nothing
under `src/` is edited.  Functions behind `functools.lru_cache` are wrapped
outside the cache, so a cache hit still records a span; a hit is a span with
no child span (a miss does traced work: `BilinearForm` construction for
`canonical_rep`, `decompose` for `tensor`, elimination for `gamma2`).

Spans are kept in memory as parallel arrays (name id, start, end, parent)
and reduced at the end: a span's self time is its duration minus the
durations of its direct children.  Spans do not nest across threads; the
benchmark is single-threaded.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name).  "Class.method" patches the class.
# Counters add work sizes next to the span count.
TARGETS = [
    ("ver4forms.field", "make_field", "field.make_field"),
    ("ver4forms.field", "Field.mul_arr", "field.mul_arr"),
    ("ver4forms.linalg", "row_reduce", "linalg.row_reduce"),
    ("ver4forms.linalg", "mat_mul", "linalg.mat_mul"),
    ("ver4forms.linalg", "kron", "linalg.kron"),
    ("ver4forms.linalg", "batch_congruence", "linalg.batch_congruence"),
    ("ver4forms.bform", "BilinearForm.__init__", "bform.BilinearForm.init"),
    ("ver4forms.bform", "BilinearForm.is_nondegenerate", "bform.is_nondegenerate"),
    ("ver4forms.verobj", "decompose", "verobj.decompose"),
    ("ver4forms.verobj", "tensor", "verobj.tensor"),
    ("ver4forms.classify", "classify", "classify.classify"),
    ("ver4forms.classify", "good_pairs", "classify.good_pairs"),
    ("ver4forms.classify", "form_invariant", "classify.form_invariant"),
    ("ver4forms.classify", "canonicalize", "classify.canonicalize"),
    ("ver4forms.classify", "canonical_rep", "classify.canonical_rep"),
    ("ver4forms.divided", "gamma2", "divided.gamma2"),
    ("ver4forms.divided", "beta_q", "divided.beta_q"),
    ("ver4forms.divided", "classify_quadratic", "divided.classify_quadratic"),
    ("ver4forms.witt", "direct_sum", "witt.direct_sum"),
    ("ver4forms.witt", "tensor_product", "witt.tensor_product"),
    ("ver4forms.witt", "emit_tables", "witt.emit_tables"),
    ("ver4forms.oracle", "equivariant_group", "oracle.equivariant_group"),
    ("ver4forms.oracle", "enumerate_forms", "oracle.enumerate_forms"),
    ("ver4forms.oracle", "orbit_classes", "oracle.orbit_classes"),
    ("ver4forms.cli", "main", "cli.main"),
]

GENERATORS = {"oracle.equivariant_group", "oracle.enumerate_forms"}


def _count_mul_arr(args, out):
    return {"field.mul_arr.elements": int(np.size(out))}


def _count_row_reduce(args, out):
    rows, cols = np.shape(args[1])
    return {"linalg.row_reduce.cells": rows * cols}


def _count_mat_mul(args, out):
    (r, inner), (_, c) = np.shape(args[1]), np.shape(args[2])
    return {"linalg.mat_mul.flops": r * inner * c}


def _count_enumerate(args, kwargs):
    m, n, F = args[0], args[1], args[2]
    free = sys.modules["ver4forms.oracle"].free_entry_count(m, n)
    return {"oracle.enumerate_forms.candidates": F.order**free}


COUNTERS = {
    "field.mul_arr": _count_mul_arr,
    "linalg.row_reduce": _count_row_reduce,
    "linalg.mat_mul": _count_mat_mul,
}
CALL_COUNTERS = {"oracle.enumerate_forms": _count_enumerate}


class Tracer:
    """In-memory span recorder; `enabled` gates recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_of.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, add: dict[str, int]):
        for key, val in add.items():
            self.counters[key] = self.counters.get(key, 0) + val

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation boundary)."""
        if not self.enabled:
            yield
            return
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Run correctness checks without recording their calls."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        call_counter = CALL_COUNTERS.get(name)
        tracer = self

        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                if call_counter:
                    tracer.count(call_counter(args, kwargs))
                it = fn(*args, **kwargs)
                while True:
                    # one span per resumption, so the consumer's time between
                    # items is not charged to the generator
                    idx = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.count({name + ".yields": 1})
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter:
                tracer.count(counter(args, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _setattr(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced function at every binding in the package."""
        for modname in {t[0] for t in TARGETS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                continue
        mods = [m for key, m in sys.modules.items() if key == "ver4forms" or key.startswith("ver4forms.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._setattr(m, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals; summaries of several tracers add up."""
        n = len(self.starts)
        names = np.frombuffer(self.name_of, dtype=np.int64) if n else np.zeros(0, np.int64)
        starts = np.frombuffer(self.starts, dtype=np.float64) if n else np.zeros(0)
        ends = np.frombuffer(self.ends, dtype=np.float64) if n else np.zeros(0)
        parents = np.frombuffer(self.parents, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        child_count = np.bincount(parents[has_parent], minlength=n)
        self_time = dur - child_time
        out: dict = {"spans": n, "names": {}, "counters": dict(self.counters)}
        for nid, name in enumerate(self.names):
            sel = names == nid
            calls = int(sel.sum())
            if not calls:
                continue
            out["names"][name] = {
                "calls": calls,
                "self_s": float(self_time[sel].sum()),
                "leaf_calls": int((sel & (child_count == 0)).sum()),
            }
        out["classify_in_canonicalize"] = _descendants(self, names, parents, "classify.classify", "op.canonicalize")
        return out

    def dump(self, path: Path):
        """Write the raw spans (and the name table) as a compressed archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int64) if len(self.name_of) else np.zeros(0, np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64) if len(self.starts) else np.zeros(0),
            end=np.frombuffer(self.ends, dtype=np.float64) if len(self.ends) else np.zeros(0),
            parent=np.frombuffer(self.parents, dtype=np.int64) if len(self.parents) else np.zeros(0, np.int64),
        )


def _descendants(tracer: Tracer, names, parents, child: str, root: str) -> int:
    """How many `child` spans lie under some `root` span."""
    if child not in tracer._ids or root not in tracer._ids:
        return 0
    is_root = names == tracer._ids[root]
    under = np.zeros(names.shape[0], dtype=bool)
    anc = parents.copy()
    while True:
        live = np.nonzero(anc >= 0)[0]
        if not live.size:
            break
        under[live] |= is_root[anc[live]]
        anc[live] = parents[anc[live]]
    return int((under & (names == tracer._ids[child])).sum())


def merge(a: dict, b: dict) -> dict:
    """Sum two summaries."""
    out = {"spans": a.get("spans", 0) + b.get("spans", 0), "names": {}, "counters": {}}
    for src in (a, b):
        for name, rec in src.get("names", {}).items():
            dst = out["names"].setdefault(name, {k: 0 for k in rec})
            for k, v in rec.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in src.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0) + v
    out["classify_in_canonicalize"] = a.get("classify_in_canonicalize", 0) + b.get("classify_in_canonicalize", 0)
    return out
