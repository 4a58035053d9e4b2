"""The three benchmark workloads: input generation, timed rounds, checks.

Every workload runs in rounds.  A round is a fixed amount of work built
from the seed before timing starts; the program sees only the generated
inputs.  Before each round the package's `lru_cache`s other than
`make_field` are cleared (untimed), so every round pays its own cache fill
as a fresh process would; `make_field` fill belongs to `setup_s`.

Each output is checked after its operation's timer stops (with tracing
paused).  A wrong result or an exception counts as one failed check and the
run goes on.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calib import CHILD_NOMINAL_S, NOMINAL_MS, ChildPairing, SpeedSampler
from tracing import Tracer, merge

MAX_FAILURE_NOTES = 20


@dataclass
class Ctx:
    """Run-wide state: seed, time budget, tracer, check tallies."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    speed: SpeedSampler = field(default_factory=SpeedSampler)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(what)

    @property
    def tmp(self) -> Path:
        return self.root / ".perfbench_tmp" / str(os.getpid())


def package_caches():
    """Every lru_cache in the package except make_field's."""
    out = []
    for key, mod in list(sys.modules.items()):
        if key != "ver4forms" and not key.startswith("ver4forms."):
            continue
        for name, val in vars(mod).items():
            if name != "make_field" and hasattr(val, "cache_clear") and hasattr(val, "cache_info"):
                if all(val is not c for c in out):
                    out.append(val)
    return out


class Rounds:
    """Closed loop over rounds until the time budget is spent.

    Untraced runs only time rounds.  Traced runs alternate untraced and
    traced rounds (untraced first) so the two can be compared for the
    tracing overhead; per-layer figures come from the traced ones.

    Iteration yields (input index, traced).  In a traced run each traced
    round gets the input index of the untraced round before it, so the
    overhead is a paired comparison and the traced rounds cover every input.
    """

    def __init__(self, ctx: Ctx, min_rounds: int = 1):
        self.ctx = ctx
        self.min_rounds = min_rounds
        self.caches = package_caches()
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.summary: dict = {}
        self.last_tracer: Tracer | None = None

    def __iter__(self):
        ctx = self.ctx
        start = time.perf_counter()
        i = 0
        while True:
            done = len(self.plain) + len(self.traced)
            elapsed = time.perf_counter() - start
            need_both = ctx.trace and not (self.plain and self.traced)
            if done >= self.min_rounds and not need_both:
                mean = elapsed / done
                if elapsed + mean > ctx.seconds:
                    return
            for cache in self.caches:
                cache.cache_clear()
            gc.collect()  # start each round from the same heap, untimed
            traced = ctx.trace and i % 2 == 1
            mark = ctx.speed.mark()
            t0 = time.perf_counter()
            if traced:
                tracer = Tracer()
                ctx.tracer = tracer
                with ctx.speed.paused(), tracer.installed():
                    yield i // 2, True
                self.traced.append(time.perf_counter() - t0)
                self.summary = merge(self.summary, tracer.summary())
                self.last_tracer = tracer
                ctx.tracer = Tracer()
            else:
                yield i // 2 if ctx.trace else i, False
                self.plain.append(time.perf_counter() - t0 - sum(ctx.speed.since(mark)))
            i += 1

    def overhead(self) -> float:
        return statistics.median(self.traced) / statistics.median(self.plain) - 1.0


class Kind:
    """Wall time and item count of one operation kind, one block per round.

    A block is all of the kind's operations in one round.  Reference-loop
    time inside an operation is subtracted from it, and the block is scaled
    by the reference samples taken during its operations (see calib.py).
    """

    def __init__(self, ctx: Ctx, name: str):
        self.ctx = ctx
        self.name = name
        self.per_round: list[tuple[int, float, float]] = []  # items, seconds, scale
        self._n = 0
        self._t = 0.0
        self._samples: list[float] = []

    def time(self, fn):
        """Run fn() as one timed operation; an exception is returned."""
        tracer, speed = self.ctx.tracer, self.ctx.speed
        mark = speed.mark()
        idx = tracer.open(tracer.name_id("op." + self.name)) if tracer.enabled else -1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed check by the caller
            out = exc
        t1 = time.perf_counter()
        inside = speed.since(mark)
        self._t += t1 - t0 - sum(inside)
        self._samples += inside
        if idx >= 0:
            tracer.close(idx)
        self._n += 1
        return out

    def recount(self, items: int):
        """The last operation produced `items` items, not one."""
        self._n += items - 1

    def end_round(self, keep: bool):
        if keep:
            self.per_round.append((self._n, self._t, self.ctx.speed.scale(self._samples)))
        self._n, self._t, self._samples = 0, 0.0, []

    def ms_per_item(self, scaled: bool = True) -> float:
        """Median over rounds of the block's mean time per item."""
        return statistics.median(1000.0 * t / n * (s if scaled else 1.0) for n, t, s in self.per_round if n)

    def items(self) -> int:
        return sum(n for n, _, _ in self.per_round)

    def reference_line(self) -> str:
        """The divisor per block: mean reference sample, in ms."""
        ref = [NOMINAL_MS / s for n, _, s in self.per_round if n]
        return (
            f"  {self.name} reference sample per block: median {statistics.median(ref):.4f} ms, "
            f"min {min(ref):.4f}, max {max(ref):.4f} over {len(ref)} blocks"
        )


def _rate_lines(name: str, kind: Kind, metric: str, what: str) -> list[str]:
    return [
        f"{name} {1000 / kind.ms_per_item(scaled=False):.1f} 1/s  (wall, {kind.items()} {what}); "
        f"{metric} {kind.ms_per_item():.4f} (scaled)",
        kind.reference_line(),
    ]


def _failed(x) -> bool:
    return isinstance(x, Exception)


def _scramble(F, rep_gram, obj, count, rng):
    from ver4forms import linalg, random_equivariant_matrix

    mats = np.stack([random_equivariant_matrix(obj, rng) for _ in range(count)])
    return linalg.batch_congruence(F, mats, rep_gram)


def _sampled_classes(F, m, n, rng):
    """Every family valid on (m, n); E and F get a random parameter."""
    from ver4forms import CanonicalClass

    out = []
    for fam in "ABCDEF":
        param = int(rng.integers(0, F.order)) if fam in "EF" else None
        if fam == "F" and n == 2 and param == 0:
            param = 1
        try:
            out.append(CanonicalClass(fam, m, n, param))
        except ValueError:
            continue
    return out


# -- scramble ---------------------------------------------------------------------

SCRAMBLE_COPIES_GF8 = 8
# GF(2^16) shapes (m, n): small ones plus dimension 24-28 objects
SCRAMBLE_SHAPES_GF16 = [(0, 1), (1, 1), (2, 2), (3, 2), (0, 4), (4, 3), (0, 12), (4, 10), (2, 13), (0, 14)]
SCRAMBLE_COPIES_GF16 = 2
# Rounds cycle through this many independently generated pools, so one run
# averages over more scrambles and GF(2^16) parameters than one pool holds
# (canonicalize and classify_quadratic cost depends on them).
SCRAMBLE_POOLS = 4


def scramble_inputs(seed: int) -> list[dict]:
    """SCRAMBLE_POOLS pools of scrambled forms (every GF(8) class on
    m, n <= 4 plus GF(2^16) samples) and scrambled quadratic forms."""
    rng = np.random.default_rng(seed)
    return [_scramble_pool(rng) for _ in range(SCRAMBLE_POOLS)]


def _scramble_pool(rng) -> dict:
    from ver4forms import (
        CanonicalClass,
        canonical_rep,
        class_inventory,
        make_field,
        quad_from_parts,
        quad_transform,
        random_equivariant_automorphism,
    )

    F8, F16 = make_field(3), make_field(16)
    forms, canon, quads = [], [], []
    classes = [(F8, c, SCRAMBLE_COPIES_GF8) for m in range(5) for n in range(5) for c in class_inventory(m, n, F8)]
    classes += [(F16, c, SCRAMBLE_COPIES_GF16) for m, n in SCRAMBLE_SHAPES_GF16 for c in _sampled_classes(F16, m, n, rng)]
    for F, cls, copies in classes:
        rep = canonical_rep(cls, F)
        grams = _scramble(F, rep.gram, rep.obj, copies, rng)
        for j, G in enumerate(grams):
            item = (cls, rep.obj, G, rep.gram.copy())
            forms.append(item)
            if j == 0:
                canon.append(item)
    quad_specs = [(F8, h, c) for h in range(3) for n in range(4) for c in (class_inventory(0, n, F8) if n else [None])]
    quad_specs += [(F16, h, c) for h in range(2) for n in (1, 2, 3) for c in _sampled_classes(F16, 0, n, rng)]
    for F, h, cls in quad_specs:
        if h == 0 and cls is None:
            continue
        gamma = canonical_rep(cls, F) if cls is not None else None
        q = quad_from_parts(F, h, gamma)
        q = quad_transform(q, random_equivariant_automorphism(q.obj, rng))
        want = cls if cls is not None else CanonicalClass("C", 0, 0)
        quads.append((h, want, q.obj, q.values.copy()))
    return {"forms": forms, "canon": canon, "quads": quads}


def run_scramble(ctx: Ctx, pools: list[dict] | None = None) -> dict:
    import ver4forms as v
    from ver4forms import linalg

    pools = pools or scramble_inputs(ctx.seed)
    kinds = {k: Kind(ctx, k) for k in ("classify", "canonicalize", "classify_quadratic")}
    rounds = Rounds(ctx)
    for i, traced in rounds:
        inputs = pools[i % len(pools)]
        kc = kinds["classify"]
        for cls, obj, G, _ in inputs["forms"]:
            got = kc.time(lambda: v.classify(v.BilinearForm(obj, G)))
            with ctx.tracer.paused():
                ctx.check(got == cls, f"classify {cls}: got {got!r}")
        kn = kinds["canonicalize"]
        for cls, obj, G, want in inputs["canon"]:
            got = kn.time(lambda: v.canonicalize(v.BilinearForm(obj, G)))
            with ctx.tracer.paused():
                ok = not _failed(got)
                if ok:
                    T, canon_form = got[0], got[1]
                    Tm = T.matrix
                    ok = np.array_equal(canon_form.gram, want) and np.array_equal(
                        linalg.congruence(obj.field, Tm, G), want
                    )
                ctx.check(ok, f"canonicalize {cls}: {got!r}")
        kq = kinds["classify_quadratic"]
        for h, want, obj, values in inputs["quads"]:
            got = kq.time(lambda: v.classify_quadratic(v.QuadraticForm(obj, values)))
            with ctx.tracer.paused():
                ctx.check(not _failed(got) and tuple(got) == (h, want), f"quad {h}H + {want}: got {got!r}")
        for k in kinds.values():
            k.end_round(not traced)
    lines = (
        _rate_lines("classify_per_s", kinds["classify"], "item_a_ms", "forms")
        + _rate_lines("canonicalize_per_s", kinds["canonicalize"], "item_b_ms", "forms")
        + _rate_lines("quad_classify_per_s", kinds["classify_quadratic"], "item_c_ms", "forms")
    )
    return {
        "items": [kinds[k].ms_per_item() for k in ("classify", "canonicalize", "classify_quadratic")],
        "lines": lines,
        "rounds": rounds,
    }


# -- sweep ------------------------------------------------------------------------

SUM_MAX_SIZE = 4
PRODUCT_MAX_SIZE = 3
PRODUCT_DIM_CAP = 144
CENSUS = {(0, 1): 4, (1, 1): 1, (0, 2): 9, (2, 0): 2}  # GF(4) orbit counts
SWEEP_PARAM_SETS = 64  # rounds cycle through this many parameter subsets


def sweep_inputs(seed: int) -> dict:
    """Per round: a GF(8) parameter subset {0, 1, a}; the census set is fixed."""
    rng = np.random.default_rng(seed)
    params = [[0, 1, int(a)] for a in rng.integers(2, 8, size=SWEEP_PARAM_SETS)]
    return {"params": params, "census": list(CENSUS)}


_LABEL = re.compile(r"^([A-F])\[(\d+),(\d+)\](?:\((\d+)\))?$")


def _check_table(ctx: Ctx, report, op: str, want_cells: int):
    """Each cell: rule match and result sizes; plus the cell count."""
    ctx.check(report.cells == want_cells, f"{op} table has {report.cells} cells, want {want_cells}")
    for rec in report.records:
        _f1, m1, n1, _p1, _f2, m2, n2, _p2, got, expected, match = rec
        hit = _LABEL.match(got)
        if op == "sum":
            size = (m1 + m2, n1 + n2)
        else:
            size = (m1 * m2, 2 * n1 * n2 + m1 * n2 + n1 * m2)
        ok = bool(match) and got == expected and hit is not None and (int(hit[2]), int(hit[3])) == size
        ctx.check(ok, f"{op} cell {rec}")
    ctx.check(not report.mismatches, f"{op} mismatches {report.mismatches[:3]}")


def _grid_size(F, max_size: int, params) -> int:
    from ver4forms import CanonicalClass

    count = 0
    for m in range(max_size + 1):
        for n in range(max_size + 1):
            for fam in "ABCDEF":
                for p in (params if fam in "EF" else [None]):
                    try:
                        CanonicalClass(fam, m, n, p)
                    except ValueError:
                        continue
                    count += 1
    return count * (count + 1) // 2


def run_sweep(ctx: Ctx) -> dict:
    import ver4forms as v
    from ver4forms import class_inventory, make_field

    inputs = sweep_inputs(ctx.seed)
    F8, F4 = make_field(3), make_field(2)
    kinds = {k: Kind(ctx, k) for k in ("sum_cell", "product_cell", "census")}
    # a round takes 7-12 s, so insist on three for the medians
    rounds = Rounds(ctx, min_rounds=3)
    for i, traced in rounds:
        params = inputs["params"][i % len(inputs["params"])]
        ks = kinds["sum_cell"]
        got = ks.time(lambda: v.emit_tables(F8, max_size=SUM_MAX_SIZE, params=params, product_dim_cap=-1))
        with ctx.tracer.paused():
            if _failed(got):
                ctx.check(False, f"sum table: {got!r}")
            else:
                _check_table(ctx, got[0], "sum", _grid_size(F8, SUM_MAX_SIZE, params))
                ks.recount(got[0].cells)
        kp = kinds["product_cell"]
        got = kp.time(lambda: v.emit_tables(F8, max_size=PRODUCT_MAX_SIZE, params=params, product_dim_cap=PRODUCT_DIM_CAP))
        with ctx.tracer.paused():
            if _failed(got):
                ctx.check(False, f"product table: {got!r}")
            else:
                cells = _grid_size(F8, PRODUCT_MAX_SIZE, params)
                _check_table(ctx, got[0], "sum", cells)
                _check_table(ctx, got[1], "product", cells)
                kp.recount(got[1].cells)
        kc = kinds["census"]
        reports = kc.time(lambda: [v.orbit_classes(m, n, F4) for m, n in inputs["census"]])
        with ctx.tracer.paused():
            if _failed(reports):
                ctx.check(False, f"census: {reports!r}")
            else:
                for rep in reports:
                    labels = [label for label, _, _ in rep.orbits]
                    inventory = sorted(c.label() for c in class_inventory(rep.m, rep.n, F4))
                    ok = (
                        rep.orbit_count == CENSUS[(rep.m, rep.n)]
                        and sorted(labels) == inventory
                        and rep.total_forms == sum(size for _, size, _ in rep.orbits)
                    )
                    ctx.check(ok, f"census ({rep.m},{rep.n}): {rep.orbit_count} orbits {labels}")
        for k in kinds.values():
            k.end_round(not traced)
    sum_ms, prod_ms, census_ms = (kinds[k].ms_per_item() for k in ("sum_cell", "product_cell", "census"))
    census = kinds["census"]
    lines = (
        _rate_lines("sum_cells_per_s", kinds["sum_cell"], "item_a_ms", "cells")
        + _rate_lines("product_cells_per_s", kinds["product_cell"], "item_b_ms", "cells")
        + [
            f"census_s {census.ms_per_item(scaled=False) / 1000:.4f} s  (wall, {census.items()} census sets); "
            f"item_c_ms {census_ms:.1f} (scaled)",
            census.reference_line(),
        ]
    )
    return {"items": [sum_ms, prod_ms, census_ms], "lines": lines, "rounds": rounds}


# -- cli-cold ---------------------------------------------------------------------

CLI_ROTATION = [("classify", 2), ("canonicalize", 2), ("classify", 16), ("canonicalize", 16)]
CLI_SHAPES = {2: [(1, 1), (2, 1), (0, 2), (2, 2), (1, 3), (4, 2)], 16: [(0, 2), (2, 2), (1, 3), (0, 4), (3, 3), (2, 4)]}


def cli_inputs(seed: int, tmp: Path) -> dict:
    """Scrambled form documents over GF(4) and GF(2^16), written to tmp."""
    from ver4forms import canonical_rep, make_field

    rng = np.random.default_rng(seed)
    tmp.mkdir(parents=True, exist_ok=True)
    docs = {}
    for k, shapes in CLI_SHAPES.items():
        F = make_field(k)
        docs[k] = []
        for j, (m, n) in enumerate(shapes):
            classes = _sampled_classes(F, m, n, rng)
            cls = classes[int(rng.integers(0, len(classes)))]
            rep = canonical_rep(cls, F)
            G = _scramble(F, rep.gram, rep.obj, 1, rng)[0]
            path = tmp / f"form-k{k}-{j}.json"
            path.write_text(json.dumps({"field": {"k": k}, "object": {"m": m, "n": n}, "gram": G.tolist()}))
            docs[k].append((str(path), cls, G, rep.obj, rep.gram.copy()))
    return docs


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _check_cli(ctx: Ctx, cmd: str, doc, proc) -> None:
    from ver4forms import linalg

    _path, cls, G, obj, want = doc
    if isinstance(proc, Exception) or proc.returncode != 0:
        ctx.check(False, f"cli {cmd} {cls}: {proc!r}")
        return
    try:
        out = json.loads(proc.stdout)
    except ValueError:
        ctx.check(False, f"cli {cmd} {cls}: stdout is not JSON: {proc.stdout[:200]!r}")
        return
    if cmd == "classify":
        ctx.check(out.get("label") == cls.label(), f"cli classify {cls}: {out}")
        return
    T = np.array(out.get("transform"), dtype=np.int64)
    ok = (
        out.get("class", {}).get("label") == cls.label()
        and np.array_equal(np.array(out.get("canonical_gram"), dtype=np.int64), want)
        and T.shape == G.shape
        and np.array_equal(linalg.congruence(obj.field, T, G), want)
    )
    ctx.check(ok, f"cli canonicalize {cls}: {out}")


def run_cli_cold(ctx: Ctx) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    child = str(ctx.root / "perfbench" / "cli_child.py")
    docs = cli_inputs(ctx.seed, ctx.tmp)

    def call(cmd, path, summary=None):
        argv = [sys.executable, "-m", "ver4forms.cli"] if summary is None else [sys.executable, child, summary]
        try:
            return subprocess.run(argv + ["--json", cmd, path], env=env, cwd=ctx.root,
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            return exc

    for k in (2, 16):  # untimed: byte-compile and page in, as an installed CLI is
        call("classify", docs[k][0][0])
    ctx.speed.stop()  # children are paired with reference children instead
    pairing = ChildPairing(env, ctx.root)
    lat = {2: [], 16: []}
    cpu, traced_lat, import_s, warm_main = [], [], [], []
    summary_path = str(ctx.tmp / "summary.json")
    rounds = Rounds(ctx, min_rounds=4)
    rounds.caches = []  # children start cold anyway; keep the parent warm for cli.main.s
    for i, traced in rounds:
        for cmd, k in CLI_ROTATION:
            doc = docs[k][i % len(docs[k])]
            c0, t0 = _child_cpu(), time.perf_counter()
            proc = call(cmd, doc[0], summary_path if traced else None)
            dt = time.perf_counter() - t0
            if traced:
                traced_lat.append(dt)
            else:
                cpu.append(_child_cpu() - c0)
                lat[k].append((dt, pairing.scale_next()))
            with ctx.tracer.paused():
                _check_cli(ctx, cmd, doc, proc)
            if traced and not isinstance(proc, Exception) and proc.returncode == 0:
                rec = json.loads(Path(summary_path).read_text())
                import_s.append(rec.pop("import_s"))
                rounds.summary = merge(rounds.summary, rec)
        if ctx.trace and not traced:
            warm_main += _warm_main(ctx, [(cmd, docs[k][i % len(docs[k])]) for cmd, k in CLI_ROTATION])
    raw = {k: [dt for dt, _ in lat[k]] for k in lat}
    scaled = {k: [1000 * dt * s for dt, s in lat[k]] for k in lat}
    raw_all, scaled_all = raw[2] + raw[16], scaled[2] + scaled[16]
    n = len(raw_all)
    p50_2, p50_16 = (statistics.median(scaled[k]) for k in (2, 16))
    p90 = statistics.quantiles(scaled_all, n=10)[-1]
    lines = [
        f"cli_latency_p50_s {statistics.median(raw_all):.4f} s  (wall, {n} calls)",
        f"cli_latency_p90_s {statistics.quantiles(raw_all, n=10)[-1]:.4f} s  (wall, {n} calls)",
        f"item_a_ms {p50_2:.2f} ms  (scaled p50, k=2, {len(raw[2])} calls; wall {1000 * statistics.median(raw[2]):.2f})",
        f"item_b_ms {p50_16:.2f} ms  (scaled p50, k=16, {len(raw[16])} calls; wall {1000 * statistics.median(raw[16]):.2f})",
        f"item_c_ms {p90:.2f} ms  (scaled p90, all {n} calls)",
        _reference_child_line([s for k in lat for _, s in lat[k]]),
    ]
    extra = {}
    if ctx.trace:
        extra = {
            "cli.import_s": statistics.median(import_s) if import_s else 0.0,
            "cli.main.s": statistics.median(warm_main) if warm_main else 0.0,
            "cli.child_cpu_s": statistics.median(cpu) if cpu else 0.0,
            "overhead": statistics.median(traced_lat) / statistics.median(raw_all) - 1.0 if traced_lat and n else 0.0,
        }
    shutil.rmtree(ctx.tmp, ignore_errors=True)
    with contextlib.suppress(OSError):
        ctx.tmp.parent.rmdir()
    return {"items": [p50_2, p50_16, p90], "lines": lines, "rounds": rounds, "extra": extra, "children_rss": True}


def _reference_child_line(scales: list[float]) -> str:
    """The divisor per measured child: mean of its two reference children."""
    ref = [CHILD_NOMINAL_S / s for s in scales]
    return (
        f"  reference child per call: median {statistics.median(ref):.4f} s, "
        f"min {min(ref):.4f}, max {max(ref):.4f} over {len(ref)} calls"
    )


def _warm_main(ctx: Ctx, calls) -> list[float]:
    """In-process `cli.main` on already-imported modules, stdout discarded."""
    import io

    from ver4forms import cli

    out = []
    for cmd, doc in calls:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--json", cmd, doc[0]])
        out.append(time.perf_counter() - t0)
        ctx.check(rc == 0, f"warm cli.main {cmd}: exit {rc}")
    return out


WORKLOADS = {"scramble": run_scramble, "sweep": run_sweep, "cli-cold": run_cli_cold}
FIELDS = {"scramble": (3, 16), "sweep": (3, 2), "cli-cold": (2, 16)}
