"""Smoke tests of the benchmark itself (not part of the package's suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ver4forms as v  # noqa: E402
from ver4forms import CanonicalClass, make_field  # noqa: E402

import calib  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def _ctx(**kw):
    return wl.Ctx(ROOT, seed=0, seconds=0.0, trace=False, **kw)


def _tiny_scramble(seed=0):
    F = make_field(2)
    rng = np.random.default_rng(seed)
    forms = []
    for cls in (CanonicalClass("E", 0, 2, 3), CanonicalClass("B", 1, 1), CanonicalClass("D", 2, 2)):
        rep = v.canonical_rep(cls, F)
        G = wl._scramble(F, rep.gram, rep.obj, 1, rng)[0]
        forms.append((cls, rep.obj, G, rep.gram.copy()))
    h_cls = CanonicalClass("E", 0, 1, 2)
    q = v.quad_from_parts(F, 1, v.canonical_rep(h_cls, F))
    quads = [(1, h_cls, q.obj, q.values.copy())]
    return {"forms": forms, "canon": forms, "quads": quads}


def test_scramble_round_passes_on_correct_inputs():
    ctx = _ctx()
    wl.run_scramble(ctx, [_tiny_scramble()])
    assert ctx.attempted == 7 and ctx.failed == 0


def test_wrong_expected_class_is_counted_not_raised():
    inputs = _tiny_scramble()
    cls, obj, G, want = inputs["forms"][0]
    wrong = CanonicalClass("E", 0, 2, 1)
    inputs["forms"][0] = (wrong, obj, G, want)
    inputs["canon"] = inputs["canon"][1:]
    ctx = _ctx()
    wl.run_scramble(ctx, [inputs])
    assert ctx.failed == 1 and ctx.attempted == 6
    assert "E[0,2](1)" in ctx.notes[0]


def test_wrong_canonical_gram_and_quad_class_are_counted():
    inputs = _tiny_scramble()
    cls, obj, G, want = inputs["canon"][0]
    inputs["canon"] = [(cls, obj, G, want ^ 1)]
    h, qcls, qobj, vals = inputs["quads"][0]
    inputs["quads"] = [(h + 1, qcls, qobj, vals)]
    ctx = _ctx()
    wl.run_scramble(ctx, [inputs])
    assert ctx.failed == 2


def test_table_mismatch_and_cell_count_are_counted():
    report = v.witt.TableReport("sum", 2)
    report.cells = 2
    report.records = [
        ("C", 0, 2, None, "C", 0, 2, None, "C[0,4]", "C[0,4]", True),
        ("C", 0, 2, None, "E", 0, 1, 1, "E[0,3](1)", "F[0,3](1)", False),
    ]
    ctx = _ctx()
    wl._check_table(ctx, report, "sum", want_cells=3)
    assert ctx.attempted == 4
    assert ctx.failed == 2  # cell count and the mismatching record


def test_cli_exit_code_and_wrong_label_are_counted():
    F = make_field(2)
    cls = CanonicalClass("E", 0, 1, 2)
    rep = v.canonical_rep(cls, F)
    doc = ("unused.json", cls, rep.gram, rep.obj, rep.gram)
    ctx = _ctx()
    ok = subprocess.CompletedProcess([], 0, stdout='{"label": "E[0,1](2)"}', stderr="")
    wl._check_cli(ctx, "classify", doc, ok)
    bad_label = subprocess.CompletedProcess([], 0, stdout='{"label": "E[0,1](3)"}', stderr="")
    wl._check_cli(ctx, "classify", doc, bad_label)
    bad_exit = subprocess.CompletedProcess([], 2, stdout="", stderr="internal mismatch")
    wl._check_cli(ctx, "canonicalize", doc, bad_exit)
    assert (ctx.attempted, ctx.failed) == (3, 2)


def test_tracer_counts_cache_hits_and_restores_originals():
    F = make_field(2)
    cls = CanonicalClass("C", 2, 2)
    orig = v.classify
    v.canonical_rep.cache_clear()
    tracer = Tracer()
    with tracer.installed():
        assert v.classify is not orig
        rep = v.canonical_rep(cls, F)
        v.canonical_rep(cls, F)
        v.classify(v.BilinearForm(rep.obj, rep.gram))
    assert v.classify is orig
    assert sys.modules["ver4forms.witt"].classify is orig
    summary = tracer.summary()
    rec = summary["names"]["classify.canonical_rep"]
    assert rec["calls"] == 2 and rec["leaf_calls"] == 1
    cl = summary["names"]["classify.classify"]
    assert cl["calls"] == 1 and 0 < cl["self_s"]
    assert summary["names"]["linalg.row_reduce"]["calls"] >= 1


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    s = tracer.summary()["names"]
    inner = s["inner"]["self_s"]
    assert s["outer"]["self_s"] < inner


def _burn():
    """A fixed amount of numpy and interpreter work, unlike calib._reference."""
    a = np.arange(64)
    for _ in range(150):
        a = (a * 5 + 3) & 255


def _scaled_ms(fn, reps, seconds):
    """Scaled ms per fn() call, measured like a workload block."""
    ctx = _ctx()
    kind = wl.Kind(ctx, "burn")
    ctx.speed.start()
    try:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for _ in range(reps):
                kind.time(fn)
            kind.end_round(True)
    finally:
        ctx.speed.stop()
    return kind.ms_per_item()


def test_known_slowdown_in_row_reduce_shows_in_full_in_scaled_classify_time(monkeypatch):
    """A fixed extra cost per linalg.row_reduce call raises scaled item_a_ms
    by calls-per-classify times that cost's own scaled time: the reference
    divisor does not absorb a slowdown in the package."""
    from ver4forms import linalg

    pool = _tiny_scramble()
    original = linalg.row_reduce
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "row_reduce", counting)
    for _, obj, G, _ in pool["forms"]:
        v.classify(v.BilinearForm(obj, G))
    per_classify = len(calls) / len(pool["forms"])
    assert per_classify >= 1

    def slowed(*args, **kwargs):
        _burn()
        return original(*args, **kwargs)

    def classify_ms():
        ctx = wl.Ctx(ROOT, seed=0, seconds=2.0, trace=False)
        ctx.speed.start()
        try:
            res = wl.run_scramble(ctx, [pool])
        finally:
            ctx.speed.stop()
        assert ctx.failed == 0
        return res["items"][0]

    monkeypatch.setattr(linalg, "row_reduce", original)
    base = classify_ms()
    monkeypatch.setattr(linalg, "row_reduce", slowed)
    slow = classify_ms()
    monkeypatch.setattr(linalg, "row_reduce", original)
    expected = per_classify * _scaled_ms(_burn, 50, 2.0)
    assert 0.7 * expected < slow - base < 1.3 * expected, (base, slow, expected)
