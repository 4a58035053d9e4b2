"""ver4forms benchmark.

usage: python3 perfbench/run.py --workload {scramble,sweep,cli-cold}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` (it need not be installed).  One process, one thread, one client in
a closed loop: each operation starts after the previous one returned.
Workloads, metrics and their mapping to the package's layers are described
in perfbench/README.md.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones from traced rounds,
including the tracing overhead against untraced rounds of the same run.
Human-readable lines come before it.  Exit code 2 without a result means
the benchmark could not run (for example, no `src/ver4forms`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One thread: numpy's BLAS pool is never used by the package's int64 kernels,
# but starting it costs CPU in every fresh interpreter.  Children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SETUP_REPEATS = 15
# The child times its own `import numpy` as the reference (see calib.py),
# then `import ver4forms` plus make_field: the package's own set-up cost,
# which interpreter start-up and numpy would otherwise dilute.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import ver4forms\n"
    "for k in sys.argv[1:]:\n"
    "    ver4forms.make_field(int(k))\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)


def measure_setup(fields) -> tuple[float, float, list[float]]:
    """Median over fresh interpreters of `import ver4forms` plus make_field
    for `fields`, timed inside each child: scaled by the child's own numpy
    import (see calib.py) and as measured; plus each child's numpy import time.

    The first child is untimed: it byte-compiles the sources, which an
    installed package has already done.
    """
    from calib import NUMPY_IMPORT_NOMINAL_S

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", SETUP_CODE] + [str(k) for k in fields]
    scaled, raw, ref = [], [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        numpy_s, dt = (float(x) for x in proc.stdout.split()[-2:])
        if i:
            raw.append(dt)
            scaled.append(dt * NUMPY_IMPORT_NOMINAL_S / numpy_s)
            ref.append(numpy_s)
    return statistics.median(scaled), statistics.median(raw), ref


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(summary: dict, rounds: int, extra: dict) -> dict:
    """Per-layer figures as totals per traced round of the workload."""
    names = summary.get("names", {})
    counters = summary.get("counters", {})
    per = max(rounds, 1)

    def calls(n):
        return names.get(n, {}).get("calls", 0) / per

    def self_s(n):
        return names.get(n, {}).get("self_s", 0.0) / per

    def hit_ratio(n):
        rec = names.get(n)
        return rec["leaf_calls"] / rec["calls"] if rec and rec["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    count, sec = "count", "s"
    m = {
        "field.mul_arr.calls": (calls("field.mul_arr"), count),
        "field.mul_arr.elements": (counters.get("field.mul_arr.elements", 0) / per, count),
        "field.mul_arr.self_s": (self_s("field.mul_arr"), sec),
        "field.make_field.s": (self_s("field.make_field"), sec),
        "linalg.row_reduce.calls": (calls("linalg.row_reduce"), count),
        "linalg.row_reduce.cells": (counters.get("linalg.row_reduce.cells", 0) / per, count),
        "linalg.row_reduce.self_s": (self_s("linalg.row_reduce"), sec),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), count),
        "linalg.mat_mul.flops": (counters.get("linalg.mat_mul.flops", 0) / per, count),
        "linalg.mat_mul.self_s": (self_s("linalg.mat_mul"), sec),
        "linalg.kron.self_s": (self_s("linalg.kron"), sec),
        "linalg.batch_congruence.self_s": (self_s("linalg.batch_congruence"), sec),
        "bform.BilinearForm.init.calls": (calls("bform.BilinearForm.init"), count),
        "bform.BilinearForm.init.self_s": (self_s("bform.BilinearForm.init"), sec),
        "bform.is_nondegenerate.self_s": (self_s("bform.is_nondegenerate"), sec),
        "verobj.decompose.calls": (calls("verobj.decompose"), count),
        "verobj.decompose.self_s": (self_s("verobj.decompose"), sec),
        "verobj.tensor.hit_ratio": (hit_ratio("verobj.tensor"), "ratio"),
        "classify.classify.self_s": (self_s("classify.classify"), sec),
        "classify.good_pairs.self_s": (self_s("classify.good_pairs"), sec),
        "classify.form_invariant.self_s": (self_s("classify.form_invariant"), sec),
        "classify.canonicalize.self_s": (self_s("classify.canonicalize"), sec),
        "classify.classify.calls_per_canonicalize": (
            ratio(summary.get("classify_in_canonicalize", 0), names.get("op.canonicalize", {}).get("calls", 0)),
            "ratio",
        ),
        "classify.canonical_rep.hit_ratio": (hit_ratio("classify.canonical_rep"), "ratio"),
        "divided.gamma2.hit_ratio": (hit_ratio("divided.gamma2"), "ratio"),
        "divided.gamma2.self_s": (self_s("divided.gamma2"), sec),
        "divided.beta_q.self_s": (self_s("divided.beta_q"), sec),
        "divided.classify_quadratic.self_s": (self_s("divided.classify_quadratic"), sec),
        "witt.direct_sum.self_s": (self_s("witt.direct_sum"), sec),
        "witt.tensor_product.self_s": (self_s("witt.tensor_product"), sec),
        "oracle.equivariant_group.elements": (counters.get("oracle.equivariant_group.yields", 0) / per, count),
        "oracle.equivariant_group.self_s": (self_s("oracle.equivariant_group"), sec),
        "oracle.enumerate_forms.useful_ratio": (
            ratio(counters.get("oracle.enumerate_forms.yields", 0), counters.get("oracle.enumerate_forms.candidates", 0)),
            "ratio",
        ),
        "oracle.orbit_classes.self_s": (self_s("oracle.orbit_classes"), sec),
        "cli.import_s": (extra.get("cli.import_s", 0.0), sec),
        "cli.main.s": (extra.get("cli.main.s", 0.0), sec),
        "cli.child_cpu_s": (extra.get("cli.child_cpu_s", 0.0), sec),
        "trace.spans": (summary.get("spans", 0) / per, count),
        "trace.overhead_ratio": (extra.get("overhead", 0.0), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["scramble", "sweep", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ver4forms" / "__init__.py").is_file():
        print(f"error: no ver4forms package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ver4forms

    from workloads import FIELDS, WORKLOADS, Ctx

    setup_s, setup_raw, setup_ref = measure_setup(FIELDS[args.workload])
    ctx = Ctx(ROOT, args.seed, args.seconds, bool(args.trace))
    ctx.speed.start()
    try:
        for k in FIELDS[args.workload]:
            ver4forms.make_field(k)
        res = WORKLOADS[args.workload](ctx)
    finally:
        ctx.speed.stop()
    rounds = res["rounds"]

    for line in res["lines"]:
        print(line)
    print(f"setup_s {setup_s:.4f} s  (scaled; wall {setup_raw:.4f}; median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  set-up reference (numpy import in the child): median {statistics.median(setup_ref):.4f} s, "
          f"min {min(setup_ref):.4f}, max {max(setup_ref):.4f}")
    print(f"failed_ratio {ctx.failed / max(ctx.attempted, 1):.6f}  ({ctx.failed} of {ctx.attempted} checks)")
    for note in ctx.notes:
        print(f"FAILED {note}")

    if args.trace:
        extra = dict(res.get("extra", {}))
        extra.setdefault("overhead", rounds.overhead())
        metrics = layer_metrics(rounds.summary, len(rounds.traced), extra)
        if rounds.last_tracer is not None:
            rounds.last_tracer.dump(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")
        print(f"tracing overhead {100 * extra['overhead']:.1f}% over {len(rounds.traced)} traced round(s)")
    else:
        a, b, c = res["items"]
        metrics = {
            "item_a_ms": {"value": a, "unit": "ms"},
            "item_b_ms": {"value": b, "unit": "ms"},
            "item_c_ms": {"value": c, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(res.get("children_rss", False)), "unit": "MiB"},
        }
    print(json.dumps({
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
