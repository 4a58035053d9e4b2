"""Command-line front-end for batch classification and verification.

Exit codes: 0 on success, 1 on validation errors (bad JSON, schema
violations, out-of-range fields, unclassifiable input), 2 on internal
cross-check mismatches.  `--json` suppresses prose and prints one JSON
document; default output is human-readable with the JSON appended where it
is the payload.  Handlers import what they run, so a cold `classify` or
`canonicalize` loads none of `divided`, `witt` and `oracle`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .bform import BilinearForm
from .classify import (
    CanonicalClass,
    InternalCheckError,
    canonical_rep,
    canonicalize,
    canonicalize_batch,
    classify,
    form_invariant,
    good_pairs,
)
from .field import make_field
from .linalg import congruence, eye, mat_mul
from .verobj import (
    GAMMA2_BASIS_MAX_DIM,
    VerObject,
    braiding,
    check_r_matrix_axioms,
    hexagons_hold,
    random_equivariant_matrices,
)

# selfcheck's time and memory grow with --trials ((trials, 3) field triples,
# trials // 4 + 1 scrambles per class): ~0.5 ms a trial (2-CPU x86 VM), ~50 s
SELFCHECK_MAX_TRIALS = 100_000


def _unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` for `json.load`: a JSON object that repeats no key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r:.40} in a JSON object")
        doc[key] = value
    return doc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is not valid JSON: nested too deeply") from exc


def _load_form(path: str) -> BilinearForm:
    return BilinearForm.from_json(_load_json(path))


def _emit(payload: dict, args, prose: str | None = None):
    if args.json or prose is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(prose)


def _cmd_classify(args) -> int:
    beta = _load_form(args.file)
    cls = classify(beta)
    _emit(cls.to_json(), args, cls.label())
    return 0


def _cmd_canonicalize(args) -> int:
    beta = _load_form(args.file)
    transform, canon, cls = canonicalize(beta)
    payload = {
        "class": cls.to_json(),
        "transform": transform.matrix.tolist(),
        "canonical_gram": canon.gram.tolist(),
    }
    _emit(payload, args)
    return 0


def _cmd_invariants(args) -> int:
    beta = _load_form(args.file)
    symmetric = beta.is_symmetric()
    payload: dict = {
        "symmetric": symmetric,
        "nondegenerate": beta.is_nondegenerate(),
        "radical_rank": beta.radical().dim,
    }
    if symmetric:
        alt = beta.is_alternating()
        payload.update(
            {
                "alternating": alt,
                "oscillating": beta.is_oscillating(),
                "super_alternating": beta.is_super_alternating(),
                "good_pairs": good_pairs(beta).to_json(),
                "form_invariant": form_invariant(beta)
                if alt and payload["nondegenerate"]
                else None,
            }
        )
    _emit(payload, args)
    return 0


def _binary_op(args, op: str) -> int:
    from . import witt

    b1 = _load_form(args.file1)
    b2 = _load_form(args.file2)
    result = getattr(witt, op)(b1, b2)
    payload = {"form": result.to_json()}
    if result.is_symmetric() and result.is_nondegenerate():
        payload["class"] = classify(result).to_json()
    else:
        payload["class"] = None
    _emit(payload, args)
    return 0


def _cmd_quad_classify(args) -> int:
    from .divided import QuadraticForm, classify_quadratic

    q = QuadraticForm.from_json(_load_json(args.file))
    h, cls = classify_quadratic(q)
    payload = {"hyperbolic_multiplicity": h, "np_class": cls.to_json()}
    _emit(payload, args, f"{h} hyperbolic plane(s) + {cls.label()}")
    return 0


def _cmd_gamma2_basis(args) -> int:
    from .divided import gamma2

    F = make_field(args.k)
    obj = VerObject(F, args.m, args.n)
    basis = gamma2(obj)
    lines = []
    for line in basis.lines:
        lines.append(
            {
                "family": line.family,
                "indices": list(line.indices),
                "generator": line.describe(obj),
                "dim": line.dim,
            }
        )
    payload = {
        "object": obj.to_json(),
        "dim": basis.dim,
        "num_lines": basis.num_lines,
        "lines": lines,
    }
    prose = "\n".join(
        f"[family {ln['family']}] {ln['generator']}"
        + ("  (with its t-image)" if ln["dim"] == 2 else "")
        for ln in lines
    ) or "(empty)"
    _emit(payload, args, prose)
    return 0


def _cmd_tables(args) -> int:
    from .witt import emit_tables

    F = make_field(args.k)
    params = [0, 1, 2, 3, F.order - 1] if F.order > 8 else None
    outdir = Path(args.out)
    # refuse an unusable --out before computing, making no directory for a refused grid
    nearest = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not nearest.is_dir():
        raise ValueError(f"cannot write {outdir}: {nearest} is not a directory")
    sum_rep, prod_rep = emit_tables(F, max_size=args.max_size, params=params)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, rep in (("sum_table", sum_rep), ("product_table", prod_rep)):
            (outdir / f"{name}.md").write_text(rep.to_markdown(), encoding="utf-8")
            (outdir / f"{name}.csv").write_text(rep.to_csv(), encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {outdir}: {exc}") from exc
    payload = {
        "sum": {"cells": sum_rep.cells, "mismatches": sum_rep.mismatches,
                "coincidences": len(sum_rep.coincidences)},
        "product": {"cells": prod_rep.cells, "mismatches": prod_rep.mismatches,
                    "coincidences": len(prod_rep.coincidences)},
        "out": str(outdir),
    }
    _emit(
        payload,
        args,
        f"sum table: {sum_rep.cells} cells, {len(sum_rep.mismatches)} mismatches\n"
        f"product table: {prod_rep.cells} cells, {len(prod_rep.mismatches)} mismatches\n"
        f"files written to {outdir}",
    )
    return 0 if sum_rep.ok and prod_rep.ok else 2


def _cmd_oracle(args) -> int:
    from .oracle import orbit_classes

    F = make_field(args.k)
    report = orbit_classes(args.m, args.n, F)
    _emit(report.to_json(), args, report.summary())
    return 0


def _field_axioms(F, rng, trials: int) -> bool:
    """Distributivity, square roots and inverses on random triples."""
    triples = rng.integers(0, F.order, (trials, 3)).tolist()
    return all(
        F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        and F.mul(F.sqrt(a), F.sqrt(a)) == a
        and (a == 0 or F.mul(a, F.inv(a)) == 1)
        for a, b, c in triples
    )


def _canonicalizes(cls: CanonicalClass, F, rng, count: int) -> bool:
    """Whether `count` random equivariant congruences of `cls`'s
    representative canonicalize back to `cls`.  `canonicalize_batch` itself
    certifies each class, transform and canonical Gram, or raises."""
    rep = canonical_rep(cls, F)
    Ts = random_equivariant_matrices(rep.obj, rng, count)
    return all(got == cls for _, _, got in canonicalize_batch(rep.obj, congruence(F, Ts, rep.gram)))


def _selfchecks(args) -> list:
    """The selfcheck table: (name, check) in the order they run, each check
    a call into the library that returns whether it passed."""
    from .divided import gamma2, gamma2_dim_formula
    from .oracle import orbit_classes
    from .witt import emit_tables

    rng = np.random.default_rng(args.seed)
    F4 = make_field(2)
    objs = [VerObject(F4, m, n) for m, n in ((1, 0), (0, 1), (1, 1), (2, 1))]
    shapes = (("A", 2, 2), ("B", 1, 1), ("C", 2, 2), ("D", 0, 2), ("E", 0, 2, 2), ("F", 0, 3, 1))
    involutive = lambda a, b: np.array_equal(
        mat_mul(F4, braiding(b, a), braiding(a, b)), eye(a.dim * b.dim))
    witt = cache(lambda: emit_tables(F4, max_size=2))
    return [
        *((f"triangular structure axioms over {F!r}", lambda F=F: all(check_r_matrix_axioms(F).values()))
          for F in (make_field(1), F4)),
        ("field axioms on random triples",
         lambda: all(_field_axioms(make_field(k), rng, args.trials) for k in (2, 3, 8))),
        ("braiding squares to the identity", lambda: all(involutive(a, b) for a in objs for b in objs)),
        ("hexagon identities",
         lambda: all(all(hexagons_hold(*xyz)) for xyz in itertools.product(objs[:2], repeat=3))),
        ("second divided power dimensions", lambda: all(
            gamma2(VerObject(F4, m, n)).dim == gamma2_dim_formula(m, n) for m in range(4) for n in range(3))),
        ("classification stable under random equivariant congruence",
         lambda: all(_canonicalizes(CanonicalClass(*c), F4, rng, args.trials // 4 + 1) for c in shapes)),
        ("witt sum table sample", lambda: witt()[0].ok),
        ("witt product table sample", lambda: witt()[1].ok),
        ("oracle (0,1) orbit census", lambda: orbit_classes(0, 1, F4).orbit_count == 4),
    ]


def _cmd_selfcheck(args) -> int:
    if not 1 <= args.trials <= SELFCHECK_MAX_TRIALS:
        raise ValueError(f"--trials must be at least 1 and at most {SELFCHECK_MAX_TRIALS}, got {args.trials}")
    passed = {}
    for name, check in _selfchecks(args):
        try:
            passed[name] = bool(check())
        except (AssertionError, InternalCheckError) as exc:
            print(f"{name}: {exc!r}", file=sys.stderr)
            passed[name] = False
    failed = list(passed.values()).count(False)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in passed.items()]
    lines.append(f"{failed} check(s) failed" if failed else "all checks passed")
    _emit(passed, args, "\n".join(lines))
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ver4forms",
        description="Classify bilinear and quadratic forms on K[t]/(t^2)-modules "
        "with the twisted braiding, over GF(2^k).",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output only")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="canonical class of a form document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("canonicalize", help="equivariant congruence to the canonical Gram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("invariants", help="good pairs, predicate flags, form invariant")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("sum", help="direct sum of two form documents")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=lambda a: _binary_op(a, "direct_sum"))

    p = sub.add_parser("product", help="braided tensor product of two form documents")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=lambda a: _binary_op(a, "tensor_product"))

    p = sub.add_parser("quad-classify", help="classify a quadratic form document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_quad_classify)

    what = f"generator list of the second divided power (m + 2n <= {GAMMA2_BASIS_MAX_DIM})"
    p = sub.add_parser("gamma2-basis", help=what, description=what)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_gamma2_basis)

    p = sub.add_parser("tables", help="compute and verify both semi-ring tables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--out", default="witt_tables")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("oracle", help="brute-force orbit census on a tiny object")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("selfcheck", help="run the module invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code for a mismatch here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
