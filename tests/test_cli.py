import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ver4forms.bform import BilinearForm
from ver4forms.classify import CanonicalClass, canonical_rep
from ver4forms.cli import main
from ver4forms.divided import quadratic_from_bilinear
from ver4forms.field import make_field
from ver4forms.linalg import congruence
from ver4forms.verobj import random_equivariant_matrix


def _write(tmp_path, name, doc):
    # a str is written as it is: json.dumps cannot write a repeated key
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def bp_doc(y, k=2):
    return {"field": {"k": k}, "object": {"m": 0, "n": 1}, "gram": [[y, 1], [1, 0]]}


_QUAD_DOC = {"field": {"k": 2}, "object": {"m": 2, "n": 0}, "values": [0, 0, 1]}


def test_classify_command(tmp_path, capsys):
    path = _write(tmp_path, "f.json", bp_doc(2))
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "E[0,1](2)"
    assert main(["--json", "classify", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "E[0,1](2)"


def test_prime_field_commands(tmp_path, capsys):
    # GF(2) runs through the same classifier; only quad-classify refuses it
    path = _write(tmp_path, "f.json", bp_doc(1, k=1))
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "E[0,1](1)"
    assert main(["--json", "canonicalize", path]) == 0
    assert json.loads(capsys.readouterr().out)["canonical_gram"] == [[1, 1], [1, 0]]
    for op, label in (("sum", "E[0,2](1)"), ("product", "C[0,2]")):
        assert main(["--json", op, path, path]) == 0
        assert json.loads(capsys.readouterr().out)["class"]["label"] == label
    assert main(["--json", "oracle", "--m", "0", "--n", "1", "--k", "1"]) == 0
    assert [o["label"] for o in json.loads(capsys.readouterr().out)["orbits"]] == ["E[0,1](0)", "E[0,1](1)"]
    assert main(["--json", "tables", "--k", "1", "--max-size", "2", "--out", str(tmp_path / "t")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sum"]["mismatches"] == doc["product"]["mismatches"] == []
    quad = {"field": {"k": 1}, "object": {"m": 2, "n": 0}, "values": [0, 0, 1]}
    assert main(["quad-classify", _write(tmp_path, "q.json", quad)]) == 1
    assert "k >= 2" in capsys.readouterr().err


_COLD_CALLS = """
import json, sys
from ver4forms import cli

lazy = {"ver4forms.divided", "ver4forms.witt", "ver4forms.oracle"}
for command, path in zip(["classify", "canonicalize", "quad-classify"], sys.argv[1:]):
    assert cli.main(["--json", command, path]) == 0
    print(json.dumps(sorted(lazy & set(sys.modules))))
"""


def test_cold_calls_load_only_what_they_run(tmp_path):
    # a fresh interpreter: in this one, other tests have imported every module
    form, quad = _write(tmp_path, "f.json", bp_doc(2)), _write(tmp_path, "q.json", _QUAD_DOC)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_CALLS, form, form, quad],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert loaded[:2] == [[], []] and "ver4forms.divided" in loaded[2]


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(path)]) == 1
    path2 = _write(tmp_path, "bad2.json", {"field": {"k": 2}})
    assert main(["classify", path2]) == 1
    capsys.readouterr()
    # written as raw text: json.dumps would itself recurse this deep
    deep = tmp_path / "deep.json"
    gram = "[" * 100_000 + "]" * 100_000
    deep.write_text(f'{{"field": {{"k": 2}}, "object": {{"m": 0, "n": 0}}, "gram": {gram}}}')
    assert main(["classify", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err


def test_schema_violation(tmp_path):
    doc = bp_doc(2)
    doc["gram"] = [[9, 1], [1, 0]]  # entry out of range
    assert main(["classify", _write(tmp_path, "f.json", doc)]) == 1
    doc = bp_doc(2)
    doc["object"] = {"m": 1, "n": 1}
    assert main(["classify", _write(tmp_path, "g.json", doc)]) == 1


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[2.9, 1.2], [1, 0]]}, "non-negative integers"),
        ("classify", {"field": {"k": 2}, "object": {"m": True, "n": 0}, "gram": [[1]]}, "non-negative integers"),
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[2**63, 1], [1, 0]]}, "below 4"),
        ("quad-classify", {"field": {"k": 2}, "object": {"m": "0", "n": 1}, "values": [0, 1]}, "non-negative integers"),
        ("quad-classify", {"field": {"k": 2}, "object": {"m": 2, "n": 0}, "values": [0, 0, 1.0]}, "non-negative integers"),
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[1, 2], [3]]}, r"equal lengths, got lengths \[2, 1\]$"),
        ("classify", [{"field": {"k": 2}}], "form document: must be a JSON object with keys 'field', 'object', 'gram'"),
        ("quad-classify", [], "form document: must be a JSON object with keys 'field', 'object', 'values'"),
        ("classify", {"field": {"k": 2}, "object": [0, 1], "gram": [[1]]}, "object document: must be a JSON object with keys 'm'"),
        ("quad-classify", {"field": {"k": 2}, "object": [0, 1], "values": [0, 1]}, "object document: must be a JSON object"),
        ("classify", {"field": {"k": 2}, "object": {"m": 0}, "gram": [[1]]}, "object document: missing 'n'$"),
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 0}, "gram": [[]]}, r"gram shape \(1, 0\) does not match dim 0$"),
        ("canonicalize", {"field": {"k": 2}, "object": {"m": 0, "n": 0}, "gram": [[], [], []]}, r"gram shape \(3, 0\) does not match dim 0$"),
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[2, 1], [1, 0]], "class": "E"}, r"form document: unknown key 'class'$"),
        ("classify", {"field": {"k": 3, "modulus": 13}, "object": {"m": 0, "n": 1}, "gram": [[2, 1], [1, 0]]}, r"field document: unknown key 'modulus'$"),
        ("canonicalize", {"field": {"k": 2}, "object": {"m": 0, "n": 1, "p": 1}, "gram": [[2, 1], [1, 0]]}, r"object document: unknown key 'p'$"),
        ("quad-classify", {**_QUAD_DOC, "gram": [[0]]}, r"quadratic form document: unknown key 'gram'$"),
        ("classify", '{"field": {"k": 2}, "field": {"k": 3}, "object": {"m": 0, "n": 1}, "gram": [[2, 1], [1, 0]]}', r"duplicate key 'field'"),
        ("quad-classify", '{"field": {"k": 2}, "object": {"m": 2, "n": 0, "n": 1}, "values": [0, 0, 1]}', r"duplicate key 'n'"),
    ],
    ids=[
        "float-gram", "bool-size", "gram-2^63", "string-size", "float-value", "ragged-gram",
        "list-document", "list-quad-document", "list-object", "list-quad-object", "missing-key",
        "dim0-empty-row", "dim0-empty-rows", "unknown-form-key", "unknown-field-key", "unknown-object-key",
        "unknown-quad-key", "duplicate-form-key", "duplicate-object-key",
    ],
)
def test_strict_integer_input(tmp_path, capsys, command, doc, message):
    assert main([command, _write(tmp_path, "f.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(message, err.strip())


def test_dim0_form_reads_its_empty_gram(tmp_path, capsys):
    # a dim-0 form writes "gram": []; lists of empty rows are refused above
    doc = {"field": {"k": 2}, "object": {"m": 0, "n": 0}, "gram": []}
    assert main(["classify", _write(tmp_path, "f.json", doc)]) == 0
    assert capsys.readouterr().out.strip() == "C[0,0]"


def test_canonicalize_command(tmp_path, capsys):
    path = _write(tmp_path, "f.json", bp_doc(3))
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["canonical_gram"] == [[3, 1], [1, 0]]
    assert doc["class"]["label"] == "E[0,1](3)"


def test_canonicalize_reports_a_non_equivariant_transform_as_internal(tmp_path, capsys, monkeypatch):
    module = sys.modules["ver4forms.classify"]
    reduce = module._reduce

    def tampered(obj, g):
        T, cls = reduce(obj, g)
        T = T.copy()
        T[0, 1] ^= 1  # row w_1, column x_1: zero in every equivariant T
        return T, cls

    monkeypatch.setattr(module, "_reduce", tampered)
    assert main(["canonicalize", _write(tmp_path, "f.json", bp_doc(3))]) == 2
    assert capsys.readouterr().err.startswith("internal mismatch:")


def test_invariants_command(tmp_path, capsys):
    path = _write(tmp_path, "f.json", bp_doc(0))
    assert main(["--json", "invariants", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetric"] and doc["nondegenerate"] and doc["alternating"]
    assert not doc["oscillating"]
    assert doc["good_pairs"] == {"shape": "slope", "witness": 0}
    assert doc["form_invariant"] == 0
    assert doc["radical_rank"] == 0


def test_invariants_on_degenerate_form(tmp_path, capsys):
    doc = {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[0, 0], [0, 0]]}
    path = _write(tmp_path, "z.json", doc)
    assert main(["--json", "invariants", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["radical_rank"] == 2
    assert out["form_invariant"] is None


def test_sum_and_product_commands(tmp_path, capsys):
    p1 = _write(tmp_path, "a.json", bp_doc(2))
    p2 = _write(tmp_path, "b.json", bp_doc(3))
    assert main(["--json", "sum", p1, p2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"]["label"] == "F[0,2](1)"
    assert doc["form"]["object"] == {"m": 0, "n": 2}
    assert main(["--json", "product", p1, p2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"]["label"] == "E[0,2](0)"


def test_product_refuses_over_the_tensor_cap(tmp_path, capsys):
    # dims 40 x 40 = 1600: the 1600^2 t-action would take tens of seconds
    rep = canonical_rep(CanonicalClass("C", 0, 20), make_field(2))
    path = _write(tmp_path, "c20.json", rep.to_json())
    start = time.perf_counter()
    assert main(["product", path, path]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: tensor product dim 40 x 40 is over the cap 576")


_LARGE_QUAD_CLASS = CanonicalClass("F", 0, 50, 2)


def test_quad_classify_command(tmp_path, capsys):
    path = _write(tmp_path, "q.json", _QUAD_DOC)
    assert main(["--json", "quad-classify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hyperbolic_multiplicity"] == 1
    assert out["np_class"]["label"] == "C[0,0]"
    bad = {"field": {"k": 2}, "object": {"m": 1, "n": 0}, "values": [1]}
    assert main(["quad-classify", _write(tmp_path, "q2.json", bad)]) == 1


def _large_quad_doc() -> dict:
    """A scrambled form of class F[0,50](2) over GF(4), as its 2550 line values."""
    F = make_field(2)
    rep = canonical_rep(_LARGE_QUAD_CLASS, F)
    M = random_equivariant_matrix(rep.obj, np.random.default_rng(50))
    q = quadratic_from_bilinear(BilinearForm(rep.obj, congruence(F, M, rep.gram)))
    assert len(q.values) == 2550
    return q.to_json()


def test_quad_classify_large_object(tmp_path, capsys):
    # 2550 line values on 50P: classified on Gram blocks, with no 10^4 x 10^4
    # braiding on U (x) U
    path = _write(tmp_path, "q50.json", _large_quad_doc())
    start = time.perf_counter()
    assert main(["--json", "quad-classify", path]) == 0
    assert time.perf_counter() - start < 10.0
    out = json.loads(capsys.readouterr().out)
    assert out == {"hyperbolic_multiplicity": 0, "np_class": _LARGE_QUAD_CLASS.to_json()}


def _stdout_sha256(capsys) -> str:
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


# sha256 prefixes of stdout, prose and --json, pinned from the output before
# quadratic forms and oracle keys shared one free-entry table
_QUAD_CLASSIFY_STDOUT = {
    "q": ("8843ff104b402f52", "0d2c879bab715995"), "q50": ("85ca3113a1fc7f5c", "d2bc122c3ef118b3"),
}
_ORACLE_JSON_STDOUT = {
    (0, 1, 2): "3f39e4381ae35e70", (1, 1, 2): "cb5d4a8f4cf568f4", (0, 2, 2): "03c220ebe0c2c289",
    (2, 0, 2): "cb389746a20098fd", (2, 0, 3): "2e7baeb55644f453", (2, 1, 2): "ccb0382d1e845513",
    (3, 0, 2): "1b12d0eef652fabb", (2, 0, 4): "d13c5eca6ed9c807",
}


def test_quad_classify_output_is_unchanged(tmp_path, capsys):
    for name, doc in (("q", _QUAD_DOC), ("q50", _large_quad_doc())):
        path = _write(tmp_path, f"{name}.json", doc)
        for json_flag, want in zip(([], ["--json"]), _QUAD_CLASSIFY_STDOUT[name]):
            assert main([*json_flag, "quad-classify", path]) == 0
            assert _stdout_sha256(capsys) == want, json_flag


@pytest.mark.parametrize("m, n, k", list(_ORACLE_JSON_STDOUT))
def test_oracle_json_output_is_unchanged(capsys, m, n, k):
    # the census reads the enumerated set, not its order
    assert main(["--json", "oracle", "--m", str(m), "--n", str(n), "--k", str(k)]) == 0
    assert _stdout_sha256(capsys) == _ORACLE_JSON_STDOUT[m, n, k]


def test_gamma2_basis_command(capsys):
    assert main(["--json", "gamma2-basis", "--m", "0", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2
    assert doc["num_lines"] == 2
    assert [ln["family"] for ln in doc["lines"]] == [4, 5]
    assert main(["gamma2-basis", "--m", "1", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "x1*x1" in out


# sha256 prefixes of `gamma2-basis` stdout, pinned from the output of the
# braiding written out as a formula; the generator list does not depend on k
_GAMMA2_BASIS_STDOUT = {
    (0, 0): "0d7fa1070c8244c4", (1, 2): "bda90121071c459b", (3, 3): "0696bf26a3a012c8",
    (0, 12): "34fa1aca0b17daab", (4, 10): "18d7f8666b306983", (24, 0): "68b67d4a94746ba2",
}


@pytest.mark.parametrize("m, n", list(_GAMMA2_BASIS_STDOUT))
def test_gamma2_basis_output_is_unchanged_up_to_the_cap(capsys, m, n):
    digest = lambda: hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    for k in (2, 16):
        assert main(["gamma2-basis", "--m", str(m), "--n", str(n), "--k", str(k)]) == 0
        assert digest() == _GAMMA2_BASIS_STDOUT[m, n], k
    if (m, n) == (4, 10):
        assert main(["--json", "gamma2-basis", "--m", "4", "--n", "10", "--k", "16"]) == 0
        assert digest() == "8e84704a4a730e30"


def test_gamma2_basis_refuses_over_the_cap(capsys):
    start = time.perf_counter()
    assert main(["gamma2-basis", "--m", "1", "--n", "12"]) == 1  # dim 25
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: gamma2-basis is capped at dim m + 2n <= 24")


def test_tables_command(tmp_path, capsys):
    assert main(["--json", "tables", "--k", "2", "--max-size", "1",
                 "--out", str(tmp_path / "tables")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sum"]["mismatches"] == []
    assert (tmp_path / "tables" / "sum_table.md").exists()
    assert (tmp_path / "tables" / "product_table.csv").exists()


@pytest.mark.parametrize("size", ["1000", "-1"])
def test_tables_refuses_an_unbounded_or_negative_grid(tmp_path, size, capsys):
    start = time.perf_counter()
    assert main(["tables", "--k", "3", "--max-size", size, "--out", str(tmp_path / "t")]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("place", ["file", "under-file"])
def test_tables_refuses_an_unusable_out_before_computing(tmp_path, place, capsys):
    (tmp_path / "taken").write_text("not a directory")
    out = tmp_path / "taken" if place == "file" else tmp_path / "taken" / "sub"
    start = time.perf_counter()
    assert main(["tables", "--k", "3", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["canonicalize"],
        ["invariants"],
        ["sum", "a.json"],
        ["product", "a.json"],
        ["quad-classify"],
        ["gamma2-basis", "--m", "1"],
        ["gamma2-basis", "--m", "1", "--n", "1", "--k", "x"],
        ["tables"],
        ["tables", "--k", "3", "--max-size", "abc"],
        ["oracle", "--m", "0", "--n", "1"],
        ["oracle", "--m", "0", "--n", "1", "--k", "x"],
        ["selfcheck", "--seed", "1.5"],
        ["selfcheck", "--trials", "x"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ver4forms") and "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["tables", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: ver4forms") == 2


def test_oracle_command(capsys):
    assert main(["--json", "oracle", "--m", "0", "--n", "1", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_count"] == 4


def test_oracle_failed_census_check_exits_2(monkeypatch, capsys):
    # the last (0,1)/GF(4) candidate gets another class's code, so its orbit is mixed
    oracle_mod = importlib.import_module("ver4forms.oracle")
    class_codes = oracle_mod.class_codes

    def last_one_wrong(obj, grams):
        out = class_codes(obj, grams)
        out[-1] ^= 1
        return out

    monkeypatch.setattr(oracle_mod, "class_codes", last_one_wrong)
    assert main(["oracle", "--m", "0", "--n", "1", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("internal mismatch:")
    assert "Traceback" not in captured.out + captured.err


def test_internal_checks_raise_internal_check_error():
    # main maps only InternalCheckError to exit 2; field.py sits below verobj, which defines it
    sources = list((Path(__file__).resolve().parents[1] / "src" / "ver4forms").glob("*.py"))
    assert sources
    assert {p.name for p in sources if "raise AssertionError" in p.read_text()} <= {"field.py"}


def test_oracle_budget(capsys):
    assert main(["oracle", "--m", "4", "--n", "4", "--k", "2"]) == 1


def test_oracle_zero_object(capsys):
    assert main(["--json", "oracle", "--m", "0", "--n", "0", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["total_forms"], doc["group_order"], doc["orbit_count"]) == (1, 1, 1)
    assert doc["orbits"] == [{"label": "C[0,0]", "size": 1, "representative": []}]


@pytest.mark.parametrize(
    "argv",
    [
        # few enough candidates, but |S| q^L is 31 * 2^24, 25 * 2^20 and 12 * 2^22
        ["--m", "0", "--n", "3", "--k", "2"],
        ["--m", "4", "--n", "0", "--k", "2"],
        ["--m", "0", "--n", "1", "--k", "11"],
    ],
    ids=["group-0-3", "group-4-0", "group-0-1-gf2048"],
)
def test_oracle_refuses_before_work(argv, capsys):
    start = time.perf_counter()
    assert main(["oracle", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("m, n, k, orbits", [(1, 2, 2, 2), (0, 2, 3, 17)], ids=["group-1-2", "group-0-2-gf8"])
def test_oracle_runs_shapes_the_group_sweep_refused(m, n, k, orbits, capsys):
    assert main(["oracle", "--m", str(m), "--n", str(n), "--k", str(k)]) == 0
    assert f"{orbits} orbits" in capsys.readouterr().out


SELFCHECKS = [
    "triangular structure axioms over GF(2^1)",
    "triangular structure axioms over GF(2^2)",
    "field axioms on random triples",
    "braiding squares to the identity",
    "hexagon identities",
    "second divided power dimensions",
    "classification stable under random equivariant congruence",
    "witt sum table sample",
    "witt product table sample",
    "oracle (0,1) orbit census",
]


def test_selfcheck(capsys):
    assert main(["selfcheck", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"ok   {name}" for name in SELFCHECKS] + ["all checks passed"]
    assert main(["--json", "selfcheck", "--trials", "8"]) == 0
    assert json.loads(capsys.readouterr().out) == {name: True for name in SELFCHECKS}


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_selfcheck_refuses_no_trials(trials, capsys):
    assert main(["selfcheck", "--trials", trials]) == 1
    assert capsys.readouterr().err.startswith("error: --trials must be at least 1")


def test_selfcheck_refuses_trials_over_the_bound(monkeypatch, capsys):
    cli = sys.modules["ver4forms.cli"]
    monkeypatch.setattr(cli, "_selfchecks", lambda args: pytest.fail("selfcheck started work"))
    assert main(["selfcheck", "--trials", str(cli.SELFCHECK_MAX_TRIALS + 1)]) == 1
    assert f"at most {cli.SELFCHECK_MAX_TRIALS}," in capsys.readouterr().err


def test_selfcheck_reports_a_raising_check_as_failed(monkeypatch, capsys):
    def broken(*objs):
        raise AssertionError("hexagon mismatch")

    monkeypatch.setattr(sys.modules["ver4forms.cli"], "hexagons_hold", broken)
    assert main(["selfcheck", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "FAIL hexagon identities" in lines
    assert lines[-1] == "1 check(s) failed"
    assert "Traceback" not in captured.out + captured.err


def test_output_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "f.json", bp_doc(3))
    runs = []
    for _ in range(2):
        assert main(["--json", "canonicalize", path]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    outs = []
    for sub in ("t1", "t2"):
        assert main(["--json", "tables", "--k", "2", "--max-size", "1",
                     "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        outs.append((tmp_path / sub / "sum_table.csv").read_bytes())
    assert outs[0] == outs[1]
    runs = []
    for _ in range(2):
        assert main(["selfcheck", "--trials", "5", "--seed", "7"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
