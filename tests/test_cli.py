import json
import sys
import time

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
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bp_doc(y, k=2):
    return {"field": {"k": k}, "object": {"m": 0, "n": 1}, "gram": [[y, 1], [1, 0]]}


def test_classify_command(tmp_path, capsys):
    path = _write(tmp_path, "f.json", bp_doc(2))
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "E[0,1](2)"
    assert main(["--json", "classify", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "E[0,1](2)"


def test_classify_rejects_prime_field(tmp_path, capsys):
    path = _write(tmp_path, "f.json", {"field": {"k": 1}, "object": {"m": 1, "n": 0}, "gram": [[1]]})
    assert main(["classify", path]) == 1
    assert "k >= 2" in capsys.readouterr().err


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
    "command, doc",
    [
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[2.9, 1.2], [1, 0]]}),
        ("classify", {"field": {"k": 2}, "object": {"m": True, "n": 0}, "gram": [[1]]}),
        ("classify", {"field": {"k": 2}, "object": {"m": 0, "n": 1}, "gram": [[2**63, 1], [1, 0]]}),
        ("quad-classify", {"field": {"k": 2}, "object": {"m": "0", "n": 1}, "values": [0, 1]}),
        ("quad-classify", {"field": {"k": 2}, "object": {"m": 2, "n": 0}, "values": [0, 0, 1.0]}),
    ],
    ids=["float-gram", "bool-size", "gram-2^63", "string-size", "float-value"],
)
def test_strict_integer_input(tmp_path, capsys, command, doc):
    assert main([command, _write(tmp_path, "f.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_quad_classify_command(tmp_path, capsys):
    doc = {"field": {"k": 2}, "object": {"m": 2, "n": 0}, "values": [0, 0, 1]}
    path = _write(tmp_path, "q.json", doc)
    assert main(["--json", "quad-classify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hyperbolic_multiplicity"] == 1
    assert out["np_class"]["label"] == "C[0,0]"
    bad = {"field": {"k": 2}, "object": {"m": 1, "n": 0}, "values": [1]}
    assert main(["quad-classify", _write(tmp_path, "q2.json", bad)]) == 1


def test_quad_classify_large_object(tmp_path, capsys):
    # 2550 line values on 50P: classified on Gram blocks, with no 10^4 x 10^4
    # braiding on U (x) U
    F = make_field(2)
    cls = CanonicalClass("F", 0, 50, 2)
    rep = canonical_rep(cls, F)
    M = random_equivariant_matrix(rep.obj, np.random.default_rng(50))
    q = quadratic_from_bilinear(BilinearForm(rep.obj, congruence(F, M, rep.gram)))
    assert len(q.values) == 2550
    path = _write(tmp_path, "q50.json", q.to_json())
    start = time.perf_counter()
    assert main(["--json", "quad-classify", path]) == 0
    assert time.perf_counter() - start < 10.0
    out = json.loads(capsys.readouterr().out)
    assert out == {"hyperbolic_multiplicity": 0, "np_class": cls.to_json()}


def test_gamma2_basis_command(capsys):
    assert main(["--json", "gamma2-basis", "--m", "0", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2
    assert doc["num_lines"] == 2
    assert [ln["family"] for ln in doc["lines"]] == [4, 5]
    assert main(["gamma2-basis", "--m", "1", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "x1*x1" in out


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


def test_oracle_command(capsys):
    assert main(["--json", "oracle", "--m", "0", "--n", "1", "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_count"] == 4


def test_oracle_budget(capsys):
    assert main(["oracle", "--m", "4", "--n", "4", "--k", "2"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # few enough candidates, but |G| is ~2^35.5, ~2^25.1 and ~2^23.8
        # (the last as 4 x 4 matrices: ~2^27.8 entries)
        ["--m", "0", "--n", "3", "--k", "2"],
        ["--m", "1", "--n", "2", "--k", "2"],
        ["--m", "0", "--n", "2", "--k", "3"],
    ],
    ids=["group-0-3", "group-1-2", "group-0-2-gf8"],
)
def test_oracle_refuses_before_work(argv, capsys):
    start = time.perf_counter()
    assert main(["oracle", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


def test_selfcheck(capsys):
    assert main(["selfcheck", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


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
