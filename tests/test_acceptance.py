"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero.  Each test prints a single pass/fail line (visible
with `pytest -s tests/test_acceptance.py`).
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from ver4forms import linalg as la
from ver4forms.bform import BilinearForm, Subobject, block_invariants
from ver4forms.classify import (
    CanonicalClass,
    canonical_rep,
    canonicalize_batch,
    classify,
    classify_batch,
    form_invariant,
)
from ver4forms.divided import (
    QuadraticForm,
    beta_q,
    classify_quadratic,
    gamma2,
    gamma2_dim_formula,
    one_minus_braiding,
    quad_from_parts,
    quad_restrict,
    quad_transform,
)
from ver4forms.field import make_field
from ver4forms.oracle import class_inventory, orbit_classes
from ver4forms.verobj import (
    VerObject,
    braiding,
    check_r_matrix_axioms,
    hexagons_hold,
    random_equivariant_automorphism,
    random_equivariant_matrices,
)
from ver4forms.witt import all_class_instances, emit_tables
from reference import is_invertible

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {text}")
        raise
    print(f"[criterion {num}] PASS - {text}")


def test_criterion_1_sum_table():
    with criterion(1, "sum table reproduced over GF(8), sizes <= 4, all parameters"):
        sum_rep, _ = emit_tables(F8, max_size=4, product_dim_cap=0)
        assert sum_rep.cells == 21736
        assert sum_rep.mismatches == []


def test_criterion_2_product_table():
    with criterion(2, "product table reproduced over GF(8), sizes <= 4, all parameters"):
        _, prod_rep = emit_tables(F8, max_size=4, product_dim_cap=144)
        assert prod_rep.mismatches == []
        assert prod_rep.cells >= 4000
        assert prod_rep.cells == 21736  # the whole grid: result dims up to 144
        # the rational rule must actually get exercised
        ee = [r for r in prod_rep.records if r[0] == "E" and r[4] == "E" and r[3] != r[7]]
        assert len(ee) > 500
        rational = [r for r in ee if r[3] != 1 and r[7] != 1]
        assert any(r[8].startswith("E") for r in rational)
        same = [r for r in prod_rep.records if r[0] == "E" and r[4] == "E" and r[3] == r[7] != 1]
        assert all(r[8].startswith("D") for r in same)


def test_criterion_3_form_invariant_values():
    with criterion(3, "form invariants: E(a) -> na, C/D -> 0, F -> 1+y over GF(16)"):
        for a in F16.elements():
            for n in range(1, 7):
                rep = canonical_rep(CanonicalClass("E", 0, n, a), F16)
                assert form_invariant(rep) == (a if n % 2 else 0)
        for n in (0, 2, 4, 6):
            assert form_invariant(canonical_rep(CanonicalClass("C", 2, n), F16)) == 0
            if n:
                assert form_invariant(canonical_rep(CanonicalClass("D", 2, n), F16)) == 0
        # representatives alpha2^m + (n-2) bP(0) + bP(1) + bP(y)
        for y in F16.elements():
            for n in range(2, 7):
                if n == 2 and y == 1:
                    continue
                blocks = la.zeros(2 + 2 * n, 2 + 2 * n)
                blocks[0, 1] = blocks[1, 0] = 1
                for k in range(n - 2):
                    at = 2 + 2 * k
                    blocks[at, at + 1] = blocks[at + 1, at] = 1
                at = 2 + 2 * (n - 2)
                blocks[at, at] = 1
                blocks[at, at + 1] = blocks[at + 1, at] = 1
                at += 2
                blocks[at, at] = y
                blocks[at, at + 1] = blocks[at + 1, at] = 1
                beta = BilinearForm(VerObject(F16, 2, n), blocks)
                assert form_invariant(beta) == 1 ^ y


def _alternating_classes(F):
    return [c for c in all_class_instances(F, 4) if c.family in "CDEF"]


def test_criterion_4_invariant_basis_independence():
    with criterion(4, "form invariant unchanged under 1000 random congruences per class"):
        rng = np.random.default_rng(20260809)
        for cls in _alternating_classes(F8):
            rep = canonical_rep(cls, F8)
            expected = form_invariant(rep)
            mats = random_equivariant_matrices(rep.obj, rng, 1000)
            grams = la.congruence(F8, mats, rep.gram)
            out = classify_batch(rep.obj, grams)
            assert out == [cls] * 1000
            assert len({id(c) for c in out}) == len(set(out))  # one object per class
            _, invariants = block_invariants(F8, rep.obj.gram_blocks(grams))
            assert invariants.tolist() == [expected] * 1000
            for G in grams[::40]:
                assert form_invariant(BilinearForm(rep.obj, G)) == expected


def _closed_form_total(m, n, q):
    """Non-degenerate compatible forms on m1 + nP: N_sym(m) N_sym(n)
    q^(mn + n(n+1)/2), with N_sym(s) = q^(t(t+1)) prod_{i <= ceil(s/2)}
    (q^(2i-1) - 1), t = floor(s/2), the invertible symmetric s x s matrices in
    even characteristic (MacWilliams, Amer. Math. Monthly 76, 1969)."""

    def n_sym(s):
        t = s // 2
        return q ** (t * (t + 1)) * math.prod(q ** (2 * i - 1) - 1 for i in range(1, s - t + 1))

    return n_sym(m) * n_sym(n) * q ** (m * n + n * (n + 1) // 2)


def test_criterion_5_oracle_concordance():
    with criterion(5, "orbit censuses over GF(4), GF(8), GF(16), GF(64) match the predicted inventories"):
        expected = {(0, 1): 4, (1, 1): 1, (0, 2): 9, (2, 0): 2}
        for (m, n), count in expected.items():
            report = orbit_classes(m, n, F4)
            assert report.orbit_count == count, (m, n)
            labels = [label for label, _, _ in report.orbits]
            assert len(set(labels)) == count
            assert report.total_forms == sum(size for _, size, _ in report.orbits)
            assert report.total_forms == _closed_form_total(m, n, F4.order), (m, n)
        # (1,2), (0,2) over GF(8) and (2,0) over GF(64) were over the former
        # whole-group sweep's budget
        more = [(F4, (2, 1), 5), (F4, (3, 0), 1), (F4, (1, 2), 2), (F8, (0, 2), 17), (make_field(6), (2, 0), 2)]
        for F in (F8, F16):
            more += [(F, (0, 1), F.order), (F, (1, 1), 1), (F, (2, 0), 2)]
        for F, (m, n), count in more:
            report = orbit_classes(m, n, F)
            labels = [label for label, _, _ in report.orbits]
            assert labels == [c.label() for c in class_inventory(m, n, F)], (F.k, m, n)
            assert report.orbit_count == len(class_inventory(m, n, F)) == count, (F.k, m, n)
            assert report.total_forms == sum(size for _, size, _ in report.orbits)
            assert report.total_forms == _closed_form_total(m, n, F.order), (F.k, m, n)


def test_criterion_6_classification_stability_and_canonicalize():
    with criterion(6, "classify stable under 1000 congruences; canonicalize exact"):
        rng = np.random.default_rng(42)
        for cls in all_class_instances(F8, 4):
            rep = canonical_rep(cls, F8)
            mats = random_equivariant_matrices(rep.obj, rng, 1000)
            grams = la.congruence(F8, mats, rep.gram)
            assert classify_batch(rep.obj, grams) == [cls] * 1000
            picked = grams[::40]
            for G in picked:
                assert classify(BilinearForm(rep.obj, G)) == cls
            T_std = rep.obj.t_action()
            results = canonicalize_batch(rep.obj, picked)
            assert len(results) == len(picked) == 25
            for G, (transform, canon, _) in zip(picked, results):
                assert np.array_equal(canon.gram, rep.gram)
                assert np.array_equal(
                    la.congruence(F8, transform.matrix, G), rep.gram
                )
                assert np.array_equal(
                    la.mat_mul(F8, transform.matrix, T_std),
                    la.mat_mul(F8, T_std, transform.matrix),
                )
                assert is_invertible(F8, transform.matrix)


def _objects_with_dim(F, d):
    return [VerObject(F, d - 2 * n, n) for n in range(d // 2 + 1)]


def test_criterion_7_category_axioms():
    with criterion(7, "R-matrix axioms, involutive braiding, hexagons (dims <= 6)"):
        for F in (F2, F4, F8):
            report = check_r_matrix_axioms(F)
            assert all(report.values()), report
        objs = [o for d in (1, 2, 3, 4) for o in _objects_with_dim(F4, d)]
        for a in objs:
            for b in objs:
                if a.dim + b.dim > 6:
                    continue
                cab, cba = braiding(a, b), braiding(b, a)
                assert np.array_equal(la.mat_mul(F4, cba, cab), la.eye(a.dim * b.dim))
        for x in objs:
            for y in objs:
                for z in objs:
                    if x.dim + y.dim + z.dim > 6:
                        continue
                    assert hexagons_hold(x, y, z) == (True, True)


def test_criterion_8_divided_power_suite():
    with criterion(8, "divided power dims, twist of nP, beta_q symmetry, restriction"):
        for m in range(0, 9):
            for n in range(0, 5):
                if m + 2 * n > 8:
                    continue
                obj = VerObject(F4, m, n)
                nullity = obj.dim**2 - la.rank(F4, one_minus_braiding(obj))
                assert gamma2(obj).dim == gamma2_dim_formula(m, n) == nullity
        from ver4forms.divided import frobenius_twist_rank

        for n in range(0, 5):
            assert frobenius_twist_rank(VerObject(F4, 0, n)) == 0
        for m, n in [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]:
            obj = VerObject(F2, m, n)
            L = gamma2(obj).num_lines
            for vals in itertools.product(range(2), repeat=L):
                assert beta_q(QuadraticForm(obj, list(vals))).is_symmetric()
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            m, n = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            obj = VerObject(F4, m, n)
            if obj.dim == 0:
                continue
            q = QuadraticForm(obj, rng.integers(0, 4, size=gamma2(obj).num_lines))
            phi = random_equivariant_automorphism(obj, rng)
            units = [i for i in range(m) if rng.integers(2)]
            pairs = [k for k in range(n) if rng.integers(2)]
            cols = [phi.matrix[:, obj.vs[i]] for i in units]
            for k in pairs:
                cols += [phi.matrix[:, obj.ws[k]], phi.matrix[:, obj.xs[k]]]
            if not cols:
                continue
            sub = Subobject(obj, np.column_stack(cols))
            assert np.array_equal(
                beta_q(quad_restrict(q, sub)).gram, beta_q(q).restrict(sub).gram
            )
            done += 1


def _np_classes(F, n):
    out = []
    if n == 0:
        out.append(None)
    if n > 0 and n % 2 == 0:
        out.append(CanonicalClass("C", 0, n))
        out.append(CanonicalClass("D", 0, n))
    if n > 0:
        out += [CanonicalClass("E", 0, n, a) for a in F.elements()]
    if n >= 2:
        out += [
            CanonicalClass("F", 0, n, phi)
            for phi in F.elements()
            if not (n == 2 and phi == 0)
        ]
    return out


def test_criterion_9_quadratic_classification():
    with criterion(9, "quadratic forms: h hyperbolic planes + an nP class; odd m impossible"):
        rng = np.random.default_rng(99)
        for m in (0, 2, 4):
            for n in range(0, 5):
                for cls in _np_classes(F4, n):
                    if m == 0 and cls is None:
                        continue
                    gamma = canonical_rep(cls, F4) if cls is not None else None
                    q = quad_from_parts(F4, m // 2, gamma)
                    h, got = classify_quadratic(q)
                    assert h == m // 2
                    if cls is None:
                        assert (got.m, got.n) == (0, 0)
                    else:
                        assert got == cls
                    phi = random_equivariant_automorphism(q.obj, rng)
                    h2, got2 = classify_quadratic(quad_transform(q, phi))
                    assert (h2, got2) == (h, got)
        # at m = 1 no quadratic form has an invertible associated form
        for m, n in [(1, 0), (1, 1)]:
            obj = VerObject(F2, m, n)
            L = gamma2(obj).num_lines
            for vals in itertools.product(range(2), repeat=L):
                q = QuadraticForm(obj, list(vals))
                assert not beta_q(q).is_nondegenerate()
                with pytest.raises(ValueError):
                    classify_quadratic(q)
