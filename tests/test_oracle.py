import itertools
import math
import time

import numpy as np
import pytest

from ver4forms import linalg as la
from ver4forms import oracle
from ver4forms.classify import canonical_rep
from ver4forms.field import make_field
from ver4forms.oracle import (
    _group,
    _keys_of_grams,
    _orbit,
    class_inventory,
    enumerate_forms,
    equivariant_group,
    free_entry_count,
    orbit_classes,
)
from ver4forms.verobj import VerObject

F2 = make_field(1)
F4 = make_field(2)


def test_free_entry_counts():
    assert free_entry_count(0, 1) == 2
    assert free_entry_count(1, 0) == 1
    assert free_entry_count(0, 2) == 6
    assert free_entry_count(2, 1) == 3 + 2 + 1 + 1


def test_enumerate_p_forms_gf4():
    forms = list(enumerate_forms(0, 1, F4))
    assert len(forms) == 12  # 4 choices of the w-w entry, 3 nonzero pairings
    for beta in forms:
        assert beta.is_symmetric()
        assert beta.is_nondegenerate()
        assert beta.gram[1, 1] == 0


def test_enumerate_unit_form_gf2():
    forms = list(enumerate_forms(1, 0, F2))
    assert len(forms) == 1
    assert forms[0].gram.tolist() == [[1]]


def test_orbit_census_refuses_gf2():
    with pytest.raises(ValueError, match="k >= 2"):
        orbit_classes(1, 0, F2)


def test_enumerate_respects_budget():
    with pytest.raises(ValueError):
        list(enumerate_forms(4, 4, F4))


def test_equivariant_group_order():
    group = list(equivariant_group(0, 1, F4))
    assert len(group) == 12  # |GL1| * q for the x-component
    group = list(equivariant_group(1, 0, F4))
    assert len(group) == 3
    q = F4.order
    gl = lambda s: math.prod(q**s - q**i for i in range(s))
    for m, n in ((1, 1), (0, 2), (2, 0)):
        group = list(equivariant_group(m, n, F4))
        assert len(group) == gl(m) * gl(n) * q ** (2 * m * n + n * n)
        assert len({M.tobytes() for M in group}) == len(group)
        assert all(M.shape == (m + 2 * n,) * 2 and M.dtype == np.int64 for M in group)


@pytest.mark.parametrize(
    "m, n, k",
    [(0, 2, 3), (5, 0, 1)],
    ids=["group-0-2-gf8", "gl5-candidates-gf2"],
)
def test_group_sweep_refused_by_entry_count(m, n, k):
    # |G| passes 2^24 elements in both, but (0,2)/GF(8) would stack 2^27.8
    # group entries and (5,0)/GF(2) 2^25 candidate 5 x 5 matrices for GL_5
    F = make_field(k)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="entries in the largest array"):
        orbit_classes(m, n, F)
    with pytest.raises(ValueError, match="entries in the largest array"):
        next(equivariant_group(m, n, F))
    assert time.perf_counter() - start < 1.0


def test_group_sweep_budget_keeps_largest_census_shape():
    # (2,1) over GF(4): 552,960 elements as 4 x 4 matrices, ~8.8M entries
    assert sum(1 for _ in equivariant_group(2, 1, F4)) == 552_960


@pytest.mark.parametrize(
    "k,m,n",
    [(2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 1, 1), (2, 2, 0), (2, 0, 2), (3, 0, 1), (3, 1, 1)],
)
def test_group_is_unipotent_times_levi(k, m, n):
    F = make_field(k)
    unipotent, levi = _group(m, n, F, levi=False), _group(m, n, F, unipotent=False)
    products = sorted(la.mat_mul(F, u, l).tobytes() for u in unipotent for l in levi)
    group = sorted(g.tobytes() for g in equivariant_group(m, n, F))
    assert products == group
    assert len(set(group)) == len(group)  # so each element is one product


@pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (0, 2), (2, 0)])
def test_orbits_match_whole_group_sweep(m, n):
    # reference: every element of the group applied to each representative
    obj = VerObject(F4, m, n)
    group = np.stack(list(equivariant_group(m, n, F4)))
    unipotent, levi = _group(m, n, F4, levi=False), _group(m, n, F4, unipotent=False)
    everything = np.ones(F4.order ** free_entry_count(m, n), dtype=bool)
    for cls in class_inventory(m, n, F4):
        images = la.batch_congruence(F4, group, canonical_rep(cls, F4).gram)
        keys, members = _orbit(obj, cls, unipotent, levi, everything)
        assert np.array_equal(keys, np.unique(_keys_of_grams(obj, images)))
        assert np.array_equal(_keys_of_grams(obj, members), keys)


def test_class_inventory_counts():
    assert len(class_inventory(0, 1, F4)) == 4
    assert len(class_inventory(1, 1, F4)) == 1
    assert len(class_inventory(0, 2, F4)) == 9
    assert len(class_inventory(2, 0, F4)) == 2
    labels = {c.label() for c in class_inventory(2, 0, F4)}
    assert labels == {"A[2,0]", "C[2,0]"}


def test_orbit_census_p_object():
    report = orbit_classes(0, 1, F4)
    assert report.orbit_count == 4
    assert report.total_forms == 12
    labels = {label for label, _, _ in report.orbits}
    assert labels == {f"E[0,1]({a})" for a in range(4)}
    assert sum(size for _, size, _ in report.orbits) == 12


def test_orbit_census_catches_a_misclassified_member(monkeypatch):
    classify_batch = oracle.classify_batch

    def last_one_wrong(obj, grams):
        out = classify_batch(obj, grams)
        out[-1] = next(c for c in class_inventory(obj.m, obj.n, obj.field) if c != out[-1])
        return out

    monkeypatch.setattr(oracle, "classify_batch", last_one_wrong)
    with pytest.raises(AssertionError, match=r"orbit member of E\[0,1\]\(0\) classified as E\[0,1\]\(1\)"):
        orbit_classes(0, 1, F4)


def test_orbit_report_json():
    report = orbit_classes(0, 1, F4)
    doc = report.to_json()
    assert doc["orbit_count"] == 4
    assert doc["field"] == {"k": 2}
    assert len(doc["orbits"]) == 4


def _reference_forms(m, n, F):
    """itertools.product over the free entries (upper triangles in row
    order), each Gram filled in slot by slot, kept when invertible."""
    obj = VerObject(F, m, n)
    upper = lambda s: list(itertools.combinations_with_replacement(range(s), 2))
    for entries in itertools.product(range(F.order), repeat=free_entry_count(m, n)):
        G, it = la.zeros(obj.dim, obj.dim), iter(entries)
        for i, j in upper(m):
            G[obj.vs[i], obj.vs[j]] = G[obj.vs[j], obj.vs[i]] = next(it)
        for i, j in itertools.product(range(m), range(n)):
            G[obj.vs[i], obj.ws[j]] = G[obj.ws[j], obj.vs[i]] = next(it)
        for i, j in upper(n):
            G[obj.ws[i], obj.ws[j]] = G[obj.ws[j], obj.ws[i]] = next(it)
        for i, j in upper(n):
            e = next(it)
            for a, b in ((i, j), (j, i)):
                G[obj.ws[a], obj.xs[b]] = G[obj.xs[b], obj.ws[a]] = e
        if la.is_invertible(F, G):
            yield G


@pytest.mark.parametrize("k,m,n", [(2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 2, 0), (1, 1, 0)])
def test_enumerate_matches_product_reference(k, m, n):
    F = make_field(k)
    got = [beta.gram.tolist() for beta in enumerate_forms(m, n, F)]
    assert got == [G.tolist() for G in _reference_forms(m, n, F)]
