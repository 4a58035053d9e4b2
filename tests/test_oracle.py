import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from ver4forms import linalg as la
from ver4forms import oracle
from ver4forms.classify import canonical_rep
from ver4forms.divided import QuadraticForm
from ver4forms.field import make_field
from ver4forms.oracle import (
    _group,
    _keys_of_grams,
    _orbit,
    class_inventory,
    enumerate_forms,
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
    group = _group(0, 1, F4)
    assert len(group) == 12  # |GL1| * q for the x-component
    group = _group(1, 0, F4)
    assert len(group) == 3
    q = F4.order
    gl = lambda s: math.prod(q**s - q**i for i in range(s))
    for m, n in ((1, 1), (0, 2), (2, 0)):
        group = _group(m, n, F4)
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
        _group(m, n, F)
    assert time.perf_counter() - start < 1.0


def test_group_sweep_budget_keeps_largest_census_shape():
    # (2,1) over GF(4): 552,960 elements as 4 x 4 matrices, ~8.8M entries
    assert len(_group(2, 1, F4)) == 552_960


@pytest.mark.parametrize(
    "k,m,n",
    [(2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 1, 1), (2, 2, 0), (2, 0, 2), (3, 0, 1), (3, 1, 1)],
)
def test_group_is_unipotent_times_levi(k, m, n):
    F = make_field(k)
    unipotent, levi = _group(m, n, F, levi=False), _group(m, n, F, unipotent=False)
    products = sorted(la.mat_mul(F, u, l).tobytes() for u in unipotent for l in levi)
    group = sorted(g.tobytes() for g in _group(m, n, F))
    assert products == group
    assert len(set(group)) == len(group)  # so each element is one product


@pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (0, 2), (2, 0)])
def test_orbits_match_whole_group_sweep(m, n):
    # reference: every element of the group applied to each representative
    obj = VerObject(F4, m, n)
    group = _group(m, n, F4)
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
    """itertools.product over the free entries in Gamma^2 line order
    (families 1-7 of `divided`), each Gram filled in slot by slot, kept when
    invertible."""
    obj = VerObject(F, m, n)
    v, w, x = (list(map(int, s)) for s in (obj.vs, obj.ws, obj.xs))
    pairs = lambda s: list(itertools.combinations(range(s), 2))
    cells = (
        [(v[i], v[i]) for i in range(m)] + [(v[i], v[j]) for i, j in pairs(m)]
        + [(v[i], w[k]) for i in range(m) for k in range(n)]
        + [(w[k], w[k]) for k in range(n)] + [(w[k], x[k]) for k in range(n)]
        + [(w[k], x[l]) for k, l in pairs(n)] + [(w[k], w[l]) for k, l in pairs(n)]
    )
    assert len(cells) == free_entry_count(m, n)
    # the compatibility law puts a w_k-x_l entry at w_l-x_k as well
    swap = {(w[k], x[l]): (w[l], x[k]) for k in range(n) for l in range(n)}
    for entries in itertools.product(range(F.order), repeat=len(cells)):
        G = la.zeros(obj.dim, obj.dim)
        for (a, b), e in zip(cells, entries):
            for i, j in ((a, b), swap.get((a, b), (a, b))):
                G[i, j] = G[j, i] = e
        if la.is_invertible(F, G):
            yield G


def test_a_quadratic_forms_key_is_its_line_values_in_base_q():
    obj = VerObject(F4, 1, 1)
    q = QuadraticForm(obj, [1, 2, 3, 0])  # families 1, 3, 4, 5
    G_q = obj.gram_from_free_entries(q.values)[None]
    assert _keys_of_grams(obj, G_q).tolist() == [int("1230", 4)]
    assert np.array_equal(oracle._grams_of_keys(obj, np.array([int("1230", 4)])), G_q)


# sha256 prefixes of the sorted Gram lists, pinned from the enumeration in its
# former key order (block upper triangles in row order): only the order changed
_FORM_SET_SHA256 = {
    (2, 0, 1): "db26aa5cec1a1e18", (2, 1, 1): "debeaabb0c658ed7", (2, 0, 2): "0d5f6be933edab50",
    (2, 2, 0): "df9b921da98f9116", (1, 1, 0): "ae973b0501aa8047",
}


@pytest.mark.parametrize("k,m,n", [(2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 2, 0), (1, 1, 0)])
def test_enumerate_matches_product_reference(k, m, n):
    F = make_field(k)
    got = [beta.gram.tolist() for beta in enumerate_forms(m, n, F)]
    assert got == [G.tolist() for G in _reference_forms(m, n, F)]
    assert hashlib.sha256(repr(sorted(got)).encode()).hexdigest()[:16] == _FORM_SET_SHA256[k, m, n]
