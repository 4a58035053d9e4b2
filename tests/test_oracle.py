import hashlib
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from ver4forms import linalg as la
from ver4forms import oracle
from ver4forms.divided import QuadraticForm
from ver4forms.field import make_field
from ver4forms.oracle import (
    _grams_of_keys,
    _keys_of_grams,
    class_inventory,
    enumerate_forms,
    free_entry_count,
    orbit_classes,
)
from ver4forms.verobj import VerObject

F2 = make_field(1)
F4 = make_field(2)


def _all_matrices(q, rows, cols):
    """Every rows x cols matrix over GF(q), in itertools.product order."""
    count = q ** (rows * cols)
    return oracle._digits(np.arange(count, dtype=np.int64), q, rows * cols).reshape(count, rows, cols)


def _gl(F, s):
    M = _all_matrices(F.order, s, s)
    return M[la.batch_solve(F, M)[0]]


def _group(m, n, F, levi=True, unipotent=True):
    """The reference equivariant group, all invertible matrices commuting with
    t, as one (|G|, d, d) array ordered by (A, E, C, D, F) blocks of
    `VerObject.equivariant_matrix` with the last varying fastest; or its
    part U (no `levi`: A = E = I) or L (no `unipotent`: C = D = F = 0)."""
    obj = VerObject(F, m, n)
    sets = [_gl(F, s) if levi else np.eye(s, dtype=np.int64)[None] for s in (m, n)]
    q = F.order if unipotent else 1  # over {0}, 0 is the only matrix
    sets += [_all_matrices(q, r, c) for r, c in ((n, m), (m, n), (n, n))]
    # set i goes on batch axis i of five, so broadcasting forms every tuple
    A, E, C, D, Fm = (
        s.reshape((1,) * i + (len(s),) + (1,) * (4 - i) + s.shape[1:]) for i, s in enumerate(sets)
    )
    return obj.equivariant_matrix(A, C, D, E, Fm).reshape(math.prod(map(len, sets)), obj.dim, obj.dim)


def _whole_group_orbit(obj, unipotent, levi, G):
    """Sorted keys of G's orbit under the reference group, swept as U on G
    and then L on each distinct U-image (G = U L by
    `test_group_is_unipotent_times_levi`)."""
    grams = G[None]
    for Ts in (unipotent, levi):
        images = la.congruence(obj.field, Ts, grams[:, None]).reshape(len(grams) * len(Ts), obj.dim, obj.dim)
        keys, first = np.unique(_keys_of_grams(obj, images), return_index=True)
        grams = images[first]
    return keys


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


# GF(2) shapes up to dim 7, about a second of censuses together
_GF2_CENSUS_SHAPES = [
    (0, 1), (1, 1), (2, 0), (3, 0), (0, 2), (2, 1), (1, 2), (4, 0), (2, 2), (0, 3), (3, 1), (4, 1), (1, 3),
]


def test_orbit_census_gf2():
    # GF(2) runs the census of every field, which checks that each component
    # is classified constantly: one component per class, in inventory order
    for m, n in _GF2_CENSUS_SHAPES:
        report = orbit_classes(m, n, F2)
        inventory = class_inventory(m, n, F2)
        assert [label for label, _, _ in report.orbits] == [c.label() for c in inventory], (m, n)
        assert report.orbit_count == len(inventory)
        assert report.total_forms == sum(size for _, size, _ in report.orbits)


@pytest.mark.parametrize("k", range(1, 17), ids=[f"k{k}" for k in range(1, 17)])
def test_generators_are_field_matrices_that_generate(k):
    # every entry is a field element, the scaling diag(x, 1, ...) included
    # (x = 1 over GF(2)), and on (1, 0), where G = GL_1, the census
    # certifies the set: one orbit of all q - 1 forms
    F = make_field(k)
    for m, n in ((1, 0), (2, 2)):
        S = oracle._generators(VerObject(F, m, n))
        assert ((0 <= S) & (S < F.order)).all(), (m, n)
    report = orbit_classes(1, 0, F)
    assert (report.orbit_count, report.total_forms) == (1, F.order - 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_count_is_the_census_budget(monkeypatch, k):
    # |S| in the budget is len(_generators(obj)), and no generator is I:
    # over GF(2), x = 1 makes diag(x, 1, ...) the identity, so it is left out
    F = make_field(k)
    monkeypatch.setattr(oracle, "BUDGET_BITS", -1)  # refuse every shape, naming its bits
    for m, n in itertools.product(range(4), repeat=2):
        obj = VerObject(F, m, n)
        S = oracle._generators(obj)
        assert len(S) == k * (m * (m - 1) + n * (n - 1) + 2 * m * n + n * n) + (k > 1) * ((m > 0) + (n > 0))
        assert not (S == la.eye(obj.dim)).all(axis=(1, 2)).any(), (m, n)
        bits = k * free_entry_count(m, n) + math.log2(max(len(S), 1))
        with pytest.raises(ValueError, match=rf"2\^{re.escape(f'{bits:.4g}')} is over"):
            orbit_classes(m, n, F)


# (k, m, n, stride): every stride-th non-degenerate key is checked; on
# (0,2) over GF(8), 8^6 keys through the congruence kernel take ~5 s
_LINEAR_IMAGE_SHAPES = [(2, 0, 1, 1), (2, 1, 1, 1), (2, 0, 2, 1), (2, 2, 1, 1), (1, 2, 2, 1), (3, 0, 2, 7)]


@pytest.mark.parametrize(
    "k, m, n, stride", _LINEAR_IMAGE_SHAPES, ids=[f"{m}-{n}-gf{2**k}" for k, m, n, _ in _LINEAR_IMAGE_SHAPES]
)
def test_linear_images_are_the_acted_keys(k, m, n, stride):
    # key linearity on data: on the non-degenerate keys the images from
    # the kL basis Grams are the keys of T^T G T, and degenerate keys stay
    # degenerate
    F = make_field(k)
    obj = VerObject(F, m, n)
    S = oracle._generators(obj)
    images = oracle._images(obj, S)
    enumerated = np.zeros(images.shape[1], dtype=bool)
    for keys, grams, classes in oracle._candidates(obj, class_inventory(m, n, F)):
        enumerated[keys] = ok = classes >= 0
        checked, sample = keys[ok][::stride], grams[ok][::stride]
        for T, image in zip(S, images):
            assert np.array_equal(image[checked], _keys_of_grams(obj, la.congruence(F, T, sample)))
    assert not any(enumerated[image[~enumerated]].any() for image in images)


@pytest.mark.parametrize("k, m, n", [(2, 1, 1), (2, 0, 2), (2, 2, 1), (1, 2, 2)])
def test_candidate_mask_is_invertibility(k, m, n):
    # the classifier's block test, as the census reads it, against the
    # serial row_reduce rank of the whole Gram
    F = make_field(k)
    for _, grams, classes in oracle._candidates(VerObject(F, m, n), class_inventory(m, n, F)):
        assert (classes >= 0).tolist() == [la.is_invertible(F, G) for G in grams]


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
    "m, n, k, bits",
    [(0, 3, 2, "28.95"), (4, 0, 2, "24.64"), (0, 1, 11, "25.58")],
    ids=["0-3", "4-0", "0-1-gf2048"],
)
def test_census_refused_by_image_count(m, n, k, bits):
    # |S| q^L images: 31 * 4^12, 25 * 4^10 and 12 * 2048^2
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"generator images of candidate Grams: 2\^{bits} is over"):
        orbit_classes(m, n, make_field(k))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m, n, bits", [(40, 0, "1652"), (0, 30, "1872")], ids=["40-0", "0-30"])
def test_census_refused_before_the_generators_are_built(m, n, bits):
    # |S| is counted in closed form: S, whose single-entry blocks come from
    # an (rc)^2 identity, would grow about as m^4
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^generator images of candidate Grams: 2\^{bits} is over the 2\^24 budget$"):
            orbit_classes(m, n, F4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


# every non-zero shape up to GF(128) that the whole-group sweep's budget
# admitted, but (2,0) over GF(32), whose reference sweep takes seconds; the
# zero object over GF(4); and GF(2) shapes up to dim 4
_SWEEP_SHAPES = [(2, m, n) for m, n in ((0, 1), (1, 1), (0, 2), (2, 0), (0, 0), (1, 0), (2, 1), (3, 0))]
_SWEEP_SHAPES += [(k, m, n) for k in (3, 4) for m, n in ((0, 1), (1, 0), (1, 1), (2, 0))]
_SWEEP_SHAPES += [(k, m, n) for k in (5, 6, 7) for m, n in ((0, 1), (1, 0))]
_SWEEP_SHAPES += [(1, m, n) for m, n in ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1), (3, 0))]


@pytest.mark.parametrize(
    "k, m, n", _SWEEP_SHAPES, ids=[f"{m}-{n}" + (f"-gf{2**k}" if k != 2 else "") for k, m, n in _SWEEP_SHAPES]
)
def test_orbits_match_whole_group_sweep(monkeypatch, k, m, n):
    # the generating-set lemma on data: each component is a whole orbit
    F = make_field(k)
    obj, labels, components = VerObject(F, m, n), [], oracle._components
    monkeypatch.setattr(oracle, "_components", lambda images: labels.append(components(images)) or labels[0])
    report = orbit_classes(m, n, F)
    enumerated = np.concatenate([classes >= 0 for _, _, classes in oracle._candidates(obj, class_inventory(m, n, F))])
    label = np.where(enumerated, labels[0], -1)
    unipotent, levi, sizes = _group(m, n, F, levi=False), _group(m, n, F, unipotent=False), []
    for root in np.unique(label[enumerated]):
        orbit = _whole_group_orbit(obj, unipotent, levi, _grams_of_keys(obj, np.array([root]))[0])
        assert np.array_equal(orbit, np.flatnonzero(label == root))
        sizes.append(len(orbit))
    assert sorted(sizes) == sorted(size for _, size, _ in report.orbits)


def _drop_scalings(obj, S):
    return S[(np.diagonal(S, 0, 1, 2) == 1).all(axis=1)]


def _drop_f_blocks(obj, S):
    return S[~S[:, obj.xs][:, :, obj.ws].any(axis=(1, 2))]


@pytest.mark.parametrize(
    "drop, m, n",
    [
        # GL_1 without diag(2): the 3 scalars [[a]] stay apart, all A[1,0]
        (_drop_scalings, 1, 0),
        # F acts trivially on (0,1) (w -> w + f x adds 2 f G_wx to G_ww), not on (0,2)
        (_drop_f_blocks, 0, 2),
    ],
    ids=["no-scaling-1-0", "no-f-blocks-0-2"],
)
def test_census_catches_a_set_that_does_not_generate(monkeypatch, drop, m, n):
    generators = oracle._generators
    monkeypatch.setattr(oracle, "_generators", lambda obj: drop(obj, generators(obj)))
    with pytest.raises(AssertionError, match="not one per class"):
        orbit_classes(m, n, F4)


def test_census_catches_an_image_outside_the_enumerated_set(monkeypatch):
    # the zero Gram is degenerate, so its key 0 is not enumerated
    monkeypatch.setattr(oracle, "congruence", lambda F, T, G: np.zeros(np.broadcast_shapes(T.shape, G.shape), int))
    with pytest.raises(AssertionError, match="leaves the enumerated set"):
        orbit_classes(0, 1, F4)


def test_census_catches_a_basis_image_that_breaks_linearity(monkeypatch):
    # one generator's image of the last basis Gram gets an x-x entry, zero on
    # every compatible Gram: the images would no longer be exact keys
    congruence = oracle.congruence

    def corrupt_first(F, T, G):
        out = congruence(F, T, G)
        out[0, -1, -1, -1] ^= 1
        return out

    monkeypatch.setattr(oracle, "congruence", corrupt_first)
    with pytest.raises(AssertionError, match="linearity certificate"):
        orbit_classes(0, 2, F4)


def test_census_of_the_zero_object():
    report = orbit_classes(0, 0, F4)
    assert (report.total_forms, report.group_order, report.orbit_count) == (1, 1, 1)
    assert [(label, size) for label, size, _ in report.orbits] == [("C[0,0]", 1)]
    assert report.orbits[0][2].shape == (0, 0)


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
    inventory_indices = oracle.inventory_indices

    def last_one_wrong(obj, grams, inventory):
        out = inventory_indices(obj, grams, inventory)
        out[-1] = next(i for i in range(len(inventory)) if i != out[-1])
        return out

    monkeypatch.setattr(oracle, "inventory_indices", last_one_wrong)
    with pytest.raises(AssertionError, match=r"orbit of E\[0,1\]\(1\) has a member classified as E\[0,1\]\(0\)"):
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
