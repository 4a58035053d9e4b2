import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms import linalg as la
from ver4forms.bform import BilinearForm, Subobject, standard_subobject
from ver4forms.divided import gamma2
from ver4forms.field import make_field
from ver4forms.verobj import VerObject, random_equivariant_automorphism
from ver4forms.witt import direct_sum

F = make_field(2)
P = VerObject(F, 0, 1)


def bp(y, field=F):
    return BilinearForm(VerObject(field, 0, 1), np.array([[y, 1], [1, 0]]))


def b2p(tag, field=F):
    G = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=np.int64)
    G[0, 0] = tag
    return BilinearForm(VerObject(field, 0, 2), G)


def _all_symmetric_forms(m, n, field):
    """Every symmetric compatible Gram (degenerate ones included)."""
    obj = VerObject(field, m, n)
    q = field.order
    sym_m = [(i, j) for i in range(m) for j in range(i, m)]
    vw = [(i, k) for i in range(m) for k in range(n)]
    sym_n = [(j, k) for j in range(n) for k in range(j, n)]
    cnt = len(sym_m) + len(vw) + 2 * len(sym_n)
    for entries in itertools.product(range(q), repeat=cnt):
        G = la.zeros(obj.dim, obj.dim)
        at = 0
        for i, j in sym_m:
            G[obj.vs[i], obj.vs[j]] = G[obj.vs[j], obj.vs[i]] = entries[at]
            at += 1
        for i, k in vw:
            G[obj.vs[i], obj.ws[k]] = G[obj.ws[k], obj.vs[i]] = entries[at]
            at += 1
        for j, k in sym_n:
            G[obj.ws[j], obj.ws[k]] = G[obj.ws[k], obj.ws[j]] = entries[at]
            at += 1
        for j, k in sym_n:
            v = entries[at]
            G[obj.ws[j], obj.xs[k]] = G[obj.xs[k], obj.ws[j]] = v
            G[obj.ws[k], obj.xs[j]] = G[obj.xs[j], obj.ws[k]] = v
            at += 1
        yield BilinearForm(obj, G)


def test_new_form_accepts_bp():
    beta = bp(2)
    assert beta.is_symmetric() and beta.is_nondegenerate()


def test_new_form_rejects_incompatible():
    with pytest.raises(ValueError):
        BilinearForm(P, np.array([[0, 1], [0, 0]]))


def test_new_form_rejects_wrong_shape():
    with pytest.raises(ValueError):
        BilinearForm(P, np.array([[0, 1, 0], [0, 0, 0]]))


def test_zero_dim_form():
    beta = BilinearForm(VerObject(F, 0, 0), la.zeros(0, 0))
    assert beta.is_symmetric()
    assert beta.is_alternating()
    assert beta.is_nondegenerate()


def test_compatibility_forces_lemma_entries():
    # beta(v_i, x_j) = 0, beta(w_j, x_k) = beta(x_j, w_k), beta(x_j, x_k) = 0
    rng = np.random.default_rng(9)
    obj = VerObject(F, 2, 2)
    for _ in range(40):
        G = rng.integers(0, F.order, size=(obj.dim, obj.dim)).astype(np.int64)
        try:
            beta = BilinearForm(obj, G)
        except ValueError:
            continue
        for i in range(obj.m):
            for j in range(obj.n):
                assert beta.gram[obj.vs[i], obj.xs[j]] == 0
        for j in range(obj.n):
            for k in range(obj.n):
                assert (
                    beta.gram[obj.ws[j], obj.xs[k]]
                    == beta.gram[obj.xs[j], obj.ws[k]]
                )
                assert beta.gram[obj.xs[j], obj.xs[k]] == 0


def test_is_symmetric():
    assert bp(3).is_symmetric()
    obj = VerObject(F, 2, 0)
    asym = BilinearForm(obj, np.array([[0, 1], [0, 0]]))
    assert not asym.is_symmetric()
    with pytest.raises(ValueError):
        asym.is_alternating()


def test_alternating_examples():
    for y in F.elements():
        assert bp(y).is_alternating()  # any symmetric form on nP is alternating
    ident = BilinearForm(VerObject(F, 2, 0), la.eye(2))
    assert not ident.is_alternating()


def test_oscillating_and_super_alternating_examples():
    assert b2p(0).is_oscillating() and b2p(0).is_super_alternating()
    assert b2p(1).is_oscillating() and not b2p(1).is_super_alternating()
    assert not bp(0).is_oscillating()


def test_radical_and_nondegeneracy():
    assert bp(2).radical().dim == 0
    zero = BilinearForm(P, la.zeros(2, 2))
    assert zero.radical().dim == 2
    obj = VerObject(F, 2, 0)
    G = np.array([[1, 0], [0, 0]], dtype=np.int64)
    beta = BilinearForm(obj, G)
    rad = beta.radical()
    assert rad.dim == 1
    assert rad.span[1].any() and not rad.span[0].any()
    assert not beta.is_nondegenerate()


def test_orthogonal_complement_block_sum():
    beta = direct_sum(bp(0), bp(1))
    S = standard_subobject(beta.obj, [], [0])
    comp = beta.orthogonal_complement(S)
    assert comp.dim == 2
    restr = beta.restrict(comp)
    assert restr.gram.tolist() == [[1, 1], [1, 0]]


def test_complement_of_unit_part_in_b_class():
    # V = the m1 part of alpha1^m + n bP(0); its complement is the nP part
    from ver4forms.classify import CanonicalClass, canonical_rep

    beta = canonical_rep(CanonicalClass("B", 2, 2), F)
    V = standard_subobject(beta.obj, range(2), [])
    comp = beta.orthogonal_complement(V)
    restr = beta.restrict(comp)
    assert (restr.obj.m, restr.obj.n) == (0, 2)
    assert restr.is_nondegenerate()


def test_split_requires_nondegenerate_restriction():
    beta = direct_sum(bp(0), bp(1))
    # span{x_1} is t-stable but beta restricted to it is zero
    span = la.zeros(4, 1)
    span[beta.obj.xs[0], 0] = 1
    S = Subobject(beta.obj, span)
    with pytest.raises(ValueError):
        beta.split(S)


def test_split_gives_congruent_block_diagonal():
    rng = np.random.default_rng(21)
    from ver4forms.classify import CanonicalClass, canonical_rep

    beta0 = canonical_rep(CanonicalClass("E", 2, 2, 3), F)
    phi = random_equivariant_automorphism(beta0.obj, rng)
    beta = BilinearForm(beta0.obj, la.congruence(F, phi.matrix, beta0.gram))
    S = Subobject(beta.obj, phi.matrix[:, :2])  # image of the unit part
    left, right = beta.split(S)
    assert left.dim + right.dim == beta.dim
    assert left.is_nondegenerate() and right.is_nondegenerate()


def test_subobject_requires_t_stability():
    obj = VerObject(F, 0, 1)
    span = np.array([[1], [0]], dtype=np.int64)  # spans w only
    with pytest.raises(ValueError):
        Subobject(obj, span)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 16), m=st.integers(0, 3), n=st.integers(0, 3), r=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_subobject_basis_is_first_independent_columns(k, m, n, r, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj = VerObject(Fk, m, n)
    R = rng.integers(0, Fk.order, size=(obj.dim, r))
    TR = la.mat_mul(Fk, obj.t_action(), R)
    # t-stable: R, its t-image and combinations of R, with scalar multiples
    # and repeats, in random column order
    extra = la.mat_mul(Fk, R, rng.integers(0, Fk.order, size=(r, 3)))
    span = np.concatenate([R, TR, extra, R[:, :1]], axis=1)
    span = span[:, rng.permutation(span.shape[1])]
    sub = Subobject(obj, span)
    keep = [j for j in range(span.shape[1]) if la.rank(Fk, span[:, : j + 1]) > la.rank(Fk, span[:, :j])]
    assert np.array_equal(sub.basis(), span[:, keep])
    assert sub.dim == len(keep) == la.rank(Fk, span)
    # R alone is t-stable iff adding its t-image keeps the rank
    stable = la.rank(Fk, np.concatenate([R, TR], axis=1)) == la.rank(Fk, R)
    if stable:
        assert Subobject(obj, R).dim == la.rank(Fk, R)
    else:
        with pytest.raises(ValueError, match="not t-stable"):
            Subobject(obj, R)


def test_alternating_matches_divided_power_kernel_definition():
    # beta alternating iff it kills every generator of ker(1 - c)
    rng = np.random.default_rng(13)
    for m, n in [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2), (4, 2)]:
        obj = VerObject(F, m, n)
        basis = gamma2(obj)
        cols = basis.basis_matrix()
        seen = 0
        for beta in _all_symmetric_forms(m, n, F):
            if seen > 60:
                break
            seen += 1
            definitional = all(
                beta.apply_to_tensor(cols[:, j]) == 0 for j in range(cols.shape[1])
            )
            assert beta.is_alternating() == definitional


def test_predicate_implications_exhaustive_gf4():
    checked = 0
    for m, n in [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2)]:
        for beta in _all_symmetric_forms(m, n, F):
            checked += 1
            if beta.is_super_alternating():
                assert beta.is_alternating()
            if beta.is_alternating():
                assert beta.is_symmetric()
    assert checked > 5000


def test_json_roundtrip():
    for beta in (bp(3), BilinearForm(VerObject(F, 0, 0), la.zeros(0, 0))):
        back = BilinearForm.from_json(beta.to_json())
        assert back.gram.shape == beta.gram.shape
        assert np.array_equal(back.gram, beta.gram)
        assert back.obj == beta.obj
    with pytest.raises(ValueError):
        BilinearForm.from_json({"field": {"k": 2}, "object": {"m": 0}, "gram": []})
