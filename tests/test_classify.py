import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms import linalg as la
from ver4forms.bform import BilinearForm, block_invariants
from ver4forms.classify import (
    FAMILIES,
    CanonicalClass,
    GoodPairSpace,
    InternalCheckError,
    canonical_rep,
    canonicalize,
    canonicalize_batch,
    classify,
    classify_batch,
    form_invariant,
    good_pairs,
    x_function,
    x_matrix,
    _congruence_basis,
    _good_pair_shapes,
    _move_x_function,
    class_codes,
    class_inventory,
)
from ver4forms.field import make_field
from ver4forms.verobj import (
    VerObject,
    commutes,
    random_equivariant_automorphism,
    random_equivariant_matrices,
    random_equivariant_matrix,
)
from ver4forms.witt import all_class_instances, direct_sum
from reference import inverse, is_invertible

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)


def bp(y, field=F4):
    return BilinearForm(VerObject(field, 0, 1), np.array([[y, 1], [1, 0]]))


def test_good_pairs_shapes():
    assert good_pairs(canonical_rep(CanonicalClass("C", 2, 2), F4)).shape == "full"
    assert good_pairs(canonical_rep(CanonicalClass("B", 1, 1), F4)).shape == "zero"
    assert good_pairs(canonical_rep(CanonicalClass("A", 2, 2), F4)).shape == "k_axis"
    assert good_pairs(canonical_rep(CanonicalClass("D", 0, 2), F4)).shape == "k_axis"
    for a in F4.elements():
        gp = good_pairs(bp(a))
        assert gp.shape == "slope" and gp.witness == a


def test_good_pairs_zero_dim_is_full():
    beta = BilinearForm(VerObject(F4, 0, 0), la.zeros(0, 0))
    assert good_pairs(beta).shape == "full"


def test_x_matrix_and_function():
    for a in F4.elements():
        e = canonical_rep(CanonicalClass("E", 2, 3, a), F4)
        assert np.array_equal(x_matrix(e), la.eye(3))
        assert x_function(e).tolist() == [a, a, a]
    c = canonical_rep(CanonicalClass("C", 0, 2), F4)
    assert x_matrix(c).tolist() == [[0, 1], [1, 0]]
    d = canonical_rep(CanonicalClass("D", 0, 2), F4)
    assert x_matrix(d).tolist() == [[0, 1], [1, 0]]
    assert x_function(d).tolist() == [1, 0]
    nothing = canonical_rep(CanonicalClass("C", 2, 0), F4)
    assert x_matrix(nothing).shape == (0, 0)


def test_x_matrix_requires_alternating():
    ident = BilinearForm(VerObject(F4, 2, 0), la.eye(2))
    with pytest.raises(ValueError):
        x_matrix(ident)


def test_form_invariant_values():
    F16 = make_field(4)
    for a in F16.elements():
        for n in range(1, 7):
            e = canonical_rep(CanonicalClass("E", 0, n, a), F16)
            assert form_invariant(e) == (a if n % 2 else 0)
    assert form_invariant(canonical_rep(CanonicalClass("C", 2, 4), F4)) == 0
    assert form_invariant(canonical_rep(CanonicalClass("D", 0, 4), F4)) == 0
    # bP(1) + bP(y) has invariant 1 + y
    for y in F4.elements():
        beta = direct_sum(bp(1), bp(y))
        assert form_invariant(beta) == 1 ^ y


def test_form_invariant_additive_over_sums():
    rng = np.random.default_rng(2)
    alts = [
        canonical_rep(CanonicalClass("C", 2, 2), F8),
        canonical_rep(CanonicalClass("D", 0, 2), F8),
        canonical_rep(CanonicalClass("E", 0, 3, 5), F8),
        canonical_rep(CanonicalClass("F", 2, 2, 4), F8),
    ]
    for b1 in alts:
        for b2 in alts:
            assert form_invariant(direct_sum(b1, b2)) == form_invariant(b1) ^ form_invariant(b2)


def test_classify_examples():
    for y in F4.elements():
        assert classify(bp(y)) == CanonicalClass("E", 0, 1, y)
    ident = BilinearForm(VerObject(F4, 2, 0), la.eye(2))
    assert classify(ident) == CanonicalClass("A", 2, 0)
    b2p1 = canonical_rep(CanonicalClass("D", 0, 2), F4)
    four = direct_sum(b2p1, b2p1)
    assert classify(four) == CanonicalClass("D", 0, 4)


def test_gf2_classifies_every_scrambled_class():
    # GF(2) takes the invariant and the constructive path of every field:
    # scrambles of each class on m, n <= 6 through both batch classifiers,
    # whose certificates check each transform and canonical Gram
    rng = np.random.default_rng(2)
    assert classify(BilinearForm(VerObject(F2, 1, 0), la.eye(1))) == CanonicalClass("A", 1, 0)
    classes = all_class_instances(F2, 6)
    assert len(classes) == 172
    for cls in classes:
        rep = canonical_rep(cls, F2)
        grams = la.congruence(F2, random_equivariant_matrices(rep.obj, rng, 20), rep.gram)
        assert classify_batch(rep.obj, grams) == [cls] * 20
        assert [got for _, _, got in canonicalize_batch(rep.obj, grams[:4])] == [cls] * 4


def test_classify_rejects_degenerate_and_asymmetric():
    zero = BilinearForm(VerObject(F4, 0, 1), la.zeros(2, 2))
    with pytest.raises(ValueError):
        classify(zero)
    asym = BilinearForm(VerObject(F4, 2, 0), np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        classify(asym)


def test_canonical_class_constraints():
    with pytest.raises(ValueError):
        CanonicalClass("A", 0, 2)
    with pytest.raises(ValueError):
        CanonicalClass("B", 1, 0)
    with pytest.raises(ValueError):
        CanonicalClass("C", 1, 2)
    with pytest.raises(ValueError):
        CanonicalClass("D", 0, 0)
    with pytest.raises(ValueError):
        CanonicalClass("E", 0, 0, 1)
    with pytest.raises(ValueError):
        CanonicalClass("F", 0, 2, 0)  # the excluded corner
    with pytest.raises(ValueError):
        CanonicalClass("E", 0, 1)  # missing parameter
    with pytest.raises(ValueError):
        CanonicalClass("A", 2, 2, 1)  # unexpected parameter
    CanonicalClass("F", 0, 3, 0)  # fine when n > 2


def _admits_all_families(fam, m, n, p):
    # the conditions of all six families in one table, indexed by family
    return {
        "A": m > 0 and n % 2 == 0,
        "B": m > 0 and n > 0,
        "C": m % 2 == 0 and n % 2 == 0,
        "D": m % 2 == 0 and n % 2 == 0 and n >= 2,
        "E": m % 2 == 0 and n > 0,
        "F": m % 2 == 0 and n >= 2 and (n != 2) | (p != 0),
    }[fam]


def test_admits_reads_one_family_as_the_six_family_table():
    params = (None, 0, 1, 6, np.arange(8), np.array([0]), np.array([], dtype=np.int64))
    for fam, m, n, p in itertools.product(FAMILIES, range(7), range(7), params):
        got, want = CanonicalClass.admits(fam, m, n, p), _admits_all_families(fam, m, n, p)
        assert np.array_equal(np.broadcast_to(got, np.shape(p)), np.broadcast_to(want, np.shape(p)))
        if p is None or isinstance(p, int):
            try:
                CanonicalClass(fam, m, n, p)
                built = True
            except ValueError:
                built = False
            assert built == (bool(want) and (p is None) == (fam not in "EF"))
    with pytest.raises(KeyError):
        CanonicalClass.admits("G", 2, 2)


def _inventory_trying_every_parameter(m, n, F, params):
    out = []
    for fam in FAMILIES:
        for p in params if fam in "EF" else [None]:
            try:
                out.append(CanonicalClass(fam, m, n, p))
            except ValueError:
                continue
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 16])
def test_class_inventory_matches_trying_every_parameter(k):
    # the whole field for k <= 3; at k = 16, where trying all 2^16 elements
    # on every shape would take seconds, a sample holding 0 (the only
    # parameter a rule singles out) on every shape, and the whole field on
    # (1, 0), where no parameter fits
    Fk = make_field(k)
    sample = None if k <= 3 else [0, 1, 2, Fk.order - 1]
    runs = [(m, n, sample) for m, n in itertools.product(range(5), repeat=2)]
    runs += [(1, 0, None)] if k == 16 else []
    for m, n, params in runs:
        got = class_inventory(m, n, Fk, params)
        tried = Fk.elements() if params is None else params
        assert got == _inventory_trying_every_parameter(m, n, Fk, tried), (m, n)
        assert all(c.param is None or type(c.param) is int for c in got)


def test_canonical_rep_examples():
    c = canonical_rep(CanonicalClass("C", 0, 2), F4)
    assert c.gram.tolist() == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    d = canonical_rep(CanonicalClass("D", 0, 2), F4)
    assert d.gram.tolist() == [
        [1, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    f = canonical_rep(CanonicalClass("F", 0, 2, 3), F4)
    assert f.gram.tolist() == [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]]
    with pytest.raises(ValueError):
        canonical_rep(CanonicalClass("E", 0, 1, 9), F4)  # parameter out of range


@pytest.mark.parametrize("param", [1.5, "1", 1.0, True, np.int64(1)], ids=["float", "str", "integral-float", "bool", "int64"])
def test_canonical_rep_refuses_a_parameter_that_is_not_an_int(param):
    # 1.5 would otherwise build E(1)'s Gram; 1.0, True and np.int64(1) hash
    # equal to 1, so E(1) is cached first: the class itself refuses them
    canonical_rep(CanonicalClass("E", 0, 1, 1), F4)
    with pytest.raises(ValueError, match="must be ints"):
        canonical_rep(CanonicalClass("E", 0, 1, param), F4)
    for m, n in ((0, True), (np.int64(0), 1)):
        with pytest.raises(ValueError, match="must be ints"):
            CanonicalClass("E", m, n, 1)


# sha256 prefix of every canonical representative on m, n <= 6 over GF(2^k),
# k in (2, 3, 4, 8, 16), E and F parameters every element for k <= 4 and
# 0-11 and the last element otherwise (2796 classes), pinned from the output
# of the block-diagonal construction that preceded `gram_from_blocks`
_CANONICAL_REPS_SHA256 = "edfe5084bd398d7e"


def test_canonical_reps_are_pinned():
    h, count = hashlib.sha256(), 0
    for k in (2, 3, 4, 8, 16):
        Fk = make_field(k)
        params = Fk.elements() if k <= 4 else list(range(12)) + [Fk.order - 1]
        for m, n in itertools.product(range(7), repeat=2):
            for cls in class_inventory(m, n, Fk, params):
                G = canonical_rep(cls, Fk).gram
                h.update(repr((k, cls)).encode() + G.tobytes() + str(G.shape).encode())
                count += 1
    assert (count, h.hexdigest()[:16]) == (2796, _CANONICAL_REPS_SHA256)


def test_classify_of_every_canonical_rep_roundtrips():
    for fam in "ABCDEF":
        for m in range(5):
            for n in range(5):
                params = list(F8.elements()) if fam in "EF" else [None]
                for p in params:
                    try:
                        cls = CanonicalClass(fam, m, n, p)
                    except ValueError:
                        continue
                    assert classify(canonical_rep(cls, F8)) == cls


@pytest.mark.parametrize("F, max_n", [(F2, 6), (F4, 4), (F8, 3)], ids=["gf2", "gf4", "gf8"])
def test_move_x_function_reaches_every_target_in_two_transvections(F, max_n, monkeypatch):
    # every g = sqrt(f) in K^n that `_reduce` moves, under Mc = I and the
    # hyperbolic Mc, starting from E = I: Mc is kept and g reaches its target
    module = sys.modules["ver4forms.classify"]
    steps = []
    step = module._transvection
    monkeypatch.setattr(module, "_transvection", lambda *args: steps.append(args) or step(*args))
    two_steps = 0
    for n in range(1, max_n + 1):
        for alt in (False, True) if n % 2 == 0 else (False,):
            x_rows = np.arange(n) ^ alt
            Mc = la.eye(n)[x_rows]
            for g in itertools.product(F.elements(), repeat=n):
                g = np.array(g, dtype=np.int64)
                if alt and g.any():
                    h = la.eye(n)[0]  # D
                elif not alt and (g != g[0]).any():
                    h = np.zeros(n, dtype=np.int64)  # F
                    h[-2:] = 1, 1 ^ int(np.bitwise_xor.reduce(g))
                else:
                    continue  # C and E: g is its own target
                E = la.eye(n)
                steps.clear()
                _move_x_function(F, E, x_rows, g, h)
                assert len(steps) <= 2
                two_steps += len(steps) == 2
                assert np.array_equal(la.congruence(F, E, Mc), Mc)
                f = la.mat_vec(F, F.mul_arr(E, E).T, F.mul_arr(g, g))
                assert np.array_equal(f, F.mul_arr(h, h))
    assert two_steps
    # a constant g is its own orbit under Mc = I: no pair moves it
    with pytest.raises(InternalCheckError, match="no transvection pair"):
        _move_x_function(F, la.eye(3), np.arange(3), np.ones(3, dtype=np.int64), la.eye(3)[2])


def test_canonicalize_two_p_blocks():
    # mixed scalars land on the F representative bP(1) + bP(y1+y2+1)
    for y, z in itertools.product(F4.elements(), repeat=2):
        beta = direct_sum(bp(y), bp(z))
        transform, canon, _ = canonicalize(beta)
        if y == z:
            assert classify(beta).family == "E"
        else:
            k = y ^ z ^ 1
            assert canon.gram.tolist() == direct_sum(bp(1), bp(k)).gram.tolist()


def test_canonicalize_unit_absorbs_p_scalar():
    # alpha1 + bP(y) is congruent to alpha1 + bP(0)
    for y in F4.elements():
        one = BilinearForm(VerObject(F4, 1, 0), la.eye(1))
        beta = direct_sum(one, bp(y))
        transform, canon, _ = canonicalize(beta)
        assert classify(beta) == CanonicalClass("B", 1, 1)
        assert canon.gram.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_canonicalize_unit_absorbs_2p_tag():
    one = BilinearForm(VerObject(F4, 1, 0), la.eye(1))
    b2p1 = canonical_rep(CanonicalClass("D", 0, 2), F4)
    beta = direct_sum(one, b2p1)
    transform, canon, _ = canonicalize(beta)
    assert classify(beta) == CanonicalClass("A", 1, 2)
    want = direct_sum(one, canonical_rep(CanonicalClass("C", 0, 2), F4)).gram
    assert np.array_equal(canon.gram, want)


def test_canonicalize_transform_contract():
    rng = np.random.default_rng(7)
    for cls in [
        CanonicalClass("A", 3, 2),
        CanonicalClass("B", 2, 2),
        CanonicalClass("C", 2, 2),
        CanonicalClass("D", 2, 2),
        CanonicalClass("E", 2, 2, 6),
        CanonicalClass("F", 2, 4, 0),
        CanonicalClass("F", 0, 2, 3),
    ]:
        rep = canonical_rep(cls, F8)
        for _ in range(15):
            phi = random_equivariant_automorphism(rep.obj, rng)
            scrambled = BilinearForm(rep.obj, la.congruence(F8, phi.matrix, rep.gram))
            transform, canon, got = canonicalize(scrambled)
            assert got == cls
            assert np.array_equal(canon.gram, rep.gram)
            assert np.array_equal(
                la.congruence(F8, transform.matrix, scrambled.gram), rep.gram
            )
            T = rep.obj.t_action()
            assert np.array_equal(
                la.mat_mul(F8, transform.matrix, T), la.mat_mul(F8, T, transform.matrix)
            )
            assert is_invertible(F8, transform.matrix)


def test_invariant_under_x_basis_change():
    rng = np.random.default_rng(15)
    rep = canonical_rep(CanonicalClass("F", 2, 3, 5), F8)
    base = form_invariant(rep)
    for _ in range(50):
        phi = random_equivariant_automorphism(rep.obj, rng)
        beta = BilinearForm(rep.obj, la.congruence(F8, phi.matrix, rep.gram))
        assert form_invariant(beta) == base


def test_every_symmetric_form_on_np_is_alternating():
    # exhaustive over GF(4) for n <= 2
    from test_bform import _all_symmetric_forms

    for n in (1, 2):
        for beta in _all_symmetric_forms(0, n, F4):
            assert beta.is_alternating()


def test_canonicalize_absorbs_hyperbolic_pairs_into_units():
    # alpha1 + alpha2 on 3*1 is congruent to the identity
    G = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int64)
    beta = BilinearForm(VerObject(F4, 3, 0), G)
    transform, canon, _ = canonicalize(beta)
    assert canon.gram.tolist() == la.eye(3).tolist()
    assert classify(beta) == CanonicalClass("A", 3, 0)
    # and with two hyperbolic pairs
    G5 = la.zeros(5, 5)
    G5[0, 0] = 1
    for at in (1, 3):
        G5[at, at + 1] = G5[at + 1, at] = 1
    beta5 = BilinearForm(VerObject(F4, 5, 0), G5)
    transform, canon, _ = canonicalize(beta5)
    assert canon.gram.tolist() == la.eye(5).tolist()


def test_canonicalize_every_enumerated_form_on_tiny_objects():
    # every non-degenerate symmetric form on these objects reaches its
    # canonical Gram exactly, not just random scrambles of representatives
    from ver4forms.oracle import enumerate_forms

    for m, n, F in [(0, 1, F4), (1, 1, F4), (2, 0, F4), (0, 2, F4), (0, 1, F8)]:
        for beta in enumerate_forms(m, n, F):
            transform, canon, cls = canonicalize(beta)
            assert cls == classify(beta)
            assert np.array_equal(canon.gram, canonical_rep(cls, F).gram)
            assert np.array_equal(
                la.congruence(F, transform.matrix, beta.gram), canon.gram
            )


def test_classify_and_canonicalize_beyond_acceptance_grid():
    # spot checks at sizes up to 5 over GF(16)
    from ver4forms.verobj import random_equivariant_matrix
    from ver4forms.witt import all_class_instances

    rng = np.random.default_rng(123)
    F16 = make_field(4)
    for cls in all_class_instances(F16, 5, params=[0, 1, 7, 15]):
        rep = canonical_rep(cls, F16)
        assert classify(rep) == cls
        phi = random_equivariant_matrix(rep.obj, rng)
        scr = BilinearForm(rep.obj, la.congruence(F16, phi, rep.gram))
        assert classify(scr) == cls
        transform, canon, _ = canonicalize(scr)
        assert np.array_equal(canon.gram, rep.gram)


def test_labels():
    assert CanonicalClass("E", 0, 2, 3).label() == "E[0,2](3)"
    assert CanonicalClass("A", 1, 0).label() == "A[1,0]"
    assert str(CanonicalClass("F", 2, 3, 0)) == "F[2,3](0)"


def _sparse(rng, q, s, batch, density=0.4, t=None):
    """(batch, s, t) blocks, square by default, with many zeros, so singular ones are common."""
    shape = (batch, s, s if t is None else t)
    return rng.integers(0, q, size=shape) * (rng.random(shape) < density)


def _sparse_sym(rng, q, s, batch, density=0.4):
    """Symmetric (batch, s, s) blocks with many zeros, so singular ones are common."""
    upper = np.triu(_sparse(rng, q, s, batch, density))
    return upper ^ np.triu(upper, 1).swapaxes(-1, -2)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 16), m=st.integers(0, 4), n=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_block_lemma(k, m, n, seed):
    # a compatible Gram, symmetric or not, is non-degenerate iff G_vv and G_wx
    # are invertible; `is_nondegenerate`, the stacked `block_invariants` and
    # the census (a class code >= 0) read that decision, full rank is the reference
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    sym = obj.gram_from_blocks(
        _sparse_sym(rng, q, m, 16), rng.integers(0, q, size=(16, m, n)),
        _sparse_sym(rng, q, n, 16), _sparse_sym(rng, q, n, 16),
    )
    # non-symmetric: independent G_vw and G_wv, any G_ww and G_wx, and G_xw = G_wx
    v, w, x = obj.slots
    nonsym = np.zeros_like(sym)
    nonsym[:, v, v], nonsym[:, w, w] = _sparse(rng, q, m, 16), _sparse(rng, q, n, 16)
    nonsym[:, v, w], nonsym[:, w, v] = _sparse(rng, q, m, 16, t=n), _sparse(rng, q, n, 16, t=m)
    nonsym[:, w, x] = nonsym[:, x, w] = _sparse(rng, q, n, 16)
    grams = obj.as_grams(np.concatenate([sym, nonsym]), stacked=True)
    full_rank = [is_invertible(Fk, G) for G in grams]
    assert [BilinearForm(obj, G).is_nondegenerate() for G in grams] == full_rank
    assert block_invariants(Fk, obj.gram_blocks(grams))[0].tolist() == full_rank
    assert (class_codes(obj, sym) >= 0).tolist() == full_rank[:16]


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 16), m=st.integers(0, 5), n=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_class_codes_of_a_batch_of_one_match_the_stack(k, m, n, seed):
    # reference: the stacked body (b >= 2); each member alone is read on Python
    # ints.  Random free entries, many degenerate, then a scramble of every
    # representative in the inventory for three parameters
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    free = obj.gram_from_blocks(
        _sparse_sym(rng, q, m, 12, 0.6), _sparse(rng, q, m, 12, t=n), _sparse_sym(rng, q, n, 12), _sparse_sym(rng, q, n, 12, 0.7)
    )
    classes = class_inventory(m, n, Fk, sorted({0, 1, int(rng.integers(q))}))
    reps = np.stack([canonical_rep(c, Fk).gram for c in classes])
    grams = np.concatenate([free, la.congruence(Fk, random_equivariant_matrices(obj, rng, len(reps)), reps)])
    stacked = class_codes(obj, grams).tolist()
    assert [class_codes(obj, G[None]).tolist() for G in grams] == [[c] for c in stacked]
    assert stacked[12:] == [c.code(q) for c in classes]
    # a one-sided entry that the compatibility law leaves free
    v, w = obj.vs, obj.ws
    cell = (v[0], w[0]) if m and n else (v[0], v[1]) if m > 1 else (w[0], w[1]) if n > 1 else None
    if cell:
        asymmetric = grams[0].copy()
        asymmetric[cell] ^= 1
        for stack in (asymmetric[None], np.stack([grams[1], asymmetric])):
            with pytest.raises(ValueError, match="classification requires a symmetric form"):
                class_codes(obj, stack)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 16), m=st.integers(0, 2), n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_form_invariant_is_one_solve_with_the_square_root(k, m, n, seed):
    # reference: sum_i f_i (G_wx^-1)_ii with f = diag(G_ww), from a full inverse
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    sym = lambda density: np.concatenate(
        [_sparse_sym(rng, q, n, 8, density), _sparse_sym(rng, q, n, 8)]
    )
    grams = obj.gram_from_blocks(
        _sparse_sym(rng, q, m, 16, 1.0), rng.integers(0, q, size=(16, m, n)), sym(1.0), sym(0.9)
    )
    blocks = obj.gram_blocks(grams)
    _, invariant = block_invariants(Fk, blocks)
    for ww, wx, got in zip(blocks[2], blocks[3], invariant.tolist()):
        if is_invertible(Fk, wx):
            f, N = np.diagonal(ww), inverse(Fk, wx)
            assert got == int(np.bitwise_xor.reduce(Fk.mul_arr(f, np.diagonal(N))))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_class_codes_round_trip_and_rise_along_the_inventory(k):
    q = 2**k
    for m, n in itertools.product(range(3), repeat=2):
        inventory = class_inventory(m, n, make_field(k))
        codes = [cls.code(q) for cls in inventory]
        assert codes == sorted(set(codes)) and all(0 <= c < len(FAMILIES) * q for c in codes)
        assert [CanonicalClass.from_code(c, m, n, q) for c in codes] == inventory


def test_classify_batch_builds_one_object_per_distinct_class():
    rng = np.random.default_rng(5)
    obj = VerObject(F4, 2, 2)
    classes = class_inventory(2, 2, F4)
    reps = np.stack([canonical_rep(c, F4).gram for c in classes])
    pick = rng.integers(0, len(classes), size=60)
    mats = np.stack([random_equivariant_matrix(obj, rng) for _ in pick])
    grams = la.congruence(F4, mats, reps[pick])
    out = classify_batch(obj, grams)
    assert out == [classes[i] for i in pick]
    assert len({id(c) for c in out}) == len(set(out)) == len(set(pick.tolist()))
    # the stacked good pairs, as the classifier reads them, against good_pairs
    shape, slope = _good_pair_shapes(F4, obj.gram_blocks(grams))
    spaces = [good_pairs(canonical_rep(classes[i], F4)) for i in pick]
    assert [GoodPairSpace.SHAPES[s] for s in shape] == [space.shape for space in spaces]
    assert [w for s, w in zip(shape, slope) if s == 2] == [space.witness for space in spaces if space.shape == "slope"]


@st.composite
def _classes(draw):
    # drawn from the shape's classes: rejecting the (family, shape) draws
    # that name no class, about two in three, trips hypothesis'
    # filter_too_much health check now and then
    Fk = make_field(draw(st.integers(1, 16)))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    param = draw(st.integers(0, Fk.order - 1))
    return Fk, draw(st.sampled_from(class_inventory(m, n, Fk, [param])))


@settings(max_examples=25, deadline=None)
@given(case=_classes(), seed=st.integers(0, 2**32 - 1))
def test_classify_batch_of_scrambles(case, seed):
    Fk, cls = case
    rng = np.random.default_rng(seed)
    rep = canonical_rep(cls, Fk)
    obj = rep.obj
    mats = np.stack([random_equivariant_matrix(obj, rng) for _ in range(6)])
    grams = la.congruence(Fk, mats, rep.gram)
    assert classify_batch(obj, grams) == [cls] * 6
    assert classify_batch(obj, grams[:0]) == []
    # one bad member makes the whole batch raise: a singular G_vv or G_wx
    for singular in (0, 3):
        blocks = [blk.copy() for blk in obj.gram_blocks(grams)]
        if blocks[singular].shape[-1]:
            blocks[singular][2, 0, :] = blocks[singular][2, :, 0] = 0
            with pytest.raises(ValueError, match="non-degenerate"):
                classify_batch(obj, obj.gram_from_blocks(*blocks))
    # off-slot entries that the compatibility law leaves free, set one-sided
    v, w = obj.vs, obj.ws
    free = [(v[0], w[0])] if len(v) and len(w) else []
    free += [(v[0], v[1])] if len(v) >= 2 else []
    free += [(w[0], w[1])] if len(w) >= 2 else []
    if free:
        asymmetric = grams.copy()
        asymmetric[4][free[0]] ^= 1
        with pytest.raises(ValueError, match="symmetric"):
            classify_batch(obj, asymmetric)


def _symmetric_invertible(Fk, rng, s, alternating):
    """A random symmetric invertible s x s block: zero diagonal if
    `alternating`, else a nonzero first diagonal entry."""
    while True:
        upper = np.triu(rng.integers(0, Fk.order, size=(s, s)), 1)
        B = upper ^ upper.T
        if not alternating:
            B[np.diag_indices(s)] = rng.integers(0, Fk.order, size=s)
            B[0, 0] = rng.integers(1, Fk.order)
        if is_invertible(Fk, B):
            return B


def _family_gram(Fk, obj, family, rng):
    """A random non-degenerate compatible Gram drawn from its free blocks
    and steered into `family`: G_vv alternating or not (A/B against C-F),
    G_wx alternating or not (A/C/D against B/E/F), and for C/D/E the
    x-function diag(G_ww): zero (C), nonzero (D), c * diag(G_wx) (E)."""
    m, n, q = obj.m, obj.n, Fk.order
    vv = _symmetric_invertible(Fk, rng, m, family not in "AB")
    wx = _symmetric_invertible(Fk, rng, n, family in "ACD")
    upper = np.triu(rng.integers(0, q, size=(n, n)), 1)
    ww = upper ^ upper.T
    ww[np.diag_indices(n)] = rng.integers(0, q, size=n)
    if family == "C":
        ww[np.diag_indices(n)] = 0
    elif family == "D":
        ww[0, 0] = rng.integers(1, q)
    elif family == "E":
        ww[np.diag_indices(n)] = Fk.mul_arr(rng.integers(0, q), wx.diagonal())
    return obj.gram_from_blocks(vv, rng.integers(0, q, size=(m, n)), ww, wx)


def _families_for(m, n):
    alt_v, alt_x = m % 2 == 0, n % 2 == 0
    fams = [("A", m > 0 and alt_x), ("B", m > 0 and n > 0), ("C", alt_v and alt_x),
            ("D", alt_v and alt_x and n >= 2), ("E", alt_v and n > 0), ("F", alt_v and n >= 2)]
    return [f for f, ok in fams if ok]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 16), m=st.integers(0, 10), n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_canonicalize_random_block_grams(k, m, n, seed):
    # one Gram per family the shape allows (all six when m, n >= 2 are
    # even), drawn from random blocks rather than scrambled representatives
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj = VerObject(Fk, m, n)
    T_std = obj.t_action()
    families = _families_for(m, n)
    grams = np.stack([_family_gram(Fk, obj, fam, rng) for fam in families])
    results = [canonicalize(BilinearForm(obj, G)) for G in grams]
    for fam, G, (transform, canon, cls) in zip(families, grams, results):
        assert cls == classify(BilinearForm(obj, G))
        assert cls.family == fam or (fam, cls.family) == ("F", "E")
        assert np.array_equal(canon.gram, canonical_rep(cls, Fk).gram)
        assert np.array_equal(la.congruence(Fk, transform.matrix, G), canon.gram)
        M = transform.matrix
        assert np.array_equal(la.mat_mul(Fk, M, T_std), la.mat_mul(Fk, T_std, M))
        assert is_invertible(Fk, M)
    batch = canonicalize_batch(obj, grams)
    assert len(batch) == len(results)
    for (t1, c1, k1), (t2, c2, k2) in zip(batch, results):
        assert k1 == k2
        assert np.array_equal(t1.matrix, t2.matrix)
        assert np.array_equal(c1.gram, c2.gram)


def _units_beside_alternating(Fk, rng, n, units):
    """A symmetric invertible n x n block: `units` nonzero diagonal entries
    beside an alternating block on the other n - units (even) indices, rows
    and columns permuted alike, so elimination meets hyperbolic pairs after
    unit pivots and mixes them."""
    M = la.zeros(n, n)
    M[range(units), range(units)] = rng.integers(1, Fk.order, size=units)
    M[units:, units:] = _symmetric_invertible(Fk, rng, n - units, True)
    p = rng.permutation(n)
    return M[p][:, p]


def _reference_congruence_basis(F, M):
    """`_congruence_basis` on numpy arrays: the same pivots, scales and
    mixing, each step one array product, with 1/sqrt read through
    `Field.inv` and `Field.sqrt` instead of log arithmetic."""
    n = len(M)
    units: list[int] = []
    pairs: list[int] = []
    M, E = M.copy(), la.eye(n)
    active = np.ones(n, dtype=bool)
    while active.any():
        diag = np.flatnonzero(active & (np.diagonal(M) != 0))
        if diag.size:
            k = int(diag[0])
            piv, scale = [k], [F.inv(F.sqrt(int(M[k, k])))]
        else:
            k = int(np.flatnonzero(active)[0])
            j = int(np.flatnonzero(active & (M[k] != 0))[0])
            piv, scale = [k, j], [1, F.inv(int(M[k, j]))]
        active[piv] = False
        scale = np.array(scale, dtype=np.int64)
        E[:, piv] = F.mul_arr(E[:, piv], scale)
        # the scaled pivot rows on the active columns; the pivot block is
        # [1] or [[0, 1], [1, 0]], its own inverse, so the coefficients of
        # the pivot columns are these rows in reverse order
        rows = F.mul_arr(M[piv], scale[:, None]) * active
        E ^= la.mat_mul(F, E[:, piv], rows[::-1])
        M ^= la.mat_mul(F, rows.T, rows[::-1])
        if len(piv) == 1:
            units += piv
        elif units:
            g = units.pop()
            mixed = [g] + piv
            E[:, mixed] = la.mat_mul(F, E[:, mixed], [[1, 1, 1], [1, 0, 1], [0, 1, 1]])
            units += mixed
        else:
            pairs += piv
    return E[:, units or pairs], not units


@st.composite
def _congruence_blocks(draw):
    # (n, units): units is None for a dense non-alternating block
    n = draw(st.integers(0, 24))
    units = draw(st.none() | st.integers(0, n)) if n else 0
    return n, None if units is None else units + (n - units) % 2


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 16), block=_congruence_blocks(), seed=st.integers(0, 2**32 - 1))
def test_congruence_basis_matches_the_numpy_reference(k, block, seed):
    (n, units), Fk, rng = block, make_field(k), np.random.default_rng(seed)
    if units is None:
        M = _symmetric_invertible(Fk, rng, n, False)
    else:
        M = _units_beside_alternating(Fk, rng, n, units)
    E, alternating = _congruence_basis(Fk, M)
    want_E, want_alternating = _reference_congruence_basis(Fk, M)
    assert E.dtype == want_E.dtype and E.shape == want_E.shape == (n, n)
    assert E.tobytes() == want_E.tobytes() and alternating == want_alternating == (units == 0)
    assert np.array_equal(la.congruence(Fk, E, M), la.eye(n)[np.arange(n) ^ alternating])


# sha256 prefix of the serial `canonicalize` transforms (bytes and shape) of
# one seeded scramble of every GF(8) class on m, n <= 4 and of GF(2^16)
# classes on shapes with n = 10, 12 and 14 (232 forms), pinned from the
# output of the numpy-array elimination (`_reference_congruence_basis`),
# which the list elimination reproduces at every n
_CANONICALIZE_T_SHA256 = "20bda7f5cf3c6636"


def test_canonicalize_transform_is_unchanged():
    h, count, rng = hashlib.sha256(), 0, np.random.default_rng(28)
    F16 = make_field(16)
    shapes = [(F8, m, n, None) for m, n in itertools.product(range(5), repeat=2)]
    shapes += [(F16, m, n, [0, 1, 0xBEEF, 0xFFFF]) for m, n in ((0, 10), (2, 12), (1, 14))]
    for Fk, m, n, params in shapes:
        for cls in class_inventory(m, n, Fk, params):
            rep = canonical_rep(cls, Fk)
            G = la.congruence(Fk, random_equivariant_matrix(rep.obj, rng), rep.gram)
            T = canonicalize(BilinearForm(rep.obj, G))[0].matrix
            h.update(T.tobytes() + str(T.shape).encode())
            count += 1
    assert (count, h.hexdigest()[:16]) == (232, _CANONICALIZE_T_SHA256)


def test_canonicalize_batch_rejects_like_classify_batch():
    rep = canonical_rep(CanonicalClass("F", 2, 3, 5), F8)
    obj, G = rep.obj, rep.gram
    assert canonicalize_batch(obj, G[None][:0]) == []
    bad_rows = G.copy()
    bad_rows[2:4] = 0
    bad_rows[:, 2:4] = 0
    for stack, message in [
        (np.stack([G, bad_rows]), "non-degenerate"),
        (G, "stack of matrices"),
        (np.stack([G, G[:, ::-1]]), "compatibility"),
    ]:
        with pytest.raises(ValueError, match=message):
            canonicalize_batch(obj, stack)
        with pytest.raises(ValueError, match=message):
            classify_batch(obj, stack)


def test_canonicalize_batch_checks_equivariance_once(monkeypatch):
    # the stacked certificate is the one equivariance check: the results are
    # built on the certified transforms, not re-validated one by one
    rng = np.random.default_rng(13)
    rep = canonical_rep(CanonicalClass("F", 2, 3, 5), F8)
    grams = la.congruence(F8, random_equivariant_matrices(rep.obj, rng, 4), rep.gram)
    calls = []
    counted = lambda *args: calls.append(args) or commutes(*args)
    for module in ("ver4forms.classify", "ver4forms.verobj"):
        monkeypatch.setattr(sys.modules[module], "commutes", counted)
    results = canonicalize_batch(rep.obj, grams)
    assert len(calls) == 1
    for G, (transform, canon, cls) in zip(grams, results):
        assert cls == CanonicalClass("F", 2, 3, 5)
        assert (transform.source, transform.target) == (rep.obj, rep.obj)
        assert np.array_equal(la.congruence(F8, transform.matrix, G), canon.gram)


def _tamper_reduce(monkeypatch, tamper):
    """Route every constructive reduction's (T, class) through `tamper`."""
    module = sys.modules["ver4forms.classify"]
    reduce = module._reduce
    monkeypatch.setattr(module, "_reduce", lambda obj, g: tamper(*reduce(obj, g)))


def _flip_x_to_w(T, cls):
    T = T.copy()
    T[cls.m, cls.m + 1] ^= 1  # row w_1, column x_1: zero in every equivariant T
    return T, cls


def _zero_transform(T, cls):
    # T^T G T = 0 misses every canonical Gram, so the congruence certificate
    # also certifies that T is invertible
    return np.zeros_like(T), cls


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda T, cls: (T, CanonicalClass("A", cls.m, cls.n)), "constructive path found A"),
        (_flip_x_to_w, "does not commute with the t-actions"),
        (_zero_transform, "does not reach the canonical Gram"),
        (lambda T, cls: (F8.mul_arr(T, 2), cls), "does not reach the canonical Gram"),
    ],
)
def test_canonicalize_certificates_catch_a_bad_reduction(monkeypatch, tamper, message):
    rng = np.random.default_rng(11)
    rep = canonical_rep(CanonicalClass("B", 2, 2), F8)
    G = la.congruence(F8, random_equivariant_matrix(rep.obj, rng), rep.gram)
    _tamper_reduce(monkeypatch, tamper)
    with pytest.raises(InternalCheckError, match=message):
        canonicalize(BilinearForm(rep.obj, G))
