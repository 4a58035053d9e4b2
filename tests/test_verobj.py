import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms import linalg as la
from ver4forms.field import make_field
from ver4forms.verobj import (
    Morphism,
    RawTModule,
    VerObject,
    braiding,
    check_r_matrix_axioms,
    dual,
    hexagons_hold,
    random_equivariant_automorphism,
    standard_basis,
    tensor,
    tensor_raw,
    unit_object,
)

F = make_field(2)


def _objects_with_dim_up_to(F, d):
    out = []
    for n in range(d // 2 + 1):
        for m in range(d - 2 * n + 1):
            if m + 2 * n >= 1:
                out.append(VerObject(F, m, n))
    return out


def test_standard_t_action():
    obj = VerObject(F, 2, 2)
    T = obj.t_action()
    assert not la.mat_mul(F, T, T).any()
    assert la.rank(F, T) == 2
    # t.w_k = x_k and everything else dies
    for k in range(2):
        e = np.zeros(6, dtype=np.int64)
        e[obj.ws[k]] = 1
        img = la.mat_vec(F, T, e)
        assert img[obj.xs[k]] == 1 and np.count_nonzero(img) == 1


def test_raw_module_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        RawTModule(F, np.array([[1, 0], [0, 0]]))


def test_decompose_zero_action():
    obj, B = standard_basis(RawTModule(F, la.zeros(3, 3)))
    assert (obj.m, obj.n) == (3, 0)
    assert la.is_invertible(F, B)


def test_decompose_jordan_block():
    T = np.array([[0, 1], [0, 0]], dtype=np.int64)
    obj, B = standard_basis(RawTModule(F, T))
    assert (obj.m, obj.n) == (0, 1)


def test_decompose_rank_one_dim_four():
    T = la.zeros(4, 4)
    T[0, 2] = 1
    raw = RawTModule(F, T)
    obj, B = standard_basis(raw)
    assert (obj.m, obj.n) == (2, 1)
    # the basis really is equivariant (Morphism checks on construction) and invertible
    assert Morphism(obj, raw, B).is_invertible()


def test_equivariant_automorphisms_commute_with_t():
    # conjugating T by an equivariant automorphism gives T back; the standard
    # basis of a genuinely conjugated action is
    # test_decompose_of_conjugated_standard_action
    rng = np.random.default_rng(3)
    for m, n in [(1, 1), (2, 2), (0, 3)]:
        obj = VerObject(F, m, n)
        T = obj.t_action()
        for _ in range(10):
            phi = random_equivariant_automorphism(obj, rng)
            Minv = la.inverse(F, phi.matrix)
            assert np.array_equal(la.mat_mul(F, la.mat_mul(F, phi.matrix, T), Minv), T)


def test_tensor_sizes_and_rank():
    for m, n, p, q in itertools.product(range(3), repeat=4):
        U, R = VerObject(F, m, n), VerObject(F, p, q)
        obj, _, _ = tensor(U, R)
        assert obj.m == m * p
        assert obj.n == 2 * n * q + m * q + n * p
        assert la.rank(F, tensor_raw(U, R).t_action()) == obj.n


def test_tensor_p_p_summand_bases():
    P = VerObject(F, 0, 1)
    obj, B, _ = tensor(P, P)
    assert (obj.m, obj.n) == (0, 2)
    # standard basis in Kronecker coordinates (w(x)w, w(x)x, x(x)w, x(x)x)
    w1, x1 = B[:, obj.ws[0]], B[:, obj.xs[0]]
    w2, x2 = B[:, obj.ws[1]], B[:, obj.xs[1]]
    assert w1.tolist() == [0, 1, 0, 0]  # w (x) x
    assert x1.tolist() == [0, 0, 0, 1]  # x (x) x
    assert w2.tolist() == [1, 0, 0, 0]  # w (x) w
    assert x2.tolist() == [0, 1, 1, 0]  # x (x) w + w (x) x


def test_tensor_with_unit_is_identity_shaped():
    one = unit_object(F)
    U = VerObject(F, 1, 1)
    obj, B, _ = tensor(one, U)
    assert (obj.m, obj.n) == (U.m, U.n)
    assert la.is_invertible(F, B)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 16), shape=st.tuples(*[st.integers(0, 5)] * 4).filter(
    lambda s: (s[0] + 2 * s[1]) * (s[2] + 2 * s[3]) <= 160
))
def test_tensor_basis_is_equivariant_invertible_and_fixes_unit_tensors(k, shape):
    # the facts witt and divided rely on: B maps obj -> U (x) R, is invertible and
    # frozen, and the v's of obj are the v_i (x) v_j of the Kronecker basis, i outer
    Fk = make_field(k)
    m, n, p, q = shape
    U, R = VerObject(Fk, m, n), VerObject(Fk, p, q)
    obj, B, support = tensor(U, R)
    assert Morphism(obj, tensor_raw(U, R), B).is_invertible()
    with pytest.raises(ValueError, match="read-only"):
        B[...] = 0
    units = la.zeros(U.dim * R.dim, obj.m)
    units[np.add.outer(U.vs * R.dim, R.vs).reshape(-1), np.arange(obj.m)] = 1
    assert np.array_equal(B[:, obj.vs], units)
    for got, want in zip(support, la.column_support(B)):
        assert np.array_equal(got, want)


def test_braiding_formula_on_p():
    P = VerObject(F, 0, 1)
    c = braiding(P, P).matrix
    # c(w (x) w) = w (x) w + x (x) x
    assert c[:, 0].tolist() == [1, 0, 0, 1]
    # c(x (x) x) = x (x) x
    assert c[:, 3].tolist() == [0, 0, 0, 1]
    # c(w (x) x) = x (x) w
    assert c[:, 1].tolist() == [0, 0, 1, 0]


def test_braiding_on_unit_is_identity():
    one = unit_object(F)
    assert np.array_equal(braiding(one, one).matrix, la.eye(1))


def test_braiding_squares_to_identity():
    rng = np.random.default_rng(1)
    objs = _objects_with_dim_up_to(F, 8)
    idx = rng.choice(len(objs), size=(12, 2))
    pairs = [(objs[i], objs[j]) for i, j in idx] + [(o, o) for o in _objects_with_dim_up_to(F, 4)]
    for a, b in pairs:
        cab = braiding(a, b).matrix
        cba = braiding(b, a).matrix
        assert np.array_equal(la.mat_mul(F, cba, cab), la.eye(a.dim * b.dim))


def test_hexagons_small():
    objs = [VerObject(F, 1, 0), VerObject(F, 0, 1)]
    for x in objs:
        for y in objs:
            for z in objs:
                assert hexagons_hold(x, y, z) == (True, True)


def test_dual_shape_and_pairing():
    U = VerObject(F, 1, 2)
    dobj, ev = dual(U)
    assert (dobj.m, dobj.n) == (1, 2)
    P = ev.matrix.reshape(U.dim, U.dim)
    # identity on the unit slot, antidiagonal blocks on the pairs
    assert P[0, 0] == 1
    for k in range(2):
        assert P[dobj.ws[k], U.xs[k]] == 1
        assert P[dobj.xs[k], U.ws[k]] == 1
    assert np.count_nonzero(P) == 5


def test_dual_of_p_pairing_is_antidiagonal():
    P = VerObject(F, 0, 1)
    dobj, ev = dual(P)
    assert (dobj.m, dobj.n) == (0, 1)
    assert ev.matrix.reshape(2, 2).tolist() == [[0, 1], [1, 0]]


def test_dual_of_unit():
    one = unit_object(F)
    dobj, ev = dual(one)
    assert dobj == one
    assert ev.matrix.tolist() == [[1]]


def test_r_matrix_axioms_all_pass():
    for k in (1, 2, 3):
        report = check_r_matrix_axioms(make_field(k))
        assert all(report.values()), report


def test_morphism_validation():
    U = VerObject(F, 0, 1)
    with pytest.raises(ValueError):
        Morphism(U, U, np.array([[0, 1], [1, 0]]))  # swaps w and x: not equivariant
    Morphism(U, U, np.array([[1, 0], [1, 1]]))  # w -> w + x is fine


def test_json_object_roundtrips():
    obj = VerObject(F, 2, 1)
    assert VerObject.from_json(F, obj.to_json()) == obj
    raw = RawTModule(F, np.array([[0, 1], [0, 0]]))
    back = RawTModule.from_json(F, raw.to_json())
    assert np.array_equal(back.t, raw.t)
    with pytest.raises(ValueError):
        RawTModule.from_json(F, {"dim": 3, "t": [[0, 1], [0, 0]]})
    with pytest.raises(ValueError):
        VerObject.from_json(F, {"m": 1})


def test_morphism_compose_and_inverse():
    rng = np.random.default_rng(4)
    U = VerObject(F, 2, 1)
    a = random_equivariant_automorphism(U, rng)
    b = random_equivariant_automorphism(U, rng)
    ab = a.compose(b)
    assert np.array_equal(ab.matrix, la.mat_mul(F, a.matrix, b.matrix))
    ainv = a.inverse()
    assert np.array_equal(a.compose(ainv).matrix, la.eye(U.dim))


# -- the slot layout and its block helpers ------------------------------------

_layout = given(
    k=st.integers(2, 16), m=st.integers(0, 4), n=st.integers(0, 4), seed=st.integers(0, 2**32 - 1)
)


@settings(max_examples=25, deadline=None)
@_layout
def test_decompose_of_conjugated_standard_action(k, m, n, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj = VerObject(Fk, m, n)
    while True:
        M = rng.integers(0, Fk.order, size=(obj.dim, obj.dim))
        if la.is_invertible(Fk, M):
            break
    raw = RawTModule(Fk, la.mat_mul(Fk, la.mat_mul(Fk, M, obj.t_action()), la.inverse(Fk, M)))
    got, B = standard_basis(raw)
    assert (got.m, got.n) == (m, n)
    # Morphism checks equivariance on construction
    assert Morphism(got, raw, B).is_invertible()


def _sym(rng, q, s, batch=2):
    upper = np.triu(rng.integers(0, q, size=(batch, s, s)))
    return upper ^ np.triu(upper, 1).swapaxes(-1, -2)


@settings(max_examples=25, deadline=None)
@_layout
def test_gram_from_blocks_is_compatible_and_reads_back(k, m, n, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    blocks = (_sym(rng, q, m), rng.integers(0, q, size=(2, m, n)), _sym(rng, q, n), _sym(rng, q, n))
    grams = obj.gram_from_blocks(*blocks)
    assert grams.shape == (2, obj.dim, obj.dim)
    T = obj.t_action()
    for b, G in enumerate(grams):
        assert np.array_equal(la.mat_mul(Fk, T.T, G), la.mat_mul(Fk, G, T))
        assert np.array_equal(G, G.T)
        assert obj.is_compatible(G)
        for got, want in zip(obj.gram_blocks(G), blocks):
            assert np.array_equal(got, want[b])


@settings(max_examples=25, deadline=None)
@_layout
def test_equivariant_matrix_commutes_with_t(k, m, n, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    A, E = rng.integers(0, q, size=(m, m)), rng.integers(0, q, size=(n, n))
    if rng.integers(2):  # make singular blocks likely on one side
        A[:, :1] = 0
    M = obj.equivariant_matrix(
        A, rng.integers(0, q, size=(n, m)), rng.integers(0, q, size=(m, n)), E,
        rng.integers(0, q, size=(n, n)),
    )
    T = obj.t_action()
    assert np.array_equal(la.mat_mul(Fk, T, M), la.mat_mul(Fk, M, T))
    blocks_invertible = la.is_invertible(Fk, A) and la.is_invertible(Fk, E)
    assert la.is_invertible(Fk, M) == blocks_invertible


def test_compatibility_check_matches_t_action_law():
    rng = np.random.default_rng(11)
    for m, n in ((0, 1), (1, 1), (2, 2), (3, 1)):
        obj = VerObject(F, m, n)
        T = obj.t_action()
        for _ in range(200):
            sparse = rng.random((obj.dim, obj.dim)) < 0.2
            G = rng.integers(0, F.order, size=(obj.dim, obj.dim)) * sparse
            law = np.array_equal(la.mat_mul(F, T.T, G), la.mat_mul(F, G, T))
            assert obj.is_compatible(G) == law


def _equivariant_between(source, target, rng):
    """A random M with T_target M = M T_source: v's into ker T_target, w's
    anywhere, and x_k to T_target of w_k's image."""
    q = source.field.order
    M = rng.integers(0, q, size=(target.dim, source.dim))
    M[target.ws[:, None], source.vs] = 0
    M[:, source.xs] = 0
    M[target.xs[:, None], source.xs] = M[target.ws[:, None], source.ws]
    return M


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 16),
    shapes=st.tuples(*[st.integers(0, 4)] * 4),
    raw=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_morphism_accepts_exactly_the_t_action_law(k, shapes, raw, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    source, target = VerObject(Fk, *shapes[:2]), VerObject(Fk, *shapes[2:])
    Ts, Tt = (la.zeros(o.dim, o.dim) for o in (source, target))
    Ts[source.xs, source.ws] = Tt[target.xs, target.ws] = 1  # t.w_k = x_k, literally
    # each side as a standard object or as a raw module with the same action
    src, tgt = (RawTModule(Fk, T) if r else o for o, r, T in zip((source, target), raw, (Ts, Tt)))
    equivariant = _equivariant_between(source, target, rng)
    flipped = equivariant.copy()
    if flipped.size:
        flipped[rng.integers(target.dim), rng.integers(source.dim)] ^= rng.integers(1, Fk.order)
    sparse = rng.random((target.dim, source.dim)) < 0.3
    for M in (equivariant, flipped, rng.integers(0, Fk.order, size=sparse.shape) * sparse):
        law = np.array_equal(la.mat_mul(Fk, Tt, M), la.mat_mul(Fk, M, Ts))
        if law:
            assert np.array_equal(Morphism(src, tgt, M).matrix, M)
        else:
            with pytest.raises(ValueError, match="does not commute with the t-actions"):
                Morphism(src, tgt, M)
    assert np.array_equal(la.mat_mul(Fk, Tt, equivariant), la.mat_mul(Fk, equivariant, Ts))


def test_as_grams_checks_matrices_and_stacks():
    obj = VerObject(F, 1, 1)
    G = obj.gram_from_blocks([[1]], [[0]], [[0]], [[1]])
    assert np.array_equal(obj.as_grams(G), G)
    assert np.array_equal(obj.as_grams(np.stack([G, G]), stacked=True), np.stack([G, G]))
    bad_entry = G.copy()
    bad_entry[0, 0] = F.order
    incompatible = G.copy()
    incompatible[0, 2] = 1  # beta(v, x) must vanish
    cases = [
        (G, True, "stack of matrices"),
        (G[None], False, "expected a matrix"),
        (G[:2, :2], False, "does not match dim"),
        (bad_entry[None], True, "encodings"),
        (incompatible, False, "compatibility"),
        (np.stack([G, incompatible]), True, "compatibility"),
    ]
    for data, stacked, message in cases:
        with pytest.raises(ValueError, match=message):
            obj.as_grams(data, stacked)
