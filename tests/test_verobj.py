import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ver4forms
from ver4forms import divided, linalg as la, verobj
from ver4forms.classify import InternalCheckError as ClassifyInternalCheckError
from ver4forms.field import make_field
from ver4forms.oracle import free_entry_count
from ver4forms.verobj import (
    TENSOR_MAX_DIM,
    InternalCheckError,
    Morphism,
    RawTModule,
    VerObject,
    braiding,
    check_r_matrix_axioms,
    commutes,
    dual,
    hexagons_hold,
    random_equivariant_automorphism,
    random_equivariant_matrices,
    random_equivariant_matrix,
    standard_basis,
    tensor,
    tensor_raw,
    unit_object,
)
from reference import inverse, is_invertible

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


@pytest.mark.parametrize("m, n", [(1.5, 0), (0, 2.0), (True, 0), ("1", 0), (np.int64(1), 0), (-1, 0)])
def test_object_sizes_must_be_non_negative_ints(m, n):
    with pytest.raises(ValueError, match="multiplicities must be non-negative integers"):
        VerObject(F, m, n)


def test_raw_module_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        RawTModule(F, np.array([[1, 0], [0, 0]]))


def test_decompose_zero_action():
    obj, B = standard_basis(RawTModule(F, la.zeros(3, 3)))
    assert (obj.m, obj.n) == (3, 0)
    assert is_invertible(F, B)


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
    assert is_invertible(F, Morphism(obj, raw, B).matrix)


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
            Minv = inverse(F, phi.matrix)
            assert np.array_equal(la.mat_mul(F, la.mat_mul(F, phi.matrix, T), Minv), T)


def test_stacked_scrambles_are_invertible_and_equivariant():
    # over GF(2) and GF(4) many GL blocks are singular, so redraws happen
    for k, (m, n) in [(1, (3, 3)), (2, (2, 4)), (2, (0, 0)), (16, (1, 2))]:
        Fk = make_field(k)
        obj = VerObject(Fk, m, n)
        mats = random_equivariant_matrices(obj, np.random.default_rng(k), 200)
        assert mats.shape == (200, obj.dim, obj.dim)
        assert all(is_invertible(Fk, M) for M in mats)
        assert np.array_equal(obj.t_times(mats), obj.times_t(mats))


def test_serial_scramble_stream_is_unchanged():
    # the stack of one draws the stream that one GL draw at a time drew, so
    # seeded pools of serial scrambles keep their members
    h = hashlib.sha256()
    for k in (2, 3, 16):
        Fk, rng = make_field(k), np.random.default_rng(k)
        for _ in range(500):
            m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            M = random_equivariant_matrix(VerObject(Fk, m, n), rng)
            h.update(M.tobytes() + str(M.shape).encode())
    assert h.hexdigest() == "4f69a07dbee5dd5848a447191001116dee2ec53a26cb0f12ead6a912415d3dc8"


def test_tensor_sizes_and_rank():
    for m, n, p, q in itertools.product(range(3), repeat=4):
        U, R = VerObject(F, m, n), VerObject(F, p, q)
        obj, _, _ = tensor(U, R)
        assert obj.m == m * p
        assert obj.n == 2 * n * q + m * q + n * p
        assert la.rank(F, tensor_raw(U, R).t_action()) == obj.n


def test_tensor_refuses_products_over_the_cap():
    # 24 x 26 = 624 > 576: refused before the 624^2 t-action is built
    small, big = VerObject(F, 0, 12), VerObject(F, 0, 13)
    for build in (tensor_raw, tensor, braiding):
        with pytest.raises(ValueError, match="dim 24 x 26 is over the cap 576"):
            build(small, big)
    with pytest.raises(ValueError, match="over the cap"):
        dual(VerObject(F, 1, 12))  # 25 x 25
    with pytest.raises(ValueError, match="over the cap"):
        hexagons_hold(VerObject(F, 0, 1), VerObject(F, 1, 8), VerObject(F, 1, 8))  # 2 x 17 x 17


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
    assert is_invertible(F, B)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 16), shape=st.tuples(*[st.integers(0, 5)] * 4).filter(
    lambda s: (s[0] + 2 * s[1]) * (s[2] + 2 * s[3]) <= TENSOR_MAX_DIM
))
def test_tensor_basis_is_equivariant_invertible_and_fixes_unit_tensors(k, shape):
    # the facts witt and divided rely on: B maps obj -> U (x) R, is invertible and
    # frozen, and the v's of obj are the v_i (x) v_j of the Kronecker basis, i outer
    Fk = make_field(k)
    m, n, p, q = shape
    U, R = VerObject(Fk, m, n), VerObject(Fk, p, q)
    obj, B, support = tensor(U, R)
    assert is_invertible(Fk, Morphism(obj, tensor_raw(U, R), B).matrix)
    with pytest.raises(ValueError, match="read-only"):
        B[...] = 0
    units = la.zeros(U.dim * R.dim, obj.m)
    units[np.add.outer(U.vs * R.dim, R.vs).reshape(-1), np.arange(obj.m)] = 1
    assert np.array_equal(B[:, obj.vs], units)
    flat = lambda rows, levels: [rows, *(a for level in levels for a in level)]
    arrays = flat(*support)
    assert [(a.dtype, a.tobytes()) for a in arrays] == [(a.dtype, a.tobytes()) for a in flat(*la.column_support(B))]
    for frozen in arrays:
        with pytest.raises(ValueError, match="read-only"):
            frozen[...] = 0


def _assert_tensor_is_the_standard_basis(U, R):
    # the closed form reproduces standard_basis's greedy choice byte for byte
    obj, B, _ = tensor(U, R)
    ref_obj, ref_B = standard_basis(tensor_raw(U, R))
    assert obj == ref_obj
    assert (B.shape, B.dtype, B.tobytes()) == (ref_B.shape, ref_B.dtype, ref_B.tobytes())


def test_tensor_is_the_standard_basis_of_every_small_product():
    for m, n, p, q in itertools.product(range(4), repeat=4):
        _assert_tensor_is_the_standard_basis(VerObject(F, m, n), VerObject(F, p, q))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 16), shape=st.tuples(*[st.integers(0, 12)] * 4).filter(
    lambda s: (s[0] + 2 * s[1]) * (s[2] + 2 * s[3]) <= TENSOR_MAX_DIM
))
def test_tensor_is_the_standard_basis_over_any_field_up_to_the_cap(k, shape):
    Fk = make_field(k)
    m, n, p, q = shape
    _assert_tensor_is_the_standard_basis(VerObject(Fk, m, n), VerObject(Fk, p, q))


def test_tensor_certificate_rejects_a_corrupted_basis(monkeypatch):
    assert InternalCheckError is ClassifyInternalCheckError is ver4forms.InternalCheckError
    U, R = VerObject(F, 1, 1), VerObject(F, 1, 2)
    obj, B, _ = tensor(U, R)
    assert commutes(obj, tensor_raw(U, R), B)
    for v, w in [(obj.vs[0], obj.ws[0]), (obj.ws[0], obj.xs[0]), (obj.ws[-1], obj.ws[0])]:
        bad = B.copy()
        bad[:, [v, w]] = bad[:, [w, v]]
        assert not commutes(obj, tensor_raw(U, R), bad)
    # the certificate is `commutes` itself: a failing rule fails a fresh build
    monkeypatch.setattr(verobj, "commutes", lambda *args: False)
    with pytest.raises(InternalCheckError, match="tensor basis does not commute"):
        tensor.__wrapped__(U, R)


def _reference_braiding(a, b):
    # c(u (x) r) = r (x) u + (t.r) (x) (t.u) written out for R = 1 (x) 1 + t (x) t:
    # the rows of I + T_a (x) T_b moved by the index swap u (x) r -> r (x) u
    da, db = a.dim, b.dim
    base = la.eye(da * db) ^ np.kron(a.t_action(), b.t_action())
    idx = np.arange(da * db)
    C = np.zeros((da * db, da * db), dtype=np.int64)
    C[(idx % db) * da + idx // db] = base
    return C


# a factor is a standard object (dim up to 24), or with two entries the raw
# tensor product of two small ones (dim up to 49)
_braid_factor = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(0, 6)).map(lambda s: [s]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=2, max_size=2),
)


def _factor(Fk, parts):
    objs = [VerObject(Fk, m, n) for m, n in parts]
    return objs[0] if len(objs) == 1 else tensor_raw(*objs)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 16), left=_braid_factor, right=_braid_factor)
@example(k=2, left=[(0, 0)], right=[(3, 1)])
@example(k=3, left=[(2, 1)], right=[(0, 0), (1, 1)])
@example(k=16, left=[(4, 10)], right=[(4, 10)])
@example(k=16, left=[(0, 12)], right=[(24, 0)])
@example(k=5, left=[(1, 1), (0, 1)], right=[(0, 1), (2, 0)])
def test_braiding_is_the_reference_formula_byte_for_byte(k, left, right):
    assume(np.prod([m + 2 * n for m, n in left + right]) <= TENSOR_MAX_DIM)
    Fk = make_field(k)
    a, b = _factor(Fk, left), _factor(Fk, right)
    got, want = braiding(a, b), _reference_braiding(a, b)
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_braiding_certificate_rejects_a_corrupted_matrix(monkeypatch):
    P = VerObject(F, 0, 1)
    raw = RawTModule(F, P.t_action())
    pairs = [
        (P, P), (VerObject(F, 1, 1), tensor_raw(P, P)), (tensor_raw(P, P), VerObject(F, 2, 1)),
        (raw, VerObject(F, 1, 1)), (VerObject(F, 0, 0), P),
    ]
    for a, b in pairs:
        C = braiding(a, b)
        assert commutes(tensor_raw(a, b), tensor_raw(b, a), C)
        if C.shape[1] < 2:
            continue  # dim 0: nothing to corrupt
        bad = C.copy()
        bad[:, [0, 1]] = bad[:, [1, 0]]
        assert not commutes(tensor_raw(a, b), tensor_raw(b, a), bad)
    monkeypatch.setattr(verobj, "commutes", lambda *args: False)
    with pytest.raises(InternalCheckError, match="braiding does not commute"):
        braiding(P, P)


def _reference_tensor_t(f):
    # t.(u (x) r) = t.u (x) r + u (x) t.r written out as the Kronecker matrix,
    # nested tensor factors by the same formula
    if not isinstance(f, verobj.TensorModule):
        return f.t_action()
    Ta, Tb = _reference_tensor_t(f.a), _reference_tensor_t(f.b)
    return np.kron(Ta, la.eye(f.b.dim)) ^ np.kron(la.eye(f.a.dim), Tb)


def _tensor_factor(Fk, kind, m, n, seed):
    U = VerObject(Fk, m, n)
    if kind == "raw":  # a conjugated action, with entries beyond 0 and 1
        P = la.eye(U.dim) ^ np.triu(np.random.default_rng(seed).integers(0, Fk.order, (U.dim, U.dim)), 1)
        return RawTModule(Fk, la.mat_mul(Fk, la.mat_mul(Fk, P, U.t_action()), inverse(Fk, P)))
    return tensor_raw(U, VerObject(Fk, n % 2, 1)) if kind == "tensor" else U


_tensor_factor_spec = st.tuples(
    st.sampled_from(["standard", "raw", "tensor"]), st.integers(0, 12), st.integers(0, 6), st.integers(0, 99)
)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 16), left=_tensor_factor_spec, right=_tensor_factor_spec)
@example(k=16, left=("standard", 4, 10, 0), right=("standard", 4, 10, 0))
@example(k=2, left=("standard", 0, 12, 0), right=("raw", 0, 12, 1))
@example(k=3, left=("tensor", 2, 1, 0), right=("raw", 0, 0, 0))
@example(k=5, left=("raw", 1, 2, 2), right=("tensor", 0, 1, 0))
def test_tensor_raw_acts_factor_by_factor(k, left, right):
    Fk = make_field(k)
    a, b = (_tensor_factor(Fk, *spec) for spec in (left, right))
    assume(a.dim * b.dim <= TENSOR_MAX_DIM)
    ab = tensor_raw(a, b)
    got, want = ab.t_action(), _reference_tensor_t(ab)
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    assert not ab.t_times(got).any()


def test_tensor_action_dual_and_gamma2_run_no_product(monkeypatch):
    # the t-action on a (x) b is slot moves on each factor's axis, `dual` certifies
    # its evaluation by it, and gamma2 applies 1 - c to its basis by gathers
    calls = []
    for mod in (verobj, la, divided):
        monkeypatch.setattr(mod, "mat_mul", lambda *a, _fn=mod.mat_mul, **kw: calls.append(1) or _fn(*a, **kw))
    for F16 in (make_field(2), make_field(16)):
        for m, n in [(0, 12), (4, 10)]:
            U = VerObject(F16, m, n)
            assert tensor_raw(U, U).t_action().shape == (576, 576)
            assert dual(U)[1].matrix.shape == (1, 576)
            assert divided.gamma2.__wrapped__(U).dim == divided.gamma2_dim_formula(m, n)
    assert calls == []


def test_braiding_at_the_cap_builds_no_module_and_runs_no_product(monkeypatch):
    # braiding reads R factor by factor and certifies by slot moves: no Kronecker
    # t-action module, no Morphism wrapper and no dense product
    calls = []
    for mod, name in [(verobj, "mat_mul"), (la, "mat_mul"), (verobj, "RawTModule"), (verobj, "Morphism")]:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    U = VerObject(make_field(2), 4, 10)
    assert braiding(U, U).shape == (576, 576)
    assert calls == []


def test_braiding_formula_on_p():
    P = VerObject(F, 0, 1)
    c = braiding(P, P)
    # c(w (x) w) = w (x) w + x (x) x
    assert c[:, 0].tolist() == [1, 0, 0, 1]
    # c(x (x) x) = x (x) x
    assert c[:, 3].tolist() == [0, 0, 0, 1]
    # c(w (x) x) = x (x) w
    assert c[:, 1].tolist() == [0, 0, 1, 0]


def test_braiding_on_unit_is_identity():
    one = unit_object(F)
    assert np.array_equal(braiding(one, one), la.eye(1))


def test_braiding_squares_to_identity():
    rng = np.random.default_rng(1)
    objs = _objects_with_dim_up_to(F, 8)
    idx = rng.choice(len(objs), size=(12, 2))
    pairs = [(objs[i], objs[j]) for i, j in idx] + [(o, o) for o in _objects_with_dim_up_to(F, 4)]
    # a conjugated t-action has entries beyond 0 and 1, so rho needs field products
    U = VerObject(F, 1, 2)
    P = la.eye(5) ^ np.triu(rng.integers(0, 4, size=(5, 5)), 1)  # unipotent, so invertible
    T = la.mat_mul(F, la.mat_mul(F, P, U.t_action()), inverse(F, P))
    assert T.max() > 1
    pairs += [(RawTModule(F, T), U), (RawTModule(F, T), RawTModule(F, T))]
    for a, b in pairs:
        cab = braiding(a, b)
        cba = braiding(b, a)
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


R_MATRIX_KEYS = [
    "r_squared_identity", "r21_is_inverse", "coproduct_first_leg", "coproduct_second_leg",
    "r_conjugates_coproduct", "hexagon_first_ppp", "hexagon_second_ppp",
]


def test_r_matrix_axioms_all_pass():
    for k in range(1, 17):
        report = check_r_matrix_axioms(make_field(k))
        assert list(report) == R_MATRIX_KEYS
        assert all(ok is True for ok in report.values()), (k, report)


_ONE, _T = la.eye(2), np.array([[0, 0], [1, 0]])


_NOT_R = {"r21_is_inverse", "coproduct_first_leg", "coproduct_second_leg", "hexagon_first_ppp", "hexagon_second_ppp"}


@pytest.mark.parametrize("terms, failing", [
    # 1 (x) 1 + t (x) 1 and 1 (x) 1 + 1 (x) t: squares to 1, but is no R-matrix;
    # the braiding reads R, so its hexagons fail with it
    (((_ONE, _ONE), (_T, _ONE)), _NOT_R),
    (((_ONE, _ONE), (_ONE, _T)), _NOT_R),
    # t (x) t alone: R21 = R, but R21 R = 0
    (((_T, _T),), _NOT_R | {"r_squared_identity"}),
    # 1 (x) 1 alone, the untwisted swap: a genuine triangular structure
    (((_ONE, _ONE),), set()),
], ids=["t-left", "t-right", "t-t-only", "plain-swap"])
def test_r_matrix_check_catches_a_wrong_r(monkeypatch, terms, failing):
    monkeypatch.setattr(verobj, "_R_TERMS", terms)
    report = check_r_matrix_axioms(make_field(3))
    assert {key for key, ok in report.items() if not ok} == failing


def test_morphism_validation():
    U = VerObject(F, 0, 1)
    with pytest.raises(ValueError):
        Morphism(U, U, np.array([[0, 1], [1, 0]]))  # swaps w and x: not equivariant
    Morphism(U, U, np.array([[1, 0], [1, 1]]))  # w -> w + x is fine


def test_json_object_roundtrips():
    obj = VerObject(F, 2, 1)
    assert VerObject.from_json(F, obj.to_json()) == obj
    with pytest.raises(ValueError):
        VerObject.from_json(F, {"m": 1})


def test_morphism_inverse():
    rng = np.random.default_rng(4)
    U = VerObject(F, 2, 1)
    a = random_equivariant_automorphism(U, rng)
    ainv = Morphism(U, U, inverse(F, a.matrix))  # the inverse is again equivariant
    assert np.array_equal(la.mat_mul(F, a.matrix, ainv.matrix), la.eye(U.dim))


# -- the slot layout and its block helpers ------------------------------------

_layout = given(
    k=st.integers(1, 16), m=st.integers(0, 4), n=st.integers(0, 4), seed=st.integers(0, 2**32 - 1)
)


@settings(max_examples=25, deadline=None)
@_layout
def test_decompose_of_conjugated_standard_action(k, m, n, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj = VerObject(Fk, m, n)
    while True:
        M = rng.integers(0, Fk.order, size=(obj.dim, obj.dim))
        if is_invertible(Fk, M):
            break
    raw = RawTModule(Fk, la.mat_mul(Fk, la.mat_mul(Fk, M, obj.t_action()), inverse(Fk, M)))
    got, B = standard_basis(raw)
    assert (got.m, got.n) == (m, n)
    # Morphism checks equivariance on construction
    assert is_invertible(Fk, Morphism(got, raw, B).matrix)


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


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 16), m=st.integers(0, 6), n=st.integers(0, 6), b=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=2, m=0, n=0, b=0, seed=0)
@example(k=16, m=6, n=6, b=5, seed=1)
def test_free_entry_table_scatters_and_gathers_symmetric_compatible_grams(k, m, n, b, seed):
    Fk, rng = make_field(k), np.random.default_rng(seed)
    obj, q = VerObject(Fk, m, n), Fk.order
    _, rows, cols = obj.free_cells()
    assert len(rows) == free_entry_count(m, n) == divided.gamma2(obj).num_lines  # dim <= 18
    values = rng.integers(0, q, size=(b, len(rows)))
    grams = obj.gram_from_free_entries(values)
    assert grams.shape == (b, obj.dim, obj.dim)
    assert np.array_equal(grams, grams.swapaxes(1, 2)) and obj.is_compatible(grams)
    # the independent path: the values at their cells, the blocks mirrored
    placed = np.zeros_like(grams)
    placed[:, rows, cols] = values
    vv, vw, ww, wx = obj.gram_blocks(placed)
    mirror = lambda block: block | block.swapaxes(-1, -2)  # the cells fill upper triangles
    assert np.array_equal(grams, obj.gram_from_blocks(mirror(vv), vw, mirror(ww), mirror(wx)))
    assert np.array_equal(obj.free_entries(grams), values)
    with pytest.raises(ValueError, match=f"^expected {len(rows)} free entries, got shape"):
        obj.gram_from_free_entries(np.zeros((b, len(rows) + 1), dtype=np.int64))
    blocks = (_sym(rng, q, m, b), rng.integers(0, q, size=(b, m, n)), _sym(rng, q, n, b), _sym(rng, q, n, b))
    G = obj.gram_from_blocks(*blocks)
    assert np.array_equal(obj.gram_from_free_entries(obj.free_entries(G)), G)


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
    blocks_invertible = is_invertible(Fk, A) and is_invertible(Fk, E)
    assert is_invertible(Fk, M) == blocks_invertible


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
    k=st.integers(1, 16),
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
