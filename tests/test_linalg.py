import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms import linalg as la
from ver4forms.classify import CanonicalClass, canonical_rep, canonicalize_batch
from ver4forms.field import make_field
from ver4forms.oracle import orbit_classes
from ver4forms.verobj import random_equivariant_matrices
from ver4forms.witt import emit_tables, tensor_product, tensor_product_via_braiding

F = make_field(3)
RNG = np.random.default_rng(11)


def _rand(r, c):
    return RNG.integers(0, F.order, size=(r, c)).astype(np.int64)


def test_mat_mul_identity_and_assoc():
    A = _rand(5, 5)
    assert np.array_equal(la.mat_mul(F, A, la.eye(5)), A)
    B, C = _rand(5, 4), _rand(4, 3)
    lhs = la.mat_mul(F, la.mat_mul(F, A, B), C)
    rhs = la.mat_mul(F, A, la.mat_mul(F, B, C))
    assert np.array_equal(lhs, rhs)


def test_row_reduce_rank_bounds():
    A = _rand(6, 4)
    R, piv = la.row_reduce(F, A)
    assert len(piv) == la.rank(F, A) <= 4
    # reduced rows have unit pivots and zeros above/below
    for r, c in enumerate(piv):
        assert R[r, c] == 1
        col = R[:, c].copy()
        col[r] = 0
        assert not col.any()


def test_inverse_roundtrip():
    for _ in range(20):
        A = _rand(6, 6)
        if not la.is_invertible(F, A):
            continue
        Ainv = la.inverse(F, A)
        assert np.array_equal(la.mat_mul(F, A, Ainv), la.eye(6))
        assert np.array_equal(la.mat_mul(F, Ainv, A), la.eye(6))


def test_inverse_singular_raises():
    A = la.zeros(3, 3)
    A[0, 0] = 1
    with pytest.raises(ValueError):
        la.inverse(F, A)


def test_null_space_exact():
    for _ in range(20):
        A = _rand(4, 7)
        N = la.null_space(F, A)
        assert N.shape[1] == 7 - la.rank(F, A)
        assert not la.mat_mul(F, A, N).any()
        assert la.rank(F, N) == N.shape[1]


def test_solve_unique():
    for _ in range(10):
        A = _rand(6, 6)
        if not la.is_invertible(F, A):
            continue
        X = _rand(6, 2)
        B = la.mat_mul(F, A, X)
        assert np.array_equal(la.solve(F, A, B), X)
    with pytest.raises(ValueError):
        la.solve(F, la.zeros(3, 2), np.array([1, 0, 0], dtype=np.int64))


def test_kron_mixed_product():
    A, B = _rand(2, 3), _rand(3, 2)
    C, D = _rand(3, 2), _rand(2, 3)
    lhs = la.mat_mul(F, la.kron(F, A, C), la.kron(F, B, D))
    rhs = la.kron(F, la.mat_mul(F, A, B), la.mat_mul(F, C, D))
    assert np.array_equal(lhs, rhs)


def test_congruence_composition():
    G = _rand(5, 5)
    T1, T2 = _rand(5, 5), _rand(5, 5)
    lhs = la.congruence(F, T2, la.congruence(F, T1, G))
    rhs = la.congruence(F, la.mat_mul(F, T1, T2), G)
    assert np.array_equal(lhs, rhs)


def test_stacked_congruence_matches_loop():
    Ts = RNG.integers(0, F.order, size=(7, 4, 4)).astype(np.int64)
    G = _rand(4, 4)
    out = la.congruence(F, Ts, G)
    for i in range(7):
        assert np.array_equal(out[i], la.congruence(F, Ts[i], G))


def _scalar_product(Fk, A, B):
    """A B entry by entry, sum_l F.mul(a_il, b_lj), over broadcast batch axes."""
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A, B = np.broadcast_to(A, batch + A.shape[-2:]), np.broadcast_to(B, batch + B.shape[-2:])
    out = np.zeros(batch + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for *at, i, j in np.ndindex(*out.shape):
        for l in range(A.shape[-1]):
            out[(*at, i, j)] ^= Fk.mul(int(A[(*at, i, l)]), int(B[(*at, l, j)]))
    return out


def _broadcast_product(Fk, A, B):
    """A B as one broadcast multiply and XOR-reduce, whatever the size."""
    return np.bitwise_xor.reduce(Fk.mul_arr(A[..., :, :, None], B[..., None, :, :]), axis=-2)


def _transpose(T):
    return np.swapaxes(T, -1, -2)


# (batch axes of T, batch axes of G) from the sizes b, g, t
CONGRUENCE_LAYOUTS = {
    "one T, one G": lambda b, g, t: ((), ()),
    "T stack, one G": lambda b, g, t: ((b,), ()),
    "T stack, G stack": lambda b, g, t: ((b,), (b,)),
    "one T, G stack": lambda b, g, t: ((), (b,)),
    "every T on every G": lambda b, g, t: ((t,), (g, 1)),
}


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 16),
    layout=st.sampled_from(sorted(CONGRUENCE_LAYOUTS)),
    sizes=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    r=st.integers(0, 4),
    c=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_congruence_and_stacked_products_match_scalar_sums(k, layout, sizes, r, c, seed):
    # small shapes, zero-size dims and empty stacks, against sum_l a_il b_lj
    Fk, rng = make_field(k), np.random.default_rng(seed)
    t_batch, g_batch = CONGRUENCE_LAYOUTS[layout](*sizes)
    T = rng.integers(0, Fk.order, size=t_batch + (r, c))
    G = rng.integers(0, Fk.order, size=g_batch + (r, r))
    want = _scalar_product(Fk, _scalar_product(Fk, _transpose(T), G), T)
    got = la.congruence(Fk, T, G)
    assert got.shape == np.broadcast_shapes(t_batch, g_batch) + (c, c)
    assert np.array_equal(got, want)
    assert np.array_equal(la._product(Fk, G, T), _scalar_product(Fk, G, T))
    if not t_batch and not g_batch:
        assert np.array_equal(la.mat_mul(Fk, G, T), _scalar_product(Fk, G, T))


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(1, 16),
    d=st.integers(16, 20),
    g=st.integers(3, 4),
    t=st.integers(3, 4),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_products_above_the_one_shot_bound_match_the_broadcast(k, d, g, t, density, seed):
    # above ONE_SHOT_ENTRIES the kernel loops over the inner index and skips
    # indices that are zero across the stack; the reference never loops
    Fk, rng = make_field(k), np.random.default_rng(seed)
    T = rng.integers(0, Fk.order, size=(t, d, d)) * (rng.random((t, d, d)) < density)
    G = rng.integers(0, Fk.order, size=(g, 1, d, d)) * (rng.random((g, 1, d, d)) < density)
    assert g * t * d**3 > la.ONE_SHOT_ENTRIES
    want = _broadcast_product(Fk, _broadcast_product(Fk, _transpose(T), G), T)
    assert np.array_equal(la.congruence(Fk, T, G), want)
    assert np.array_equal(la._product(Fk, G, T), _broadcast_product(Fk, G, T))
    A, B = T.reshape(-1, d)[: 3 * d], G.reshape(d, -1)[:, : 3 * d]
    assert (3 * d) ** 2 * d > la.ONE_SHOT_ENTRIES
    assert np.array_equal(la.mat_mul(Fk, A, B), _broadcast_product(Fk, A, B))


def test_mat_mul_refuses_stacks():
    with pytest.raises(ValueError, match="matrices"):
        la.mat_mul(F, RNG.integers(0, 8, size=(2, 3, 3)), _rand(3, 3))


def test_mat_mul_sees_only_matrices_at_every_binding(monkeypatch):
    # a tracer that wraps every module binding of `mat_mul` and reads two
    # 2-D shapes per call (as perfbench's does) must never meet a stack
    seen, fn = [], la.mat_mul

    def traced(*args, **kw):
        seen.append((np.shape(args[1]), np.shape(args[2])))
        return fn(*args, **kw)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "ver4forms"]:
        for key, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, key, traced)
    F4, F8 = make_field(2), make_field(3)
    cls = CanonicalClass("F", 2, 3, 1)
    rep = canonical_rep(cls, F8)
    grams = la.congruence(F8, random_equivariant_matrices(rep.obj, np.random.default_rng(3), 4), rep.gram)
    assert [got for _, _, got in canonicalize_batch(rep.obj, grams)] == [cls] * 4
    assert orbit_classes(0, 2, F4).orbit_count == 9
    assert all(report.ok for report in emit_tables(F4, max_size=2))
    b1, b2 = canonical_rep(CanonicalClass("D", 0, 2), F4), canonical_rep(CanonicalClass("E", 0, 1, 3), F4)
    assert np.array_equal(tensor_product_via_braiding(b1, b2).gram, tensor_product(b1, b2).gram)
    assert seen and all(len(a) == len(b) == 2 for a, b in seen)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 16),
    s=st.integers(0, 9),
    r=st.sampled_from([None, 0, 1, "s"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_solve_matches_serial(k, s, r, seed):
    # r is the number of right-hand sides; None passes no B at all
    Fk, rng = make_field(k), np.random.default_rng(seed)
    A = rng.integers(0, Fk.order, size=(12, s, s))
    A[6:] = rng.integers(0, 2, size=(6, s, s))  # 0/1 entries: often singular
    if s:
        A[0, :, rng.integers(s)] = 0
    if s >= 2:
        A[1, -1] = Fk.mul_arr(A[1, 0], rng.integers(1, Fk.order)) ^ A[1, 1]
    width = 0 if r is None else s if r == "s" else r
    B = None if r is None else rng.integers(0, Fk.order, size=(12, s, width))
    ok, X = la.batch_solve(Fk, A, B)
    assert ok.shape == (12,) and X.shape == (12, s, width)
    ok_inv, inv = la.batch_solve(Fk, A, np.broadcast_to(la.eye(s), A.shape))
    assert np.array_equal(ok_inv, ok)
    for i, (M, good, Xi) in enumerate(zip(A, ok, X)):
        assert good == la.is_invertible(Fk, M)
        # a batch of one takes the row_reduce path; `inverse` goes through it too
        ok1, X1 = la.batch_solve(Fk, A[i : i + 1], None if B is None else B[i : i + 1])
        assert ok1.tolist() == [good] and X1.shape == (1, s, width)
        if good:
            Bi = la.zeros(s, 0) if B is None else B[i]
            assert np.array_equal(la.mat_mul(Fk, M, Xi), Bi)
            assert np.array_equal(X1[0], Xi)
            assert np.array_equal(inv[i], la.inverse(Fk, M))
            assert np.array_equal(Xi, la.mat_mul(Fk, inv[i], Bi))
    if s:
        assert not ok[0]


def test_kron_broadcasts_batch_axes():
    A, B = RNG.integers(0, 8, size=(3, 2, 4)), RNG.integers(0, 8, size=(3, 3, 2))
    stacked = la.kron(F, A, B)
    assert stacked.shape == (3, 6, 8)
    for a, b, got in zip(A, B, stacked):
        assert np.array_equal(got, la.kron(F, a, b))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    r=st.integers(0, 6),
    c=st.integers(0, 6),
    b=st.integers(1, 3),
    density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_congruence_matches_congruence_for_any_basis(k, r, c, b, density, seed):
    # any coefficients and any number of non-zeros per column, not only the
    # 0/1 columns with at most two entries that tensor bases have
    Fk = make_field(k)
    rng = np.random.default_rng(seed)
    B = rng.integers(0, Fk.order, size=(r, c)) * (rng.random((r, c)) < density)
    rows, coefs = support = la.column_support(B)
    rebuilt = np.zeros((r, c), dtype=np.int64)
    for row, coef in zip(rows, coefs):
        rebuilt[row, np.arange(c)] ^= coef
    assert np.array_equal(rebuilt, B)
    K = rng.integers(0, Fk.order, size=(b, r, r))
    got = la.support_congruence(Fk, support, K)
    assert got.shape == (b, c, c)
    for Km, g in zip(K, got):
        assert np.array_equal(g, la.congruence(Fk, B, Km))
