import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms import linalg as la
from ver4forms.field import make_field

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


def test_batch_congruence_matches_loop():
    Ts = RNG.integers(0, F.order, size=(7, 4, 4)).astype(np.int64)
    G = _rand(4, 4)
    out = la.batch_congruence(F, Ts, G)
    for i in range(7):
        assert np.array_equal(out[i], la.congruence(F, Ts[i], G))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 16),
    s=st.integers(0, 6),
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
