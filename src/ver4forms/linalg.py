"""Dense exact linear algebra over GF(2^k).

Matrices are 2-D numpy int64 arrays of element encodings; a `Field` context
supplies the arithmetic.  Row reduction uses standard Gaussian elimination
with vectorised row operations (row addition is XOR, scaling goes through
the field's exp/log tables), so everything stays exact.  There is one
product kernel, `_product` (A B over broadcast leading batch axes), behind
`mat_mul` (two matrices) and `congruence` (T^T G T, stacks included), and
two elimination kernels: `row_reduce` (RREF and pivots of one matrix) and
`batch_solve` (invertibility of a stack of square blocks, and A^-1 B for
right-hand sides B when given).
"""

from __future__ import annotations

import math

import numpy as np

from .field import Field


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def readonly(a: np.ndarray) -> np.ndarray:
    """Freeze `a` in place (writes raise ValueError) and return it; for
    arrays that cached results share."""
    a.flags.writeable = False
    return a


def as_matrix(F: Field, data, stacked: bool = False) -> np.ndarray:
    """Validate and copy `data` into an int64 matrix of field encodings, or
    with `stacked` into a (b, rows, cols) stack of them."""
    M = np.array(data, dtype=np.int64)
    if M.ndim != 2 + stacked:
        what = "stack of matrices" if stacked else "matrix"
        raise ValueError(f"expected a {what}, got array of ndim {M.ndim}")
    if M.size and (M.min() < 0 or M.max() >= F.order):
        raise ValueError(f"matrix entries must be encodings in [0, {F.order})")
    return M


# Products with at most this many scalar terms (a whole stack's) are one
# broadcast `mul_arr` and one XOR-reduce; larger ones loop over the inner
# index, skipping zero columns of A and rows of B.  On dense square GF(8)
# matrices (2-CPU x86 VM) the broadcast took 0.1-0.3x the loop's time from
# 2x2 to 28x28, broke even near 40x40 and took 1.5x at 81x81.
ONE_SHOT_ENTRIES = 1 << 15


def _product(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for (..., r, l) A and (..., l, c) B, leading batch axes broadcast;
    the one place that chooses between the broadcast and the loop, by the
    product's batch * r * l * c scalar terms."""
    (r, inner), (inner_b, c) = A.shape[-2:], B.shape[-2:]
    if inner != inner_b:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    a, b = A.shape[:-2], B.shape[:-2]
    batch = a if a == b else np.broadcast_shapes(a, b)
    if math.prod(batch, start=r * inner * c) <= ONE_SHOT_ENTRIES:
        return np.bitwise_xor.reduce(F.mul_arr(A[..., None], B[..., None, :, :]), axis=-2)
    C = np.zeros(batch + (r, c), dtype=np.int64)
    for l in range(inner):
        col = A[..., :, l, None]
        if not col.any():
            continue
        row = B[..., None, l, :]
        if not row.any():
            continue
        C ^= F.mul_arr(col, row)
    return C


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for two matrices.  Stacks go through `_product`: perfbench's
    tracer counts a `mat_mul` call's work from two 2-D shapes."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError(f"mat_mul takes matrices, got shapes {A.shape} @ {B.shape}")
    return _product(F, A, B)


def mat_vec(F: Field, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = F.mul_arr(A, np.asarray(v, dtype=np.int64)[None, :])
    return np.bitwise_xor.reduce(out, axis=1) if out.shape[1] else np.zeros(A.shape[0], dtype=np.int64)


def dot(F: Field, u: np.ndarray, v: np.ndarray) -> int:
    p = F.mul_arr(u, v)
    return int(np.bitwise_xor.reduce(p)) if p.size else 0


def kron(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with field multiplication of entries; leading batch
    axes of A and B broadcast."""
    ra, ca = A.shape[-2:]
    rb, cb = B.shape[-2:]
    out = F.mul_arr(A[..., :, None, :, None], B[..., None, :, None, :])
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def row_reduce(F: Field, M: np.ndarray, n_pivot_cols: int | None = None):
    """Reduced row echelon form over the field.

    Returns (R, pivots); pivots are the pivot column indices in order.
    They are the greedy leftmost independent columns of M (column j is a
    pivot iff it is not in the span of columns 0..j-1), which is how every
    "first independent columns" choice in the package is made.
    Pivot search can be limited to the first `n_pivot_cols` columns (for
    augmented systems); row operations always apply to the full width.
    """
    R = np.array(M, dtype=np.int64, copy=True)
    rows, cols = R.shape
    if n_pivot_cols is None:
        n_pivot_cols = cols
    pivots: list[int] = []
    r = 0
    for c in range(n_pivot_cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r] = F.mul_arr(R[r], F.inv(pv))
        mask = R[:, c] != 0
        mask[r] = False
        if mask.any():
            R[mask] ^= F.mul_arr(R[mask, c][:, None], R[r][None, :])
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F: Field, M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    return len(row_reduce(F, M)[1])


def is_invertible(F: Field, M: np.ndarray) -> bool:
    n = M.shape[0]
    return M.shape[1] == n and rank(F, M) == n


def null_space(F: Field, M: np.ndarray) -> np.ndarray:
    """Basis of the right null space, as matrix columns (deterministic)."""
    rows, cols = M.shape
    R, piv = row_reduce(F, M)
    free = [c for c in range(cols) if c not in set(piv)]
    basis = zeros(cols, len(free))
    for idx, fc in enumerate(free):
        basis[fc, idx] = 1
        for r_i, pc in enumerate(piv):
            basis[pc, idx] = R[r_i, fc]
    return basis


def batch_solve(F: Field, A: np.ndarray, B: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Invertibility of a (b, s, s) stack A, and A^-1 B for a (b, s, r)
    stack B of right-hand sides (r = 0 without B).

    Returns (ok, X): ok[i] tells whether A[i] is invertible, and X[i] is
    A[i]^-1 B[i] when it is (unspecified otherwise).  One elimination pass
    runs over [A | B] on the whole batch axis; for column c each member
    takes its first row at or below c with a nonzero entry as pivot, and
    the pivot row, zero left of c, is added into the other rows on the
    trailing columns: with B every other row (Gauss-Jordan), without B only
    the rows below, as the rank needs no back substitution.  A batch of one
    goes through `row_reduce` instead: on dense GF(8) matrices with
    s = 1..14, the stacked pass on one matrix took 1.0-2.6x the time of
    `is_invertible`, the most at s <= 2.
    """
    A = np.asarray(A, dtype=np.int64)
    b, s, s2 = A.shape
    if s != s2:
        raise ValueError(f"batch_solve needs square blocks, got {A.shape}")
    R = A if B is None else np.concatenate([A, np.asarray(B, dtype=np.int64)], axis=2)
    if b == 1:
        R, piv = row_reduce(F, R[0], n_pivot_cols=s)
        return np.array([len(piv) == s]), R[None, :, s:]
    if B is None:
        R = R.copy()
    at = np.arange(b)
    # each step skips work that is zero for the whole batch, as row_reduce does
    for c in range(s):
        if not R[:, c, c].all():
            p = c + (R[:, c:, c] != 0).argmax(axis=1)
            R[at, c], R[at, p] = R[at, p], R[at, c]
        # a singular member finds no pivot here: R[c, c] becomes 0, and later steps write right of c
        pivot = R[:, c, c]
        if (pivot != 1).any():
            R[:, c, c:] = F.mul_arr(R[:, c, c:], F.inv_arr(pivot)[:, None])
        top = c + 1 if B is None else 0
        factor = R[:, top:, c, None].copy()
        if B is not None:
            factor[:, c] = 0
        if factor.any():
            R[:, top:, c:] ^= F.mul_arr(factor, R[:, None, c, c:])
    ok = (np.diagonal(R, axis1=1, axis2=2) == 1).all(axis=1)
    return ok, R[:, :, s:]


def inverse(F: Field, M: np.ndarray) -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    ok, inv = batch_solve(F, M[None], eye(len(M))[None])
    if not ok[0]:
        raise ValueError("matrix is singular")
    return inv[0]


def solve(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B exactly for full-column-rank A; raises otherwise."""
    B = np.asarray(B, dtype=np.int64)
    vec_in = B.ndim == 1
    if vec_in:
        B = B[:, None]
    n = A.shape[1]
    aug = np.concatenate([A, B], axis=1)
    R, piv = row_reduce(F, aug, n_pivot_cols=n)
    if piv != list(range(n)):
        raise ValueError("coefficient matrix does not have full column rank")
    if np.any(R[n:, n:]):
        raise ValueError("inconsistent linear system")
    X = R[:n, n:]
    return X[:, 0] if vec_in else X


def congruence(F: Field, T: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Gram transform T^T G T; leading batch axes of T and G broadcast, so
    a (b, n, n) stack of T's moves one Gram or a stack of b Grams."""
    T = np.asarray(T, dtype=np.int64)
    return _product(F, np.swapaxes(T, -1, -2), _product(F, np.asarray(G, dtype=np.int64), T))


# only perfbench (its scramble pools and its tracer) calls the stacked form by this name
batch_congruence = congruence


def column_support(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B by its column support: read-only (rows, coefs), both (s, cols) with
    s the most non-zeros in a column, such that column j of B is
    sum_a coefs[a, j] e_rows[a, j].  Shorter columns are padded with
    coefficient 0."""
    nz = B != 0
    s = int(nz.sum(axis=0).max(initial=0))
    rows = np.argsort(~nz, axis=0, kind="stable")[:s].copy()
    return readonly(rows), readonly(np.take_along_axis(B, rows, axis=0))


def support_gather(F: Field, support, M: np.ndarray, axis: int) -> np.ndarray:
    """M B (axis -1) or B^T M (axis -2) for a (..., r, r) stack M, with B
    given by its `column_support`: one gather of M's columns (rows) per
    support level, weighted by its coefficients, so a member costs O(s r c)
    entries rather than a product's O(r^2 c)."""
    rows, coefs = support
    shape = list(M.shape)
    shape[axis] = rows.shape[1]
    out = np.zeros(shape, dtype=np.int64)
    for r, c in zip(rows, coefs):
        part = np.take(M, r, axis=axis)
        if (c != 1).any():
            part = F.mul_arr(part, c if axis == -1 else c[:, None])
        out ^= part
    return out


def support_congruence(F: Field, support, K: np.ndarray) -> np.ndarray:
    """B^T K B for a (..., r, r) stack K, with B given by its `column_support`."""
    return support_gather(F, support, support_gather(F, support, K, -1), -2)
