"""Dense exact linear algebra over GF(2^k).

Matrices are 2-D numpy int64 arrays of element encodings; a `Field` context
supplies the arithmetic.  Row reduction is Gauss-Jordan elimination (row
addition is XOR, scaling goes through the field's exp/log tables), so
everything stays exact; `row_reduce` runs it on Python lists of ints with
scalar table reads at every size.
There is one product kernel, `_product` (A B over broadcast leading batch
axes, its transient terms chunked by `ONE_SHOT_ENTRIES`), behind `mat_mul`
(two matrices) and `congruence` (T^T G T, stacks included), and two
elimination kernels: `row_reduce` (RREF and pivots of one matrix) and
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
    with `stacked` into a (b, rows, cols) stack of them.  Entries must be
    integers: floats, bools and objects are refused, never truncated."""
    M = integers(np.array(data), "matrix entries")
    if M.ndim != 2 + stacked:
        what = "stack of matrices" if stacked else "matrix"
        raise ValueError(f"expected a {what}, got array of ndim {M.ndim}")
    if M.size and (M.min() < 0 or M.max() >= F.order):
        raise ValueError(f"matrix entries must be encodings in [0, {F.order})")
    return M


def integers(a: np.ndarray, what: str) -> np.ndarray:
    """`a` as int64, or ValueError where a non-empty `a` holds anything but
    integers: a float, a bool, or a Python int too large for int64."""
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


# `_product`'s chunk bound, in scalar terms: it computes a product in chunks
# of the inner index, each one broadcast `mul_arr` and XOR-reduce of as many
# indices as fit within the bound (at least one).  Over GF(8) on a 2-CPU x86
# VM chunks took 1.0-2.3x the time of the former per-index loop on dense 48 to
# 144 square matrices and 1.0-1.2x on (1000, 8, 8) and (40, 30, 30) congruences.
ONE_SHOT_ENTRIES = 1 << 15


def _product(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for (..., r, l) A and (..., l, c) B, leading batch axes broadcast,
    in chunks of the inner index bounded by `ONE_SHOT_ENTRIES` terms."""
    (r, inner), (inner_b, c) = A.shape[-2:], B.shape[-2:]
    if inner != inner_b:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    a, b = A.shape[:-2], B.shape[:-2]
    batch = a if a == b else np.broadcast_shapes(a, b)
    if math.prod(batch, start=r * inner * c) <= ONE_SHOT_ENTRIES:
        return np.bitwise_xor.reduce(F.mul_arr(A[..., None], B[..., None, :, :]), axis=-2)
    step = max(1, ONE_SHOT_ENTRIES // math.prod(batch, start=r * c))
    C = np.zeros(batch + (r, c), dtype=np.int64)
    for l in range(0, inner, step):
        C ^= np.bitwise_xor.reduce(F.mul_arr(A[..., l : l + step, None], B[..., None, l : l + step, :]), axis=-2)
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

    Gauss-Jordan on Python lists of ints with scalar exp/log reads: each
    column takes its first non-zero at or below the current row as pivot,
    scaled to 1, and clears it from every other row.  Benchmark workloads
    pass at most 36 x 37.  On 5 dense n x (n+1) matrices (2-CPU x86 VM,
    best of 5) this took 0.3-0.8x the time of numpy row operations (the
    former numpy body) for n <= 16 over GF(8) and 0.3-1.1x for n <= 14
    over GF(2^16).  One body costs 1.6x/1.9x at n = 24/36 over GF(8) (6
    sweep solves per round have n >= 24) and 2.4x at n = 24 over GF(2^16);
    where no workload goes, 4x/11x on dense 192 x 192 matrices, 1.7x on
    `gamma2` at dim 24 and 2.2x on `standard_basis` of a dim-576 tensor.
    """
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    if n_pivot_cols is None:
        n_pivot_cols = cols
    pivots: list[int] = []
    r = 0
    L, exp, log, om = M.tolist(), F.exp_view, F.log_view, F.order - 1
    for c in range(n_pivot_cols):
        p = next((i for i in range(r, rows) if L[i][c]), rows)
        if p == rows:
            continue
        row = L[p]
        L[p], L[r] = L[r], row
        if row[c] != 1:
            s = om - log[row[c]]
            row[:] = [exp[log[x] + s] if x else 0 for x in row]
        # a row operation reads the pivot row's non-zeros alone
        terms = [(j, log[x]) for j, x in enumerate(row) if x]
        for i, other in enumerate(L):
            f = other[c]
            if f and i != r:
                f = log[f]
                for j, lx in terms:
                    other[j] ^= exp[f + lx]
        pivots.append(c)
        r += 1
    return np.array(L, dtype=np.int64).reshape(rows, cols), pivots


def rank(F: Field, M: np.ndarray) -> int:
    return len(row_reduce(F, M)[1])


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
    goes through `row_reduce` instead: on dense s x s matrices (best of 5)
    the stacked pass on one matrix took 2.4-4.1x the time of `row_reduce`
    for s = 1..8 and 1.1-2.4x for s = 9..18 over GF(8), 1.8-4.1x for
    s = 1..8 and 1.0-1.7x for s = 9..13 over GF(2^16); above that the
    stacked pass is faster, 0.4x at s = 36 over GF(8) and 0.24x over GF(2^16).
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


def column_support(B: np.ndarray) -> tuple[np.ndarray, tuple]:
    """A 0/1 matrix B with no zero column by its column support: read-only
    (rows, levels).  rows[j] is the first non-zero row of column j, and
    level a is a (cols, rows) pair holding the (a + 1)-th non-zero row of
    each column that has one, so B is the sum of the unit columns that rows
    and the levels name.  Raises ValueError for an entry other than 0/1 or
    a zero column."""
    if ((B != 0) & (B != 1)).any():
        raise ValueError("a column support needs a matrix of 0/1 entries")
    cols, rows = np.nonzero(B.T)
    count = np.bincount(cols, minlength=B.shape[1])
    if not count.all():
        raise ValueError(f"column {int(np.argmin(count))} of a column support's matrix is zero")
    # a non-zero's level is its place in its column's run of the column-major order
    level = np.arange(len(cols)) - (np.cumsum(count) - count)[cols]
    at = [level == a for a in range(count.max(initial=1))]
    return readonly(rows[at[0]]), tuple((readonly(cols[s]), readonly(rows[s])) for s in at[1:])


def support_gather(support, M: np.ndarray, axis: int) -> np.ndarray:
    """M B (axis -1) or B^T M (axis -2) for a (..., r, r) stack M, with B
    given by its `column_support`: level 0 is one gather of M's columns (or
    rows), and each further level gathers and XORs into its own columns, so
    a member costs O(nnz(B) r) entries rather than a product's O(r^2 c)."""
    rows, levels = support
    tail = (slice(None),) * (-1 - axis)
    out = np.take(M, rows, axis=axis)
    for cols, r in levels:
        out[(..., cols, *tail)] ^= np.take(M, r, axis=axis)
    return out


def support_congruence(support, K: np.ndarray) -> np.ndarray:
    """B^T K B for a (..., r, r) stack K, with B given by its `column_support`."""
    return support_gather(support, support_gather(support, K, -1), -2)
