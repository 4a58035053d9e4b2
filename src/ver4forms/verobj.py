"""Objects and morphisms of the braided category of K[t]/(t^2)-modules.

An object is a finite module over A = K[t]/(t^2): a vector space with a
nilpotent operator T (the action of t) satisfying T^2 = 0.  Up to
isomorphism every module is m1 + nP, where 1 is the trivial 1-dimensional
module and P the 2-dimensional indecomposable with t.w = x.  `VerObject`
fixes the standard basis ordering

    v_1, ..., v_m, w_1, x_1, ..., w_n, x_n

with t.v_j = 0, t.w_k = x_k, t.x_k = 0.  `RawTModule` carries an arbitrary
nilpotent action; `standard_basis` produces the standard form together with
its standard basis, an invertible equivariant change of basis.

The braided (symmetric) structure is induced by the triangular R-matrix
R = 1 (x) 1 + t (x) t on A, which twists the plain swap into

    c(u (x) r) = r (x) u + (t.r) (x) (t.u).

Tensor products carry the t-action t.(u (x) r) = t.u (x) r + u (x) t.r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .field import Field
from .linalg import eye, kron, mat_mul, null_space, readonly, row_reduce, zeros


def json_ints(data, what: str, depth: int = 0, bound: int | None = None):
    """Check untrusted JSON before any numpy conversion and return it.

    `data` must be an int (depth 0) or lists nested `depth` deep whose
    leaves are ints in [0, bound), with no upper bound when `bound` is None.
    Bools, floats and strings are rejected, never coerced.
    """
    items = [data]
    for _ in range(depth):
        if not all(isinstance(x, list) for x in items):
            raise ValueError(f"{what} must be {depth}-fold nested lists of integers")
        items = [y for x in items for y in x]
    for x in items:
        if type(x) is not int or x < 0 or (bound is not None and x >= bound):
            limit = "" if bound is None else f" below {bound}"
            raise ValueError(f"{what} must be non-negative integers{limit}, got {x!r:.40}")
    return data


@dataclass(frozen=True)
class VerObject:
    """The standard module m1 + nP over a fixed field.

    Owns the slot layout: `slots` (as slices) and `vs`, `ws`, `xs` (as index
    arrays) are the basis positions of the v's, w's and x's, and the block
    helpers below are the one place that turns Gram blocks and
    equivariant-matrix blocks into full matrices (and back).  The block
    helpers accept leading batch axes.
    """

    field: Field
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("multiplicities must be non-negative")

    @property
    def dim(self) -> int:
        return self.m + 2 * self.n

    @cached_property
    def slots(self) -> tuple[slice, slice, slice]:
        """The v-, w- and x-positions as slices: v's first, then (w, x) pairs."""
        m, d = self.m, self.dim
        return slice(0, m), slice(m, d, 2), slice(m + 1, d, 2)

    @cached_property
    def vs(self) -> np.ndarray:
        return readonly(np.arange(self.dim)[self.slots[0]])

    @cached_property
    def ws(self) -> np.ndarray:
        return readonly(np.arange(self.dim)[self.slots[1]])

    @cached_property
    def xs(self) -> np.ndarray:
        return readonly(np.arange(self.dim)[self.slots[2]])

    def t_action(self) -> np.ndarray:
        return self.t_times(eye(self.dim))

    def t_times(self, M: np.ndarray) -> np.ndarray:
        """T M by a slot move: row x_k of T M is row w_k of M, the rest zero."""
        out = np.zeros_like(M)
        out[..., self.slots[2], :] = M[..., self.slots[1], :]
        return out

    def times_t(self, M: np.ndarray) -> np.ndarray:
        """M T by a slot move: column w_k of M T is column x_k of M, the rest zero."""
        out = np.zeros_like(M)
        out[..., :, self.slots[1]] = M[..., :, self.slots[2]]
        return out

    def is_compatible(self, G: np.ndarray) -> bool:
        """The law T^T G = G T by slot moves: T^T G moves the x-rows of G onto
        the w-slots.  With batch axes: whether every Gram of the stack obeys it."""
        _, w, x = self.slots
        tg = np.zeros_like(G)
        tg[..., w, :] = G[..., x, :]
        return bool(np.array_equal(tg, self.times_t(G)))

    def as_grams(self, data, stacked: bool = False) -> np.ndarray:
        """Validate and copy `data` into a Gram on this object, or with
        `stacked` into a (b, d, d) stack of them: field encodings of shape
        d x d obeying the compatibility law."""
        G = linalg.as_matrix(self.field, data, stacked)
        if G.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"gram shape {G.shape[-2:]} does not match dim {self.dim}")
        if not self.is_compatible(G):
            raise ValueError("gram violates the t-compatibility law")
        return G

    def gram_blocks(self, G: np.ndarray):
        """The free blocks (G_vv, G_vw, G_ww, G_wx) of a symmetric compatible
        Gram, as views into G; every other entry is zero or a mirror of one
        of these."""
        v, w, x = self.slots
        return G[..., v, v], G[..., v, w], G[..., w, w], G[..., w, x]

    def gram_from_blocks(self, vv, vw, ww, wx) -> np.ndarray:
        """Inverse of `gram_blocks`: the symmetric compatible Gram with the
        given blocks (vv, ww and wx must be symmetric), mirrored entries
        filled in."""
        v, w, x = self.slots
        return self._assemble(
            (v, v, vv), (v, w, vw), (w, v, np.swapaxes(vw, -1, -2)),
            (w, w, ww), (w, x, wx), (x, w, np.swapaxes(wx, -1, -2)),
        )

    def equivariant_matrix(self, a, c, d, e, f) -> np.ndarray:
        """The matrix commuting with T built from its five free blocks:
        v -> v by `a` (m x m), v -> x by `c` (n x m), w -> v by `d` (m x n),
        w -> w and x -> x both by `e` (n x n), w -> x by `f` (n x n).  It is
        invertible iff `a` and `e` are."""
        v, w, x = self.slots
        return self._assemble((v, v, a), (x, v, c), (v, w, d), (w, w, e), (x, w, f), (x, x, e))

    def _assemble(self, *placed) -> np.ndarray:
        """Zero matrices (batch axes broadcast from the blocks) with each
        (row slots, column slots, block) written in."""
        blocks = [np.asarray(b, dtype=np.int64) for _, _, b in placed]
        batch = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
        M = np.zeros(batch + (self.dim, self.dim), dtype=np.int64)
        for (rows, cols, _), b in zip(placed, blocks):
            M[..., rows, cols] = b
        return M

    def basis_labels(self) -> list[str]:
        labels = [f"v{i + 1}" for i in range(self.m)]
        for k in range(self.n):
            labels += [f"w{k + 1}", f"x{k + 1}"]
        return labels

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}

    @classmethod
    def from_json(cls, field: Field, doc: dict) -> "VerObject":
        try:
            m, n = doc["m"], doc["n"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed object document: missing {exc}") from exc
        return cls(field, json_ints(m, "object size m"), json_ints(n, "object size n"))

    def __repr__(self):
        return f"VerObject(GF(2^{self.field.k}), {self.m}*1 + {self.n}*P)"


class RawTModule:
    """A module given by an arbitrary square t-action matrix with T^2 = 0."""

    def __init__(self, field: Field, t: np.ndarray):
        t = linalg.as_matrix(field, t)
        if t.shape[0] != t.shape[1]:
            raise ValueError("t-action matrix must be square")
        if mat_mul(field, t, t).any():
            raise ValueError("t-action must square to zero")
        self.field = field
        self.t = t

    @property
    def dim(self) -> int:
        return self.t.shape[0]

    def t_action(self) -> np.ndarray:
        return self.t

    def t_times(self, M: np.ndarray) -> np.ndarray:
        return mat_mul(self.field, self.t, M)

    def times_t(self, M: np.ndarray) -> np.ndarray:
        return mat_mul(self.field, M, self.t)

    def to_json(self) -> dict:
        return {"dim": self.dim, "t": self.t.tolist()}

    @classmethod
    def from_json(cls, field: Field, doc: dict) -> "RawTModule":
        try:
            dim, t = doc["dim"], doc["t"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed raw module document: missing {exc}") from exc
        t = np.array(json_ints(t, "t-action entries", depth=2, bound=field.order), dtype=np.int64)
        if t.shape != (json_ints(dim, "dim"),) * 2:
            raise ValueError("t-action shape does not match the declared dimension")
        return cls(field, t)

    def __repr__(self):
        return f"RawTModule(GF(2^{self.field.k}), dim={self.dim})"


def unit_object(field: Field) -> VerObject:
    return VerObject(field, 1, 0)


class Morphism:
    """A linear map between modules that commutes with the t-actions.

    The matrix acts on column vectors; composition is matrix product.
    """

    def __init__(self, source, target, matrix: np.ndarray):
        if source.field != target.field:
            raise ValueError("source and target live over different fields")
        matrix = linalg.as_matrix(source.field, matrix)
        if matrix.shape != (target.dim, source.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not map dim {source.dim} to dim {target.dim}"
            )
        if not np.array_equal(target.t_times(matrix), source.times_t(matrix)):
            raise ValueError("matrix does not commute with the t-actions")
        self.source = source
        self.target = target
        self.matrix = matrix

    @property
    def field(self) -> Field:
        return self.source.field

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target.dim != self.source.dim:
            raise ValueError("composition dimension mismatch")
        return Morphism(other.source, self.target, mat_mul(self.field, self.matrix, other.matrix))

    def is_invertible(self) -> bool:
        return linalg.is_invertible(self.field, self.matrix)

    def inverse(self) -> "Morphism":
        return Morphism(self.target, self.source, linalg.inverse(self.field, self.matrix))

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def standard_basis(raw) -> tuple[VerObject, np.ndarray]:
    """(obj, B): the standard form of `raw` and its standard basis as the
    columns of B, in `raw`'s coordinates.  The new w's are chosen greedily
    (as row_reduce pivots) among standard basis vectors, preferring those
    whose t-image has the smallest support (ties by index); the 1-part is
    filled greedily from the reduced kernel basis.  This makes B
    deterministic.
    """
    F = raw.field
    T = raw.t_action()
    d = raw.dim
    candidates = sorted(
        (j for j in range(d) if T[:, j].any()),
        key=lambda j: (int(np.count_nonzero(T[:, j])), j),
    )
    w_idx = [candidates[j] for j in row_reduce(F, T[:, candidates])[1]]
    X = T[:, w_idx]
    n = len(w_idx)
    m = d - 2 * n
    XK = np.concatenate([X, null_space(F, T)], axis=1)
    v_piv = row_reduce(F, XK)[1][n:]
    if len(v_piv) != m:
        raise AssertionError("kernel completion failed")  # pragma: no cover
    obj = VerObject(F, m, n)
    v, _, x = obj.slots
    B = zeros(d, d)
    B[:, v] = XK[:, v_piv]
    B[w_idx, obj.ws] = 1
    B[:, x] = X
    return obj, B


def tensor_raw(a, b) -> RawTModule:
    """Tensor product module on the Kronecker basis (left factor outer)."""
    if a.field != b.field:
        raise ValueError("tensor factors live over different fields")
    Ta, Tb = a.t_action(), b.t_action()
    T = np.kron(Ta, eye(b.dim)) ^ np.kron(eye(a.dim), Tb)
    return RawTModule(a.field, T)


@lru_cache(maxsize=None)
def tensor(a: VerObject, b: VerObject) -> tuple[VerObject, np.ndarray, tuple]:
    """Standard form of a (x) b for standard objects: (obj, B, support).

    B holds obj's standard basis as columns on the Kronecker basis (left
    factor outer), read-only and certified equivariant; it is invertible
    by `standard_basis`'s construction.  `support` is its
    `linalg.column_support`.  Sizes follow m' = m*p and n' = 2nq + mq + np.
    """
    raw = tensor_raw(a, b)
    obj, B = standard_basis(raw)
    Morphism(obj, raw, B)  # raises unless B is equivariant
    return obj, readonly(B), linalg.column_support(B)


def braiding(a, b) -> Morphism:
    """The braiding c: a (x) b -> b (x) a on Kronecker bases.

    c(u (x) r) = r (x) u + (t.r) (x) (t.u); it squares to the identity.
    """
    if a.field != b.field:
        raise ValueError("braiding factors live over different fields")
    da, db = a.dim, b.dim
    base = eye(da * db) ^ np.kron(a.t_action(), b.t_action())
    idx = np.arange(da * db)
    swapped = (idx % db) * da + idx // db
    C = np.zeros((da * db, da * db), dtype=np.int64)
    C[swapped] = base
    return Morphism(tensor_raw(a, b), tensor_raw(b, a), C)


def dual(obj: VerObject) -> tuple[VerObject, Morphism]:
    """The dual object and the evaluation pairing.

    The dual of m1 + nP is again m1 + nP: in the dual basis ordered
    v*_1..v*_m, x*_1, w*_1, ..., x*_n, w*_n the action is t.x*_k = w*_k, so
    the dual standard pairs are (x*_k, w*_k).  The returned morphism is the
    evaluation dual (x) obj -> 1; reshaping its single row to (dim, dim)
    gives the pairing matrix (identity on the 1-part, antidiagonal 2x2
    blocks on the P-part).
    """
    F = obj.field
    d = obj.dim
    dobj = VerObject(F, obj.m, obj.n)
    (v, w, x), (dv, dw, dx) = obj.slots, dobj.slots
    P = zeros(d, d)
    P[dv, v] = eye(obj.m)
    P[dw, x] = eye(obj.n)  # x*_k pairs with x_k
    P[dx, w] = eye(obj.n)  # w*_k pairs with w_k
    ev = Morphism(tensor_raw(dobj, obj), unit_object(F), P.reshape(1, d * d))
    return dobj, ev


def hexagons_hold(x, y, z) -> tuple[bool, bool]:
    """Check both hexagon identities on the triple (x, y, z) exactly."""
    F = x.field
    c = lambda a, b: braiding(a, b).matrix
    lhs1 = c(x, tensor_raw(y, z))
    rhs1 = mat_mul(F, kron(F, eye(y.dim), c(x, z)), kron(F, c(x, y), eye(z.dim)))
    lhs2 = c(tensor_raw(x, y), z)
    rhs2 = mat_mul(F, kron(F, c(x, z), eye(y.dim)), kron(F, eye(x.dim), c(y, z)))
    return bool(np.array_equal(lhs1, rhs1)), bool(np.array_equal(lhs2, rhs2))


def random_equivariant_matrix(obj: VerObject, rng: np.random.Generator) -> np.ndarray:
    """Matrix of a random invertible morphism obj -> obj.

    Block shape: v's map into V + X, w's map anywhere compatible; the v->v
    and w->w blocks are drawn from GL, the rest uniformly, which makes the
    result invertible (and equivariant) by construction.
    """
    F, m, n = obj.field, obj.m, obj.n
    q = F.order
    A = _random_gl(F, m, rng)
    E = _random_gl(F, n, rng)
    C = rng.integers(0, q, size=(n, m), dtype=np.int64)
    D = rng.integers(0, q, size=(m, n), dtype=np.int64)
    Fm = rng.integers(0, q, size=(n, n), dtype=np.int64)
    return obj.equivariant_matrix(A, C, D, E, Fm)


def random_equivariant_automorphism(obj: VerObject, rng: np.random.Generator) -> Morphism:
    """A random invertible morphism obj -> obj (validated wrapper)."""
    return Morphism(obj, obj, random_equivariant_matrix(obj, rng))


def _random_gl(F: Field, s: int, rng: np.random.Generator) -> np.ndarray:
    if s == 0:
        return zeros(0, 0)
    while True:
        M = rng.integers(0, F.order, size=(s, s), dtype=np.int64)
        if linalg.is_invertible(F, M):
            return M


# -- triangular structure on the Hopf algebra A = K[t]/(t^2) ----------------
#
# Elements of A^(x)n are numpy arrays of shape (2,)*n over the field, indexed
# by tuples over the basis (1, t).  Multiplication is componentwise with
# t*t = 0; the coproduct is Delta(t) = 1 (x) t + t (x) 1.


def _a_mul(F: Field, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.ndim
    z = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        if not x[i]:
            continue
        for j in np.ndindex(y.shape):
            if not y[j]:
                continue
            if any(a + b > 1 for a, b in zip(i, j)):
                continue  # t^2 = 0 in some slot
            k = tuple(a + b for a, b in zip(i, j))
            z[k] ^= F.mul(int(x[i]), int(y[j]))
    return z


def _delta_at(F: Field, x: np.ndarray, slot: int) -> np.ndarray:
    """Apply the coproduct to one tensor slot, adding a slot after it."""
    n = x.ndim
    out = np.zeros((2,) * (n + 1), dtype=np.int64)
    for i in np.ndindex(x.shape):
        if not x[i]:
            continue
        pre, a, post = i[:slot], i[slot], i[slot + 1:]
        if a == 0:
            out[pre + (0, 0) + post] ^= x[i]
        else:
            out[pre + (0, 1) + post] ^= x[i]
            out[pre + (1, 0) + post] ^= x[i]
    return out


def _embed(x: np.ndarray, n: int, slots: tuple[int, ...]) -> np.ndarray:
    """Place a tensor into chosen slots of A^(x)n (identity elsewhere)."""
    out = np.zeros((2,) * n, dtype=np.int64)
    for i in np.ndindex(x.shape):
        if not x[i]:
            continue
        idx = [0] * n
        for s, a in zip(slots, i):
            idx[s] = a
        out[tuple(idx)] ^= x[i]
    return out


def check_r_matrix_axioms(F: Field) -> dict[str, bool]:
    """Verify the triangular-structure identities of R = 1 (x) 1 + t (x) t.

    Checked exactly as identities in A^(x)2 and A^(x)3, plus the induced
    braiding's hexagon identities on the triple (P, P, P).
    """
    R = np.zeros((2, 2), dtype=np.int64)
    R[0, 0] = 1
    R[1, 1] = 1
    one2 = np.zeros((2, 2), dtype=np.int64)
    one2[0, 0] = 1
    R13 = _embed(R, 3, (0, 2))
    R23 = _embed(R, 3, (1, 2))
    R12 = _embed(R, 3, (0, 1))
    report: dict[str, bool] = {}
    report["r_squared_identity"] = bool(np.array_equal(_a_mul(F, R, R), one2))
    report["r21_is_inverse"] = bool(np.array_equal(R.T, R))
    report["coproduct_first_leg"] = bool(
        np.array_equal(_delta_at(F, R, 0), _a_mul(F, R13, R23))
    )
    report["coproduct_second_leg"] = bool(
        np.array_equal(_delta_at(F, R, 1), _a_mul(F, R13, R12))
    )
    ok = True
    for a in (np.array([1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64)):
        da = _delta_at(F, a, 0)
        ok = ok and np.array_equal(da.T, _a_mul(F, _a_mul(F, R, da), R))
    report["r_conjugates_coproduct"] = bool(ok)
    p = VerObject(F, 0, 1)
    hx1, hx2 = hexagons_hold(p, p, p)
    report["hexagon_first_ppp"] = hx1
    report["hexagon_second_ppp"] = hx2
    return report
