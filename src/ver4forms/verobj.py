"""Objects and morphisms of the braided category of K[t]/(t^2)-modules.

An object is a finite module over A = K[t]/(t^2): a vector space with a
nilpotent operator T (the action of t) satisfying T^2 = 0.  Up to
isomorphism every module is m1 + nP, where 1 is the trivial 1-dimensional
module and P the 2-dimensional indecomposable with t.w = x.  `VerObject`
fixes the standard basis ordering

    v_1, ..., v_m, w_1, x_1, ..., w_n, x_n

with t.v_j = 0, t.w_k = x_k, t.x_k = 0.  A symmetric compatible Gram is
fixed by its free entries (`VerObject.free_cells`), which are a quadratic
form's Gamma^2 line values (`divided`) and an oracle key's digits (`oracle`).
`RawTModule` carries an arbitrary nilpotent action; `standard_basis`
produces the standard form together with its standard basis, an invertible
equivariant change of basis.

`tensor_raw(a, b)` acts on a (x) b factor by factor, t.(u (x) r) = t.u (x) r +
u (x) t.r, each factor on its own axis; `tensor` gives its standard form.
`commutes` is the one equivariance rule: `Morphism`, `tensor`, `braiding` and
the canonicalizing transforms are all certified by it.

The braided (symmetric) structure is induced by the triangular R-matrix
R = 1 (x) 1 + t (x) t on A, declared once in `_R_TERMS`; `braiding` is the
matrix of c = swap o R.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

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


def json_fields(doc, what: str, *keys: str) -> list:
    """[doc[key] for key in keys] from untrusted JSON: a ValueError says
    that doc is not a JSON object, or names its first missing or unknown key."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what}: must be a JSON object with keys {', '.join(map(repr, keys))}")
    if missing := [key for key in keys if key not in doc]:
        raise ValueError(f"malformed {what}: missing {missing[0]!r}")
    if unknown := [key for key in doc if key not in keys]:
        raise ValueError(f"malformed {what}: unknown key {unknown[0]!r:.40}")
    return [doc[key] for key in keys]


@dataclass(frozen=True)
class VerObject:
    """The standard module m1 + nP over a fixed field.

    Owns the slot layout: `slots` (as slices) and `vs`, `ws`, `xs` (as index
    arrays) are the basis positions of the v's, w's and x's, and the block
    helpers below are the one place that turns Gram blocks, free Gram
    entries and equivariant-matrix blocks into full matrices (and back).
    The block and entry helpers accept leading batch axes.
    """

    field: Field
    m: int
    n: int

    def __post_init__(self):
        if type(self.m) is not int or type(self.n) is not int or self.m < 0 or self.n < 0:
            raise ValueError(f"multiplicities must be non-negative integers, got {self.m!r:.40}, {self.n!r:.40}")

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

    def free_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(part, a, b): the free entries of a symmetric compatible Gram are
        its cells (a[r], b[r]), in the seven parts of `_free_table`."""
        return _free_table(self)[:3]

    def free_entries(self, G: np.ndarray) -> np.ndarray:
        """The free entries of a symmetric compatible Gram, in `free_cells`
        order; every other entry is zero or equal to one of these."""
        _, a, b, *_ = _free_table(self)
        return G[..., a, b]

    def gram_from_free_entries(self, values) -> np.ndarray:
        """Inverse of `free_entries`: the symmetric compatible Gram with the
        given free entries, by one write of `_free_table`'s positions."""
        part, *_, rows, cols, src = _free_table(self)
        values = np.asarray(values, dtype=np.int64)
        if values.shape[-1:] != part.shape:
            raise ValueError(f"expected {part.size} free entries, got shape {values.shape}")
        G = np.zeros(values.shape[:-1] + (self.dim, self.dim), dtype=np.int64)
        G[..., rows, cols] = values[..., src]
        return G

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
        shapes = {b.shape[:-2] for b in blocks}
        batch = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
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
        m, n = json_fields(doc, "object document", "m", "n")
        return cls(field, json_ints(m, "object size m"), json_ints(n, "object size n"))

    def __repr__(self):
        return f"VerObject(GF(2^{self.field.k}), {self.m}*1 + {self.n}*P)"


def free_entry_count(m: int, n: int) -> int:
    """The number of free entries of a symmetric compatible Gram on m1 + nP."""
    return m * (m + 1) // 2 + m * n + n * (n + 1)


@lru_cache(maxsize=64)
def _free_table(obj: VerObject) -> tuple[np.ndarray, ...]:
    """The free entries of a symmetric compatible Gram on obj, read-only as
    (part, a, b, rows, cols, src).  Entry r sits at cell (a[r], b[r]), in
    seven parts numbered as `divided`'s Gamma^2 line families: (v_i, v_i),
    (v_i, v_j) i < j, (v_i, w_k), (w_k, w_k), (w_k, x_k), (w_k, x_l) k < l
    and (w_k, w_l) k < l, each in lexicographic order.  Entry src[p] is
    written at (rows[p], cols[p]): at its cell, at the mirror, and for
    (w_k, x_l) also at (w_l, x_k) and its mirror, as T^T G = G T asks."""
    vs, ws, xs = obj.vs, obj.ws, obj.xs
    iv, jv = np.triu_indices(obj.m, 1)
    kn, ln = np.triu_indices(obj.n, 1)
    cells = [
        (vs, vs), (vs[iv], vs[jv]), (np.repeat(vs, obj.n), np.tile(ws, obj.m)),
        (ws, ws), (ws, xs), (ws[kn], xs[ln]), (ws[kn], ws[ln]),
    ]
    part = np.repeat(np.arange(1, 8), [len(a) for a, _ in cells])
    a, b = (np.concatenate(side) for side in zip(*cells))
    r, wx = np.arange(len(a)), (part == 5) | (part == 6)
    # w_l = x_l - 1 and x_k = w_k + 1 in the standard layout
    rows = np.concatenate([a, b, b[wx] - 1, a[wx] + 1])
    cols = np.concatenate([b, a, a[wx] + 1, b[wx] - 1])
    src = np.concatenate([r, r, r[wx], r[wx]])
    return tuple(readonly(t) for t in (part, a, b, rows, cols, src))


class InternalCheckError(RuntimeError):
    """A cross-check between independent computation paths failed."""


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

    def __repr__(self):
        return f"RawTModule(GF(2^{self.field.k}), dim={self.dim})"


def unit_object(field: Field) -> VerObject:
    return VerObject(field, 1, 0)


class Morphism:
    """A linear map between modules that commutes with the t-actions.

    The matrix acts on column vectors.
    """

    def __init__(self, source, target, matrix: np.ndarray):
        if source.field != target.field:
            raise ValueError("source and target live over different fields")
        matrix = linalg.as_matrix(source.field, matrix)
        if matrix.shape != (target.dim, source.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not map dim {source.dim} to dim {target.dim}"
            )
        if not commutes(source, target, matrix):
            raise ValueError("matrix does not commute with the t-actions")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def _certified(cls, source, target, matrix: np.ndarray) -> "Morphism":
        """A Morphism on a matrix its caller has already certified: no copy and no re-check."""
        phi = cls.__new__(cls)
        phi.source, phi.target, phi.matrix = source, target, matrix
        return phi

    @property
    def field(self) -> Field:
        return self.source.field

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
        raise InternalCheckError("kernel completion failed")  # pragma: no cover
    obj = VerObject(F, m, n)
    v, _, x = obj.slots
    B = zeros(d, d)
    B[:, v] = XK[:, v_piv]
    B[w_idx, obj.ws] = 1
    B[:, x] = X
    return obj, B


# Largest tensor product dimension; `tensor_raw`, under every tensor product, braiding
# and evaluation, refuses more before anything is allocated.
TENSOR_MAX_DIM = 576
# `gamma2` verifies its basis by applying 1 - c to B by gathers and taking two ranks
# (0.06-0.07 s at dim 24 on a 2-CPU x86 VM); past dim 24 the braiding is over TENSOR_MAX_DIM anyway
GAMMA2_BASIS_MAX_DIM = 24


class TensorModule:
    """a (x) b on the Kronecker basis (u_i (x) r_j at i * dim b + j), with the
    t-action t.(u (x) r) = t.u (x) r + u (x) t.r: each factor's `t_times`
    (`times_t`) acts on its own axis, so T^2 = 0 holds by construction."""

    def __init__(self, a, b):
        if a.field != b.field:
            raise ValueError("tensor factors live over different fields")
        if a.dim * b.dim > TENSOR_MAX_DIM:
            raise ValueError(f"tensor product dim {a.dim} x {b.dim} is over the cap {TENSOR_MAX_DIM}")
        self.field, self.a, self.b = a.field, a, b

    @property
    def dim(self) -> int:
        return self.a.dim * self.b.dim

    def t_action(self) -> np.ndarray:
        return self.t_times(eye(self.dim))

    def t_times(self, M: np.ndarray) -> np.ndarray:
        a, b, c = self.a, self.b, M.shape[1]
        X = M.reshape(a.dim, b.dim, c)
        tb = b.t_times(X.swapaxes(0, 1).reshape(b.dim, a.dim * c)).reshape(b.dim, a.dim, c).swapaxes(0, 1)
        return (a.t_times(M.reshape(a.dim, b.dim * c)).reshape(X.shape) ^ tb).reshape(M.shape)

    def times_t(self, M: np.ndarray) -> np.ndarray:
        a, b, r = self.a, self.b, M.shape[0]
        X = M.reshape(r, a.dim, b.dim)
        ta = a.times_t(X.swapaxes(1, 2).reshape(r * b.dim, a.dim)).reshape(r, b.dim, a.dim).swapaxes(1, 2)
        return (ta ^ b.times_t(M.reshape(r * a.dim, b.dim)).reshape(X.shape)).reshape(M.shape)


tensor_raw = TensorModule


def commutes(source, target, M: np.ndarray) -> bool:
    """Whether M: source -> target, or every member of a stack of them, is
    equivariant: T_target M = M T_source, by the modules' own actions."""
    return bool(np.array_equal(target.t_times(M), source.times_t(M)))


@lru_cache(maxsize=None)
def tensor(a: VerObject, b: VerObject) -> tuple[VerObject, np.ndarray, tuple]:
    """Standard form of a (x) b for standard objects: (obj, B, support).

    B, read-only, holds obj's standard basis as columns on the Kronecker
    basis (u_i (x) r_j at i * dim b + j).  It is `standard_basis(tensor_raw(a,
    b))` by index arithmetic: v's are the v (x) v'; w's are those with a
    one-term t-image (w (x) v', w (x) x', v (x) w'), then the w (x) w' (image
    x (x) w' + w (x) x'), each by index; each x is t of its w.  B is
    invertible: its unit columns cover all but the x (x) w', which the
    two-term columns add.  `support` is B's `linalg.column_support`, written
    in closed form and B built from it: rows holds each column's first
    non-zero row, and its one level, present where there are w (x) w', the
    x (x) w' row of their x's.  Equivariance is certified by `commutes`.
    m' = m*p, n' = 2nq + mq + np.
    """
    ab = tensor_raw(a, b)
    pairs = lambda us, rs: np.add.outer(us * b.dim, rs).reshape(-1)
    one_term = np.sort(np.concatenate([pairs(a.ws, b.vs), pairs(a.ws, b.xs), pairs(a.vs, b.ws)]))
    w_idx = np.concatenate([one_term, pairs(a.ws, b.ws)])
    obj = VerObject(a.field, a.m * b.m, len(w_idx))
    d, two_term = obj.dim, obj.xs[len(one_term):]
    # slot i of m1 + nP is a w iff i >= m and i - m is even; t moves u (x) w'_l by one
    # place to u (x) x'_l and w_k (x) r by dim b places to x_k (x) r
    i = w_idx % b.dim - b.m
    rows = np.zeros(d, dtype=np.int64)
    rows[obj.vs], rows[obj.ws] = pairs(a.vs, b.vs), w_idx
    rows[obj.xs] = w_idx + np.where((i >= 0) & (i % 2 == 0), 1, b.dim)
    x_rows = readonly(w_idx[len(one_term):] + b.dim)
    B = zeros(d, d)
    B[rows, np.arange(d)] = 1
    B[x_rows, two_term] = 1
    if not commutes(obj, ab, B):
        raise InternalCheckError("tensor basis does not commute with the t-actions")
    return obj, readonly(B), (readonly(rows), ((two_term, x_rows),) if len(two_term) else ())


def braiding(a, b) -> np.ndarray:
    """The matrix of the braiding c = swap o (rho_a (x) rho_b)(R): a (x) b -> b (x) a on
    Kronecker bases, R summed over the terms of `_R_TERMS` and rho(alpha 1 + beta t) =
    alpha I + beta T; certified equivariant by `commutes`."""
    ab, ba = tensor_raw(a, b), tensor_raw(b, a)
    F, da, db = a.field, a.dim, b.dim
    # an element of A is held as its left regular matrix, whose first column is (alpha, beta)
    rho = lambda f, x: F.mul_arr(x[0, 0], eye(f.dim)) ^ F.mul_arr(x[1, 0], f.t_action())
    R = reduce(np.bitwise_xor, [kron(F, rho(a, x), rho(b, y)) for x, y in _R_TERMS])
    idx = np.arange(da * db)
    C = R[(idx % da) * db + idx // da]  # row r (x) u of C is row u (x) r of R
    if not commutes(ab, ba, C):
        raise InternalCheckError("braiding does not commute with the t-actions")
    return C


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
    F, c = x.field, braiding
    lhs1 = c(x, tensor_raw(y, z))
    rhs1 = mat_mul(F, kron(F, eye(y.dim), c(x, z)), kron(F, c(x, y), eye(z.dim)))
    lhs2 = c(tensor_raw(x, y), z)
    rhs2 = mat_mul(F, kron(F, c(x, z), eye(y.dim)), kron(F, eye(x.dim), c(y, z)))
    return bool(np.array_equal(lhs1, rhs1)), bool(np.array_equal(lhs2, rhs2))


def random_equivariant_matrices(obj: VerObject, rng: np.random.Generator, b: int) -> np.ndarray:
    """A (b, d, d) stack of matrices of random invertible morphisms obj -> obj.

    Block shape: v's map into V + X, w's map anywhere compatible; the v->v
    and w->w blocks are drawn from GL, the rest uniformly, which makes each
    member invertible (and equivariant) by construction.
    """
    F, m, n = obj.field, obj.m, obj.n
    draw = lambda *shape: rng.integers(0, F.order, size=(b, *shape), dtype=np.int64)
    A, E = _random_gl(F, m, rng, b), _random_gl(F, n, rng, b)
    return obj.equivariant_matrix(A, draw(n, m), draw(m, n), E, draw(n, n))


def random_equivariant_matrix(obj: VerObject, rng: np.random.Generator) -> np.ndarray:
    """Matrix of a random invertible morphism obj -> obj: the stack of one."""
    return random_equivariant_matrices(obj, rng, 1)[0]


def random_equivariant_automorphism(obj: VerObject, rng: np.random.Generator) -> Morphism:
    """A random invertible morphism obj -> obj (validated wrapper)."""
    return Morphism(obj, obj, random_equivariant_matrix(obj, rng))


def _random_gl(F: Field, s: int, rng: np.random.Generator, b: int) -> np.ndarray:
    """b uniform members of GL_s as a stack: drawn at once, the singular ones redrawn."""
    M = rng.integers(0, F.order, size=(b, s, s), dtype=np.int64)
    redraw = ~linalg.batch_solve(F, M)[0]
    while redraw.any():
        M[redraw] = rng.integers(0, F.order, size=(int(redraw.sum()), s, s), dtype=np.int64)
        redraw[redraw] = ~linalg.batch_solve(F, M[redraw])[0]
    return M


# -- triangular structure on the Hopf algebra A = K[t]/(t^2) ----------------
# A^(x)n acts on itself by left multiplication: on the basis (1, t), 1 acts as
# I_2 and t as N, elements are sums of Kronecker products and products are
# `mat_mul`s.  A^(x)n has a unit, so this is faithful (x is rho(x) applied to
# 1): an identity holds exactly when its 2^n x 2^n matrices agree.

_N = np.array([[0, 0], [1, 0]], dtype=np.int64)
_R_TERMS = ((eye(2), eye(2)), (_N, _N))  # R = 1 (x) 1 + t (x) t


def check_r_matrix_axioms(F: Field) -> dict[str, bool]:
    """Verify the triangular-structure identities of R exactly in A^(x)2 and
    A^(x)3, and the hexagons of `braiding`, which reads R, on (P, P, P).
    `r_conjugates_coproduct` holds for any R, A being commutative and
    cocommutative; that is also why swap o R is equivariant for any R."""
    I2, I4, swap = eye(2), eye(4), eye(4)[[0, 2, 1, 3]]
    mul = lambda *xs: reduce(partial(mat_mul, F), xs)
    rho = lambda terms: reduce(np.bitwise_xor, [reduce(partial(kron, F), t) for t in terms])
    # Delta(a + bt) = a 1 (x) 1 + b (t (x) 1 + 1 (x) t) on M = aI + bN, in characteristic 2
    delta = lambda M: kron(F, M, I2) ^ kron(F, I2, M) ^ M[0, 0] * I4
    R, R13, Ds = rho(_R_TERMS), rho([(a, I2, b) for a, b in _R_TERMS]), [delta(I2), delta(_N)]
    sides = {
        "r_squared_identity": (mul(R, R), I4),
        "r21_is_inverse": (mul(swap, R, swap, R), I4),
        "coproduct_first_leg": (rho([(delta(a), b) for a, b in _R_TERMS]), mul(R13, kron(F, I2, R))),
        "coproduct_second_leg": (rho([(a, delta(b)) for a, b in _R_TERMS]), mul(R13, kron(F, R, I2))),
        # Delta^op(x) R = R Delta(x) on the generators x = 1, t
        "r_conjugates_coproduct": ([mul(swap, D, swap, R) for D in Ds], [mul(R, D) for D in Ds]),
    }
    report = {key: bool(np.array_equal(*pair)) for key, pair in sides.items()}
    report["hexagon_first_ppp"], report["hexagon_second_ppp"] = hexagons_hold(*[VerObject(F, 0, 1)] * 3)
    return report
