"""Classification of non-degenerate symmetric bilinear forms.

Every such form on m1 + nP over GF(2^k), k >= 2, belongs to exactly one of
six canonical families, each with a fixed block-diagonal representative:

  A[m,n]       alpha1^m + (n/2) b2P(0)                    m > 0, n even
  B[m,n]       alpha1^m + n bP(0)                         m > 0, n > 0
  C[m,n]       alpha2^m + (n/2) b2P(0)                    m, n even
  D[m,n]       alpha2^m + b2P(1) + (n-2)/2 b2P(0)         m, n even, n >= 2
  E[m,n](a)    alpha2^m + n bP(a)                         m even, n > 0
  F[m,n](phi)  alpha2^m + (n-2) bP(0) + bP(1) + bP(1+phi) m even, n >= 2,
                                                          (phi, n) != (0, 2)

with building blocks alpha1 = [1], alpha2 = [[0,1],[1,0]],
bP(y) = [[y,1],[1,0]] on P, and b2P(0)/b2P(1) the two 4x4 oscillating
blocks on 2P.  The E parameter is the slope of the good-pair line; the F
parameter is the form invariant (1 + y for the representative above), which
is additive under direct sums.

Two classification paths are implemented and cross-checked: `classify`
reads off the invariants (alternating flag, good-pair space, form
invariant), while `canonicalize` constructs an explicit invertible
equivariant congruence onto the canonical representative.  The invariants
are decided on the free Gram blocks for a whole stack at once
(`classify_batch`); `classify`, `good_pairs` and `form_invariant` are that
code with a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .bform import BilinearForm
from .field import Field
from .linalg import block_diag, congruence, eye, mat_mul, mat_vec, null_space, readonly, zeros
from .verobj import Morphism, VerObject

FAMILIES = ("A", "B", "C", "D", "E", "F")


class InternalCheckError(RuntimeError):
    """A cross-check between independent computation paths failed."""


# -- good pairs ---------------------------------------------------------------


@dataclass(frozen=True)
class GoodPairSpace:
    """Solution space of k*beta(u,t.u) = l*beta(u,u) inside K^2.

    shape is one of "zero", "k_axis" (multiples of (1,0)), "slope"
    (multiples of (witness, 1)), or "full".
    """

    shape: str
    witness: int | None = None

    def to_json(self) -> dict:
        return {"shape": self.shape, "witness": self.witness}


def good_pairs(beta: BilinearForm) -> GoodPairSpace:
    """Exact good-pair space, decided on the standard basis vectors.

    For each basis vector b the pair (k, l) must satisfy
    k*beta(b, t.b) + l*beta(b, b) = 0; both quadratic functionals are
    additive in characteristic 2, so basis vectors suffice.
    """
    if not beta.is_symmetric():
        raise ValueError("good pairs are defined for symmetric forms")
    return _good_pair_spaces(beta.field, beta.obj.gram_blocks(beta.gram[None]))[0]


def _diag(a: np.ndarray) -> np.ndarray:
    return np.diagonal(a, axis1=-2, axis2=-1)


def _good_pair_spaces(F: Field, blocks) -> list[GoodPairSpace]:
    """`good_pairs` of a stack of symmetric compatible Grams, given by its
    `gram_blocks`: the null space of the rows (beta(b, t.b), beta(b, b)) is
    K^2 if all rows are zero, 0 if two are not proportional, and else the
    solutions of k*r0 + l*r1 = 0 for any nonzero row: the k-axis if r0 = 0,
    else the slope r1/r0."""
    vv, _, ww, wx = blocks
    b, m, n = len(vv), vv.shape[-1], wx.shape[-1]
    # rows for the v's and w's (x rows are zero), plus a zero row for dim 0
    rows = np.zeros((b, m + n + 1, 2), dtype=np.int64)
    rows[:, :m, 1] = _diag(vv)
    rows[:, m:-1, 0] = _diag(wx)
    rows[:, m:-1, 1] = _diag(ww)
    # the first nonzero row; at rank 1 every row is proportional to it
    ref = rows[np.arange(b), rows.any(axis=2).argmax(axis=1)]
    cross = F.mul_arr(ref[:, None, 0], rows[..., 1]) ^ F.mul_arr(ref[:, None, 1], rows[..., 0])
    rank2 = cross.any(axis=1)
    slope = F.mul_arr(ref[:, 1], F.inv_arr(ref[:, 0]))
    out = []
    for (r0, r1), two, w in zip(ref.tolist(), rank2.tolist(), slope.tolist()):
        if two:
            out.append(GoodPairSpace("zero"))
        elif r0:
            out.append(GoodPairSpace("slope", w))
        elif r1:
            out.append(GoodPairSpace("k_axis"))
        else:
            out.append(GoodPairSpace("full"))
    return out


# -- X-data and the form invariant --------------------------------------------


def _require_alternating_nondegenerate(beta: BilinearForm) -> int:
    """Raise ValueError unless beta is alternating and non-degenerate;
    returns its form invariant, which the block test computes anyway."""
    if not beta.is_alternating():
        raise ValueError("operation requires an alternating form")
    nondegenerate, invariant = _block_invariants(beta.field, beta.obj.gram_blocks(beta.gram[None]))
    if not nondegenerate[0]:
        raise ValueError("operation requires a non-degenerate form")
    return int(invariant[0])


def x_matrix(beta: BilinearForm) -> np.ndarray:
    """Gram of the induced pairing on X = im(t), on the standard x-basis.

    Entry (j, k) is beta(x_j, w_k); the preimage choice does not matter and
    the matrix is symmetric and invertible for non-degenerate alternating
    forms.
    """
    _require_alternating_nondegenerate(beta)
    return beta.obj.gram_blocks(beta.gram)[3].copy()


def x_function(beta: BilinearForm) -> np.ndarray:
    """Values f(x_k) = beta(w_k, w_k); well-defined on ker-t cosets."""
    _require_alternating_nondegenerate(beta)
    return beta.obj.gram_blocks(beta.gram)[2].diagonal().copy()


def form_invariant(beta: BilinearForm) -> int:
    """The basis-invariant scalar sum_i f(x_i) * (M^-1)_ii."""
    return _require_alternating_nondegenerate(beta)


def _block_invariants(F: Field, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(nondegenerate, form invariant) of a stack of symmetric compatible
    Grams, given by its `gram_blocks`.  Block lemma: G is non-degenerate
    iff G_vv and G_wx are invertible (eliminating the x-rows [0, G_xw, 0]
    against the w-columns leaves G_vv).  The invariant sum_i f_i
    (G_wx^-1)_ii, f the G_ww diagonal, means something where G is
    non-degenerate and alternating."""
    vv, _, ww, wx = blocks
    ok_v, _ = linalg.batch_invert(F, vv)
    ok_x, wx_inv = linalg.batch_invert(F, wx)
    invariant = np.bitwise_xor.reduce(F.mul_arr(_diag(ww), _diag(wx_inv)), axis=1)
    return ok_v & ok_x, invariant


# -- canonical classes ---------------------------------------------------------


@dataclass(frozen=True)
class CanonicalClass:
    """One of the six families, with sizes and an optional field parameter."""

    family: str
    m: int
    n: int
    param: int | None = None

    def __post_init__(self):
        fam, m, n, p = self.family, self.m, self.n, self.param
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if m < 0 or n < 0:
            raise ValueError("sizes must be non-negative")
        needs_param = fam in ("E", "F")
        if needs_param and p is None:
            raise ValueError(f"family {fam} requires a parameter")
        if not needs_param and p is not None:
            raise ValueError(f"family {fam} takes no parameter")
        ok = {
            "A": m > 0 and n % 2 == 0,
            "B": m > 0 and n > 0,
            "C": m % 2 == 0 and n % 2 == 0,
            "D": m % 2 == 0 and n % 2 == 0 and n >= 2,
            "E": m % 2 == 0 and n > 0,
            "F": m % 2 == 0 and n >= 2 and (p, n) != (0, 2),
        }[fam]
        if not ok:
            raise ValueError(f"sizes (m={m}, n={n}, param={p}) violate family {fam} constraints")

    def label(self) -> str:
        if self.param is None:
            return f"{self.family}[{self.m},{self.n}]"
        return f"{self.family}[{self.m},{self.n}]({self.param})"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "param": self.param,
            "label": self.label(),
        }

    def __str__(self):
        return self.label()


def _alpha1(m: int) -> np.ndarray:
    return eye(m)


def _alpha2(m: int) -> np.ndarray:
    G = zeros(m, m)
    for i in range(0, m, 2):
        G[i, i + 1] = 1
        G[i + 1, i] = 1
    return G


def _beta_p(y: int) -> np.ndarray:
    return np.array([[y, 1], [1, 0]], dtype=np.int64)


def _beta_2p(tag: int) -> np.ndarray:
    G = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=np.int64
    )
    if tag:
        G[0, 0] = 1
    return G


@lru_cache(maxsize=None)
def canonical_rep(cls: CanonicalClass, F: Field) -> BilinearForm:
    """The block-diagonal representative Gram of a canonical class.

    Cached, with the Gram made read-only.
    """
    fam, m, n, p = cls.family, cls.m, cls.n, cls.param
    if p is not None and not 0 <= p < F.order:
        raise ValueError(f"parameter {p} is not an element of {F!r}")
    if fam in ("E", "F") and F.k < 2:
        raise ValueError("parameterised classes need a field with k >= 2")
    blocks: list[np.ndarray] = []
    blocks.append(_alpha1(m) if fam in ("A", "B") else _alpha2(m))
    if fam == "A" or fam == "C":
        blocks += [_beta_2p(0)] * (n // 2)
    elif fam == "B":
        blocks += [_beta_p(0)] * n
    elif fam == "D":
        blocks += [_beta_2p(1)] + [_beta_2p(0)] * ((n - 2) // 2)
    elif fam == "E":
        blocks += [_beta_p(p)] * n
    else:  # F
        blocks += [_beta_p(0)] * (n - 2) + [_beta_p(1), _beta_p(1 ^ p)]
    rep = BilinearForm(VerObject(F, m, n), block_diag(*blocks))
    readonly(rep.gram)
    return rep


# -- invariant-based classification -------------------------------------------


def classify(beta: BilinearForm) -> CanonicalClass:
    """Assign the canonical class from alternation, good pairs and the
    form invariant: `classify_batch` with a batch of one."""
    return _classify_grams(beta.obj, beta.gram[None])[0]


def classify_batch(obj: VerObject, grams: np.ndarray) -> list[CanonicalClass]:
    """Canonical class of each Gram in a (b, d, d) stack on `obj`.

    Raises ValueError if the stack is not Grams on `obj`
    (`VerObject.as_grams`) and, as `classify` does, for a field with k < 2
    or any asymmetric or degenerate Gram.
    """
    return _classify_grams(obj, obj.as_grams(grams, stacked=True))


def _classify_grams(obj: VerObject, G: np.ndarray) -> list[CanonicalClass]:
    """`classify_batch` of a stack already valid as Grams on `obj`."""
    F, m, n = obj.field, obj.m, obj.n
    if F.k < 2:
        raise ValueError("classification requires GF(2^k) with k >= 2")
    if not np.array_equal(G, np.swapaxes(G, 1, 2)):
        raise ValueError("classification requires a symmetric form")
    blocks = obj.gram_blocks(G)
    nondegenerate, invariant = _block_invariants(F, blocks)
    if not nondegenerate.all():
        raise ValueError("classification requires a non-degenerate form")
    alternating = ~_diag(blocks[0]).any(axis=1)
    spaces = _good_pair_spaces(F, blocks)
    out = []
    for alt, gp, inv in zip(alternating.tolist(), spaces, invariant.tolist()):
        if not alt:
            if gp.shape == "k_axis":
                out.append(CanonicalClass("A", m, n))
            elif gp.shape == "zero":
                out.append(CanonicalClass("B", m, n))
            else:
                raise InternalCheckError(f"non-alternating form with good pairs {gp}")
        elif gp.shape == "full":
            out.append(CanonicalClass("C", m, n))
        elif gp.shape == "k_axis":
            out.append(CanonicalClass("D", m, n))
        elif gp.shape == "slope":
            out.append(CanonicalClass("E", m, n, gp.witness))
        else:
            out.append(CanonicalClass("F", m, n, inv))
    return out


# -- constructive canonicalization --------------------------------------------


def _beta_vec(F: Field, G: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    return linalg.dot(F, u, mat_vec(F, G, v))


def _scaled(F: Field, c: int, v: np.ndarray) -> np.ndarray:
    return F.mul_arr(np.int64(c), v)


def _reduce_unit_part(F: Field, G: np.ndarray, V: np.ndarray):
    """Classical canonical form of the restriction to the 1-part.

    Returns (V', alternating) where the columns of V' carry either the
    identity Gram (non-alternating case) or antidiagonal 2x2 blocks.
    """
    cols = [V[:, j].copy() for j in range(V.shape[1])]
    bv = lambda u, v: _beta_vec(F, G, u, v)
    alternating = all(bv(c, c) == 0 for c in cols)
    if alternating:
        pairs = []
        rest = cols
        while rest:
            c0 = rest.pop(0)
            j = next(i for i, c in enumerate(rest) if bv(c0, c))
            c1 = _scaled(F, F.inv(bv(c0, rest[j])), rest.pop(j))
            rest = [
                c ^ _scaled(F, bv(c, c1), c0) ^ _scaled(F, bv(c, c0), c1) for c in rest
            ]
            pairs += [c0, c1]
        out = pairs
    else:
        done: list[np.ndarray] = []
        rest = cols
        while rest:
            idx = next((i for i, c in enumerate(rest) if bv(c, c)), None)
            if idx is not None:
                u = rest.pop(idx)
                u = _scaled(F, F.inv(F.sqrt(bv(u, u))), u)
                rest = [c ^ _scaled(F, bv(c, u), u) for c in rest]
                done.append(u)
            else:
                # remaining block is alternating: pair it up, then absorb
                # each hyperbolic pair into a unit vector three at a time
                g = done.pop()
                c0 = rest.pop(0)
                j = next(i for i, c in enumerate(rest) if bv(c0, c))
                c1 = _scaled(F, F.inv(bv(c0, rest[j])), rest.pop(j))
                rest = [
                    c ^ _scaled(F, bv(c, c1), c0) ^ _scaled(F, bv(c, c0), c1)
                    for c in rest
                ]
                done += [g ^ c0, g ^ c1, g ^ c0 ^ c1]
        out = done
    Vp = np.column_stack(out) if out else zeros(V.shape[0], 0)
    return Vp, alternating


def _orth_within(F: Field, G: np.ndarray, span: np.ndarray, killers: list[np.ndarray]) -> np.ndarray:
    """Vectors of the span orthogonal to every killer."""
    K = np.stack(killers)
    rows = mat_mul(F, mat_mul(F, K, G), span)
    return mat_mul(F, span, null_space(F, rows))


def _extract_p_blocks(F: Field, G: np.ndarray, T: np.ndarray, S: np.ndarray):
    """Split the P-part into orthogonal bP(y) and b2P(tag) blocks.

    Returns (p_blocks, tp_blocks): p_blocks are (u, y) with beta(u,t.u) = 1
    and y = beta(u,u); tp_blocks are (p, q, tag) carrying the exact
    canonical 4x4 Gram on (p, t.p, q, t.q).
    """
    p_blocks: list[tuple[np.ndarray, int]] = []
    tp_blocks: list[tuple[np.ndarray, np.ndarray, int]] = []
    bv = lambda u, v: _beta_vec(F, G, u, v)
    while S.shape[1]:
        cols = [S[:, j] for j in range(S.shape[1])]
        osc = next((c for c in cols if bv(c, mat_vec(F, T, c))), None)
        if osc is not None:
            u = _scaled(F, F.inv(F.sqrt(bv(osc, mat_vec(F, T, osc)))), osc)
            p_blocks.append((u, bv(u, u)))
            S = _orth_within(F, G, S, [u, mat_vec(F, T, u)])
            continue
        # oscillating piece: carve out a 2P block
        p = next(c for c in cols if mat_vec(F, T, c).any())
        tp = mat_vec(F, T, p)
        q = next(c for c in cols if bv(tp, c))
        s = F.inv(F.sqrt(bv(tp, q)))
        p, q = _scaled(F, s, p), _scaled(F, s, q)
        q = q ^ _scaled(F, bv(p, q), mat_vec(F, T, q))
        b, a = bv(p, p), bv(q, q)
        if b == 0 and a != 0:
            p, q = q, p
            b, a = a, 0
        if a == 0 and b == 0:
            tag = 0
        elif a == 0:
            p = _scaled(F, F.inv(F.sqrt(b)), p)
            q = _scaled(F, F.sqrt(b), q)
            tag = 1
        else:
            rb = F.sqrt(b)
            p_new = _scaled(F, F.inv(rb), p ^ _scaled(F, b, mat_vec(F, T, q)))
            q = _scaled(F, F.sqrt(a), p) ^ _scaled(F, rb, q)
            p = p_new
            tag = 1
        tp_blocks.append((p, q, tag))
        S = _orth_within(F, G, S, [p, mat_vec(F, T, p), q, mat_vec(F, T, q)])
    return p_blocks, tp_blocks


def _merge_mixture(F, G, T, p_blocks, tp_blocks):
    """Rewrite one bP + one b2P as three bP blocks until homogeneous."""
    bv = lambda u, v: _beta_vec(F, G, u, v)
    while p_blocks and tp_blocks:
        u, y = p_blocks.pop(0)
        qq, rr, tag = tp_blocks.pop(0)
        p1 = u ^ qq ^ rr ^ _scaled(F, y ^ tag, mat_vec(F, T, u))
        q1 = u ^ qq
        six = np.column_stack(
            [u, mat_vec(F, T, u), qq, mat_vec(F, T, qq), rr, mat_vec(F, T, rr)]
        )
        rest = _orth_within(
            F, G, six, [p1, mat_vec(F, T, p1), q1, mat_vec(F, T, q1)]
        )
        third = next(
            rest[:, j] for j in range(rest.shape[1]) if bv(rest[:, j], mat_vec(F, T, rest[:, j]))
        )
        third = _scaled(F, F.inv(F.sqrt(bv(third, mat_vec(F, T, third)))), third)
        for vec in (p1, q1, third):
            p_blocks.append((vec, bv(vec, vec)))
    return p_blocks, tp_blocks


def _replace_pair(F, G, T, p_blocks, i: int, j: int, a: int):
    """Congruence sending bP(y) + bP(z), y != z, to bP(a) + bP(y+z+a)."""
    u1, y = p_blocks[i]
    u2, z = p_blocks[j]
    if y == z:
        raise ValueError("pair replacement needs distinct scalars")
    k = F.sqrt(F.div(z ^ a, z ^ y))
    c = F.mul(k, y)
    dd = F.mul(k ^ 1, z)
    u3 = (
        _scaled(F, k, u1)
        ^ _scaled(F, k ^ 1, u2)
        ^ _scaled(F, c, mat_vec(F, T, u1))
        ^ _scaled(F, dd, mat_vec(F, T, u2))
    )
    u4 = _scaled(F, k ^ 1, u1) ^ _scaled(F, k, u2)
    p_blocks[i] = (u3, a)
    p_blocks[j] = (u4, y ^ z ^ a)


def _pforms_chain(F, G, T, p_blocks):
    """Rewrite sum of bP(y_i), scalars not all equal, as
    (n-2) bP(0) + bP(1) + bP(k); returns the reordered blocks."""
    n = len(p_blocks)
    scal = lambda: [y for _, y in p_blocks]
    if n == 2:
        _replace_pair(F, G, T, p_blocks, 0, 1, 1)
    else:
        while True:
            ys = scal()
            zero_idx = [i for i, y in enumerate(ys) if y == 0]
            if len(zero_idx) >= n - 2:
                break
            nz_idx = [i for i, y in enumerate(ys) if y != 0]
            if not zero_idx:
                i, j = next(
                    (i, j) for i in range(n) for j in range(i + 1, n) if ys[i] != ys[j]
                )
                _replace_pair(F, G, T, p_blocks, i, j, 0)
                continue
            z = zero_idx[0]
            ia, ib, ic = nz_idx[0], nz_idx[1], nz_idx[2]
            ya, yb, yc = ys[ia], ys[ib], ys[ic]
            excl = {0, yb, ya ^ yc}
            d = next(e for e in range(1, F.order) if e not in excl)
            _replace_pair(F, G, T, p_blocks, z, ia, d)
            _replace_pair(F, G, T, p_blocks, z, ib, 0)
            _replace_pair(F, G, T, p_blocks, ia, ic, 0)
        ys = scal()
        nz_idx = [i for i, y in enumerate(ys) if y != 0]
        if len(nz_idx) == 1:
            lam = ys[nz_idx[0]]
            if lam != 1:
                _replace_pair(F, G, T, p_blocks, nz_idx[0], [i for i in range(n) if ys[i] == 0][0], 1)
        elif len(nz_idx) == 2:
            i, j = nz_idx
            if ys[i] != ys[j]:
                _replace_pair(F, G, T, p_blocks, i, j, 1)
            else:
                z = [i2 for i2 in range(n) if ys[i2] == 0][0]
                _replace_pair(F, G, T, p_blocks, z, i, 1)
                # scalars at (z, i) are now (1, lam+1); clear against j
                _replace_pair(F, G, T, p_blocks, i, j, 1)
        else:  # pragma: no cover
            raise AssertionError("endgame reached with wrong zero count")
    # order: zeros first, then the 1, then the free scalar
    ys = scal()
    ones = [i for i, y in enumerate(ys) if y == 1]
    if len([y for y in ys if y == 0]) == n - 1:
        free = [i for i in range(n) if ys[i] == 0][-1]
        one = ones[0]
    else:
        one = ones[0]
        free = next(i for i in range(n) if i != one and ys[i] != 0)
    order = [i for i in range(n) if ys[i] == 0 and i != free] + [one, free]
    return [p_blocks[i] for i in order]


def canonicalize(beta: BilinearForm) -> tuple[Morphism, BilinearForm, CanonicalClass]:
    """Invertible equivariant T with T^T G T equal to the canonical Gram.

    Follows the constructive reduction: split off a complement of im(t) in
    ker(t), normalise its classical form, carve the P-part into bP/b2P
    blocks, homogenise, and normalise block scalars.  The result is
    cross-checked against the invariant-based `classify`.  Returns
    (T, canonical form, class), the class being the one both paths agree on.
    """
    # the invariant path runs first: it raises ValueError for k < 2 and for
    # asymmetric or degenerate forms, which the reduction below assumes away
    invariant_cls = classify(beta)
    F = beta.field
    obj = beta.obj
    G = beta.gram
    T = obj.t_action()
    m, n = obj.m, obj.n
    bv = lambda u, v: _beta_vec(F, G, u, v)

    if m:
        # the v-slots span a complement of im(t) in ker(t)
        Vp, v_alt = _reduce_unit_part(F, G, eye(obj.dim)[:, obj.vs])
    else:
        Vp, v_alt = zeros(obj.dim, 0), True
    if n:
        S = null_space(F, mat_mul(F, Vp.T, G)) if m else eye(obj.dim)
        p_blocks, tp_blocks = _extract_p_blocks(F, G, T, S)
        p_blocks, tp_blocks = _merge_mixture(F, G, T, p_blocks, tp_blocks)
    else:
        p_blocks, tp_blocks = [], []

    param = None
    if not v_alt:
        g = Vp[:, 0].copy()
        if tp_blocks:
            family = "A"
            new_tp = []
            for p, q, tag in tp_blocks:
                if tag:
                    tq = mat_vec(F, T, q)
                    g, p = g ^ tq, g ^ p
                new_tp.append((p, q, 0))
            tp_blocks = new_tp
        elif p_blocks:
            family = "B"
            new_p = []
            for u, y in p_blocks:
                if y:
                    r = F.sqrt(y)
                    u_new = _scaled(F, r, g) ^ u
                    g = g ^ _scaled(F, r, mat_vec(F, T, u))
                    u = u_new
                new_p.append((u, 0))
            p_blocks = new_p
        else:
            family = "A"
        Vp = Vp.copy()
        Vp[:, 0] = g
    else:
        if tp_blocks:
            ones = [i for i, b in enumerate(tp_blocks) if b[2]]
            while len(ones) >= 2:
                i1, i2 = ones[0], ones[1]
                u1, u2, _ = tp_blocks[i1]
                u3, u4, _ = tp_blocks[i2]
                tp_blocks[i1] = (u1 ^ u3, u2, 0)
                tp_blocks[i2] = (u3 ^ mat_vec(F, T, u2), u2 ^ u4, 1)
                ones = [i for i, b in enumerate(tp_blocks) if b[2]]
            if ones:
                family = "D"
                tp_blocks = [tp_blocks[ones[0]]] + [
                    b for i, b in enumerate(tp_blocks) if i != ones[0]
                ]
            else:
                family = "C"
        elif p_blocks:
            ys = {y for _, y in p_blocks}
            if len(ys) == 1:
                family = "E"
                param = ys.pop()
            else:
                family = "F"
                p_blocks = _pforms_chain(F, G, T, p_blocks)
                param = 1 ^ p_blocks[-1][1]
        else:
            family = "C"

    cols = [Vp[:, j] for j in range(Vp.shape[1])]
    for u, _y in p_blocks:
        cols += [u, mat_vec(F, T, u)]
    for p, q, _tag in tp_blocks:
        cols += [p, mat_vec(F, T, p), q, mat_vec(F, T, q)]
    Tmat = np.column_stack(cols) if cols else zeros(0, 0)

    cls = CanonicalClass(family, m, n, param)
    if cls != invariant_cls:
        raise InternalCheckError(
            f"constructive path found {cls} but invariants say {invariant_cls}"
        )
    canon = canonical_rep(cls, F)
    transform = Morphism(obj, obj, Tmat)
    if not transform.is_invertible():
        raise InternalCheckError("canonicalizing transform is singular")
    if not np.array_equal(congruence(F, Tmat, G), canon.gram):
        raise InternalCheckError("transform does not reach the canonical Gram")
    return transform, canon, cls
