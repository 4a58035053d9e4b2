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
equivariant congruence onto the canonical representative.  Both work on
the free Gram blocks (G_vv, G_vw, G_ww, G_wx) of a whole stack
(`classify_batch`, `canonicalize_batch`); `classify`, `good_pairs`,
`form_invariant` and `canonicalize` are that code with a batch of one.

The construction reduces the unit part on G_vv alone.  The Schur
complement S = G_ww + G_vw^T G_vv^-1 G_vw decouples the v's, which leaves
an n x n problem: the x-pairing M = G_wx and the x-function f = diag(S)
under E in GL_n (the transform's w -> w block), acting by M -> E^T M E and
f -> (E o E)^T f.  Symmetric elimination on M with E tracked, and the
bP/b2P normalisations of f, reduce that pair; the w -> x block of the
transform, which clears the off-diagonal of S, is then read in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .bform import BilinearForm
from .field import Field
from .linalg import block_diag, eye, mat_mul, readonly, zeros
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


def class_inventory(m: int, n: int, F: Field, params=None) -> list[CanonicalClass]:
    """Every canonical class living on m1 + nP over F, in family order:
    the candidates that `CanonicalClass` accepts, with the E and F
    parameters taken from `params` (default: every field element)."""
    choices = F.elements() if params is None else params
    out = []
    for fam in FAMILIES:
        for p in choices if fam in ("E", "F") else [None]:
            try:
                out.append(CanonicalClass(fam, m, n, p))
            except ValueError:
                continue
    return out


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
    blocks.append(eye(m) if fam in ("A", "B") else _alpha2(m))
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


def require_classifiable_field(F: Field):
    """Refuse GF(2), where the classification does not hold."""
    if F.k < 2:
        raise ValueError("classification requires GF(2^k) with k >= 2")


def _classify_grams(obj: VerObject, G: np.ndarray) -> list[CanonicalClass]:
    """`classify_batch` of a stack already valid as Grams on `obj`."""
    F, m, n = obj.field, obj.m, obj.n
    require_classifiable_field(F)
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
#
# Everything below works on the free Gram blocks.  An equivariant T is given
# by its blocks (A, C, D, E, F) (`VerObject.equivariant_matrix`): v -> A v +
# C x, w -> D v + E w + F x, x -> E x.  The reduction chooses A with
# A^T G_vv A = U and E with E^T G_wx E = Mc canonical (`_congruence_basis`),
# normalises the x-function f with E (and, when U = I, with the absorption
# Z below), and reads C, D and F in closed form (`_reduce`).


def _mix(F: Field, X: np.ndarray, cols: list[int], R) -> None:
    """Replace the columns `cols` of X by X[:, cols] @ R, in place."""
    X[:, cols] = mat_mul(F, X[:, cols], np.array(R, dtype=np.int64))


def _congruence_basis(F: Field, M: np.ndarray) -> tuple[np.ndarray, bool]:
    """(E, alternating) with E^T M E canonical for a symmetric invertible M:
    hyperbolic [[0, 1], [1, 0]] blocks on consecutive columns if M is
    alternating (zero diagonal), else the identity.

    Symmetric elimination, whole rows at a time.  A still-active column
    with a nonzero diagonal entry, scaled to 1, is cleared from the other
    active columns, and the active part of M drops the Schur term of that
    pivot; with none left, a hyperbolic pair (k, j) is the pivot, and if a
    unit column g is done already, the three become the unit columns
    g + k, g + j, g + k + j.
    """
    n = len(M)
    M, E = M.copy(), eye(n)
    active = np.ones(n, dtype=bool)
    units: list[int] = []
    pairs: list[int] = []
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
        E ^= mat_mul(F, E[:, piv], rows[::-1])
        M ^= mat_mul(F, rows.T, rows[::-1])
        if len(piv) == 1:
            units += piv
        elif units:
            g = units.pop()
            _mix(F, E, [g] + piv, [[1, 1, 1], [1, 0, 1], [0, 1, 1]])
            units += [g] + piv
        else:
            pairs += piv
    return E[:, units or pairs], not units


def _hyperbolic_tags(F: Field, E: np.ndarray, f: np.ndarray) -> str:
    """C or D, with E's hyperbolic pairs changed in place so that the
    x-function reads 0, or (1, 0, 0, ...) for D.

    On a pair (p, q) with f = (b, a) != 0 the symplectic mix p' = p/sqrt(b)
    (q/sqrt(a) if b = 0), q' = sqrt(a) p + sqrt(b) q gives f = (1, 0).  Each
    further such pair (p2, q2) is cleared against the first (p1, q1) by
    p2' = p2 + p1, q1' = q1 + q2, and the first pair moves to the front.
    """
    tagged = []
    for i in range(0, len(f), 2):
        b, a = int(f[i]), int(f[i + 1])
        if b or a:
            rb, ra = F.sqrt(b), F.sqrt(a)
            p = [F.inv(rb), 0] if b else [0, F.inv(ra)]
            _mix(F, E, [i, i + 1], [[p[0], ra], [p[1], rb]])
            tagged.append(i)
    if not tagged:
        return "C"
    keep, rest = tagged[0], tagged[1:]
    if rest:
        E[:, rest] ^= E[:, [keep]]
        E[:, keep + 1] ^= np.bitwise_xor.reduce(E[:, [i + 1 for i in rest]], axis=1)
    E[:] = E[:, [keep, keep + 1] + [c for c in range(len(f)) if c not in (keep, keep + 1)]]
    return "D"


def _replace_pair(F: Field, E: np.ndarray, f: list[int], i: int, j: int, a: int) -> None:
    """Send bP(y) + bP(z), y != z, on the columns i, j of E (x-function
    values f[i], f[j]) to bP(a) + bP(y+z+a), in place: the orthogonal mix
    [[k, k+1], [k+1, k]] with k^2 = (z+a)/(z+y)."""
    y, z = f[i], f[j]
    if y == z:
        raise ValueError("pair replacement needs distinct scalars")
    k = F.sqrt(F.div(z ^ a, z ^ y))
    _mix(F, E, [i, j], [[k, k ^ 1], [k ^ 1, k]])
    f[i], f[j] = a, y ^ z ^ a


def _pforms_chain(F: Field, E: np.ndarray, f: list[int]) -> list[int]:
    """Rewrite the sum of bP(f_i), scalars not all equal, as
    (n-2) bP(0) + bP(1) + bP(k) by `_replace_pair` steps; returns the
    column order: the zeros, then the 1, then the free scalar."""
    n = len(f)
    if n == 2:
        _replace_pair(F, E, f, 0, 1, 1)
    else:
        while True:
            zero_idx = [i for i, y in enumerate(f) if y == 0]
            if len(zero_idx) >= n - 2:
                break
            nz_idx = [i for i, y in enumerate(f) if y != 0]
            if not zero_idx:
                i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if f[i] != f[j])
                _replace_pair(F, E, f, i, j, 0)
                continue
            z = zero_idx[0]
            ia, ib, ic = nz_idx[0], nz_idx[1], nz_idx[2]
            excl = {0, f[ib], f[ia] ^ f[ic]}
            d = next(e for e in range(1, F.order) if e not in excl)
            _replace_pair(F, E, f, z, ia, d)
            _replace_pair(F, E, f, z, ib, 0)
            _replace_pair(F, E, f, ia, ic, 0)
        nz_idx = [i for i, y in enumerate(f) if y != 0]
        if len(nz_idx) == 1:
            if f[nz_idx[0]] != 1:
                _replace_pair(F, E, f, nz_idx[0], f.index(0), 1)
        elif len(nz_idx) == 2:
            i, j = nz_idx
            if f[i] != f[j]:
                _replace_pair(F, E, f, i, j, 1)
            else:
                z = f.index(0)
                _replace_pair(F, E, f, z, i, 1)
                # scalars at (z, i) are now (1, lam+1); clear against j
                _replace_pair(F, E, f, i, j, 1)
        else:  # pragma: no cover
            raise AssertionError("endgame reached with wrong zero count")
    zeros_at = [i for i, y in enumerate(f) if y == 0]
    one = f.index(1)
    if len(zeros_at) == n - 1:
        free = zeros_at.pop()
    else:
        free = next(i for i in range(n) if i != one and f[i] != 0)
    return [i for i in zeros_at if i != free] + [one, free]


def _reduce(obj: VerObject, G: np.ndarray) -> tuple[np.ndarray, CanonicalClass]:
    """(T, class) for one non-degenerate symmetric compatible Gram: T is
    equivariant and T^T G T is the class's canonical Gram.

    T has the blocks (A, C, D, E, F) of the comment above.  A and E come
    from `_congruence_basis`: A^T G_vv A = U and E^T G_wx E = Mc.  With
    K = G_vv^-1 G_vw, D = K E + A Z and C = E Mc Z^T U keep the v's
    orthogonal to the w's, and the w-w block of T^T G T is
    E^T S E + Z^T U Z + N + N^T, with S = G_ww + G_vw^T K the Schur
    complement and N = E^T G_wx F.  N + N^T has a zero diagonal, and
    F = E Mc N, N the strict upper triangle of E^T S E + Z^T U Z, clears
    everything off it.  What is left is the diagonal
    (E o E)^T diag(S) + diag(Z^T U Z): the x-function f = (E o E)^T diag(S)
    is normalised by changing E (keeping Mc), or, when U = I, absorbed by Z.
    """
    F, m, n = obj.field, obj.m, obj.n
    vv, vw, ww, wx = obj.gram_blocks(G)
    A, v_alt = _congruence_basis(F, vv)
    E, x_alt = _congruence_basis(F, wx)
    # U and Mc are the identity or hyperbolic blocks: their own inverses, and
    # multiplying by one permutes rows by u_rows / x_rows
    u_rows, x_rows = np.arange(m) ^ v_alt, np.arange(n) ^ x_alt
    P = mat_mul(F, A.T, vw)
    S = ww ^ mat_mul(F, P.T, P[u_rows])
    f = np.bitwise_xor.reduce(F.mul_arr(F.mul_arr(E, E), np.diagonal(S)[:, None]), axis=0)
    Z = zeros(m, n)
    param = None
    if not v_alt:
        # U = I: w_k + sqrt(f_k) u_0 has x-function 0
        family = "A" if x_alt else "B"
        Z[0] = [F.sqrt(y) for y in f.tolist()]
    elif x_alt:
        family = _hyperbolic_tags(F, E, f)
    else:
        f = f.tolist()
        if len(set(f)) == 1:
            family, param = "E", f[0]
        else:
            order = _pforms_chain(F, E, f)
            E[:] = E[:, order]
            family, param = "F", 1 ^ f[order[-1]]
    UZ = Z[u_rows]
    N = np.triu(mat_mul(F, mat_mul(F, E.T, S), E) ^ mat_mul(F, Z.T, UZ), 1)
    T = obj.equivariant_matrix(
        A,
        mat_mul(F, E, UZ.T[x_rows]),
        mat_mul(F, A, mat_mul(F, P[u_rows], E) ^ Z),
        E,
        mat_mul(F, E, N[x_rows]),
    )
    return T, CanonicalClass(family, m, n, param)


def canonicalize(beta: BilinearForm) -> tuple[Morphism, BilinearForm, CanonicalClass]:
    """Invertible equivariant T with T^T G T equal to the canonical Gram:
    `canonicalize_batch` with a batch of one.

    The constructive reduction runs on the free Gram blocks (`_reduce`):
    the unit part is the congruence of G_vv alone; the Schur complement
    decouples the v's from the P-part, which becomes the pair of the
    x-pairing G_wx and the x-function f on K^n under the w -> w block E of
    T in GL_n (G_wx -> E^T G_wx E, f -> (E o E)^T f); symmetric elimination
    with the bP/b2P normalisations reduces that pair; and the w -> x block
    of T is read in closed form.  Returns (T, canonical form, class), the class
    being the one this path and the invariant-based `classify` agree on.
    """
    return _canonicalize_grams(beta.obj, beta.gram[None])[0]


def canonicalize_batch(
    obj: VerObject, grams: np.ndarray
) -> list[tuple[Morphism, BilinearForm, CanonicalClass]]:
    """`canonicalize` of each Gram in a (b, d, d) stack on `obj`.

    Raises ValueError, as `classify_batch` does, if any member is not a
    symmetric non-degenerate Gram on `obj` over a field with k >= 2.
    """
    return _canonicalize_grams(obj, obj.as_grams(grams, stacked=True))


def _canonicalize_grams(obj: VerObject, G: np.ndarray):
    """`canonicalize_batch` of a stack already valid as Grams on `obj`.

    Each result is certified three ways: its class equals the invariant
    path's (`_classify_grams`, which also raises the ValueErrors), its
    transform is equivariant, and T^T G T is exactly the canonical Gram;
    else InternalCheckError.  The last also certifies that T is
    invertible: det(T^T G T) = det(T)^2 det(G), G is non-degenerate (the
    invariant path checked it) and so is every canonical Gram.
    """
    F, d = obj.field, obj.dim
    # the invariant path runs first: it raises ValueError for k < 2 and for
    # asymmetric or degenerate forms, which the reduction assumes away
    invariant = _classify_grams(obj, G)
    reduced = [_reduce(obj, g) for g in G]
    for (_, cls), want in zip(reduced, invariant):
        if cls != want:
            raise InternalCheckError(f"constructive path found {cls} but invariants say {want}")
    Ts = np.array([T for T, _ in reduced], dtype=np.int64).reshape(len(G), d, d)
    if not np.array_equal(obj.t_times(Ts), obj.times_t(Ts)):
        raise InternalCheckError("canonicalizing transform does not commute with the t-actions")
    canon = [canonical_rep(cls, F) for cls in invariant]
    want = np.array([c.gram for c in canon], dtype=np.int64).reshape(len(G), d, d)
    if not np.array_equal(linalg.batch_congruence(F, Ts, G), want):
        raise InternalCheckError("transform does not reach the canonical Gram")
    return list(zip((Morphism(obj, obj, T) for T in Ts), canon, invariant))
