"""Classification of non-degenerate symmetric bilinear forms.

Every such form on m1 + nP over GF(2^k), 1 <= k <= 16, belongs to exactly
one of six canonical families, each with a fixed block-diagonal representative:

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
f -> (E o E)^T f.  Symmetric elimination brings M to Mc, I or hyperbolic.
In characteristic 2, g = sqrt(f) then moves linearly, to R^T g under
E -> E R keeping Mc, and at most two transvections take it to 0 (C), e_0
(D), itself if constant (E) or (0, ..., 0, 1, 1 + sum g) (F).  The w -> x
block of the transform, which clears the off-diagonal of S, is then read
in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .bform import BilinearForm
from .field import Field
from .linalg import congruence, eye, mat_mul, readonly, zeros
from .verobj import InternalCheckError, Morphism, VerObject, commutes

FAMILIES = ("A", "B", "C", "D", "E", "F")
_E = FAMILIES.index("E")  # E and F, the last two families, take a parameter


# -- good pairs ---------------------------------------------------------------


@dataclass(frozen=True)
class GoodPairSpace:
    """Solution space of k*beta(u,t.u) = l*beta(u,u) inside K^2.

    shape is one of "zero", "k_axis" (multiples of (1,0)), "slope"
    (multiples of (witness, 1)), or "full".
    """

    shape: str
    witness: int | None = None
    SHAPES = ("full", "k_axis", "slope", "zero")  # as `_good_pair_shapes` indexes them

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
    shape, slope = _good_pair_shapes(beta.field, beta.obj.gram_blocks(beta.gram[None]))
    return GoodPairSpace(GoodPairSpace.SHAPES[shape[0]], int(slope[0]) if shape[0] == 2 else None)


def _diag(a: np.ndarray) -> np.ndarray:
    return a.diagonal(0, -2, -1)


def _good_pair_shapes(F: Field, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(shape index into `GoodPairSpace.SHAPES`, slope) of a stack of
    symmetric compatible Grams, given by its `gram_blocks`: the null space of
    the rows (beta(b, t.b), beta(b, b)) is K^2 if all rows are zero, 0 if two
    are not proportional, and else the solutions of k*r0 + l*r1 = 0 for any
    nonzero row: the k-axis if r0 = 0, else the slope r1/r0."""
    vv, _, ww, wx = blocks
    b, m, n = len(vv), vv.shape[-1], wx.shape[-1]
    # rows for the v's and w's (x rows are zero), plus a zero row for dim 0
    rows = np.zeros((b, m + n + 1, 2), dtype=np.int64)
    rows[:, :m, 1] = _diag(vv)
    rows[:, m:-1, 0] = _diag(wx)
    rows[:, m:-1, 1] = _diag(ww)
    # the first nonzero row; at rank 1 every row is proportional to it
    ref = rows[np.arange(b), rows.any(axis=2).argmax(axis=1)]
    cross = F.mul_arr(ref[:, None, :], rows[..., ::-1])  # ref's r0 and r1 times each row's r1 and r0
    shape = np.where((cross[..., 0] ^ cross[..., 1]).any(axis=1), 3, np.where(ref[:, 0] != 0, 2, ref[:, 1] != 0))
    return shape, F.mul_arr(ref[:, 1], F.inv_arr(ref[:, 0]))


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
    non-degenerate and alternating.  It is g^T G_wx^-1 g with g = sqrt(f),
    one solve: N = G_wx^-1 is symmetric, so g^T N g = sum_i g_i^2 N_ii +
    sum_{i<j} 2 g_i g_j N_ij, and 2 = 0."""
    vv, _, ww, wx = blocks
    g = F.sqrt_arr(_diag(ww))
    ok_v, _ = linalg.batch_solve(F, vv)
    ok_x, x = linalg.batch_solve(F, wx, g[..., None])
    invariant = np.bitwise_xor.reduce(F.mul_arr(g, x[..., 0]), axis=1)
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
        if not self.admits(fam, m, n, p):
            raise ValueError(f"sizes (m={m}, n={n}, param={p}) violate family {fam} constraints")

    @staticmethod
    def admits(fam: str, m: int, n: int, p=None):
        """Whether the family lives on m1 + nP with parameter p, elementwise for an array p."""
        return {
            "A": m > 0 and n % 2 == 0,
            "B": m > 0 and n > 0,
            "C": m % 2 == 0 and n % 2 == 0,
            "D": m % 2 == 0 and n % 2 == 0 and n >= 2,
            "E": m % 2 == 0 and n > 0,
            "F": m % 2 == 0 and n >= 2 and (n != 2) | (p != 0),
        }[fam]

    def code(self, q: int) -> int:
        """The class over GF(q) as one integer, family index * q + parameter
        (0 for none), as `_class_codes` writes it; `from_code` reads it."""
        return FAMILIES.index(self.family) * q + (self.param or 0)

    @classmethod
    def from_code(cls, code: int, m: int, n: int, q: int) -> "CanonicalClass":
        family, param = divmod(code, q)
        return cls(FAMILIES[family], m, n, param if family >= _E else None)

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
    """Every canonical class living on m1 + nP over F, in family order, with
    the E and F parameters taken from `params` (default: every field
    element): each family's `CanonicalClass.admits` read once, on them all."""
    choices = np.arange(F.order) if params is None else np.asarray(params, dtype=np.int64)
    out = []
    for fam in FAMILIES:
        ps = choices if fam in ("E", "F") else np.array([None])
        kept = ps[np.broadcast_to(CanonicalClass.admits(fam, m, n, ps), ps.shape)]
        out += [CanonicalClass(fam, m, n, p) for p in kept.tolist()]
    return out


def _unit_block(s: int, hyperbolic: bool) -> np.ndarray:
    """I_s, or with `hyperbolic` its rows swapped in pairs: [[0, 1], [1, 0]] blocks."""
    I = eye(s)
    return I.reshape(s // 2, 2, s)[:, ::-1].reshape(s, s) if hyperbolic else I


@lru_cache(maxsize=None)
def canonical_rep(cls: CanonicalClass, F: Field) -> BilinearForm:
    """The representative of a canonical class, from the free Gram blocks
    that `_reduce` reaches: G_vv = U, the identity (A, B) or hyperbolic
    [[0, 1], [1, 0]] pairs on consecutive v's; G_vw = 0; G_ww = diag(f) for
    the x-function f = 0, e_0 (D), (p, ..., p) (E) or (0, ..., 0, 1, 1 + p) (F);
    G_wx = Mc, hyperbolic (A, C, D) or the identity.

    Cached, with the Gram made read-only.
    """
    fam, m, n, p = cls.family, cls.m, cls.n, cls.param
    if p is not None and not 0 <= p < F.order:
        raise ValueError(f"parameter {p} is not an element of {F!r}")
    f = np.zeros(n, dtype=np.int64)
    if fam == "D":
        f[0] = 1
    elif fam == "E":
        f[:] = p
    elif fam == "F":
        f[-2:] = 1, 1 ^ p
    U, Mc = _unit_block(m, fam not in ("A", "B")), _unit_block(n, fam in ("A", "C", "D"))
    obj = VerObject(F, m, n)
    rep = BilinearForm(obj, obj.gram_from_blocks(U, zeros(m, n), np.diag(f), Mc))
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
    (`VerObject.as_grams`) and, as `classify` does, for any asymmetric or
    degenerate Gram.
    """
    return _classify_grams(obj, obj.as_grams(grams, stacked=True))


# family index by 4 * (not alternating) + good-pair shape; -1 where no family has the pair
_FAMILY_OF = np.array([2, 3, 4, 5, -1, 0, -1, 1])


def _class_codes(obj: VerObject, G: np.ndarray) -> np.ndarray:
    """The array core of `_classify_grams`: each member's `CanonicalClass.code`, from alternation, good
    pairs and the form invariant, rising along `class_inventory`; -1 where `_block_invariants` finds it degenerate."""
    F = obj.field
    if not (G == G.swapaxes(1, 2)).all():
        raise ValueError("classification requires a symmetric form")
    blocks = obj.gram_blocks(G)
    nondegenerate, invariant = _block_invariants(F, blocks)
    shape, slope = _good_pair_shapes(F, blocks)
    family = _FAMILY_OF[4 * _diag(blocks[0]).any(axis=1) + shape]
    if (bad := (family < 0) & nondegenerate).any():
        raise InternalCheckError(f"non-alternating form with good pairs {GoodPairSpace.SHAPES[shape[bad][0]]}")
    return np.where(nondegenerate, family * F.order + np.where(family == _E, slope, invariant) * (family >= _E), -1)


def _classify_grams(obj: VerObject, G: np.ndarray) -> list[CanonicalClass]:
    """`classify_batch` of a stack already valid as Grams on `obj`: its
    `_class_codes`, one shared `CanonicalClass` per distinct code."""
    codes, q = _class_codes(obj, G).tolist(), obj.field.order
    if -1 in (distinct := set(codes)):
        raise ValueError("classification requires a non-degenerate form")
    made = {c: CanonicalClass.from_code(c, obj.m, obj.n, q) for c in distinct}
    return [made[c] for c in codes]


def inventory_indices(obj: VerObject, grams: np.ndarray, inventory: list[CanonicalClass]) -> np.ndarray:
    """Each Gram's class in a (b, d, d) stack on `obj` as its index in `inventory`,
    len(inventory) for a class outside it and -1 for a degenerate Gram: `classify_batch`
    without the objects, through one lookup table over the class codes."""
    q = obj.field.order
    lookup = np.append(np.full(len(FAMILIES) * q, len(inventory)), -1)  # code -1 reads the last slot
    lookup[[cls.code(q) for cls in inventory]] = np.arange(len(inventory))
    return lookup[_class_codes(obj, obj.as_grams(grams, stacked=True))]


# -- constructive canonicalization --------------------------------------------
#
# Everything below works on the free Gram blocks.  An equivariant T is given
# by its blocks (A, C, D, E, F) (`VerObject.equivariant_matrix`): v -> A v +
# C x, w -> D v + E w + F x, x -> E x.  The reduction chooses A with
# A^T G_vv A = U and E with E^T G_wx E = Mc canonical (`_congruence_basis`),
# normalises the x-function with E (`_move_x_function`) or, when U = I,
# absorbs it by Z, and reads C, D and F in closed form (`_reduce`).


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
            mixed = [g] + piv
            E[:, mixed] = mat_mul(F, E[:, mixed], [[1, 1, 1], [1, 0, 1], [0, 1, 1]])
            units += mixed
        else:
            pairs += piv
    return E[:, units or pairs], not units


def _transvection(F: Field, E: np.ndarray, x_rows: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
    """E <- E R, in place, for the transvection R = I + c Mc u u^T with
    u = g + h isotropic and c = 1/b(u, g), b(y, z) = y^T Mc z:
    R^T Mc R = Mc + c^2 b(u, u) u u^T = Mc, and R^T g = g + c b(u, g) u = h."""
    u = g ^ h
    c = F.inv(linalg.dot(F, u[x_rows], g))
    E ^= F.mul_arr(linalg.mat_vec(F, E, u[x_rows])[:, None], F.mul_arr(c, u))


def _move_x_function(F: Field, E: np.ndarray, x_rows: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
    """Change E in place to E R, R^T Mc R = Mc, with R^T g = h, by at most
    two transvections (J. Dieudonne, 1955; D. E. Taylor, The Geometry of
    the Classical Groups, 1992).  Mc z is z[x_rows]; h is D's e_0 or F's
    (0, ..., 0, 1, 1 + s), s = sum g (`_reduce`).

    If b(g + h, g) = 0 and g != h, a first transvection goes to
    w = g + e_i + e_j, (i, j) the first pair with b(e_i + e_j, g) != 0 !=
    b(w + h, w), that is (Mc g)_i != (Mc g)_j and (Mc h)_i != (Mc h)_j
    (e_i + e_j is isotropic).  One exists, else InternalCheckError:
      Mc = I, n = 2: b(g + h, g) = (g_0 + 1)(g_0 + g_1) = 0 means h = g.
      Mc = I, n >= 3: (k, n - 2) if some k < n - 2 has g_k != g_{n-2};
        else g_{n-1} alone differs, and (0, n - 1) works if s != 1,
        (n - 2, n - 1) if s != 0.
      Mc hyperbolic: b(g + h, g) = g_1; if it is 0, (0, 1) works if
        g_0 != 0, else (1, p ^ 1), p the first index with g_p != 0.
    Nothing here picks a scalar: w - g has entries 0 and 1, each case asks
    only whether two entries are equal, and c is the inverse of a value
    already non-zero.  So the argument holds as written for q = 2.
    """
    if np.array_equal(g, h):
        return
    if not linalg.dot(F, (g ^ h)[x_rows], g):
        a, c = g[x_rows], h[x_rows]
        pairs = np.argwhere(np.triu((a[:, None] != a) & (c[:, None] != c), 1))
        if not len(pairs):
            raise InternalCheckError(f"no transvection pair moves {g.tolist()} to {h.tolist()}")
        w = g.copy()
        w[pairs[0]] ^= 1
        _transvection(F, E, x_rows, g, w)
        g = w
    _transvection(F, E, x_rows, g, h)


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
    everything off it.  What is left is diag(Z^T U Z) plus the x-function
    f = (E o E)^T diag(S), whose root g = E^T sqrt(diag(S)) any E -> E R
    with R^T Mc R = Mc moves linearly, to R^T g.  For U = I, Z[0] = g
    absorbs f (A, B).  Else at most two transvections (`_move_x_function`)
    take g to 0 (C) or e_0 (D) if Mc is hyperbolic; for Mc = I a constant g
    is its own target (E, parameter g_0^2; R keeps the all-ones vector, as
    x^T x = (sum x)^2) and any other goes to (0, ..., 0, 1, 1 + s), s = sum g
    (F, parameter s^2, the form invariant).  No step excludes a scalar, so
    q = 2 takes this path too: it divides only by non-zero pivots, its mixing
    and target vectors have entries 0 and 1, and g_0^2, s^2 range over GF(2).
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
    # g = sqrt(f), f = (E o E)^T diag(S) the x-function, and h its target
    g = h = linalg.mat_vec(F, E.T, F.sqrt_arr(np.diagonal(S)))
    Z = zeros(m, n)
    param = None
    if not v_alt:
        family = "A" if x_alt else "B"
        Z[0] = g
    elif x_alt:
        family = "D" if g.any() else "C"
        if g.any():
            h = eye(n)[0]
    elif (g == g[0]).all():
        family, param = "E", F.mul(int(g[0]), int(g[0]))
    else:
        s = int(np.bitwise_xor.reduce(g))
        h = np.array([0] * (n - 2) + [1, 1 ^ s], dtype=np.int64)
        family, param = "F", F.mul(s, s)
    _move_x_function(F, E, x_rows, g, h)
    UZ = Z[u_rows]
    N = np.triu(congruence(F, E, S) ^ mat_mul(F, Z.T, UZ), 1)
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
    decouples the v's from the P-part, the x-pairing G_wx and the x-function
    f under the w -> w block E of T; symmetric elimination brings G_wx to
    Mc; g = sqrt(f) moves linearly under the E keeping Mc, and at most two
    transvections take it to 0, e_0, itself or (0, ..., 0, 1, 1 + sum g)
    (C, D, E, F); the w -> x block of T is read in closed form.  Returns
    (T, canonical form, class), the class being the one this path and the
    invariant-based `classify` agree on.
    """
    return _canonicalize_grams(beta.obj, beta.gram[None])[0]


def canonicalize_batch(
    obj: VerObject, grams: np.ndarray
) -> list[tuple[Morphism, BilinearForm, CanonicalClass]]:
    """`canonicalize` of each Gram in a (b, d, d) stack on `obj`.

    Raises ValueError, as `classify_batch` does, if any member is not a
    symmetric non-degenerate Gram on `obj`.
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
    # the invariant path runs first: it raises ValueError for asymmetric or
    # degenerate forms, which the reduction assumes away
    invariant = _classify_grams(obj, G)
    reduced = [_reduce(obj, g) for g in G]
    for (_, cls), want in zip(reduced, invariant):
        if cls != want:
            raise InternalCheckError(f"constructive path found {cls} but invariants say {want}")
    Ts = np.array([T for T, _ in reduced], dtype=np.int64).reshape(len(G), d, d)
    if not commutes(obj, obj, Ts):
        raise InternalCheckError("canonicalizing transform does not commute with the t-actions")
    canon = [canonical_rep(cls, F) for cls in invariant]
    want = np.array([c.gram for c in canon], dtype=np.int64).reshape(len(G), d, d)
    if not np.array_equal(congruence(F, Ts, G), want):
        raise InternalCheckError("transform does not reach the canonical Gram")
    return list(zip((Morphism._certified(obj, obj, T) for T in Ts), canon, invariant))
