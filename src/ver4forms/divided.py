"""Second divided power, Frobenius twist, and quadratic forms.

Gamma^2(U) = ker(1 - c) inside U (x) U decomposes into indecomposable
"lines", each spanned by a top generator and, for the 2-dimensional ones,
its t-image, for a total dimension m + m(m-1)/2 + 2mn + 2n + 2n(n-1).
There is one line per free entry of a symmetric compatible Gram: the line
of family f at cell (a, b) of `VerObject.free_cells` (part f) is

  family  top  ->  t-image (2-dimensional lines)               cell
  1  v_i (x) v_i                                               (v_i, v_i)
  2  v_i (x) v_j + v_j (x) v_i                          i < j  (v_i, v_j)
  3  v_i (x) w_k + w_k (x) v_i  ->  v_i (x) x_k + x_k (x) v_i  (v_i, w_k)
  4  x_k (x) x_k                                               (w_k, w_k)
  5  w_k (x) x_k + x_k (x) w_k                                 (w_k, x_k)
  6  w_k (x) x_l + x_l (x) w_k  ->  x_k (x) x_l + x_l (x) x_k   k < l  (w_k, x_l)
  7  w_k (x) w_l + w_l (x) w_k + x_k (x) x_l
       ->  x_k (x) w_l + w_k (x) x_l + x_l (x) w_k + w_l (x) x_k  k < l  (w_k, w_l)

A quadratic form is a module map Gamma^2(U) -> 1.  Such a map kills every
t-image, so it is determined by one field value per line, stored in the
order of `free_cells`.  The associated bilinear form is
beta_q = q o (1 - c) (the identification of the kernel and cokernel of
Gamma^2 -> S^2 is induced by (1 - c) itself).  Each (1 - c)(e_a (x) e_b) is
a line top or a t-image, and q kills t-images, so the free entries of
beta_q's Gram are the line values themselves, each at its line's cell,
while family 1 (the Frobenius twist, which 1 - c kills) does not enter.
G_q is that Gram with the family-1 values on its zero v-diagonal:
`VerObject.gram_from_free_entries` scatters the values into G_q and
`VerObject.free_entries` gathers them back, so every quadratic operation
below is a Gram operation.

On u in ker t = span(v, x) the v (x) x and the off-diagonal x (x) x terms
of u (x) u are t-images, so `_kernel_squares` reads q(u (x) u) off G_q:

  q(u (x) u) = u^T Q u,  Q = triu(G_q) with G_ww's diagonal at the x's.

`_pullback` (`quad_transform`, `quad_restrict`) takes family 1 from it and
`quad_product` reads family 1 off the v_i (x) v_j in closed form, so no
quadratic operation builds the Gamma^2 basis:
`gamma2` serves `QuadraticForm.evaluate`, the independent reference path,
and the Frobenius-twist checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bform import BilinearForm, Subobject, subobject_standard_basis
from .classify import CanonicalClass, class_codes
from .field import Field, make_field
from .linalg import column_support, congruence, eye, integers, mat_mul, rank, readonly, solve, support_gather, zeros
from .verobj import (GAMMA2_BASIS_MAX_DIM, InternalCheckError, Morphism, VerObject, braiding, free_entry_count,
                     json_fields, json_ints, tensor, tensor_raw)
from .witt import _product_grams, _sum_grams


@dataclass(eq=False)
class Line:
    """One indecomposable summand of Gamma^2(U)."""

    family: int
    indices: tuple[int, ...]
    top: np.ndarray
    image: np.ndarray | None

    @property
    def dim(self) -> int:
        return 1 if self.image is None else 2

    def describe(self, obj: VerObject) -> str:
        labels = obj.basis_labels()

        def term(flat: int) -> str:
            i, j = divmod(flat, obj.dim)
            return f"{labels[i]}*{labels[j]}"

        return " + ".join(term(int(f)) for f in np.nonzero(self.top)[0])


class Gamma2Basis:
    """The generator list of Gamma^2(U), verified against ker(1 - c)."""

    def __init__(self, obj: VerObject, lines: list[Line]):
        self.obj = obj
        self.lines = lines
        self.num_lines = len(lines)
        self.dim = sum(line.dim for line in lines)
        # gamma2 caches this object, so the arrays it shares are frozen
        cols = [readonly(v) for line in lines for v in (line.top, line.image) if v is not None]
        self._basis = readonly(np.column_stack(cols) if cols else zeros(obj.dim**2, 0))
        # positions of line tops inside the full basis matrix
        self._top_positions = np.cumsum([0] + [line.dim for line in lines])[:-1]

    def basis_matrix(self) -> np.ndarray:
        return self._basis


@lru_cache(maxsize=None)
def gamma2(obj: VerObject) -> Gamma2Basis:
    """Generator list for Gamma^2(U) in the line order of `free_cells`:
    the top at cell (a, b) is e_a (x) e_b + e_b (x) e_a + t.e_a (x) t.e_b =
    (1 - c)(e_b (x) e_a), or e_a (x) e_a where that vanishes (family 1), and
    a line's image is its top's t-image where that is not zero."""
    if obj.dim > GAMMA2_BASIS_MAX_DIM:
        raise ValueError(f"gamma2-basis is capped at dim m + 2n <= {GAMMA2_BASIS_MAX_DIM}, got {obj.dim}")
    family, a, b = obj.free_cells()
    d, m, n, E, T = obj.dim, obj.m, obj.n, eye(obj.dim), obj.t_action()
    # row r of outer(X, Y) is X_r (x) Y_r; E and T hold 0 and 1 only, so * is the field product
    outer = lambda X, Y: (X[:, :, None] * Y[:, None, :]).reshape(len(X), d * d)
    tops = outer(E[a], E[b]) ^ outer(E[b], E[a]) ^ outer(T[:, a].T, T[:, b].T)
    twist = ~tops.any(axis=1)
    tops[twist] = outer(E[a[twist]], E[a[twist]])
    images = tensor_raw(obj, obj).t_times(tops.T).T
    # each slot's summand (v_i: i, w_k and x_k: m + k): a line is indexed by those its cell meets
    summand = np.empty(d, dtype=np.int64)
    summand[obj.vs], summand[obj.ws], summand[obj.xs] = range(m), range(m, m + n), range(m, m + n)
    lines = []
    for f, cell, top, image in zip(family, zip(summand[a], summand[b]), tops, images):
        indices = tuple(int(s) if s < m else int(s) - m for s in dict.fromkeys(cell))
        lines.append(Line(int(f), indices, top, image if image.any() else None))
    basis = Gamma2Basis(obj, lines)
    _verify_gamma2(obj, basis)
    return basis


def one_minus_braiding(obj: VerObject) -> np.ndarray:
    """Matrix of 1 - c on U (x) U (equal to 1 + c in characteristic 2)."""
    d = obj.dim
    return eye(d * d) ^ braiding(obj, obj)


def _verify_gamma2(obj: VerObject, basis: Gamma2Basis):
    F = obj.field
    omc = one_minus_braiding(obj)
    B = basis.basis_matrix()
    if support_gather(column_support(B), omc, -1).any():
        raise InternalCheckError("generator outside ker(1 - c)")
    if rank(F, B) != basis.dim:
        raise InternalCheckError("generators are dependent")  # pragma: no cover
    if obj.dim * obj.dim - rank(F, omc) != basis.dim:
        raise InternalCheckError("generators do not span ker(1 - c)")  # pragma: no cover


def gamma2_dim_formula(m: int, n: int) -> int:
    return m + m * (m - 1) // 2 + 2 * m * n + 2 * n + 2 * n * (n - 1)


def frobenius_twist_rank(obj: VerObject) -> int:
    """Rank of the composite Gamma^2(U) -> U (x) U -> S^2(U)."""
    W = one_minus_braiding(obj)  # column space = the subspace S^2 quotients by
    return rank(obj.field, np.concatenate([W, gamma2(obj).basis_matrix()], axis=1)) - rank(obj.field, W)


def a2_iso_check(obj: VerObject) -> bool:
    """Check im(1 - c) = ker(Gamma^2 -> S^2).

    S^2 = U (x) U / im(1 - c), so ker(Gamma^2 -> S^2) = Gamma^2 meet im(1 - c),
    which equals im(1 - c) exactly when im(1 - c) lies in Gamma^2, that is,
    when rank([B | 1 - c]) = dim Gamma^2 for the independent columns B of
    `gamma2`.  One rank test decides it.
    """
    basis = gamma2(obj)
    stacked = np.concatenate([basis.basis_matrix(), one_minus_braiding(obj)], axis=1)
    return rank(obj.field, stacked) == basis.dim


class QuadraticForm:
    """A module map Gamma^2(U) -> 1, stored as one value per line."""

    def __init__(self, obj: VerObject, values):
        values = integers(values, "quadratic form values")
        lines = free_entry_count(obj.m, obj.n)  # a formula: no free-entry table is built to refuse
        if values.shape != (lines,):
            raise ValueError(
                f"expected {lines} values for Gamma^2({obj.m},{obj.n}), got {values.shape}"
            )
        if values.size and (values.min() < 0 or values.max() >= obj.field.order):
            raise ValueError("values must be field element encodings")
        self.obj = obj
        self.values = values

    @property
    def field(self) -> Field:
        return self.obj.field

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Evaluate on columns of `vecs`, which must lie in Gamma^2(U), by
        a solve against the Gamma^2 basis (the reference path)."""
        basis = gamma2(self.obj)
        vecs = np.asarray(vecs, dtype=np.int64)
        coords = solve(self.field, basis.basis_matrix(), vecs[:, None] if vecs.ndim == 1 else vecs)
        out = mat_mul(self.field, self.values[None, :], coords[basis._top_positions])[0]  # 0 on t-images
        return int(out[0]) if vecs.ndim == 1 else out

    def to_json(self) -> dict:
        return {
            "field": {"k": self.field.k},
            "object": self.obj.to_json(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QuadraticForm":
        field, obj_doc, values = json_fields(doc, "quadratic form document", "field", "object", "values")
        F = make_field(json_ints(*json_fields(field, "field document", "k"), "field degree k"))
        obj = VerObject.from_json(F, obj_doc)
        return cls(obj, json_ints(values, "quadratic form values", depth=1, bound=F.order))

    def __repr__(self):
        return f"QuadraticForm({self.obj!r})"


def beta_q(q: QuadraticForm) -> BilinearForm:
    """Associated bilinear form beta_q(u, u') = q((1 - c)(u (x) u')): G_q with
    its v-diagonal cleared, with no braiding matrix and no Gamma^2 basis built."""
    G = q.obj.gram_from_free_entries(q.values)
    G[q.obj.vs, q.obj.vs] = 0
    return BilinearForm(q.obj, G)


def quad_restrict(q: QuadraticForm, sub: Subobject) -> QuadraticForm:
    """Restriction along Gamma^2(S) inside Gamma^2(U), on S's standard form."""
    return _pullback(q, *subobject_standard_basis(sub))


def _kernel_squares(F: Field, obj: VerObject, G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """q(u (x) u) = u^T Q u for each column u of U, which must lie in ker t:
    Q = triu(G) with G_ww's diagonal at the x's, for G = G_q (module docstring)."""
    Q = np.triu(G)
    Q[obj.xs, obj.xs] = G[obj.ws, obj.ws]
    return np.bitwise_xor.reduce(F.mul_arr(U, mat_mul(F, Q, U)), axis=0)


def _pullback(q: QuadraticForm, obj: VerObject, M: np.ndarray) -> QuadraticForm:
    """q o Gamma^2(M) on obj for an equivariant M: obj -> q.obj, gathered from
    M^T beta_q M with the squares q(M v_i (x) M v_i) on its v-diagonal; G_q is
    scattered once, and beta_q's Gram is G_q with its v-diagonal cleared."""
    F, U = q.field, q.obj
    G = U.gram_from_free_entries(q.values)
    squares = _kernel_squares(F, U, G, M[:, obj.vs])
    G[U.vs, U.vs] = 0
    P = congruence(F, M, G)
    P[obj.vs, obj.vs] = squares
    return QuadraticForm(obj, obj.free_entries(P))


def quad_sum(q: QuadraticForm, r: QuadraticForm) -> QuadraticForm:
    """Orthogonal sum on U + R: values live on same-side lines, 0 on mixed,
    so the sum's G_q is the orthogonal sum of the two (`witt._sum_grams`)."""
    if q.field != r.field:
        raise ValueError("summands live over different fields")
    grams = (f.obj.gram_from_free_entries(f.values)[None] for f in (q, r))
    target, (G,) = _sum_grams(q.obj, r.obj, *grams)
    return QuadraticForm(target, target.free_entries(G))


def quad_product(gamma: BilinearForm, q: QuadraticForm) -> QuadraticForm:
    """The quadratic form gamma.q on the tensor product object.

    gamma.q is the unique quadratic form on V (x) W with

      (a) associated bilinear form gamma x beta_q, and
      (b) gamma.q((v (x) w) (x) (v (x) w)) = gamma(v, v) * q(w (x) w)
          for every v in ker t_V and w in ker t_W.

    Property (a) pins the values on im(1 - c): every non-unit line top has
    an explicit preimage under 1 - c, and the product form (alternating,
    because beta_q is) evaluates preimages consistently.  Property (b) pins
    the unit-square lines in closed form: the v's of the standard basis of
    V (x) W are the v_i (x) v_j (i outer), so family 1 is
    gamma(v_i, v_i) q_1(j).  With the unit form on 1 this reproduces q, and
    on vector spaces it is the classical product of a symmetric bilinear
    with a quadratic form.
    """
    F = gamma.field
    if F != q.field:
        raise ValueError("operands live over different fields")
    if not gamma.is_symmetric():
        raise ValueError("quadratic products need a symmetric bilinear factor")
    V, W = gamma.obj, q.obj
    G = W.gram_from_free_entries(q.values)
    gamma_vv, q_vv = gamma.gram[V.vs, V.vs], G[W.vs, W.vs]
    G[W.vs, W.vs] = 0
    tobj, (P,) = _product_grams(V, W, gamma.gram[None], G[None])
    _, B, _ = tensor(V, W)
    kron_vs = np.add.outer(V.vs * W.dim, W.vs).reshape(-1)
    if (B[kron_vs, tobj.vs] != 1).any() or np.count_nonzero(B[:, tobj.vs]) != tobj.m:
        raise InternalCheckError("tensor basis v's are not the v_i (x) v_j")  # pragma: no cover
    P[tobj.vs, tobj.vs] = F.mul_arr(gamma_vv[:, None], q_vv[None, :]).reshape(-1)
    return QuadraticForm(tobj, tobj.free_entries(P))


def quad_transform(q: QuadraticForm, phi: Morphism) -> QuadraticForm:
    """Pullback q o Gamma^2(phi) along an isomorphism phi: U -> U."""
    if phi.source != q.obj or phi.target != q.obj:
        raise ValueError("transform must be an automorphism of the form's object")
    return _pullback(q, q.obj, phi.matrix)


def quadratic_from_bilinear(beta: BilinearForm) -> QuadraticForm:
    """The unique q with beta_q = beta, for symmetric forms on nP.

    On nP the Frobenius twist vanishes, so q -> beta_q is a bijection; the
    values come out in closed form from the Gram entries.
    """
    obj = beta.obj
    if obj.m != 0:
        raise ValueError("the bijection with quadratic forms needs an object nP")
    if not beta.is_symmetric():
        raise ValueError("requires a symmetric form")
    return QuadraticForm(obj, obj.free_entries(beta.gram))


def hyperbolic_quadratic(F: Field, h: int) -> QuadraticForm:
    """h hyperbolic planes: q(a v + b w) = ab on each 2-dimensional piece."""
    obj = VerObject(F, 2 * h, 0)
    G = np.kron(eye(h), [[0, 1], [1, 0]])  # beta_q(v_2i, v_2i+1) = 1
    return QuadraticForm(obj, obj.free_entries(G))


def quad_from_parts(F: Field, h: int, gamma_np: BilinearForm | None) -> QuadraticForm:
    """Composite of h hyperbolic planes and a symmetric form on nP."""
    q = hyperbolic_quadratic(F, h)
    if gamma_np is not None and gamma_np.obj.dim:
        q = quad_sum(q, quadratic_from_bilinear(gamma_np))
    return q


def classify_quadratic(q: QuadraticForm):
    """Hyperbolic multiplicity and the canonical class of the nP part: the
    bilinear class code of beta_q (`class_codes`), read on nP.

    beta_q must be non-degenerate.  Its G_vv is alternating, so its class
    is C, D, E or F, and for odd m G_vv is singular: the degenerate error
    covers odd unit multiplicity, and an even m gives m/2 hyperbolic
    planes.  The nP part, the complement of the v's, has the blocks
    S = G_ww + G_vw^T G_vv^-1 G_vw and G_wx (as G_vx = 0).  G_vv^-1 is
    alternating too, so the Schur term has a zero diagonal and S shares
    G_ww's diagonal.  The good pairs (whose v rows are zero here), the
    form invariant sum diag(G_ww) diag(G_wx^-1) and the block lemma
    (`bform.block_invariants`) read nothing else, so they agree on beta_q
    and on its nP part.  GF(2) is refused first: no census of quadratic
    orbits covers it yet.
    """
    obj = q.obj
    if q.field.k < 2:
        raise ValueError("classification requires GF(2^k) with k >= 2")
    G = obj.gram_from_free_entries(q.values)
    G[obj.vs, obj.vs] = 0
    (code,) = class_codes(obj, G[None]).tolist()
    if code < 0:
        raise ValueError("quadratic form is degenerate (beta_q is singular)")
    return obj.m // 2, CanonicalClass.from_code(code, 0, obj.n, q.field.order)
