"""Second divided power, Frobenius twist, and quadratic forms.

Gamma^2(U) = ker(1 - c) inside U (x) U decomposes into indecomposable
"lines", each spanned by a top generator and, for the 2-dimensional ones,
its t-image.  With standard basis v/w/x the seven families are

  1  v_i (x) v_i                                     (1-dim, one per i)
  2  v_i (x) v_j + v_j (x) v_i                       (1-dim, i < j)
  3  v_i (x) w_k + w_k (x) v_i  ->  v_i (x) x_k + x_k (x) v_i
  4  x_k (x) x_k                                     (1-dim)
  5  w_k (x) x_k + x_k (x) w_k                       (1-dim)
  6  w_k (x) x_l + x_l (x) w_k  ->  x_k (x) x_l + x_l (x) x_k     (k < l)
  7  w_k (x) w_l + w_l (x) w_k + x_k (x) x_l
       ->  x_k (x) w_l + w_k (x) x_l + x_l (x) w_k + w_l (x) x_k  (k < l)

for a total dimension m + m(m-1)/2 + 2mn + 2n + 2n(n-1).

A quadratic form is a module map Gamma^2(U) -> 1.  Such a map kills every
t-image, so it is determined by one field value per line, stored in the
family order above with lexicographic indices; q_f(idx) below is the value
of the family-f line.  The associated bilinear form is beta_q = q o (1 - c)
(the identification of the kernel and cokernel of Gamma^2 -> S^2 is
induced by (1 - c) itself).  Each (1 - c)(e_a (x) e_b) is a line top or a
t-image, and q kills t-images, so the free Gram blocks of beta_q are the
line values themselves:

  G_vv[i,j] = q_2(i,j)  (zero diagonal)      G_vw[i,k] = q_3(i,k)
  G_ww[k,k] = q_4(k),   G_ww[k,l] = q_7(k,l)
  G_wx[k,k] = q_5(k),   G_wx[k,l] = q_6(k,l)

while family 1 (the Frobenius twist) does not enter.  `_beta_q_blocks` and
`_line_values`, which undoes it, own this map.

On u in ker t = span(v, x) the v (x) x and x (x) x terms of u (x) u are
t-images, so `_kernel_squares` reads q(u (x) u) off the same data:

  sum_a u_{v_a}^2 q_1(a) + sum_k u_{x_k}^2 G_ww[k,k] + u_v^T triu(G_vv, 1) u_v.

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
from .classify import CanonicalClass, _classify_grams, require_classifiable_field
from .field import Field, make_field
from .linalg import block_diag, congruence, eye, mat_mul, rank, readonly, solve, zeros
from .verobj import Morphism, VerObject, braiding, json_ints, tensor


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


# verifying the basis against the d^2 x d^2 braiding costs ~dim^6 (seconds at
# dim 24, over half a minute at 32), so gamma2 refuses larger objects up front
GAMMA2_BASIS_MAX_DIM = 24


@lru_cache(maxsize=None)
def gamma2(obj: VerObject) -> Gamma2Basis:
    """Generator list for Gamma^2(U) in the fixed family order."""
    if obj.dim > GAMMA2_BASIS_MAX_DIM:
        raise ValueError(f"gamma2-basis is capped at dim m + 2n <= {GAMMA2_BASIS_MAX_DIM}, got {obj.dim}")
    m, n, vs, ws, xs = obj.m, obj.n, obj.vs, obj.ws, obj.xs

    def pv(a: int, b: int) -> np.ndarray:
        v = np.zeros(obj.dim**2, dtype=np.int64)
        v[a * obj.dim + b] = 1
        return v

    lines: list[Line] = []
    for i in range(m):
        lines.append(Line(1, (i,), pv(vs[i], vs[i]), None))
    for i in range(m):
        for j in range(i + 1, m):
            lines.append(Line(2, (i, j), pv(vs[i], vs[j]) ^ pv(vs[j], vs[i]), None))
    for i in range(m):
        for k in range(n):
            top = pv(vs[i], ws[k]) ^ pv(ws[k], vs[i])
            img = pv(vs[i], xs[k]) ^ pv(xs[k], vs[i])
            lines.append(Line(3, (i, k), top, img))
    for k in range(n):
        lines.append(Line(4, (k,), pv(xs[k], xs[k]), None))
    for k in range(n):
        lines.append(Line(5, (k,), pv(ws[k], xs[k]) ^ pv(xs[k], ws[k]), None))
    for k in range(n):
        for l in range(k + 1, n):
            top = pv(ws[k], xs[l]) ^ pv(xs[l], ws[k])
            img = pv(xs[k], xs[l]) ^ pv(xs[l], xs[k])
            lines.append(Line(6, (k, l), top, img))
    for k in range(n):
        for l in range(k + 1, n):
            top = pv(ws[k], ws[l]) ^ pv(ws[l], ws[k]) ^ pv(xs[k], xs[l])
            img = (
                pv(xs[k], ws[l])
                ^ pv(ws[k], xs[l])
                ^ pv(xs[l], ws[k])
                ^ pv(ws[l], xs[k])
            )
            lines.append(Line(7, (k, l), top, img))
    basis = Gamma2Basis(obj, lines)
    _verify_gamma2(obj, basis)
    return basis


def one_minus_braiding(obj: VerObject) -> np.ndarray:
    """Matrix of 1 - c on U (x) U (equal to 1 + c in characteristic 2)."""
    d = obj.dim
    return eye(d * d) ^ braiding(obj, obj).matrix


def _verify_gamma2(obj: VerObject, basis: Gamma2Basis):
    F = obj.field
    omc = one_minus_braiding(obj)
    B = basis.basis_matrix()
    if mat_mul(F, omc, B).any():
        raise AssertionError("generator outside ker(1 - c)")  # pragma: no cover
    if rank(F, B) != basis.dim:
        raise AssertionError("generators are dependent")  # pragma: no cover
    if obj.dim * obj.dim - rank(F, omc) != basis.dim:
        raise AssertionError("generators do not span ker(1 - c)")  # pragma: no cover


def gamma2_dim_formula(m: int, n: int) -> int:
    return m + m * (m - 1) // 2 + 2 * m * n + 2 * n + 2 * n * (n - 1)


def _family_sizes(m: int, n: int) -> tuple[int, ...]:
    """Line counts of families 1..7 on m1 + nP (their sum is num_lines)."""
    return m, m * (m - 1) // 2, m * n, n, n, n * (n - 1) // 2, n * (n - 1) // 2


def _symmetric(s: int, diag, upper) -> np.ndarray:
    """Symmetric s x s block from its diagonal and upper triangle (row order)."""
    i, j = np.triu_indices(s, 1)
    out = zeros(s, s)
    out[i, j] = out[j, i] = upper
    out[range(s), range(s)] = diag
    return out


def _beta_q_blocks(obj: VerObject, values):
    """The free blocks (G_vv, G_vw, G_ww, G_wx) of beta_q, read off the line
    values as the module docstring says; family 1 does not enter."""
    m, n = obj.m, obj.n
    cuts = np.cumsum(_family_sizes(m, n))[:-1]
    _, q2, q3, q4, q5, q6, q7 = np.split(np.asarray(values, dtype=np.int64), cuts)
    return _symmetric(m, 0, q2), q3.reshape(m, n), _symmetric(n, q4, q7), _symmetric(n, q5, q6)


def _line_values(obj: VerObject, blocks) -> np.ndarray:
    """`_beta_q_blocks` undone on families 2..7: the line values whose
    beta_q has these blocks (vv, ww, wx symmetric), 0 on family 1."""
    vv, vw, ww, wx = blocks
    iv, jv = np.triu_indices(obj.m, 1)
    kn, ln = np.triu_indices(obj.n, 1)
    return np.concatenate([
        np.zeros(obj.m, dtype=np.int64), vv[iv, jv], np.reshape(vw, -1),
        np.diagonal(ww), np.diagonal(wx), wx[kn, ln], ww[kn, ln],
    ])


def frobenius_twist_rank(obj: VerObject) -> int:
    """Rank of the composite Gamma^2(U) -> U (x) U -> S^2(U)."""
    F = obj.field
    B = gamma2(obj).basis_matrix()
    W = one_minus_braiding(obj)  # column space = the subspace S^2 quotients by
    if B.shape[1] == 0:
        return 0
    return rank(F, np.concatenate([W, B], axis=1)) - rank(F, W)


def a2_iso_check(obj: VerObject) -> bool:
    """Check im(1 - c) = ker(Gamma^2 -> S^2) and the induced isomorphism.

    Verifies containment of im(1 - c) in Gamma^2 and equality of the two
    ranks (the kernel computed as dim Gamma^2 minus the twist rank versus
    the rank of 1 - c, which is the dimension of the cokernel side).
    """
    F = obj.field
    basis = gamma2(obj)
    W = one_minus_braiding(obj)
    B = basis.basis_matrix()
    r_w = rank(F, W)
    contained = rank(F, np.concatenate([B, W], axis=1)) == basis.dim if B.size else r_w == 0
    kernel_dim = basis.dim - frobenius_twist_rank(obj)
    return bool(contained and kernel_dim == r_w)


class QuadraticForm:
    """A module map Gamma^2(U) -> 1, stored as one value per line."""

    def __init__(self, obj: VerObject, values):
        values = np.array(values, dtype=np.int64)
        lines = sum(_family_sizes(obj.m, obj.n))
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
        try:
            k, obj_doc, values = doc["field"]["k"], doc["object"], doc["values"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed quadratic form document: missing {exc}") from exc
        F = make_field(json_ints(k, "field degree k"))
        obj = VerObject.from_json(F, obj_doc)
        return cls(obj, json_ints(values, "quadratic form values", depth=1, bound=F.order))

    def __repr__(self):
        return f"QuadraticForm({self.obj!r})"


def beta_q(q: QuadraticForm) -> BilinearForm:
    """Associated bilinear form beta_q(u, u') = q((1 - c)(u (x) u')).

    Assembled from the line values in closed form (`_beta_q_blocks`), with
    no braiding matrix and no Gamma^2 basis built.
    """
    return BilinearForm(q.obj, q.obj.gram_from_blocks(*_beta_q_blocks(q.obj, q.values)))


def quad_restrict(q: QuadraticForm, sub: Subobject) -> QuadraticForm:
    """Restriction along Gamma^2(S) inside Gamma^2(U), on S's standard form."""
    return _pullback(q, *subobject_standard_basis(sub))


def _kernel_squares(q: QuadraticForm, U: np.ndarray) -> np.ndarray:
    """q(u (x) u) for each column u of U, which must lie in ker t, by the
    module docstring's formula."""
    F, obj = q.field, q.obj
    vv, _, ww, _ = _beta_q_blocks(obj, q.values)
    uv, ker = U[obj.vs], U[np.concatenate([obj.vs, obj.xs])]
    weights = np.concatenate([q.values[: obj.m], np.diagonal(ww)])
    cross = np.bitwise_xor.reduce(F.mul_arr(uv, mat_mul(F, np.triu(vv, 1), uv)), axis=0)
    return mat_mul(F, weights[None, :], F.mul_arr(ker, ker))[0] ^ cross


def _pullback(q: QuadraticForm, obj: VerObject, M: np.ndarray) -> QuadraticForm:
    """q o Gamma^2(M) on obj for an equivariant M: obj -> q.obj; families
    2..7 from its beta M^T beta_q M, family 1 from q on the M v_i."""
    values = _line_values(obj, obj.gram_blocks(congruence(q.field, M, beta_q(q).gram)))
    values[: obj.m] = _kernel_squares(q, M[:, obj.vs])
    return QuadraticForm(obj, values)


def quad_sum(q: QuadraticForm, r: QuadraticForm) -> QuadraticForm:
    """Orthogonal sum on U + R: values live on same-side lines, 0 on mixed,
    so the sum's beta_q blocks are block sums and family 1 is concatenated."""
    if q.field != r.field:
        raise ValueError("summands live over different fields")
    target = VerObject(q.field, q.obj.m + r.obj.m, q.obj.n + r.obj.n)
    blocks = zip(_beta_q_blocks(q.obj, q.values), _beta_q_blocks(r.obj, r.values))
    values = _line_values(target, [block_diag(a, b) for a, b in blocks])
    values[: target.m] = np.concatenate([q.values[: q.obj.m], r.values[: r.obj.m]])
    return QuadraticForm(target, values)


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
    from .witt import tensor_product

    prod = tensor_product(gamma, beta_q(q))
    tobj, B, _ = tensor(V, W)
    kron_vs = np.add.outer(V.vs * W.dim, W.vs).reshape(-1)
    if (B[kron_vs, tobj.vs] != 1).any() or np.count_nonzero(B[:, tobj.vs]) != tobj.m:
        raise AssertionError("tensor basis v's are not the v_i (x) v_j")  # pragma: no cover
    values = _line_values(tobj, tobj.gram_blocks(prod.gram))
    gamma_vv = np.diagonal(gamma.gram)[V.vs]
    values[: tobj.m] = F.mul_arr(gamma_vv[:, None], q.values[: W.m][None, :]).reshape(-1)
    return QuadraticForm(tobj, values)


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
    return QuadraticForm(obj, _line_values(obj, obj.gram_blocks(beta.gram)))


def hyperbolic_quadratic(F: Field, h: int) -> QuadraticForm:
    """h hyperbolic planes: q(a v + b w) = ab on each 2-dimensional piece."""
    obj = VerObject(F, 2 * h, 0)
    vv = np.kron(eye(h), [[0, 1], [1, 0]])  # beta_q(v_2i, v_2i+1) = 1
    return QuadraticForm(obj, _line_values(obj, (vv, zeros(2 * h, 0), zeros(0, 0), zeros(0, 0))))


def quad_from_parts(F: Field, h: int, gamma_np: BilinearForm | None) -> QuadraticForm:
    """Composite of h hyperbolic planes and a symmetric form on nP."""
    q = hyperbolic_quadratic(F, h)
    if gamma_np is not None and gamma_np.obj.dim:
        q = quad_sum(q, quadratic_from_bilinear(gamma_np))
    return q


def classify_quadratic(q: QuadraticForm):
    """Hyperbolic multiplicity and the canonical class of the nP part: the
    bilinear class of beta_q (`_classify_grams`), moved from m1 + nP to nP.

    beta_q must be non-degenerate.  Its G_vv is alternating, so its class
    is C, D, E or F, and for odd m G_vv is singular: the degenerate error
    covers odd unit multiplicity, and an even m gives m/2 hyperbolic
    planes.  The nP part, the complement of the v's, has the blocks
    S = G_ww + G_vw^T G_vv^-1 G_vw and G_wx (as G_vx = 0).  G_vv^-1 is
    alternating too, so the Schur term has a zero diagonal and S shares
    G_ww's diagonal.  The good pairs (whose v rows are zero here), the
    form invariant sum diag(G_ww) diag(G_wx^-1) and the block-lemma test
    read nothing else, so they agree on beta_q and on its nP part.  GF(2)
    is refused first.
    """
    obj = q.obj
    require_classifiable_field(q.field)
    G = obj.gram_from_blocks(*_beta_q_blocks(obj, q.values))
    try:
        (cls,) = _classify_grams(obj, G[None])
    except ValueError:
        # the field passed and G is symmetric: only degeneracy is left
        raise ValueError("quadratic form is degenerate (beta_q is singular)") from None
    return obj.m // 2, CanonicalClass(cls.family, 0, obj.n, cls.param)
