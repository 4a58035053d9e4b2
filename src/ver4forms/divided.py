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
family order above with lexicographic indices.  The associated bilinear
form is beta_q = q o (1 - c): the canonical quotient-and-identify
composition collapses to this because the identification of the kernel and
cokernel of Gamma^2 -> S^2 is induced by (1 - c) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bform import BilinearForm, Subobject, standard_subobject, subobject_standard_basis
from .field import Field, make_field
from .linalg import eye, kron, mat_mul, rank, solve, zeros
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
        cols = []
        for line in lines:
            cols.append(line.top)
            if line.image is not None:
                cols.append(line.image)
        d2 = obj.dim * obj.dim
        self._basis = np.column_stack(cols) if cols else zeros(d2, 0)
        # positions of line tops inside the full basis matrix
        pos = []
        at = 0
        for line in lines:
            pos.append(at)
            at += line.dim
        self._top_positions = pos

    def basis_matrix(self) -> np.ndarray:
        return self._basis

    def extend_values(self, values: np.ndarray) -> np.ndarray:
        """Spread per-line values over the full basis (zero on t-images)."""
        full = np.zeros(self.dim, dtype=np.int64)
        full[self._top_positions] = values
        return full


def _pair_vec(obj: VerObject, a: int, b: int) -> np.ndarray:
    v = np.zeros(obj.dim * obj.dim, dtype=np.int64)
    v[a * obj.dim + b] = 1
    return v


@lru_cache(maxsize=None)
def gamma2(obj: VerObject) -> Gamma2Basis:
    """Generator list for Gamma^2(U) in the fixed family order."""
    m, n = obj.m, obj.n
    vs = [obj.v_slot(i) for i in range(m)]
    ws = [obj.w_slot(k) for k in range(n)]
    xs = [obj.x_slot(k) for k in range(n)]
    pv = lambda a, b: _pair_vec(obj, a, b)
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
        basis = gamma2(obj)
        if values.shape != (basis.num_lines,):
            raise ValueError(
                f"expected {basis.num_lines} values for Gamma^2({obj.m},{obj.n}), got {values.shape}"
            )
        if values.size and (values.min() < 0 or values.max() >= obj.field.order):
            raise ValueError("values must be field element encodings")
        self.obj = obj
        self.values = values

    @property
    def field(self) -> Field:
        return self.obj.field

    def basis(self) -> Gamma2Basis:
        return gamma2(self.obj)

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Evaluate on columns of `vecs`, which must lie in Gamma^2(U)."""
        basis = self.basis()
        vecs = np.asarray(vecs, dtype=np.int64)
        vec_in = vecs.ndim == 1
        if vec_in:
            vecs = vecs[:, None]
        coords = solve(self.field, basis.basis_matrix(), vecs)
        full = basis.extend_values(self.values)
        out = mat_mul(self.field, full[None, :], coords)[0]
        return int(out[0]) if vec_in else out

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
    """Associated bilinear form beta_q(u, u') = q((1 - c)(u (x) u'))."""
    obj = q.obj
    F = q.field
    d = obj.dim
    basis = q.basis()
    omc = one_minus_braiding(obj)
    if d == 0:
        return BilinearForm(obj, zeros(0, 0))
    coords = solve(F, basis.basis_matrix(), omc)
    full = basis.extend_values(q.values)
    flat = mat_mul(F, full[None, :], coords)[0]
    return BilinearForm(obj, flat.reshape(d, d))


def quad_restrict(q: QuadraticForm, sub: Subobject) -> QuadraticForm:
    """Restriction along Gamma^2(S) inside Gamma^2(U), on S's standard form."""
    F = q.field
    sobj, B = subobject_standard_basis(sub)
    if B.shape[1] == 0:
        return QuadraticForm(sobj, [])
    sub_basis = gamma2(sobj)
    push = kron(F, B, B)
    tops = np.column_stack([line.top for line in sub_basis.lines])
    vals = q.evaluate(mat_mul(F, push, tops))
    return QuadraticForm(sobj, vals)


def quad_sum(q: QuadraticForm, r: QuadraticForm) -> QuadraticForm:
    """Orthogonal sum on U + R: values live on same-side lines, 0 on mixed."""
    if q.field != r.field:
        raise ValueError("summands live over different fields")
    F = q.field
    m1, n1 = q.obj.m, q.obj.n
    m2, n2 = r.obj.m, r.obj.n
    target = VerObject(F, m1 + m2, n1 + n2)
    q_lut = {(line.family, line.indices): v for line, v in zip(gamma2(q.obj).lines, q.values)}
    r_lut = {(line.family, line.indices): v for line, v in zip(gamma2(r.obj).lines, r.values)}
    values = []
    for line in gamma2(target).lines:
        fam, idx = line.family, line.indices
        if fam in (1, 2):
            sides = [i < m1 for i in idx]
        elif fam == 3:
            sides = [idx[0] < m1, idx[1] < n1]
        else:
            sides = [k < n1 for k in idx]
        if all(sides):
            values.append(q_lut[(fam, idx)])
        elif not any(sides):
            if fam in (1, 2):
                shifted = tuple(i - m1 for i in idx)
            elif fam == 3:
                shifted = (idx[0] - m1, idx[1] - n1)
            else:
                shifted = tuple(k - n1 for k in idx)
            values.append(r_lut[(fam, shifted)])
        else:
            values.append(0)
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
    the remaining unit-square lines via a Frobenius-linear solve.  With the
    unit form on 1 this reproduces q, and on vector spaces it is the
    classical product of a symmetric bilinear with a quadratic form.
    """
    F = gamma.field
    if F != q.field:
        raise ValueError("operands live over different fields")
    if not gamma.is_symmetric():
        raise ValueError("quadratic products need a symmetric bilinear factor")
    V, W = gamma.obj, q.obj
    from .witt import tensor_product

    prod = tensor_product(gamma, beta_q(q))
    tobj, phi = tensor(V, W)
    Gp = prod.gram
    lines = gamma2(tobj).lines
    values = np.zeros(len(lines), dtype=np.int64)
    f1_pos: dict[int, int] = {}
    f2_val: dict[tuple[int, int], int] = {}
    for pos, line in enumerate(lines):
        fam, idx = line.family, line.indices
        if fam == 1:
            f1_pos[idx[0]] = pos
        elif fam == 2:
            v = int(Gp[tobj.v_slot(idx[1]), tobj.v_slot(idx[0])])
            values[pos] = v
            f2_val[idx] = v
        elif fam == 3:
            values[pos] = Gp[tobj.w_slot(idx[1]), tobj.v_slot(idx[0])]
        elif fam == 4:
            values[pos] = Gp[tobj.w_slot(idx[0]), tobj.w_slot(idx[0])]
        elif fam == 5:
            values[pos] = Gp[tobj.w_slot(idx[0]), tobj.x_slot(idx[0])]
        elif fam == 6:
            values[pos] = Gp[tobj.w_slot(idx[0]), tobj.x_slot(idx[1])]
        else:
            values[pos] = Gp[tobj.w_slot(idx[1]), tobj.w_slot(idx[0])]
    if tobj.m:
        f4_pos = {ln.indices[0]: pos for pos, ln in enumerate(lines) if ln.family == 4}
        q_unit = {
            ln.indices[0]: val
            for ln, val in zip(gamma2(W).lines, q.values)
            if ln.family == 1
        }
        rows = []
        rhs = []
        for i in range(V.m):
            for j in range(W.m):
                kron_idx = V.v_slot(i) * W.dim + W.v_slot(j)
                s = phi.matrix[:, kron_idx]
                cof = np.array([s[tobj.v_slot(a)] for a in range(tobj.m)], dtype=np.int64)
                if any(s[tobj.w_slot(k)] for k in range(tobj.n)):  # pragma: no cover
                    raise AssertionError("pure kernel tensor left ker t")
                acc = F.mul(int(gamma.gram[V.v_slot(i), V.v_slot(i)]), q_unit[j])
                for k in range(tobj.n):
                    d = int(s[tobj.x_slot(k)])
                    acc ^= F.mul(F.mul(d, d), int(values[f4_pos[k]]))
                for a in range(tobj.m):
                    for a2 in range(a + 1, tobj.m):
                        acc ^= F.mul(F.mul(int(cof[a]), int(cof[a2])), f2_val[(a, a2)])
                rows.append(F.mul_arr(cof, cof))
                rhs.append(acc)
        sol = solve(F, np.stack(rows), np.array(rhs, dtype=np.int64))
        for a in range(tobj.m):
            values[f1_pos[a]] = sol[a]
    return QuadraticForm(tobj, values)


def quad_transform(q: QuadraticForm, phi: Morphism) -> QuadraticForm:
    """Pullback q o Gamma^2(phi) along an isomorphism phi: U -> U."""
    if phi.source != q.obj or phi.target != q.obj:
        raise ValueError("transform must be an automorphism of the form's object")
    F = q.field
    M = phi.matrix
    push = kron(F, M, M)
    tops = np.column_stack([line.top for line in q.basis().lines])
    if tops.size == 0:
        return QuadraticForm(q.obj, [])
    return QuadraticForm(q.obj, q.evaluate(mat_mul(F, push, tops)))


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
    _, _, ww, wx = obj.gram_blocks(beta.gram)
    # lines on nP: w_k*w_k and w_k*w_l (k < l) read G_ww, w_k*x_k and
    # w_k*x_l read G_wx
    block = {4: ww, 5: wx, 6: wx, 7: ww}
    values = [block[ln.family][ln.indices[0], ln.indices[-1]] for ln in gamma2(obj).lines]
    return QuadraticForm(obj, values)


def hyperbolic_quadratic(F: Field, h: int) -> QuadraticForm:
    """h hyperbolic planes: q(a v + b w) = ab on each 2-dimensional piece."""
    obj = VerObject(F, 2 * h, 0)
    values = []
    for line in gamma2(obj).lines:
        if line.family == 2 and line.indices[1] == line.indices[0] + 1 and line.indices[0] % 2 == 0:
            values.append(1)
        else:
            values.append(0)
    return QuadraticForm(obj, values)


def quad_from_parts(F: Field, h: int, gamma_np: BilinearForm | None) -> QuadraticForm:
    """Composite of h hyperbolic planes and a symmetric form on nP."""
    q = hyperbolic_quadratic(F, h)
    if gamma_np is not None and gamma_np.obj.dim:
        q = quad_sum(q, quadratic_from_bilinear(gamma_np))
    return q


def classify_quadratic(q: QuadraticForm):
    """Hyperbolic multiplicity and the canonical class of the nP part.

    Requires beta_q non-degenerate.  The 1-multiplicity m must then be even
    (an odd-dimensional alternating block over a vector space is always
    degenerate), the vector-space part is m/2 hyperbolic planes, and the nP
    part classifies through the associated bilinear form.
    """
    from .classify import CanonicalClass, classify

    bq = beta_q(q)
    if not bq.is_nondegenerate():
        raise ValueError("quadratic form is degenerate (beta_q is singular)")
    obj = q.obj
    if obj.m % 2:
        raise ValueError("no non-degenerate quadratic form has odd unit multiplicity")
    h = obj.m // 2
    if obj.n == 0:
        return h, CanonicalClass("C", 0, 0)
    if obj.m == 0:
        return h, classify(bq)
    V = standard_subobject(obj, range(obj.m), [])
    comp = bq.orthogonal_complement(V)
    return h, classify(bq.restrict(comp))
