"""Bilinear forms as Gram data on standard objects.

A bilinear form on U is a functional beta: U (x) U -> 1 that is a module
map, which forces the compatibility law beta(t.u, u') = beta(u, t.u'), i.e.
T^T G = G T on Gram matrices.  On the standard basis this pins down three
entry families: beta(v_i, x_j) = 0, beta(w_j, x_k) = beta(x_j, w_k) and
beta(x_j, x_k) = 0.

The predicates below exploit that u -> beta(u, u) and u -> beta(u, t.u) are
additive and Frobenius-semilinear in characteristic 2 (for symmetric
compatible forms), so universally quantified conditions are decided on the
standard basis:

  alternating       beta(u, u) = 0 for u in ker t        (v and x diagonal)
  oscillating       beta(u, t.u) = 0 for all u           (diagonal of G T)
  super-alternating beta(u, u) = 0 for all u             (full diagonal)

Degenerate forms are representable here; the block lemma (`block_invariants`)
tells them apart, for every compatible Gram, and the classifier rejects them.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .field import Field, make_field
from .linalg import eye, mat_mul, null_space, row_reduce, solve
from .verobj import RawTModule, VerObject, json_fields, json_ints, standard_basis


def block_invariants(F: Field, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(nondegenerate, form invariant) of a stack of compatible Grams,
    symmetric or not, given by its `gram_blocks`.  Block lemma: in slot
    order v, w, x, G = [[G_vv, G_vw, 0], [G_wv, G_ww, G_wx], [0, G_xw, 0]]
    and T^T G = G T forces G_xw = G_wx, so det G = +-det G_vv det(G_wx)^2.
    The invariant sum_i f_i (G_wx^-1)_ii, f the G_ww diagonal, means
    something where G is symmetric, non-degenerate and alternating.  It is
    g^T G_wx^-1 g with g = sqrt(f), one solve: N = G_wx^-1 is symmetric, so
    g^T N g = sum_i g_i^2 N_ii + sum_{i<j} 2 g_i g_j N_ij, and 2 = 0."""
    vv, _, ww, wx = blocks
    g = F.sqrt_arr(ww.diagonal(0, -2, -1))
    ok_v, _ = linalg.batch_solve(F, vv)
    ok_x, x = linalg.batch_solve(F, wx, g[..., None])
    invariant = np.bitwise_xor.reduce(F.mul_arr(g, x[..., 0]), axis=1)
    return ok_v & ok_x, invariant


class Subobject:
    """A t-stable subspace of a standard object, given by a spanning matrix."""

    def __init__(self, ambient: VerObject, span: np.ndarray):
        span = linalg.as_matrix(ambient.field, span)
        if span.shape[0] != ambient.dim:
            raise ValueError("spanning matrix has wrong ambient dimension")
        F = ambient.field
        stacked = np.concatenate([span, ambient.t_times(span)], axis=1)
        pivots = row_reduce(F, stacked)[1]
        if pivots and pivots[-1] >= span.shape[1]:  # a t-image outside the span
            raise ValueError("column space is not t-stable")
        self.ambient = ambient
        self.span = span
        self._pivots = pivots

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def basis(self) -> np.ndarray:
        """Column basis: the first independent columns of the spanning matrix."""
        return self.span[:, self._pivots]

    def __repr__(self):
        return f"Subobject(dim={self.dim} of {self.ambient!r})"


class BilinearForm:
    """A Gram matrix on the standard basis of a VerObject.

    gram[i][j] = beta(b_i, b_j).  Construction validates the compatibility
    law T^T G = G T; symmetry and non-degeneracy are separate predicates.
    Instances are value objects: mutating `gram` in place is unsupported.
    """

    def __init__(self, obj: VerObject, gram: np.ndarray):
        self.obj = obj
        self.gram = obj.as_grams(gram)

    @classmethod
    def _certified(cls, obj: VerObject, gram: np.ndarray) -> "BilinearForm":
        """A BilinearForm on a Gram its caller has already certified: no copy and no re-check."""
        beta = cls.__new__(cls)
        beta.obj, beta.gram = obj, gram
        return beta

    @property
    def field(self) -> Field:
        return self.obj.field

    @property
    def dim(self) -> int:
        return self.obj.dim

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> int:
        return linalg.dot(self.field, u, linalg.mat_vec(self.field, self.gram, v))

    # -- predicates ---------------------------------------------------------

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.gram, self.gram.T))

    def _require_symmetric(self):
        if not self.is_symmetric():
            raise ValueError("operation requires a symmetric form")

    def is_alternating(self) -> bool:
        self._require_symmetric()
        # the x-diagonal vanishes by compatibility, leaving the v's
        return not self.obj.gram_blocks(self.gram)[0].diagonal().any()

    def is_oscillating(self) -> bool:
        self._require_symmetric()
        return not np.diagonal(self.obj.times_t(self.gram)).any()

    def is_super_alternating(self) -> bool:
        self._require_symmetric()
        return not np.diagonal(self.gram).any()

    # -- degeneracy ---------------------------------------------------------

    def radical(self) -> Subobject:
        return Subobject(self.obj, null_space(self.field, self.gram))

    def is_nondegenerate(self) -> bool:
        return bool(block_invariants(self.field, self.obj.gram_blocks(self.gram[None]))[0][0])

    # -- subobjects ---------------------------------------------------------

    def orthogonal_complement(self, sub: Subobject) -> Subobject:
        """S-perp = { u : beta(s, u) = 0 for all s in S }."""
        rows = mat_mul(self.field, sub.basis().T, self.gram)
        return Subobject(self.obj, null_space(self.field, rows))

    def restrict(self, sub: Subobject) -> "BilinearForm":
        """Re-express the form on the standard basis of the subobject
        (`subobject_standard_basis`)."""
        sobj, B = subobject_standard_basis(sub)
        return BilinearForm(sobj, linalg.congruence(self.field, B, self.gram))

    def split(self, sub: Subobject) -> tuple["BilinearForm", "BilinearForm"]:
        """Restrictions to S and S-perp; requires beta|_S non-degenerate."""
        restr = self.restrict(sub)
        if not restr.is_nondegenerate():
            raise ValueError("restriction to the subobject is degenerate; no splitting")
        return restr, self.restrict(self.orthogonal_complement(sub))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": {"k": self.field.k},
            "object": self.obj.to_json(),
            "gram": self.gram.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BilinearForm":
        field, obj_doc, gram = json_fields(doc, "form document", "field", "object", "gram")
        F = make_field(json_ints(*json_fields(field, "field document", "k"), "field degree k"))
        obj = VerObject.from_json(F, obj_doc)
        lengths = [len(row) for row in json_ints(gram, "gram entries", depth=2, bound=F.order)]
        if len(set(lengths)) > 1:
            raise ValueError(f"gram rows must have equal lengths, got lengths {lengths!r:.60}")
        gram = np.array(gram, dtype=np.int64)
        if gram.ndim == 1:  # a dim-0 form writes "gram": [], which numpy reads as 1-D
            gram = gram.reshape(0, 0)
        return cls(obj, gram)

    def __repr__(self):
        return f"BilinearForm({self.obj!r})"


def subobject_standard_basis(sub: Subobject) -> tuple[VerObject, np.ndarray]:
    """Standard form of a subobject and its basis in ambient coordinates.

    The returned columns are ordered like the standard basis of the m1 + nP
    shape of the subobject, so Gram matrices restrict by congruence with B.
    """
    F = sub.ambient.field
    Sb = sub.basis()
    if Sb.shape[1] == 0:
        return VerObject(F, 0, 0), Sb
    t_sub = solve(F, Sb, sub.ambient.t_times(Sb))
    sobj, B = standard_basis(RawTModule(F, t_sub))
    return sobj, mat_mul(F, Sb, B)


def standard_subobject(obj: VerObject, v_indices, pair_indices) -> Subobject:
    """Subobject spanned by chosen standard v's and (w, x) pairs."""
    v = np.asarray(list(v_indices), dtype=np.int64)
    p = np.asarray(list(pair_indices), dtype=np.int64)
    slots = np.concatenate([obj.vs[v], np.stack([obj.ws[p], obj.xs[p]], axis=1).reshape(-1)])
    return Subobject(obj, eye(obj.dim)[:, slots])
