"""Sum and product of forms and the induced class-level semi-ring.

Isomorphism classes of non-degenerate symmetric bilinear forms carry a
commutative semi-ring structure: direct sum and the braided tensor product.
At class level the operations close over the six canonical families; the
transcribed rules live in `expected_sum_class` / `expected_product_class`,
and `table_cell` computes the honest form-level operation on canonical
representatives, classifies it and pairs it with the rule's answer.

Orientation of the rules: the first operand lives on m1 + nP (parameter a
for E/F), the second on p1 + qP (parameter b); both tables are symmetric.
Integer coefficients like "n a" are reduced mod 2, since the sum of n
copies of a field element in characteristic 2 is a or 0.

The product Gram follows the evaluation law

    (beta x eta)(u (x) r, u' (x) r')
        = beta(u, u') eta(r, r') + beta(u, t.u') eta(r, t.r'),

frozen from the braiding composition (retained in
`tensor_product_via_braiding` as a cross-check path), then rewritten on the
standard basis of the product object.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .bform import BilinearForm
from .classify import CanonicalClass, classify, canonical_rep
from .field import Field
from .linalg import block_diag, congruence, eye, kron, mat_mul, zeros
from .verobj import VerObject, braiding, tensor


def direct_sum(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Orthogonal sum, re-indexed onto the standard basis of the sum object."""
    if b1.field != b2.field:
        raise ValueError("summands live over different fields")
    F = b1.field
    o1, o2 = b1.obj, b2.obj
    target = VerObject(F, o1.m + o2.m, o1.n + o2.n)
    # pos[target slot] = the same basis vector's slot in b1 (+) b2
    pos = np.zeros(target.dim, dtype=np.int64)
    pos[target.vs] = np.concatenate([o1.vs, o1.dim + o2.vs])
    pos[target.ws] = np.concatenate([o1.ws, o1.dim + o2.ws])
    pos[target.xs] = np.concatenate([o1.xs, o1.dim + o2.xs])
    return BilinearForm(target, block_diag(b1.gram, b2.gram)[pos[:, None], pos])


def tensor_product(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Braided tensor product, on the standard basis of the product object."""
    if b1.field != b2.field:
        raise ValueError("factors live over different fields")
    F = b1.field
    U, R = b1.obj, b2.obj
    tobj, phi = tensor(U, R)
    if tobj.dim == 0:
        return BilinearForm(tobj, zeros(0, 0))
    K = kron(F, b1.gram, b2.gram) ^ kron(F, U.times_t(b1.gram), R.times_t(b2.gram))
    B = linalg.inverse(F, phi.matrix)
    return BilinearForm(tobj, congruence(F, B, K))


def tensor_product_via_braiding(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Same product computed from the literal braiding composition."""
    F = b1.field
    U, R = b1.obj, b2.obj
    t = U.dim * R.dim
    if t == 0:
        return tensor_product(b1, b2)
    c_RU = braiding(R, U).matrix
    L = kron(F, eye(U.dim), kron(F, c_RU, eye(R.dim)))
    row = kron(F, b1.gram.reshape(1, -1), b2.gram.reshape(1, -1))
    K = mat_mul(F, row, L).reshape(t, t)
    tobj, phi = tensor(U, R)
    B = linalg.inverse(F, phi.matrix)
    return BilinearForm(tobj, congruence(F, B, K))


# -- class-level rules ---------------------------------------------------------


def _times(coeff: int, a: int) -> int:
    """The field element a added to itself coeff times (characteristic 2)."""
    return a if coeff % 2 else 0


def _sorted_pair(c1: CanonicalClass, c2: CanonicalClass):
    if c1.family <= c2.family:
        return c1, c2
    return c2, c1


def expected_sum_class(c1: CanonicalClass, c2: CanonicalClass) -> CanonicalClass:
    """Transcribed addition rule for a pair of canonical classes."""
    ca, cb = _sorted_pair(c1, c2)
    pair = ca.family + cb.family
    m, n = c1.m + c2.m, c1.n + c2.n
    if pair in ("AA", "AC", "AD"):
        return CanonicalClass("A", m, n)
    if pair in ("AB", "AE", "AF") or ca.family == "B":
        return CanonicalClass("B", m, n)
    if pair == "CC":
        return CanonicalClass("C", m, n)
    if pair in ("CD", "DD"):
        return CanonicalClass("D", m, n)
    if pair == "CE":
        return CanonicalClass("E", m, n, cb.param)
    if pair in ("CF", "DF"):
        return CanonicalClass("F", m, n, cb.param)
    if pair == "DE":
        return CanonicalClass("F", m, n, _times(cb.n, cb.param))
    if pair == "EE":
        if ca.param == cb.param:
            return CanonicalClass("E", m, n, ca.param)
        return CanonicalClass("F", m, n, _times(ca.n, ca.param) ^ _times(cb.n, cb.param))
    if pair == "EF":
        return CanonicalClass("F", m, n, cb.param ^ _times(ca.n, ca.param))
    if pair == "FF":
        return CanonicalClass("F", m, n, ca.param ^ cb.param)
    raise AssertionError(f"unhandled family pair {pair}")  # pragma: no cover


def expected_product_class(c1: CanonicalClass, c2: CanonicalClass, F: Field) -> CanonicalClass:
    """Transcribed multiplication rule for a pair of canonical classes."""
    ca, cb = _sorted_pair(c1, c2)
    pair = ca.family + cb.family
    m = c1.m * c2.m
    n = 2 * c1.n * c2.n + c1.m * c2.n + c1.n * c2.m
    if "C" in pair:
        return CanonicalClass("C", m, n)
    e1_a = ca.family == "E" and ca.param == 1
    e1_b = cb.family == "E" and cb.param == 1
    if e1_a and e1_b:
        return CanonicalClass("C", m, n)
    if e1_a or e1_b:
        return CanonicalClass("E", m, n, 1)
    if pair == "AA":
        return CanonicalClass("A", m, n)
    if pair in ("AB", "BB"):
        return CanonicalClass("B", m, n)
    if pair in ("AD", "DD"):
        return CanonicalClass("D", m, n)
    if pair == "AE":
        return CanonicalClass("E", m, n, cb.param)
    if pair == "AF":
        return CanonicalClass("F", m, n, _times(ca.m, cb.param))
    if pair == "BD":
        return CanonicalClass("F", m, n, 0)
    if pair == "BE":
        return CanonicalClass("F", m, n, _times(ca.m * cb.n, cb.param))
    if pair == "BF":
        return CanonicalClass("F", m, n, _times(ca.m, cb.param))
    if pair == "DE":
        return CanonicalClass("E", m, n, cb.param)
    if pair in ("DF", "EF", "FF"):
        return CanonicalClass("F", m, n, 0)
    if pair == "EE":
        a, b = ca.param, cb.param
        if a == b:
            return CanonicalClass("D", m, n)
        return CanonicalClass("E", m, n, F.div(F.mul(a, b) ^ 1, a ^ b))
    raise AssertionError(f"unhandled family pair {pair}")  # pragma: no cover


def table_cell(op: str, c1: CanonicalClass, c2: CanonicalClass, F: Field):
    """One table cell: (got, expected), where `got` classifies the honest
    form-level sum or product of the canonical representatives and
    `expected` is the transcribed rule; `op` is "sum" or "product"."""
    r1, r2 = canonical_rep(c1, F), canonical_rep(c2, F)
    if op == "sum":
        return classify(direct_sum(r1, r2)), expected_sum_class(c1, c2)
    return classify(tensor_product(r1, r2)), expected_product_class(c1, c2, F)


# -- full table verification -----------------------------------------------------

_OP_SYMBOL = {"sum": "+", "product": "x"}

SYMBOLIC_SUM = {
    ("A", "A"): "A",
    ("A", "B"): "B",
    ("A", "C"): "A",
    ("A", "D"): "A",
    ("A", "E"): "B",
    ("A", "F"): "B",
    ("B", "B"): "B",
    ("B", "C"): "B",
    ("B", "D"): "B",
    ("B", "E"): "B",
    ("B", "F"): "B",
    ("C", "C"): "C",
    ("C", "D"): "D",
    ("C", "E"): "E(a)",
    ("C", "F"): "F(a)",
    ("D", "D"): "D",
    ("D", "E"): "F(na)",
    ("D", "F"): "F(a)",
    ("E", "E"): "a=b: E(a); a!=b: F(na+qb)",
    ("E", "F"): "F(a+qb)",
    ("F", "F"): "F(a+b)",
}

SYMBOLIC_PRODUCT = {
    ("A", "A"): "A",
    ("A", "B"): "B",
    ("A", "C"): "C",
    ("A", "D"): "D",
    ("A", "E"): "E(a)",
    ("A", "F"): "F(pa)",
    ("B", "B"): "B",
    ("B", "C"): "C",
    ("B", "D"): "F(0)",
    ("B", "E"): "a=1: E(1); a!=1: F(pna)",
    ("B", "F"): "F(pa)",
    ("C", "C"): "C",
    ("C", "D"): "C",
    ("C", "E"): "C",
    ("C", "F"): "C",
    ("D", "D"): "D",
    ("D", "E"): "E(a)",
    ("D", "F"): "F(0)",
    ("E", "E"): "a=b=1: C; a=b!=1: D; a!=b, one =1: E(1); else E((ab+1)/(a+b))",
    ("E", "F"): "a=1: E(1); a!=1: F(0)",
    ("F", "F"): "F(0)",
}


def class_instances(
    F: Field, family: str, max_m: int = 4, max_n: int = 4, params=None
):
    """All valid classes of one family with sizes up to the bounds."""
    if params is None:
        params = list(F.elements())
    out = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            if family in ("E", "F"):
                for p in params:
                    try:
                        out.append(CanonicalClass(family, m, n, p))
                    except ValueError:
                        continue
            else:
                try:
                    out.append(CanonicalClass(family, m, n))
                except ValueError:
                    continue
    return out


def all_class_instances(F: Field, max_m: int = 4, max_n: int = 4, params=None):
    out = []
    for fam in "ABCDEF":
        out += class_instances(F, fam, max_m, max_n, params)
    return out


@dataclass
class TableReport:
    """Verification summary for one operation over a size/parameter grid."""

    operation: str
    field_k: int
    cells: int = 0
    mismatches: list = dc_field(default_factory=list)
    coincidences: list = dc_field(default_factory=list)
    records: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_markdown(self) -> str:
        table = SYMBOLIC_SUM if self.operation == "sum" else SYMBOLIC_PRODUCT
        op = _OP_SYMBOL[self.operation]
        fams = list("ABCDEF")
        lines = [
            f"# Witt semi-ring {self.operation} table over GF(2^{self.field_k})",
            "",
            "First operand on m*1 + n*P (parameter a), second on p*1 + q*P",
            "(parameter b); coefficients like na are reduced mod 2.",
            "",
            "| " + op + " | " + " | ".join(fams) + " |",
            "|" + "---|" * 7,
        ]
        for fb in fams:
            row = [fb]
            for fa in fams:
                key = (fa, fb) if (fa, fb) in table else (fb, fa)
                row.append(table[key])
            lines.append("| " + " | ".join(row) + " |")
        lines += [
            "",
            f"Verified cells: {self.cells}",
            f"Mismatches: {len(self.mismatches)}",
        ]
        for msg in self.mismatches:
            lines.append(f"  MISMATCH {msg}")
        if self.coincidences:
            lines.append(
                f"Small-field coincidences (parameter collapsed by an even coefficient): {len(self.coincidences)}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = ["family1,m,n,param1,family2,p,q,param2,result,expected,match"]
        for rec in self.records:
            out.append(",".join(str(x) for x in rec))
        return "\n".join(out) + "\n"


def _grid_pairs(F: Field, max_size: int, params):
    insts = all_class_instances(F, max_size, max_size, params)
    for i, c1 in enumerate(insts):
        for c2 in insts[i:]:
            yield c1, c2


def emit_tables(
    F: Field,
    max_size: int = 4,
    params=None,
    product_dim_cap: int = 24,
) -> tuple[TableReport, TableReport]:
    """Compute every table cell over a size grid and diff against the rules.

    Parameters default to the whole field.  Product cells whose result
    dimension exceeds `product_dim_cap` are skipped (the rules are
    dimension-uniform; the cap only bounds runtime).
    """
    if F.k < 2:
        raise ValueError("tables require a field with k >= 2")
    reports = {"sum": TableReport("sum", F.k), "product": TableReport("product", F.k)}
    collapsed = {"sum": _sum_coefficient_collapsed, "product": _product_coefficient_collapsed}
    for c1, c2 in _grid_pairs(F, max_size, params):
        dim = (c1.m + 2 * c1.n) * (c2.m + 2 * c2.n)
        for op in ("sum",) if dim > product_dim_cap else ("sum", "product"):
            rep = reports[op]
            got, expected = table_cell(op, c1, c2, F)
            rep.cells += 1
            rep.records.append(
                (c1.family, c1.m, c1.n, c1.param, c2.family, c2.m, c2.n, c2.param,
                 got.label(), expected.label(), got == expected)
            )
            cell = f"{c1} {_OP_SYMBOL[op]} {c2}"
            if got != expected:
                rep.mismatches.append(f"{cell}: computed {got}, rule {expected}")
            if collapsed[op](c1, c2):
                rep.coincidences.append(cell)
    return reports["sum"], reports["product"]


def _sum_coefficient_collapsed(c1: CanonicalClass, c2: CanonicalClass) -> bool:
    ca, cb = _sorted_pair(c1, c2)
    pair = ca.family + cb.family
    if pair == "DE":
        return cb.n % 2 == 0 and cb.param not in (None, 0)
    if pair == "EE" and ca.param != cb.param:
        return (ca.n % 2 == 0 and ca.param != 0) or (cb.n % 2 == 0 and cb.param != 0)
    if pair == "EF":
        return ca.n % 2 == 0 and ca.param != 0
    return False


def _product_coefficient_collapsed(c1: CanonicalClass, c2: CanonicalClass) -> bool:
    ca, cb = _sorted_pair(c1, c2)
    pair = ca.family + cb.family
    if pair == "AF" or pair == "BF":
        return ca.m % 2 == 0 and cb.param != 0
    if pair == "BE" and cb.param not in (None, 0, 1):
        return (ca.m * cb.n) % 2 == 0
    return False
