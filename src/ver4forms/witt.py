"""Sum and product of forms and the induced class-level semi-ring.

Isomorphism classes of non-degenerate symmetric bilinear forms carry a
commutative semi-ring structure: direct sum and the braided tensor product.
At class level the operations close over the six canonical families; the
transcribed rules live in `expected_sum_class` / `expected_product_class`,
and `table_cell` computes the honest form-level operation on canonical
representatives, classifies it and pairs it with the rule's answer.
`emit_tables` groups its cells by operation and operand objects and
computes each group as one stack: the sums or products of the stacked
representatives, classified by one `classify_batch`.  `table_cell`,
`direct_sum` and `tensor_product` are the same helpers on a stack of one.

Orientation of the rules: the first operand lives on m1 + nP (parameter a
for E/F), the second on p1 + qP (parameter b); both tables are symmetric.
Integer coefficients like "n a" are reduced mod 2, since the sum of n
copies of a field element in characteristic 2 is a or 0.

The product Gram follows the evaluation law

    (beta x eta)(u (x) r, u' (x) r')
        = beta(u, u') eta(r, r') + beta(u, t.u') eta(r, t.r'),

frozen from the braiding composition (retained in
`tensor_product_via_braiding` as a cross-check path), then rewritten on the
standard basis B of the product object.  That congruence B^T K B is a
gather: `verobj.tensor` caches B with its column support (every column of a
standard tensor basis checked, up to m, n <= 5 and dim <= 160, has at most
two non-zeros, each 1), so it costs a few index gathers of K and XORs
(`linalg.support_congruence`) rather than two matrix products.  The
braiding path applies the same cached B by a plain congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement

import numpy as np

from .bform import BilinearForm
# `classify` is unused here; perfbench's tracer smoke test checks that this
# module binding is patched and restored, so it stays imported
from .classify import CanonicalClass, canonical_rep, class_inventory, classify, classify_batch  # noqa: F401
from .field import Field
from .linalg import congruence, eye, kron, mat_mul, support_congruence
from .verobj import VerObject, braiding, tensor


def direct_sum(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Orthogonal sum, re-indexed onto the standard basis of the sum object."""
    if b1.field != b2.field:
        raise ValueError("summands live over different fields")
    target, grams = _sum_grams(b1.obj, b2.obj, b1.gram[None], b2.gram[None])
    return BilinearForm(target, grams[0])


def tensor_product(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Braided tensor product, on the standard basis of the product object."""
    if b1.field != b2.field:
        raise ValueError("factors live over different fields")
    tobj, grams = _product_grams(b1.obj, b2.obj, b1.gram[None], b2.gram[None])
    return BilinearForm(tobj, grams[0])


def _sum_grams(o1: VerObject, o2: VerObject, G1: np.ndarray, G2: np.ndarray):
    """The sum object of o1 and o2, and the orthogonal sums of the Gram
    stacks G1 (on o1) and G2 (on o2), member by member."""
    target = VerObject(o1.field, o1.m + o2.m, o1.n + o2.n)
    # pos[target slot] = the same basis vector's slot in o1 (+) o2
    pos = np.zeros(target.dim, dtype=np.int64)
    pos[target.vs] = np.concatenate([o1.vs, o1.dim + o2.vs])
    pos[target.ws] = np.concatenate([o1.ws, o1.dim + o2.ws])
    pos[target.xs] = np.concatenate([o1.xs, o1.dim + o2.xs])
    stack = np.zeros((len(G1), target.dim, target.dim), dtype=np.int64)
    stack[:, : o1.dim, : o1.dim] = G1
    stack[:, o1.dim :, o1.dim :] = G2
    return target, stack[:, pos[:, None], pos]


def _product_grams(U: VerObject, R: VerObject, G1: np.ndarray, G2: np.ndarray):
    """The product object of U and R, and the products of the Gram stacks
    G1 (on U) and G2 (on R), member by member: the evaluation law on the
    Kronecker basis, moved onto the standard basis by gathers over its
    cached column support."""
    F = U.field
    tobj, _, support = tensor(U, R)
    K = kron(F, G1, G2) ^ kron(F, U.times_t(G1), R.times_t(G2))
    return tobj, support_congruence(F, support, K)


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
    tobj, B, _ = tensor(U, R)
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
    return _table_cells(op, [(c1, c2)], F)[0]


def _table_cells(op: str, pairs, F: Field) -> list:
    """`table_cell` for each (c1, c2) of `pairs`, where all first classes
    share one object and all second classes another: the stacked sums or
    products are classified by one `classify_batch`."""
    reps = [(canonical_rep(c1, F), canonical_rep(c2, F)) for c1, c2 in pairs]
    G1 = np.stack([r1.gram for r1, _ in reps])
    G2 = np.stack([r2.gram for _, r2 in reps])
    U, R = reps[0][0].obj, reps[0][1].obj
    if op == "sum":
        obj, grams = _sum_grams(U, R, G1, G2)
        expected = [expected_sum_class(c1, c2) for c1, c2 in pairs]
    else:
        obj, grams = _product_grams(U, R, G1, G2)
        expected = [expected_product_class(c1, c2, F) for c1, c2 in pairs]
    return list(zip(classify_batch(obj, grams), expected))


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


def all_class_instances(F: Field, max_m: int = 4, max_n: int = 4, params=None):
    """`class_inventory` over every shape with m <= max_m and n <= max_n,
    ordered by family, then m, n and parameter."""
    grid = [c for m in range(max_m + 1) for n in range(max_n + 1) for c in class_inventory(m, n, F, params)]
    return sorted(grid, key=lambda c: c.family)


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


# Table cells are classified in stacks of at most this many Gram entries
# (at least one cell), which bounds the transient arrays of a group.
CELL_STACK_ENTRIES = 1 << 15

# emit_tables refuses a grid with over 2^TABLE_BUDGET_BITS class pairs, up front
TABLE_BUDGET_BITS = 22


def emit_tables(
    F: Field,
    max_size: int = 4,
    params=None,
    product_dim_cap: int = 24,
) -> tuple[TableReport, TableReport]:
    """Compute every table cell over a size grid and diff against the rules.

    Parameters default to the whole field.  Product cells whose result
    dimension exceeds `product_dim_cap` are skipped (the rules are
    dimension-uniform; the cap only bounds runtime).  Before any class is
    built, refuses a negative `max_size` and a grid over 2^TABLE_BUDGET_BITS
    class pairs by the bound N(N + 1)/2, N = (max_size + 1)^2 (4 + 2P)
    classes for P parameters (A-D once and E, F once per parameter on each
    shape).
    """
    if F.k < 2:
        raise ValueError("tables require a field with k >= 2")
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    N = (max_size + 1) ** 2 * (4 + 2 * (F.order if params is None else len(params)))
    if N * (N + 1) // 2 > 1 << TABLE_BUDGET_BITS:
        raise ValueError(
            f"tables with max_size {max_size}: up to {N * (N + 1) // 2} class pairs, "
            f"over the 2^{TABLE_BUDGET_BITS} budget"
        )
    # cells of one operation on one pair of objects are classified as one stack
    cells, groups = [], {}
    insts = all_class_instances(F, max_size, max_size, params)
    for c1, c2 in combinations_with_replacement(insts, 2):
        dim = (c1.m + 2 * c1.n) * (c2.m + 2 * c2.n)
        for op in ("sum",) if dim > product_dim_cap else ("sum", "product"):
            groups.setdefault((op, c1.m, c1.n, c2.m, c2.n), []).append(len(cells))
            cells.append((op, c1, c2))
    records = [None] * len(cells)
    for (op, m1, n1, m2, n2), members in groups.items():
        d1, d2 = m1 + 2 * n1, m2 + 2 * n2
        d = d1 + d2 if op == "sum" else d1 * d2
        step = max(1, CELL_STACK_ENTRIES // max(1, d * d))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            pairs = [cells[i][1:] for i in chunk]
            for i, (c1, c2), (got, expected) in zip(chunk, pairs, _table_cells(op, pairs, F)):
                records[i] = (c1.family, c1.m, c1.n, c1.param, c2.family, c2.m, c2.n, c2.param,
                              got.label(), expected.label(), got == expected)
    reports = {"sum": TableReport("sum", F.k), "product": TableReport("product", F.k)}
    collapsed = {"sum": _sum_coefficient_collapsed, "product": _product_coefficient_collapsed}
    for (op, c1, c2), rec in zip(cells, records):
        rep = reports[op]
        rep.cells += 1
        rep.records.append(rec)
        cell = f"{c1} {_OP_SYMBOL[op]} {c2}"
        if not rec[-1]:
            rep.mismatches.append(f"{cell}: computed {rec[8]}, rule {rec[9]}")
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
