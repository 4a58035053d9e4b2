"""Sum and product of forms and the induced class-level semi-ring.

Isomorphism classes of non-degenerate symmetric bilinear forms carry a
commutative semi-ring structure: direct sum and the braided tensor product.
At class level the operations close over the six canonical families; the
transcribed rules live in `expected_sum_class` / `expected_product_class`,
and `table_cell` computes the honest form-level operation on canonical
representatives, classifies it and pairs it with the rule's answer.
`emit_tables` stacks each operand object's canonical representatives once
per call, gathers each run of cells on one pair of operand objects from them
by one index per side, and classifies the cells per result object: every
stack with the same operation and result object is classified by one
`_classify_grams`.  `table_cell`, `direct_sum` and `tensor_product` are the
same helpers on a stack of one.

Orientation of the rules: the first operand lives on m1 + nP (parameter a
for E/F), the second on p1 + qP (parameter b); both tables are symmetric.
Integer coefficients like "n a" are reduced mod 2, since the sum of n
copies of a field element in characteristic 2 is a or 0.

The product Gram follows the evaluation law

    (beta x eta)(u (x) r, u' (x) r')
        = beta(u, u') eta(r, r') + beta(u, t.u') eta(r, t.r'),

frozen from the braiding composition (retained in
`tensor_product_via_braiding` as a cross-check path), then rewritten on the
standard basis B of the product object.  On Kronecker bases its Gram is
K = G1 (x) G2 + G1 T1 (x) G2 T2, and G T is zero but on the w columns, where
column w_k is column x_k of G: the t-term is G1[:, xs] (x) G2[:, xs'] on the
w (x) w' columns alone.  The congruence B^T K B is a gather: every column
of B is a unit vector or the t-image x (x) w' + w (x) x' of a w (x) w', so
`verobj.tensor` caches B with its 0/1 column support, written in closed
form: each column's first non-zero row, and one level holding the x (x) w'
rows of those t-images.  It costs one index gather of K per side plus an XOR
into the w (x) w' x-columns (`linalg.support_congruence`), with no field
multiply, rather than two matrix products.  The braiding path multiplies by the matrix
`braiding(R, U)` and applies the same cached B by a plain congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement, groupby

import numpy as np

from .bform import BilinearForm
# `classify` is unused here; perfbench's tracer smoke test checks that this
# module binding is patched and restored, so it stays imported
from .classify import CanonicalClass, _classify_grams, canonical_rep, class_inventory, classify  # noqa: F401
from .field import Field
from .linalg import congruence, kron, mat_mul, readonly, support_congruence
from .verobj import TENSOR_MAX_DIM, InternalCheckError, VerObject, braiding, tensor


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
    stacks G1 (on o1) and G2 (on o2), member by member, scattered onto the
    standard layout: the v's of o1, then of o2, then o1's (w, x) pairs, then o2's."""
    m1, m2 = o1.m, o2.m
    target = VerObject(o1.field, m1 + m2, o1.n + o2.n)
    i1 = np.arange(o1.dim)
    i1[m1:] += m2
    i2 = np.arange(o2.dim) + m1
    i2[m2:] += 2 * o1.n
    stack = np.zeros((len(G1), target.dim, target.dim), dtype=np.int64)
    stack[:, i1[:, None], i1] = G1
    stack[:, i2[:, None], i2] = G2
    return target, stack


def _product_grams(U: VerObject, R: VerObject, G1: np.ndarray, G2: np.ndarray):
    """The product object of U and R, and the products of the Gram stacks
    G1 (on U) and G2 (on R), member by member: the evaluation law on the
    Kronecker basis, G1 (x) G2 with the t-term G1[:, xs] (x) G2[:, xs'] XORed
    into its w (x) w' columns, moved onto the standard basis by gathers over
    its cached column support."""
    F = U.field
    tobj, _, support = tensor(U, R)
    K = kron(F, G1, G2)
    # G T is zero but on the w columns, where column w_k is column x_k of G
    K[..., np.add.outer(U.ws * R.dim, R.ws).reshape(-1)] ^= kron(F, G1[..., U.slots[2]], G2[..., R.slots[2]])
    return tobj, support_congruence(support, K)


def tensor_product_via_braiding(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Same product computed from the literal braiding composition."""
    F = b1.field
    U, R = b1.obj, b2.obj
    t = U.dim * R.dim
    # the evaluation row times 1 (x) c_RU (x) 1, with the outer factors as rows
    row = kron(F, b1.gram.reshape(1, -1), b2.gram.reshape(1, -1)).reshape(U.dim, t, R.dim)
    K = mat_mul(F, row.transpose(0, 2, 1).reshape(t, t), braiding(R, U))
    K = K.reshape(U.dim, R.dim, R.dim, U.dim).transpose(0, 2, 3, 1).reshape(t, t)
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
    return _sum_rule(c1, c2, _times)


def expected_product_class(c1: CanonicalClass, c2: CanonicalClass, F: Field) -> CanonicalClass:
    """Transcribed multiplication rule for a pair of canonical classes."""
    return _product_rule(c1, c2, F, _times)


def _sum_rule(c1: CanonicalClass, c2: CanonicalClass, times) -> CanonicalClass:
    """`expected_sum_class`, reducing coefficients by `times`."""
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
        return CanonicalClass("F", m, n, times(cb.n, cb.param))
    if pair == "EE":
        if ca.param == cb.param:
            return CanonicalClass("E", m, n, ca.param)
        return CanonicalClass("F", m, n, times(ca.n, ca.param) ^ times(cb.n, cb.param))
    if pair == "EF":
        return CanonicalClass("F", m, n, cb.param ^ times(ca.n, ca.param))
    if pair == "FF":
        return CanonicalClass("F", m, n, ca.param ^ cb.param)
    raise InternalCheckError(f"unhandled family pair {pair}")  # pragma: no cover


def _product_rule(c1: CanonicalClass, c2: CanonicalClass, F: Field, times) -> CanonicalClass:
    """`expected_product_class`, reducing coefficients by `times`."""
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
        return CanonicalClass("F", m, n, times(ca.m, cb.param))
    if pair == "BD":
        return CanonicalClass("F", m, n, 0)
    if pair == "BE":
        return CanonicalClass("F", m, n, times(ca.m * cb.n, cb.param))
    if pair == "BF":
        return CanonicalClass("F", m, n, times(ca.m, cb.param))
    if pair == "DE":
        return CanonicalClass("E", m, n, cb.param)
    if pair in ("DF", "EF", "FF"):
        return CanonicalClass("F", m, n, 0)
    if pair == "EE":
        a, b = ca.param, cb.param
        if a == b:
            return CanonicalClass("D", m, n)
        return CanonicalClass("E", m, n, F.div(F.mul(a, b) ^ 1, a ^ b))
    raise InternalCheckError(f"unhandled family pair {pair}")  # pragma: no cover


def table_cell(op: str, c1: CanonicalClass, c2: CanonicalClass, F: Field):
    """One table cell: (got, expected), where `got` classifies the honest
    form-level sum or product of the canonical representatives and
    `expected` is the transcribed rule; `op` is "sum" or "product"."""
    return _table_cells(op, [(c1, c2)], F, _rep_stacks((c1, c2), F))[0][:2]


def _rep_stacks(classes, F: Field) -> dict:
    """Each class of `classes` -> (its object, the read-only stack of the
    canonical representatives of the classes on that object, its index in
    that stack): one `canonical_rep` per distinct class, one stack per object."""
    by_obj = {}
    for c in dict.fromkeys(classes):
        by_obj.setdefault((c.m, c.n), []).append(c)
    reps = {}
    for members in by_obj.values():
        forms = [canonical_rep(c, F) for c in members]
        stack = readonly(np.stack([f.gram for f in forms]))
        reps.update((c, (forms[0].obj, stack, i)) for i, c in enumerate(members))
    return reps


def _table_cells(op: str, pairs, F: Field, reps: dict) -> list:
    """`table_cell` for each (c1, c2) of `pairs`, and whether the rule's
    `_times` dropped a non-zero parameter by an even coefficient.  Built per
    operand pair, classified per result object: all sums or products live on
    one object, each run of pairs on one pair of operand objects is one
    `_cell_grams` stack gathered from `reps`, and the stacks, of validated
    representatives, are classified without a re-check by one
    `_classify_grams`."""
    runs = groupby(pairs, key=lambda pair: (pair[0].m, pair[0].n, pair[1].m, pair[1].n))
    built = [_cell_grams(op, list(run), reps) for _, run in runs]
    grams = built[0][1] if len(built) == 1 else np.concatenate([g for _, g in built])
    expected, dropped = [], [False] * len(pairs)

    def times(coeff: int, a: int) -> int:
        dropped[i] |= a != 0 and coeff % 2 == 0
        return _times(coeff, a)

    for i, (c1, c2) in enumerate(pairs):
        expected.append(_sum_rule(c1, c2, times) if op == "sum" else _product_rule(c1, c2, F, times))
    return list(zip(_classify_grams(built[0][0], grams), expected, dropped))


def _cell_grams(op: str, pairs, reps: dict):
    """The result object and the stacked sums or products of the canonical
    representatives of `pairs`, whose first classes share one object and
    whose second classes share another, gathered from the `_rep_stacks` `reps`."""
    (o1, S1, _), (o2, S2, _) = reps[pairs[0][0]], reps[pairs[0][1]]
    G1, G2 = S1[[reps[c1][2] for c1, _ in pairs]], S2[[reps[c2][2] for _, c2 in pairs]]
    return (_sum_grams if op == "sum" else _product_grams)(o1, o2, G1, G2)


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


def all_class_instances(F: Field, max_size: int = 4, params=None):
    """`class_inventory` over every shape with m, n <= max_size, ordered by
    family, then m, n and parameter."""
    grid = [c for m in range(max_size + 1) for n in range(max_size + 1) for c in class_inventory(m, n, F, params)]
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


# Table cells are built per operand pair and classified per result object,
# in stacks of at most this many result Gram entries (at least one cell),
# which bounds the transient arrays of a group.
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

    Cells are built per operand pair and classified per result object: one
    `_classify_grams` per operation and result shape, in chunks of at most
    `CELL_STACK_ENTRIES` result Gram entries (at least one cell), and the
    records come back in grid order.

    Parameters default to the whole field.  Product cells whose result
    dimension exceeds `product_dim_cap` are skipped (the rules are
    dimension-uniform; the cap only bounds runtime).  Before any class is
    built, refuses a `max_size` or `product_dim_cap` that is not an int
    (bool included), a negative `max_size`, a grid over 2^TABLE_BUDGET_BITS
    class pairs by the bound N(N + 1)/2, N = (max_size + 1)^2 (4 + 2P)
    classes for P parameters (A-D once and E, F once per parameter on each
    shape), and a grid whose largest computed product, of dim at most
    min(product_dim_cap, (3 max_size)^2), is over `TENSOR_MAX_DIM`.
    """
    if type(max_size) is not int or type(product_dim_cap) is not int:
        raise ValueError(f"max_size and product_dim_cap must be ints, got {max_size!r:.40}, {product_dim_cap!r:.40}")
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    N = (max_size + 1) ** 2 * (4 + 2 * (F.order if params is None else len(params)))
    if N * (N + 1) // 2 > 1 << TABLE_BUDGET_BITS:
        raise ValueError(
            f"tables with max_size {max_size}: up to {N * (N + 1) // 2} class pairs, "
            f"over the 2^{TABLE_BUDGET_BITS} budget"
        )
    largest = min(product_dim_cap, (3 * max_size) ** 2)
    if largest > TENSOR_MAX_DIM:
        raise ValueError(
            f"tables with max_size {max_size}: products up to dim {largest}, "
            f"over the tensor cap of dim {TENSOR_MAX_DIM}"
        )
    # cells of one operation with one result object are classified as one stack,
    # their runs on the same pair of operand objects gathered as one stack each
    cells, groups = [], {}
    insts = all_class_instances(F, max_size, params)
    reps = _rep_stacks(insts, F)
    for c1, c2 in combinations_with_replacement(insts, 2):
        dim = (c1.m + 2 * c1.n) * (c2.m + 2 * c2.n)
        for op in ("sum",) if dim > product_dim_cap else ("sum", "product"):
            if op == "sum":
                m, n = c1.m + c2.m, c1.n + c2.n
            else:
                m, n = c1.m * c2.m, 2 * c1.n * c2.n + c1.m * c2.n + c1.n * c2.m
            groups.setdefault((op, m, n), {}).setdefault((c1.m, c1.n, c2.m, c2.n), []).append(len(cells))
            cells.append((op, c1, c2))
    records = [None] * len(cells)
    for (op, m, n), runs in groups.items():
        members = [i for run in runs.values() for i in run]
        step = max(1, CELL_STACK_ENTRIES // max(1, (m + 2 * n) ** 2))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            pairs = [cells[i][1:] for i in chunk]
            for i, (c1, c2), (got, expected, dropped) in zip(chunk, pairs, _table_cells(op, pairs, F, reps)):
                records[i] = (c1.family, c1.m, c1.n, c1.param, c2.family, c2.m, c2.n, c2.param,
                              got.label(), expected.label(), got == expected), dropped
    reports = {"sum": TableReport("sum", F.k), "product": TableReport("product", F.k)}
    for (op, c1, c2), (rec, dropped) in zip(cells, records):
        rep = reports[op]
        rep.cells += 1
        rep.records.append(rec)
        if not rec[-1]:
            rep.mismatches.append(f"{c1} {_OP_SYMBOL[op]} {c2}: computed {rec[8]}, rule {rec[9]}")
        if dropped:
            rep.coincidences.append(f"{c1} {_OP_SYMBOL[op]} {c2}")
    return reports["sum"], reports["product"]

