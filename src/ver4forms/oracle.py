"""Brute-force ground truth for the classification on tiny objects.

`enumerate_forms` walks every non-degenerate symmetric compatible Gram on
m1 + nP exactly once by iterating over the free entries left by the
compatibility law: the symmetric m x m unit block, the m x n block pairing
v's with w's, the symmetric n x n w-w block and the symmetric n x n w-x
block (everything else is zero or determined).

`orbit_classes` computes the congruence orbits under the full group of
invertible equivariant maps by applying the whole group to each canonical
representative, then checks that the orbits are disjoint, cover the
enumerated set, and are constant under `classify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .bform import BilinearForm
from .classify import CanonicalClass, canonical_rep, classify
from .field import Field
from .linalg import batch_congruence
from .verobj import VerObject

DEFAULT_BUDGET_BITS = 24


def free_entry_count(m: int, n: int) -> int:
    return m * (m + 1) // 2 + m * n + n * (n + 1) // 2 + n * (n + 1) // 2


def _check_budget(m: int, n: int, F: Field, budget_bits: int):
    bits = F.k * free_entry_count(m, n)
    if bits > budget_bits:
        raise ValueError(
            f"enumeration needs 2^{bits} candidates, over the 2^{budget_bits} budget"
        )


_CHUNK = 4096  # candidates assembled per batch in enumerate_forms


def _product_order(q: int, count: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of itertools.product(range(q), repeat=count)."""
    place = q ** np.arange(count - 1, -1, -1, dtype=np.int64)
    return np.arange(start, stop, dtype=np.int64)[:, None] // place % q


def _symmetric(upper: np.ndarray, s: int) -> np.ndarray:
    """Symmetric (..., s, s) blocks from their upper triangles in row order."""
    i, j = np.triu_indices(s)
    out = np.zeros(upper.shape[:-1] + (s, s), dtype=np.int64)
    out[..., i, j] = upper
    out[..., j, i] = upper
    return out


def enumerate_forms(m: int, n: int, F: Field, budget_bits: int = DEFAULT_BUDGET_BITS):
    """Yield every non-degenerate symmetric compatible form exactly once."""
    _check_budget(m, n, F, budget_bits)
    obj = VerObject(F, m, n)
    q, count = F.order, free_entry_count(m, n)
    cuts = np.cumsum([m * (m + 1) // 2, m * n, n * (n + 1) // 2])
    total = q**count
    for start in range(0, total, _CHUNK):
        entries = _product_order(q, count, start, min(start + _CHUNK, total))
        vv, vw, ww, wx = np.split(entries, cuts, axis=1)
        grams = obj.gram_from_blocks(
            _symmetric(vv, m), vw.reshape(len(vw), m, n), _symmetric(ww, n), _symmetric(wx, n)
        )
        for G in grams:
            if linalg.is_invertible(F, G):
                yield BilinearForm(obj, G)


def _all_matrices(q: int, rows: int, cols: int) -> np.ndarray:
    """Every rows x cols matrix over GF(q), in itertools.product order."""
    count = q ** (rows * cols)
    return _product_order(q, rows * cols, 0, count).reshape(count, rows, cols)


def _gl(F: Field, s: int) -> np.ndarray:
    """Every invertible s x s matrix over F, in itertools.product order."""
    return np.stack([M for M in _all_matrices(F.order, s, s) if linalg.is_invertible(F, M)])


def equivariant_group(m: int, n: int, F: Field):
    """All invertible matrices commuting with the standard t-action.

    Shape: v's map through a GL(m) block plus arbitrary x-components, w's
    through a GL(n) block plus arbitrary v- and x-components (x-columns
    follow the w-columns).  The group is built as one stacked array, ordered
    by (A, E, C, D, F) in `VerObject.equivariant_matrix` terms with the last
    block varying fastest, and yielded element by element.
    """
    obj = VerObject(F, m, n)
    q = F.order
    sets = [_gl(F, m), _gl(F, n)] + [_all_matrices(q, r, c) for r, c in ((n, m), (m, n), (n, n))]
    # set i goes on batch axis i of five, so broadcasting forms every tuple
    A, E, C, D, Fm = (
        s.reshape((1,) * i + (len(s),) + (1,) * (4 - i) + s.shape[1:]) for i, s in enumerate(sets)
    )
    group = obj.equivariant_matrix(A, C, D, E, Fm)
    yield from group.reshape(math.prod(map(len, sets)), obj.dim, obj.dim)


def class_inventory(m: int, n: int, F: Field) -> list[CanonicalClass]:
    """Every canonical class living on m1 + nP over the given field."""
    out = []
    if m > 0 and n % 2 == 0:
        out.append(CanonicalClass("A", m, n))
    if m > 0 and n > 0:
        out.append(CanonicalClass("B", m, n))
    if m % 2 == 0 and n % 2 == 0:
        out.append(CanonicalClass("C", m, n))
    if m % 2 == 0 and n % 2 == 0 and n >= 2:
        out.append(CanonicalClass("D", m, n))
    if m % 2 == 0 and n > 0:
        out += [CanonicalClass("E", m, n, a) for a in F.elements()]
    if m % 2 == 0 and n >= 2:
        out += [
            CanonicalClass("F", m, n, phi)
            for phi in F.elements()
            if not (n == 2 and phi == 0)
        ]
    return out


@dataclass
class OrbitReport:
    """Orbit census of the congruence action on one (m, n, field)."""

    m: int
    n: int
    field_k: int
    total_forms: int
    group_order: int
    orbits: list = dc_field(default_factory=list)  # (label, size, representative gram)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "field": {"k": self.field_k},
            "total_forms": self.total_forms,
            "group_order": self.group_order,
            "orbit_count": self.orbit_count,
            "orbits": [
                {"label": label, "size": size, "representative": rep.tolist()}
                for label, size, rep in self.orbits
            ],
        }

    def summary(self) -> str:
        lines = [
            f"(m, n) = ({self.m}, {self.n}) over GF(2^{self.field_k}): "
            f"{self.total_forms} non-degenerate symmetric forms, "
            f"{self.orbit_count} orbits, group order {self.group_order}"
        ]
        for label, size, _rep in self.orbits:
            lines.append(f"  {label}: orbit size {size}")
        return "\n".join(lines)


def orbit_classes(m: int, n: int, F: Field, budget_bits: int = DEFAULT_BUDGET_BITS) -> OrbitReport:
    """Compute orbits by sweeping the group over canonical representatives.

    Verifies that orbits are pairwise disjoint, cover the enumerated form
    set, and that `classify` is constant on each orbit with the predicted
    label.
    """
    all_grams: dict[bytes, np.ndarray] = {}
    for form in enumerate_forms(m, n, F, budget_bits):
        all_grams[form.gram.tobytes()] = form.gram
    group = np.stack(list(equivariant_group(m, n, F)))
    inventory = class_inventory(m, n, F)
    obj = VerObject(F, m, n)
    report = OrbitReport(m, n, F.k, len(all_grams), group.shape[0])
    covered: set[bytes] = set()
    for cls in inventory:
        rep = canonical_rep(cls, F)
        images = batch_congruence(F, group, rep.gram)
        flat = np.unique(images.reshape(images.shape[0], -1), axis=0)
        orbit = {flat[idx].reshape(obj.dim, obj.dim).tobytes() for idx in range(flat.shape[0])}
        if not orbit <= set(all_grams):
            raise AssertionError(f"orbit of {cls} leaves the enumerated set")
        if orbit & covered:
            raise AssertionError(f"orbit of {cls} meets a previous orbit")
        for key in orbit:
            got = classify(BilinearForm(obj, all_grams[key]))
            if got != cls:
                raise AssertionError(
                    f"orbit member of {cls} classified as {got}"
                )
        covered |= orbit
        report.orbits.append((cls.label(), len(orbit), rep.gram))
    if covered != set(all_grams):
        raise AssertionError("orbits do not cover the enumerated form set")
    return report
