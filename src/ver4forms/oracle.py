"""Brute-force ground truth for the classification on tiny objects.

`enumerate_forms` walks every non-degenerate symmetric compatible Gram on
m1 + nP exactly once by iterating over the free entries left by the
compatibility law (`VerObject.free_cells`; everything else is zero or
determined).  A Gram's key is the base-q number whose digits are those
entries in that order, which is the Gamma^2 line order of `divided`
(families 1-7): the key of a quadratic form is its line values read in
base q.  Candidates are walked in key order, i.e. itertools.product(range(q),
repeat=free_entry_count) over the line values, and non-degeneracy is the
full d x d rank.

`orbit_classes` computes the congruence orbits of the group G of invertible
equivariant maps, then checks that they are disjoint, cover the enumerated
set, and are constant under `classify`.  G = U L uniquely, with U the
unipotent part (A = E = I) and L the Levi part (C = D = F = 0) in
`VerObject.equivariant_matrix` blocks: l = diag(A, E, E) from g's diagonal
blocks leaves u = g l^-1 equivariant with diagonal blocks I, and U meets L
only in I.  As (u l)^T R (u l) = l^T (u^T R u) l, an orbit is swept as U on
R, then L on each distinct U-image, each deduplicated by key.  Sets of Grams
are boolean masks or sorted arrays of keys.  The candidate count and the
largest sweep array's entry count are bounded by 2^BUDGET_BITS up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bform import BilinearForm
from .classify import CanonicalClass, canonical_rep, class_inventory, classify_batch, require_classifiable_field
from .field import Field
from .linalg import batch_congruence, batch_solve
from .verobj import VerObject

BUDGET_BITS = 24


def free_entry_count(m: int, n: int) -> int:
    return m * (m + 1) // 2 + m * n + n * (n + 1) // 2 + n * (n + 1) // 2


def _check_budget(what: str, bits: float):
    if bits > BUDGET_BITS:
        raise ValueError(f"{what}: 2^{bits:.4g} is over the 2^{BUDGET_BITS} budget")


def _check_enumeration_budget(m: int, n: int, F: Field):
    _check_budget("candidate Grams to enumerate", F.k * free_entry_count(m, n))


def _check_group_budget(m: int, n: int, F: Field):
    """Refuse, from the formulas, a group sweep whose largest array has over
    2^BUDGET_BITS entries: the GL_m and GL_n candidates (q^(s^2) of s x s)
    or the group, |GL_m| |GL_n| q^(2mn + n^2) d x d matrices, as many as the
    census's stage-2 stacks at most (U, L, C, D, F sets are all smaller)."""
    q, d = F.order, m + 2 * n
    gl = lambda s: math.prod(q**s - q**i for i in range(s))
    group = gl(m) * gl(n) * q ** (2 * m * n + n * n)
    entries = max(q ** (m * m) * m * m, q ** (n * n) * n * n, group * d * d, 1)
    _check_budget("entries in the largest array of the group sweep", math.log2(entries))


_CHUNK = 4096  # candidates assembled per batch in _candidates


def _place(q: int, count: int) -> np.ndarray:
    return q ** np.arange(count - 1, -1, -1, dtype=np.int64)


def _digits(keys: np.ndarray, q: int, count: int) -> np.ndarray:
    """Base-q digits of each key, most significant first: row `key` of
    itertools.product(range(q), repeat=count)."""
    return keys[:, None] // _place(q, count) % q


def _grams_of_keys(obj: VerObject, keys: np.ndarray) -> np.ndarray:
    """The symmetric compatible Grams with the given keys, as (b, d, d)."""
    return obj.gram_from_free_entries(_digits(keys, obj.field.order, free_entry_count(obj.m, obj.n)))


def _keys_of_grams(obj: VerObject, grams: np.ndarray) -> np.ndarray:
    """Inverse of `_grams_of_keys` on symmetric compatible Grams; reads only
    the free entries."""
    entries = obj.free_entries(grams)
    return entries @ _place(obj.field.order, entries.shape[-1])


def _candidates(obj: VerObject):
    """(keys, grams, nondegenerate) for every candidate Gram, in key order
    and in chunks; non-degenerate means full d x d rank."""
    total = obj.field.order ** free_entry_count(obj.m, obj.n)
    for start in range(0, total, _CHUNK):
        keys = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        grams = _grams_of_keys(obj, keys)
        yield keys, grams, batch_solve(obj.field, grams)[0]


def enumerate_forms(m: int, n: int, F: Field):
    """Yield every non-degenerate symmetric compatible form exactly once."""
    _check_enumeration_budget(m, n, F)
    obj = VerObject(F, m, n)
    for _, grams, ok in _candidates(obj):
        for G in grams[ok]:
            yield BilinearForm(obj, G)


def _all_matrices(q: int, rows: int, cols: int) -> np.ndarray:
    """Every rows x cols matrix over GF(q), in itertools.product order."""
    count = q ** (rows * cols)
    return _digits(np.arange(count, dtype=np.int64), q, rows * cols).reshape(count, rows, cols)


def _gl(F: Field, s: int) -> np.ndarray:
    """Every invertible s x s matrix over F, in itertools.product order."""
    M = _all_matrices(F.order, s, s)
    return M[batch_solve(F, M)[0]]


def _group(m: int, n: int, F: Field, levi: bool = True, unipotent: bool = True) -> np.ndarray:
    """The equivariant group, all invertible matrices commuting with the
    standard t-action, as one (|G|, d, d) array, ordered by
    (A, E, C, D, F) in `VerObject.equivariant_matrix` terms with the last
    block varying fastest, or its part U (no `levi`: A = E = I) or L (no
    `unipotent`: C = D = F = 0).  Refuses an array over the budget first."""
    _check_group_budget(m, n, F)
    obj = VerObject(F, m, n)
    sets = [_gl(F, s) if levi else np.eye(s, dtype=np.int64)[None] for s in (m, n)]
    q = F.order if unipotent else 1  # over {0}, 0 is the only matrix
    sets += [_all_matrices(q, r, c) for r, c in ((n, m), (m, n), (n, n))]
    # set i goes on batch axis i of five, so broadcasting forms every tuple
    A, E, C, D, Fm = (
        s.reshape((1,) * i + (len(s),) + (1,) * (4 - i) + s.shape[1:]) for i, s in enumerate(sets)
    )
    group = obj.equivariant_matrix(A, C, D, E, Fm)
    return group.reshape(math.prod(map(len, sets)), obj.dim, obj.dim)


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


def _orbit(obj: VerObject, cls: CanonicalClass, unipotent, levi, enumerated):
    """(sorted keys, one Gram per key) of the orbit of `cls`'s representative.
    Images are checked symmetric and compatible, so keyed exactly, and `enumerated`."""
    grams = canonical_rep(cls, obj.field).gram[None]
    for Ts in (unipotent, levi):
        pairs = np.tile(Ts, (len(grams), 1, 1)), np.repeat(grams, len(Ts), axis=0)
        images = batch_congruence(obj.field, *pairs)
        symmetric = np.array_equal(images, np.swapaxes(images, 1, 2))
        keys, first = np.unique(_keys_of_grams(obj, images), return_index=True)
        if not (symmetric and obj.is_compatible(images) and enumerated[keys].all()):
            raise AssertionError(f"orbit of {cls} leaves the enumerated set")
        grams = images[first]
    return keys, grams


def orbit_classes(m: int, n: int, F: Field) -> OrbitReport:
    """Compute orbits by sweeping U, then L on the distinct U-images, over
    canonical representatives (G = U L: see the module docstring).

    Verifies that every image is a symmetric compatible enumerated Gram, that
    orbits are disjoint and cover the enumerated form set, and that `classify`
    is constant on each orbit with the predicted label.  Refuses, before any
    work, an array over 2^BUDGET_BITS and then GF(2)."""
    _check_enumeration_budget(m, n, F)
    _check_group_budget(m, n, F)
    require_classifiable_field(F)
    obj = VerObject(F, m, n)
    unipotent, levi = _group(m, n, F, levi=False), _group(m, n, F, unipotent=False)
    enumerated = np.zeros(F.order ** free_entry_count(m, n), dtype=bool)
    for keys, _, ok in _candidates(obj):
        enumerated[keys] = ok
    report = OrbitReport(m, n, F.k, int(enumerated.sum()), len(unipotent) * len(levi))
    covered = np.zeros_like(enumerated)
    for cls in class_inventory(m, n, F):
        orbit, members = _orbit(obj, cls, unipotent, levi, enumerated)
        if covered[orbit].any():
            raise AssertionError(f"orbit of {cls} meets a previous orbit")
        # classify_batch shares one object per distinct class
        for got in {id(c): c for c in classify_batch(obj, members)}.values():
            if got != cls:
                raise AssertionError(f"orbit member of {cls} classified as {got}")
        covered[orbit] = True
        report.orbits.append((cls.label(), len(orbit), canonical_rep(cls, F).gram))
    if not np.array_equal(covered, enumerated):
        raise AssertionError("orbits do not cover the enumerated form set")
    return report
