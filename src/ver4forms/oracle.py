"""Brute-force ground truth for the classification on tiny objects.

`enumerate_forms` walks every non-degenerate symmetric compatible Gram on
m1 + nP exactly once by iterating over the free entries left by the
compatibility law (`VerObject.free_cells`; everything else is zero or
determined).  A Gram's key is the base-q number whose digits are those
entries in that order, which is the Gamma^2 line order of `divided`
(families 1-7): the key of a quadratic form is its line values read in
base q.  Candidates are walked in key order, i.e. itertools.product(range(q),
repeat=free_entry_count) over the line values, and non-degeneracy (the
block lemma, `bform.block_invariants`) is a class code >= 0 (`class_codes`).

`orbit_classes` takes the congruence orbits of the group G of invertible
equivariant maps as the connected components of the key set under a small
generating set S of G (`_generators`); no canonical representative seeds an
orbit.  Key linearity: since q = 2^k, a key is its L free entries written as
k-bit digits side by side, so key XOR is entrywise field addition, and
T^T G T is GF(q)-linear in G; so each generator maps keys GF(2)-linearly,
image(a ^ b) = image(a) ^ image(b), and its images of the kL single-bit keys
give all q^L by one XOR each (`_images`).  The image count |S| q^L is
bounded by 2^BUDGET_BITS before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bform import BilinearForm
from .classify import canonical_rep, class_codes, class_inventory
from .field import Field
from .linalg import congruence, eye, zeros
from .verobj import InternalCheckError, VerObject, commutes, free_entry_count

BUDGET_BITS = 24


def _check_budget(what: str, bits: float):
    if bits > BUDGET_BITS:
        raise ValueError(f"{what}: 2^{bits:.4g} is over the 2^{BUDGET_BITS} budget")


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
    """(keys, grams, codes) for every candidate Gram, in key order and in
    chunks: codes are its `class_codes`, -1 where it is degenerate."""
    total = obj.field.order ** free_entry_count(obj.m, obj.n)
    for start in range(0, total, _CHUNK):
        keys = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        grams = _grams_of_keys(obj, keys)
        yield keys, grams, class_codes(obj, grams)


def enumerate_forms(m: int, n: int, F: Field):
    """Yield every non-degenerate symmetric compatible form exactly once."""
    _check_budget("candidate Grams to enumerate", F.k * free_entry_count(m, n))
    obj = VerObject(F, m, n)
    for _, grams, codes in _candidates(obj):
        for G in grams[codes >= 0]:
            yield BilinearForm._certified(obj, G)


def _generators(obj: VerObject) -> np.ndarray:
    """A generating set S of the equivariant group G, as a (|S|, d, d) stack
    of `VerObject.equivariant_matrix` blocks, with a over the F_2-basis
    1, 2, 4, ... of the field: for A and E, the transvections I + a E_ij
    (i != j) and diag(x, 1, ..., 1) unless x = 1; for C, D and F, every
    single-entry a E_ij.  No generator is the identity.

    It generates G.  Transvections over a basis give every transvection, and
    so SL; x (2, or 1 over GF(2), where GL = SL) is primitive for the Conway
    moduli (`field`), so diag(x, ...) adds every determinant and A, E range
    over GL.  With A = E = I, blocks compose as C_1 + C_2, D_1 + D_2 and
    F_1 + F_2 + C_1 D_2, so the C, D and F elements give the unipotent part
    U, and G = U L for L the (A, E) part."""
    F, m, n = obj.field, obj.m, obj.n
    a, x = 1 << np.arange(F.k), F._xtime(1)

    def single(r, c):  # every a E_ij of an r x c block, basis-major
        cells = np.eye(r * c, dtype=np.int64).reshape(r * c, r, c)
        return (a[:, None, None, None] * cells).reshape(F.k * r * c, r, c)

    def gl(s):  # the transvections, then diag(x, 1, ..., 1) unless it is I: s = 0 or x = 1
        off = single(s, s)[np.tile(~np.eye(s, dtype=bool).ravel(), F.k)]
        return np.concatenate([eye(s) ^ off, np.diag([x] + [1] * (s - 1))[None, :s, :s][: int(s > 0 and x != 1)]])

    identity = (eye(m), zeros(n, m), zeros(m, n), eye(n), zeros(n, n))
    stacks = []
    for i, part in enumerate((gl(m), single(n, m), single(m, n), gl(n), single(n, n))):
        # positions as in equivariant_matrix(a, c, d, e, f)
        stacks.append(obj.equivariant_matrix(*identity[:i], part, *identity[i + 1 :]))
    return np.concatenate(stacks)


def _components(images: np.ndarray) -> np.ndarray:
    """Each key's least connected key under the edges key -> images[s, key],
    by min-label hooking with pointer jumping.  Each generator permutes the
    finite key set, so forward edges alone reach a key's whole component."""
    label = np.arange(images.shape[1])
    while True:
        low = label.copy()
        for image in images:
            np.minimum(low, label[image], out=low)
        if np.array_equal(low, label):
            return label
        np.minimum.at(label, label.copy(), low)  # hook each root under its least neighbour
        while not np.array_equal(label, jumped := label[label]):
            label = jumped


def _images(obj: VerObject, S: np.ndarray) -> np.ndarray:
    """Each generator's key images, (|S|, q^L) int32, by key linearity:
    T^T G T on the Grams of the kL single-bit keys 2^j, certified to be the
    Grams of their own free entries (so every image is exact), then
    row[2^j : 2^(j+1)] = row[:2^j] ^ image(2^j)."""
    F, L = obj.field, free_entry_count(obj.m, obj.n)
    basis = _grams_of_keys(obj, 1 << np.arange(F.k * L))
    acted = congruence(F, S[:, None], basis)
    if not np.array_equal(obj.gram_from_free_entries(obj.free_entries(acted)), acted):
        raise InternalCheckError("linearity certificate: a generator's image of a basis Gram is not its free entries' Gram")
    images = np.zeros((len(S), F.order**L), dtype=np.int32)  # keys < 2^BUDGET_BITS
    for j, image in enumerate(_keys_of_grams(obj, acted).T.astype(np.int32)):
        np.bitwise_xor(images[:, : 1 << j], image[:, None], out=images[:, 1 << j : 2 << j])
    return images


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


def orbit_classes(m: int, n: int, F: Field) -> OrbitReport:
    """The orbits, as the components of the key set under `_generators`, in
    `class_inventory` order.  Verifies that the generators commute with t,
    that their key images are linear (`_images`), that they keep the
    enumerated set, and that the class code is constant on each component
    and a bijection from the components onto `class_inventory`.  Refuses,
    before any work, over 2^BUDGET_BITS images."""
    L, k, q = free_entry_count(m, n), F.k, F.order
    # |S| = len(_generators(obj)) in closed form: S of size ~m^4 is not built over the budget
    s = k * (m * (m - 1) + n * (n - 1) + 2 * m * n + n * n) + (k > 1) * ((m > 0) + (n > 0))
    _check_budget("generator images of candidate Grams", k * L + math.log2(max(s, 1)))
    obj = VerObject(F, m, n)
    S = _generators(obj)
    if not commutes(obj, obj, S):
        raise InternalCheckError("a census generator does not commute with t")
    images = _images(obj, S)
    codes = np.concatenate([chunk for _, _, chunk in _candidates(obj)])
    enumerated = codes >= 0
    if not all(enumerated[image[enumerated]].all() for image in images):
        raise InternalCheckError("a generator's image leaves the enumerated set")
    keys, label, inventory = np.flatnonzero(enumerated), _components(images), class_inventory(m, n, F)
    named = {cls.code(q): cls.label() for cls in inventory}
    for u in keys[codes[keys] != codes[label[keys]]][:1]:
        name = [named.get(c, "a class outside the inventory") for c in (codes[label[u]], codes[u])]
        raise InternalCheckError(f"orbit of {name[0]} has a member classified as {name[1]}")
    roots, sizes = np.unique(label[keys], return_counts=True)
    if not np.array_equal(np.sort(codes[roots]), sorted(named)):
        raise InternalCheckError("orbits are not one per class of class_inventory")
    group = math.prod(q**s - q**i for s in (m, n) for i in range(s)) * q ** (2 * m * n + n * n)
    size = dict(zip(codes[roots].tolist(), sizes.tolist()))
    orbits = [(cls.label(), size[cls.code(q)], canonical_rep(cls, F).gram) for cls in inventory]
    return OrbitReport(m, n, k, len(keys), group, orbits)
