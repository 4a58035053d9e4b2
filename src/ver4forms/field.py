"""Exact arithmetic in GF(2^k) for 1 <= k <= 16.

Elements are plain ints in [0, 2^k) encoding polynomial coefficients
little-endian: bit i is the coefficient of x^i.  Addition is XOR, so every
element is its own additive inverse.  Multiplication reduces modulo a fixed
Conway polynomial, which makes encodings bit-exact across runs and
implementations.  For GF(2) that is x + 1, so x = 1 generates its
multiplicative group as x = 2 does every larger one.

Because the field is perfect of characteristic 2, every element has a unique
square root, namely a^(2^(k-1)).

The exp/log tables built here also back the vectorised numpy helpers in
:mod:`ver4forms.linalg`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Conway polynomials over GF(2) as little-endian bitmasks, degrees 1..16.
CONWAY_POLY_BITS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10001101111,
    11: 0b100000000101,
    12: 0b1000011101011,
    13: 0b10000000011011,
    14: 0b100000010101001,
    15: 0b1000000000110101,
    16: 0b10000000000101101,
}

MAX_DEGREE = 16


class Field:
    """Arithmetic context for GF(2^k), with scalar and numpy-array operations.

    Scalar operations take and return plain int encodings.  Array operations
    (`mul_arr`, `inv_arr`) accept numpy int arrays of encodings and
    broadcast; they are the building blocks of the exact linear algebra
    layer (addition is XOR).  `exp_view` and `log_view` are zero-copy
    memoryviews of the same exp/log tables whose items read as Python ints,
    for scalar code such as `mul` and `linalg.row_reduce`; log(0) reads as
    a sentinel, so scalar code reads log[x] only for x != 0.
    """

    __slots__ = ("k", "order", "modulus", "_gorder", "_sqrt", "_logz", "_expz", "exp_view", "log_view")

    def __init__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"field degree k must be an integer in 1..{MAX_DEGREE}, got {k!r}")
        self.k = k
        self.order = 1 << k
        self.modulus = CONWAY_POLY_BITS[k]
        self._gorder = self.order - 1
        self._build_tables()

    def _xtime(self, a: int) -> int:
        a <<= 1
        if a >> self.k:
            a ^= self.modulus
        return a

    def _times(self, c: int, a: np.ndarray) -> np.ndarray:
        """c * a elementwise for a fixed scalar c.  Multiplying by c is
        GF(2)-linear, so it is the XOR of the images c * x^j over the set
        bits j of a."""
        out = np.zeros_like(a)
        for j in range(self.k):
            out ^= ((a >> j) & 1) * c
            c = self._xtime(c)
        return out

    def _build_tables(self):
        om = self._gorder
        exp = np.zeros(2 * om, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        # exp[i] = x^i, filled by doubling: exp[s:2s] = x^s * exp[:s]
        exp[0] = 1
        s = 1
        while s < om:
            t = min(s, om - s)
            exp[s : s + t] = self._times(self._xtime(int(exp[s - 1])), exp[:t])
            s += t
        log[exp[:om]] = np.arange(om)
        # x must generate the full multiplicative group (Conway moduli
        # are primitive); anything else means a bad constant.
        if self._xtime(int(exp[om - 1])) != 1 or np.count_nonzero(log) != om - 1:
            raise AssertionError(f"modulus for k={self.k} is not primitive")
        exp[om:] = exp[:om]
        # zero-aware tables: log(0) maps to a sentinel just past `exp`, so
        # the summed exponent of any product with 0 lands in the zero tail
        # of _expz (sums of two real logs stay inside `exp`)
        zlog = exp.shape[0]
        log[0] = zlog
        self._logz = log
        expz = np.zeros(2 * zlog + 1, dtype=np.int64)
        expz[:zlog] = exp
        self._expz = expz
        self.exp_view = memoryview(expz)
        self.log_view = memoryview(log)
        # sqrt via the inverse of the Frobenius bijection a -> a^2, which
        # sends exp[i] to exp[2i]
        sq = np.zeros(self.order, dtype=np.int64)
        sq[exp[::2]] = exp[:om]
        self._sqrt = sq

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_view[self.log_view[a] + self.log_view[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.k})")
        return self.exp_view[self._gorder - self.log_view[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def sqrt(self, a: int) -> int:
        # a^(2^(k-1)): the exponent's factor order/2 inverts 2 modulo order - 1
        return self.exp_view[self.log_view[a] * (self.order >> 1) % self._gorder] if a else 0

    def elements(self) -> range:
        return range(self.order)

    # -- vectorised operations ---------------------------------------------

    def mul_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._expz[self._logz[a] + self._logz[b]]

    def inv_arr(self, a) -> np.ndarray:
        """Elementwise inverse; 0, which has none, maps to 0."""
        # log(0)'s sentinel turns into a negative index into the zero tail
        return self._expz[self._gorder - self._logz[np.asarray(a, dtype=np.int64)]]

    def sqrt_arr(self, a) -> np.ndarray:
        return self._sqrt[np.asarray(a, dtype=np.int64)]

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.k == self.k

    def __hash__(self):
        return hash(("GF2", self.k))

    def __repr__(self):
        return f"GF(2^{self.k})"

    def __reduce__(self):
        # memoryviews do not pickle; a context is its degree
        return make_field, (self.k,)


@lru_cache(maxsize=None)
def make_field(k: int) -> Field:
    """Return the (cached) GF(2^k) context with its fixed modulus."""
    return Field(k)
