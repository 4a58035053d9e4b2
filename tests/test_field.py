import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ver4forms.field import CONWAY_POLY_BITS, Field, make_field


def test_fixed_moduli():
    assert make_field(1).modulus == 0b11
    assert make_field(2).modulus == 0b111
    assert make_field(3).modulus == 0b1011
    assert make_field(8).modulus == 0b100011101


def test_make_field_range():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(17)
    with pytest.raises(ValueError):
        Field(-3)


def test_make_field_deterministic():
    assert make_field(5) is make_field(5)
    assert Field(5).modulus == Field(5).modulus


def test_modulus_has_top_bit():
    for k, bits in CONWAY_POLY_BITS.items():
        assert bits >> k == 1


def _poly_eval(F, bits, x):
    """Evaluate a GF(2)[x] polynomial (bitmask) at a field element."""
    acc = 0
    deg = bits.bit_length() - 1
    for i in range(deg, -1, -1):
        acc = F.mul(acc, x)
        if (bits >> i) & 1:
            acc ^= 1
    return acc


def _pow(F, a, e):
    """a^e by square-and-multiply over F.mul."""
    acc = 1
    while e:
        if e & 1:
            acc = F.mul(acc, a)
        a = F.mul(a, a)
        e >>= 1
    return acc


def test_conway_norm_compatibility():
    # the length-(2^d - 1) norm of a generator must be a root of the
    # degree-d modulus, for every proper subfield degree d | k
    for k in range(2, 17):
        F = make_field(k)
        for d in range(1, k):
            if k % d:
                continue
            power = (F.order - 1) // ((1 << d) - 1)
            root = _pow(F, 2, power)
            assert _poly_eval(F, CONWAY_POLY_BITS[d], root) == 0, (k, d)


def test_tables_match_scalar_reference():
    # exp/log by stepping x^i one scalar xtime at a time; sqrt inverts squaring
    for k in range(1, 17):
        F = Field(k)
        q, poly = 1 << k, CONWAY_POLY_BITS[k]
        om = q - 1
        exp, log, e = [], [0] * q, 1
        for i in range(om):
            exp.append(e)
            log[e] = i
            e <<= 1
            if e >> k:
                e ^= poly
        sqrt = [0] * q
        for i in range(om):
            sqrt[exp[2 * i % om]] = exp[i]
        assert F.exp_view[: 2 * om].tolist() == exp * 2, k
        assert F.log_view[1:].tolist() == log[1:], k
        assert F._sqrt.tolist() == sqrt, k


def test_inv_arr_matches_scalar():
    for k in (1, 2, 3, 16):
        F = make_field(k)
        a = np.arange(min(F.order, 4096))
        assert F.inv_arr(a).tolist() == [0] + [F.inv(int(x)) for x in a[1:]]


def test_gf4_multiplication_table():
    F = make_field(2)
    assert F.mul(2, 2) == 3  # x * x = x + 1
    assert F.mul(2, 3) == 1  # x * (x + 1) = 1
    assert F.mul(3, 3) == 2
    for a in F.elements():
        assert F.mul(1, a) == a
        assert F.add(a, a) == 0
        assert F.add(a, 0) == a
    assert F.add(2, 3) == 1


def test_sqrt_examples():
    F = make_field(2)
    assert F.sqrt(1) == 1
    assert F.sqrt(0) == 0
    assert F.sqrt(2) == 3
    assert F.mul(3, 3) == 2


def test_sqrt_is_frobenius_inverse():
    for k in (1, 2, 3, 4, 8, 16):
        F = make_field(k)
        for a in F.elements():
            assert F.mul(F.sqrt(a), F.sqrt(a)) == a
            assert F.sqrt(F.mul(a, a)) == a


def test_sqrt_is_power_two_k_minus_one():
    for k in (2, 3, 5):
        F = make_field(k)
        e = 1 << (k - 1)
        for a in F.elements():
            assert F.sqrt(a) == _pow(F, a, e)


def test_inverse_exhaustive_small():
    for k in (1, 2, 3, 4, 8):
        F = make_field(k)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        make_field(4).inv(0)


def test_field_axioms_exhaustive_small_k():
    for k in (1, 2, 3, 4):
        F = make_field(k)
        els = list(F.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_axioms_random_k16():
    F = make_field(16)
    rng = np.random.default_rng(20260809)
    trip = rng.integers(0, F.order, size=(10_000, 3))
    for a, b, c in trip:
        a, b, c = int(a), int(b), int(c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 11, 16]),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_mul_matches_polynomial_reference(k, a, b):
    F = make_field(k)
    a %= F.order
    b %= F.order
    # reference: carry-less multiply then long-division by the modulus
    acc = 0
    aa = a
    for i in range(F.k):
        if (b >> i) & 1:
            acc ^= aa << i
    for i in range(acc.bit_length() - 1, F.k - 1, -1):
        if (acc >> i) & 1:
            acc ^= F.modulus << (i - F.k)
    assert F.mul(a, b) == acc


def test_mul_arr_matches_scalar():
    for k in (1, 2, 3, 16):
        F = make_field(k)
        rng = np.random.default_rng(5)
        a = rng.integers(0, F.order, size=(6, 7))
        b = rng.integers(0, F.order, size=(6, 7))
        a[0] = 0  # products with 0 on either side and 0 * 0
        b[:, 0] = 0
        out = F.mul_arr(a, b)
        for i in range(6):
            for j in range(7):
                assert out[i, j] == F.mul(int(a[i, j]), int(b[i, j]))
        every = np.arange(F.order)
        assert not F.mul_arr(every, 0).any() and not F.mul_arr(0, every).any()


def test_serialization_is_decimal_encoding():
    F = make_field(4)
    for a in F.elements():
        assert 0 <= a < F.order
        assert int(str(a)) == a
