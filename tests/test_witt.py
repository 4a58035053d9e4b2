import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ver4forms import linalg as la, verobj, witt
from ver4forms.bform import BilinearForm
from ver4forms.classify import CanonicalClass, canonical_rep, class_inventory, classify, form_invariant, good_pairs
from ver4forms.field import make_field
from ver4forms.verobj import VerObject
from ver4forms.witt import (
    _product_grams,
    all_class_instances,
    direct_sum,
    emit_tables,
    expected_product_class,
    expected_sum_class,
    table_cell,
    tensor_product,
    tensor_product_via_braiding,
)

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)


def sum_class(c1, c2, F):
    got, expected = table_cell("sum", c1, c2, F)
    assert got == expected
    return got


def product_class(c1, c2, F):
    got, expected = table_cell("product", c1, c2, F)
    assert got == expected
    return got


def bp(y, field=F4):
    return BilinearForm(VerObject(field, 0, 1), np.array([[y, 1], [1, 0]]))


def _pair_set(space, field):
    """Enumerate a good-pair space as an explicit set over a small field."""
    q = field.order
    if space.shape == "zero":
        return {(0, 0)}
    if space.shape == "full":
        return {(k, l) for k in range(q) for l in range(q)}
    if space.shape == "k_axis":
        return {(k, 0) for k in range(q)}
    return {(field.mul(t, space.witness), t) for t in range(q)}


def test_direct_sum_block_structure():
    beta = direct_sum(bp(2), bp(3))
    assert (beta.obj.m, beta.obj.n) == (0, 2)
    assert beta.gram.tolist() == [
        [2, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 3, 1],
        [0, 0, 1, 0],
    ]


def test_direct_sum_interleaves_units_first():
    one = BilinearForm(VerObject(F4, 1, 0), la.eye(1))
    beta = direct_sum(bp(2), one)
    assert (beta.obj.m, beta.obj.n) == (1, 1)
    # unit slot comes first in the standard ordering
    assert beta.gram[0, 0] == 1
    assert beta.gram[1:, 1:].tolist() == [[2, 1], [1, 0]]


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(bp(1), bp(1, make_field(3)))


def test_good_pairs_of_sum_is_intersection():
    reps = [
        canonical_rep(CanonicalClass("A", 2, 2), F4),
        canonical_rep(CanonicalClass("B", 1, 1), F4),
        canonical_rep(CanonicalClass("C", 2, 2), F4),
        canonical_rep(CanonicalClass("D", 0, 2), F4),
        canonical_rep(CanonicalClass("E", 0, 2, 2), F4),
        canonical_rep(CanonicalClass("E", 0, 1, 1), F4),
        canonical_rep(CanonicalClass("F", 0, 3, 1), F4),
    ]
    for b1, b2 in itertools.product(reps, repeat=2):
        got = _pair_set(good_pairs(direct_sum(b1, b2)), F4)
        want = _pair_set(good_pairs(b1), F4) & _pair_set(good_pairs(b2), F4)
        assert got == want


def test_sum_alternating_iff_both():
    alt = canonical_rep(CanonicalClass("D", 0, 2), F4)
    not_alt = canonical_rep(CanonicalClass("A", 1, 0), F4)
    assert direct_sum(alt, alt).is_alternating()
    assert not direct_sum(alt, not_alt).is_alternating()
    assert not direct_sum(not_alt, not_alt).is_alternating()


def test_sum_invariant_additive():
    b1 = canonical_rep(CanonicalClass("E", 0, 3, 2), F4)
    b2 = canonical_rep(CanonicalClass("F", 0, 2, 3), F4)
    assert form_invariant(direct_sum(b1, b2)) == form_invariant(b1) ^ form_invariant(b2)


def test_tensor_product_evaluation_law():
    # (beta x eta)(u (x) r, t.(u (x) r)) = beta(u,t.u) eta(r,r) + beta(u,u) eta(r,t.r)
    rng = np.random.default_rng(3)
    b1 = canonical_rep(CanonicalClass("E", 2, 1, 2), F4)
    b2 = canonical_rep(CanonicalClass("B", 1, 1), F4)
    prod = tensor_product(b1, b2)
    from ver4forms.verobj import tensor

    tobj, B, _ = tensor(b1.obj, b2.obj)
    T = tobj.t_action()
    for _ in range(60):
        u = rng.integers(0, 4, size=b1.obj.dim).astype(np.int64)
        r = rng.integers(0, 4, size=b2.obj.dim).astype(np.int64)
        z_kron = F4.mul_arr(u[:, None], r[None, :]).reshape(-1)
        z = la.solve(F4, B, z_kron)
        tz = la.mat_vec(F4, T, z)
        tu = la.mat_vec(F4, b1.obj.t_action(), u)
        tr = la.mat_vec(F4, b2.obj.t_action(), r)
        lhs = prod.evaluate(z, tz)
        rhs = F4.mul(b1.evaluate(u, tu), b2.evaluate(r, r)) ^ F4.mul(
            b1.evaluate(u, u), b2.evaluate(r, tr)
        )
        assert lhs == rhs
        diag = prod.evaluate(z, z)
        want = F4.mul(b1.evaluate(u, u), b2.evaluate(r, r)) ^ F4.mul(
            b1.evaluate(u, tu), b2.evaluate(r, tr)
        )
        assert diag == want


def test_tensor_product_matches_braiding_composition():
    reps = [
        canonical_rep(CanonicalClass("A", 1, 0), F4),
        canonical_rep(CanonicalClass("B", 1, 1), F4),
        canonical_rep(CanonicalClass("E", 0, 1, 3), F4),
        canonical_rep(CanonicalClass("D", 0, 2), F4),
    ]
    big = canonical_rep(CanonicalClass("C", 0, 6), F4)  # C[0,6] (x) C[0,6] has dim 144
    for b1, b2 in [*itertools.product(reps, repeat=2), (big, big)]:
        direct = tensor_product(b1, b2)
        viabraid = tensor_product_via_braiding(b1, b2)
        assert np.array_equal(direct.gram, viabraid.gram)


def test_tensor_and_product_grams_run_no_elimination(monkeypatch):
    # the standard basis of a tensor product is closed-form and gathered, so
    # neither builds it by elimination nor applies it by a matrix product
    calls = []
    for mod, name in [(verobj, "row_reduce"), (verobj, "null_space"), (verobj, "mat_mul"), (witt, "mat_mul"),
                      (la, "row_reduce"), (la, "null_space"), (la, "mat_mul")]:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    verobj.tensor.cache_clear()
    rng = np.random.default_rng(5)
    for k, sizes in [(2, (1, 1, 0, 1)), (3, (2, 3, 1, 2)), (16, (0, 4, 3, 3)), (8, (5, 5, 5, 2))]:
        F = make_field(k)
        U, R = VerObject(F, *sizes[:2]), VerObject(F, *sizes[2:])
        verobj.tensor(U, R)
        G1, G2 = _compatible_grams(U, rng, 3, True), _compatible_grams(R, rng, 3, True)
        _product_grams(U, R, G1, G2)
    assert calls == []


def _compatible_grams(obj, rng, b, symmetric):
    """b random Grams obeying the compatibility law on obj, from random free
    blocks; without `symmetric` the w-v block and the diagonal blocks are
    drawn independently of their mirrors."""
    q, m, n = obj.field.order, obj.m, obj.n
    draw = lambda r, c: rng.integers(0, q, size=(b, r, c), dtype=np.int64)
    vv, vw, ww, wx = draw(m, m), draw(m, n), draw(n, n), draw(n, n)
    if symmetric:
        sym = lambda a: np.triu(a) ^ np.swapaxes(np.triu(a, 1), 1, 2)
        return obj.gram_from_blocks(sym(vv), vw, sym(ww), sym(wx))
    v, w, x = obj.slots
    G = np.zeros((b, obj.dim, obj.dim), dtype=np.int64)
    G[:, v, v], G[:, v, w], G[:, w, v], G[:, w, w] = vv, vw, draw(n, m), ww
    G[:, w, x] = G[:, x, w] = wx  # beta(w_k, x_l) = beta(x_k, w_l)
    return obj.as_grams(G, stacked=True)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    sizes=st.tuples(*[st.integers(0, 3)] * 4),
    b=st.integers(1, 4),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_gather_matches_braiding_composition_on_random_grams(k, sizes, b, symmetric, seed):
    # the gathered congruence onto the standard basis equals the literal
    # braiding composition, member by member, and a stack equals its
    # members computed one at a time
    F = make_field(k)
    U, R = VerObject(F, *sizes[:2]), VerObject(F, *sizes[2:])
    rng = np.random.default_rng(seed)
    G1, G2 = _compatible_grams(U, rng, b, symmetric), _compatible_grams(R, rng, b, symmetric)
    tobj, stacked = _product_grams(U, R, G1, G2)
    assert stacked.shape == (b, tobj.dim, tobj.dim)
    for g1, g2, got in zip(G1, G2, stacked):
        one = tensor_product(BilinearForm(U, g1), BilinearForm(R, g2))
        ref = tensor_product_via_braiding(BilinearForm(U, g1), BilinearForm(R, g2))
        assert one.obj == ref.obj == tobj
        assert np.array_equal(got, ref.gram)
        assert np.array_equal(one.gram, got)


def _as_bytes(a):
    return a.shape, a.dtype, a.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    sizes=st.tuples(*[st.integers(0, 3)] * 4),
    b=st.integers(1, 3),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, sizes=(0, 0, 0, 0), b=1, symmetric=True, seed=0)  # dim 0 on both sides
@example(k=16, sizes=(0, 2, 3, 0), b=2, symmetric=False, seed=1)  # m = 0 times n = 0
@example(k=3, sizes=(2, 3, 0, 0), b=1, symmetric=False, seed=2)  # times dim 0
def test_product_grams_equal_the_dense_evaluation_law(k, sizes, b, symmetric, seed):
    # the t-term written on the w (x) w' columns, moved by the closed-form
    # support, is B^T (G1 (x) G2 + G1 T1 (x) G2 T2) B on the dense B, byte
    # for byte; the Grams are not symmetric, as quad_product's need not be
    F = make_field(k)
    U, R = VerObject(F, *sizes[:2]), VerObject(F, *sizes[2:])
    rng = np.random.default_rng(seed)
    G1, G2 = _compatible_grams(U, rng, b, symmetric), _compatible_grams(R, rng, b, symmetric)
    tobj, B, support = verobj.tensor(U, R)
    flat = lambda rows, levels: [_as_bytes(a) for a in (rows, *(a for level in levels for a in level))]
    assert flat(*support) == flat(*la.column_support(B))
    K = la.kron(F, G1, G2) ^ la.kron(F, U.times_t(G1), R.times_t(G2))
    assert _as_bytes(_product_grams(U, R, G1, G2)[1]) == _as_bytes(la.congruence(F, B, K))


def _sum_by_position_map(o1, o2, G1, G2):
    """The orthogonal sum laid out block-diagonally on o1 (+) o2 and gathered
    onto the standard layout through the map from each target slot to the
    same basis vector's slot there: the reference for `_sum_grams`' scatter."""
    target = VerObject(o1.field, o1.m + o2.m, o1.n + o2.n)
    pos = np.zeros(target.dim, dtype=np.int64)
    pos[target.vs] = np.concatenate([o1.vs, o1.dim + o2.vs])
    pos[target.ws] = np.concatenate([o1.ws, o1.dim + o2.ws])
    pos[target.xs] = np.concatenate([o1.xs, o1.dim + o2.xs])
    stack = np.zeros((len(G1), target.dim, target.dim), dtype=np.int64)
    stack[:, : o1.dim, : o1.dim] = G1
    stack[:, o1.dim :, o1.dim :] = G2
    return target, stack[:, pos[:, None], pos]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    sizes=st.tuples(*[st.integers(0, 4)] * 4),
    b=st.integers(1, 3),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, sizes=(0, 0, 0, 0), b=1, symmetric=True, seed=0)  # dim 0 on both sides
@example(k=3, sizes=(2, 1, 1, 2), b=2, symmetric=False, seed=1)  # o2's v's go before o1's pairs
@example(k=16, sizes=(0, 2, 3, 0), b=3, symmetric=True, seed=2)  # o2's v's before all pairs
def test_sum_grams_equal_the_position_map_gather(k, sizes, b, symmetric, seed):
    # the scatter at offsets read off the operands' sizes equals the gather
    # through the full position map, byte for byte, and `direct_sum` is its
    # batch of one
    F = make_field(k)
    U, R = VerObject(F, *sizes[:2]), VerObject(F, *sizes[2:])
    rng = np.random.default_rng(seed)
    G1, G2 = _compatible_grams(U, rng, b, symmetric), _compatible_grams(R, rng, b, symmetric)
    target, stacked = witt._sum_grams(U, R, G1, G2)
    ref_target, ref = _sum_by_position_map(U, R, G1, G2)
    assert target == ref_target
    assert _as_bytes(stacked) == _as_bytes(ref)
    for g1, g2, got in zip(G1, G2, stacked):
        one = direct_sum(BilinearForm(U, g1), BilinearForm(R, g2))
        assert one.obj == target
        assert _as_bytes(one.gram) == _as_bytes(got)


def test_emit_tables_fetches_each_representative_once(monkeypatch):
    # the representatives are stacked once per operand object and call, so
    # each class of the grid is fetched once, not once per cell it is in;
    # `table_cell` on a class with itself fetches it once too
    calls, real = collections.Counter(), witt.canonical_rep

    def count(cls, F):
        calls[cls] += 1
        return real(cls, F)

    monkeypatch.setattr(witt, "canonical_rep", count)
    assert all(rep.ok for rep in emit_tables(F4, 2, product_dim_cap=36))
    grid = set(all_class_instances(F4, 2))
    assert set(calls) <= grid
    assert max(calls.values()) == 1
    c = CanonicalClass("E", 0, 2, 3)
    calls.clear()
    assert sum_class(c, c, F4) == CanonicalClass("E", 0, 4, 3)
    assert calls == {c: 1}


def test_emit_tables_matches_cell_by_cell_reference():
    # grouped and stacked cells come back in grid order with the records a
    # per-cell sum / braiding-product classification gives
    sum_rep, prod_rep = emit_tables(F4, max_size=2, product_dim_cap=36)
    insts = all_class_instances(F4, 2)
    pairs = [(c1, c2) for i, c1 in enumerate(insts) for c2 in insts[i:]]
    for rep, op, rule in (
        (sum_rep, direct_sum, expected_sum_class),
        (prod_rep, tensor_product_via_braiding, lambda c1, c2: expected_product_class(c1, c2, F4)),
    ):
        want = []
        for c1, c2 in pairs:
            got = classify(op(canonical_rep(c1, F4), canonical_rep(c2, F4)))
            expected = rule(c1, c2)
            want.append((c1.family, c1.m, c1.n, c1.param, c2.family, c2.m, c2.n, c2.param,
                         got.label(), expected.label(), got == expected))
        assert rep.cells == len(pairs)
        assert rep.records == want
        assert rep.mismatches == []


@pytest.mark.parametrize(
    "F, max_size, params, cap, counts",
    [
        (F4, 3, None, 81, (192, 120, 1770, 1770)),
        (F8, 3, None, 81, (952, 320, 4950, 4950)),
        (F8, 4, [0, 1, 5], -1, (612, 0, 5356, 0)),
    ],
    ids=["gf4", "gf8", "gf8-size4-sums"],
)
def test_coincidences_are_the_cells_an_even_coefficient_collapses(monkeypatch, F, max_size, params, cap, counts):
    # a cell is a small-field coincidence iff its rule's answer changes when
    # `_times` ignores the coefficient's parity: the tables' coincidences,
    # noted from the rules' own `_times` calls, against the public rules
    # re-run with that patch on every unordered pair the tables compute
    reports = emit_tables(F, max_size, params, product_dim_cap=cap)
    pairs = list(itertools.combinations_with_replacement(all_class_instances(F, max_size, params), 2))
    cells = {
        "sum": pairs,
        "product": [(c1, c2) for c1, c2 in pairs if (c1.m + 2 * c1.n) * (c2.m + 2 * c2.n) <= cap],
    }
    rules = {"sum": expected_sum_class, "product": lambda c1, c2: expected_product_class(c1, c2, F)}
    honest = {op: [rules[op](c1, c2) for c1, c2 in cells[op]] for op in rules}
    monkeypatch.setattr(witt, "_times", lambda coeff, a: a)
    for rep, symbol in zip(reports, "+x"):
        op = rep.operation
        collapsed = [f"{c1} {symbol} {c2}" for (c1, c2), w in zip(cells[op], honest[op]) if rules[op](c1, c2) != w]
        assert rep.cells == len(cells[op])
        assert rep.coincidences == collapsed
    assert tuple(len(rep.coincidences) for rep in reports) + tuple(rep.cells for rep in reports) == counts


def test_emit_tables_gf2():
    # every sum and every product (dim <= 81) on sizes <= 3 over GF(2) agrees
    # with the rules
    sum_rep, prod_rep = emit_tables(F2, max_size=3, product_dim_cap=81)
    assert sum_rep.cells == prod_rep.cells == 780
    assert sum_rep.mismatches == prod_rep.mismatches == []


def test_product_with_unit_class():
    one = CanonicalClass("A", 1, 0)
    for cls in [
        CanonicalClass("A", 2, 2),
        CanonicalClass("B", 1, 1),
        CanonicalClass("C", 2, 0),
        CanonicalClass("D", 0, 4),
        CanonicalClass("E", 0, 3, 2),
        CanonicalClass("F", 0, 2, 1),
    ]:
        assert product_class(one, cls, F4) == cls
        assert product_class(cls, one, F4) == cls


def test_product_symmetric_when_factors_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c1 = CanonicalClass("E", 0, 1, int(rng.integers(4)))
        c2 = CanonicalClass("B", 1, 1)
        prod = tensor_product(canonical_rep(c1, F4), canonical_rep(c2, F4))
        assert prod.is_symmetric()
        assert prod.is_nondegenerate()


def test_product_alternating_iff_one_factor():
    alt = canonical_rep(CanonicalClass("E", 0, 1, 2), F4)
    not_alt = canonical_rep(CanonicalClass("B", 1, 1), F4)
    assert tensor_product(alt, not_alt).is_alternating()
    assert tensor_product(not_alt, alt).is_alternating()
    assert tensor_product(alt, alt).is_alternating()
    assert not tensor_product(not_alt, not_alt).is_alternating()


def test_specific_sum_cells():
    # E(2) + E(3) with n = q = 1 lands in F(2 + 3) = F(1)
    got = sum_class(CanonicalClass("E", 0, 1, 2), CanonicalClass("E", 0, 1, 3), F4)
    assert got == CanonicalClass("F", 0, 2, 1)
    # D + E(a) -> F(na)
    got = sum_class(CanonicalClass("D", 0, 2), CanonicalClass("E", 0, 1, 3), F4)
    assert got == CanonicalClass("F", 0, 3, 3)
    got = sum_class(CanonicalClass("D", 0, 2), CanonicalClass("E", 0, 2, 3), F4)
    assert got == CanonicalClass("F", 0, 4, 0)
    # A row entries
    assert sum_class(CanonicalClass("A", 2, 0), CanonicalClass("C", 2, 2), F4).family == "A"
    assert sum_class(CanonicalClass("A", 2, 0), CanonicalClass("E", 0, 1, 2), F4).family == "B"
    # F + F adds invariants
    got = sum_class(CanonicalClass("F", 0, 2, 1), CanonicalClass("F", 0, 2, 2), F4)
    assert got == CanonicalClass("F", 0, 4, 3)


def test_specific_product_cells():
    # E(2) x E(3) over GF(4): (ab+1)/(a+b) with 2*3 = 1 gives E(0)
    got = product_class(CanonicalClass("E", 0, 1, 2), CanonicalClass("E", 0, 1, 3), F4)
    assert got == CanonicalClass("E", 0, 2, 0)
    # E(a) x E(a) -> D
    got = product_class(CanonicalClass("E", 0, 1, 2), CanonicalClass("E", 0, 1, 2), F4)
    assert got == CanonicalClass("D", 0, 2)
    # anything x C -> C
    for cls in [CanonicalClass("A", 1, 0), CanonicalClass("B", 1, 1), CanonicalClass("F", 0, 3, 0)]:
        assert product_class(cls, CanonicalClass("C", 2, 2), F4).family == "C"
    # B x D -> F(0)
    got = product_class(CanonicalClass("B", 1, 1), CanonicalClass("D", 0, 2), F4)
    assert got == CanonicalClass("F", 0, 6, 0)
    # E(1) absorbs
    got = product_class(CanonicalClass("E", 0, 1, 1), CanonicalClass("B", 2, 1), F4)
    assert got == CanonicalClass("E", 0, 4, 1)
    assert product_class(
        CanonicalClass("E", 0, 1, 1), CanonicalClass("E", 0, 1, 1), F4
    ) == CanonicalClass("C", 0, 2)


def test_class_commutativity_small():
    insts = all_class_instances(F4, 1)
    pairs = list(itertools.product(insts, repeat=2))
    pairs.append((CanonicalClass("B", 2, 1), CanonicalClass("D", 0, 4)))
    for c1, c2 in pairs:
        assert sum_class(c1, c2, F4) == sum_class(c2, c1, F4)
        if (c1.m + 2 * c1.n) * (c2.m + 2 * c2.n) <= 32:
            assert product_class(c1, c2, F4) == product_class(c2, c1, F4)


def test_class_associativity_small():
    trips = [
        (CanonicalClass("A", 1, 0), CanonicalClass("E", 0, 1, 2), CanonicalClass("B", 1, 1)),
        (CanonicalClass("E", 0, 1, 1), CanonicalClass("E", 0, 1, 3), CanonicalClass("A", 2, 0)),
        (CanonicalClass("D", 0, 2), CanonicalClass("A", 1, 0), CanonicalClass("A", 1, 0)),
    ]
    for c1, c2, c3 in trips:
        r1, r2, r3 = (canonical_rep(c, F4) for c in (c1, c2, c3))
        # sums: the Gram of an iterated sum does not depend on the grouping
        assert np.array_equal(
            direct_sum(direct_sum(r1, r2), r3).gram, direct_sum(r1, direct_sum(r2, r3)).gram
        )
        left = classify(tensor_product(tensor_product(r1, r2), r3))
        right = classify(tensor_product(r1, tensor_product(r2, r3)))
        assert left == right


def test_emit_tables_clean_and_serializable():
    sum_rep, prod_rep = emit_tables(F4, max_size=1)
    assert sum_rep.ok and prod_rep.ok
    assert sum_rep.cells > 0 and prod_rep.cells > 0
    md = sum_rep.to_markdown()
    assert "Mismatches: 0" in md
    csv_text = prod_rep.to_csv()
    assert csv_text.splitlines()[0].startswith("family1")
    assert len(csv_text.splitlines()) == prod_rep.cells + 1


def test_emit_tables_does_not_revalidate_its_stacks(monkeypatch):
    # the warm call caches the validated representatives; the stacked sums
    # and products built from them are classified without VerObject.as_grams
    warm = emit_tables(F4, max_size=2)

    def refuse(*args, **kwargs):
        raise AssertionError("as_grams called")

    monkeypatch.setattr(VerObject, "as_grams", refuse)
    assert emit_tables(F4, max_size=2) == warm


def _result_shape(op, rec):
    m1, n1, m2, n2 = rec[1], rec[2], rec[5], rec[6]
    if op == "sum":
        return m1 + m2, n1 + n2
    return m1 * m2, 2 * n1 * n2 + m1 * n2 + n1 * m2


@pytest.mark.parametrize("entries", [None, 1 << 8, 1 << 20], ids=["default", "small", "large"])
def test_emit_tables_classifies_one_stack_per_result_object(monkeypatch, entries):
    # each `_classify_grams` call holds valid Grams of one result object, and
    # the cells of one (op, result shape) fill as few calls as the bound
    # max(1, CELL_STACK_ENTRIES // d^2) allows: one call where it holds them
    # all, and reports equal to those of the default bound
    want = emit_tables(F4, 2, product_dim_cap=36)
    if entries is not None:
        monkeypatch.setattr(witt, "CELL_STACK_ENTRIES", entries)
    calls, real = [], witt._classify_grams

    def spy(obj, G):
        assert np.array_equal(obj.as_grams(G, stacked=True), G)
        calls.append((obj.m, obj.n, len(G)))
        return real(obj, G)

    monkeypatch.setattr(witt, "_classify_grams", spy)
    assert emit_tables(F4, 2, product_dim_cap=36) == want
    chunks = []
    for rep in want:
        counts = collections.Counter(_result_shape(rep.operation, rec) for rec in rep.records)
        for (m, n), count in counts.items():
            step = max(1, witt.CELL_STACK_ENTRIES // max(1, (m + 2 * n) ** 2))
            chunks += [(m, n, min(step, count - start)) for start in range(0, count, step)]
    assert sorted(calls) == sorted(chunks)
    if entries == 1 << 20:
        assert len(calls) == 25 + 30
    assert sum(size for _, _, size in calls) == sum(rep.cells for rep in want)


# sha256 prefix of both reports' `to_csv()`, mismatches and coincidences of
# `emit_tables(GF(8), 3, params=[0, 1, 5], product_dim_cap=81)`, pinned from
# the tables that classified one stack per pair of operand objects
_TABLES_SHA256 = "7034c02f2cf8fb3e"


def test_emit_tables_output_is_pinned():
    reports = emit_tables(F8, 3, params=[0, 1, 5], product_dim_cap=81)
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.to_csv().encode() + repr(rep.mismatches).encode() + repr(rep.coincidences).encode())
    got = [rep.cells for rep in reports] + [len(rep.coincidences) for rep in reports]
    assert (got, h.hexdigest()[:16]) == ([1225, 1225, 92, 70], _TABLES_SHA256)


@pytest.mark.parametrize(
    "params, message",
    [
        ([1, 1], "repeat an element"),
        ([7], "parameter 7 is not an element"),
        ([0, -1], "parameter -1 is not"),
        ([1.5], "parameters must be integers, got dtype float64"),
        ([True], "parameters must be integers, got dtype bool"),
        ([2**70], "parameters must be integers, got dtype object"),
    ],
    ids=["repeated", "outside", "negative", "float", "bool", "over-int64"],
)
def test_class_inventory_refuses_repeated_and_outside_parameters(params, message):
    # a repeated parameter would list its E and F classes twice (and count
    # them twice against the table budget); one outside the field would fail
    # only later, in `canonical_rep`; a float would be truncated to an element
    with pytest.raises(ValueError, match=message):
        class_inventory(0, 2, F4, params)
    with pytest.raises(ValueError, match=message):
        emit_tables(F4, 1, params=params)


@pytest.mark.parametrize(
    "max_size, params, cap, message",
    [
        (-1, None, 24, "max_size must be non-negative"),
        (True, None, 24, "max_size and product_dim_cap must be ints, got True, 24"),
        (2.0, None, 24, "must be ints, got 2.0, 24"),
        (np.int64(2), None, 24, "must be ints, got np.int64"),
        (2, None, 4.5, "must be ints, got 2, 4.5"),
        (2, None, True, "must be ints, got 2, True"),
        (1000, None, 24, "class pairs"),
        (4, range(1 << 16), 24, "class pairs"),
        # sizes <= 9 reach dim 27 objects, whose products go up to 729
        (9, None, 600, "products up to dim 600, over the tensor cap of dim 576"),
    ],
    ids=["negative", "bool-size", "float-size", "int64-size", "float-cap", "bool-cap", "size", "params", "tensor-cap"],
)
def test_emit_tables_refuses_a_grid_before_building_classes(monkeypatch, max_size, params, cap, message):
    monkeypatch.setattr(witt, "all_class_instances", lambda *args: pytest.fail("classes were built"))
    with pytest.raises(ValueError, match=message):
        emit_tables(F8, max_size, params, product_dim_cap=cap)


@pytest.mark.parametrize("F", [F2, F4, F8], ids=["gf2", "gf4", "gf8"])
def test_table_class_bound_covers_the_grid(F):
    for max_size in range(4):
        for params in (None, [0, 1]):
            P = F.order if params is None else len(params)
            assert len(all_class_instances(F, max_size, params)) <= (max_size + 1) ** 2 * (4 + 2 * P)


def test_sum_and_product_preserve_nondegeneracy():
    reps = [
        canonical_rep(CanonicalClass("A", 1, 0), F4),
        canonical_rep(CanonicalClass("B", 1, 1), F4),
        canonical_rep(CanonicalClass("E", 0, 2, 3), F4),
        canonical_rep(CanonicalClass("D", 0, 2), F4),
    ]
    for b1, b2 in itertools.product(reps, repeat=2):
        assert direct_sum(b1, b2).is_nondegenerate()
        assert tensor_product(b1, b2).is_nondegenerate()


def test_good_pairs_of_product_combination_rules():
    # full plane absorbs; slope lines combine as multiples of
    # (k1 k2 + l1 l2, k1 l2 + l1 k2); zero space with a partner outside
    # C / E(1) stays the zero space
    def line_of(space):
        if space.shape == "k_axis":
            return (1, 0)
        if space.shape == "slope":
            return (space.witness, 1)
        return None

    reps = {
        "A": canonical_rep(CanonicalClass("A", 1, 0), F4),
        "B": canonical_rep(CanonicalClass("B", 1, 1), F4),
        "C": canonical_rep(CanonicalClass("C", 0, 2), F4),
        "D": canonical_rep(CanonicalClass("D", 0, 2), F4),
        "E0": canonical_rep(CanonicalClass("E", 0, 1, 0), F4),
        "E2": canonical_rep(CanonicalClass("E", 0, 1, 2), F4),
        "E1": canonical_rep(CanonicalClass("E", 0, 1, 1), F4),
        "F": canonical_rep(CanonicalClass("F", 0, 3, 1), F4),
    }
    for n1, b1 in reps.items():
        for n2, b2 in reps.items():
            got = good_pairs(tensor_product(b1, b2))
            g1, g2 = good_pairs(b1), good_pairs(b2)
            if g1.shape == "full" or g2.shape == "full":
                assert got.shape == "full"
            elif n1 == "E1" or n2 == "E1":
                if n1 == n2:
                    assert got.shape == "full"
                else:
                    assert got.shape == "slope" and got.witness == 1
            elif g1.shape == "zero" or g2.shape == "zero":
                assert got.shape == "zero"
            else:
                k1, l1 = line_of(g1)
                k2, l2 = line_of(g2)
                kk = F4.mul(k1, k2) ^ F4.mul(l1, l2)
                ll = F4.mul(k1, l2) ^ F4.mul(l1, k2)
                combined = {(F4.mul(t, kk), F4.mul(t, ll)) for t in range(4)}
                assert _pair_set(got, F4) == combined


def test_product_invariant_decomposition_cases():
    # not-alternating x alternating: invariant is (unit multiplicity) * partner invariant
    b_cls = CanonicalClass("B", 1, 1)  # not alternating, m = 1
    f_cls = CanonicalClass("F", 0, 3, 5)  # alternating, invariant 5
    prod = tensor_product(canonical_rep(b_cls, F8), canonical_rep(f_cls, F8))
    assert form_invariant(prod) == 5
    b2 = CanonicalClass("A", 2, 0)  # not alternating, m = 2 (even)
    prod2 = tensor_product(canonical_rep(b2, F8), canonical_rep(f_cls, F8))
    assert form_invariant(prod2) == 0
    # alternating x alternating: invariant 0
    prod3 = tensor_product(
        canonical_rep(CanonicalClass("E", 0, 1, 3), F8), canonical_rep(f_cls, F8)
    )
    assert form_invariant(prod3) == 0
