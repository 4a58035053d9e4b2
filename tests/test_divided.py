import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ver4forms import divided, linalg as la
from ver4forms.bform import BilinearForm, Subobject, standard_subobject, subobject_standard_basis
from ver4forms.classify import CanonicalClass, canonical_rep, classify
from ver4forms.divided import (
    Gamma2Basis,
    Line,
    QuadraticForm,
    _kernel_squares,
    _verify_gamma2,
    a2_iso_check,
    beta_q,
    classify_quadratic,
    frobenius_twist_rank,
    gamma2,
    gamma2_dim_formula,
    hyperbolic_quadratic,
    one_minus_braiding,
    quad_from_parts,
    quad_product,
    quad_restrict,
    quad_sum,
    quad_transform,
    quadratic_from_bilinear,
)
from ver4forms.field import make_field
from ver4forms.verobj import Morphism, VerObject, random_equivariant_automorphism, tensor
from ver4forms.witt import direct_sum

F2 = make_field(1)
F4 = make_field(2)


@st.composite
def quadratic_forms(draw, F=None):
    """Random q with k in [1, 16] (or over F), m <= 4, n <= 3.  Odd m
    (always degenerate) is drawn less often, and a third of the forms are
    sparse, which makes degenerate beta_q with even m common too."""
    F = make_field(draw(st.integers(1, 16))) if F is None else F
    m = draw(st.sampled_from([0, 2, 4, 0, 2, 4, 1, 3]))
    obj = VerObject(F, m, draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, F.order, size=len(obj.free_cells()[0]))
    if draw(st.integers(0, 2)) == 0:
        values *= rng.random(values.size) < 0.3
    return QuadraticForm(obj, values)


# shapes (m, n) of dim m + 2n <= 24, the gamma2 cap
shapes_up_to_the_cap = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.integers(0, 24 - 2 * n), st.just(n))
)


def _reference_gamma2_lines(obj: VerObject) -> list[tuple]:
    """The Gamma^2 lines (family, indices, top, image), written out family by
    family on the standard basis, independently of `VerObject.free_cells`."""
    m, n, vs, ws, xs = obj.m, obj.n, obj.vs, obj.ws, obj.xs

    def pv(a: int, b: int) -> np.ndarray:
        v = np.zeros(obj.dim**2, dtype=np.int64)
        v[a * obj.dim + b] = 1
        return v

    lines = []
    for i in range(m):
        lines.append((1, (i,), pv(vs[i], vs[i]), None))
    for i in range(m):
        for j in range(i + 1, m):
            lines.append((2, (i, j), pv(vs[i], vs[j]) ^ pv(vs[j], vs[i]), None))
    for i in range(m):
        for k in range(n):
            top = pv(vs[i], ws[k]) ^ pv(ws[k], vs[i])
            img = pv(vs[i], xs[k]) ^ pv(xs[k], vs[i])
            lines.append((3, (i, k), top, img))
    for k in range(n):
        lines.append((4, (k,), pv(xs[k], xs[k]), None))
    for k in range(n):
        lines.append((5, (k,), pv(ws[k], xs[k]) ^ pv(xs[k], ws[k]), None))
    for k in range(n):
        for l in range(k + 1, n):
            top = pv(ws[k], xs[l]) ^ pv(xs[l], ws[k])
            img = pv(xs[k], xs[l]) ^ pv(xs[l], xs[k])
            lines.append((6, (k, l), top, img))
    for k in range(n):
        for l in range(k + 1, n):
            top = pv(ws[k], ws[l]) ^ pv(ws[l], ws[k]) ^ pv(xs[k], xs[l])
            img = pv(xs[k], ws[l]) ^ pv(ws[k], xs[l]) ^ pv(xs[l], ws[k]) ^ pv(ws[l], xs[k])
            lines.append((7, (k, l), top, img))
    return lines


def _assert_gamma2_is_the_reference(obj: VerObject):
    got, want = gamma2(obj).lines, _reference_gamma2_lines(obj)
    assert len(got) == len(want) == len(obj.free_cells()[0])
    for line, (family, indices, top, image) in zip(got, want):
        assert (line.family, line.indices) == (family, indices)
        # Python ints, as the CLI's JSON output needs
        assert all(type(i) is int for i in (line.family, *line.indices))
        assert np.array_equal(line.top, top)
        assert (line.image is None) == (image is None)
        assert image is None or np.array_equal(line.image, image)


def _literal_beta_q(q: QuadraticForm) -> BilinearForm:
    """beta_q(e_a, e_b) = q((1 - c)(e_a (x) e_b)), evaluated through the
    Gamma^2 basis on every column of the braiding's 1 - c."""
    d = q.obj.dim
    return BilinearForm(q.obj, q.evaluate(one_minus_braiding(q.obj)).reshape(d, d))


def _classify_quadratic_reference(q: QuadraticForm):
    """classify_quadratic through the literal beta_q and the generic
    orthogonal complement, restriction and classify."""
    obj = q.obj
    bq = _literal_beta_q(q)
    if not bq.is_nondegenerate():
        raise ValueError("quadratic form is degenerate (beta_q is singular)")
    if obj.m % 2:
        raise ValueError("no non-degenerate quadratic form has odd unit multiplicity")
    if obj.n == 0:
        return obj.m // 2, CanonicalClass("C", 0, 0)
    comp = bq.orthogonal_complement(standard_subobject(obj, range(obj.m), []))
    return obj.m // 2, classify(bq.restrict(comp))


def _pullback_via_gamma2(q: QuadraticForm, obj: VerObject, M: np.ndarray) -> list[int]:
    """The line values of q o Gamma^2(M) on obj through the Gamma^2 basis:
    q evaluated on obj's line tops pushed forward by M (x) M."""
    lines = gamma2(obj).lines
    if not lines:
        return []
    tops = np.column_stack([line.top for line in lines])
    return q.evaluate(la.mat_mul(q.field, la.kron(q.field, M, M), tops)).tolist()


def _outcome(f, q):
    try:
        return f(q)
    except ValueError as exc:
        return str(exc)


def test_gamma2_on_p():
    basis = gamma2(VerObject(F4, 0, 1))
    assert basis.dim == 2
    fams = [line.family for line in basis.lines]
    assert fams == [4, 5]
    # generators x (x) x and w (x) x + x (x) w
    assert basis.lines[0].top.tolist() == [0, 0, 0, 1]
    assert basis.lines[1].top.tolist() == [0, 1, 1, 0]


def test_gamma2_on_two_units():
    basis = gamma2(VerObject(F4, 2, 0))
    assert basis.dim == 3
    assert [line.family for line in basis.lines] == [1, 1, 2]


def test_gamma2_mixed():
    basis = gamma2(VerObject(F4, 1, 1))
    assert basis.dim == 5
    assert basis.num_lines == 4  # families 1, 3, 4, 5


def test_gamma2_refuses_objects_over_the_cap():
    with pytest.raises(ValueError, match=r"^gamma2-basis is capped at dim m \+ 2n <= 24, got 25$"):
        gamma2(VerObject(F4, 1, 12))


def test_gamma2_dim_matches_kernel_nullity():
    for m in range(0, 5):
        for n in range(0, 3):
            if m + 2 * n > 6:
                continue
            obj = VerObject(F4, m, n)
            omc = one_minus_braiding(obj)
            nullity = obj.dim**2 - la.rank(F4, omc)
            assert gamma2(obj).dim == gamma2_dim_formula(m, n) == nullity


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 16), shape=shapes_up_to_the_cap)
def test_gamma2_lines_match_the_reference(k, shape):
    # line by line: family, indices, top and image
    _assert_gamma2_is_the_reference(VerObject(make_field(k), *shape))


@pytest.mark.parametrize("m, n", [(0, 0), (0, 12), (4, 10), (24, 0)])
def test_gamma2_lines_match_the_reference_at_dim_0_and_at_the_cap(m, n):
    _assert_gamma2_is_the_reference(VerObject(make_field(16), m, n))


@pytest.mark.parametrize("m, n", [(0, 12), (4, 10), (24, 0)])
def test_gamma2_verifies_at_the_cap(m, n):
    # dim 24 over GF(2^16): gamma2 checks its basis against ker(1 - c) itself
    F = make_field(16)
    obj = VerObject(F, m, n)
    nullity = obj.dim**2 - la.rank(F, one_minus_braiding(obj))
    assert gamma2(obj).dim == gamma2_dim_formula(m, n) == nullity


def test_frobenius_twist_ranks():
    for n in range(0, 4):
        assert frobenius_twist_rank(VerObject(F4, 0, n)) == 0
    for m in range(0, 5):
        assert frobenius_twist_rank(VerObject(F4, m, 0)) == m
    assert frobenius_twist_rank(VerObject(F4, 2, 1)) == 2


def test_a2_iso_check():
    # on P both kernel and cokernel sides have dimension 2
    P = VerObject(F4, 0, 1)
    assert a2_iso_check(P)
    assert la.rank(F4, one_minus_braiding(P)) == 2
    assert gamma2(P).dim - frobenius_twist_rank(P) == 2
    # on 2*1 the rank of 1 - c is 1 (classical alternating square)
    two = VerObject(F4, 2, 0)
    assert a2_iso_check(two)
    assert la.rank(F4, one_minus_braiding(two)) == 1
    assert a2_iso_check(VerObject(F4, 0, 0))
    for m, n in [(1, 1), (2, 1), (0, 2)]:
        assert a2_iso_check(VerObject(F4, m, n))


@pytest.mark.parametrize("m, n, family", [(3, 1, 2), (1, 2, 5)])
def test_a2_iso_check_fails_without_a_line_of_the_image(monkeypatch, m, n, family):
    # a family-2 or family-5 top is (1 - c)(e_a (x) e_b): with that line dropped,
    # im(1 - c) leaves the claimed Gamma^2 and the one rank test says so
    obj = VerObject(F4, m, n)
    lines = gamma2(obj).lines
    drop = next(i for i, line in enumerate(lines) if line.family == family)
    a, b = divmod(int(np.flatnonzero(lines[drop].top)[0]), obj.dim)
    e_ab = np.zeros(obj.dim**2, dtype=np.int64)
    e_ab[a * obj.dim + b] = 1
    assert np.array_equal(la.mat_vec(F4, one_minus_braiding(obj), e_ab), lines[drop].top)
    monkeypatch.setattr(divided, "gamma2", lambda o: Gamma2Basis(o, lines[:drop] + lines[drop + 1:]))
    assert not a2_iso_check(obj)


def test_gamma2_check_rejects_a_corrupted_top():
    obj = VerObject(F4, 1, 2)
    lines = list(gamma2(obj).lines)
    for i in (0, len(lines) - 1):  # a family-1 top and a family-7 top
        top = lines[i].top.copy()
        top[1] ^= 1
        bad = lines[:i] + [Line(lines[i].family, lines[i].indices, top, lines[i].image)] + lines[i + 1:]
        with pytest.raises(AssertionError, match=r"generator outside ker\(1 - c\)"):
            _verify_gamma2(obj, Gamma2Basis(obj, bad))
    _verify_gamma2(obj, Gamma2Basis(obj, lines))


def test_beta_q_classical_coordinates():
    # on 2*1 with values (l11, l22, l12): beta_q(e1, e2) = l12, zero diagonal
    obj = VerObject(F4, 2, 0)
    for l11, l22, l12 in itertools.product(range(4), repeat=3):
        bq = beta_q(QuadraticForm(obj, [l11, l22, l12]))
        assert bq.gram.tolist() == [[0, l12], [l12, 0]]


def test_beta_q_symmetric_exhaustive_gf2():
    for m, n in [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]:
        obj = VerObject(F2, m, n)
        L = gamma2(obj).num_lines
        for vals in itertools.product(range(2), repeat=L):
            bq = beta_q(QuadraticForm(obj, list(vals)))
            assert bq.is_symmetric()
            assert bq.is_alternating()


def test_beta_q_zero():
    obj = VerObject(F4, 1, 1)
    L = gamma2(obj).num_lines
    assert not beta_q(QuadraticForm(obj, [0] * L)).gram.any()


@settings(max_examples=40, deadline=None)
@given(q=quadratic_forms())
def test_beta_q_matches_direct_evaluation(q):
    # the closed form equals beta_q(e_a, e_b) = q((1 - c)(e_a (x) e_b)) on
    # every basis pair
    assert np.array_equal(beta_q(q).gram, _literal_beta_q(q).gram)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(2, 16).flatmap(lambda k: quadratic_forms(make_field(k))))
def test_classify_quadratic_matches_complement_reference(q):
    # the block lemma and the Schur complement agree with the generic path,
    # error messages included
    assert _outcome(classify_quadratic, q) == _outcome(_classify_quadratic_reference, q)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 16), shape=shapes_up_to_the_cap, seed=st.integers(0, 2**32 - 1))
def test_line_values_and_quad_gram_are_inverse(k, shape, seed):
    # G_q is the free-entry scatter of the line values (tests/test_verobj.py
    # checks the table itself); family 1, the Frobenius twist, is its v-diagonal
    F = make_field(k)
    obj = VerObject(F, *shape)
    family, _, _ = obj.free_cells()
    values = np.random.default_rng(seed).integers(0, F.order, size=family.size)
    G = obj.gram_from_free_entries(values)
    assert np.array_equal(G, G.T) and obj.is_compatible(G)
    assert np.array_equal(np.diagonal(G)[obj.vs], values[family == 1])
    assert np.array_equal(obj.free_entries(G), values)
    assert np.array_equal(beta_q(QuadraticForm(obj, values)).gram[obj.vs, obj.vs], np.zeros(obj.m))


def test_line_count_formula():
    for m in range(6):
        for n in range(6):
            obj = VerObject(F2, m, n)
            lines = gamma2(obj).num_lines
            assert len(obj.free_cells()[0]) == lines
            assert lines == m + m * (m - 1) // 2 + m * n + 2 * n + n * (n - 1)
    obj = VerObject(F4, 2, 1)
    with pytest.raises(ValueError, match=r"^expected 7 values for Gamma\^2\(2,1\), got \(8,\)$"):
        QuadraticForm(obj, [0] * 8)


@pytest.mark.parametrize("m, n, lines", [(2000, 0, 2001000), (0, 1000, 1001000)], ids=["2000-0", "0-1000"])
def test_value_count_is_checked_before_any_table(m, n, lines):
    # the count is a formula: a short document on a large object is refused
    # before a free-entry table of ~(m + 2n)^2 entries is built
    obj = VerObject(F4, m, n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^expected {lines} values for Gamma\^2\({m},{n}\), got \(1,\)$"):
            QuadraticForm(obj, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cached_results_are_read_only():
    rep = canonical_rep(CanonicalClass("E", 0, 2, 1), F4)
    _, B, (rows, coefs) = tensor(VerObject(F4, 1, 1), VerObject(F4, 0, 1))
    basis = gamma2(VerObject(F4, 1, 1))
    line = next(ln for ln in basis.lines if ln.image is not None)
    for frozen in (rep.gram, B, rows, coefs, basis.basis_matrix(), line.top, line.image):
        with pytest.raises(ValueError, match="read-only"):
            frozen[...] = 0


def test_quad_values_determine_q_and_kill_images():
    obj = VerObject(F4, 1, 2)
    basis = gamma2(obj)
    rng = np.random.default_rng(17)
    q = QuadraticForm(obj, rng.integers(0, 4, size=basis.num_lines))
    for line, val in zip(basis.lines, q.values):
        assert q.evaluate(line.top) == val
        if line.image is not None:
            assert q.evaluate(line.image) == 0


def test_quad_restrict_commutes_with_beta_q():
    # beta_{q|W} = (beta_q)|_W on random subobjects
    rng = np.random.default_rng(23)
    obj = VerObject(F4, 2, 2)
    basis = gamma2(obj)
    for _ in range(100):
        q = QuadraticForm(obj, rng.integers(0, 4, size=basis.num_lines))
        phi = random_equivariant_automorphism(obj, rng)
        take = sorted(rng.choice(obj.dim, size=4, replace=False))
        # a random t-stable subspace: image of standard slots under phi
        pairs = [k for k in range(obj.n) if rng.integers(2)]
        units = [i for i in range(obj.m) if rng.integers(2)]
        cols = [phi.matrix[:, obj.vs[i]] for i in units]
        for k in pairs:
            cols += [phi.matrix[:, obj.ws[k]], phi.matrix[:, obj.xs[k]]]
        if not cols:
            continue
        sub = Subobject(obj, np.column_stack(cols))
        restricted = quad_restrict(q, sub)
        lhs = beta_q(restricted)
        rhs = beta_q(q).restrict(sub)
        assert np.array_equal(lhs.gram, rhs.gram)


@settings(max_examples=60, deadline=None)
@given(q=quadratic_forms(), seed=st.integers(0, 2**32 - 1))
def test_pullbacks_match_the_gamma2_reference(q, seed):
    # the closed-form pullback equals q evaluated through the Gamma^2 basis,
    # on automorphisms and on restrictions to scrambled standard subobjects
    obj, F = q.obj, q.field
    rng = np.random.default_rng(seed)
    phi = random_equivariant_automorphism(obj, rng)
    assert quad_transform(q, phi).values.tolist() == _pullback_via_gamma2(q, obj, phi.matrix)
    units = [i for i in range(obj.m) if rng.integers(2)]
    pairs = [k for k in range(obj.n) if rng.integers(2)]
    psi = random_equivariant_automorphism(obj, rng)
    sub = Subobject(obj, la.mat_mul(F, psi.matrix, standard_subobject(obj, units, pairs).basis()))
    sobj, B = subobject_standard_basis(sub)
    restricted = quad_restrict(q, sub)
    assert restricted.obj == sobj
    assert restricted.values.tolist() == _pullback_via_gamma2(q, sobj, B)


@settings(max_examples=60, deadline=None)
@given(q=quadratic_forms(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6))
def test_kernel_squares_match_evaluate_on_general_kernel_vectors(q, seed, count):
    # random combinations of the v and x columns, so the x^2 G_ww and the
    # triu(G_vv, 1) cross terms are exercised, not only single v columns
    obj, F = q.obj, q.field
    rng = np.random.default_rng(seed)
    U = np.zeros((obj.dim, count), dtype=np.int64)
    ker = np.concatenate([obj.vs, obj.xs])
    U[ker] = rng.integers(0, F.order, size=(ker.size, count))
    squares = F.mul_arr(U[:, None, :], U[None, :, :]).reshape(obj.dim**2, count)
    G_q = obj.gram_from_free_entries(q.values)
    assert _kernel_squares(F, obj, G_q, U).tolist() == q.evaluate(squares).tolist()


def test_quadratic_operations_build_no_gamma2_basis():
    # gamma2 refuses dim > 24, so any use of the basis on these objects of
    # dim 26 and 28 raises, and its cache stays empty
    gamma2.cache_clear()
    F = make_field(3)
    rng = np.random.default_rng(29)
    q = quad_from_parts(F, 2, canonical_rep(CanonicalClass("F", 0, 12, 5), F))
    assert q.obj.dim == 28
    base = classify_quadratic(q)
    assert base == (2, CanonicalClass("F", 0, 12, 5))
    phi = random_equivariant_automorphism(q.obj, rng)
    moved = quad_transform(q, phi)
    assert np.array_equal(beta_q(moved).gram, la.congruence(F, phi.matrix, beta_q(q).gram))
    assert classify_quadratic(moved) == base
    # back along phi^-1, one hyperbolic plane and the nP part of q
    keep = standard_subobject(q.obj, [0, 1], range(12)).basis()
    sub = Subobject(q.obj, la.mat_mul(F, la.inverse(F, phi.matrix), keep))
    restricted = quad_restrict(moved, sub)
    assert restricted.obj.dim == 26
    assert classify_quadratic(restricted) == (1, CanonicalClass("F", 0, 12, 5))
    one = BilinearForm(VerObject(F, 1, 0), la.eye(1))
    assert classify_quadratic(quad_product(one, moved)) == base
    assert classify_quadratic(quad_sum(restricted, hyperbolic_quadratic(F, 1))) == base
    assert gamma2.cache_info().currsize == 0


def test_quad_transform_and_quad_product_scatter_g_q_once_and_build_no_bilinear_form(monkeypatch):
    # beta_q's Gram and the kernel squares both come from one G_q, and the
    # operations validate no Gram they built themselves
    F = make_field(3)
    rng = np.random.default_rng(31)
    q = quad_from_parts(F, 1, canonical_rep(CanonicalClass("E", 0, 2, 3), F))
    phi = random_equivariant_automorphism(q.obj, rng)
    gamma = canonical_rep(CanonicalClass("B", 2, 1), F)
    calls = {}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(VerObject, "gram_from_free_entries", counted("scatter", VerObject.gram_from_free_entries))
    monkeypatch.setattr(BilinearForm, "__init__", counted("bilinear form", BilinearForm.__init__))
    for op in (lambda: quad_transform(q, phi), lambda: quad_product(gamma, q)):
        calls.update({"scatter": 0, "bilinear form": 0})
        op()
        assert calls == {"scatter": 1, "bilinear form": 0}


def test_quad_sum_with_empty_is_identity():
    obj = VerObject(F4, 1, 1)
    rng = np.random.default_rng(5)
    q = QuadraticForm(obj, rng.integers(0, 4, size=gamma2(obj).num_lines))
    zero = QuadraticForm(VerObject(F4, 0, 0), [])
    s = quad_sum(q, zero)
    assert np.array_equal(s.values, q.values)
    s2 = quad_sum(zero, q)
    assert np.array_equal(s2.values, q.values)


def test_quad_sum_beta_q_is_block_sum():
    rng = np.random.default_rng(41)
    a = VerObject(F4, 1, 1)
    b = VerObject(F4, 2, 1)
    qa = QuadraticForm(a, rng.integers(0, 4, size=gamma2(a).num_lines))
    qb = QuadraticForm(b, rng.integers(0, 4, size=gamma2(b).num_lines))
    s = quad_sum(qa, qb)
    assert np.array_equal(beta_q(s).gram, direct_sum(beta_q(qa), beta_q(qb)).gram)
    # family 1 (the v_i (x) v_i lines) is the two summands' family 1 in turn
    assert s.values[:3].tolist() == qa.values[:1].tolist() + qb.values[:2].tolist()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quad_sum_is_the_orthogonal_sum(data):
    # beta_q of the sum is the sum of the beta_q's, and restricting to either
    # summand's standard slots (through Subobject and _pullback, not
    # witt._sum_grams) gives back that summand's values
    q = data.draw(quadratic_forms())
    r = data.draw(quadratic_forms(q.field))
    s = quad_sum(q, r)
    assert np.array_equal(beta_q(s).gram, direct_sum(beta_q(q), beta_q(r)).gram)
    (m1, n1), (m2, n2) = (q.obj.m, q.obj.n), (r.obj.m, r.obj.n)
    halves = [(q, range(m1), range(n1)), (r, range(m1, m1 + m2), range(n1, n1 + n2))]
    for part, units, pairs in halves:
        restricted = quad_restrict(s, standard_subobject(s.obj, units, pairs))
        assert restricted.obj == part.obj
        assert restricted.values.tolist() == part.values.tolist()


def test_quadratic_from_bilinear_roundtrip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        obj = VerObject(F4, 0, n)
        from ver4forms.oracle import enumerate_forms

        count = 0
        for beta in enumerate_forms(0, n, F4):
            q = quadratic_from_bilinear(beta)
            assert np.array_equal(beta_q(q).gram, beta.gram)
            count += 1
            if count > 50:
                break


def test_quadratic_from_bilinear_requires_np_object():
    with pytest.raises(ValueError):
        quadratic_from_bilinear(BilinearForm(VerObject(F4, 1, 0), la.eye(1)))


def test_quad_product_with_unit_form():
    # gamma = the unit form on 1: gamma.q is equivalent to q
    rng = np.random.default_rng(8)
    one = BilinearForm(VerObject(F4, 1, 0), la.eye(1))
    for m, n in [(2, 0), (0, 1), (2, 1)]:
        obj = VerObject(F4, m, n)
        q = QuadraticForm(obj, rng.integers(0, 4, size=gamma2(obj).num_lines))
        prod = quad_product(one, q)
        assert (prod.obj.m, prod.obj.n) == (m, n)
        if beta_q(q).is_nondegenerate() and obj.m % 2 == 0:
            assert classify_quadratic(prod) == classify_quadratic(q)


def test_quad_product_beta_compatibility():
    # the associated form of gamma.q is gamma x beta_q
    from ver4forms.witt import tensor_product

    rng = np.random.default_rng(12)
    gamma = canonical_rep(CanonicalClass("E", 0, 1, 2), F4)
    obj = VerObject(F4, 0, 2)
    q = QuadraticForm(obj, rng.integers(0, 4, size=gamma2(obj).num_lines))
    prod = quad_product(gamma, q)
    assert np.array_equal(beta_q(prod).gram, tensor_product(gamma, beta_q(q)).gram)


def test_quad_product_defining_property_on_kernel_tensors():
    # gamma.q((v (x) w) (x) (v (x) w)) = gamma(v, v) q(w (x) w) for all
    # v in ker t_V, w in ker t_W, not just the standard anchors
    rng = np.random.default_rng(19)
    V = VerObject(F4, 2, 1)
    W = VerObject(F4, 2, 1)
    gamma = BilinearForm(
        V, la.congruence(F4, random_equivariant_automorphism(V, rng).matrix,
                         canonical_rep(CanonicalClass("B", 2, 1), F4).gram)
    )
    q = QuadraticForm(W, rng.integers(0, 4, size=gamma2(W).num_lines))
    prod = quad_product(gamma, q)
    from ver4forms.verobj import tensor

    tobj, B, _ = tensor(V, W)
    for _ in range(40):
        cv = rng.integers(0, 4, size=V.dim).astype(np.int64)
        cv[V.ws] = 0  # v in ker t_V
        cw = rng.integers(0, 4, size=W.dim).astype(np.int64)
        cw[W.ws] = 0
        z_kron = F4.mul_arr(cv[:, None], cw[None, :]).reshape(-1)
        s = la.solve(F4, B, z_kron)
        lhs = prod.evaluate(la.kron(F4, s[:, None], s[:, None]).reshape(-1))
        w_sq = la.kron(F4, cw[:, None], cw[:, None]).reshape(-1)
        rhs = F4.mul(gamma.evaluate(cv, cv), q.evaluate(w_sq))
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(q=quadratic_forms(), m=st.integers(1, 3), n=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_quad_product_unit_squares_at_kronecker_unit_tensors(q, m, n, seed):
    # property (b) at every v_i (x) v_j, located in the product's standard basis
    # by a solve against tensor's B, which pins the order of family 1
    F, W, V = q.field, q.obj, VerObject(q.field, m, n)
    assume(W.m and V.dim * W.dim <= 12)
    rng = np.random.default_rng(seed)
    vv = np.triu(rng.integers(0, F.order, size=(m, m)))
    vv ^= np.triu(vv, 1).T
    vw, ww, wx = (rng.integers(0, F.order, size=s) for s in ((m, n), (n, n), (n, n)))
    gamma = BilinearForm(V, V.gram_from_blocks(vv, vw, ww, wx))  # n <= 1: ww, wx symmetric
    prod = quad_product(gamma, q)
    _, B, _ = tensor(V, W)
    for i, j in itertools.product(V.vs, W.vs):
        s = la.solve(F, B, la.eye(V.dim * W.dim)[i * W.dim + j])
        e = la.eye(W.dim)[j]
        want = F.mul(int(gamma.gram[i, i]), q.evaluate(la.kron(F, e[:, None], e[:, None]).reshape(-1)))
        assert prod.evaluate(la.kron(F, s[:, None], s[:, None]).reshape(-1)) == want


def test_hyperbolic_quadratic_classifies():
    q = hyperbolic_quadratic(F4, 1)
    assert q.values.tolist() == [0, 0, 1]
    h, cls = classify_quadratic(q)
    assert h == 1 and (cls.m, cls.n) == (0, 0)


def test_classify_quadratic_p_classes():
    for y in F4.elements():
        q = QuadraticForm(VerObject(F4, 0, 1), [y, 1])
        h, cls = classify_quadratic(q)
        assert h == 0
        assert cls == CanonicalClass("E", 0, 1, y)


def test_classify_quadratic_composites():
    for fam, n, param in [("C", 2, None), ("D", 2, None), ("E", 2, 3), ("F", 3, 2)]:
        gamma = canonical_rep(CanonicalClass(fam, 0, n, param), F4)
        q = quad_from_parts(F4, 2, gamma)
        h, cls = classify_quadratic(q)
        assert h == 2
        assert cls == CanonicalClass(fam, 0, n, param)


def test_classify_quadratic_degenerate_rejected():
    obj = VerObject(F4, 0, 1)
    with pytest.raises(ValueError, match=r"^quadratic form is degenerate \(beta_q is singular\)$"):
        classify_quadratic(QuadraticForm(obj, [1, 0]))  # beta_q singular


def test_classify_quadratic_refuses_gf2():
    # n = 0 reaches no nP classification, so the library must refuse GF(2) itself
    for q in (hyperbolic_quadratic(F2, 1), QuadraticForm(VerObject(F2, 0, 1), [1, 1])):
        with pytest.raises(ValueError, match="k >= 2"):
            classify_quadratic(q)


def test_odd_unit_multiplicity_never_nondegenerate():
    for m, n in [(1, 0), (1, 1)]:
        obj = VerObject(F2, m, n)
        L = gamma2(obj).num_lines
        for vals in itertools.product(range(2), repeat=L):
            q = QuadraticForm(obj, list(vals))
            assert not beta_q(q).is_nondegenerate()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 16),
    m=st.sampled_from([1, 3, 5]),
    n=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_odd_unit_multiplicity_is_reported_degenerate(k, m, n, seed, sparse):
    # beta_q's G_vv is alternating, so an odd one is singular: every odd-m
    # form gets the degenerate error, and no other odd-m error is needed
    F = make_field(k)
    obj = VerObject(F, m, n)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, F.order, size=gamma2(obj).num_lines)
    if sparse:
        values *= rng.random(values.size) < 0.3
    q = QuadraticForm(obj, values)
    vv = obj.gram_blocks(beta_q(q).gram)[0]
    assert not vv.diagonal().any() and not la.is_invertible(F, vv)
    with pytest.raises(ValueError, match="degenerate"):
        classify_quadratic(q)


def test_quad_transform_preserves_class():
    rng = np.random.default_rng(77)
    gamma = canonical_rep(CanonicalClass("F", 0, 3, 5), make_field(3))
    q = quad_from_parts(make_field(3), 1, gamma)
    base = classify_quadratic(q)
    for _ in range(10):
        phi = random_equivariant_automorphism(q.obj, rng)
        assert classify_quadratic(quad_transform(q, phi)) == base


def test_quadratic_json_roundtrip():
    q = hyperbolic_quadratic(F4, 2)
    back = QuadraticForm.from_json(q.to_json())
    assert np.array_equal(back.values, q.values)
    assert back.obj == q.obj


def test_pullbacks_on_the_zero_object():
    zero = VerObject(F4, 0, 0)
    q = QuadraticForm(zero, [])
    assert quad_transform(q, Morphism(zero, zero, la.zeros(0, 0))).values.size == 0
    assert quad_restrict(q, Subobject(zero, la.zeros(0, 0))).values.size == 0
