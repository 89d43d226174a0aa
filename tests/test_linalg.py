"""Unit tests for the exact linear algebra helpers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gray_stability import linalg
from gray_stability.lie import SPACE_NAMES, build_space
from gray_stability.scalars import I, ONE, SQRT2, ZERO, Scalar, rational
from gray_stability.sympoly import V1, X
from oracles import (
    commutator,
    count_inverses,
    dense_nullspace,
    dense_rref,
    eliminate_reference,
    mat_add,
    mat_sub,
    to_dense,
    to_sparse,
    trace,
    trace_product,
    zeros,
)


def _rand_scalar(rng):
    coeffs = [Fraction(0)] * 8
    for _ in range(2):
        coeffs[rng.randrange(8)] = Fraction(rng.randint(-4, 4))
    return Scalar(coeffs)


def test_rref_and_nullspace():
    a = [
        [ONE, rational(2), rational(3)],
        [rational(2), rational(4), rational(6)],
    ]
    ns = [to_dense(v, 3) for v in linalg.nullspace([to_sparse(row) for row in a], 3)]
    assert len(ns) == 2
    for v in ns:
        assert not any(linalg.mat_vec(a, v))


def _column(v):
    """The vector v as a one-column matrix."""
    return [(x,) for x in v]


def test_solve_unique():
    a = [[ONE, I], [ZERO, SQRT2]]
    x = [rational(3), I * rational(5)]
    b = linalg.mat_vec(a, x)
    assert linalg.solve(a, _column(b)) == tuple(_column(x))


def test_solve_inconsistent():
    a = [[ONE], [ONE]]
    assert linalg.solve(a, _column([ONE, rational(2)])) is None


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        while True:
            a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(3)]
            if linalg.det3(a):
                break
        assert linalg.mat_mul(a, linalg.inverse(a)) == linalg.identity(3)


def test_mat_mul_rejects_mismatched_shapes():
    a = [[ONE, ZERO, SQRT2]]
    with pytest.raises(ValueError):
        linalg.mat_mul(a, linalg.identity(2))
    with pytest.raises(ValueError):
        linalg.mat_mul(a, linalg.identity(4))


def test_adjugate_identity():
    rng = random.Random(11)
    for _ in range(20):
        a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(3)]
        prod = linalg.mat_mul(linalg.adjugate3(a), a)
        det = linalg.det3(a)
        assert prod == linalg.mat_scale(det, linalg.identity(3))


def test_trace_product_matches_trace_of_product():
    rng = random.Random(5)
    for _ in range(20):
        a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(2)]
        b = [[_rand_scalar(rng) for _ in range(2)] for _ in range(3)]
        assert trace_product(a, b) == trace(linalg.mat_mul(a, b))
        assert trace_product(b, a) == trace(linalg.mat_mul(b, a))
    for name in SPACE_NAMES:
        mats = build_space(name).algebra.basis_matrices
        for x in mats:
            for y in mats:
                assert trace_product(x, y) == trace(linalg.mat_mul(x, y)), name


def _is_matrix_type(m):
    return isinstance(m, tuple) and all(isinstance(row, tuple) for row in m)


def test_constructors_return_the_immutable_matrix_type():
    a = [[ONE, I], [ZERO, SQRT2]]
    results = [
        zeros(2, 3),
        linalg.identity(3),
        linalg.from_entries(2, {(0, 1): I}),
        linalg.diag(ONE, I),
        linalg.kron(a, a),
        linalg.lin_comb([ONE], [a]),
        linalg.transpose(a),
        mat_add(a, a),
        mat_sub(a, a),
        linalg.mat_scale(I, a),
        linalg.mat_mul(a, a),
        commutator(a, a),
        linalg.inverse(a),
        linalg.adjugate3(linalg.identity(3)),
    ]
    assert all(_is_matrix_type(m) for m in results)


def test_from_entries_and_diag():
    m = linalg.from_entries(2, {(0, 1): I, (1, 2): SQRT2}, 3)
    assert m == ((ZERO, I, ZERO), (ZERO, ZERO, SQRT2))
    assert linalg.from_entries(2, {}) == zeros(2, 2)
    assert linalg.diag(ONE, I) == ((ONE, ZERO), (ZERO, I))
    assert linalg.diag(ONE, ONE, ONE) == linalg.identity(3)


def test_kron_blocks_and_associativity():
    rng = random.Random(3)
    y = [[_rand_scalar(rng) for _ in range(2)] for _ in range(2)]
    a, b, c = rational(2), I, ZERO
    # blockdiag(a y, b y, c y) = kron(diag(a, b, c), y)
    k = linalg.kron(linalg.diag(a, b, c), y)
    for blk, s in enumerate((a, b, c)):
        for i in range(2):
            for j in range(6):
                want = s * y[i][j - 2 * blk] if 2 * blk <= j < 2 * blk + 2 else ZERO
                assert k[2 * blk + i][j] == want
    p = [[_rand_scalar(rng) for _ in range(3)] for _ in range(2)]
    q = [[_rand_scalar(rng) for _ in range(2)] for _ in range(3)]
    assert linalg.kron(linalg.kron(p, q), y) == linalg.kron(p, linalg.kron(q, y))
    # mixed product: (p (x) q)(q (x) p) = (p q) (x) (q p)
    assert linalg.mat_mul(linalg.kron(p, q), linalg.kron(q, p)) == linalg.kron(
        linalg.mat_mul(p, q), linalg.mat_mul(q, p)
    )


def test_lin_comb_matches_scale_and_add():
    rng = random.Random(9)
    mats = [[[_rand_scalar(rng) for _ in range(3)] for _ in range(2)] for _ in range(3)]
    coeffs = [SQRT2, ZERO, I]
    expected = zeros(2, 3)
    for c, m in zip(coeffs, mats):
        expected = mat_add(expected, linalg.mat_scale(c, m))
    assert linalg.lin_comb(coeffs, mats) == expected
    assert linalg.lin_comb([ZERO, ZERO, ZERO], mats) == zeros(2, 3)


def _sparse_entry(rng, density):
    """Zero with probability 1 - density, else a scalar of Q(i, sqrt2,
    sqrt3) with one to three nonzero rational coordinates."""
    if rng.random() >= density:
        return ZERO
    coeffs = [0] * 8
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.randrange(8)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Scalar(coeffs)


def _sparse_matrix(rng, m, n, density=0.3):
    return [[_sparse_entry(rng, density) for _ in range(n)] for _ in range(m)]


def _sparse_cases(rng):
    """Sparse matrices of every shape the eliminations meet: tall, wide and
    square, rank-deficient (a product through a thin middle), invertible
    (the identity plus a sparse matrix), all-zero, and with zero rows."""
    cases = []
    for m, n in [(9, 5), (4, 9), (7, 7), (1, 6), (6, 1)]:
        cases.append(_sparse_matrix(rng, m, n))
    for m, n, r in [(8, 6, 3), (5, 9, 2), (7, 7, 4), (6, 6, 1)]:
        cases.append(linalg.mat_mul(_sparse_matrix(rng, m, r, 0.6), _sparse_matrix(rng, r, n, 0.5)))
    cases.append(mat_add(linalg.identity(6), _sparse_matrix(rng, 6, 6, 0.2)))
    cases.append(zeros(4, 5))
    cases.append(zeros(3, 3))
    for m, n in [(8, 6), (5, 5)]:
        a = _sparse_matrix(rng, m, n, 0.5)
        for i in rng.sample(range(m), 2):
            a[i] = [ZERO] * n
        cases.append(a)
    return cases


def _eliminations(a, rhs):
    """Every result that rests on rref, for the matrix a and the
    right-hand sides rhs (vectors of length len(a))."""
    n = len(a[0])
    out = {
        "rref": linalg.rref(a),
        "rank": len(linalg.rref(a)[1]),
        "nullspace": [to_dense(v, n) for v in linalg.nullspace([to_sparse(row) for row in a], n)],
        "solve": [linalg.solve(a, _column(b)) for b in rhs],
        "solve_several": linalg.solve(a, linalg.transpose(rhs)),
    }
    if len(a) == len(a[0]):
        try:
            out["inverse"] = linalg.inverse(a)
        except ValueError:
            out["inverse"] = "singular"
    return out


def _check_against_dense(monkeypatch, rng, a, outcomes):
    """Every elimination result on a (and on three right-hand sides: one
    consistent, zero, and one random) against the dense oracles, and each
    checked on its own terms; outcomes counts the kinds of answer."""
    m, n = len(a), len(a[0])
    x = [_sparse_entry(rng, 0.7) for _ in range(n)]
    rhs = [linalg.mat_vec(a, x), [ZERO] * m, [_sparse_entry(rng, 0.8) for _ in range(m)]]
    got = _eliminations(a, rhs)
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "rref", dense_rref)
        patched.setattr(
            linalg,
            "nullspace",
            lambda rows, n: [to_sparse(v) for v in dense_nullspace([to_dense(r, n) for r in rows])],
        )
        want = _eliminations(a, rhs)
    assert got == want
    # one elimination over several columns solves each column
    cols = [None if x is None else [row[0] for row in x] for x in want["solve"]]
    assert got["solve_several"] == (None if None in cols else linalg.transpose(cols))
    assert linalg.solve(a, linalg.transpose(rhs[:2])) == linalg.transpose(cols[:2])
    for b, sol in zip(rhs, cols):
        assert sol is None or linalg.mat_vec(a, sol) == b
    for v in got["nullspace"]:
        assert not any(linalg.mat_vec(a, v))
    assert len(got["nullspace"]) == n - got["rank"]
    outcomes["inconsistent"] += cols[2] is None
    outcomes["singular"] += got.get("inverse") == "singular"
    outcomes["inverted"] += isinstance(got.get("inverse"), tuple)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_elimination_equals_dense_oracle(monkeypatch, seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for a in _sparse_cases(rng):
        _check_against_dense(monkeypatch, rng, a, outcomes)
    assert outcomes["inconsistent"] and outcomes["singular"] and outcomes["inverted"], outcomes


def _nonzero(rng):
    return _sparse_entry(rng, 1.0)


def _from_pattern(rng, pattern):
    """A matrix with a random nonzero wherever the pattern has a 1."""
    return [[_nonzero(rng) if p else ZERO for p in row] for row in pattern]


# zero patterns rich in singleton rows, each named for what the presolve
# meets in it
SINGLETON_PATTERNS = {
    # row 0 forces column 0; then row 1 forces 1, row 2 forces 2, and row
    # 3 (which held 0, 2 and 3) forces 3: every row presolved
    "cascade": [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]],
    # a cascade that stops: rows 2 and 3 keep two entries each
    "cascade_then_pivots": [[0, 0, 1, 0, 0], [1, 0, 1, 0, 0], [0, 1, 1, 1, 0], [1, 1, 0, 1, 1]],
    # two singleton rows on one column; forcing it cascades to the others
    "two_singletons_one_column": [[0, 1, 0], [0, 1, 0], [1, 1, 0], [0, 1, 1]],
    "diagonal": [[1 if i == j else 0 for j in range(5)] for i in range(5)],
    "permuted_diagonal": [[1 if j == (3 * i + 1) % 5 else 0 for j in range(5)] for i in range(5)],
    "singletons_and_zero_rows": [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 0]],
    # a singleton whose column is emptied first, by a cascade from below
    "singleton_emptied_in_queue": [[0, 1, 0], [1, 1, 0], [1, 0, 0], [0, 1, 1]],
    "wide_with_free_columns": [[0, 0, 1, 0, 0, 0], [1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
}


def _singleton_cases(rng):
    """The patterns above with random entries, and random sparse matrices
    with some rows cut down to one entry."""
    cases = [_from_pattern(rng, p) for p in SINGLETON_PATTERNS.values()]
    for m, n in [(9, 6), (6, 6), (5, 8), (8, 8)]:
        a = _sparse_matrix(rng, m, n, 0.4)
        for i in rng.sample(range(m), m // 2):
            j = rng.randrange(n)
            a[i] = [_nonzero(rng) if k == j else ZERO for k in range(n)]
        cases.append(a)
    return cases


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_singleton_rich_elimination_equals_dense_oracle(monkeypatch, seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for a in _singleton_cases(rng):
        _check_against_dense(monkeypatch, rng, a, outcomes)
    assert outcomes["inconsistent"] and outcomes["singular"] and outcomes["inverted"], outcomes


def test_singleton_in_augmented_columns_is_inconsistent():
    # row 0 of a is zero, so row 0 of the augmented system is the
    # singleton (0, 0 | c): its pivot lies past the columns of a
    rng = random.Random(12)
    a = [[ZERO, ZERO], [_nonzero(rng), _nonzero(rng)], [ZERO, _nonzero(rng)]]
    assert linalg.solve(a, _column([_nonzero(rng), ZERO, ZERO])) is None
    assert linalg.solve(a, [(ZERO, _nonzero(rng)), (ZERO, ZERO), (ZERO, ZERO)]) is None
    # a consistent right-hand side on the same rows
    assert linalg.solve(a, _column([ZERO, ZERO, ZERO])) == ((ZERO,), (ZERO,))


@pytest.mark.parametrize("name", ["cascade", "diagonal", "permuted_diagonal", "two_singletons_one_column"])
def test_presolved_system_needs_no_inverse(monkeypatch, name):
    # every row of these systems is a singleton or becomes one, so the
    # elimination divides by nothing, where the reference divides once
    # per pivot
    a = _from_pattern(random.Random(5), SINGLETON_PATTERNS[name])
    n = len(a[0])
    rows = [to_sparse(row) for row in a]
    kernel = [to_sparse(v) for v in dense_nullspace(a)]
    calls = count_inverses(monkeypatch)
    want = eliminate_reference([dict(d) for d in rows], n)
    assert len(calls) == len(want[1])
    calls.clear()
    assert linalg._eliminate([dict(d) for d in rows], n) == want
    assert len(linalg.rref(a)[1]) == len(want[1])
    assert linalg.nullspace(rows, n) == kernel
    assert calls == []


@pytest.mark.parametrize("seed", [9, 10])
def test_eliminate_equals_reference(seed):
    # the same reduced rows and pivots as the elimination without the
    # presolve, on random and singleton-rich systems
    rng = random.Random(seed)
    for a in _sparse_cases(rng) + _singleton_cases(rng):
        n = len(a[0])
        rows = [to_sparse(row) for row in a]
        got = linalg._eliminate([dict(d) for d in rows], n)
        assert got == eliminate_reference([dict(d) for d in rows], n)


@pytest.mark.parametrize("seed", [11, 12])
def test_nullspace_vectors_are_one_at_their_own_last_column(seed):
    # reps._explicit_rep reads each kernel vector's free column as max(v):
    # ONE there, its largest column, and no other kernel vector's column
    rng = random.Random(seed)
    for a in _sparse_cases(rng) + _singleton_cases(rng):
        n = len(a[0])
        kernel = linalg.nullspace([to_sparse(row) for row in a], n)
        free = [max(v) for v in kernel]
        assert free == sorted(set(free))
        for v, j in zip(kernel, free):
            assert v[j] == ONE
            assert not set(v) & (set(free) - {j})


@pytest.mark.parametrize("seed", [4, 5])
def test_nullspace_of_sparse_rows_equals_dense_kernels(seed):
    rng = random.Random(seed)
    cases = [(a, len(a[0])) for a in _sparse_cases(rng) + _singleton_cases(rng)]
    cases += [(_sparse_matrix(rng, m, 1, 0.5), 1) for m in (1, 2, 3)]
    cases += [([[ZERO]], 1), ([[rational(-2, 3)]], 1), ([], 1), ([], 4)]
    assert any(not any(map(any, a)) for a, n in cases if a)
    for a, n in cases:
        rows = [{j: x for j, x in enumerate(row) if x} for row in a]
        snapshot = [dict(d) for d in rows]
        kernel = linalg.nullspace(rows, n)
        assert rows == snapshot
        for v in kernel:
            assert all(x for x in v.values()) and all(0 <= j < n for j in v)
        dense = [[v.get(j, ZERO) for j in range(n)] for v in kernel]
        # an empty row list with n columns expands to the zero row
        expanded = a or zeros(1, n)
        again = linalg.nullspace([to_sparse(row) for row in expanded], n)
        assert dense == [to_dense(v, n) for v in again] == dense_nullspace(expanded)
        for v in dense:
            assert not any(linalg.mat_vec(expanded, v))


def test_add_into_drops_a_sum_that_cancels():
    acc = {}
    linalg.add_into(acc, (0, 1), SQRT2)
    linalg.add_into(acc, (2, 3), I)
    linalg.add_into(acc, (0, 1), -SQRT2)
    assert acc == {(2, 3): I}
    linalg.add_into(acc, (2, 3), I * rational(-1))
    linalg.add_into(acc, (4, 5), ZERO)
    assert acc == {}


def test_add_into_and_axpy_accumulate_sympoly_coefficients():
    acc = {}
    linalg.add_into(acc, 0, X[0] * V1)
    linalg.add_into(acc, 0, X[1])
    linalg.add_into(acc, 1, X[2])
    linalg.add_into(acc, 0, -(X[0] * V1))
    assert acc == {0: X[1], 1: X[2]}
    linalg.add_into(acc, 0, -X[1])
    assert acc == {1: X[2]}
    linalg.axpy(acc, SQRT2, {1: X[2], 2: V1})
    assert acc == {1: X[2] * (ONE + SQRT2), 2: V1 * SQRT2}
    linalg.axpy(acc, rational(-1), {1: X[2] * (ONE + SQRT2), 2: V1 * SQRT2})
    assert acc == {}


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_axpy_equals_dense_lin_comb(seed):
    rng = random.Random(seed)
    n = 12
    for _ in range(20):
        vecs = [{j: x for j in range(n) if (x := _sparse_entry(rng, 0.4))} for _ in range(4)]
        coeffs = [_sparse_entry(rng, 0.8) for _ in vecs]
        # a multiple of an earlier vector, so whole entries cancel
        c = _sparse_entry(rng, 1.0)
        vecs.append({j: x * c for j, x in vecs[0].items()})
        coeffs.append(-coeffs[0] * c.inverse())
        acc = {}
        for c, v in zip(coeffs, vecs):
            linalg.axpy(acc, c, v)
        dense = [((tuple(v.get(j, ZERO) for j in range(n))),) for v in vecs]
        (row,) = linalg.lin_comb(coeffs, dense)
        assert acc == {j: x for j, x in enumerate(row) if x}
        assert all(acc.values())


def test_sum_of_products_matches_dense_products():
    # x y - z y on nonzeros against the dense products; an entry that
    # cancels leaves the result
    rng = random.Random(17)
    for _ in range(20):
        x, z = _sparse_matrix(rng, 4, 5, 0.4), _sparse_matrix(rng, 4, 5, 0.4)
        y = _sparse_matrix(rng, 5, 3, 0.4)
        nx, ny, nz = linalg.nonzeros(x), linalg.nonzeros(y), linalg.nonzeros(z)
        assert all(nx.values()) and linalg.from_entries(4, nx, 5) == tuple(map(tuple, x))
        expected = mat_sub(linalg.mat_mul(x, y), linalg.mat_mul(z, y))
        assert linalg.sum_of_products([(nx, ny, False), (nz, ny, True)]) == linalg.nonzeros(expected)
    assert linalg.sum_of_products([(nx, ny, False), (nx, ny, True)]) == {}


def _invariant_span_case(rng, n=6, d=3):
    """A matrix P B P^-1 with B block upper triangular (B_21 = 0), the
    kernel of the last n - d rows of P^-1 (the span of P's first d
    columns, which it preserves), and P and its inverse."""
    while True:
        p = _sparse_matrix(rng, n, n, 0.6)
        if len(linalg.rref(p)[1]) == n:
            break
    b = [[ZERO if i >= d > j else _sparse_entry(rng, 0.6) for j in range(n)] for i in range(n)]
    p_inv = linalg.inverse(p)
    kernel = linalg.nullspace([to_sparse(row) for row in p_inv[d:]], n)
    return p, b, p_inv, kernel


@pytest.mark.parametrize("seed", range(4))
def test_restrict_to_span_equals_dense_coordinates(seed):
    # the coordinates x with M K = K x, K the kernel vectors as columns
    rng = random.Random(seed)
    p, b, p_inv, kernel = _invariant_span_case(rng)
    m = linalg.mat_mul(p, linalg.mat_mul(b, p_inv))
    k = linalg.transpose([to_dense(v, len(p)) for v in kernel])
    expected = linalg.solve(k, linalg.mat_mul(m, k))
    assert expected is not None
    assert linalg.restrict_to_span([linalg.nonzeros(m), {}], kernel) == (expected, zeros(3, 3))


@pytest.mark.parametrize("seed", range(4))
def test_restrict_to_span_rejects_a_span_that_is_not_invariant(seed):
    rng = random.Random(seed)
    p, b, p_inv, kernel = _invariant_span_case(rng)
    b[4][1] = ONE + SQRT2  # P's column 1 now has an image off the span
    m = linalg.mat_mul(p, linalg.mat_mul(b, p_inv))
    k = linalg.transpose([to_dense(v, len(p)) for v in kernel])
    assert linalg.solve(k, linalg.mat_mul(m, k)) is None
    with pytest.raises(ArithmeticError, match="leaves the span"):
        linalg.restrict_to_span([linalg.nonzeros(m)], kernel)
