"""Unit tests for the exact linear algebra helpers."""

import random
from fractions import Fraction

from gray_stability import linalg
from gray_stability.lie import SPACE_NAMES, build_space
from gray_stability.scalars import I, ONE, SQRT2, ZERO, Scalar, rational


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
    ns = linalg.nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert not any(linalg.mat_vec(a, v))


def test_solve_unique():
    a = [[ONE, I], [ZERO, SQRT2]]
    x = [rational(3), I * rational(5)]
    b = linalg.mat_vec(a, x)
    assert linalg.solve(a, b) == x


def test_solve_inconsistent():
    a = [[ONE], [ONE]]
    assert linalg.solve(a, [ONE, rational(2)]) is None


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        while True:
            a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(3)]
            if linalg.det3(a):
                break
        assert linalg.mat_eq(linalg.mat_mul(a, linalg.inverse(a)), linalg.identity(3))


def test_adjugate_identity():
    rng = random.Random(11)
    for _ in range(20):
        a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(3)]
        prod = linalg.mat_mul(linalg.adjugate3(a), a)
        det = linalg.det3(a)
        assert linalg.mat_eq(prod, linalg.mat_scale(det, linalg.identity(3)))


def test_scalar_multiple_of_identity():
    assert linalg.scalar_multiple_of_identity(linalg.identity(4)) == ONE
    m = linalg.mat_scale(SQRT2, linalg.identity(3))
    assert linalg.scalar_multiple_of_identity(m) == SQRT2
    m[0][1] = ONE
    assert linalg.scalar_multiple_of_identity(m) is None


def test_rank():
    a = [[ONE, ONE], [ONE, ONE], [ZERO, ONE]]
    assert linalg.rank(a) == 2


def test_trace_product_matches_trace_of_product():
    rng = random.Random(5)
    for _ in range(20):
        a = [[_rand_scalar(rng) for _ in range(3)] for _ in range(2)]
        b = [[_rand_scalar(rng) for _ in range(2)] for _ in range(3)]
        assert linalg.trace_product(a, b) == linalg.trace(linalg.mat_mul(a, b))
        assert linalg.trace_product(b, a) == linalg.trace(linalg.mat_mul(b, a))
    for name in SPACE_NAMES:
        mats = build_space(name).algebra.basis_matrices
        for x in mats:
            for y in mats:
                assert linalg.trace_product(x, y) == linalg.trace(linalg.mat_mul(x, y)), name
