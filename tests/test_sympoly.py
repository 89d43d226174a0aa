"""Polynomial algebra in the nine coordinate functions and the
symmetric-power inner product."""

import itertools
import random
from fractions import Fraction

import pytest

from gray_stability import linalg
from gray_stability.scalars import I, ONE, SQRT2, ZERO, Scalar, rational
from gray_stability.sympoly import (
    GENERATORS,
    GRAM_D,
    INTEGRAL_GRAM,
    NGENS,
    SymPoly,
    V1,
    V2,
    V3,
    X,
    _monomial_pairing,
    coordinate_matrix,
    det_cubic,
    reduce_v_cubic,
    sym_inner,
)
from oracles import (
    eliminate_v3,
    equal_mod_trace,
    gram_su3,
    matrix_from_coordinates,
    monomial_pairing_reference,
    reduce_v_cubic_reference,
    substitute,
    substitute_polys_reference,
    torus_derivative,
)


def test_ring_basics():
    p = V1 * V2 + X[0].scale(3)
    assert p + SymPoly() == p
    assert (V1 + V2 + V3) * (V1 * V2) == V1 * V1 * V2 + V1 * V2 * V2 + V1 * V2 * V3
    assert (V1 * V2 * V3).scale(6).terms.get((1, 1, 1, 0, 0, 0, 0, 0, 0), ZERO) == rational(6)
    assert str(X[0] * X[0] - V3) == "-v3 + x1^2"


def test_gram_matrix_values():
    g = gram_su3()
    for i in range(3):
        for j in range(3):
            assert g[i][j] == (Fraction(1, 3) if i == j else Fraction(-1, 6))
    for i in range(3, 9):
        assert g[i][i] == 1
        assert all(g[i][j] == 0 for j in range(9) if j != i)


def test_sym_inner_reference_values():
    v123 = V1 * V2 * V3
    assert sym_inner(v123, v123) == rational(1, 18)
    x1sq_v3 = X[0] * X[0] * V3
    assert sym_inner(x1sq_v3, x1sq_v3) == rational(2, 3)
    assert sym_inner(X[0], X[1]) == ZERO
    assert sym_inner(X[0], X[0]) == ONE
    assert sym_inner(V1, V1) == rational(1, 3)
    assert sym_inner(V1, V2) == rational(-1, 6)


def test_sym_inner_degree_one_reduces_to_gram():
    g = gram_su3()
    for i in range(9):
        for j in range(9):
            assert sym_inner(GENERATORS[i], GENERATORS[j]) == Scalar.from_fraction(g[i][j])


def test_sym_inner_degree_mismatch_raises():
    with pytest.raises(ValueError):
        sym_inner(V1, V1 * V2)
    with pytest.raises(ValueError):
        sym_inner(V1 + V1 * V2, V1 * V2)


def test_sym_inner_symmetric_bilinear():
    rng = random.Random(5)

    def rand_poly(deg, terms=3):
        p = SymPoly()
        for _ in range(terms):
            mono = SymPoly({(0,) * NGENS: rational(rng.randint(-3, 3))})
            for _ in range(deg):
                mono = mono * GENERATORS[rng.randrange(9)]
            p = p + mono
        return p

    for _ in range(10):
        p, q, r = rand_poly(3), rand_poly(3), rand_poly(3)
        assert sym_inner(p, q) == sym_inner(q, p)
        assert sym_inner(p + q, r) == sym_inner(p, r) + sym_inner(q, r)


def test_det_cubic_coefficients():
    d = det_cubic(coordinate_matrix())
    assert d.terms.get((1, 1, 1, 0, 0, 0, 0, 0, 0), ZERO) == rational(8)
    # triple-x block, coefficients forced by the determinant identity:
    assert d.terms.get((0, 0, 0, 0, 1, 1, 0, 1, 0), ZERO) == rational(2)   # x2 x3 x5
    assert d.terms.get((0, 0, 0, 1, 0, 1, 0, 0, 1), ZERO) == rational(2)   # x1 x3 x6
    assert d.terms.get((0, 0, 0, 0, 1, 0, 1, 0, 1), ZERO) == rational(2)   # x2 x4 x6
    assert d.terms.get((0, 0, 0, 1, 0, 0, 1, 1, 0), ZERO) == rational(-2)  # x1 x4 x5
    assert d.terms.get((0, 0, 1, 2, 0, 0, 0, 0, 0), ZERO) == rational(-2)  # x1^2 v3
    assert len(d.terms) == 11


def test_det_cubic_diagonal_example():
    # xi = diag(i, i, -2i) has coordinates v = (1/2, 1/2, -1), x = 0 and
    # i * det(xi) = -2.
    vals = [rational(1, 2), rational(1, 2), rational(-1)] + [ZERO] * 6
    assert substitute(det_cubic(coordinate_matrix()), vals) == rational(-2)


def test_det_cubic_against_matrix_determinant():
    rng = random.Random(17)
    d = det_cubic(coordinate_matrix())
    for _ in range(50):
        v1 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        v2 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        v = [v1, v2, -v1 - v2]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(6)]
        xi = matrix_from_coordinates(v, x)
        direct = I * linalg.det3(xi)
        values = [Scalar.from_fraction(q) for q in v + x]
        assert substitute(d, values) == direct


def test_coordinate_matrix_is_the_reconstructed_matrix():
    # each entry of xi, evaluated at rational coordinates, is the entry of
    # the matrix the oracle builds from them
    rng = random.Random(33)
    xi = coordinate_matrix()
    for _ in range(20):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(NGENS)]
        scalars = [Scalar.from_fraction(q) for q in values]
        direct = matrix_from_coordinates(values[:3], values[3:])
        assert tuple(tuple(substitute(p, scalars) for p in row) for row in xi) == direct


def test_coordinate_matrix_on_the_slice_is_traceless_with_the_coordinate_norm():
    v = (V1, V2, -(V1 + V2))
    xi = coordinate_matrix(v)
    assert not SymPoly.sum(xi[k][k] for k in range(3))
    tr_sq = SymPoly.sum(xi[a][b] * xi[b][a] for a in range(3) for b in range(3))
    assert tr_sq.scale(rational(-1, 2)) == SymPoly.sum([(w * w).scale(2) for w in v] + [x * x for x in X])


def test_det_cubic_torus_invariance():
    # the invariant cubic is annihilated by every torus direction
    d = det_cubic(coordinate_matrix())
    for j in range(3):
        assert torus_derivative(j, d) == SymPoly()


def test_partial_derivative_by_hand():
    # d/dx1 (3 v1 x1^2 x2 - x1 v2 + 5) = 6 v1 x1 x2 - v2
    p = (V1 * X[0] * X[0] * X[1]).scale(3) - X[0] * V2 + SymPoly({(0,) * NGENS: rational(5)})
    assert p.partial(3) == (V1 * X[0] * X[1]).scale(6) - V2
    assert p.partial(2) == SymPoly()
    d = det_cubic(coordinate_matrix())
    assert d.partial(0) == (V2 * V3).scale(8) - (X[4] * X[4] + X[5] * X[5]).scale(2)


def test_reduce_v_cubic():
    p = (V1 * V1 * V1 + V2 * V2 * V2 + V3 * V3 * V3).scale(2)
    assert reduce_v_cubic(p) == (V1 * V2 * V3).scale(6)
    mixed = p + (X[0] * X[0] * V3).scale(4)
    assert reduce_v_cubic(mixed) == (V1 * V2 * V3).scale(6) + (X[0] * X[0] * V3).scale(4)
    # the reduction only changes the polynomial by a trace-relation multiple
    assert equal_mod_trace(reduce_v_cubic(p), p)


def test_reduce_v_cubic_rejects_asymmetric():
    with pytest.raises(ValueError):
        reduce_v_cubic(V1 * V1 * V2)


@pytest.mark.parametrize("p", [(V1 + V2 + V3) * (V1 + V2 + V3), V1 + V2 + V3 + V1 * V2 * V3], ids=["e1^2", "e1+e3"])
def test_reduce_v_cubic_rejects_symmetric_non_cubics(p):
    # e1^2 has no cubic coefficient to read, and e1 + e3 the right ones
    # with a linear part left over
    with pytest.raises(ValueError):
        reduce_v_cubic(p)


def test_reduce_v_cubic_leaves_a_polynomial_without_pure_v_part():
    p = (X[0] * X[1] * V1).scale(3) + X[2] * X[2] * X[3] + X[4].scale(I)
    assert reduce_v_cubic(p) == p


def test_reduce_v_cubic_matches_the_permutation_reference():
    rng = random.Random(25)
    coeffs = [ONE, -ONE, rational(3, 2), I, SQRT2, ZERO]
    v = (V1, V2, V3)
    asymmetric = 0
    for _ in range(40):
        cubic = SymPoly.sum(
            (v[i] * v[j] * v[k]).scale(rng.choice(coeffs))
            for i, j, k in itertools.combinations_with_replacement(range(3), 3)
        )
        # the sum over the six permutations of v1, v2, v3 is symmetric
        symmetric = SymPoly.sum(
            substitute_polys_reference(cubic, [v[s] for s in perm] + list(X))
            for perm in itertools.permutations(range(3))
        )
        mixed = SymPoly.sum(
            (X[rng.randrange(6)] * X[rng.randrange(6)] * v[rng.randrange(3)]).scale(rng.choice(coeffs))
            for _ in range(rng.randrange(4))
        )
        p = symmetric + mixed
        assert reduce_v_cubic(p) == reduce_v_cubic_reference(p)
        assert equal_mod_trace(reduce_v_cubic(p), p)
        if substitute_polys_reference(cubic, [V2, V1, V3] + list(X)) != cubic:
            asymmetric += 1
            for reduce in (reduce_v_cubic, reduce_v_cubic_reference):
                with pytest.raises(ValueError):
                    reduce(cubic + mixed)
    assert asymmetric > 20


def test_sym_inner_with_an_empty_argument_is_zero():
    assert sym_inner(SymPoly(), det_cubic(coordinate_matrix())) == ZERO
    assert sym_inner(det_cubic(coordinate_matrix()), SymPoly()) == ZERO
    assert sym_inner(SymPoly(), SymPoly()) == ZERO


def test_eliminate_v3_normal_form():
    assert eliminate_v3(V1 + V2 + V3) == SymPoly()
    assert equal_mod_trace((V1 + V2 + V3) * X[0], SymPoly())
    assert not equal_mod_trace(V1, V2)


def test_integral_gram_is_six_times_the_gram():
    assert GRAM_D == 6
    assert [[Fraction(x, 6) for x in row] for row in INTEGRAL_GRAM] == gram_su3()
    assert all(type(x) is int for row in INTEGRAL_GRAM for x in row)


def _monomials(degree: int) -> list:
    return [
        tuple(combo.count(k) for k in range(NGENS))
        for combo in itertools.combinations_with_replacement(range(NGENS), degree)
    ]


def test_monomial_pairing_matches_the_fraction_permanent():
    # every pair of monomials of equal degree 1-3: 9, 45 and 165 of them
    counts = []
    for degree in (1, 2, 3):
        monos = _monomials(degree)
        counts.append(len(monos))
        for m1 in monos:
            for m2 in monos:
                assert _monomial_pairing(m1, m2) == monomial_pairing_reference(m1, m2), (m1, m2)
    assert counts == [9, 45, 165]


def _random_poly(rng, max_degree: int, n_terms: int) -> SymPoly:
    p = SymPoly()
    for _ in range(n_terms):
        mono = [0] * NGENS
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(NGENS)] += 1
        coeff = rational(rng.randint(-5, 5), rng.randint(1, 4))
        if rng.random() < 0.3:
            coeff = coeff * I
        p = p + SymPoly({tuple(mono): coeff})
    return p


def test_sum_is_the_plus_chain_and_keeps_its_inputs():
    rng = random.Random(24)
    for trial in range(30):
        polys = [_random_poly(rng, 3, 6) for _ in range(rng.randint(0, 6))]
        if polys and trial % 3 == 0:
            polys.append(-polys[0])  # a cancellation
        before = [dict(p.terms) for p in polys]
        chain = SymPoly()
        for p in polys:
            chain = chain + p
        assert SymPoly.sum(polys) == chain
        assert SymPoly.sum(iter(polys)) == chain
        assert [p.terms for p in polys] == before
        assert all(all(p.terms.values()) for p in (chain, SymPoly.sum(polys)))


def test_slice_cubic_and_norm_are_the_substitution_route():
    # the certificate writes F and |xi|^2 on v3 = -v1 - v2 directly; that
    # is what substituting v3 = -v1 - v2 into the nine-variable forms gives
    v = (V1, V2, -(V1 + V2))
    assert det_cubic(coordinate_matrix(v)) == eliminate_v3(det_cubic(coordinate_matrix()))
    norm_sq = SymPoly.sum((g * g).scale(2 if k < 3 else 1) for k, g in enumerate(GENERATORS))
    assert SymPoly.sum([(w * w).scale(2) for w in v] + [x * x for x in X]) == eliminate_v3(norm_sq)
    assert coordinate_matrix((V1, V2, V3)) == coordinate_matrix()
