"""Frozen expected data shared between unit and acceptance tests."""

from fractions import Fraction

from gray_stability.sympoly import SymPoly, V1, V2, V3, X


def _x(k):
    return X[k - 1]


def _vdiff(a, b):
    v = (V1, V2, V3)
    return (v[a - 1] - v[b - 1]).scale(Fraction(1, 2))


def _entry(*terms):
    """Each term is (basis index l, polynomial)."""
    out = [SymPoly()] * 6
    for l, poly in terms:
        out[l - 1] = out[l - 1] + poly
    return out


def expected_nabla_h_table() -> dict:
    """The 36 vector-valued coefficients of the covariant derivative of the
    deformation tensor, keyed by (i, k) with 1-based frame indices."""
    z = _entry()
    table = {}
    # direction e1
    table[(1, 1)] = z
    table[(1, 2)] = z
    table[(1, 3)] = _entry((3, _x(2)), (5, _vdiff(1, 2)))
    table[(1, 4)] = _entry((4, _x(2)), (6, _vdiff(1, 2)))
    table[(1, 5)] = _entry((5, -_x(2)), (3, _vdiff(1, 2)))
    table[(1, 6)] = _entry((6, -_x(2)), (4, _vdiff(1, 2)))
    # direction e2
    table[(2, 1)] = z
    table[(2, 2)] = z
    table[(2, 3)] = _entry((3, -_x(1)), (6, _vdiff(2, 1)))
    table[(2, 4)] = _entry((4, -_x(1)), (5, _vdiff(1, 2)))
    table[(2, 5)] = _entry((5, _x(1)), (4, _vdiff(1, 2)))
    table[(2, 6)] = _entry((6, _x(1)), (3, _vdiff(2, 1)))
    # direction e3
    table[(3, 1)] = _entry((1, _x(4)), (5, _vdiff(3, 1)))
    table[(3, 2)] = _entry((2, _x(4)), (6, _vdiff(1, 3)))
    table[(3, 3)] = z
    table[(3, 4)] = z
    table[(3, 5)] = _entry((5, -_x(4)), (1, _vdiff(3, 1)))
    table[(3, 6)] = _entry((6, -_x(4)), (2, _vdiff(1, 3)))
    # direction e4
    table[(4, 1)] = _entry((1, -_x(3)), (6, _vdiff(3, 1)))
    table[(4, 2)] = _entry((2, -_x(3)), (5, _vdiff(3, 1)))
    table[(4, 3)] = z
    table[(4, 4)] = z
    table[(4, 5)] = _entry((5, _x(3)), (2, _vdiff(3, 1)))
    table[(4, 6)] = _entry((6, _x(3)), (1, _vdiff(3, 1)))
    # direction e5
    table[(5, 1)] = _entry((1, _x(6)), (3, _vdiff(2, 3)))
    table[(5, 2)] = _entry((2, _x(6)), (4, _vdiff(2, 3)))
    table[(5, 3)] = _entry((3, -_x(6)), (1, _vdiff(2, 3)))
    table[(5, 4)] = _entry((4, -_x(6)), (2, _vdiff(2, 3)))
    table[(5, 5)] = z
    table[(5, 6)] = z
    # direction e6
    table[(6, 1)] = _entry((1, -_x(5)), (4, _vdiff(2, 3)))
    table[(6, 2)] = _entry((2, -_x(5)), (3, _vdiff(3, 2)))
    table[(6, 3)] = _entry((3, _x(5)), (2, _vdiff(3, 2)))
    table[(6, 4)] = _entry((4, _x(5)), (1, _vdiff(2, 3)))
    table[(6, 5)] = z
    table[(6, 6)] = z
    return table


def expected_obstruction_terms():
    """Canonical representatives of the three integrand invariants."""
    i0 = (V1 * V2 * V3).scale(6)
    x_sq = [x * x for x in X]
    i1 = (
        (V1 * V2 * V3).scale(-18)
        + ((x_sq[0] + x_sq[1]) * V3).scale(4)
        + ((x_sq[2] + x_sq[3]) * V2).scale(4)
        + ((x_sq[4] + x_sq[5]) * V1).scale(4)
    )
    i2 = (V1 * V2 * V3).scale(9)
    return i0, i1, i2


def expected_integrand():
    x_sq = [x * x for x in X]
    return (
        (V1 * V2 * V3).scale(84)
        - ((x_sq[0] + x_sq[1]) * V3).scale(6)
        - ((x_sq[2] + x_sq[3]) * V2).scale(6)
        - ((x_sq[4] + x_sq[5]) * V1).scale(6)
    )
