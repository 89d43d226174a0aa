"""The second-order obstruction pipeline on the flag manifold."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from frozen_tables import (
    expected_integrand,
    expected_nabla_h_table,
    expected_obstruction_terms,
)
import oracles
from gray_stability import linalg, obstruction
from gray_stability.exterior import derivation_action
from gray_stability.lie import ReductiveSpace, build_space
from gray_stability.obstruction import (
    H_HAT,
    integrand,
    killing_check,
    nabla_h,
    nabla_h_entry,
    no_critical_point_certificate,
    obstruction_pairing,
    obstruction_terms,
    pairing_breakdown,
    rigidity_verdict,
    trace_cube,
)
from gray_stability.scalars import I, ONE, ZERO, rational
from gray_stability.sympoly import (
    GENERATORS,
    SymPoly,
    V1,
    V2,
    V3,
    X,
    coordinate_matrix,
    det_cubic,
    reduce_v_cubic,
    sym_inner,
)
from oracles import (
    _frame,
    commutator,
    coordinate_derivatives_reference,
    coordinate_poly,
    matrix_from_coordinates,
    psi_lookup,
    substitute_polys_reference,
    torus_derivative,
    trace,
    trace_cube_reference,
)


def test_coordinate_derivatives_match_displays():
    # rows of e_i(h_hat): each direction kills one v and exchanges the
    # other two against a single x-function
    expect = {
        # (direction, generator) -> polynomial
        (1, 2): X[1], (1, 1): -X[1], (1, 3): SymPoly(),
        (2, 2): -X[0], (2, 1): X[0], (2, 3): SymPoly(),
        (3, 3): X[3], (3, 1): -X[3], (3, 2): SymPoly(),
        (4, 3): -X[2], (4, 1): X[2], (4, 2): SymPoly(),
        (5, 3): X[5], (5, 2): -X[5], (5, 1): SymPoly(),
        (6, 3): -X[4], (6, 2): X[4], (6, 1): SymPoly(),
    }
    for (e, v), poly in expect.items():
        assert coordinate_derivatives_reference()[e - 1][v - 1] == poly, (e, v)


def test_coordinate_derivatives_match_trace_form_reference():
    # every (direction, generator) pair: the adjoint column against the
    # bracket read back through the trace form
    h_mats, e_mats = _frame()
    table = coordinate_derivatives_reference()
    for a in range(6):
        for g, target in enumerate(h_mats + e_mats):
            expected = coordinate_poly(commutator(e_mats[a], target))
            assert table[a][g] == expected, (a, g)


def test_coordinate_derivatives_check_the_frame_span(monkeypatch):
    # a frame missing e6: the bracket [e1, e4] = -e6 leaves its span
    space = build_space("flag")
    algebra = SimpleNamespace(basis_matrices=space.algebra.basis_matrices[:-1])
    monkeypatch.setattr(oracles, "build_space", lambda name: SimpleNamespace(algebra=algebra))
    with pytest.raises(ValueError, match="not in the unitary frame span"):
        coordinate_derivatives_reference()


def test_coordinate_derivatives_check_all_54_frame_brackets(monkeypatch):
    # the span check covers each direction e_1..e_6 against each of the
    # nine frame matrices, once
    seen = []
    original = oracles.bracket_closes

    def recording(mats, ad, pairs):
        pairs = list(pairs)
        seen.append((len(mats), pairs))
        return original(mats, ad, pairs)

    monkeypatch.setattr(oracles, "bracket_closes", recording)
    coordinate_derivatives_reference()
    assert [n for n, _ in seen] == [9]
    assert sorted(seen[0][1]) == [(3 + a, g) for a in range(6) for g in range(9)]


def test_nabla_h_is_the_leibniz_rule_over_the_reference_derivatives():
    # h is linear in xi, so its invariant derivative h([xi, e_i]) is the
    # Leibniz rule over the derivatives of the nine coordinate functions
    table = nabla_h()
    for i, derivs in enumerate(coordinate_derivatives_reference()):
        invariant = {key[1:]: p for key, p in table.items() if key[0] == i}
        for key, c in derivation_action(_a(i), H_HAT).items():
            linalg.add_into(invariant, key, c.scale(rational(-1, 2)))
        leibniz = {
            key: d
            for key, p in H_HAT.items()
            if (d := SymPoly.sum(p.partial(k) * dk for k, dk in enumerate(derivs)))
        }
        assert leibniz and invariant == leibniz, i


def _a(x: int) -> tuple:
    """A_{e_{x+1}}: the m-block of the adjoint matrix of e_{x+1} on flag."""
    flag = build_space("flag")
    return flag.m_action[flag.h_dim + x]


def test_torus_directions_annihilate_v():
    for j in range(3):
        for v in range(3):
            h_target = torus_derivative(j, (V1, V2, V3)[v])
            assert h_target == SymPoly()


def test_a_action_displays():
    a1 = derivation_action(_a(0), H_HAT)
    # (v1 - v2) (e3 . e5 + e4 . e6) as a symmetric 2-tensor
    d = (V1 - V2)
    assert a1[(2, 4)] == d and a1[(4, 2)] == d
    assert a1[(3, 5)] == d and a1[(5, 3)] == d
    assert set(a1) == {(2, 4), (4, 2), (3, 5), (5, 3)}

    a6 = derivation_action(_a(5), H_HAT)
    d = (V2 - V3)
    assert a6[(0, 3)] == d and a6[(3, 0)] == d
    assert a6[(1, 2)] == -d and a6[(2, 1)] == -d
    assert set(a6) == {(0, 3), (3, 0), (1, 2), (2, 1)}


def test_a_action_annihilates_metric():
    metric = {(k, k): SymPoly({(0,) * 9: ONE}) for k in range(6)}
    for x in range(6):
        assert derivation_action(_a(x), metric) == {}


def test_a_endomorphisms_match_permutation_reference():
    # A_X = X -| Psi^-: the m-block of ad(e_X) is Psi^-(e_X, e_b, e_w) at (w, b)
    psi = psi_lookup()
    for x in range(6):
        m = _a(x)
        for w in range(6):
            for b in range(6):
                assert m[w][b] == psi.get((x, b, w), ZERO), (x, w, b)


def test_a_endomorphisms_skew():
    for m in map(_a, range(6)):
        for a in range(6):
            for b in range(6):
                assert m[a][b] == -m[b][a]


def test_nabla_h_table_reproduced_exactly():
    expected = expected_nabla_h_table()
    for i in range(1, 7):
        for k in range(1, 7):
            got = nabla_h_entry(i - 1, k - 1)
            assert got == expected[(i, k)], (i, k)


def test_nabla_h_symmetric_in_last_two_slots():
    table = nabla_h()
    for (i, k, l), poly in table.items():
        assert table.get((i, l, k), SymPoly()) == poly


def test_obstruction_terms():
    i0, i1, i2 = obstruction_terms()
    e0, e1, e2 = expected_obstruction_terms()
    assert i0 == e0
    assert i1 == e1
    assert i2 == e2


def test_integrand_identity():
    i0, i1, i2 = obstruction_terms()
    combo = (i0.scale(10) - i1.scale(3) + i2.scale(6)).scale(Fraction(1, 2))
    assert integrand() == combo == expected_integrand()


def test_pairing_value_and_breakdown():
    assert obstruction_pairing() == rational(256, 3)
    parts = pairing_breakdown()
    assert parts["vvv"] == rational(112, 3)  # 672 * (1/18)
    assert parts["xxv"] == rational(48)      # 12 * 6 * (2/3)
    assert parts["total"] == rational(256, 3)


def test_breakdown_total_is_the_full_pairing():
    # the blocks' sum against one pairing of the whole integrand
    assert pairing_breakdown()["total"] == sym_inner(integrand(), det_cubic(coordinate_matrix()))


def test_pairing_insensitive_to_trace_relation():
    rng = random.Random(23)
    base = sym_inner(integrand(), det_cubic(coordinate_matrix()))
    trace = V1 + V2 + V3
    for _ in range(25):
        q = SymPoly()
        for _ in range(2):
            a, b = rng.randrange(9), rng.randrange(9)
            q = q + (GENERATORS[a] * GENERATORS[b]).scale(rng.randint(-5, 5))
        shifted = integrand() + trace * q
        assert sym_inner(shifted, det_cubic(coordinate_matrix())) == base


def test_sign_convention_toggle():
    # Flipping the global sign of every degree-1 coordinate function
    # negates the integrand; re-expressing the invariant cubic in the
    # flipped functions negates it as well, so the pairing is unchanged.
    plus = integrand()
    minus = substitute_polys_reference(integrand(), [-g for g in GENERATORS])
    assert minus == -plus
    det = det_cubic(coordinate_matrix())
    flipped_det = substitute_polys_reference(det, [-g for g in GENERATORS])
    assert flipped_det == -det
    assert sym_inner(minus, flipped_det) == sym_inner(plus, det)


def test_trace_cube_is_the_trace_of_the_cube():
    # I0 = tr(h^3): on the diagonal H_HAT it is the sum of the cubed
    # diagonal, 6 v1 v2 v3 modulo the trace; an off-diagonal x1 at (1,2)
    # adds 3 (h_11 + h_22) x1^2 = 6 v3 x1^2, which the diagonal misses
    assert trace_cube(H_HAT) == trace_cube_reference(H_HAT)
    assert reduce_v_cubic(trace_cube(H_HAT)) == (V1 * V2 * V3).scale(6)
    off = dict(H_HAT)
    off[0, 1] = off[1, 0] = X[0]
    diagonal = SymPoly.sum(off[a, a] * off[a, a] * off[a, a] for a in range(6))
    assert trace_cube(off) == trace_cube_reference(off)
    assert trace_cube(off) - diagonal == (V3 * X[0] * X[0]).scale(6)


def test_killing_property():
    assert killing_check(1, -1, 0)
    assert killing_check(0, 0, 0)
    assert killing_check(2, -1, -1)
    assert killing_check(Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2))
    with pytest.raises(ValueError):
        killing_check(1, 1, 1)


def test_killing_check_can_say_no(monkeypatch):
    # A_{e1} = E_11 sends g|_(e1,e2) to 2 e1 (x) e1: the cyclic sum is 6 at (e1; e1, e1)
    def torsion(space):
        return tuple(linalg.from_entries(6, {(0, 0): ONE} if a == space.h_dim else {}) for a in range(space.algebra.dim))

    monkeypatch.setattr(ReductiveSpace, "m_action", property(torsion))
    assert not killing_check(1, -1, 0)


def test_coordinate_matrix_reads_the_generators_on_the_u3_frame():
    # -(1/2) tr(xi Z_g) is generator g on the frame that
    # coordinate_derivatives_reference reads: Z = (i E_11, i E_22, i E_33, e1..e6)
    h_mats, e_mats = _frame()
    xi = coordinate_matrix()
    for g, z in enumerate(h_mats + e_mats):
        pairing = SymPoly.sum(xi[a][b] * z[b][a] for a in range(3) for b in range(3) if z[b][a])
        assert pairing.scale(rational(-1, 2)) == GENERATORS[g], g


def test_matrix_reconstruction_round_trip():
    v = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)]
    x = [Fraction(k + 1, 3) for k in range(6)]
    xi = matrix_from_coordinates(v, x)
    # the coordinate functions <xi, h_a> and <xi, e_k> recover the inputs
    e_mats = build_space("flag").algebra.basis_matrices[2:]
    half = rational(-1, 2)
    for a in range(3):
        h = linalg.from_entries(3, {(a, a): I})
        assert half * trace(linalg.mat_mul(xi, h)) == rational(v[a])
    for k in range(6):
        assert half * trace(linalg.mat_mul(xi, e_mats[k])) == rational(x[k])
    # traceless skew-hermitian
    assert trace(xi) == ZERO
    for a in range(3):
        for b in range(3):
            assert xi[a][b] == -(xi[b][a].conjugate())


def test_rigidity_verdict():
    assert obstruction_pairing() == rational(256, 3)
    assert rigidity_verdict(obstruction_pairing()) == {
        "pairing_nonzero": True,
        "critical_points_exist": False,
        "rigid": True,
        "status": "rigid",
    }


def test_rigidity_verdict_with_zero_pairing_is_undetermined():
    report = rigidity_verdict(pairing=ZERO)
    assert not report["pairing_nonzero"] and not report["rigid"]
    assert report["status"] == "undetermined-by-second-order"


def test_no_critical_point_certificate_holds():
    assert no_critical_point_certificate()


def _pure_v_cubic(xi) -> SymPoly:
    """8 v1 v2 v3, each v_k = -(i/2) xi_kk read off the coordinate matrix."""
    v1, v2, v3 = (xi[k][k].scale(I * rational(-1, 2)) for k in range(3))
    return (v1 * v2 * v3).scale(8)


@pytest.mark.parametrize(
    "mutant",
    [
        # critical along the x-axes: every partial vanishes at v = 0
        _pure_v_cubic,
        # one triple-x sign flipped
        lambda xi: det_cubic(xi) - (X[1] * X[2] * X[4]).scale(4),
    ],
    ids=["pure-v", "flipped-triple-x"],
)
def test_rigidity_verdict_rejects_wrong_cubic(monkeypatch, mutant):
    monkeypatch.setattr(obstruction, "det_cubic", mutant)
    with pytest.raises(ArithmeticError):
        rigidity_verdict(pairing=rational(256, 3))
