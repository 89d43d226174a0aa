"""Catalog geometry checks: adjoint matrices, inner products, splittings."""

import dataclasses
import itertools
import re

import pytest

from gray_stability import cli, linalg
from gray_stability.exterior import derivation_action
from gray_stability.lie import (
    PremiseError,
    ad_and_gram,
    bracket_closes,
    build_space,
    frame_pairing,
    validate_algebra,
    validate_space,
)
from gray_stability.scalars import I, ONE, ZERO, Scalar, rational
from oracles import (
    ALGEBRA_CORRUPTIONS,
    SCALES,
    ad_and_gram_reference,
    bracket_leaving_m,
    catalog_mutant,
    commutator,
    complex_structure_reference,
    kahler_form,
    mat_add,
    nomizu_ricci,
    shift_entry,
    trace,
    validate_algebra_reference,
)


def test_all_catalog_spaces_validate():
    for name in ("s3xs3", "cp3", "flag"):
        checks = validate_space(build_space(name))
        failing = [k for k, ok in checks.items() if not ok]
        assert not failing, f"{name}: {failing}"


@pytest.mark.parametrize("name", sorted(SCALES))
def test_ad_is_bracket_of_basis_matrices(name):
    alg = build_space(name).algebra
    mats = alg.basis_matrices
    for a in range(alg.dim):
        cols = linalg.transpose(alg.ad[a])
        for b in range(alg.dim):
            assert linalg.lin_comb(cols[b], mats) == commutator(mats[a], mats[b]), (a, b)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_ad_and_gram_matches_dense_reference(name):
    mats = build_space(name).algebra.basis_matrices
    alg = ad_and_gram(mats, SCALES[name])
    assert (alg.ad, alg.gram, alg.gram_inv) == ad_and_gram_reference(mats, SCALES[name])


def test_ad_and_gram_matches_dense_reference_on_skew_basis():
    # X_0 + X_2 in place of X_0 pairs t1 with e1, so gram_inv couples h and m
    mats = list(build_space("flag").algebra.basis_matrices)
    mats[0] = mat_add(mats[0], mats[2])
    alg = ad_and_gram(tuple(mats), SCALES["flag"])
    assert alg.gram_inv[0][2] != ZERO
    assert (alg.ad, alg.gram, alg.gram_inv) == ad_and_gram_reference(tuple(mats), SCALES["flag"])


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        build_space("s6")


@pytest.mark.parametrize(
    "corruption, failing",
    [
        ("symmetric_bracket", {"jacobi", "ad_invariance"}),
        ("one_sided_bracket", {"antisymmetry", "jacobi", "ad_invariance"}),
        ("gram_entry", {"ad_invariance"}),
        ("basis_matrix", {"jacobi"}),
    ],
    ids=["symmetric_bracket", "one_sided_bracket", "gram_entry", "basis_matrix"],
)
@pytest.mark.parametrize("name", sorted(SCALES))
def test_corrupted_algebra_fails_named_checks(name, corruption, failing):
    alg = build_space(name).algebra
    assert all(validate_algebra(alg).values())
    bad = dataclasses.replace(alg, **ALGEBRA_CORRUPTIONS[corruption](alg))
    checks = validate_algebra(bad)
    assert {k for k, ok in checks.items() if not ok} == failing
    assert checks == validate_algebra_reference(bad)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_m_action_rejects_a_bracket_of_h_and_m_outside_m(capsys, name):
    with pytest.raises(PremiseError, match=re.escape(f"{name}: [h, m] leaves m")):
        bracket_leaving_m(build_space(name)).m_action
    # validate reports the failure, and fails the checks that read m_action
    keys = list(cli.validate_doc([name])[name])
    with catalog_mutant(name, bracket_leaving_m):
        assert cli.main(["validate", "--space", name]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split() for line in captured.out.splitlines()[2:]]
    assert [row[1] for row in rows] == keys
    failed = {check for _, check, result in rows if result == "FAIL"}
    assert {"reductivity", "m_pm_weight_vectors", "kahler_h_invariant", "lambda11_0_dim_8"} <= failed


@pytest.mark.parametrize("name", sorted(SCALES))
def test_sparse_validate_algebra_equals_dense_reference(name):
    alg = build_space(name).algebra
    assert validate_algebra(alg) == validate_algebra_reference(alg)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_bracket_closes_on_basis_matrices_and_fails_on_a_wrong_column(name):
    # mats are the basis matrices, not the adjoint matrices ad itself
    alg = build_space(name).algebra
    mats, dim = alg.basis_matrices, alg.dim
    pairs = [(a, b) for a in range(dim) for b in range(dim)]
    assert bracket_closes(mats, alg.ad, pairs)
    # coordinate 0 of [basis_2, basis_3] moves by i; only that pair breaks
    wrong = shift_entry(alg.ad, 2, (0, 3), I)
    assert not bracket_closes(mats, wrong, pairs)
    assert not bracket_closes(mats, wrong, [(2, 3)])
    assert bracket_closes(mats, wrong, [pair for pair in pairs if pair != (2, 3)])


def _bracket(alg, x, y) -> list:
    return linalg.mat_vec(linalg.lin_comb(x, alg.ad), y)


def test_bracket_antisymmetry_on_basis():
    for name in ("s3xs3", "cp3", "flag"):
        alg = build_space(name).algebra
        for coords in linalg.identity(alg.dim):
            assert not any(_bracket(alg, coords, coords))


def test_flag_torus_commutes():
    alg = build_space("flag").algebra
    t1, t2 = linalg.identity(8)[:2]
    assert not any(_bracket(alg, t1, t2))


def test_killing_form_normalization_su3():
    # B(X, Y) = 6 tr(XY) for su(3), so -(1/12)B(e1, e1) = -(1/2) tr(e1^2) = 1.
    space = build_space("flag")
    e1 = space.algebra.basis_matrices[2]
    tr = trace(linalg.mat_mul(e1, e1))
    assert rational(-1, 2) * tr == ONE
    assert space.algebra.gram[2][2] == ONE


def test_cp3_reductivity_brute_force():
    # [h, m] stays inside span(m), checked on the raw matrices.
    space = build_space("cp3")
    mats = space.algebra.basis_matrices
    h_mats, m_mats = mats[: space.h_dim], mats[space.h_dim :]
    span_rows = [[x for row in m for x in row] for m in m_mats]
    for h in h_mats:
        for m in m_mats:
            br = commutator(h, m)
            flat = [x for row in br for x in row]
            stacked = span_rows + [flat]
            assert len(linalg.rref(stacked)[1]) == len(span_rows)


def test_kahler_elements():
    assert kahler_form(build_space("flag")) == {(0, 1): ONE, (2, 3): -ONE, (4, 5): ONE}
    assert kahler_form(build_space("cp3")) == {(0, 1): ONE, (2, 3): ONE, (4, 5): -ONE}
    assert kahler_form(build_space("s3xs3")) == {
        (0, 1): -ONE,
        (2, 3): -ONE,
        (4, 5): -ONE,
    }


@pytest.mark.parametrize("name", sorted(SCALES))
def test_complex_structure_is_a_real_isometry_squaring_to_minus_one(name):
    space = build_space(name)
    j = complex_structure_reference(space)
    assert all(x.is_rational() for row in j for x in row)
    assert linalg.mat_mul(j, j) == linalg.mat_scale(-ONE, linalg.identity(6))
    # g(J., J.) = g, g the identity on the orthonormal m-basis
    assert linalg.mat_mul(linalg.transpose(j), j) == linalg.identity(6)
    # J is i on m^+ and -i on m^-
    for sign, side in ((I, space.m_plus), (-I, space.m_minus)):
        for v in side:
            assert linalg.mat_vec(j, v) == [sign * x for x in v]
    # omega(e_a, e_b) = g(J e_a, e_b), a < b, is the library's Kaehler form
    omega = {(a, b): j[b][a] for a in range(6) for b in range(a + 1, 6) if j[b][a]}
    assert omega == kahler_form(space)


@pytest.mark.parametrize(
    "name, eigen_d, weight_d",
    [("s3xs3", (1, 1, 1), (2, 1, 2)), ("cp3", (1, 1, 2), (1, 1, 2)), ("flag", (2, 2, 2), (2, 2, 2))],
    ids=["s3xs3", "cp3", "flag"],
)
def test_frame_pairing_inverts_both_frames_by_transposition(name, eigen_d, weight_d):
    # g is zero on m^+ x m^+ and pairs p_k with conj(p_k) alone, so the
    # swapped, rescaled transpose is the inverse that elimination gives
    space = build_space(name)
    weight_frame = [v for v, _ in space.m_plus_weights + space.m_minus_weights]
    for cols, want in ((space.m_plus + space.m_minus, eigen_d), (weight_frame, weight_d)):
        d, inverse = frame_pairing(cols, name)
        assert d == tuple(rational(x) for x in want)
        assert inverse == linalg.inverse(linalg.transpose(cols))


@pytest.mark.parametrize("name", sorted(SCALES))
def test_einstein_constant_is_the_nomizu_ricci_contraction(name):
    space = build_space(name)
    hd = space.h_dim
    g = [row[hd:] for row in space.algebra.gram[hd:]]
    e = Scalar.from_fraction(space.einstein_constant)
    assert nomizu_ricci(space) == linalg.mat_scale(e, g)


def _nabla_omega(space, omega) -> dict:
    """(nabla_X omega)(a, b) = (Lambda_X . omega)(a, b), Lambda_X = (1/2) ad_m(X)
    the Nomizu map of the normal metric, on the orthonormal m-basis."""
    full = {}
    for (a, b), c in omega.items():
        full[a, b], full[b, a] = c, -c
    out = {}
    for x, ad in enumerate(space.m_action[space.h_dim :]):
        lam = [[y * rational(1, 2) for y in row] for row in ad]
        out.update(((x,) + key, c) for key, c in derivation_action(lam, full).items())
    return out


def _skew_in_first_two(t: dict) -> bool:
    return all(t.get((x, a, b), ZERO) == -t.get((a, x, b), ZERO) for x, a, b in itertools.product(range(6), repeat=3))


@pytest.mark.parametrize("name", sorted(SCALES))
def test_nabla_omega_is_totally_skew_and_nonzero(name):
    # strict nearly Kaehler: nabla omega is a nonzero 3-form; it is skew
    # in (a, b) by construction, so skewness in (X, a) makes it total
    space = build_space(name)
    omega = kahler_form(space)
    t = _nabla_omega(space, omega)
    assert t and _skew_in_first_two(t)
    # negative control: J flipped on one 2-plane is no longer nearly Kaehler
    plane = next(iter(omega))
    flipped = dict(omega)
    flipped[plane] = -flipped[plane]
    assert not _skew_in_first_two(_nabla_omega(space, flipped))


def test_nomizu_ricci_sees_the_sign_of_lambda_and_the_isotropy_term():
    flag = build_space("flag")
    assert nomizu_ricci(flag, sign=-1) == linalg.identity(6)
    assert nomizu_ricci(flag, isotropy_term=False) != nomizu_ricci(flag)


def test_einstein_constant_raises_when_m_is_not_orthonormal():
    # e1 doubled: g(e1, e1) = 4, and the Ricci tensor is no multiple of g
    flag = build_space("flag")
    mats = list(flag.algebra.basis_matrices)
    mats[2] = linalg.mat_scale(rational(2), mats[2])
    bad = dataclasses.replace(flag, algebra=ad_and_gram(tuple(mats), SCALES["flag"]))
    with pytest.raises(ArithmeticError, match="not a rational multiple of g"):
        bad.einstein_constant


def test_cp3_kahler_unnormalized_coordinates():
    # The stored coefficients (1, 1, -1) against (sqrt2 e_i, f_j) give
    # 2 e12 + 2 e34 - f12 in the unnormalized so(5) basis, since each
    # hat e_i ^ hat e_j wedge carries a factor (sqrt2)^2 = 2.
    space = build_space("cp3")
    kahler = kahler_form(space)
    scale = {(0, 1): rational(2), (2, 3): rational(2), (4, 5): ONE}
    unnormalized = {k: kahler[k] * scale[k] for k in kahler}
    assert unnormalized == {(0, 1): rational(2), (2, 3): rational(2), (4, 5): -ONE}


def test_betti_numbers_and_constants():
    expect = {"s3xs3": (0, 2), "cp3": (1, 0), "flag": (2, 0)}
    for name, betti in expect.items():
        space = build_space(name)
        assert space.betti == betti
        assert space.einstein_constant == 5


def test_derived_dimensions_and_m_minus():
    # dim m is twice dim m^+, dim h is dim g - dim m, and m^- with its
    # weight basis are the conjugates of m^+ with the weights negated
    expect = {"s3xs3": 3, "cp3": 4, "flag": 2}
    for name, h_dim in expect.items():
        space = build_space(name)
        assert (space.h_dim, space.m_dim, space.algebra.dim) == (h_dim, 6, h_dim + 6)
        assert space.m_minus == tuple(tuple(x.conjugate() for x in v) for v in space.m_plus)
        assert space.m_minus_weights == tuple(
            (tuple(x.conjugate() for x in v), tuple(-w for w in wt)) for v, wt in space.m_plus_weights
        )


@pytest.mark.parametrize("name", sorted(SCALES))
def test_m_pm_weight_check_can_say_no(name):
    space = build_space(name)
    (v, wt), *others = space.m_plus_weights
    wrong_wt = (wt[0] + 1,) + wt[1:]
    wrong = dataclasses.replace(space, m_plus_weights=((v, wrong_wt),) + tuple(others))
    # the derived m^- weights follow the wrong one
    assert wrong.m_minus_weights[0][1] == tuple(-w for w in wrong_wt)
    want, got = validate_space(space), validate_space(wrong)
    assert want.pop("m_pm_weight_vectors") is True
    assert got.pop("m_pm_weight_vectors") is False
    assert got == want


def test_psi_minus_flag_coefficients():
    space = build_space("flag")
    assert dict(space.psi_minus) == {
        (1, 2, 5): ONE,
        (0, 3, 5): -ONE,
        (0, 2, 4): -ONE,
        (1, 3, 4): -ONE,
    }


def test_psi_minus_is_the_bracket_three_form():
    # Psi^-(e_a, e_b, e_c) = <[e_a, e_b]_m, e_c>, read off column b of ad(e_a)
    flag = build_space("flag")
    hd, ad = flag.h_dim, flag.algebra.ad
    bracket = {
        (a, b, c): ad[hd + a][hd + c][hd + b]
        for a, b, c in itertools.combinations(range(flag.m_dim), 3)
        if ad[hd + a][hd + c][hd + b]
    }
    assert bracket == dict(flag.psi_minus)
