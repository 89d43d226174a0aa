"""Fourier coefficient spaces and the prototypical codifferential."""

import itertools
from fractions import Fraction

from gray_stability import linalg, reps
from gray_stability.exterior import wedge2
from gray_stability.forms import lambda11_0
from gray_stability.fourier import (
    coclosed_dim,
    delta_kernel,
    hom_basis,
    m_complex_coords,
    proto_delta,
)
from gray_stability.lie import SPACE_NAMES, build_space
from gray_stability.reps import casimir_constant, dim, enumerate_labels, explicit_rep
from gray_stability.scalars import I, ONE, SQRT2, ZERO, rational
from gray_stability.stability import CASIMIR_THRESHOLD
from oracles import (
    J,
    check_equivariance,
    coclosed_basis,
    coords_of,
    count_inverses,
    cp3_contraction_ratio,
    dense_hom_basis,
    eliminate_reference,
    flag_invariant_coefficient,
    form_add,
    form_scale,
    proto_delta_reference,
    realize,
    s3xs3_display_generator,
    to_dense,
    to_sparse,
)


def _proportional(a, b):
    """Whether two matrices agree up to one global nonzero scalar."""
    ratio = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if bool(x) != bool(y):
                return False
            if x:
                r = y * x.inverse()
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
    return ratio is not None and bool(ratio)


def test_hom_basis_cardinalities():
    cases = [
        ("s3xs3", (1, 1, 0), 1),
        ("s3xs3", (1, 0, 1), 1),
        ("s3xs3", (0, 1, 1), 1),
        ("s3xs3", (2, 0, 0), 1),
        ("s3xs3", (0, 0, 0), 0),
        ("cp3", (1, 0), 1),
        ("cp3", (0, 0), 1),
        ("cp3", (1, 1), 2),
        ("flag", (0, 0), 2),
        ("flag", (1, 1), 4),
    ]
    for name, gamma, expected in cases:
        space = build_space(name)
        assert len(hom_basis(space, gamma)) == expected, (name, gamma)


def test_labels_without_homomorphisms_need_no_explicit_module():
    # hom_dim is 0 for these labels, so the Fourier layer builds no module
    reps._explicit_rep.cache_clear()
    for name, gamma in [("s3xs3", (3, 0, 0)), ("flag", (2, 0)), ("flag", (1, 2))]:
        space = build_space(name)
        assert hom_basis(space, gamma) == []
        assert coclosed_dim(space, gamma, hom_basis(space, gamma)) == 0
        assert coclosed_basis(space, gamma) == []
    assert reps._explicit_rep.cache_info().misses == 0


def test_coclosed_dims_above_the_cutoff():
    # every label with Casimir constant in (12, 40]: coclosed dimension 1
    # on s3xs3 (2,2,0), (0,0,4), (1,2,3) and their permutations and on cp3
    # (2,0), (2,2), (3,0), (3,1); 3 on flag (2,2); 0 on every other
    expected = {
        ("s3xs3", perm): 1
        for base in [(2, 2, 0), (0, 0, 4), (1, 2, 3)]
        for perm in itertools.permutations(base)
    }
    expected.update({("cp3", lab): 1 for lab in [(2, 0), (2, 2), (3, 0), (3, 1)]})
    expected["flag", (2, 2)] = 3
    seen = set()
    for name in SPACE_NAMES:
        space = build_space(name)
        for gamma in enumerate_labels(space.group, Fraction(40)):
            if casimir_constant(space.group, gamma) > CASIMIR_THRESHOLD:
                got = coclosed_dim(space, gamma, hom_basis(space, gamma))
                assert got == expected.get((name, gamma), 0), (name, gamma)
                seen.add((name, gamma))
    assert set(expected) <= seen


def test_coclosed_dim_computes_hom_dim_once_per_label(monkeypatch):
    from gray_stability import fourier

    calls = []
    original = fourier.hom_dim

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(fourier, "hom_dim", counted)
    space = build_space("flag")
    assert coclosed_dim(space, (1, 1), hom_basis(space, (1, 1))) == 1
    assert coclosed_dim(space, (2, 0), hom_basis(space, (2, 0))) == 0
    assert calls == [(1, 1), (2, 0)]


def test_hom_basis_matches_dense_elimination():
    # the sparse rows of hom_basis against the dense equivariance matrix
    # reduced by dense_rref; s3xs3 (1,1,2) has 266 nonzero rows of 96
    for name, gamma, dim in [("s3xs3", (1, 1, 2), 3), ("cp3", (1, 1), 2), ("flag", (1, 1), 4)]:
        space = build_space(name)
        basis = hom_basis(space, gamma)
        assert len(basis) == dim, (name, gamma)
        assert basis == [to_sparse(f) for f in dense_hom_basis(space, gamma)], (name, gamma)


def _labels_with_homomorphisms():
    """Every (space, label) up to Casimir 40 with a nonzero hom basis."""
    return [
        (name, gamma)
        for name in SPACE_NAMES
        for gamma in enumerate_labels(build_space(name).group, Fraction(40))
        if hom_basis(build_space(name), gamma)
    ]


def test_presolve_leaves_hom_basis_and_delta_kernel_unchanged(monkeypatch):
    # the elimination with its singleton presolve against the one without
    # it, on every label up to Casimir 40 that has homomorphisms
    cases = _labels_with_homomorphisms()
    assert len(cases) == 41
    got = []
    for name, gamma in cases:
        space = build_space(name)
        basis = hom_basis(space, gamma)
        got.append((basis, delta_kernel(proto_delta(space, gamma, basis))))
    monkeypatch.setattr(linalg, "_eliminate", eliminate_reference)
    for (name, gamma), (basis, kernel) in zip(cases, got):
        space = build_space(name)
        assert hom_basis(space, gamma) == basis, (name, gamma)
        assert delta_kernel(proto_delta(space, gamma, basis)) == kernel, (name, gamma)


def test_flag_invariants_need_no_inverse(monkeypatch):
    # the torus acts diagonally on the eight weight vectors of the
    # primitive (1,1) module of flag, so each equivariance row of the
    # trivial label is a singleton: the presolve clears all of them
    space = build_space("flag")
    explicit_rep(space, (0, 0))
    lambda11_0("flag")
    calls = count_inverses(monkeypatch)
    basis = hom_basis(space, (0, 0))
    assert len(basis) == 2 and calls == []
    monkeypatch.setattr(linalg, "_eliminate", eliminate_reference)
    assert hom_basis(space, (0, 0)) == basis
    assert len(calls) == 6


def test_hom_basis_is_equivariant():
    for name, gamma in [("s3xs3", (1, 1, 0)), ("cp3", (1, 0)), ("flag", (1, 1))]:
        space = build_space(name)
        rep = explicit_rep(space, gamma)
        target = lambda11_0(name)
        for f in hom_basis(space, gamma):
            assert check_equivariance(space, rep, target, to_dense(f, target.dim, len(rep[0])))


def _tensor_generator_oracle():
    """Independent construction of the generator for the four-dimensional
    module on the triple product space: symmetrize, apply the classical
    symplectic identification with the complexified su(2), then the
    bracket isomorphism onto wedge vectors."""
    space = build_space("s3xs3")
    target = lambda11_0("s3xs3")
    x, xb = space.m_plus, space.m_minus
    b1 = form_add(wedge2(x[0], xb[1]), form_scale(-ONE, wedge2(x[1], xb[0])))
    b2 = form_add(wedge2(x[1], xb[2]), form_scale(-ONE, wedge2(x[2], xb[1])))
    b3 = form_add(wedge2(x[2], xb[0]), form_scale(-ONE, wedge2(x[0], xb[2])))
    s2 = SQRT2
    two_s2 = s2 * 2

    def combo(c1, c2, c3):
        out = {}
        for c, b in ((c1 * s2, b2), (c2 * s2, b3), (c3 * s2, b1)):
            if c:
                out = form_add(out, form_scale(c, b))
        return out

    cols = [
        combo(two_s2 * I, two_s2, ZERO),       # z1 (x) z1  ->  -2 E_12
        combo(ZERO, ZERO, -(two_s2 * I)),      # z1 (x) z2  ->  diag(1,-1)
        combo(ZERO, ZERO, -(two_s2 * I)),      # z2 (x) z1
        combo(-(two_s2 * I), two_s2, ZERO),    # z2 (x) z2  ->  2 E_21
    ]
    coords = [coords_of(target, c) for c in cols]
    return linalg.transpose(coords)


def test_s3xs3_generator_matches_independent_oracle():
    space = build_space("s3xs3")
    (mine,) = hom_basis(space, (1, 1, 0))
    oracle = _tensor_generator_oracle()
    rep = explicit_rep(space, (1, 1, 0))
    assert check_equivariance(space, rep, lambda11_0("s3xs3"), oracle)
    assert _proportional(to_dense(mine, 8, 4), oracle)


def test_s3xs3_delta_nonzero_and_coclosed_dims():
    space = build_space("s3xs3")
    (d,) = proto_delta(space, (1, 1, 0), hom_basis(space, (1, 1, 0)))
    assert any(any(row) for row in to_dense(d, 6, 4))
    assert coclosed_dim(space, (1, 1, 0), hom_basis(space, (1, 1, 0))) == 0
    assert coclosed_dim(space, (1, 0, 1), hom_basis(space, (1, 0, 1))) == 0
    assert coclosed_dim(space, (0, 1, 1), hom_basis(space, (0, 1, 1))) == 0
    assert coclosed_dim(space, (2, 0, 0), hom_basis(space, (2, 0, 0))) == 0
    assert coclosed_dim(space, (0, 2, 0), hom_basis(space, (0, 2, 0))) == 0
    assert coclosed_dim(space, (0, 0, 2), hom_basis(space, (0, 0, 2))) == 0


def test_s3xs3_delta_output_is_equivariant():
    space = build_space("s3xs3")
    rep = explicit_rep(space, (1, 1, 0))
    (d,) = proto_delta(space, (1, 1, 0), hom_basis(space, (1, 1, 0)))
    d = to_dense(d, 6, 4)
    # equivariance into the complexified complement: ad(h) after = before
    for t, ad in enumerate(space.m_action[: space.h_dim]):
        lhs = linalg.mat_mul(ad, d)
        rhs = linalg.mat_mul(d, rep[t])
        assert lhs == rhs


def test_cp3_generator_is_z5_eta():
    space = build_space("cp3")
    target = lambda11_0("cp3")
    (f,) = hom_basis(space, (1, 0))
    f = to_dense(f, 8, 5)
    # columns v1..v4 vanish; column v5 spans the invariant line eta
    for v in range(4):
        assert not any(f[w][v] for w in range(8))
    eta = {(0, 1): rational(1, 2), (2, 3): rational(1, 2), (4, 5): ONE}
    col5 = realize(target, [f[w][4] for w in range(8)])
    ratios = {k: col5[k] * eta[k].inverse() for k in eta}
    assert len(set(ratios.values())) == 1 and set(col5) == set(eta)


def test_cp3_delta_matches_contraction_formula():
    space = build_space("cp3")
    (d,) = proto_delta(space, (1, 0), hom_basis(space, (1, 0)))
    d = to_dense(d, 6, 5)
    # delta(F)(v5) = 0
    assert not any(d[w][4] for w in range(6))
    # delta(F)(v_i) = c * (e_i -| eta) for one common scalar c != 0
    assert cp3_contraction_ratio(d)
    assert coclosed_dim(space, (1, 0), hom_basis(space, (1, 0))) == 0
    assert coclosed_dim(space, (0, 0), hom_basis(space, (0, 0))) == 1
    assert coclosed_dim(space, (1, 1), hom_basis(space, (1, 1))) == 0


def test_flag_invariant_coefficient_is_coclosed():
    space = build_space("flag")
    f = flag_invariant_coefficient()
    rep = explicit_rep(space, (1, 1))
    assert check_equivariance(space, rep, lambda11_0("flag"), f)
    (d,) = proto_delta(space, (1, 1), [to_sparse(f)])
    assert linalg.is_zero_matrix(to_dense(d, 6, 8))


def test_flag_coclosed_kernel_is_the_invariant_line():
    space = build_space("flag")
    assert coclosed_dim(space, (1, 1), hom_basis(space, (1, 1))) == 1
    (kernel,) = coclosed_basis(space, (1, 1))
    f = flag_invariant_coefficient()
    assert _proportional(kernel, f)


def test_trivial_label_delta_vanishes():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        trivial = (0, 0, 0) if space.group == "k3" else (0, 0)
        for d in proto_delta(space, trivial, hom_basis(space, trivial)):
            assert linalg.is_zero_matrix(to_dense(d, 6, 1))
        # every invariant is coclosed
        hd = len(hom_basis(space, trivial))
        assert coclosed_dim(space, trivial, hom_basis(space, trivial)) == hd


def test_reference_display_pair_s3xs3():
    """Applying the codifferential to the reference display matrix
    reproduces the reference image rows exactly (unit scalar).  The
    display matrix differs from the equivariant generator by the sign of
    its first column, so only its own delta-rows are comparable."""
    space = build_space("s3xs3")
    images = proto_delta(space, (1, 1, 0), [to_sparse(s3xs3_display_generator())])
    (d,) = m_complex_coords(space, images, 4)
    jj = J * J
    # rows (X3 | conj X3), columns (z1z2, z2z1): entries 1-j^2 and 1-j.
    assert d[2][1] == ONE - jj and d[2][2] == -(ONE - jj)
    assert d[5][1] == ONE - J and d[5][2] == -(ONE - J)
    assert d[2][0] == ZERO and d[2][3] == ZERO
    assert d[5][0] == ZERO and d[5][3] == ZERO


def test_proto_delta_linear_in_f():
    space = build_space("flag")
    f1, f2 = (to_dense(f, 8, 8) for f in hom_basis(space, (1, 1))[:2])
    a, b = SQRT2, I * rational(3) - rational(1, 2)
    combo = linalg.lin_comb((a, b), (f1, f2))
    images = proto_delta(space, (1, 1), [to_sparse(f) for f in (f1, f2, combo)])
    d1, d2, dc = (to_dense(d, 6, 8) for d in images)
    expected = linalg.lin_comb((a, b), (d1, d2))
    assert dc == expected


def test_proto_delta_equals_dense_reference():
    # every hom basis vector of every label in the three coindex tables,
    # and of s3xs3 (2,2,2) (the largest system delta accepts) and (2,2,0)
    # (a nonzero coclosed kernel)
    cases = [
        (name, label)
        for name in ("s3xs3", "cp3", "flag")
        for label in enumerate_labels(build_space(name).group, CASIMIR_THRESHOLD)
    ]
    cases += [("s3xs3", (2, 2, 2)), ("s3xs3", (2, 2, 0))]
    checked = 0
    for name, gamma in cases:
        space = build_space(name)
        basis = hom_basis(space, gamma)
        vd = dim(space.group, gamma)
        for f, d in zip(basis, proto_delta(space, gamma, basis), strict=True):
            want = proto_delta_reference(space, gamma, to_dense(f, 8, vd))
            assert to_dense(d, space.m_dim, vd) == want, (name, gamma)
            checked += 1
    # 16 coefficients in the three tables, then 5 and 2
    assert checked == 16 + 5 + 2


def test_proto_delta_independent_of_orthonormal_basis():
    space = build_space("s3xs3")
    (f,) = hom_basis(space, (1, 1, 0))
    (default,) = proto_delta(space, (1, 1, 0), [f])
    default = to_dense(default, 6, 4)
    # exact rotation by the 3-4-5 triangle in the (u1, w1) plane
    c, s = rational(3, 5), rational(4, 5)
    rotation = ((c, s, ZERO, ZERO, ZERO, ZERO), (-s, c, ZERO, ZERO, ZERO, ZERO))
    basis = rotation + linalg.identity(6)[2:]
    rotated = proto_delta_reference(space, (1, 1, 0), to_dense(f, 8, 4), m_basis=basis)
    assert default == rotated
