"""Highest-weight data: weight systems, dimensions, Casimir constants,
explicit representations."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gray_stability import linalg, reps, scalars
from gray_stability.branching import hom_dim, restricted_weights
from gray_stability.exterior import product_action
from gray_stability.forms import lambda11_0
from gray_stability.fourier import hom_basis
from gray_stability.lie import SPACE_NAMES, build_space
from gray_stability.reps import (
    GROUPS,
    MAX_PRODUCT_DIM,
    UnsupportedLabel,
    casimir_bruteforce,
    casimir_constant,
    check_label,
    dim,
    enumerate_labels,
    explicit_rep,
    weight_system,
)
from gray_stability.scalars import I, ONE, SQRT2, ZERO, Scalar, rational
from oracles import (
    BOX,
    TORUS_GRAM,
    J,
    casimir_reference,
    dual_ip,
    enumerate_labels_reference,
    validate_rep,
    weight_system_reference,
    weyl_dim_reference,
    weyl_generators,
)


# Every dominant label up to Casimir 40 on the three spaces, with
# homomorphisms into the primitive (1,1) module or without.
SWEEP = [
    (name, lab)
    for name in SPACE_NAMES
    for lab in enumerate_labels(build_space(name).group, Fraction(40))
]


def test_casimir_k3_closed_form():
    for lab in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 2)]:
        a, b, c = lab
        expected = Fraction(3, 2) * (a * (a + 2) + b * (b + 2) + c * (c + 2))
        assert casimir_constant("k3", lab) == expected


def test_casimir_so5_closed_form():
    for lab in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 1)]:
        a, b = lab
        assert casimir_constant("so5", lab) == 2 * (a * (a + 3) + b * (b + 1))


def test_casimir_su3_values():
    # The adjoint normalization pins Cas(1,1) = 12; the standard module
    # comes out at 16/3 (confirmed by brute force below).
    assert casimir_constant("su3", (0, 0)) == 0
    assert casimir_constant("su3", (1, 1)) == 12
    assert casimir_constant("su3", (1, 0)) == Fraction(16, 3)
    assert casimir_constant("su3", (0, 1)) == Fraction(16, 3)
    assert casimir_constant("su3", (2, 0)) == Fraction(40, 3)


def test_casimir_additive_over_k3_factors():
    for a, b, c in [(1, 2, 0), (2, 2, 2), (0, 1, 2)]:
        parts = (
            casimir_constant("k3", (a, 0, 0))
            + casimir_constant("k3", (0, b, 0))
            + casimir_constant("k3", (0, 0, c))
        )
        assert casimir_constant("k3", (a, b, c)) == parts


def test_dimensions():
    assert dim("k3", (1, 1, 0)) == 4
    assert dim("k3", (2, 1, 1)) == 12
    assert dim("so5", (1, 0)) == 5
    assert dim("so5", (1, 1)) == 10
    assert dim("so5", (2, 0)) == 14
    assert dim("su3", (1, 0)) == 3
    assert dim("su3", (1, 1)) == 8
    assert dim("su3", (0, 0)) == 1


def test_rank_and_two_delta_are_derived_from_the_roots():
    expect = {"k3": (3, (2, 2, 2)), "so5": (2, (3, 1)), "su3": (2, (2, 2))}
    assert {name: (g.rank, g.two_delta) for name, g in GROUPS.items()} == expect


def test_dual_gram_is_the_least_integral_multiple_of_the_inverse_gram():
    for group, g in GROUPS.items():
        gram, d = TORUS_GRAM[group], g.denominator
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*gram)] for row in g.dual_gram]
        assert product == [[d * (i == j) for j in range(g.rank)] for i in range(g.rank)], group
        assert all(type(x) is int for row in g.dual_gram for x in row) and type(d) is int, group
        assert math.gcd(d, *(x for row in g.dual_gram for x in row)) == 1, group


def test_a_non_integral_coroot_raises_on_first_use():
    bad = reps.GroupData(
        "bad", dual_gram=((1, 0), (0, 1)), denominator=1,
        simple_roots=((1, 0), (2, 1)), positive_roots=((1, 0), (2, 1)),
    )
    assert bad.rank == 2  # making the record checks nothing
    with pytest.raises(ArithmeticError, match=r"coroot of \(2, 1\) is not integral"):
        bad.coroots


def test_coroots_do_not_depend_on_the_order_of_the_positive_roots(monkeypatch):
    su3 = GROUPS["su3"]
    weights = weight_system("su3", (1, 1))
    last = dataclasses.replace(su3, positive_roots=((1, 1), (-1, 2), (2, -1)))
    assert last.coroots == su3.coroots == ((1, 0), (0, 1))
    monkeypatch.setitem(GROUPS, "su3", last)
    assert weight_system("su3", (1, 1)) == weights


def test_importing_reps_does_no_scalar_arithmetic():
    script = (
        "from gray_stability import scalars\n"
        "before = len(scalars._MONOMIALS)\n"
        "from gray_stability import reps\n"
        "print(before, len(scalars._MONOMIALS))\n"
    )
    src = str(Path(scalars.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    before, after = map(int, out.stdout.split())
    assert after == before


def test_integer_dim_and_casimir_match_fraction_references():
    for group in GROUPS:
        for label in enumerate_labels(group, 200):
            assert dim(group, label) == weyl_dim_reference(group, label), (group, label)
            assert casimir_constant(group, label) == casimir_reference(group, label), (group, label)


def test_weight_system_totals_match_dimension():
    for group in GROUPS:
        for lab in enumerate_labels(group, Fraction(40)):
            ws = weight_system(group, lab)
            assert sum(ws.values()) == dim(group, lab), (group, lab)


def test_weight_system_weyl_invariance():
    for group in GROUPS:
        for lab in enumerate_labels(group, Fraction(40)):
            ws = weight_system(group, lab)
            for gen in weyl_generators(group):
                assert {gen(w): m for w, m in ws.items()} == ws, (group, lab)


def _within_by_solve(diff, g):
    """Reference cone test: solve S n = diff exactly and require n to be
    a non-negative integer vector."""
    mat = [
        [Scalar.from_fraction(g.simple_roots[k][i]) for k in range(g.rank)]
        for i in range(g.rank)
    ]
    sol = linalg.solve(mat, [(Scalar.from_fraction(x),) for x in diff])
    if sol is None or not all(x.is_rational() for (x,) in sol):
        return False
    return all(x.rational().denominator == 1 and x.rational() >= 0 for (x,) in sol)


def _weyl_orbit(group, weight):
    orbit, frontier = {weight}, [weight]
    while frontier:
        new = {gen(w) for w in frontier for gen in weyl_generators(group)} - orbit
        orbit |= new
        frontier = list(new)
    return orbit


def test_weight_system_matches_the_box_wide_recursion():
    for group, top in [("k3", 40), ("so5", 200), ("su3", 200)]:
        for lab in enumerate_labels(group, Fraction(top)):
            assert weight_system(group, lab) == weight_system_reference(group, lab), (group, lab)


def test_root_strings_above_a_weight_are_unbroken():
    # weight_system runs Freudenthal on the dominant weights and ends the
    # string mu + k alpha at its first k without an entry; the reference runs
    # it on every point of the box in oracles.BOX.  Both are exact if every
    # dominant point of the box is a weight, and if for every weight mu and
    # positive root alpha the k >= 1 with mu + k alpha a weight are
    # 1, ..., q.  A weight lies in the simple-root cone below the label,
    # and a string that leaves the cone does not come back: alpha itself is
    # in the cone, so the simple-root coordinates of label - mu - k alpha fall.
    for group in GROUPS:
        g = GROUPS[group]
        assert all(_within_by_solve(alpha, g) for alpha in g.positive_roots)
        in_cone = {}

        def within(diff):
            if diff not in in_cone:
                in_cone[diff] = _within_by_solve(diff, g)
            return in_cone[diff]

        lengths = set()
        for hw in enumerate_labels(group, Fraction(40)):
            bounds = [sum(b * h for b, h in zip(row, hw)) for row in BOX[group]]

            def corner(ns):
                return tuple(
                    hw[i] - sum(n * g.simple_roots[k][i] for k, n in enumerate(ns))
                    for i in range(g.rank)
                )

            box = {corner(ns) for ns in itertools.product(*(range(b + 1) for b in bounds))}
            # the box reaches down to the lowest weight, the bottom of the Weyl orbit
            orbit = _weyl_orbit(group, hw)
            assert orbit <= box and corner(bounds) in orbit, (group, hw)
            ws = weight_system_reference(group, hw)
            dominant = {
                lam for lam in box if all(dual_ip(group, lam, a) >= 0 for a in g.simple_roots)
            }
            assert dominant <= set(ws) <= box, (group, hw)
            for lam in ws:
                assert within(tuple(h - x for h, x in zip(hw, lam))), (group, hw, lam)
                for alpha in g.positive_roots:
                    ks, k, mu = [], 1, tuple(x + a for x, a in zip(lam, alpha))
                    while within(tuple(h - x for h, x in zip(hw, mu))):
                        if mu in ws:
                            ks.append(k)
                        k, mu = k + 1, tuple(x + a for x, a in zip(mu, alpha))
                    assert ks == list(range(1, len(ks) + 1)), (group, hw, lam, alpha, ks)
                    lengths.add(len(ks))
        assert any(in_cone.values()) and not all(in_cone.values())
        assert 0 in lengths and max(lengths) > 1, (group, lengths)


def test_a_non_integral_or_negative_multiplicity_raises(monkeypatch):
    norm4 = reps._norm4
    monkeypatch.setattr(reps, "_norm4", lambda group, lam: 3 * norm4(group, lam))
    with pytest.raises(ArithmeticError, match="multiplicity"):
        weight_system("so5", (1, 0))  # 1/3 at the zero weight
    monkeypatch.setattr(reps, "_norm4", norm4)
    negated = tuple((alpha, tuple(-x for x in d)) for alpha, d in GROUPS["su3"].root_duals)
    monkeypatch.setitem(GROUPS["su3"].__dict__, "root_duals", negated)
    with pytest.raises(ArithmeticError, match="multiplicity"):
        weight_system("su3", (1, 1))


def test_su3_adjoint_weights_against_tensor_oracle():
    # Brute force: weights of (std) x (conj std) minus one zero weight.
    std = [(1, 0), (-1, 1), (0, -1)]
    products = {}
    for a in std:
        for b in std:
            w = (a[0] - b[0], a[1] - b[1])
            products[w] = products.get(w, 0) + 1
    products[(0, 0)] -= 1
    assert weight_system("su3", (1, 1)) == {w: m for w, m in products.items() if m}


def test_so5_standard_weights():
    assert weight_system("so5", (1, 0)) == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (0, 0): 1,
    }


def test_trivial_weight_system():
    for group, lab in [("k3", (0, 0, 0)), ("so5", (0, 0)), ("su3", (0, 0))]:
        assert weight_system(group, lab) == {tuple([0] * len(lab)): 1}


def test_label_validation():
    with pytest.raises(ValueError):
        casimir_constant("so5", (1, 2))
    with pytest.raises(ValueError):
        casimir_constant("k3", (1, -1, 0))
    with pytest.raises(ValueError):
        casimir_constant("e8", (1,))


def test_check_label_is_the_dominance_test():
    assert check_label("so5", [2, 1]) == (2, 1)
    assert check_label("su3", (0, 3)) == (0, 3)
    assert check_label("k3", (0, 1, 2)) == (0, 1, 2)
    for group, label in [
        ("k3", (1, 0)),  # wrong rank
        ("su3", (1, 0, 0)),  # wrong rank
        ("so5", (1, 2)),  # not dominant: a < b
        ("k3", (1, -1, 0)),  # negative entry
        ("su3", (-1, 2)),  # negative entry
    ]:
        with pytest.raises(ValueError, match="dominant"):
            check_label(group, label)
    with pytest.raises(ValueError, match="unknown group"):
        check_label("e8", (1,))


def test_enumerate_labels_below_threshold():
    assert list(enumerate_labels("so5", Fraction(12))) == [(0, 0), (1, 0), (1, 1)]
    assert list(enumerate_labels("su3", Fraction(12))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    k3 = enumerate_labels("k3", Fraction(12))
    assert (1, 1, 0) in k3 and (2, 0, 0) in k3 and (1, 1, 1) not in k3
    assert all(casimir_constant("k3", lab) == cas <= 12 for lab, cas in k3.items())


def test_enumerate_labels_equals_a_brute_force_sort():
    # every coordinate of a label up to Casimir 200 is at most 10, inside range(12)
    for group, g in GROUPS.items():
        brute = sorted(
            (casimir_constant(group, lab), lab)
            for lab in itertools.product(range(12), repeat=g.rank)
            if all(dual_ip(group, lab, a) >= 0 for a in g.simple_roots)
        )
        for top in (Fraction(0), Fraction(12), Fraction(81, 2), Fraction(200)):
            below = [(lab, cas) for cas, lab in brute if cas <= top]
            assert list(enumerate_labels(group, top).items()) == below, (group, top)
        assert max(max(lab) for lab, _ in below) <= 10, group


def test_integer_cutoff_equals_the_fraction_reference():
    # labels, order and Casimir constants, at fixed cutoffs, at every
    # Casimir value up to 40 (a label sits exactly on the cutoff) and just
    # below each
    fixed = {Fraction(0), Fraction(3, 4), Fraction(25, 4), Fraction(12), Fraction(40), Fraction(200)}
    for group in GROUPS:
        exact = {cas for _, cas in enumerate_labels_reference(group, Fraction(40))}
        assert len(exact) >= 8, group
        below = {c - Fraction(1, 1000) for c in exact if c}
        for top in sorted(fixed | exact | below):
            found = list(enumerate_labels(group, top).items())
            assert found == enumerate_labels_reference(group, top), (group, top)


def test_explicit_rep_matches_reference_matrices():
    space = build_space("s3xs3")
    rep = explicit_rep(space, (1, 1, 0))
    inv_s2 = SQRT2.inverse()
    c = I * inv_s2

    def rho_plus(a):
        g = [ZERO] * 9
        g[3 + 2 * a] = inv_s2
        g[3 + 2 * a + 1] = I * inv_s2
        return linalg.lin_comb(g, rep)

    def rho_minus(a):
        g = [ZERO] * 9
        g[3 + 2 * a] = inv_s2
        g[3 + 2 * a + 1] = -(I * inv_s2)
        return linalg.lin_comb(g, rep)

    x1 = (
        (ZERO, c * J, c, ZERO),
        (c * J, ZERO, ZERO, c),
        (c, ZERO, ZERO, c * J),
        (ZERO, c, c * J, ZERO),
    )
    r = inv_s2
    x2 = (
        (ZERO, -(r * J), -r, ZERO),
        (r * J, ZERO, ZERO, -r),
        (r, ZERO, ZERO, -(r * J)),
        (ZERO, r, r * J, ZERO),
    )
    x3 = (
        (c * (ONE + J), ZERO, ZERO, ZERO),
        (ZERO, c * (ONE - J), ZERO, ZERO),
        (ZERO, ZERO, c * (J - ONE), ZERO),
        (ZERO, ZERO, ZERO, -(c * (ONE + J))),
    )
    assert rho_plus(0) == x1
    assert rho_plus(1) == x2
    assert rho_plus(2) == x3

    # The conjugate basis vectors act by replacing j with j^2 throughout.
    jj = J * J

    def swap_j(m):
        return tuple(tuple(_rewrite_j(x, jj) for x in row) for row in m)

    for a, plus in enumerate((x1, x2, x3)):
        assert rho_minus(a) == swap_j(plus)


def _rewrite_j(x, jj):
    # Decompose x = p + q*j with p, q in Q(i, sqrt2); since
    # j = (-1 + i sqrt3)/2, the sqrt3-part of x determines q exactly.
    from oracles import SQRT3

    q = (x - x.galois(flip_sqrt3=True)) * (I * SQRT3).inverse()
    p = x - q * J
    assert p.galois(flip_sqrt3=True) == p and q.galois(flip_sqrt3=True) == q
    return p + q * jj


def test_all_supported_reps_are_homomorphisms():
    for name, lab in SWEEP:
        space = build_space(name)
        rep = explicit_rep(space, lab)
        assert validate_rep(space, rep), (name, lab)


def test_bruteforce_casimir_matches_freudenthal():
    for name, lab in SWEEP:
        space = build_space(name)
        rep = explicit_rep(space, lab)
        assert casimir_bruteforce(space, rep) == casimir_constant(space.group, lab), (
            name,
            lab,
        )


def test_casimir_bruteforce_rejects_a_reducible_module():
    # C^3 (x) C^3* of su(3) is 8 + 1: the Casimir operator takes 12 and 0
    # on it, and the trivial module alone reads 0
    flag = build_space("flag")
    std = flag.algebra.basis_matrices
    dual = tuple(linalg.transpose([-x for x in row] for row in m) for m in std)
    rep = tuple(linalg.from_entries(9, e) for e in product_action([(std, 1), (dual, 1)]))
    with pytest.raises(ArithmeticError, match="Casimir operator on a module of flag is not scalar"):
        casimir_bruteforce(flag, rep)
    assert casimir_bruteforce(flag, explicit_rep(flag, (0, 0))) == 0


def test_explicit_rep_has_the_weyl_dimension():
    assert len(SWEEP) == 77
    for name, lab in SWEEP:
        space = build_space(name)
        rep = explicit_rep(space, lab)
        n = dim(space.group, lab)
        assert len(rep) == space.algebra.dim, (name, lab)
        assert all(len(m) == n and all(len(row) == n for row in m) for m in rep), (name, lab)


def test_torus_weights_are_the_restricted_weights():
    # the multiplicity of each restricted weight w is the dimension of the
    # exact joint kernel of rho(t_k) - i w_k over the isotropy torus, and
    # these kernels fill the module
    for name, lab in SWEEP:
        space = build_space(name)
        rep = explicit_rep(space, lab)
        n = len(rep[0])
        torus = [linalg.lin_comb(t, rep) for t in space.h_weight_torus]
        weights = restricted_weights(space, lab)
        for w, mult in weights.items():
            rows = []
            for t, wk in zip(torus, w):
                for i, row in enumerate(t):
                    d = {j: x for j, x in enumerate(row) if x}
                    linalg.add_into(d, i, -(I * rational(wk)))
                    rows.append(d)
            assert len(linalg.nullspace(rows, n)) == mult, (name, lab, w)
        assert sum(weights.values()) == n, (name, lab)


def test_hom_basis_has_hom_dim_elements():
    with_homs = 0
    for name, lab in SWEEP:
        space = build_space(name)
        expected = hom_dim(space, lab, lambda11_0(name).decomposition)
        assert len(hom_basis(space, lab)) == expected, (name, lab)
        with_homs += expected > 0
    assert with_homs == 41


def test_unsupported_labels_rejected():
    # the bound is on the dimension of the product module: past it a label
    # raises, naming both; a product of exactly the bound builds; labels
    # that had no hand-written module build now
    for name, lab, n in [("s3xs3", (4, 5, 5), 180), ("cp3", (3, 2), 275), ("flag", (2, 5), 360)]:
        with pytest.raises(UnsupportedLabel, match=f"dimension {n}, above the bound {MAX_PRODUCT_DIM}"):
            explicit_rep(build_space(name), lab)
    assert len(explicit_rep(build_space("s3xs3"), (2, 9, 4))[0]) == MAX_PRODUCT_DIM
    for name, lab in [("s3xs3", (3, 0, 0)), ("cp3", (2, 0)), ("flag", (2, 1))]:
        space = build_space(name)
        assert len(explicit_rep(space, lab)[0]) == dim(space.group, lab)


def test_top_component_dimension_is_checked(monkeypatch):
    # with a wrong Casimir constant the kernel of C - Cas on Sym^2 C^5
    # (the module 14 + the trivial 1) is empty, and the build refuses
    monkeypatch.setattr(reps, "casimir_constant", lambda group, label: Fraction(1))
    reps._explicit_rep.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="top component of dimension 0, not 14"):
            explicit_rep(build_space("cp3"), (2, 0))
    finally:
        reps._explicit_rep.cache_clear()
