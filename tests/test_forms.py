"""The (1,1) isotropy modules and their primitive parts."""

import dataclasses
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from gray_stability import forms, linalg
from gray_stability.branching import decompose_weights, hom_dim
from gray_stability.exterior import alternate, derivation_action, product_action, wedge2
from gray_stability.forms import lambda11_0
from gray_stability.lie import SPACE_NAMES, PremiseError, ReductiveSpace, build_space
from gray_stability.reps import enumerate_labels
from gray_stability.scalars import I, ONE, SQRT2, ZERO, Scalar, rational
from oracles import (
    J_FLIPS,
    SQRT3,
    alternate_reference,
    catalog_mutant,
    coords_of,
    derivation_reference,
    flip_planes,
    form_inner,
    kahler_form,
    lambda11,
    lambda11_0_reference,
    mat_vec,
    trivial_summand_basis,
    wedge2_reference,
)


def test_lambda11_dimensions_and_decompositions():
    assert lambda11("s3xs3").decomposition == {
        ("V", 4): 1,
        ("V", 2): 1,
        ("V", 0): 1,
    }
    assert lambda11("cp3").decomposition == {
        ("E", 2, 0): 1,
        ("E", 1, 3): 1,
        ("E", 1, -3): 1,
        ("E", 0, 0): 2,
    }
    flag = lambda11("flag").decomposition
    assert flag[("chi", 0, 0)] == 3
    for rep in ("s3xs3", "cp3", "flag"):
        assert lambda11(rep).dim == 9


def test_lambda11_0_decompositions():
    assert lambda11_0("s3xs3").decomposition == {("V", 4): 1, ("V", 2): 1}
    assert lambda11_0("cp3").decomposition == {
        ("E", 2, 0): 1,
        ("E", 1, 3): 1,
        ("E", 1, -3): 1,
        ("E", 0, 0): 1,
    }
    flag = lambda11_0("flag").decomposition
    assert flag[("chi", 0, 0)] == 2
    for rep in ("s3xs3", "cp3", "flag"):
        assert lambda11_0(rep).dim == 8


def _zero_w1(space):
    (v, wt), *others = space.m_plus_weights
    return dataclasses.replace(space, m_plus_weights=((tuple(ZERO for _ in v), wt), *others))


def _tilt_w1(space):
    # w1 + conj(w2) in place of w1: g pairs it with w2, inside m^+
    (v1, wt1), (v2, wt2), w3 = space.m_plus_weights
    tilted = tuple(a + b.conjugate() for a, b in zip(v1, v2))
    return dataclasses.replace(space, m_plus_weights=((tilted, wt1), (v2, wt2), w3))


@pytest.mark.parametrize("mutate", [_zero_w1, _tilt_w1], ids=["zero_w1", "tilted_w1"])
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_weight_bases_that_g_does_not_pair_are_a_failed_premise(name, mutate):
    # a PremiseError, which validate reports as failed lambda11_0 keys and
    # every other command as an internal error with exit 1
    with catalog_mutant(name, mutate):
        with pytest.raises(PremiseError, match=re.escape(f"{name}: the weight bases of m^+ and m^- do not pair")):
            lambda11_0(name)


@pytest.mark.parametrize("name", ["s3xs3", "cp3", "flag"])
def test_isotropy_action_mixing_m_plus_and_m_minus_is_an_internal_error(monkeypatch, name):
    # adding the projection onto the second m-coordinate, which is not
    # complex linear, sends part of m^+ into m^-
    original = ReductiveSpace.m_action.func

    def mixed(self):
        projection = linalg.from_entries(self.m_dim, {(1, 1): ONE})
        return tuple(linalg.lin_comb((ONE, ONE), (ad, projection)) for ad in original(self))

    monkeypatch.setattr(ReductiveSpace, "m_action", property(mixed))
    with pytest.raises(PremiseError, match=f"{name}: the isotropy action mixes m"):
        forms.lambda11_0.__wrapped__(name)


def _brackets_m(space, left, right) -> list:
    """[x, y]_m in m-coordinates for x in left and y in right, read off m_action."""
    torsion = space.m_action[space.h_dim :]
    return [mat_vec(linalg.lin_comb(x, torsion), y) for x in left for y in right]


# the flips whose J the isotropy keeps: the integrable invariant complex structures
H_INVARIANT_FLIPS = {"s3xs3": [], "cp3": [(2,), (0, 1)], "flag": J_FLIPS}


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_j_is_nearly_kaehler_and_no_flip_of_it_is(name):
    # for the normal metric (nabla_X J)X = [X, JX]_m / 2, so J is nearly
    # Kaehler exactly when [m^+, m^-]_m = 0
    space = build_space(name)
    assert not any(map(any, _brackets_m(space, space.m_plus, space.m_minus)))
    # strict, of Gray's 3-symmetric type: [m^+, m^+]_m is nonzero and lies in m^-
    plus_plus = _brackets_m(space, space.m_plus, space.m_plus)
    assert any(map(any, plus_plus))
    assert not any(any(mat_vec(space.eigenframe_inverse, v)[:3]) for v in plus_plus)
    for planes in J_FLIPS:
        flipped = flip_planes(space, planes)
        assert any(map(any, _brackets_m(flipped, flipped.m_plus, flipped.m_minus))), planes
        # the guard raises on each flip that the isotropy blocks let through
        nearly_kaehler = planes in H_INVARIANT_FLIPS[name]
        premise = "J is not nearly Kaehler: [m^+, m^-] leaves h" if nearly_kaehler else "the isotropy action mixes"
        with catalog_mutant(name, lambda s, planes=planes: flip_planes(s, planes)):
            with pytest.raises(PremiseError, match=re.escape(f"{name}: {premise}")):
                lambda11_0(name)


@pytest.mark.parametrize("name", ["s3xs3", "cp3", "flag"])
def test_lambda11_0_equals_the_elimination_reference(name):
    rep, ref = lambda11_0(name), lambda11_0_reference(name)
    assert rep.vectors == ref.vectors
    assert rep.weights == ref.weights
    assert rep.h_matrices == ref.h_matrices
    assert rep.decomposition == ref.decomposition


@pytest.mark.parametrize("name", ["s3xs3", "cp3", "flag"])
def test_kronecker_sums_are_the_full_module_matrices(name):
    # the product module m^+ (x) m^- of the isotropy blocks, basis vector
    # 3i + j for p_i (x) q_j, is lambda11's basis p_i ^ q_j in the same order
    space = build_space(name)
    cols = [v for v, _ in space.m_plus_weights + space.m_minus_weights]
    _, plus, minus = space.isotropy_blocks(cols, "the weight bases of m^+ and m^-")
    sums = product_action([(plus, 1), (minus, 1)])
    assert sums == [linalg.nonzeros(m) for m in lambda11(name).h_matrices]


@pytest.mark.parametrize(
    "name, homs, nonzero",
    [
        ("s3xs3", {(0, 0, 0): 2}, 23),
        ("cp3", {(0, 0): 1}, 7),
        ("flag", {(0, 0): 2, (1, 1): 10}, 5),
    ],
)
def test_traceless_symmetric_square_from_the_product_module(name, homs, nonzero):
    # S^2_0 m: Sym^2 m from the same routine as Lambda^{1,1}_0 m and the
    # explicit modules, restricted to the kernel of the trace, which the
    # isotropy action preserves as it preserves the metric
    space = build_space(name)
    hd = space.h_dim
    sym2 = product_action([(space.m_action[:hd], 2)])
    monomials = list(itertools.combinations_with_replacement(range(space.m_dim), 2))
    trace = {monomials.index((a, a)): ONE for a in range(space.m_dim)}
    rho = linalg.restrict_to_span(sym2, linalg.nullspace([trace], len(monomials)))
    assert len(rho) == hd and all(len(m) == 20 for m in rho)
    # a representation of h: [rho(X_s), rho(X_t)] = rho([X_s, X_t])
    ad = space.algebra.ad
    for s, t in itertools.product(range(hd), repeat=2):
        bracket = linalg.lin_comb([ad[s][u][t] for u in range(hd)], rho)
        commutator = linalg.mat_mul(rho[s], rho[t])
        commutator = linalg.lin_comb((ONE, -ONE), (commutator, linalg.mat_mul(rho[t], rho[s])))
        assert commutator == bracket, (name, s, t)
    # its isotropy weights: the pairwise sums of the weights of m^C, less one zero weight
    weights = [wt for _, wt in space.m_plus_weights + space.m_minus_weights]
    sums = Counter(tuple(map(sum, zip(u, v))) for u, v in itertools.combinations_with_replacement(weights, 2))
    sums[tuple(0 for _ in space.h_weight_torus)] -= 1
    decomposition = decompose_weights(space.h_type, sums)
    assert sum(m * (1 if lab[0] == "chi" else lab[1] + 1) for lab, m in decomposition.items()) == 20
    # the labels that reach S^2_0 m up to Casimir 36
    labels = enumerate_labels(space.group, Fraction(36))
    reached = {lab: h for lab in labels if (h := hom_dim(space, lab, decomposition))}
    assert len(reached) == nonzero
    assert {lab: reached[lab] for lab in homs} == homs


def test_lambda11_0_eliminates_nothing(monkeypatch):
    # the metric pairs the weight frame with itself, so its inverse is a
    # transpose and the Kaehler row is the pairing: no solve at all
    names = ("s3xs3", "cp3", "flag")
    for name in names:
        build_space(name)
    shapes = []
    original = linalg.rref

    def counted(a):
        shapes.append((len(a), len(a[0])))
        return original(a)

    monkeypatch.setattr(linalg, "rref", counted)
    for name in names:
        forms.lambda11_0.__wrapped__(name)
    assert shapes == []


def test_lambda11_0_is_orthogonal_to_kahler():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        kahler = kahler_form(space)
        for vec in lambda11_0(name).vectors:
            assert form_inner(vec, kahler) == ZERO


def test_flag_invariant_lines():
    # The zero-weight block of the full (1,1) module is spanned by the
    # three coordinate 2-planes e12, e34, e56.
    rep = lambda11("flag")
    zero_vectors = [v for v, w in zip(rep.vectors, rep.weights) if w == (0, 0)]
    assert len(zero_vectors) == 3
    span_keys = {k for v in zero_vectors for k in v}
    assert span_keys == {(0, 1), (2, 3), (4, 5)}


def test_cp3_f12_line_is_invariant():
    # f1 ^ f2 spans a trivial U(2)-subspace of the full (1,1) module.
    rep = lambda11("cp3")
    f12 = {(4, 5): ONE}
    coords = coords_of(rep, f12)
    for m in rep.h_matrices:
        image = [sum((m[w][b] * coords[b] for b in range(9)), ZERO) for w in range(9)]
        assert not any(image)


def test_batched_action_matrices_equal_per_form_coordinates():
    # one elimination per isotropy generator gives what one elimination
    # per image does
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        for rep in (lambda11_0(name), lambda11(name)):
            assert len(rep.h_matrices) == space.h_dim
            for ad, mat in zip(space.m_action[: space.h_dim], rep.h_matrices):
                cols = [coords_of(rep, alternate(derivation_action(ad, v))) for v in rep.vectors]
                assert mat == linalg.transpose(cols), name


def test_coords_of_rejects_2_vectors_outside_the_span():
    rep = lambda11_0("flag")
    # a key that no basis vector uses
    with pytest.raises(ValueError, match="outside the module span"):
        coords_of(rep, {(0, 6): ONE})
    # the Kaehler 2-vector is orthogonal to the primitive part
    with pytest.raises(ValueError, match="outside the module span"):
        coords_of(rep, kahler_form(build_space("flag")))


def test_trivial_summands():
    assert trivial_summand_basis("s3xs3") == []

    (eta,) = trivial_summand_basis("cp3")
    # eta is proportional to e12 + e34 + f12, i.e. (1/2, 1/2, 1) in the
    # orthonormal coordinates; leading-coefficient normalization gives
    # (1, 1, 2).
    assert eta == {(0, 1): ONE, (2, 3): ONE, (4, 5): rational(2)}

    flag_basis = trivial_summand_basis("flag")
    assert len(flag_basis) == 2
    kahler = kahler_form(build_space("flag"))
    for v in flag_basis:
        assert set(v) <= {(0, 1), (2, 3), (4, 5)}
        assert form_inner(v, kahler) == ZERO


def test_alternated_derivation_matches_reference():
    # the ordered-tensor derivation, alternated, against the k-vector
    # derivation that sorts each key as it is made
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        forms = list(lambda11(name).vectors) + [kahler_form(space), dict(space.psi_minus or ())]
        for ad in space.m_action[: space.h_dim]:
            for f in forms:
                assert alternate(derivation_action(ad, f)) == derivation_reference(ad, f)


def test_basis_vectors_are_weight_vectors():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        rep = lambda11_0(name)
        for t_idx, torus in enumerate(space.h_weight_torus):
            # action of the torus element in the module basis
            mat = linalg.lin_comb(torus, rep.h_matrices)
            weights = [I * rational(w[t_idx]) for w in rep.weights]
            assert mat == linalg.diag(*weights)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_alternate_matches_the_permutation_sign_reference(k):
    # every ordered key of length k over indices 0..5, one at a time and
    # all together with coefficients that differ per key
    c = SQRT2 + I * rational(1, 3)
    tensor = {}
    for n, key in enumerate(itertools.product(range(6), repeat=k)):
        single = alternate({key: c})
        assert single == alternate_reference({key: c}), key
        if len(set(key)) < k:
            assert single == {}, key
        tensor[key] = c * rational(n + 1) + SQRT3
    assert alternate(tensor) == alternate_reference(tensor)


def _random_vector(rng):
    out = [ZERO] * 6
    for a in rng.sample(range(6), rng.randint(1, 6)):
        out[a] = Scalar(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)))
    return out


def test_wedge2_matches_the_double_loop_reference():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        vectors = [p for p, _ in space.m_plus_weights] + [q for q, _ in space.m_minus_weights]
        for u, v in itertools.product(vectors, repeat=2):
            assert wedge2(u, v) == wedge2_reference(u, v)
    rng = random.Random(20)
    for _ in range(200):
        u, v = _random_vector(rng), _random_vector(rng)
        assert wedge2(u, v) == wedge2_reference(u, v)
        assert wedge2(u, u) == {}
