"""Branching of symmetry-group irreps to the isotropy subgroup."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gray_stability import branching, forms
from gray_stability.branching import (
    KINDS,
    BranchingError,
    decompose_weights,
    format_h_label,
    hom_dim,
    restrict,
    restricted_weights,
)
from gray_stability.forms import lambda11_0
from gray_stability.lie import SPACE_NAMES, build_space, group_record
from gray_stability.reps import dim, enumerate_labels
from oracles import decompose_weights_reference, decomposition_dim, h_irrep_dim, h_irrep_weights


def test_branching_table_s3xs3():
    space = build_space("s3xs3")
    assert restrict(space, (0, 0, 0)) == {("V", 0): 1}
    assert restrict(space, (1, 0, 0)) == {("V", 1): 1}
    assert restrict(space, (1, 1, 0)) == {("V", 2): 1, ("V", 0): 1}
    assert restrict(space, (1, 0, 1)) == {("V", 2): 1, ("V", 0): 1}
    assert restrict(space, (1, 1, 1)) == {("V", 3): 1, ("V", 1): 2}
    assert restrict(space, (2, 0, 0)) == {("V", 2): 1}


def test_branching_table_cp3():
    space = build_space("cp3")
    assert restrict(space, (0, 0)) == {("E", 0, 0): 1}
    assert restrict(space, (1, 0)) == {
        ("E", 1, 1): 1,
        ("E", 1, -1): 1,
        ("E", 0, 0): 1,
    }
    assert restrict(space, (1, 1)) == {
        ("E", 2, 0): 1,
        ("E", 1, 1): 1,
        ("E", 1, -1): 1,
        ("E", 0, 2): 1,
        ("E", 0, 0): 1,
        ("E", 0, -2): 1,
    }
    assert restrict(space, (2, 0)) == {
        ("E", 2, 2): 1,
        ("E", 2, 0): 1,
        ("E", 2, -2): 1,
        ("E", 1, 1): 1,
        ("E", 1, -1): 1,
        ("E", 0, 0): 1,
    }


def test_branching_flag_torus():
    space = build_space("flag")
    assert restrict(space, (1, 0)) == {
        ("chi", 1, 0): 1,
        ("chi", 0, 1): 1,
        ("chi", -1, -1): 1,
    }
    adj = restrict(space, (1, 1))
    assert adj[("chi", 0, 0)] == 2
    assert sum(adj.values()) == 8


def test_dimension_conservation_all_catalog_branchings():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        for label in enumerate_labels(space.group, Fraction(20)):
            dec = restrict(space, label)
            assert decomposition_dim(space.h_type, dec) == dim(space.group, label), (
                name,
                label,
            )


def test_clebsch_gordan_two_factor_products():
    # V_a (x) V_b restricted to the diagonal is the usual ladder.
    space = build_space("s3xs3")
    for a, b in [(1, 1), (2, 1), (2, 2)]:
        dec = restrict(space, (a, b, 0))
        expected = {("V", a + b - 2 * k): 1 for k in range(min(a, b) + 1)}
        assert dec == expected


def test_adjoint_restriction_contains_isotropy_adjoint():
    s3 = build_space("s3xs3")
    assert restrict(s3, (2, 0, 0)).get(("V", 2), 0) >= 1
    cp3 = build_space("cp3")
    adj = restrict(cp3, (1, 1))
    assert adj.get(("E", 2, 0), 0) >= 1 and adj.get(("E", 0, 0), 0) >= 1
    fl = build_space("flag")
    assert restrict(fl, (1, 1)).get(("chi", 0, 0), 0) >= 2


def test_greedy_rejects_non_character_multisets():
    with pytest.raises(BranchingError):
        decompose_weights("delta_su2", {(1,): 1})  # asymmetric
    with pytest.raises(BranchingError):
        decompose_weights("delta_su2", {(2,): 1, (-2,): 1})  # missing interior
    with pytest.raises(BranchingError):
        decompose_weights("u2", {_u2(0, 1): 1})  # no mirror


def _u2(p: int, q: int) -> tuple:
    """The U(2) weight of the torus weight (p, q): SU(2) weight first."""
    return (p - q, p + q)


def test_u2_label_conventions():
    # E^1_1 is the defining module C^2, E^0_2 the determinant
    assert h_irrep_weights("u2", ("E", 1, 1)) == {_u2(1, 0): 1, _u2(0, 1): 1}
    assert h_irrep_weights("u2", ("E", 0, 2)) == {_u2(1, 1): 1}
    assert h_irrep_dim("u2", ("E", 2, 0)) == 3
    assert format_h_label(("E", 1, -3)) == "E^1_-3"


def test_hom_dim_examples():
    s3 = build_space("s3xs3")
    l0 = lambda11_0("s3xs3")
    assert hom_dim(s3, (1, 1, 0), l0.decomposition) == 1

    fl = build_space("flag")
    l0f = lambda11_0("flag")
    assert hom_dim(fl, (0, 0), l0f.decomposition) == 2
    assert hom_dim(fl, (1, 0), l0f.decomposition) == 0
    assert hom_dim(fl, (1, 1), l0f.decomposition) == 4

    cp3 = build_space("cp3")
    l0c = lambda11_0("cp3")
    assert hom_dim(cp3, (1, 0), l0c.decomposition) == 1
    assert hom_dim(cp3, (1, 1), l0c.decomposition) == 2
    # (2,0) branches onto E^2_0 and E^0_0, both of which occur in the
    # primitive (1,1) module, so the multiplicity is 2 (its Casimir
    # constant 20 keeps it out of every stability count anyway).
    assert hom_dim(cp3, (2, 0), l0c.decomposition) == 2


def test_restricted_weights_zero_maps_to_zero():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        trivial = tuple([0, 0, 0] if space.group == "k3" else [0, 0])
        ws = restricted_weights(space, trivial)
        assert list(ws) == [tuple(0 for _ in space.h_weight_torus)]


def test_one_pass_decomposition_equals_the_repeated_max_reference():
    for name in SPACE_NAMES:
        record = group_record(name)
        for label in enumerate_labels(record.group, Fraction(40)):
            weights = restricted_weights(record, label)
            got = decompose_weights(record.h_type, weights)
            assert got == decompose_weights_reference(record.h_type, weights), (name, label)
        target = lambda11_0(name)
        weights = Counter(target.weights)
        got = decompose_weights(record.h_type, weights)
        assert got == decompose_weights_reference(record.h_type, weights) == target.decomposition, name


def test_every_cp3_weight_reaching_the_decomposition_has_matching_parity(monkeypatch):
    # E^a_b needs a == b mod 2, which decompose_weights takes on trust: no
    # catalog path hands it a u2 weight of mixed parity, neither the
    # restrictions up to Casimir 40 nor the weights of Lambda^{1,1}_0
    seen = []

    def recording(h_type, weights):
        seen.append((h_type, dict(weights)))
        return decompose_weights(h_type, weights)

    monkeypatch.setattr(branching, "decompose_weights", recording)
    monkeypatch.setattr(forms, "decompose_weights", recording)
    record = group_record("cp3")
    labels = enumerate_labels(record.group, Fraction(40))
    for label in labels:
        branching._restrict.__wrapped__("cp3", label)
    forms.lambda11_0.__wrapped__("cp3")
    assert len(seen) == len(labels) + 1 and {h for h, _ in seen} == {"u2"}
    odd = [w for _, weights in seen for w in weights if (w[0] - w[1]) % 2]
    assert odd == []


@pytest.mark.parametrize(
    "h_type, weights, message",
    [
        ("delta_su2", {(1,): 2, (-1,): -1}, "negative input multiplicity"),
        ("delta_su2", {(1,): 1, (-1,): 1, (-2,): 1}, "asymmetric"),  # (2,) is missing
        ("t2", {(1, 0): 1, (0, 1): -1}, "negative input multiplicity"),
        ("u2", {_u2(1, 0): 2, _u2(0, 1): 1}, "asymmetric"),  # the reference: "does not fit"
        ("u2", {(2, 0): 1, (-2, 0): 1}, "broken"),  # no (0, 0) below (2, 0)
    ],
)
def test_decomposition_errors_match_the_reference(h_type, weights, message):
    # the two algorithms meet a non-character at different points, so only
    # the rejection is shared; the message names the check that failed
    with pytest.raises(BranchingError, match=message):
        decompose_weights(h_type, dict(weights))
    with pytest.raises(BranchingError):
        decompose_weights_reference(h_type, dict(weights))


def _both_decompositions(h_type: str, weights: dict):
    """The decomposition of weights if both implementations agree on it,
    None if both raise BranchingError."""
    results = []
    for decompose in (decompose_weights, decompose_weights_reference):
        try:
            results.append(decompose(h_type, dict(weights)))
        except BranchingError:
            results.append(None)
    assert results[0] == results[1], (h_type, weights)
    return results[0]


def _random_h_label(rng: random.Random, h_type: str) -> tuple:
    a = rng.randint(0, 6)
    if h_type == "delta_su2":
        return ("V", a)
    if h_type == "u2":
        return ("E", a, a + 2 * rng.randint(-4, 4))
    return ("chi", rng.randint(-3, 3), rng.randint(-3, 3))


@pytest.mark.parametrize("h_type", sorted(KINDS))
def test_random_sums_of_irreps_and_their_perturbations(h_type):
    # first differences and character subtraction agree on sums of random
    # irreps, and both reject every single-entry perturbation that breaks the
    # SU(2) symmetry: a multiplicity off by one at a nonzero SU(2) weight, a
    # weight's mirror dropped, a negative multiplicity.  Any other one-entry
    # change (at SU(2) weight 0, or on the torus) they decompose alike.
    rng = random.Random(27)
    for _ in range(150):
        irreps = Counter()
        for _ in range(rng.randint(1, 5)):
            irreps[_random_h_label(rng, h_type)] += rng.randint(1, 3)
        weights = Counter()
        for label, m in irreps.items():
            for w in h_irrep_weights(h_type, label):
                weights[w] += m
        assert _both_decompositions(h_type, weights) == irreps
        for w, m in weights.items():
            changed = [{**weights, w: m + 1}, {**weights, w: m - 1}]
            if h_type == "t2" or w[0] == 0:
                for c in changed:
                    _both_decompositions(h_type, c)
                continue
            mirror = (-w[0],) + w[1:]
            changed.append({v: n for v, n in weights.items() if v != mirror})
            for c in changed:
                assert _both_decompositions(h_type, c) is None, (h_type, weights, c)
        off = (7,) + next(iter(weights))[1:]  # above every random label
        assert _both_decompositions(h_type, {**weights, off: -1}) is None
