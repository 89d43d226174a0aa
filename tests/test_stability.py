"""Spectral case analysis and the coindex assembly."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from gray_stability import branching, fourier, reps, stability
from gray_stability.branching import hom_dim
from gray_stability.forms import lambda11_0
from gray_stability.stability import (
    _sqrt_fraction,
    assemble_report,
    coindex_report,
    tt_eigenspaces,
    _coclosed_table,
)
from gray_stability.lie import SPACE_NAMES, build_space
from oracles import (
    candidate_eps,
    eigenspace_sources,
    matrix_a,
    matrix_a_eigenvalues,
    mu_values,
    solution_dim,
    sqrt_fraction_reference,
)


@pytest.mark.parametrize(
    "q, root",
    [(0, 0), (Fraction(9, 4), Fraction(3, 2)), (2, None), (Fraction(9, 2), None), (Fraction(2, 9), None), (-1, None)],
)
def test_sqrt_fraction(q, root):
    assert _sqrt_fraction(Fraction(q)) == root


def test_sqrt_fraction_matches_the_reference():
    for p in range(-5, 50):
        for d in range(1, 50):
            q = Fraction(p, d)
            assert _sqrt_fraction(q) == sqrt_fraction_reference(q), q


def test_matrix_a_entries():
    assert matrix_a(0) == [[4, -1], [-16, 10]]
    a = matrix_a(Fraction(25, 4))
    assert a[0][0] + a[1][1] == Fraction(3, 2)


def test_matrix_a_eigenvalues_match_closed_form():
    for eps in (0, 4, 6, Fraction(21, 4), Fraction(9, 2)):
        vals, diag = matrix_a_eigenvalues(eps)
        mv = mu_values(eps)
        if mv.case == "generic" and mv.mu1 is not None:
            assert set(vals) == {mv.mu1, mv.mu2}
            assert diag


def test_matrix_a_eigenvalue_examples():
    assert matrix_a_eigenvalues(0)[0] == (12, 2)
    assert matrix_a_eigenvalues(4)[0] == (6, 0)
    assert matrix_a_eigenvalues(6)[0] == (2, 0)


def test_critical_eps_not_diagonalizable():
    vals, diag = matrix_a_eigenvalues(Fraction(25, 4))
    assert vals == (Fraction(3, 4), Fraction(3, 4))
    assert diag is False


def test_mu_values():
    mv = mu_values(4)
    assert (mv.mu1, mv.mu2, mv.mu3) == (6, 0, 2)
    mv0 = mu_values(0)
    assert (mv0.mu1, mv0.mu2, mv0.mu3) == (12, 2, 6)
    assert mu_values(6).case == "eps6"
    assert mu_values(Fraction(25, 4)).case == "eps25over4"
    assert mu_values(7).case == "empty"
    irr = mu_values(1)  # sqrt(21) is irrational
    assert irr.case == "generic" and irr.mu1 is None and irr.mu3 == 5


def test_solution_dim_cases():
    assert solution_dim(6, {Fraction(2): 0}, b3=2) == 2
    assert solution_dim(4, {Fraction(0): 1}, b3=0) == 1
    assert solution_dim(7, {}, b3=5) == 0
    assert solution_dim(Fraction(25, 4), {Fraction(3, 4): 3}, b3=0) == 3
    # between 6 and 25/4 the third eigenvalue is negative and contributes 0
    assert solution_dim(Fraction(49, 8), {Fraction(0): 1}, b3=0) == 0
    with pytest.raises(ValueError):
        solution_dim(0, {}, 0)
    for k in range(1, 30):
        eps = Fraction(25, 4) + Fraction(k, 7)
        assert solution_dim(eps, {Fraction(0): 4, Fraction(2): 4}, b3=9) == 0


def test_eigenspace_sources_per_case():
    e_dims = {Fraction(0): 1, Fraction(2): 3, Fraction(6): 5, Fraction(3, 4): 7}
    assert eigenspace_sources(4, e_dims, b3=2) == [
        (5, "E(6) eigenforms"), (1, "harmonic-2-forms"), (3, "E(2) eigenforms")
    ]
    assert eigenspace_sources(6, e_dims, b3=2) == [(3, "E(2) eigenforms"), (2, "harmonic-3-forms")]
    assert eigenspace_sources(Fraction(25, 4), e_dims, b3=2) == [(7, "E(3/4) eigenforms")]
    assert eigenspace_sources(7, e_dims, b3=2) == []
    # sqrt(21) is irrational: only mu3 = 5 is read
    assert eigenspace_sources(1, e_dims, b3=2) == [(0, "E(5) eigenforms")]


def _eps_first_rows(e_dims: dict, b3: int) -> list:
    """The nonzero (lambda, mult, source) rows of the eps-first reference:
    every candidate eps > 0, and eps = 0 read from mu_values(0)."""
    return sorted(
        (Fraction(10) - eps, mult, source)
        for eps in candidate_eps(e_dims, b3) | {Fraction(0)}
        for mult, source in eigenspace_sources(eps, e_dims, b3)
        if mult
    )


# Casimir-like values: the coupling's special points, every mu with
# 1 + 4 mu a square of s <= 60 (where 5 - mu +/- s is rational) and thirds
_MU_POOL = sorted(
    {Fraction(0), Fraction(3, 4), Fraction(2), Fraction(6), Fraction(12)}
    | {Fraction(s * s - 1, 4) for s in range(1, 61)}
    | {Fraction(k, 3) for k in range(0, 61)}
)


def test_tt_eigenspaces_equals_the_eps_first_reference():
    rng = random.Random(28)
    for _ in range(10_000):
        e_dims = {mu: rng.randint(0, 4) for mu in rng.sample(_MU_POOL, rng.randint(1, 6))}
        b3 = rng.choice((0, 1, 2))
        rows = tt_eigenspaces(e_dims, b3)
        assert sorted(rows) == _eps_first_rows(e_dims, b3), (e_dims, b3)
        ied = sum(e_dims.get(Fraction(mu), 0) for mu in (2, 6, 12))
        assert sum(mult for lam, mult, _ in rows if lam == 10) == ied, (e_dims, b3)


@pytest.mark.parametrize(
    "e_dims, b3, rows",
    [
        # (eps, mu) = (6, 0) is dropped: the 3-forms take its place at lambda = 4
        ({Fraction(0): 1}, 2, [(4, 2, "harmonic-3-forms"), (6, 1, "harmonic-2-forms")]),
        # E(2) feeds eps = 6, 4 and 0
        ({Fraction(2): 3}, 0, [(4, 3, "E(2) eigenforms"), (6, 3, "E(2) eigenforms"), (10, 3, "E(2) eigenforms")]),
        # the double root mu = 3/4 at eps = 25/4 counts once
        ({Fraction(3, 4): 7}, 0, [
            (Fraction(15, 4), 7, "E(3/4) eigenforms"),
            (Fraction(19, 4), 7, "E(3/4) eigenforms"),
            (Fraction(31, 4), 7, "E(3/4) eigenforms"),
        ]),
        ({Fraction(12): 5, Fraction(5): 0}, 0, [(10, 5, "E(12) eigenforms")]),
    ],
)
def test_tt_eigenspaces_special_points(e_dims, b3, rows):
    assert sorted(tt_eigenspaces(e_dims, b3)) == rows


def test_no_label_above_the_cutoff_feeds_the_map():
    # mu = 12 feeds only lambda = 10 (eps = 0); above it nothing is fed
    assert tt_eigenspaces({Fraction(12): 1}, 0) == [(10, 1, "E(12) eigenforms")]
    grid = [Fraction(12) + Fraction(k, 8) for k in range(1, 8 * 300)]
    grid += [Fraction(s * s - 1, 4) for s in range(8, 200)]
    for mu in grid:
        assert tt_eigenspaces({mu: 1}, 0) == [], mu


def _e_dims(name: str) -> dict:
    """dim E(mu) for each Casimir value mu below the cutoff, summed from
    the rows of the coindex report as dim(label) * coclosed multiplicity."""
    out: dict = {}
    for _, d, cas, _, cd in coindex_report(name).casimir_rows:
        if cd and cas < 12:
            out[cas] = out.get(cas, 0) + d * cd
    return out


def test_casimir_cutoff_covers_every_eigenvalue_read():
    # The reports read E(mu) up to Casimir 12 (the argument is in the
    # stability docstring).  On each space's own E(mu) table, E(12) adds
    # only lambda = 10 rows, and an E(mu) above 12, on the grid
    # mu = 12 + k/64 (which meets a rational sqrt(1 + 4 mu), as at
    # k = 57), leaves every row with lambda < 10 unchanged.
    grid = [Fraction(12) + Fraction(k, 64) for k in range(1, 401)]
    assert any(_sqrt_fraction(1 + 4 * mu) for mu in grid)
    added_at_12 = {}
    for name in SPACE_NAMES:
        b3 = build_space(name).betti[1]
        below = _e_dims(name)
        e12 = sum(d * cd for _, d, cas, _, cd in coindex_report(name).casimir_rows if cas == 12)
        rows = tt_eigenspaces({**below, Fraction(12): e12}, b3)
        added = Counter(rows) - Counter(tt_eigenspaces(below, b3))
        assert all(lam == 10 for lam, _, _ in added), (name, added)
        added_at_12[name] = sum(mult for _, mult, _ in added)
        destabilizing = [row for row in rows if row[0] < 10]
        for mu in grid:
            above = tt_eigenspaces({**below, Fraction(12): e12, mu: 1}, b3)
            assert [row for row in above if row[0] < 10] == destabilizing, (name, mu)
    assert added_at_12 == {"s3xs3": 0, "cp3": 0, "flag": 8}


def test_coindex_reports():
    r = coindex_report("s3xs3")
    assert (r.coindex, r.ied_dim) == (2, 0)
    assert list(r.destabilizing) == [
        (4, 2, "harmonic-3-forms")
    ]

    r = coindex_report("cp3")
    assert (r.coindex, r.ied_dim) == (1, 0)
    assert list(r.destabilizing) == [
        (6, 1, "harmonic-2-forms")
    ]

    r = coindex_report("flag")
    assert (r.coindex, r.ied_dim) == (2, 8)
    assert list(r.destabilizing) == [
        (6, 2, "harmonic-2-forms")
    ]


def test_coindex_is_the_solution_dim_sum_over_candidates():
    # the report sums the destabilizing multiplicities once; the reference
    # re-runs the case analysis at every candidate eps
    for name in ("s3xs3", "cp3", "flag"):
        e_dims = _e_dims(name)
        b3 = build_space(name).betti[1]
        expected = sum(solution_dim(eps, e_dims, b3) for eps in candidate_eps(e_dims, b3))
        assert coindex_report(name).coindex == expected > 0, name


def test_harmonic_two_form_count_matches_b2():
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        e0 = _e_dims(name).get(Fraction(0), 0)
        assert e0 == space.betti[0]


def test_report_invariant_under_permuted_enumeration():
    rng = random.Random(3)
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        rows = _coclosed_table(space)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        a = assemble_report(name, rows)
        b = assemble_report(name, shuffled)
        assert a.coindex == b.coindex and a.ied_dim == b.ied_dim
        assert a.destabilizing == b.destabilizing


def test_assemble_report_rejects_an_einstein_constant_other_than_5(monkeypatch):
    # its thresholds lambda = 10 - eps = 2E - eps and eps = 25/4 assume E = 5
    rows = coindex_report("cp3").casimir_rows
    other = dataclasses.replace(build_space("cp3"))  # a copy with nothing derived yet
    other.__dict__["einstein_constant"] = Fraction(6)
    monkeypatch.setattr(stability, "build_space", lambda name: other)
    with pytest.raises(ArithmeticError, match="Einstein constant 6, not 5"):
        assemble_report("cp3", rows)


def test_matrix_a_left_eigenvectors():
    # the functionals (3 -/+ sqrt(25 - 4 eps), 1) diagonalize the coupled
    # system from the left: w A = mu w exactly
    for eps in (Fraction(0), Fraction(4), Fraction(6), Fraction(21, 4)):
        a = matrix_a(eps)
        vals, _ = matrix_a_eigenvalues(eps)
        s = vals[0] - (Fraction(7) - eps)
        assert s * s == Fraction(25) - 4 * eps
        for mu, w in ((vals[0], (3 - s, 1)), (vals[1], (3 + s, 1))):
            image = (
                w[0] * a[0][0] + w[1] * a[1][0],
                w[0] * a[0][1] + w[1] * a[1][1],
            )
            assert image == (mu * w[0], mu * w[1]), eps


def test_peter_weyl_eigenspace_dimensions():
    # the deformation-boundary eigenspace on primitive (1,1)-forms is
    # 32-dimensional for the flag manifold, of which 8 dimensions are
    # coclosed; the triple product has a 12-dimensional eigenspace at 9
    # with no coclosed part.
    flag_rows = {r[0]: r for r in coindex_report("flag").casimir_rows}
    label, d, cas, hd, cd = flag_rows[(1, 1)]
    assert (d * hd, d * cd) == (32, 8)

    s3_rows = {r[0]: r for r in coindex_report("s3xs3").casimir_rows}
    total9 = sum(
        r[1] * r[3] for r in s3_rows.values() if r[2] == 9
    )
    coclosed9 = sum(r[1] * r[4] for r in s3_rows.values() if r[2] == 9)
    assert (total9, coclosed9) == (12, 0)


def test_report_jsonable_schema():
    doc = coindex_report("flag").to_jsonable()
    assert doc == {
        "space": "flag",
        "coindex": 2,
        "destabilizing": [{"lambda": 6, "mult": 2, "source": "harmonic-2-forms"}],
        "ied_dim": 8,
    }


def test_coclosed_table_branches_each_label_once(monkeypatch):
    # the row's hom multiplicity is the size of the hom basis, whose own
    # dimension check is the one hom_dim (one restriction) per label
    calls = []
    original = branching.restrict

    def counted(space, gamma):
        calls.append(gamma)
        return original(space, gamma)

    monkeypatch.setattr(branching, "restrict", counted)
    space = build_space("flag")
    rows = _coclosed_table(space)
    assert sorted(calls) == sorted(row[0] for row in rows)
    decomposition = lambda11_0("flag").decomposition
    assert [row[3] for row in rows] == [hom_dim(space, row[0], decomposition) for row in rows]


def test_coindex_reports_build_each_module_once(monkeypatch):
    # the hom basis and the delta images of a label with homomorphisms
    # each ask for its explicit module, and the cache builds it once:
    # 11 builds for the 11 such labels
    calls = Counter()
    original = fourier.explicit_rep

    def counted(space, gamma):
        calls[space.name, gamma] += 1
        return original(space, gamma)

    monkeypatch.setattr(fourier, "explicit_rep", counted)
    coindex_report.cache_clear()
    reps._explicit_rep.cache_clear()
    reports = [coindex_report(name) for name in SPACE_NAMES]
    with_homs = {(r.space, row[0]) for r in reports for row in r.casimir_rows if row[3]}
    assert set(calls) == with_homs and len(with_homs) == 11
    assert set(calls.values()) == {2}
    assert reps._explicit_rep.cache_info().misses == 11
