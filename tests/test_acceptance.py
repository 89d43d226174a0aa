"""Acceptance suite: every headline number at its stated tolerance.

All comparisons are exact (zero tolerance); each criterion prints one
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import pathlib
import random
from fractions import Fraction

from frozen_tables import (
    expected_integrand,
    expected_nabla_h_table,
    expected_obstruction_terms,
)
from oracles import (
    J,
    cp3_contraction_ratio,
    decomposition_dim,
    flag_invariant_coefficient,
    matrix_a_eigenvalues,
    matrix_from_coordinates,
    proto_delta_reference,
    s3xs3_display_generator,
    solution_dim,
    to_dense,
    to_sparse,
)
from gray_stability import linalg
from gray_stability.branching import restrict
from gray_stability.cli import reproduce_all_doc
from gray_stability.forms import lambda11_0
from gray_stability.fourier import (
    coclosed_dim,
    hom_basis,
    m_complex_coords,
    proto_delta,
)
from gray_stability.lie import build_space
from gray_stability.obstruction import (
    integrand,
    killing_check,
    nabla_h_entry,
    obstruction_pairing,
    obstruction_terms,
    rigidity_verdict,
)
from gray_stability.render import dumps
from gray_stability.reps import (
    casimir_bruteforce,
    casimir_constant,
    enumerate_labels,
    explicit_rep,
)
from gray_stability.scalars import ONE, SQRT2, Scalar, rational
from gray_stability.stability import coindex_report
from gray_stability.sympoly import GENERATORS, SymPoly, V1, V2, V3, coordinate_matrix, det_cubic, sym_inner

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_reproduce_all.json"


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS: {text}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_casimir_tables():
    table1 = {
        (0, 0, 0): Fraction(0),
        (1, 0, 0): Fraction(9, 2),
        (0, 1, 0): Fraction(9, 2),
        (0, 0, 1): Fraction(9, 2),
        (1, 1, 0): Fraction(9),
        (1, 0, 1): Fraction(9),
        (0, 1, 1): Fraction(9),
        (1, 1, 1): Fraction(27, 2),
        (2, 0, 0): Fraction(12),
        (0, 2, 0): Fraction(12),
        (0, 0, 2): Fraction(12),
    }
    for label, value in table1.items():
        assert casimir_constant("k3", label) == value, label

    table2 = {(0, 0): 0, (1, 0): 8, (1, 1): 12, (2, 0): 20}
    for label, value in table2.items():
        assert casimir_constant("so5", label) == value, label

    # Third table: the trivial module and the adjoint at the deformation
    # boundary sit at 0 and 12; the standard modules come out at 16/3,
    # confirmed by two independent computations (criterion 2 brute-forces
    # them as well).
    assert casimir_constant("su3", (0, 0)) == 0
    assert casimir_constant("su3", (1, 1)) == 12
    assert casimir_constant("su3", (1, 0)) == Fraction(16, 3)
    assert casimir_constant("su3", (0, 1)) == Fraction(16, 3)
    flag = build_space("flag")
    std = explicit_rep(flag, (1, 0))
    assert casimir_bruteforce(flag, std) == Fraction(16, 3)
    # the label sets below the threshold are exactly these
    assert list(enumerate_labels("su3", Fraction(12))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(enumerate_labels("so5", Fraction(12))) == [(0, 0), (1, 0), (1, 1)]
    _report(1, "Casimir tables reproduced exactly (standard su(3) module at 16/3)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_bruteforce_freudenthal_agreement():
    # every dominant label up to Casimir 40, each module built explicitly
    checked = 0
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        for label in enumerate_labels(space.group, Fraction(40)):
            rep = explicit_rep(space, label)
            assert casimir_bruteforce(space, rep) == casimir_constant(
                space.group, label
            ), (name, label)
            checked += 1
    assert checked == 77
    _report(2, f"Casimir operator exactly scalar on {checked} modules, "
               "brute force equals the weight formula")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_branching_tables():
    s3 = build_space("s3xs3")
    assert restrict(s3, (0, 0, 0)) == {("V", 0): 1}
    assert restrict(s3, (1, 0, 0)) == {("V", 1): 1}
    assert restrict(s3, (1, 1, 0)) == {("V", 2): 1, ("V", 0): 1}
    assert restrict(s3, (1, 1, 1)) == {("V", 3): 1, ("V", 1): 2}
    assert restrict(s3, (2, 0, 0)) == {("V", 2): 1}

    cp3 = build_space("cp3")
    assert restrict(cp3, (0, 0)) == {("E", 0, 0): 1}
    assert restrict(cp3, (1, 0)) == {("E", 1, 1): 1, ("E", 1, -1): 1, ("E", 0, 0): 1}
    assert restrict(cp3, (1, 1)) == {
        ("E", 2, 0): 1,
        ("E", 1, 1): 1,
        ("E", 1, -1): 1,
        ("E", 0, 2): 1,
        ("E", 0, 0): 1,
        ("E", 0, -2): 1,
    }
    assert restrict(cp3, (2, 0)) == {
        ("E", 2, 2): 1,
        ("E", 2, 0): 1,
        ("E", 2, -2): 1,
        ("E", 1, 1): 1,
        ("E", 1, -1): 1,
        ("E", 0, 0): 1,
    }

    assert lambda11_0("s3xs3").decomposition == {("V", 4): 1, ("V", 2): 1}
    assert lambda11_0("cp3").decomposition == {
        ("E", 2, 0): 1,
        ("E", 1, 3): 1,
        ("E", 1, -3): 1,
        ("E", 0, 0): 1,
    }
    assert lambda11_0("flag").decomposition[("chi", 0, 0)] == 2
    _report(3, "branching columns and primitive (1,1) decompositions exact")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_prototypical_codifferential():
    # (a) the triple product space: delta does not vanish on the Fourier
    # space, and the reference display pair is reproduced entry for entry
    # (unit scalar) on its support.
    s3 = build_space("s3xs3")
    (d_gen,) = proto_delta(s3, (1, 1, 0), hom_basis(s3, (1, 1, 0)))
    assert any(any(row) for row in to_dense(d_gen, 6, 4))
    reference = s3xs3_display_generator()
    (d_ref,) = m_complex_coords(s3, proto_delta(s3, (1, 1, 0), [to_sparse(reference)]), 4)
    jj = J * J
    assert d_ref[2][1] == ONE - jj and d_ref[2][2] == -(ONE - jj)
    assert d_ref[5][1] == ONE - J and d_ref[5][2] == -(ONE - J)
    assert coclosed_dim(s3, (1, 1, 0), hom_basis(s3, (1, 1, 0))) == 0

    # (b) the projective space: delta(F)(v5) = 0, delta(F)(v_i) is a fixed
    # multiple of the contraction of eta along e_i.
    cp3 = build_space("cp3")
    (d,) = proto_delta(cp3, (1, 0), hom_basis(cp3, (1, 0)))
    d = to_dense(d, 6, 5)
    assert not any(d[w][4] for w in range(6))
    assert cp3_contraction_ratio(d)

    # (c) the flag manifold: the invariant-pairing coefficient is exactly
    # coclosed.
    flag = build_space("flag")
    (d_flag,) = proto_delta(flag, (1, 1), [to_sparse(flag_invariant_coefficient())])
    assert linalg.is_zero_matrix(to_dense(d_flag, 6, 8))

    # (d) coclosed multiplicity one at the deformation boundary.
    assert coclosed_dim(flag, (1, 1), hom_basis(flag, (1, 1))) == 1
    _report(4, "codifferential displays, kernel element and coclosed "
               "multiplicities exact")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_coindex_theorem():
    expected = {
        "s3xs3": (2, 0, [(Fraction(4), 2, "harmonic-3-forms")]),
        "cp3": (1, 0, [(Fraction(6), 1, "harmonic-2-forms")]),
        "flag": (2, 8, [(Fraction(6), 2, "harmonic-2-forms")]),
    }
    for name, (coindex, ied, dest) in expected.items():
        r = coindex_report(name)
        assert r.coindex == coindex, name
        assert r.ied_dim == ied, name
        assert list(r.destabilizing) == dest, name
    _report(5, "coindices (2, 1, 2) with eigenvalue lists and IED dims (0, 0, 8)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_spectral_case_checks():
    for eps in (Fraction(0), Fraction(4), Fraction(6)):
        vals, diagonalizable = matrix_a_eigenvalues(eps)
        root = _isqrt(Fraction(25) - 4 * eps)
        expected = {Fraction(7) - eps + root, Fraction(7) - eps - root}
        assert set(vals) == expected, eps
        assert diagonalizable
    vals, diagonalizable = matrix_a_eigenvalues(Fraction(25, 4))
    assert vals == (Fraction(3, 4), Fraction(3, 4)) and not diagonalizable
    for k in range(1, 20):
        eps = Fraction(25, 4) + Fraction(k, 3)
        assert solution_dim(eps, {Fraction(0): 7, Fraction(2): 5}, b3=4) == 0
    _report(6, "coupling-matrix spectra, the non-diagonalizable boundary and "
               "the empty regime verified")


def _isqrt(q: Fraction) -> Fraction:
    import math

    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    assert num * num == q.numerator and den * den == q.denominator
    return Fraction(num, den)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_obstruction_pipeline():
    expected_table = expected_nabla_h_table()
    for i in range(1, 7):
        for k in range(1, 7):
            assert nabla_h_entry(i - 1, k - 1) == expected_table[(i, k)], (i, k)
    i0, i1, i2 = obstruction_terms()
    e0, e1, e2 = expected_obstruction_terms()
    assert (i0, i1, i2) == (e0, e1, e2)
    assert integrand() == expected_integrand()
    assert obstruction_pairing() == rational(256, 3)
    verdict = rigidity_verdict(obstruction_pairing())
    assert verdict["rigid"] and not verdict["critical_points_exist"]
    _report(7, "all 36 derivative coefficients, the three invariants, the "
               "integrand, the pairing 256/3 and the rigidity verdict exact")


# -- 8 ----------------------------------------------------------------------

def _random_scalar(rng: random.Random, nonzero: bool = False) -> Scalar:
    while True:
        coeffs = [Fraction(0)] * 8
        for _ in range(rng.randint(1, 3)):
            coeffs[rng.randrange(8)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Scalar(coeffs)
        if s or not nonzero:
            return s


def test_criterion_08a_field_axioms():
    rng = random.Random(2024)
    trials = 10_000
    for _ in range(trials):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert not (a - a)
        if a:
            assert a * a.inverse() == ONE
    _report(8, f"field axioms on {trials} randomized triples (associativity, "
               "distributivity, conjugation, exact inverses)")


def test_criterion_08b_gram_kernel_invariance():
    rng = random.Random(77)
    trace = V1 + V2 + V3
    det = det_cubic(coordinate_matrix())
    base = sym_inner(integrand(), det)
    trials = 1000
    for _ in range(trials):
        q = SymPoly()
        for _ in range(2):
            a, b = rng.randrange(9), rng.randrange(9)
            coeff = rng.randint(-7, 7)
            if coeff:
                q = q + (GENERATORS[a] * GENERATORS[b]).scale(coeff)
        assert sym_inner(integrand() + trace * q, det) == base
    _report(8, f"symmetric-power pairing unchanged under {trials} randomized "
               "trace-relation shifts")


def test_criterion_08c_codifferential_basis_independence():
    s3 = build_space("s3xs3")
    (f,) = hom_basis(s3, (1, 1, 0))
    (reference,) = proto_delta(s3, (1, 1, 0), [f])
    reference = to_dense(reference, 6, 4)
    c35, s35 = rational(3, 5), rational(4, 5)
    inv_s2 = SQRT2.inverse()
    rotations = []
    for (p, q), (cc, ss) in (((0, 1), (c35, s35)), ((2, 5), (inv_s2, inv_s2)), ((3, 4), (c35, -s35))):
        entries = {(k, k): ONE for k in range(6) if k not in (p, q)}
        entries.update({(p, p): cc, (p, q): ss, (q, p): -ss, (q, q): cc})
        rotations.append(linalg.from_entries(6, entries))
    for basis in rotations:
        rotated = proto_delta_reference(s3, (1, 1, 0), to_dense(f, 8, 4), m_basis=basis)
        assert reference == rotated
    _report(8, "codifferential invariant under exact orthonormal frame changes")


def test_criterion_08d_dimension_conservation():
    count = 0
    for name in ("s3xs3", "cp3", "flag"):
        space = build_space(name)
        from gray_stability.reps import dim as rep_dim

        for label in enumerate_labels(space.group, Fraction(24)):
            dec = restrict(space, label)
            assert decomposition_dim(space.h_type, dec) == rep_dim(space.group, label)
            count += 1
    _report(8, f"dimension conserved in {count} branching decompositions")


def test_criterion_08e_killing_random_triples():
    rng = random.Random(5150)
    trials = 100
    for _ in range(trials):
        t1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert killing_check(t1, t2, -t1 - t2)
    _report(8, f"Killing cyclic sums vanish on {trials} random trace-free triples")


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_traceless_skew(rng: random.Random) -> tuple:
    while True:
        v1, v2 = _random_fraction(rng), _random_fraction(rng)
        v = [v1, v2, -v1 - v2]
        x = [_random_fraction(rng) for _ in range(6)]
        if any(v[:2]) or any(x):
            return matrix_from_coordinates(v, x)


def adjugate_nonzero_sample(rng: random.Random) -> bool:
    """Nonzero traceless skew-hermitian matrices have rank >= 2, hence a
    nonzero adjugate; verified exactly on a random sample."""
    xi = random_traceless_skew(rng)
    return not linalg.is_zero_matrix(linalg.adjugate3(xi))


def test_criterion_08f_adjugate_nonvanishing():
    rng = random.Random(31415)
    trials = 1000
    for _ in range(trials):
        assert adjugate_nonzero_sample(rng)
    _report(8, f"adjugate nonzero on {trials} random nonzero traceless "
               "skew-hermitian samples")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_reproduce_all_golden():
    doc = reproduce_all_doc()
    assert doc["all_checks_pass"] is True
    rendered = dumps(doc)
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    assert rendered == golden
    _report(9, "reproduce-all passes and matches the committed golden file "
               "byte for byte")
