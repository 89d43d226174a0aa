"""Unit tests for the exact scalar tower."""

import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gray_stability import scalars
from gray_stability.cli import main
from gray_stability.scalars import (
    _GENERAL_TAG,
    _ZERO_TAG,
    I,
    ONE,
    SQRT2,
    SQRT6,
    ZERO,
    Scalar,
    rational,
)
from oracles import (
    _EXPS,
    SQRT3,
    J,
    fraction_mul_reference,
    from_json,
    imag,
    real,
    scalar_json_reference,
    scalar_op_reference,
    scalar_str_reference,
)


def test_cube_root_of_unity():
    assert J * J * J == ONE
    assert J == rational(-1, 2) + I * SQRT3 * rational(1, 2)


def test_inverse_sqrt2_squares_to_half():
    inv = SQRT2.inverse()
    assert inv * inv == rational(1, 2)
    assert SQRT2 * SQRT2 == rational(2)
    assert SQRT3 * SQRT3 == rational(3)
    assert SQRT2 * SQRT3 == SQRT6


def test_one_minus_j_squared():
    # j^2 = (-1 - i sqrt3)/2, so 1 - j^2 = (3 + i sqrt3)/2.
    expected = rational(3, 2) + I * SQRT3 * rational(1, 2)
    assert ONE - J * J == expected


def test_conjugation():
    assert J.conjugate() == J * J
    assert SQRT2.inverse().conjugate() == SQRT2.inverse()
    assert (I * SQRT6).conjugate() == -(I * SQRT6)
    s = rational(3, 7) + I * SQRT2 - SQRT3 * rational(2)
    assert s.conjugate().conjugate() == s


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        (SQRT2 - SQRT2).inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_round_trip():
    a = rational(3, 5) + SQRT2 * rational(7) - I * SQRT6 * rational(1, 3)
    b = rational(-2) + I * SQRT3
    assert (a * b.inverse()) * b == a


def test_real_imag_parts():
    s = rational(1, 2) + I * SQRT3 + SQRT2
    assert real(s) == rational(1, 2) + SQRT2
    assert imag(s) == SQRT3
    assert real(s) + I * imag(s) == s


def test_rational_predicates():
    assert rational(5, 3).is_rational()
    assert rational(5, 3).rational() == Fraction(5, 3)
    assert not SQRT2.is_rational()
    with pytest.raises(ValueError):
        SQRT2.rational()


def test_json_round_trip():
    s = rational(-7, 3) + I * rational(1, 2) + SQRT6 * rational(4)
    data = s.to_json()
    assert data[0] == "-7/3" and data[1] == "1/2" and data[6] == "4"
    assert from_json(data) == s


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE + I) == "1 + i"
    assert str(rational(1, 2) - I * SQRT3 * rational(1, 2)) == "1/2 - 1/2*i*sqrt3"


def test_coercion_with_ints_and_fractions():
    assert 2 * SQRT2 == SQRT2 + SQRT2
    assert SQRT2 + 0 == SQRT2
    assert Fraction(1, 2) * rational(2) == ONE
    assert -J - J * J + 1 == J * J * J + ONE  # 1 + j + j^2 = 0 rearranged


# -- storage: eight int numerators over one positive common denominator ----

def _coords(s):
    return [Fraction(x) for x in s.to_json()]


def _assert_canonical(s):
    assert type(s) is Scalar
    assert type(s.n) is tuple and len(s.n) == 8
    assert all(type(x) is int for x in s.n)
    assert type(s.d) is int and s.d > 0
    assert type(s.tag) is int
    assert math.gcd(*s.n, s.d) == 1
    if not any(s.n):
        assert s.d == 1
    # the tag names the only nonzero coordinate, else zero or general
    nonzero = [k for k, x in enumerate(s.n) if x]
    if not nonzero:
        assert s.tag == _ZERO_TAG
    elif len(nonzero) == 1:
        assert s.tag == nonzero[0]
    else:
        assert s.tag == _GENERAL_TAG


def _random_scalar(rng):
    big = 2 ** 70
    coeffs = []
    for _ in range(8):
        kind = rng.random()
        if kind < 0.3:
            coeffs.append(0)
        elif kind < 0.6:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        else:
            coeffs.append(Fraction(rng.randint(-big, big), rng.randint(1, big)))
    return Scalar(coeffs)


def test_slots_hold_ints_only():
    assert Scalar.__slots__ == ("n", "d", "tag")
    for s in (ZERO, ONE, I, J, SQRT6, rational(-7, 3)):
        _assert_canonical(s)
    assert ZERO.n == (0,) * 8 and ZERO.d == 1
    assert J.n == (-1, 0, 0, 0, 0, 1, 0, 0) and J.d == 2


def test_canonical_form_after_every_operation():
    rng = random.Random(2024)
    samples = [_random_scalar(rng) for _ in range(40)]
    assert any(s.d > 2 ** 64 for s in samples)
    for a, b in zip(samples, samples[1:]):
        _assert_canonical(a)
        pa, pb = _coords(a), _coords(b)
        results = {
            "+": (a + b, [x + y for x, y in zip(pa, pb)]),
            "-": (a - b, [x - y for x, y in zip(pa, pb)]),
            "*": (a * b, fraction_mul_reference(pa, pb)),
            "neg": (-a, [-x for x in pa]),
            "galois": (a.galois(flip_sqrt2=True, flip_sqrt3=True), [
                -x if e[1] != e[2] else x for x, e in zip(pa, _EXPS)
            ]),
            "a - a": (a - a, [Fraction(0)] * 8),
            "a * a * a": (a * a * a, fraction_mul_reference(fraction_mul_reference(pa, pa), pa)),
        }
        for op, (got, want) in results.items():
            _assert_canonical(got)
            assert _coords(got) == want, op
        inv = a.inverse()
        _assert_canonical(inv)
        assert fraction_mul_reference(_coords(inv), pa) == _coords(ONE)
        _assert_canonical((a * a).inverse())
        assert (a * a).inverse() * (a * a) == ONE


def test_general_operations_that_end_on_a_monomial_or_zero():
    g = rational(3, 5) + SQRT2 - I * SQRT6 * rational(1, 7)
    cases = [
        ((SQRT2 + I) - I, SQRT2, 2),
        ((ONE + I) * (ONE - I), rational(2), 0),
        ((SQRT3 + I) + (-I), SQRT3, 3),
        (g - g, ZERO, _ZERO_TAG),
        (g + (-g), ZERO, _ZERO_TAG),
        ((ONE + I).inverse(), rational(1, 2) - I * rational(1, 2), _GENERAL_TAG),
        ((I * rational(-2, 3)).inverse(), I * rational(3, 2), 1),
        (g.inverse() * g, ONE, 0),
    ]
    for got, want, tag in cases:
        _assert_canonical(got)
        assert got == want and got.tag == tag
    for x in (ZERO, ONE, I * SQRT6 * rational(-5, 3), g):
        for got in (
            -x,
            x.conjugate(),
            x.galois(flip_sqrt2=True),
            x.galois(flip_i=True, flip_sqrt2=True, flip_sqrt3=True),
        ):
            _assert_canonical(got)
            assert got.tag == x.tag
        assert -(-x) == x and x.conjugate().conjugate() == x
    assert -ZERO is ZERO
    assert g * ZERO is ZERO and ZERO * I is ZERO and I * 0 is ZERO
    assert not (g - g) and g and I


def test_canonical_form_of_rational_results():
    # sign and common factors are moved out of the denominator
    _assert_canonical(rational(6, -4))
    assert rational(6, -4).n[0] == -3 and rational(6, -4).d == 2
    _assert_canonical(rational(-3).inverse())
    assert rational(-3).inverse() == rational(-1, 3)
    half = rational(1, 2)
    _assert_canonical(half + half)
    assert (half + half).d == 1
    s = rational(1, 6) + SQRT2 * rational(1, 3)
    _assert_canonical(s * 6)
    assert (s * 6).n == (1, 0, 2, 0, 0, 0, 0, 0) and (s * 6).d == 1


def test_equal_values_by_different_routes_are_equal_and_hash_equal():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        routes = [
            ((a + b) * c, a * c + b * c),
            ((a * b).inverse(), a.inverse() * b.inverse()),
            (a * b.inverse() * b, a),
            (a.conjugate().conjugate(), a),
            (real(a) + I * imag(a), a),
            (Scalar(_coords(a)), a),
        ]
        for x, y in routes:
            assert x == y
            assert hash(x) == hash(y)


def test_hash_agrees_with_eq_across_coercion():
    assert ONE == 1 and hash(ONE) == hash(1)
    assert {ONE: "a"}.get(1) == "a"
    assert {1: "a"}.get(ONE) == "a"
    half = rational(1, 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {Fraction(1, 2): "h"}.get(half) == "h"
    assert ZERO == 0 and hash(ZERO) == hash(0)
    s = rational(3, 5) + SQRT2
    t = SQRT2 + Fraction(3, 5)
    assert s == t and hash(s) == hash(t)
    assert {s: "x"}.get(t) == "x"
    assert s != Fraction(3, 5)


def test_json_round_trips():
    rng = random.Random(11)
    for s in [ZERO, ONE, J, I * SQRT6] + [_random_scalar(rng) for _ in range(20)]:
        data = s.to_json()
        assert all(type(x) is str for x in data)
        back = from_json(data)
        _assert_canonical(back)
        assert back == s and back.to_json() == data


def test_constructor_takes_ints_and_fractions():
    s = Scalar([1, Fraction(1, 2), 0, 0, 0, 0, -3, Fraction(-2, 3)])
    _assert_canonical(s)
    assert s.n == (6, 3, 0, 0, 0, 0, -18, -4) and s.d == 6
    assert s == ONE + I * rational(1, 2) - SQRT6 * 3 - I * SQRT6 * rational(2, 3)
    assert Scalar([Fraction(2, 4)] + [0] * 7) == rational(1, 2)
    for bad in ([1] * 7, [1] * 9, []):
        with pytest.raises(ValueError):
            Scalar(bad)


# -- monomials: one nonzero coordinate ---------------------------------------

_BIG = 2 ** 64

# coefficient pairs of two monomials: equal denominators (one pair sums to a
# reducible fraction), coprime denominators, denominators above 2**64
# (shared and equal), and an integer whose product clears the denominator
_MONOMIAL_PAIRS = [
    (Fraction(3, 4), Fraction(-5, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-2, 9), Fraction(7, 10)),
    (Fraction(5, _BIG + 1), Fraction(-(_BIG + 3), 3 * (_BIG + 1))),
    (Fraction(_BIG + 7, 2 * _BIG + 1), Fraction(3, 2 * _BIG + 1)),
    (Fraction(1, 6), Fraction(3)),
]


def _monomial(k, q):
    coeffs = [0] * 8
    coeffs[k] = q
    return Scalar(coeffs)


def test_monomial_products_sums_and_inverses_on_every_basis_pair():
    for k1 in range(8):
        for p, _q in _MONOMIAL_PAIRS:
            a = _monomial(k1, p)
            inv = a.inverse()
            _assert_canonical(inv)
            assert inv.n.count(0) == 7
            assert fraction_mul_reference(_coords(inv), _coords(a)) == _coords(ONE), (k1, p)
        for k2 in range(8):
            for p, q in _MONOMIAL_PAIRS:
                a, b = _monomial(k1, p), _monomial(k2, q)
                pa, pb = _coords(a), _coords(b)
                assert a.n.count(0) == b.n.count(0) == 7
                results = {
                    "*": (a * b, fraction_mul_reference(pa, pb)),
                    "+": (a + b, [x + y for x, y in zip(pa, pb)]),
                    "-": (a - b, [x - y for x, y in zip(pa, pb)]),
                    "int *": (a * 3, [3 * x for x in pa]),
                    "int +": (2 + a, [x + 2 * (k == 0) for k, x in enumerate(pa)]),
                }
                for op, (got, want) in results.items():
                    _assert_canonical(got)
                    assert _coords(got) == want, (op, k1, k2, p, q)


def test_monomial_sums_that_cancel_are_canonical_zero():
    for k in range(8):
        for p, q in _MONOMIAL_PAIRS:
            a = _monomial(k, p)
            same = _monomial(k, Fraction(p.numerator * 3, p.denominator * 3))
            for got in (a - a, a + (-a), -a + a, a - same, (-a) - (-a)):
                _assert_canonical(got)
                assert got == ZERO and got.n == ZERO.n and got.d == 1
            # a difference that leaves a monomial on the same basis element
            b = _monomial(k, q)
            if p != q:
                _assert_canonical(a - b)
                assert _coords(a - b) == [p - q if j == k else 0 for j in range(8)]


def test_mixed_monomial_and_general_operands():
    rng = random.Random(64)
    generals = [s for s in (_random_scalar(rng) for _ in range(12)) if s.n.count(0) < 7][:5]
    assert len(generals) == 5
    for general in generals:
        pg = _coords(general)
        for k in range(8):
            # one coefficient of each kind: small, and above 2**64
            for p in (Fraction(-2, 9), Fraction(5, _BIG + 1)):
                a = _monomial(k, p)
                pa = _coords(a)
                results = {
                    "m * g": (a * general, fraction_mul_reference(pa, pg)),
                    "g * m": (general * a, fraction_mul_reference(pg, pa)),
                    "m + g": (a + general, [x + y for x, y in zip(pa, pg)]),
                    "g - m": (general - a, [y - x for x, y in zip(pa, pg)]),
                    "m - g": (a - general, [x - y for x, y in zip(pa, pg)]),
                    "m * 0": (a * ZERO, [0] * 8),
                    "m + 0": (a + ZERO, pa),
                    "0 - m": (ZERO - a, [-x for x in pa]),
                }
                for op, (got, want) in results.items():
                    _assert_canonical(got)
                    assert _coords(got) == want, (op, k, p)


def test_rendering_matches_the_fraction_reference():
    # zero, rationals, each basis element with either sign and with and
    # without a denominator, and general scalars
    rng = random.Random(23)
    samples = [ZERO, ONE, -ONE, rational(6, 4), rational(-7, 3), rational(5, _BIG + 1)]
    for k in range(8):
        for q in (1, -1, 3, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(-6, 4)):
            samples.append(_monomial(k, q))
    samples += [J, -J, ONE + I, rational(1, 2) - I * SQRT3 * rational(1, 2)]
    samples += [_random_scalar(rng) for _ in range(30)]
    for s in samples:
        assert str(s) == scalar_str_reference(s), s.n
        assert s.to_json() == scalar_json_reference(s), s.n
    assert str(_monomial(3, Fraction(-2, 3))) == "-2/3*sqrt3"
    assert str(_monomial(4, -1)) == "-i*sqrt2"
    assert _monomial(7, Fraction(-6, 4)).to_json() == ["0"] * 7 + ["-3/2"]


# -- one object per monomial ---------------------------------------------------

DATA = pathlib.Path(__file__).parent / "data"

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _nd(s):
    return s.n, s.d, s.tag


def test_operations_match_the_fraction_reference(monkeypatch):
    # monomials on every basis element with either sign, numerators up to
    # 10**4 and denominators 1..12, made by a product (through the table)
    # or by the constructor (not through it); zero and general scalars.
    # Each operation runs twice: when the operands are monomials and the
    # result is one, the second result is the first, taken from the table.
    monkeypatch.setattr(scalars, "_MONOMIALS", {})
    rng = random.Random(29)
    samples = [ZERO, J, ONE + I, SQRT2 - SQRT3 * rational(2, 7)] + [_random_scalar(rng) for _ in range(2)]
    for k in range(8):
        for sign in (1, -1):
            c, d = sign * rng.randint(1, 10 ** 4), rng.randint(1, 12)
            samples.append(rational(c, d) * Scalar.basis_element(k))
            samples.append(_monomial(k, Fraction(sign * rng.randint(1, 10 ** 4), rng.randint(1, 12))))
    assert {s.tag for s in samples} == set(range(8)) | {_ZERO_TAG, _GENERAL_TAG}
    for a in samples:
        unary = [("neg", None, -a, -a)]
        if a:
            unary.append(("inverse", None, a.inverse(), a.inverse()))
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        binary = [(op, b, f(a, b), f(a, b)) for b in samples for op, f in _OPS.items()]
        for op, b, first, again in unary + binary:
            assert _nd(first) == _nd(again) == scalar_op_reference(op, a, b), (op, a, b)
            if first.tag < 8 and a.tag < 8 and (b is None or b.tag < 8):
                assert again is first, (op, a, b)


def test_equal_monomials_by_different_routes_are_one_object(monkeypatch):
    monkeypatch.setattr(scalars, "_MONOMIALS", {})
    half_sqrt2 = rational(1, 2) * SQRT2
    routes = [
        SQRT2 * rational(2, 4),
        -(-(SQRT2 * rational(1, 2))),
        -(SQRT2 * rational(-1, 2)),
        SQRT2 * rational(1, 4) + SQRT2 * rational(1, 4),
        SQRT2 * rational(3, 4) - SQRT2 * rational(1, 4),
        SQRT2.inverse(),
        (SQRT2 * 2).inverse() * 2,
        SQRT6 * SQRT3 * rational(1, 6),
    ]
    for s in routes:
        assert s is half_sqrt2
    # the lowest-terms request holds the object, and so does each
    # unreduced request that led to it
    table = scalars._MONOMIALS
    assert table[2, 1, 2] is table[2, 2, 4] is table[2, 3, 6] is half_sqrt2
    assert half_sqrt2 is not (SQRT2 * rational(-1, 2)) and -half_sqrt2 is SQRT2 * rational(-1, 2)


def test_the_table_stops_at_its_cap_and_results_stay_right(monkeypatch):
    table = {}
    monkeypatch.setattr(scalars, "_MONOMIALS", table)
    cap = scalars.MONOMIAL_CAP
    made = [SQRT2 * c for c in range(1, cap + 101)]
    assert len(table) == cap
    assert all(table[2, c, 1] is made[c - 1] for c in range(1, cap + 1))
    # past the cap each request builds its own canonical monomial
    late = SQRT2 * (cap + 50)
    assert late == made[cap + 49] and late is not made[cap + 49]
    assert _nd(late) == ((0, 0, cap + 50, 0, 0, 0, 0, 0), 1, 2)
    pairs = [
        (made[-1], made[-2]),
        (late, SQRT2 * rational(7, 12)),
        (late, I * rational(-3, 4)),
        (SQRT2 * rational(1, 6), rational(3)),  # the request (2, 3, 6) reduces
        (late, J),
    ]
    for a, b in pairs:
        for op, f in _OPS.items():
            assert _nd(f(a, b)) == scalar_op_reference(op, a, b), (op, a, b)
        assert _nd(-a) == scalar_op_reference("neg", a)
        assert _nd(a.inverse()) == scalar_op_reference("inverse", a)
    assert len(table) == cap


def _clear_pipeline_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("gray_stability."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_one_process_history_reproduces_every_golden_file(monkeypatch, capsys):
    # every command from an empty table and cold caches, then each later
    # one with the table the earlier ones filled
    monkeypatch.setattr(scalars, "_MONOMIALS", {})
    _clear_pipeline_caches()
    runs = [
        (["obstruction"], "golden_obstruction.json"),
        (["coindex", "--space", "s3xs3"], "golden_coindex_s3xs3.json"),
        (["coindex", "--space", "cp3"], "golden_coindex_cp3.json"),
        (["coindex", "--space", "flag"], "golden_coindex_flag.json"),
        (["delta", "--space", "s3xs3", "--gamma", "2,2,2"], "golden_delta_s3xs3_2_2_2.json"),
        (["reproduce-all"], "golden_reproduce_all.json"),
    ]
    for argv, golden in runs:
        assert main(argv + ["--format", "json"]) == 0, argv
        assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8"), argv
    assert 0 < len(scalars._MONOMIALS) < scalars.MONOMIAL_CAP


_COUNT_PRODUCTS = """
import contextlib, io, json
from gray_stability import scalars
from gray_stability.cli import main

S, mul = scalars.Scalar, scalars.Scalar.__mul__
counts = {"products": 0, "monomial_or_zero": 0}

def counting(a, b):
    c = b if type(b) is S else scalars._coerce(b)
    if c is not NotImplemented:
        counts["products"] += 1
        counts["monomial_or_zero"] += a.tag != scalars._GENERAL_TAG and c.tag != scalars._GENERAL_TAG
    return mul(a, b)

S.__mul__ = S.__rmul__ = counting
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["reproduce-all", "--format", "json"]) == 0
print(json.dumps({**counts, "table": len(scalars._MONOMIALS)}))
"""


def test_cold_reproduce_all_multiplies_monomials_and_fills_a_small_table():
    # the premise of the tags and of the monomial table (module docstring),
    # as bounds on a cold run in a fresh process
    src = str(pathlib.Path(scalars.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _COUNT_PRODUCTS], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    counts = json.loads(out.stdout)
    assert counts["products"] > 0
    assert 100 * counts["monomial_or_zero"] >= 95 * counts["products"], counts
    assert counts["table"] < scalars.MONOMIAL_CAP // 4, counts
