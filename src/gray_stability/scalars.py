"""Exact arithmetic in the degree-8 field Q(i, sqrt2, sqrt3).

Every scalar occurring in the catalog geometries, representation matrices
and obstruction polynomials lives in this field, so equality tests are
exact and no floating point is used anywhere in decision logic.

A scalar is stored as eight integer numerators ``n`` over one positive
common denominator ``d`` (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2; FLINT's ``nf_elem``), always in lowest terms:
``gcd(*n, d) == 1``, and zero is ``((0,) * 8, 1)``.  The form is
canonical, so equality is tuple equality and the zero test is ``any(n)``
over ints.  Addition skips the cross-multiplication when the denominators
agree, a product is one pass of the basis multiplication table over ints
followed by one gcd, and the inverse divides the Galois-norm cofactor by
the rational norm once.  Fractions appear only at the edges: the
constructor, ``from_fraction``, ``rational()``, JSON and rendering.

Most scalars the pipeline meets are monomials, one rational times one
basis element: of the products in ``coindex`` on the three spaces,
10,432 of 10,760 have two monomial operands, and 15,256 of 16,332 in
``reproduce-all``; every pivot that the eliminations invert is one.  So
the arithmetic first tests for a monomial with the C-level
``n.count(0) == 7`` and reads its coefficient as ``sum(n)`` and its
basis element as ``n.index(...)``.  A product of two monomials is then
one lookup in the multiplication table and one gcd, a sum or difference
of two on the same basis element one integer operation (``ZERO`` when
they cancel), and the inverse of one a division by e_k * e_k, a
rational.  Each path returns the same canonical ``(n, d)`` as the
general one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
    "SQRT3",
    "SQRT6",
    "rational",
]

# Basis of the field over Q, in storage order.  Each element is a product
# of i, sqrt2, sqrt3; the exponent triples below are (i, sqrt2, sqrt3).
BASIS_NAMES = ("1", "i", "sqrt2", "sqrt3", "i*sqrt2", "i*sqrt3", "sqrt6", "i*sqrt6")
_BASIS_EXPS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)
_INDEX = {exps: k for k, exps in enumerate(_BASIS_EXPS)}

_new = object.__new__
_ZEROS = [0] * 8


def _build_mul_table():
    table = []
    for (i1, a1, b1) in _BASIS_EXPS:
        row = []
        for (i2, a2, b2) in _BASIS_EXPS:
            coeff = 1
            if i1 and i2:
                coeff = -coeff
            if a1 and a2:
                coeff *= 2
            if b1 and b2:
                coeff *= 3
            row.append((_INDEX[((i1 + i2) % 2, (a1 + a2) % 2, (b1 + b2) % 2)], coeff))
        table.append(tuple(row))
    return tuple(table)


_MUL = _build_mul_table()

# Indices of basis elements containing each radical (used by conjugations).
_HAS_I = tuple(k for k, e in enumerate(_BASIS_EXPS) if e[0])
_HAS_S2 = tuple(k for k, e in enumerate(_BASIS_EXPS) if e[1])
_HAS_S3 = tuple(k for k, e in enumerate(_BASIS_EXPS) if e[2])


def _raw(n: tuple, d: int) -> "Scalar":
    """Trusted 8-tuple of ints over a positive d, already in lowest terms."""
    s = _new(Scalar)
    s.n = n
    s.d = d
    return s


def _reduced(n: list, d: int) -> "Scalar":
    """The scalar n/d for 8 int numerators and a positive int d."""
    if d != 1:
        g = gcd(*n, d)
        if g != 1:
            n = [x // g for x in n]
            d //= g
    return _raw(tuple(n), d)


def _monomial(k: int, c: int, d: int) -> "Scalar":
    """The scalar (c/d) * basis element k, for an int c != 0 and a
    positive int d."""
    if d != 1:
        g = gcd(c, d)
        if g != 1:
            c //= g
            d //= g
    n = _ZEROS.copy()
    n[k] = c
    s = _new(Scalar)
    s.n = tuple(n)
    s.d = d
    return s


def _monomial_sum(k: int, x: int, xd: int, y: int, yd: int) -> "Scalar":
    """(x/xd + y/yd) * basis element k; ZERO when the terms cancel."""
    if xd == yd:
        c, d = x + y, xd
    else:
        c, d = x * yd + y * xd, xd * yd
    if not c:
        return ZERO
    return _monomial(k, c, d)


class Scalar:
    """An element of Q(i, sqrt2, sqrt3): 8 int numerators n over a positive
    common denominator d, in lowest terms."""

    __slots__ = ("n", "d")

    def __init__(self, coeffs):
        qs = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
        if len(qs) != 8:
            raise ValueError("scalar needs exactly 8 coordinates")
        # each Fraction is in lowest terms, so over the lcm of the
        # denominators the numerators already share no factor with d
        d = lcm(*(q.denominator for q in qs))
        self.n = tuple(q.numerator * (d // q.denominator) for q in qs)
        self.d = d

    # -- construction -------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "Scalar":
        if type(q) is int:
            return _raw((q, 0, 0, 0, 0, 0, 0, 0), 1)
        q = Fraction(q)
        return _raw((q.numerator, 0, 0, 0, 0, 0, 0, 0), q.denominator)

    @staticmethod
    def basis_element(k: int) -> "Scalar":
        n = [0] * 8
        n[k] = 1
        return _raw(tuple(n), 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b = other.n
        zb = b.count(0)
        if zb == 8:
            return self
        a = self.n
        za = a.count(0)
        if za == 8:
            return other
        ad, bd = self.d, other.d
        if za == zb == 7:
            x, y = sum(a), sum(b)
            k = a.index(x)
            if k == b.index(y):
                return _monomial_sum(k, x, ad, y, bd)
        if ad == bd:
            return _reduced([x + y for x, y in zip(a, b)], ad)
        return _reduced([x * bd + y * ad for x, y in zip(a, b)], ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b = other.n
        zb = b.count(0)
        if zb == 8:
            return self
        a, ad, bd = self.n, self.d, other.d
        if zb == 7 and a.count(0) == 7:
            x, y = sum(a), sum(b)
            k = a.index(x)
            if k == b.index(y):
                return _monomial_sum(k, x, ad, -y, bd)
        if ad == bd:
            return _reduced([x - y for x, y in zip(a, b)], ad)
        return _reduced([x * bd - y * ad for x, y in zip(a, b)], ad * bd)

    def __neg__(self):
        return _raw(tuple([-x for x in self.n]), self.d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.n, other.n
        if a.count(0) == 7 and b.count(0) == 7:
            x, y = sum(a), sum(b)
            k, f = _MUL[a.index(x)][b.index(y)]
            return _monomial(k, x * y * f, self.d * other.d)
        nz = [(k2, c2) for k2, c2 in enumerate(b) if c2]
        if not nz:
            return ZERO
        out = [0] * 8
        for k1, c1 in enumerate(a):
            if c1:
                row = _MUL[k1]
                for k2, c2 in nz:
                    k, f = row[k2]
                    out[k] += c1 * c2 * f
        return _reduced(out, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the tower of Galois norms."""
        a = self.n
        zeros = a.count(0)
        if zeros == 8:
            raise ZeroDivisionError("scalar tower: division by zero")
        if zeros == 7:
            # e_k * e_k is a rational r, so (x/d e_k)^-1 = d/(x r) e_k
            x = sum(a)
            k = a.index(x)
            xr = x * _MUL[k][k][1]
            return _monomial(k, self.d if xr > 0 else -self.d, abs(xr))
        y1 = self * self.conjugate()                    # in Q(sqrt2, sqrt3)
        y2 = y1 * y1.galois(flip_sqrt2=True)            # in Q(sqrt3)
        y3 = y2 * y2.galois(flip_sqrt3=True)            # in Q
        cofactor = self.conjugate() * y1.galois(flip_sqrt2=True) * y2.galois(flip_sqrt3=True)
        # cofactor / (y3.n[0] / y3.d).  The norm y3 is the product of the
        # 8 complex embeddings, which pair off into conjugates, so it is > 0.
        return _reduced([x * y3.d for x in cofactor.n], cofactor.d * y3.n[0])

    def galois(self, flip_i: bool = False, flip_sqrt2: bool = False, flip_sqrt3: bool = False):
        n = list(self.n)
        if flip_i:
            for k in _HAS_I:
                n[k] = -n[k]
        if flip_sqrt2:
            for k in _HAS_S2:
                n[k] = -n[k]
        if flip_sqrt3:
            for k in _HAS_S3:
                n[k] = -n[k]
        return _raw(tuple(n), self.d)

    def conjugate(self) -> "Scalar":
        """Complex conjugation; fixes the real subfield Q(sqrt2, sqrt3)."""
        return self.galois(flip_i=True)

    # -- predicates and conversions -------------------------------------

    def __bool__(self):
        return any(self.n)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        # a rational scalar hashes like its Fraction (so like an int when
        # d == 1), keeping hash consistent with == across coercion
        if self.is_rational():
            return hash(self.rational())
        return hash((self.n, self.d))

    def is_rational(self) -> bool:
        return not any(self.n[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return Fraction(self.n[0], self.d)

    def _fractions(self) -> tuple:
        """The 8 rational coordinates, in storage order."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        terms = []
        for q, name in zip(self._fractions(), BASIS_NAMES):
            if not q:
                continue
            if name == "1":
                terms.append(str(q))
            elif q == 1:
                terms.append(name)
            elif q == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{q}*{name}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Scalar({self})"

    def to_json(self) -> list:
        return [_fraction_str(q) for q in self._fractions()]


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    return NotImplemented


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def rational(p, q=1) -> Scalar:
    return Scalar.from_fraction(Fraction(p, q))


ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)
I = Scalar.basis_element(1)
SQRT2 = Scalar.basis_element(2)
SQRT3 = Scalar.basis_element(3)
SQRT6 = Scalar.basis_element(6)
