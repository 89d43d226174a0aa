"""Exact arithmetic in the degree-8 field Q(i, sqrt2, sqrt3).

Every scalar occurring in the catalog geometries, representation matrices
and obstruction polynomials lives in this field, so equality tests are
exact and no floating point is used anywhere in decision logic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
    "SQRT3",
    "SQRT6",
    "J",
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

_F0 = Fraction(0)
_F1 = Fraction(1)


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


class Scalar:
    """An element of Q(i, sqrt2, sqrt3), stored as 8 rational coordinates."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
        if len(self.c) != 8:
            raise ValueError("scalar needs exactly 8 coordinates")

    # -- construction -------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Scalar":
        # trusted 8-tuple of Fractions; used by the arithmetic fast paths
        s = object.__new__(cls)
        s.c = coeffs
        return s

    @staticmethod
    def from_fraction(q) -> "Scalar":
        return Scalar((Fraction(q), _F0, _F0, _F0, _F0, _F0, _F0, _F0))

    @staticmethod
    def basis_element(k: int) -> "Scalar":
        coeffs = [_F0] * 8
        coeffs[k] = _F1
        return Scalar(coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return Scalar._raw(tuple(x + y if y else x for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return Scalar._raw(tuple(x - y if y else x for x, y in zip(a, b)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar._raw(tuple(-x for x in self.c))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        out = [_F0] * 8
        for k1 in range(8):
            c1 = a[k1]
            if not c1:
                continue
            row = _MUL[k1]
            for k2 in range(8):
                c2 = b[k2]
                if not c2:
                    continue
                k, f = row[k2]
                out[k] += c1 * c2 * f
        return Scalar._raw(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the tower of Galois norms."""
        if not self:
            raise ZeroDivisionError("scalar tower: division by zero")
        y1 = self * self.conjugate()                    # in Q(sqrt2, sqrt3)
        y2 = y1 * y1.galois(flip_sqrt2=True)            # in Q(sqrt3)
        y3 = y2 * y2.galois(flip_sqrt3=True)            # in Q
        norm = y3.c[0]
        cofactor = self.conjugate() * y1.galois(flip_sqrt2=True) * y2.galois(flip_sqrt3=True)
        return Scalar._raw(tuple(x / norm for x in cofactor.c))

    def galois(self, flip_i: bool = False, flip_sqrt2: bool = False, flip_sqrt3: bool = False):
        coeffs = list(self.c)
        if flip_i:
            for k in _HAS_I:
                coeffs[k] = -coeffs[k]
        if flip_sqrt2:
            for k in _HAS_S2:
                coeffs[k] = -coeffs[k]
        if flip_sqrt3:
            for k in _HAS_S3:
                coeffs[k] = -coeffs[k]
        return Scalar._raw(tuple(coeffs))

    def conjugate(self) -> "Scalar":
        """Complex conjugation; fixes the real subfield Q(sqrt2, sqrt3)."""
        return self.galois(flip_i=True)

    # -- predicates and conversions -------------------------------------

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self.c[0]

    def real(self) -> "Scalar":
        return Scalar(tuple((x + y) / 2 for x, y in zip(self.c, self.conjugate().c)))

    def imag(self) -> "Scalar":
        return (self - self.real()) * MINUS_I

    # -- rendering -------------------------------------------------------

    def __str__(self):
        terms = []
        for q, name in zip(self.c, BASIS_NAMES):
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
        return [_fraction_str(q) for q in self.c]

    @staticmethod
    def from_json(data) -> "Scalar":
        return Scalar(tuple(Fraction(s) for s in data))


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
MINUS_I = -I
# Primitive cube root of unity (-1 + i*sqrt3)/2.
J = Scalar((Fraction(-1, 2), _F0, _F0, _F0, _F0, Fraction(1, 2), _F0, _F0))
