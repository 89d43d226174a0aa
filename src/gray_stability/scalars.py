"""Exact arithmetic in the degree-8 field Q(i, sqrt2, sqrt3).

Every scalar occurring in the catalog geometries, representation matrices
and obstruction polynomials lives in this field, so equality tests are
exact and no floating point is used anywhere in decision logic.

A scalar is stored as eight integer numerators ``n`` over one positive
common denominator ``d`` (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2; FLINT's ``nf_elem``), always in lowest terms:
``gcd(*n, d) == 1``, and zero is ``((0,) * 8, 1)``.  The form is
canonical, so equality is tuple equality.  Addition skips the
cross-multiplication when the denominators agree, a product is one pass
of the basis multiplication table over ints followed by one gcd, and the
inverse divides the Galois-norm cofactor by the rational norm once.
Fractions appear only at the edges: the constructor, ``from_fraction``
and ``rational()``.  JSON and ``str`` read the numerators directly: each
coordinate x/d is put in lowest terms with one gcd.

Most scalars the pipeline meets are monomials, one rational times one
basis element, or zero: the catalog's basis matrices, weight frames and
structure constants are, and nearly every product, sum, negation and
inverse that the pipeline forms from them is of monomials or zero (an
int operand counts as the scalar it is coerced to).  A test holds a cold
``reproduce-all`` to that premise as a bound: at least 95 % of its
products have two monomial-or-zero operands.  So each scalar also
carries a ``tag``, set once wherever it is made: the index of its only
nonzero coordinate, ``_ZERO_TAG`` or ``_GENERAL_TAG``.  Only the
constructor and the general paths read it off ``n``; the other paths
know it.  The operations branch on the tags instead of scanning ``n``:
a product of two monomials is one lookup in the multiplication table, a
sum of two on the same basis element one integer operation (``ZERO``
when they cancel), a difference the sum with the negation, the inverse
of a monomial a division by e_k * e_k, a rational, and a zero operand
returns at once.

Those monomials take few values, so they are hash-consed (Goto, 1974;
Filliatre and Conchon, 2006): ``_monomial(k, c, d)``, which makes every
monomial of a product, a same-basis sum, an inverse or a negation, keeps
what it makes in one table keyed by the request (k, c, d).  A request
seen before returns the object made then; a new one not in lowest terms
returns the object of its lowest-terms request, which it makes at most
once.  Few distinct values are requested: the same test holds the table
that a cold ``reproduce-all`` leaves below a quarter of its cap.  The table
stops growing at ``MONOMIAL_CAP`` entries and evicts nothing: past the
cap a request builds its monomial afresh, the same value, so a run does
not depend on what ran before it.  A shared scalar is never changed:
only the constructors write ``n``, ``d`` and ``tag``.
Each path returns the same canonical ``(n, d)`` as the general one, and
the tag is a function of ``n``, so equality, hashing and JSON mean what
they meant on ``(n, d)`` alone; nothing compares scalars by identity.
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

# The tag of a scalar says which of three shapes its numerators n have: a
# tag below 8 is the index of the only nonzero coordinate (a monomial,
# one rational times one basis element), and the two tags above mark zero
# and every other scalar.
_ZERO_TAG = 8
_GENERAL_TAG = 9


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


def _tag(n: tuple) -> int:
    """The tag of the 8 int numerators n."""
    zeros = n.count(0)
    if zeros == 7:
        return n.index(sum(n))  # a monomial's sum is its nonzero coordinate
    return _ZERO_TAG if zeros == 8 else _GENERAL_TAG


def _raw(n: tuple, d: int, tag: int) -> "Scalar":
    """Trusted 8-tuple of ints over a positive d, already in lowest terms,
    and its tag."""
    s = _new(Scalar)
    s.n = n
    s.d = d
    s.tag = tag
    return s


def _reduced(n: list, d: int) -> "Scalar":
    """The scalar n/d for 8 int numerators and a positive int d."""
    n = tuple(n)
    tag = _tag(n)
    if tag == _ZERO_TAG:
        return ZERO
    if d != 1:
        g = gcd(*n, d)
        if g != 1:
            n = tuple([x // g for x in n])
            d //= g
    return _raw(n, d, tag)


# The monomial table, request (k, c, d) -> monomial, and its bound.
MONOMIAL_CAP = 4096
_MONOMIALS: dict = {}


def _monomial(k: int, c: int, d: int) -> "Scalar":
    """The scalar (c/d) * basis element k, for an int c != 0 and a
    positive int d."""
    s = _MONOMIALS.get((k, c, d))
    if s is not None:
        return s
    g = gcd(c, d)
    if g != 1:
        s = _monomial(k, c // g, d // g)  # the lowest-terms request's object
    else:
        n = _ZEROS.copy()
        n[k] = c
        s = _raw(tuple(n), d, k)
    if len(_MONOMIALS) < MONOMIAL_CAP:
        _MONOMIALS[k, c, d] = s
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
    common denominator d, in lowest terms, and the tag of n (``_tag``)."""

    __slots__ = ("n", "d", "tag")

    def __init__(self, coeffs):
        qs = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
        if len(qs) != 8:
            raise ValueError("scalar needs exactly 8 coordinates")
        # each Fraction is in lowest terms, so over the lcm of the
        # denominators the numerators already share no factor with d
        d = lcm(*(q.denominator for q in qs))
        self.n = tuple(q.numerator * (d // q.denominator) for q in qs)
        self.d = d
        self.tag = _tag(self.n)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "Scalar":
        if type(q) is int:
            x, d = q, 1
        else:
            q = Fraction(q)
            x, d = q.numerator, q.denominator
        return _raw((x, 0, 0, 0, 0, 0, 0, 0), d, 0 if x else _ZERO_TAG)

    @staticmethod
    def basis_element(k: int) -> "Scalar":
        return _monomial(k, 1, 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ta, tb = self.tag, other.tag
        if ta == tb and ta < 8:
            return _monomial_sum(ta, self.n[ta], self.d, other.n[ta], other.d)
        if tb == _ZERO_TAG:
            return self
        if ta == _ZERO_TAG:
            return other
        a, b, ad, bd = self.n, other.n, self.d, other.d
        if ad == bd:
            return _reduced([x + y for x, y in zip(a, b)], ad)
        return _reduced([x * bd + y * ad for x, y in zip(a, b)], ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        tag = self.tag
        if tag < 8:
            return _monomial(tag, -self.n[tag], self.d)
        if tag == _ZERO_TAG:
            return self
        return _raw(tuple([-x for x in self.n]), self.d, tag)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ta, tb = self.tag, other.tag
        if ta < 8 and tb < 8:
            k, f = _MUL[ta][tb]
            return _monomial(k, self.n[ta] * other.n[tb] * f, self.d * other.d)
        if ta == _ZERO_TAG or tb == _ZERO_TAG:
            return ZERO
        nz = [(k2, c2) for k2, c2 in enumerate(other.n) if c2]
        out = [0] * 8
        for k1, c1 in enumerate(self.n):
            if c1:
                row = _MUL[k1]
                for k2, c2 in nz:
                    k, f = row[k2]
                    out[k] += c1 * c2 * f
        return _reduced(out, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the tower of Galois norms."""
        tag = self.tag
        if tag < 8:
            # e_k * e_k is a rational r, so (x/d e_k)^-1 = d/(x r) e_k
            xr = self.n[tag] * _MUL[tag][tag][1]
            return _monomial(tag, self.d if xr > 0 else -self.d, abs(xr))
        if tag == _ZERO_TAG:
            raise ZeroDivisionError("scalar tower: division by zero")
        conj = self.conjugate()
        y1 = self * conj                                # in Q(sqrt2, sqrt3)
        y1_flip = y1.galois(flip_sqrt2=True)
        y2 = y1 * y1_flip                               # in Q(sqrt3)
        y2_flip = y2.galois(flip_sqrt3=True)
        y3 = y2 * y2_flip                               # in Q
        cofactor = conj * y1_flip * y2_flip
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
        return _raw(tuple(n), self.d, self.tag)  # a sign flip keeps the tag

    def conjugate(self) -> "Scalar":
        """Complex conjugation; fixes the real subfield Q(sqrt2, sqrt3)."""
        return self.galois(flip_i=True)

    # -- predicates and conversions -------------------------------------

    def __bool__(self):
        return self.tag != _ZERO_TAG

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.tag == other.tag and self.d == other.d and self.n == other.n

    def __hash__(self):
        # a rational scalar hashes like its Fraction (so like an int when
        # d == 1), keeping hash consistent with == across coercion
        if self.is_rational():
            return hash(self.rational())
        return hash((self.n, self.d))

    def is_rational(self) -> bool:
        return self.tag == 0 or self.tag == _ZERO_TAG

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return Fraction(self.n[0], self.d)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        terms = []
        d = self.d
        for x, name in zip(self.n, BASIS_NAMES):
            if not x:
                continue
            if name == "1":
                terms.append(_ratio_str(x, d))
            elif x == d:
                terms.append(name)
            elif x == -d:
                terms.append(f"-{name}")
            else:
                terms.append(f"{_ratio_str(x, d)}*{name}")
        return join_signed(terms)

    def __repr__(self):
        return f"Scalar({self})"

    def to_json(self) -> list:
        return [_ratio_str(x, self.d) for x in self.n]


def _coerce(x):
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    return NotImplemented


def _ratio_str(x: int, d: int) -> str:
    """x/d for a positive d, in lowest terms: "p/q", or "p" when q is 1."""
    g = gcd(x, d)
    return f"{x // g}/{d // g}" if g != d else str(x // g)


def join_signed(terms: list) -> str:
    """The terms joined by " + ", or by " - " in place of a term's leading
    minus sign; "0" when there are none."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def rational(p, q=1) -> Scalar:
    return Scalar.from_fraction(Fraction(p, q))


ZERO = Scalar.from_fraction(0)
ONE = Scalar.from_fraction(1)
I = Scalar.basis_element(1)
SQRT2 = Scalar.basis_element(2)
SQRT6 = Scalar.basis_element(6)
