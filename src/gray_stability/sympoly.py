"""Polynomials in the nine coordinate functions v1, v2, v3, x1, ..., x6.

The nine generators are the tuple GENERATORS.  The coordinate matrix xi
is stated once, in coordinate_matrix, and the invariant cubic is i det(xi).

The free commutative algebra is used; the trace relation v1 + v2 + v3 = 0
is NOT quotiented out.  Well-definedness of the symmetric-power inner
product under that relation comes from the degenerate Gram matrix, whose
kernel is spanned by v1 + v2 + v3.

Every sum of polynomials goes through one accumulator, SymPoly.sum, which
adds each term into a single dict with linalg.add_into; ``+`` is its
two-operand case.

The pairing of two degree-k monomials is a permanent of Gram entries,
taken in ints over the integral Gram matrix D*G and divided by D**k once.
D = 6 and D*G are typed as integers, not derived from a Fraction Gram.
It is not memoized: the pairings a command takes share no monomial pair.
"""

from __future__ import annotations

import itertools
from operator import add

from .linalg import add_into, det3
from .scalars import I, ONE, ZERO, Scalar, join_signed, rational

NGENS = 9
GEN_NAMES = ("v1", "v2", "v3", "x1", "x2", "x3", "x4", "x5", "x6")

Monomial = tuple  # length-9 tuple of non-negative ints


class SymPoly:
    """Sparse polynomial over the scalar tower; zero coefficients are
    never stored, so equality testing is exact."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(mono)] = c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.terms == other.terms

    @staticmethod
    def sum(polys) -> "SymPoly":
        """The sum of polys, every term added into one dict."""
        out: dict = {}
        for p in polys:
            for m, c in p.terms.items():
                add_into(out, m, c)
        return _of(out)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        return SymPoly.sum((self, other))

    def __neg__(self) -> "SymPoly":
        return _of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymPoly):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    add_into(out, tuple(map(add, m1, m2)), c1 * c2)
            return _of(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "SymPoly":
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        if not c:
            return SymPoly()
        return _of({m: c * v for m, v in self.terms.items()})

    def partial(self, k: int) -> "SymPoly":
        """Partial derivative along the k-th generator."""
        return _of({m[:k] + (m[k] - 1,) + m[k + 1 :]: c * m[k] for m, c in self.terms.items() if m[k]})

    def __str__(self):
        parts = []
        for m in sorted(self.terms, key=_grlex_key):
            c = self.terms[m]
            names = [
                GEN_NAMES[k] if e == 1 else f"{GEN_NAMES[k]}^{e}"
                for k, e in enumerate(m)
                if e
            ]
            body = "*".join(names)
            cs = str(c)
            if not names:
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            elif "+" in cs or " - " in cs:
                parts.append(f"({cs})*{body}")
            else:
                parts.append(f"{cs}*{body}")
        return join_signed(parts)

    def __repr__(self):
        return f"SymPoly({self})"


def _of(terms: dict) -> SymPoly:
    """The SymPoly on terms, a dict that stores no zero coefficient."""
    p = SymPoly()
    p.terms = terms
    return p


def _grlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in m))


GENERATORS = tuple(SymPoly({tuple(int(k == g) for k in range(NGENS)): ONE}) for g in range(NGENS))
V1, V2, V3 = GENERATORS[:3]
X = GENERATORS[3:]


# D times the Gram matrix of the coordinate functions on the traceless
# subalgebra, D = 6: <x_i, x_j> = delta, <x_i, v_j> = 0, <v_i, v_i> = 1/3,
# <v_i, v_j> = -1/6.
GRAM_D = 6
INTEGRAL_GRAM = tuple(
    tuple((2 if i == j else -1) if i < 3 and j < 3 else (6 if i == j else 0) for j in range(NGENS))
    for i in range(NGENS)
)


def _monomial_pairing(m1: Monomial, m2: Monomial) -> Scalar:
    """<m1, m2> on the symmetric power: the sum over permutations of the
    Gram products of the two monomials' factors, taken in ints over D*G
    and divided by D**k once."""
    rows = [INTEGRAL_GRAM[k] for k, e in enumerate(m1) for _ in range(e)]
    acc = 0
    for perm in itertools.permutations([k for k, e in enumerate(m2) for _ in range(e)]):
        prod = 1
        for row, b in zip(rows, perm):
            prod *= row[b]
            if not prod:
                break
        acc += prod
    return rational(acc, GRAM_D ** len(rows))


def sym_inner(p: SymPoly, q: SymPoly) -> Scalar:
    """Inner product on the k-th symmetric power:
    <a_1...a_k, b_1...b_k> = sum over permutations of prod <a_i, b_sigma(i)>,
    extended bilinearly.  Both arguments must be homogeneous of equal degree.
    """
    dp = {sum(m) for m in p.terms}
    dq = {sum(m) for m in q.terms}
    if len(dp) > 1 or len(dq) > 1:
        raise ValueError("sym_inner needs homogeneous arguments")
    if dp and dq and dp != dq:
        raise ValueError(f"degree mismatch: {dp} vs {dq}")
    total = ZERO
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            pairing = _monomial_pairing(m1, m2)
            if pairing:
                total = total + (c1 * c2) * pairing
    return total


def coordinate_matrix(v: tuple = (V1, V2, V3)) -> tuple:
    """xi, the traceless skew-hermitian 3x3 matrix of the nine coordinate
    functions, as SymPolys: 2i v_k on the diagonal, x1 + i x2, x3 + i x4,
    x5 + i x6 above it and -x1 + i x2, -x3 + i x4, -x5 + i x6 below, with
    the polynomials v in place of (v1, v2, v3).  The coordinate function of
    a u(3) frame matrix Z (i E_kk or e_k) is -(1/2) tr(xi Z)."""
    d = [w.scale(2 * I) for w in v]
    (r1, i1), (r2, i2), (r3, i3) = ((X[k], X[k + 1].scale(I)) for k in (0, 2, 4))
    return (
        (d[0], r1 + i1, r2 + i2),
        (i1 - r1, d[1], r3 + i3),
        (i2 - r2, i3 - r3, d[2]),
    )


def det_cubic(xi: tuple) -> SymPoly:
    """The invariant cubic i det(xi) on the traceless skew-hermitian 3x3
    matrices, xi a coordinate matrix; the pairing takes
    coordinate_matrix(), the criticality certificate the slice
    (v1, v2, -v1 - v2).  On the generators it is

        8 v1 v2 v3 + 2 (x2 x3 x5 + x1 x3 x6 + x2 x4 x6 - x1 x4 x5)
        - 2 (x1^2 + x2^2) v3 - 2 (x3^2 + x4^2) v2 - 2 (x5^2 + x6^2) v1.
    """
    return det3(xi) * I


def reduce_v_cubic(p: SymPoly) -> SymPoly:
    """Canonical representative modulo the trace relation: the pure-v part
    must be a symmetric cubic a e1^3 + b e1 e2 + c e3 in the elementary
    symmetric polynomials of v1, v2, v3, and on e1 = v1 + v2 + v3 = 0 it is
    c v1 v2 v3; mixed monomials are untouched."""
    pure = {m: c for m, c in p.terms.items() if not any(m[3:])}
    v123 = (1, 1, 1) + (0,) * 6
    a = pure.get((3,) + (0,) * 8, ZERO)
    b = pure.get((2, 1) + (0,) * 7, ZERO) - a * 3
    c = pure.get(v123, ZERO) - a * 6 - b * 3
    e1 = V1 + V2 + V3
    e2 = SymPoly.sum((V1 * V2, V1 * V3, V2 * V3))
    cubic = SymPoly({v123: c})
    if _of(pure) != SymPoly.sum(((e1 * e1 * e1).scale(a), (e1 * e2).scale(b), cubic)):
        raise ValueError("pure-v part is not a symmetric cubic; no canonical form")
    return SymPoly({m: x for m, x in p.terms.items() if any(m[3:])}) + cubic
