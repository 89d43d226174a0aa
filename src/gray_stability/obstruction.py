"""Second-order integrability obstruction for the Einstein deformations
of the flag manifold.

Works in the unitary 3x3 frame Z = (h1, h2, h3, e1, ..., e6), h_k = i E_kk,
with the inner product -(1/2) tr, which makes (e_i, sqrt2 h_j)
orthonormal.  The infinitesimal Einstein deformations are parametrized by
traceless skew-hermitian matrices xi via nine coordinate functions
v1..v3, x1..x6; the deformation tensor is

    h = v3 (e1 (x) e1 + e2 (x) e2) + v2 (e3 (x) e3 + e4 (x) e4)
      + v1 (e5 (x) e5 + e6 (x) e6).

Derivatives need no second bracket.  The left-invariant derivative of the
coordinate function of Z along e is the coordinate function of [e, Z],
and -(1/2) tr(xi [e, Z]) = -(1/2) tr([xi, e] Z), so e acts on every
linear function L of xi by L -> L([xi, e]).  h is linear in xi (a
deformation is an equivariant linear map), so its invariant derivative
along e is h([xi, e]), xi the coordinate matrix of ``sympoly``.  The sign
of this convention is fixed once; flipping it negates every degree-1
function and leaves the pairing unchanged (test_sign_convention_toggle).
The torsion correction is (1/2) A_X acting as a derivation, A_X the
flag's ``m_action`` block of X, the m-block of ad(X); nabla_h halves
H_HAT once for it.  A test ties A_X to X -| Psi^-, entry by entry.

The invariants I0 = tr(h^3), I1 and I2 are each one SymPoly.sum over the
nonzeros of h and of nabla h.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .exterior import derivation_action
from .lie import build_space
from .scalars import I, ZERO, Scalar, rational
from .sympoly import (
    GRAM_D,
    INTEGRAL_GRAM,
    NGENS,
    V1,
    V2,
    V3,
    SymPoly,
    coordinate_matrix,
    det_cubic,
    reduce_v_cubic,
    sym_inner,
)

M_DIM = 6

Tensor = dict  # dict[index tuple, SymPoly]


def canonical_variation(t1, t2, t3) -> Tensor:
    """t1 g|_(e1,e2) + t2 g|_(e3,e4) + t3 g|_(e5,e6) in the orthonormal
    frame, its zero coefficients left out."""
    return {(a, a): t for a, t in enumerate((t1, t1, t2, t2, t3, t3)) if t}


# The deformation 2-tensor in the orthonormal frame.
H_HAT: Tensor = canonical_variation(V3, V2, V1)


@lru_cache(maxsize=1)
def nabla_h() -> dict:
    """Full covariant derivative: entries (i, k, l) with
    nabla_h[(i, k, l)] = (e_i-component of the derivative) at slot (k, l),
    computed as the invariant derivative h([xi, e_i]), H_HAT with
    v_k = -(i/2) [xi, e_i]_kk, plus the torsion correction (1/2) A_{e_i}
    acting on H_HAT as a derivation.  Symmetric in (k, l)."""
    flag = build_space("flag")
    xi = linalg.nonzeros(coordinate_matrix())
    minus_half_i = I * rational(-1, 2)
    half_h = {key: p.scale(rational(1, 2)) for key, p in H_HAT.items()}
    out: dict = {}
    for i, e in enumerate(flag.algebra.basis_matrices[flag.h_dim :]):
        e = linalg.nonzeros(e)
        bracket = linalg.sum_of_products(((xi, e, False), (e, xi, True)))
        v1, v2, v3 = (bracket.get((k, k), SymPoly()).scale(minus_half_i) for k in range(3))
        t = derivation_action(flag.m_action[flag.h_dim + i], half_h)
        for key, d in canonical_variation(v3, v2, v1).items():
            linalg.add_into(t, key, d)
        out.update(((i,) + key, coeff) for key, coeff in t.items())
    return out


def nabla_h_entry(i: int, k: int) -> list:
    """Vector-valued entry: list over l of the coefficient polynomial."""
    table = nabla_h()
    return [table.get((i, k, l), SymPoly()) for l in range(M_DIM)]


def trace_cube(tensor: Tensor) -> SymPoly:
    """tr(t^3) = sum t_ab t_bc t_ca over the nonzeros of a 2-tensor."""
    return SymPoly.sum(
        tab * tbc * tca
        for (a, b), tab in tensor.items()
        for (p, c), tbc in tensor.items()
        if p == b and (tca := tensor.get((c, a)))
    )


@lru_cache(maxsize=1)
def obstruction_terms() -> tuple:
    """The three scalar invariants of the obstruction integrand,
    I0 = tr(h^3), I1 = h_ij <nabla_i h, nabla_j h> and
    I2 = h_ij (nabla_k h)_il (nabla_j h)_kl, each summed over the nonzeros
    of nabla_h and reduced to its canonical representative modulo the
    trace relation."""
    table = nabla_h()
    i1 = SymPoly.sum(
        hij * a * b
        for (i, j), hij in H_HAT.items()
        for (p, k, l), a in table.items()
        if p == i and (b := table.get((j, k, l)))
    )
    i2 = SymPoly.sum(
        hij * c * b
        for (i, j), hij in H_HAT.items()
        for (k, p, l), c in table.items()
        if p == i and (b := table.get((j, k, l)))
    )
    return reduce_v_cubic(trace_cube(H_HAT)), reduce_v_cubic(i1), reduce_v_cubic(i2)


@lru_cache(maxsize=1)
def integrand() -> SymPoly:
    """(1/2)(2E I0 - 3 I1 + 6 I2) with the Einstein constant E = 5 from
    the catalog."""
    e_const = build_space("flag").einstein_constant
    i0, i1, i2 = obstruction_terms()
    half = rational(1, 2)
    return (
        i0.scale(2 * e_const) - i1.scale(3) + i2.scale(6)
    ).scale(half)


def obstruction_pairing() -> Scalar:
    """Symmetric-cube pairing of the integrand against the invariant cubic."""
    return pairing_breakdown()["total"]


def pairing_breakdown() -> dict:
    """The symmetric-cube pairing of the integrand against the invariant
    cubic, with its audit subtotals: the pure v-cubic block and the x^2 v
    block pair separately (the Gram matrix is block diagonal)."""
    full = integrand()
    det = det_cubic(coordinate_matrix())
    vvv = SymPoly({m: c for m, c in full.terms.items() if not any(m[3:])})
    xxv = full - vvv
    parts = {
        "vvv": sym_inner(vvv, det),
        "xxv": sym_inner(xxv, det),
    }
    parts["total"] = parts["vvv"] + parts["xxv"]
    return parts


# ---------------------------------------------------------------------------
# Killing property of the canonical-variation tensors
# ---------------------------------------------------------------------------

def killing_check(t1, t2, t3) -> bool:
    """Whether the constant-coefficient tensor
    t1 g|_(e1,e2) + t2 g|_(e3,e4) + t3 g|_(e5,e6) satisfies the Killing
    equation (vanishing cyclic symmetrization of its covariant
    derivative).  Requires a trace-free triple."""
    t = [Fraction(x) for x in (t1, t2, t3)]
    if sum(t) != 0:
        raise ValueError("canonical-variation coefficients must sum to zero")
    tensor = canonical_variation(*map(Scalar.from_fraction, t))
    flag = build_space("flag")
    # constant coefficients: nabla_X t = (1/2) A_X t; the equation is homogeneous
    nabla = {
        (i,) + key: coeff
        for i, a in enumerate(flag.m_action[flag.h_dim :])
        for key, coeff in derivation_action(a, tensor).items()
    }
    return not any(
        nabla.get((a, b, c), ZERO) + nabla.get((b, c, a), ZERO) + nabla.get((c, a, b), ZERO)
        for a, b, c in itertools.product(range(M_DIM), repeat=3)
    )


# ---------------------------------------------------------------------------
# Rigidity verdict
# ---------------------------------------------------------------------------

def no_critical_point_certificate() -> bool:
    """Whether the invariant cubic F on the traceless slice satisfies

        sum_ab G_ab d_aF d_bF = (4/3) |xi|^4,   |xi|^2 = -(1/2) tr(xi^2),

    exactly, both sides written on the slice v3 = -v1 - v2 itself (F = i det
    xi and xi take the triple (v1, v2, -v1 - v2), so nothing is eliminated)
    and a, b running over (v1, v2, x1..x6), G the Gram matrix of these
    coordinates.

    G is positive definite there (its v-block [[1/3, -1/6], [-1/6, 1/3]]
    has determinant 1/12), so the left side vanishes only where dF = 0;
    |xi|^2 = 2 sum v_i^2 + sum x_k^2 is a positive sum of squares, so the
    right side vanishes only at xi = 0.  The identity therefore proves
    dF != 0 for every nonzero xi.  Why it holds: dF is proportional to the
    traceless part P of adj(xi), and for traceless xi Cayley-Hamilton
    gives P = xi^2 - (tr(xi^2)/3) Id and tr(P^2) = tr(xi^2)^2 / 6.
    """
    xi = coordinate_matrix((V1, V2, -(V1 + V2)))
    f = det_cubic(xi)
    slice_gens = [k for k in range(NGENS) if k != 2]
    grad = {a: f.partial(a) for a in slice_gens}
    # D * lhs over the integral Gram, each unordered pair once
    lhs = SymPoly.sum(
        (grad[a] * grad[b]).scale(g if a == b else 2 * g)
        for i, a in enumerate(slice_gens)
        for b in slice_gens[i:]
        if (g := INTEGRAL_GRAM[a][b])
    )
    norm_sq = SymPoly.sum(xi[a][b] * xi[b][a] for a in range(3) for b in range(3)).scale(rational(-1, 2))
    return lhs == (norm_sq * norm_sq).scale(Fraction(4, 3) * GRAM_D)


def rigidity_verdict(pairing: Scalar) -> dict:
    """Second-order rigidity decision.

    The deformations are unobstructed only at critical points of the
    invariant cubic.  On the traceless slice its gradient is the
    traceless part of adj(xi), so criticality means that this part
    vanishes; the exact identity of no_critical_point_certificate rules
    that out for every nonzero xi.  A nonzero pairing therefore
    obstructs every nonzero deformation.  Returns the verdict document.
    """
    if not no_critical_point_certificate():
        raise ArithmeticError("criticality certificate failed; internal inconsistency")
    rigid = bool(pairing)
    return {
        "pairing_nonzero": rigid,
        "critical_points_exist": False,
        "rigid": rigid,
        "status": "rigid" if rigid else "undetermined-by-second-order",
    }
