"""Second-order integrability obstruction for the Einstein deformations
of the flag manifold.

Works in the unitary 3x3 frame (h1, h2, h3, e1, ..., e6) with the inner
product making (e_i, sqrt2 h_j) orthonormal.  The infinitesimal Einstein
deformations are parametrized by traceless skew-hermitian matrices xi via
nine coordinate functions v1..v3, x1..x6; the deformation tensor is

    h = v3 (e1 (x) e1 + e2 (x) e2) + v2 (e3 (x) e3 + e4 (x) e4)
      + v1 (e5 (x) e5 + e6 (x) e6).

Derivatives reduce to finite bracket computations: the left-invariant
derivative of the coordinate function of Z along e is the coordinate
function of [e, Z] (this global sign choice is fixed once; flipping it
negates every degree-1 function and leaves the pairing unchanged), and
the torsion correction acts through the 3-form Psi^- as a derivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from . import linalg
from .exterior import _permutation_sign, derivation_action, form_add
from .lie import build_space
from .scalars import I, Scalar, rational
from .sympoly import (
    NGENS,
    SymPoly,
    det_cubic,
    eliminate_v3,
    generators,
    gram_su3,
    reduce_v_cubic,
    sym_inner,
)

M_DIM = 6
_GENS = generators()


@lru_cache(maxsize=1)
def _frame():
    """The unitary frame: 3x3 matrices of h1..h3 and e1..e6."""
    su3 = build_space("flag").algebra.basis_matrices  # (t1, t2, e1..e6)
    h_mats = tuple(linalg.from_entries(3, {(k, k): I}) for k in range(3))
    return h_mats, su3[2:]


def _ip_u3(x, y) -> Scalar:
    # -(1/2) tr extends -(1/12)B of su(3) and makes (e_i, sqrt2 h_j) orthonormal.
    return rational(-1, 2) * linalg.trace_product(x, y)


def _coords_u3(m) -> tuple:
    """Coordinates of a u(3) matrix in the (h, e) basis."""
    h_mats, e_mats = _frame()
    h_coeffs = [(_ip_u3(m, h) * rational(2)) for h in h_mats]
    e_coeffs = [_ip_u3(m, e) for e in e_mats]
    recon = linalg.lin_comb(h_coeffs + e_coeffs, h_mats + e_mats)
    if not linalg.mat_eq(recon, m):
        raise ValueError("matrix is not in the unitary frame span")
    return tuple(h_coeffs), tuple(e_coeffs)


def coordinate_poly(m) -> SymPoly:
    """The coordinate function <xi*, m> as a linear polynomial."""
    h_coeffs, e_coeffs = _coords_u3(m)
    out = SymPoly()
    for k, c in enumerate(h_coeffs):
        if c:
            out = out + _GENS[k].scale(c)
    for k, c in enumerate(e_coeffs):
        if c:
            out = out + _GENS[3 + k].scale(c)
    return out


def directional_derivative(e_index: int, gen_index: int, sign: int = 1) -> SymPoly:
    """Derivative of the coordinate function of the target basis vector
    along the frame direction e_{e_index+1}: the coordinate function of
    sign * [e, target]."""
    h_mats, e_mats = _frame()
    target = h_mats[gen_index] if gen_index < 3 else e_mats[gen_index - 3]
    br = linalg.commutator(e_mats[e_index], target)
    p = coordinate_poly(br)
    return p if sign == 1 else -p


@lru_cache(maxsize=2)
def _gen_derivatives(sign: int = 1) -> tuple:
    return tuple(
        tuple(directional_derivative(e, g, sign) for g in range(9)) for e in range(M_DIM)
    )


def poly_derivative(e_index: int, p: SymPoly, sign: int = 1) -> SymPoly:
    """Leibniz extension of the coordinate-function derivatives."""
    derivs = _gen_derivatives(sign)[e_index]
    return sum((p.partial(k) * d for k, d in enumerate(derivs)), SymPoly())


Tensor = dict  # dict[index tuple, SymPoly]


def _cached_by_sign(fn):
    """lru_cache(maxsize=2) over the sign convention, keyed on its value
    however it is passed, so that fn() and fn(1) share one entry."""
    cached = lru_cache(maxsize=2)(fn)

    @wraps(fn)
    def call(sign: int = 1):
        return cached(sign)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def h_hat(sign: int = 1) -> Tensor:
    """The deformation 2-tensor in the orthonormal frame."""
    v1, v2, v3 = (_GENS[k] if sign == 1 else -_GENS[k] for k in range(3))
    return {
        (0, 0): v3,
        (1, 1): v3,
        (2, 2): v2,
        (3, 3): v2,
        (4, 4): v1,
        (5, 5): v1,
    }


def _psi_lookup():
    space = build_space("flag")
    psi = {}
    for key, c in space.psi_minus:
        for perm in itertools.permutations(range(3)):
            signed = c if _permutation_sign(perm) == 1 else -c
            psi[tuple(key[p] for p in perm)] = signed
    return psi


@lru_cache(maxsize=1)
def a_endomorphisms() -> tuple:
    """A_X = X -| Psi^- as a skew endomorphism of m, for X = e_1..e_6;
    entries A[X][w][b] = Psi^-(e_X, e_b, e_w)."""
    psi = _psi_lookup()
    return tuple(
        linalg.from_entries(M_DIM, {(w, b): c for (k, b, w), c in psi.items() if k == x and c})
        for x in range(M_DIM)
    )


def a_action(x_index: int, tensor: Tensor) -> Tensor:
    """Derivation action of A_{e_{x_index+1}} on a tensor with polynomial
    coefficients."""
    return derivation_action(a_endomorphisms()[x_index], tensor)


def _half_torsion(i: int, tensor: Tensor) -> Tensor:
    """The torsion correction (1/2) A_{e_{i+1}}(tensor)."""
    half = rational(1, 2)
    return {key: coeff.scale(half) for key, coeff in a_action(i, tensor).items()}


def tensor_derivative(e_index: int, tensor: Tensor, sign: int = 1) -> Tensor:
    out: Tensor = {}
    for key, coeff in tensor.items():
        d = poly_derivative(e_index, coeff, sign)
        if d:
            out[key] = d
    return out


@_cached_by_sign
def nabla_h(sign: int = 1) -> dict:
    """Full covariant derivative: entries (i, k, l) with
    nabla_h[(i, k, l)] = (e_i-component of the derivative) at slot (k, l),
    computed as the invariant derivative plus half the torsion correction.
    Symmetric in (k, l)."""
    hh = h_hat(sign)
    out: dict = {}
    for i in range(M_DIM):
        t = form_add(tensor_derivative(i, hh, sign), _half_torsion(i, hh))
        out.update(((i,) + key, coeff) for key, coeff in t.items())
    return out


def nabla_h_entry(i: int, k: int) -> list:
    """Vector-valued entry: list over l of the coefficient polynomial."""
    table = nabla_h()
    return [table.get((i, k, l), SymPoly.zero()) for l in range(M_DIM)]


@_cached_by_sign
def obstruction_terms(sign: int = 1) -> tuple:
    """The three scalar invariants of the obstruction integrand, reduced to
    the canonical representatives modulo the trace relation."""
    hh = h_hat(sign)
    table = nabla_h(sign)

    i0 = SymPoly.zero()
    for a in range(M_DIM):
        c = hh.get((a, a))
        if c:
            i0 = i0 + c * c * c

    def entry(i, k, l):
        return table.get((i, k, l))

    i1 = SymPoly.zero()
    i2 = SymPoly.zero()
    for (i, j), hij in hh.items():
        acc1 = SymPoly.zero()
        acc2 = SymPoly.zero()
        for k in range(M_DIM):
            for l in range(M_DIM):
                a = entry(i, k, l)
                b = entry(j, k, l)
                if a and b:
                    acc1 = acc1 + a * b
                c = entry(k, i, l)
                if c and b:
                    acc2 = acc2 + c * b
        i1 = i1 + hij * acc1
        i2 = i2 + hij * acc2
    return reduce_v_cubic(i0), reduce_v_cubic(i1), reduce_v_cubic(i2)


def integrand(sign: int = 1) -> SymPoly:
    """(1/2)(2E I0 - 3 I1 + 6 I2) with the Einstein constant E = 5 from
    the catalog."""
    e_const = build_space("flag").einstein_constant
    i0, i1, i2 = obstruction_terms(sign)
    half = rational(1, 2)
    return (
        i0.scale(2 * e_const) - i1.scale(3) + i2.scale(6)
    ).scale(half)


def obstruction_pairing() -> Scalar:
    """Symmetric-cube pairing of the integrand against the invariant cubic."""
    return sym_inner(integrand(), det_cubic())


def pairing_breakdown() -> dict:
    """Audit subtotals: the pure v-cubic block and the x^2 v block pair
    separately (the Gram matrix is block diagonal)."""
    full = integrand()
    det = det_cubic()
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
    t1, t2, t3 = Fraction(t1), Fraction(t2), Fraction(t3)
    if t1 + t2 + t3 != 0:
        raise ValueError("canonical-variation coefficients must sum to zero")
    coeffs = {
        (0, 0): t1, (1, 1): t1,
        (2, 2): t2, (3, 3): t2,
        (4, 4): t3, (5, 5): t3,
    }
    tensor = {k: SymPoly.constant(v) for k, v in coeffs.items() if v}
    nabla = {
        (i,) + key: coeff for i in range(M_DIM) for key, coeff in _half_torsion(i, tensor).items()
    }
    for a in range(M_DIM):
        for b in range(M_DIM):
            for c in range(M_DIM):
                s = SymPoly.zero()
                for key in ((a, b, c), (b, c, a), (c, a, b)):
                    term = nabla.get(key)
                    if term:
                        s = s + term
                if s:
                    return False
    return True


# ---------------------------------------------------------------------------
# Rigidity verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    pairing_nonzero: bool
    critical_points_exist: bool
    rigid: bool
    status: str


def no_critical_point_certificate() -> bool:
    """Whether the invariant cubic F on the traceless slice satisfies

        sum_ab G_ab d_aF d_bF = (4/3) |xi|^4,   |xi|^2 = 2 sum v_i^2 + sum x_k^2,

    exactly, with v3 = -v1 - v2 eliminated and a, b running over
    (v1, v2, x1..x6), G the Gram matrix of these coordinates.

    G is positive definite there (its v-block [[1/3, -1/6], [-1/6, 1/3]]
    has determinant 1/12), so the left side vanishes only where dF = 0;
    |xi|^2 is a positive sum of squares, so the right side vanishes only
    at xi = 0.  The identity therefore proves dF != 0 for every nonzero
    xi.  Why it holds: dF is proportional to the traceless part P of
    adj(xi), and for traceless xi Cayley-Hamilton gives
    P = xi^2 - (tr(xi^2)/3) Id and tr(P^2) = tr(xi^2)^2 / 6, while
    |xi|^2 = -tr(xi^2)/2.
    """
    f = eliminate_v3(det_cubic())
    gram = gram_su3()
    slice_gens = [k for k in range(NGENS) if k != 2]
    grad = {a: f.partial(a) for a in slice_gens}
    lhs = SymPoly()
    for a in slice_gens:
        for b in slice_gens:
            if gram[a][b]:
                lhs = lhs + (grad[a] * grad[b]).scale(gram[a][b])
    v_sq = sum((g * g for g in _GENS[:3]), SymPoly())
    x_sq = sum((g * g for g in _GENS[3:]), SymPoly())
    norm_sq = eliminate_v3(v_sq.scale(2) + x_sq)
    return lhs == (norm_sq * norm_sq).scale(Fraction(4, 3))


def rigidity_verdict(pairing: Scalar | None = None) -> RigidityReport:
    """Second-order rigidity decision.

    The deformations are unobstructed only at critical points of the
    invariant cubic.  On the traceless slice its gradient is the
    traceless part of adj(xi), so criticality means that this part
    vanishes; the exact identity of no_critical_point_certificate rules
    that out for every nonzero xi.  A nonzero pairing therefore
    obstructs every nonzero deformation.
    """
    if pairing is None:
        pairing = obstruction_pairing()
    if not no_critical_point_certificate():
        raise ArithmeticError("criticality certificate failed; internal inconsistency")
    nonzero = bool(pairing)
    rigid = nonzero
    status = "rigid" if rigid else "undetermined-by-second-order"
    return RigidityReport(
        pairing_nonzero=nonzero,
        critical_points_exist=False,
        rigid=rigid,
        status=status,
    )
