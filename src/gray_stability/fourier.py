"""Equivariant homomorphism spaces and the prototypical codifferential.

A Fourier coefficient is an explicit matrix F from an irreducible module
into an isotropy module of (1,1)-type.  The codifferential acts on it by

    delta(F) = sum_a  e_a -| (F o rho(e_a))

summed over the real orthonormal basis (e_a) of the reductive complement,
with the contraction convention e -| (x ^ y) = <e,x> y - <e,y> x extended
bilinearly.  The kernel dimension of delta on the homomorphism space is
the coclosed multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .branching import hom_dim
from .exterior import contract
from .forms import HRep, lambda11_0
from .lie import ReductiveSpace
from .reps import ExplicitRep, explicit_rep
from .scalars import ONE, ZERO


@dataclass(frozen=True)
class FourierCoefficient:
    """H-equivariant matrix from the module of gamma into a target module."""

    space: str
    gamma: tuple
    target: str            # "lambda11_0" or "m_complex"
    matrix: tuple          # target_dim x module_dim

    @property
    def target_dim(self) -> int:
        return len(self.matrix)

    @property
    def module_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def hom_basis(space: ReductiveSpace, gamma: tuple, target: HRep | None = None) -> list:
    """Basis of the equivariant homomorphisms into the target module,
    by exact null-space solving of the infinitesimal equivariance
    constraints (the isotropy groups are connected)."""
    if target is None:
        target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    wd, vd = target.dim, rep.dim
    rows = []
    for t in range(space.h_dim):
        wm = target.h_matrices[t]
        rm = rep.matrices[t]
        for w in range(wd):
            for v in range(vd):
                row = [ZERO] * (wd * vd)
                for k in range(wd):
                    if wm[w][k]:
                        row[k * vd + v] = row[k * vd + v] + wm[w][k]
                for l in range(vd):
                    if rm[l][v]:
                        row[w * vd + l] = row[w * vd + l] - rm[l][v]
                if any(row):
                    rows.append(row)
    kernel = linalg.nullspace(rows) if rows else [
        [ONE if i == j else ZERO for i in range(wd * vd)] for j in range(wd * vd)
    ]
    out = []
    for vec in kernel:
        mat = tuple(tuple(vec[w * vd + v] for v in range(vd)) for w in range(wd))
        out.append(FourierCoefficient(space.name, gamma, target.name, mat))
    expected = hom_dim(space, gamma, target.decomposition)
    if len(out) != expected:
        raise ArithmeticError(
            f"hom space dimension {len(out)} != multiplicity count {expected} "
            f"for {space.name} {gamma}"
        )
    return out


def check_equivariance(space: ReductiveSpace, rep: ExplicitRep, target: HRep, f: FourierCoefficient) -> bool:
    for t in range(space.h_dim):
        lhs = linalg.mat_mul([list(r) for r in target.h_matrices[t]], [list(r) for r in f.matrix])
        rhs = linalg.mat_mul([list(r) for r in f.matrix], [list(r) for r in rep.matrices[t]])
        if not linalg.mat_eq(lhs, rhs):
            return False
    return True


def proto_delta(
    space: ReductiveSpace,
    gamma: tuple,
    f: FourierCoefficient,
    target: HRep | None = None,
    m_basis: list | None = None,
) -> FourierCoefficient:
    """Prototypical codifferential of a (1,1)-valued Fourier coefficient.

    Returns the matrix into the complexified reductive complement, in
    real orthonormal coordinates.  An alternative real orthonormal basis
    of m may be supplied (as coordinate vectors) to exhibit basis
    independence; the default is the catalog basis.
    """
    if target is None:
        target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    md, vd = space.m_dim, rep.dim
    if m_basis is None:
        m_basis = [[ONE if k == a else ZERO for k in range(md)] for a in range(md)]
    out = [[ZERO] * vd for _ in range(md)]
    for e in m_basis:
        rho = rep.matrix_of(space.g_coords_of_m_coords(e))
        composed = linalg.mat_mul([list(r) for r in f.matrix], rho)
        for v in range(vd):
            col = [composed[w][v] for w in range(target.dim)]
            form = target.realize(col)
            contracted = contract(e, form)
            for (idx,), c in contracted.items():
                out[idx][v] = out[idx][v] + c
    return FourierCoefficient(space.name, gamma, "m_complex", tuple(tuple(r) for r in out))


def m_complex_coords(space: ReductiveSpace, f: FourierCoefficient) -> tuple:
    """Re-express a delta image in the complex eigenbasis (m^+ then m^-)."""
    basis = [list(v) for v in space.m_plus] + [list(v) for v in space.m_minus]
    p = [[basis[b][w] for b in range(space.m_dim)] for w in range(space.m_dim)]
    pinv = linalg.inverse(p)
    converted = linalg.mat_mul(pinv, [list(r) for r in f.matrix])
    return tuple(tuple(row) for row in converted)


def _delta_matrix(space: ReductiveSpace, gamma: tuple, target: HRep, basis: list) -> list:
    """The codifferential on the span of a nonempty hom basis: column b is
    the flattened delta image of basis[b]."""
    cols = [[x for row in proto_delta(space, gamma, f, target).matrix for x in row] for f in basis]
    return [[col[r] for col in cols] for r in range(len(cols[0]))]


def coclosed_dim(space: ReductiveSpace, gamma: tuple, target: HRep | None = None) -> int:
    """Kernel dimension of the codifferential on the homomorphism space."""
    if target is None:
        target = lambda11_0(space.name)
    if hom_dim(space, gamma, target.decomposition) == 0:
        return 0
    basis = hom_basis(space, gamma, target)
    return len(linalg.nullspace(_delta_matrix(space, gamma, target, basis)))


def coclosed_basis(space: ReductiveSpace, gamma: tuple, target: HRep | None = None) -> list:
    """Fourier coefficients spanning the kernel of the codifferential."""
    if target is None:
        target = lambda11_0(space.name)
    basis = hom_basis(space, gamma, target)
    if not basis:
        return []
    out = []
    for combo in linalg.nullspace(_delta_matrix(space, gamma, target, basis)):
        acc = [[ZERO] * basis[0].module_dim for _ in range(target.dim)]
        for c, f in zip(combo, basis):
            if not c:
                continue
            for w in range(target.dim):
                for v in range(f.module_dim):
                    if f.matrix[w][v]:
                        acc[w][v] = acc[w][v] + c * f.matrix[w][v]
        out.append(FourierCoefficient(space.name, gamma, target.name, tuple(tuple(r) for r in acc)))
    return out
