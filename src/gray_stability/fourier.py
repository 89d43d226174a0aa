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
from .scalars import ZERO


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


def hom_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Basis of the equivariant homomorphisms into the primitive (1,1)
    module, by exact null-space solving of the infinitesimal equivariance
    constraints (the isotropy groups are connected).  A label whose
    multiplicity count is 0 has no homomorphisms, explicit module or not."""
    target = lambda11_0(space.name)
    expected = hom_dim(space, gamma, target.decomposition)
    if expected == 0:
        return []
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
    kernel = linalg.nullspace(rows) if rows else linalg.identity(wd * vd)
    out = []
    for vec in kernel:
        mat = linalg.from_entries(wd, {divmod(i, vd): x for i, x in enumerate(vec) if x}, vd)
        out.append(FourierCoefficient(space.name, gamma, target.name, mat))
    if len(out) != expected:
        raise ArithmeticError(
            f"hom space dimension {len(out)} != multiplicity count {expected} "
            f"for {space.name} {gamma}"
        )
    return out


def check_equivariance(space: ReductiveSpace, rep: ExplicitRep, target: HRep, f: FourierCoefficient) -> bool:
    for t in range(space.h_dim):
        lhs = linalg.mat_mul(target.h_matrices[t], f.matrix)
        rhs = linalg.mat_mul(f.matrix, rep.matrices[t])
        if not linalg.mat_eq(lhs, rhs):
            return False
    return True


def proto_delta(
    space: ReductiveSpace,
    gamma: tuple,
    f: FourierCoefficient,
    m_basis: list | None = None,
) -> FourierCoefficient:
    """Prototypical codifferential of a (1,1)-valued Fourier coefficient.

    Returns the matrix into the complexified reductive complement, in
    real orthonormal coordinates.  An alternative real orthonormal basis
    of m may be supplied (as coordinate vectors) to exhibit basis
    independence; the default is the catalog basis.
    """
    target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    md, vd = space.m_dim, rep.dim
    if m_basis is None:
        m_basis = linalg.identity(md)
    out: dict = {}
    for e in m_basis:
        rho = linalg.lin_comb(space.g_coords_of_m_coords(e), rep.matrices)
        composed = linalg.mat_mul(f.matrix, rho)
        for v in range(vd):
            col = [composed[w][v] for w in range(target.dim)]
            form = target.realize(col)
            contracted = contract(e, form)
            for (idx,), c in contracted.items():
                prev = out.get((idx, v))
                out[idx, v] = c if prev is None else prev + c
    return FourierCoefficient(space.name, gamma, "m_complex", linalg.from_entries(md, out, vd))


def m_complex_coords(space: ReductiveSpace, f: FourierCoefficient) -> tuple:
    """Re-express a delta image in the complex eigenbasis (m^+ then m^-)."""
    pinv = linalg.inverse(linalg.transpose(space.m_plus + space.m_minus))
    return linalg.mat_mul(pinv, f.matrix)


def delta_kernel(images: list) -> list:
    """Null space of the codifferential on the span of a hom basis, given
    the delta images of its members: each kernel vector holds the
    coefficients of one coclosed combination of the basis."""
    return linalg.nullspace(
        linalg.transpose([x for row in d.matrix for x in row] for d in images)
    )


def coclosed_dim(space: ReductiveSpace, gamma: tuple) -> int:
    """Kernel dimension of the codifferential on the homomorphism space."""
    return len(delta_kernel([proto_delta(space, gamma, f) for f in hom_basis(space, gamma)]))


def coclosed_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Fourier coefficients spanning the kernel of the codifferential."""
    basis = hom_basis(space, gamma)
    mats = [f.matrix for f in basis]
    return [
        FourierCoefficient(space.name, gamma, basis[0].target, linalg.lin_comb(combo, mats))
        for combo in delta_kernel([proto_delta(space, gamma, f) for f in basis])
    ]
