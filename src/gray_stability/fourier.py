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

from . import linalg
from .branching import hom_dim
from .exterior import contract
from .forms import lambda11_0
from .lie import ReductiveSpace
from .reps import explicit_rep


def hom_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Basis of the equivariant homomorphisms into the primitive (1,1)
    module, each a target_dim x module_dim matrix, by exact null-space
    solving of the infinitesimal equivariance constraints (the isotropy
    groups are connected).  A label whose multiplicity count is 0 has no
    homomorphisms, explicit module or not."""
    target = lambda11_0(space.name)
    expected = hom_dim(space, gamma, target.decomposition)
    if expected == 0:
        return []
    rep = explicit_rep(space, gamma)
    wd, vd = target.dim, len(rep[0])
    # one row per (t, w, v): entry (w, v) of W_t F - F R_t, as {column: c}
    rows = []
    for t in range(space.h_dim):
        neg_r_cols = [[(l, -x) for l, x in enumerate(col) if x] for col in zip(*rep[t])]
        for w, wrow in enumerate(target.h_matrices[t]):
            w_nz = [(k, x) for k, x in enumerate(wrow) if x]
            for v in range(vd):
                d = {k * vd + v: x for k, x in w_nz}
                for l, x in neg_r_cols[v]:
                    linalg.add_into(d, w * vd + l, x)
                if d:
                    rows.append(d)
    out = [
        linalg.from_entries(wd, {divmod(i, vd): x for i, x in vec.items()}, vd)
        for vec in linalg.nullspace(rows, wd * vd)
    ]
    if len(out) != expected:
        raise ArithmeticError(
            f"hom space dimension {len(out)} != multiplicity count {expected} "
            f"for {space.name} {gamma}"
        )
    return out


def proto_delta(
    space: ReductiveSpace,
    gamma: tuple,
    f: tuple,
    m_basis: list | None = None,
) -> tuple:
    """Prototypical codifferential of a (1,1)-valued Fourier coefficient.

    Returns the matrix into the complexified reductive complement, in
    real orthonormal coordinates.  An alternative real orthonormal basis
    of m may be supplied (as coordinate vectors) to exhibit basis
    independence; the default is the catalog basis.
    """
    target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    md, vd = space.m_dim, len(rep[0])
    if m_basis is None:
        m_basis = linalg.identity(md)
    out: dict = {}
    for e in m_basis:
        rho = linalg.lin_comb(e, rep[space.h_dim :])
        composed = linalg.mat_mul(f, rho)
        for v in range(vd):
            col = [composed[w][v] for w in range(target.dim)]
            form = target.realize(col)
            for (idx,), c in contract(e, form).items():
                linalg.add_into(out, (idx, v), c)
    return linalg.from_entries(md, out, vd)


def m_complex_coords(space: ReductiveSpace, d: tuple) -> tuple:
    """Re-express a delta image in the complex eigenbasis (m^+ then m^-)."""
    pinv = linalg.inverse(linalg.transpose(space.m_plus + space.m_minus))
    return linalg.mat_mul(pinv, d)


def delta_kernel(images: list) -> list:
    """Null space of the codifferential on the span of a hom basis, given
    the delta images of its members: each kernel vector is a {k: c} dict
    of the nonzero coefficients of one coclosed combination of the basis.
    Row (w, v) of the system holds entry (w, v) of every image."""
    flat = [[x for row in d for x in row] for d in images]
    rows = [{k: x for k, x in enumerate(cell) if x} for cell in zip(*flat)]
    return linalg.nullspace(rows, len(images))


def coclosed_dim(space: ReductiveSpace, gamma: tuple, basis: list | None = None) -> int:
    """Kernel dimension of the codifferential on the homomorphism space,
    whose basis is built here unless the caller already holds it."""
    if basis is None:
        basis = hom_basis(space, gamma)
    return len(delta_kernel([proto_delta(space, gamma, f) for f in basis]))
