"""Equivariant homomorphism spaces and the prototypical codifferential.

A Fourier coefficient is an equivariant map F from an irreducible module
V into the primitive (1,1) isotropy module, held as the sparse vector
{(w, v): c} of its matrix entries: w indexes the basis 2-vectors Lambda_w
of that module, v the basis of V.  The codifferential acts on it by

    delta(F) = sum_a  e_a -| (F o rho(e_a))

summed over the real orthonormal basis (e_a) of the reductive complement,
with the contraction convention e -| (x ^ y) = <e,x> y - <e,y> x extended
bilinearly; its image is the sparse vector {(i, v): c}, i indexing (e_a).
Each wedge e_p ^ e_q of Lambda_w contracts to e_q along e_p and to -e_p
along e_q, and every other e_a kills it.
The kernel dimension of delta on the homomorphism space is the coclosed
multiplicity.
"""

from __future__ import annotations

from . import linalg
from .branching import hom_dim
from .forms import lambda11_0
from .lie import ReductiveSpace
from .reps import explicit_rep


def hom_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Basis of the equivariant homomorphisms into the primitive (1,1)
    module, each a sparse {(w, v): c} coefficient, by exact null-space
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
    out = [{divmod(i, vd): x for i, x in vec.items()} for vec in linalg.nullspace(rows, wd * vd)]
    if len(out) != expected:
        raise ArithmeticError(
            f"hom space dimension {len(out)} != multiplicity count {expected} "
            f"for {space.name} {gamma}"
        )
    return out


def proto_delta(space: ReductiveSpace, gamma: tuple, basis: list) -> list:
    """Prototypical codifferential of each Fourier coefficient in basis, as
    the sparse image {(i, v): c} in the real orthonormal coordinates i of
    the complexified reductive complement, by one pass over the nonzeros of
    F: delta(F)(i, v) = sum F[w, l] rho(e_a)[l][v] (e_a -| Lambda_w)[i],
    read off the wedges e_p ^ e_q of Lambda_w."""
    if not basis:
        return []
    rep = explicit_rep(space, gamma)
    # rho[a][l]: the nonzeros (v, x) of row l of rho(e_a)
    rho = [[[(v, x) for v, x in enumerate(row) if x] for row in m] for m in rep[space.h_dim :]]
    vectors = lambda11_0(space.name).vectors
    images = []
    for f in basis:
        out: dict = {}
        for (w, l), c in f.items():
            for (p, q), y in vectors[w].items():
                cy = c * y
                for v, x in rho[p][l]:
                    linalg.add_into(out, (q, v), cy * x)
                for v, x in rho[q][l]:
                    linalg.add_into(out, (p, v), -(cy * x))
        images.append(out)
    return images


def m_complex_coords(space: ReductiveSpace, images: list, vd: int) -> list:
    """The delta images of coefficients on a module of dimension vd as
    matrices in the complex eigenbasis (m^+ then m^-), for display,
    through the space's one inverse of that frame."""
    return [linalg.mat_mul(space.eigenframe_inverse, linalg.from_entries(space.m_dim, d, vd)) for d in images]


def delta_kernel(images: list) -> list:
    """Null space of the codifferential on the span of a hom basis, given
    the delta images of its members: each kernel vector is a {k: c} dict
    of the nonzero coefficients of one coclosed combination of the basis.
    Row (i, v) of the system holds entry (i, v) of every image."""
    rows: dict = {}
    for k, d in enumerate(images):
        for cell, x in d.items():
            rows.setdefault(cell, {})[k] = x
    return linalg.nullspace(list(rows.values()), len(images))


def coclosed_dim(space: ReductiveSpace, gamma: tuple, basis: list) -> int:
    """Kernel dimension of the codifferential on the homomorphism space
    spanned by basis, the hom_basis of the label."""
    return len(delta_kernel(proto_delta(space, gamma, basis)))
