"""The isotropy representation on the primitive part of Lambda^{1,1} m.

Basis vectors are (1,1)-wedges of the weight-adapted eigenbasis of the
complexified reductive complement, expanded in real wedge coordinates.
The primitive part is the kernel of the pairing with the Kaehler
2-vector: i d_k on the weight-0 wedge p_k ^ q_k, d the pairing of the
weight frame (``lie.frame_pairing``), and 0 on the others, so every
returned basis vector stays an exact torus weight vector.

X in h preserves m^+ and m^-, so its matrix in the weight frame has only
an m^+ and an m^- block: ``lie.ReductiveSpace.isotropy_blocks``, the one
test of J against the bracket, returns them or raises ``PremiseError``.
A second guard raises when J is not nearly Kaehler, [m^+, m^-]_m != 0
(Gray 1972: (nabla_X J)X = [X, JX]_m / 2 for the normal metric).  On the
wedges p_i ^ q_j, the product module m^+ (x) m^- of
``exterior.product_action`` (index 3i + j), it acts by their Kronecker
sum.  The primitive part is read at the kernel's free columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .branching import decompose_weights
from .exterior import Form, product_action, wedge2
from .lie import PremiseError, build_space


@dataclass(frozen=True)
class HRep:
    """A finite isotropy module with explicit 2-vector realization."""

    vectors: tuple          # tuple of Form (real wedge coordinates)
    weights: tuple          # tuple of integer weight tuples
    h_matrices: tuple       # action of each isotropy basis element
    decomposition: dict     # isotropy irrep label -> multiplicity

    @property
    def dim(self) -> int:
        return len(self.vectors)


@lru_cache(maxsize=None)
def lambda11_0(space_name: str) -> HRep:
    """Orthogonal complement of the Kaehler 2-vector inside the nine
    (1,1)-wedges p ^ q, p in m^+ and q in m^-."""
    space = build_space(space_name)
    plus, minus = space.m_plus_weights, space.m_minus_weights
    cols = [v for v, _ in plus + minus]
    d, on_plus, on_minus = space.isotropy_blocks(cols, "the weight bases of m^+ and m^-")
    # nearly Kaehler: [p, q]_m = 0 for p in m^+ and q in m^-, one product per p
    q_frame, torsion = linalg.transpose(cols[len(d):]), space.m_action[space.h_dim :]
    if not all(linalg.is_zero_matrix(linalg.mat_mul(linalg.lin_comb(p, torsion), q_frame)) for p, _ in plus):
        raise PremiseError(f"{space.name}: J is not nearly Kaehler: [m^+, m^-] leaves h")
    wedges = [wedge2(p, q) for p, _ in plus for q, _ in minus]
    wedge_weights = [tuple(a + b for a, b in zip(wp, wq)) for _, wp in plus for _, wq in minus]
    zero_wt = tuple(0 for _ in space.h_weight_torus)

    # <p_i ^ q_j, omega> is i d_i when i = j and 0 otherwise: the row d
    row = {(len(d) + 1) * i: x for i, x in enumerate(d)}
    # the wedges of nonzero weight, then the primitive zero-weight combinations
    kernel = sorted(linalg.nullspace([row], len(wedges)), key=lambda v: wedge_weights[max(v)] == zero_wt)

    vectors: list[Form] = []
    for combo in kernel:
        vec: Form = {}
        for j, c in combo.items():
            linalg.axpy(vec, c, wedges[j])
        vectors.append(vec)
    weights = [wedge_weights[max(v)] for v in kernel]
    return HRep(
        vectors=tuple(vectors),
        weights=tuple(weights),
        h_matrices=linalg.restrict_to_span(product_action([(on_plus, 1), (on_minus, 1)]), kernel),
        decomposition=decompose_weights(space.h_type, Counter(weights)),
    )
