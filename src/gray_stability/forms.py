"""The isotropy representation on the primitive part of Lambda^{1,1} m.

Basis vectors are (1,1)-wedges of the weight-adapted eigenbasis of the
complexified reductive complement, expanded in real wedge coordinates.
The primitive part is the kernel of the pairing with the Kaehler
2-vector: i d_k on the weight-0 wedge p_k ^ q_k, d the pairing of the
weight frame (``lie.frame_pairing``), and 0 on the others, so every
returned basis vector stays an exact torus weight vector.

X in h preserves m^+ and m^-, so its matrix in the weight frame has only
an m^+ and an m^- block.  The pairing guard raises ``PremiseError`` when
the weight bases do not pair under g, and a second guard when the action
mixes m^+ and m^-.  On the wedges p_i ^ q_j, the product module
m^+ (x) m^- of ``exterior.product_action`` (index 3i + j), it acts by
their Kronecker sum.  The primitive part is read at the kernel's free
columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .branching import decompose_weights
from .exterior import Form, product_action, wedge2
from .lie import PremiseError, ReductiveSpace, build_space, frame_pairing


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


def _isotropy_blocks(space: ReductiveSpace) -> tuple:
    """The pairing d of the weight frame W = m^+ | m^- (``frame_pairing``)
    and the m^+ and the m^- diagonal blocks of each isotropy basis
    element's matrix W^-1 ad W; PremiseError if an off-diagonal block is
    nonzero."""
    cols = [v for v, _ in space.m_plus_weights + space.m_minus_weights]
    d, frame_inv = frame_pairing(cols, f"{space.name}: the weight bases of m^+ and m^-")
    frame = linalg.transpose(cols)
    k = len(d)
    plus, minus = [], []
    for ad in space.m_action[: space.h_dim]:
        block = linalg.mat_mul(frame_inv, linalg.mat_mul(ad, frame))
        if any(any(row[k:]) for row in block[:k]) or any(any(row[:k]) for row in block[k:]):
            raise PremiseError(f"{space.name}: the isotropy action mixes m^+ and m^-")
        plus.append(tuple(row[:k] for row in block[:k]))
        minus.append(tuple(row[k:] for row in block[k:]))
    return d, plus, minus


@lru_cache(maxsize=None)
def lambda11_0(space_name: str) -> HRep:
    """Orthogonal complement of the Kaehler 2-vector inside the nine
    (1,1)-wedges p ^ q, p in m^+ and q in m^-."""
    space = build_space(space_name)
    d, on_plus, on_minus = _isotropy_blocks(space)
    plus, minus = space.m_plus_weights, space.m_minus_weights
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
