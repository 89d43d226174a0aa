"""The isotropy representation on the primitive part of Lambda^{1,1} m.

Basis vectors are (1,1)-wedges of the weight-adapted eigenbasis of the
complexified reductive complement, expanded in real wedge coordinates.
The primitive part is the kernel of the pairing with the Kaehler
2-vector; that pairing lives on the zero-weight block, so every returned
basis vector stays an exact torus weight vector.

X in h preserves m^+ and m^-, so its matrix in the weight frame, whose
inverse is the one elimination, has only an m^+ and an m^- block.  A guard
raises ``PremiseError`` when the weight frame does not span, when the
action mixes m^+ and m^-, or when the Kaehler 2-vector spans no
zero-weight line.  On the wedges p_i ^ q_j, the product module
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
from .exterior import Form, form_inner, product_action, wedge2
from .lie import PremiseError, ReductiveSpace, build_space


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
    """The m^+ and the m^- diagonal blocks of each isotropy basis
    element's matrix W^-1 ad W, W the weight frame m^+ | m^-; PremiseError
    if W is singular or an off-diagonal block is nonzero."""
    frame = linalg.transpose([v for v, _ in space.m_plus_weights + space.m_minus_weights])
    try:
        frame_inv = linalg.inverse(frame)
    except ValueError:
        raise PremiseError(f"{space.name}: the weight bases of m^+ and m^- do not span m^C") from None
    k = len(space.m_plus_weights)
    plus, minus = [], []
    for ad in space.m_action[: space.h_dim]:
        block = linalg.mat_mul(frame_inv, linalg.mat_mul(ad, frame))
        if any(any(row[k:]) for row in block[:k]) or any(any(row[:k]) for row in block[k:]):
            raise PremiseError(f"{space.name}: the isotropy action mixes m^+ and m^-")
        plus.append(tuple(row[:k] for row in block[:k]))
        minus.append(tuple(row[k:] for row in block[k:]))
    return plus, minus


@lru_cache(maxsize=None)
def lambda11_0(space_name: str) -> HRep:
    """Orthogonal complement of the Kaehler 2-vector inside the nine
    (1,1)-wedges p ^ q, p in m^+ and q in m^-."""
    space = build_space(space_name)
    plus, minus = space.m_plus_weights, space.m_minus_weights
    wedges = [wedge2(p, q) for p, _ in plus for q, _ in minus]
    wedge_weights = [tuple(a + b for a, b in zip(wp, wq)) for _, wp in plus for _, wq in minus]
    zero_wt = tuple(0 for _ in space.h_weight_torus)

    # Pairing of the nine wedges against the Kaehler vector.
    kahler = space.kahler_form()
    row = {j: x for j, w in enumerate(wedges) if (x := form_inner(w, kahler))}
    if not row or any(wedge_weights[j] != zero_wt for j in row):
        raise PremiseError("Kaehler 2-vector must span a zero-weight line")
    # the wedges of nonzero weight, then the primitive zero-weight combinations
    kernel = sorted(linalg.nullspace([row], len(wedges)), key=lambda v: wedge_weights[max(v)] == zero_wt)

    vectors: list[Form] = []
    for combo in kernel:
        vec: Form = {}
        for j, c in combo.items():
            linalg.axpy(vec, c, wedges[j])
        vectors.append(vec)
    weights = [wedge_weights[max(v)] for v in kernel]
    plus, minus = _isotropy_blocks(space)
    return HRep(
        vectors=tuple(vectors),
        weights=tuple(weights),
        h_matrices=linalg.restrict_to_span(product_action([(plus, 1), (minus, 1)]), kernel),
        decomposition=decompose_weights(space.h_type, Counter(weights)),
    )
