"""The isotropy representation on the primitive part of Lambda^{1,1} m.

Basis vectors are (1,1)-wedges of the weight-adapted eigenbasis of the
complexified reductive complement, expanded in real wedge coordinates.
The primitive part is the kernel of the pairing with the Kaehler
2-vector; that pairing lives on the zero-weight block, so every returned
basis vector stays an exact torus weight vector.

X in h preserves m^+ and m^-, so its block in the weight frame, whose
inverse is the one elimination, acts on the wedges p ^ q by derivation:
the Kronecker sum of its blocks on m^+ and m^-.  The primitive part is
read at the kernel's free columns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .branching import decompose_weights
from .exterior import Form, derivation_action, form_inner, wedge2
from .lie import ReductiveSpace, build_space
from .scalars import ONE


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


def _kronecker_sums(space: ReductiveSpace) -> list:
    """The nonzeros {(3p + q, 3i + j): c} of each isotropy basis element's
    action on the nine wedges p_i ^ q_j: its block in the weight frame,
    extended to p_i (x) q_j as a derivation."""
    frame = linalg.transpose([v for v, _ in space.m_plus_weights + space.m_minus_weights])
    frame_inv = linalg.inverse(frame)
    k = len(space.m_plus_weights)
    sums = []
    for ad in space.m_action[: space.h_dim]:
        block = linalg.mat_mul(frame_inv, linalg.mat_mul(ad, frame))
        cols = {}
        for i, j in itertools.product(range(k), repeat=2):
            for (p, q), c in derivation_action(block, {(i, k + j): ONE}).items():
                if p >= k or q < k:
                    raise ArithmeticError(f"{space.name}: the isotropy action mixes m^+ and m^-")
                cols[k * p + q - k, k * i + j] = c
        sums.append(cols)
    return sums


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
        raise ArithmeticError("Kaehler 2-vector must span a zero-weight line")
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
        h_matrices=linalg.restrict_to_span(_kronecker_sums(space), kernel),
        decomposition=decompose_weights(space.h_type, Counter(weights)),
    )
