"""The isotropy representation on the primitive part of Lambda^{1,1} m.

Basis vectors are (1,1)-wedges of the weight-adapted eigenbasis of the
complexified reductive complement, expanded in real wedge coordinates.
The primitive part is the orthogonal complement of the Kaehler 2-vector;
the complement is taken inside the zero-weight block so every returned
basis vector stays an exact torus weight vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .branching import decompose_weights
from .exterior import Form, alternate, derivation_action, form_inner, wedge2
from .lie import ReductiveSpace, build_space
from .scalars import ZERO


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


def _span_coords(vectors, forms) -> tuple:
    """Exact coordinates of 2-vectors against a spanning set of 2-vectors,
    by one elimination: column j of the result holds those of forms[j]."""
    keys = sorted({k for v in vectors for k in v})
    sol = None
    if all(set(f) <= set(keys) for f in forms):
        mat = [[v.get(k, ZERO) for v in vectors] for k in keys]
        sol = linalg.solve(mat, [[f.get(k, ZERO) for f in forms] for k in keys])
    if sol is None:
        raise ValueError("2-vector outside the module span")
    return sol


def _h_action_matrices(space: ReductiveSpace, vectors: list) -> list:
    """The matrix of each isotropy basis element on the span of vectors:
    column j holds the coordinates of its image of vectors[j]."""
    mats = []
    for e in linalg.identity(space.h_dim):
        ad = space.ad_m_of_h(e)
        mats.append(_span_coords(vectors, [alternate(derivation_action(ad, v)) for v in vectors]))
    return mats


@lru_cache(maxsize=None)
def lambda11_0(space_name: str) -> HRep:
    """Orthogonal complement of the Kaehler 2-vector inside the nine
    (1,1)-wedges p ^ q, p in m^+ and q in m^-."""
    space = build_space(space_name)
    wedges = []
    wedge_weights = []
    for p, wp in space.m_plus_weights:
        for q, wq in space.m_minus_weights:
            wedges.append(wedge2(p, q))
            wedge_weights.append(tuple(a + b for a, b in zip(wp, wq)))
    kahler = space.kahler_form()
    kahler_coords = [row[0] for row in _span_coords(wedges, [kahler])]

    zero_wt = tuple(0 for _ in space.h_weight_torus)
    zero_idx = [i for i, w in enumerate(wedge_weights) if w == zero_wt]
    if not any(kahler_coords[i] for i in zero_idx) or any(
        kahler_coords[i] for i in range(len(wedges)) if i not in zero_idx
    ):
        raise ArithmeticError("Kaehler 2-vector must span a zero-weight line")

    # Pairing of the zero-weight block against the Kaehler vector.
    row: dict = {}
    for j, i in enumerate(zero_idx):
        linalg.add_into(row, j, form_inner(wedges[i], kahler))
    combos = linalg.nullspace([row], len(zero_idx))

    vectors: list[Form] = []
    weights: list[tuple] = []
    for i, (v, w) in enumerate(zip(wedges, wedge_weights)):
        if i not in zero_idx:
            vectors.append(v)
            weights.append(w)
    zero_block = [wedges[i] for i in zero_idx]
    for combo in combos:
        vec: Form = {}
        for j, c in combo.items():
            linalg.axpy(vec, c, zero_block[j])
        vectors.append(vec)
        weights.append(zero_wt)

    mats = _h_action_matrices(space, vectors)
    decomposition = decompose_weights(space.h_type, Counter(weights))
    return HRep(
        vectors=tuple(vectors),
        weights=tuple(weights),
        h_matrices=tuple(mats),
        decomposition=decomposition,
    )
