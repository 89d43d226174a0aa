"""Restriction of symmetry-group irreps to the isotropy subgroup.

Each isotropy group is SU(2)^e x torus: the diagonal SU(2) of S^3 x S^3
(e = 1, no torus), U(2) for CP^3 (e = 1, its centre U(1)) and the
maximal torus T^2 for F_{1,2} (e = 0).  An isotropy weight lists its
SU(2) weight first.  For U(2) the catalog writes the torus weight (p, q)
as (p - q, p + q), so the irrep E^a_b = Sym^a C^2 (x) det^((b - a)/2)
(a >= 0, a == b mod 2) is the SU(2) string of length a + 1 on the first
coordinate at central weight b, with highest weight (a, b).  An irrep is
labelled by its kind and its highest weight: ("V", k), ("E", a, b),
("chi", p, q).

Decomposition reads each multiplicity off the weights in one pass.  On
the torus the irrep chi occurs m(chi) times.  On SU(2)^e x torus the irrep
of highest weight (a, c), a >= 0, occurs m(a, c) - m(a + 2, c) times:
that is Weyl's character formula for SU(2), whose irrep V_a has the
weights a, a - 2, ..., -a once each.  The multiset is a sum of characters
exactly when it is symmetric, m(a, c) = m(-a, c), and its strings are
unbroken, m(a, c) <= m(a - 2, c) for a > 0.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .lie import GroupRecord, ReductiveSpace, group_record
from .reps import weight_system

# the irrep kind of each isotropy type
KINDS = {"delta_su2": "V", "u2": "E", "t2": "chi"}
LABEL_FORMATS = {"V": "V{}", "E": "E^{}_{}", "chi": "({},{})"}


class BranchingError(ValueError):
    """Weight multiset is not a non-negative sum of irreducible characters."""


def format_h_label(label: tuple) -> str:
    return LABEL_FORMATS[label[0]].format(*label[1:])


def decompose_weights(h_type: str, weights: dict) -> dict:
    """Isotropy irrep multiplicities by first differences (module docstring)."""
    if any(m < 0 for m in weights.values()):
        raise BranchingError("negative input multiplicity")
    kind = KINDS[h_type]
    if h_type == "t2":
        return {(kind,) + w: m for w, m in weights.items() if m}
    out: dict[tuple, int] = {}
    for w, m in weights.items():
        a, rest = w[0], w[1:]
        mirror, below = (-a,) + rest, (a - 2,) + rest
        if m != weights.get(mirror, 0):
            raise BranchingError(f"asymmetric SU(2) weight multiset: m{w} = {m}, "
                                 f"m{mirror} = {weights.get(mirror, 0)}")
        if a > 0 and m > weights.get(below, 0):
            raise BranchingError(f"broken SU(2) string: m{w} = {m} > m{below} = {weights.get(below, 0)}")
        if a >= 0 and (mult := m - weights.get((a + 2,) + rest, 0)):
            out[(kind,) + w] = mult
    return out


def restricted_weights(space: GroupRecord, gamma: tuple) -> dict:
    """Weight multiset of the restriction to the isotropy torus; the group record suffices."""
    ws = weight_system(space.group, gamma)
    emb = space.weight_embedding
    out: dict[tuple, int] = {}
    for w, m in ws.items():
        hw = tuple([sum(map(operator.mul, row, w)) for row in emb])
        out[hw] = out.get(hw, 0) + m
    return out


def restrict(space: GroupRecord, gamma: tuple) -> dict:
    """Decomposition of the restricted irrep into isotropy irreps, made
    once per (space.name, gamma); callers share the dict and only read it."""
    return _restrict(space.name, tuple(gamma))


@lru_cache(maxsize=None)
def _restrict(name: str, gamma: tuple) -> dict:
    record = group_record(name)
    return decompose_weights(record.h_type, restricted_weights(record, gamma))


def hom_dim(space: ReductiveSpace, gamma: tuple, target_decomposition: dict) -> int:
    """Multiplicity pairing: sum over isotropy types of the product of
    multiplicities (Frobenius-reciprocity bookkeeping)."""
    res = restrict(space, gamma)
    return sum(m * target_decomposition.get(lab, 0) for lab, m in res.items())
