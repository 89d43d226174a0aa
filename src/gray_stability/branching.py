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

Decomposition subtracts full characters in one pass over the weights in
descending lexicographic order: the largest weight left is a highest weight,
a character lowers no weight above its top, and no remainder may go negative.
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


def h_irrep_weights(h_type: str, label: tuple) -> dict:
    """Weights of an isotropy irrep: the SU(2) string through its highest
    weight, or that weight alone when the isotropy group is a torus."""
    top = label[1:]
    if h_type == "t2":
        return {top: 1}
    return {(n,) + top[1:]: 1 for n in range(-top[0], top[0] + 1, 2)}


def format_h_label(label: tuple) -> str:
    return LABEL_FORMATS[label[0]].format(*label[1:])


def decompose_weights(h_type: str, weights: dict) -> dict:
    """Greedy highest-weight character subtraction, in one descending pass."""
    remaining = {w: m for w, m in weights.items() if m}
    if any(m < 0 for m in remaining.values()):
        raise BranchingError("negative input multiplicity")
    out: dict[tuple, int] = {}
    for top in sorted(remaining, reverse=True):
        if top not in remaining:  # a character above took all of it
            continue
        if top[0] < 0 and h_type != "t2":
            raise BranchingError(f"asymmetric SU(2) weight multiset: {remaining}")
        label = (KINDS[h_type],) + top
        mult = remaining[top]
        for w in h_irrep_weights(h_type, label):
            have = remaining.get(w, 0) - mult
            if have < 0:
                raise BranchingError(f"character of {label} does not fit at {w}")
            if have:
                remaining[w] = have
            else:
                remaining.pop(w, None)
        out[label] = mult
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
