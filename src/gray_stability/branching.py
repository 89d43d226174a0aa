"""Restriction of symmetry-group irreps to the isotropy subgroup.

The three isotropy types are the diagonal SU(2) (weights are integers),
U(2) (weight pairs; irreps E^a_b = Sym^a C^2 (x) det-power b with
a == b mod 2) and the maximal torus T^2 (weight pairs are the irreps).
Decomposition is by greedy highest-weight subtraction of full characters,
which self-verifies through the non-negativity of every remainder.
"""

from __future__ import annotations

from .lie import ReductiveSpace
from .reps import weight_system


class BranchingError(ValueError):
    """Weight multiset is not a non-negative sum of irreducible characters."""


def h_label_check(h_type: str, label: tuple) -> tuple:
    if h_type == "delta_su2":
        (kind, k) = label
        if kind != "V" or k < 0:
            raise ValueError(f"bad diagonal-SU(2) label {label}")
    elif h_type == "u2":
        kind, a, b = label
        if kind != "E" or a < 0 or (a - b) % 2 != 0:
            raise ValueError(f"bad U(2) label {label}: need a >= 0 and a == b mod 2")
    elif h_type == "t2":
        kind, p, q = label
        if kind != "chi":
            raise ValueError(f"bad torus label {label}")
    else:
        raise ValueError(f"unknown isotropy type {h_type}")
    return label


def h_irrep_weights(h_type: str, label: tuple) -> dict:
    h_label_check(h_type, label)
    if h_type == "delta_su2":
        k = label[1]
        return {(n,): 1 for n in range(-k, k + 1, 2)}
    if h_type == "u2":
        _, a, b = label
        return {((s + b) // 2, (b - s) // 2): 1 for s in range(-a, a + 1, 2)}
    return {(label[1], label[2]): 1}


def format_h_label(label: tuple) -> str:
    if label[0] == "V":
        return f"V{label[1]}"
    if label[0] == "E":
        return f"E^{label[1]}_{label[2]}"
    return f"({label[1]},{label[2]})"


def decompose_weights(h_type: str, weights: dict) -> dict:
    """Greedy highest-weight character subtraction."""
    remaining = {w: m for w, m in weights.items() if m}
    if any(m < 0 for m in remaining.values()):
        raise BranchingError("negative input multiplicity")
    out: dict[tuple, int] = {}
    while remaining:
        if h_type == "delta_su2":
            top = max(remaining)
            if top[0] < 0:
                raise BranchingError(f"asymmetric SU(2) weight multiset: {remaining}")
            label = ("V", top[0])
        elif h_type == "u2":
            top = max(remaining, key=lambda w: (w[0] - w[1], w[0]))
            p, q = top
            if p < q:
                raise BranchingError(f"asymmetric U(2) weight multiset: {remaining}")
            label = ("E", p - q, p + q)
        else:
            top = max(remaining)
            label = ("chi", top[0], top[1])
        mult = remaining[top]
        for w in h_irrep_weights(h_type, label):
            have = remaining.get(w, 0) - mult
            if have < 0:
                raise BranchingError(f"character of {label} does not fit at {w}")
            if have:
                remaining[w] = have
            else:
                remaining.pop(w, None)
        out[label] = out.get(label, 0) + mult
    return out


def restricted_weights(space: ReductiveSpace, gamma: tuple) -> dict:
    """Weight multiset of the restriction to the isotropy torus."""
    ws = weight_system(space.group, gamma)
    emb = space.weight_embedding
    out: dict[tuple, int] = {}
    for w, m in ws.items():
        hw = tuple(sum(row[i] * w[i] for i in range(len(w))) for row in emb)
        out[hw] = out.get(hw, 0) + m
    return out


def restrict(space: ReductiveSpace, gamma: tuple) -> dict:
    """Decomposition of the restricted irrep into isotropy irreps."""
    return decompose_weights(space.h_type, restricted_weights(space, gamma))


def hom_dim(space: ReductiveSpace, gamma: tuple, target_decomposition: dict) -> int:
    """Multiplicity pairing: sum over isotropy types of the product of
    multiplicities (Frobenius-reciprocity bookkeeping)."""
    res = restrict(space, gamma)
    return sum(m * target_decomposition.get(lab, 0) for lab, m in res.items())
