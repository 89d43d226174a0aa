"""Highest-weight representation theory for the catalog symmetry groups.

Weights live in integer evaluation coordinates against a fixed torus
basis per group; the inner product on the weight space is the one induced
by the catalog inner product Q, so Casimir constants come out in the
normalization used throughout (Freudenthal's formula, cross-checked by
brute force on the explicit representations).

A label is a dominant integral weight: <label, alpha> >= 0 for every
simple root alpha (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, section 13).  Every weight of its module is
label - sum n_k alpha_k with n_k >= 0 bounded by the group's box matrix
applied to the label, so Freudenthal's recursion runs over that box.
Along a root string mu = lam + k alpha (alpha positive) the simple-root
coordinates of label - mu only fall, so the string leaves the box exactly
where it leaves the simple-root cone.

Freudenthal's recursion, the Weyl dimension and the Casimir constant run
in plain integers: their inner products (_dual) are scaled by the common
denominator of the inverse Gram matrix and taken on doubled shifted
weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .lie import ReductiveSpace, build_space
from .scalars import ZERO, Scalar, rational

@dataclass(frozen=True)
class GroupData:
    name: str
    rank: int
    gram_t: tuple            # Gram of Q on the torus basis (Fractions)
    simple_roots: tuple
    positive_roots: tuple
    two_delta: tuple         # sum of positive roots, i.e. twice delta
    box: tuple               # label -> bounds of the simple-root coordinates of its weights


def _integral_inverse(m) -> tuple:
    """(d * m^-1, d) for an invertible rational matrix m, with d the least
    common denominator of the entries of m^-1, so d * m^-1 is integral."""
    inv = linalg.inverse([[Scalar.from_fraction(x) for x in row] for row in m])
    inv = [[x.rational() for x in row] for row in inv]
    d = math.lcm(*(x.denominator for row in inv for x in row))
    return [[int(d * x) for x in row] for row in inv], d


GROUPS: dict[str, GroupData] = {}
_GRAM_INV: dict[str, tuple] = {}  # (D * G^-1, D), D the denominator of G^-1


def _register(g: GroupData):
    GROUPS[g.name] = g
    _GRAM_INV[g.name] = _integral_inverse(g.gram_t)


_register(
    GroupData(
        name="k3",
        rank=3,
        gram_t=(
            (Fraction(2, 3), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(2, 3), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(2, 3)),
        ),
        simple_roots=((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        positive_roots=((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        two_delta=(2, 2, 2),
        box=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
)

_register(
    GroupData(
        name="so5",
        rank=2,
        gram_t=((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))),
        simple_roots=((1, -1), (0, 1)),
        positive_roots=((1, -1), (0, 1), (1, 0), (1, 1)),
        two_delta=(3, 1),
        box=((2, 0), (2, 2)),
    )
)

_register(
    GroupData(
        name="su3",
        rank=2,
        gram_t=((Fraction(1), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1))),
        simple_roots=((2, -1), (-1, 2)),
        positive_roots=((2, -1), (-1, 2), (1, 1)),
        two_delta=(2, 2),
        box=((1, 1), (1, 1)),
    )
)


def _dual(group: str, u, v) -> int:
    """D * <u, v> in the Q-dual inner product, for integral weights u, v,
    with D the common denominator of G^-1."""
    gi, _ = _GRAM_INV[group]
    return sum(u[a] * gi[a][b] * v[b] for a in range(len(u)) for b in range(len(v)))


def _doubled_shift(group: str, label: tuple) -> tuple:
    """2 (label + delta), an integral weight."""
    return tuple(2 * x + d for x, d in zip(label, GROUPS[group].two_delta))


def _dominant(group: str, label: tuple) -> bool:
    return all(_dual(group, label, alpha) >= 0 for alpha in GROUPS[group].simple_roots)


def check_label(group: str, label: tuple) -> tuple:
    """The label as a tuple of ints, if it is a dominant weight of the group."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    label = tuple(int(x) for x in label)
    rank = GROUPS[group].rank
    if len(label) != rank or not _dominant(group, label):
        raise ValueError(f"{group} labels are dominant weights of rank {rank}: {label}")
    return label


def weight_system(group: str, label: tuple) -> dict:
    """Full weight multiset of the irreducible module, by Freudenthal's
    multiplicity recursion, run in integers.

    With D the common denominator of G^-1, 4D * |lam + delta|^2 (taken on
    the integral doubled weight 2(lam + delta)) and D * <mu, alpha> are
    ints, so the multiplicity 2 * num / denom is 8 * (D num) / (4D denom);
    it must still divide out exactly."""
    label = check_label(group, label)
    g = GROUPS[group]
    hw = label
    gi, _ = _GRAM_INV[group]

    def norm4(lam):
        """4D * |lam + delta|^2."""
        v = _doubled_shift(group, lam)
        return _dual(group, v, v)

    # D * G^-1 alpha, so that D * <mu, alpha> is a dot product.
    root_duals = [
        (alpha, tuple(sum(gi[a][b] * alpha[b] for b in range(g.rank)) for a in range(g.rank)))
        for alpha in g.positive_roots
    ]
    c4 = norm4(hw)

    bounds = [sum(b * h for b, h in zip(row, hw)) for row in g.box]
    candidates = []
    for ns in itertools.product(*(range(b + 1) for b in bounds)):
        lam = tuple(
            hw[i] - sum(n * g.simple_roots[k][i] for k, n in enumerate(ns))
            for i in range(g.rank)
        )
        candidates.append((sum(ns), lam))
    candidates.sort()
    listed = {lam for _, lam in candidates}

    mult: dict[tuple, int] = {}
    for level, lam in candidates:
        if level == 0:
            mult[lam] = 1
            continue
        denom4 = c4 - norm4(lam)
        if denom4 == 0:
            continue
        num_d = 0
        for alpha, alpha_dual in root_duals:
            k = 1
            while True:
                mu = tuple(lam[i] + k * alpha[i] for i in range(g.rank))
                m = mult.get(mu, 0)
                if m == 0 and mu not in listed:
                    break
                if m:
                    num_d += m * sum(x * y for x, y in zip(mu, alpha_dual))
                k += 1
        if num_d:
            val, rem = divmod(8 * num_d, denom4)
            if rem or val < 0:
                raise ArithmeticError(
                    f"non-integral multiplicity for {lam}: {Fraction(8 * num_d, denom4)}"
                )
            mult[lam] = val
    return mult


def dim(group: str, label: tuple) -> int:
    """Weyl dimension formula, prod <lam + delta, alpha> / <delta, alpha>
    over the positive roots, on doubled shifted weights."""
    label = check_label(group, label)
    g = GROUPS[group]
    shift = _doubled_shift(group, label)
    num = math.prod(_dual(group, shift, alpha) for alpha in g.positive_roots)
    den = math.prod(_dual(group, g.two_delta, alpha) for alpha in g.positive_roots)
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise ArithmeticError(f"bad dimension {Fraction(num, den)} for {group} {label}")
    return d


def casimir_constant(group: str, label: tuple) -> Fraction:
    """Casimir eigenvalue <hw, hw + 2 delta> = |hw + delta|^2 - |delta|^2
    in the Q-dual inner product."""
    label = check_label(group, label)
    _, d = _GRAM_INV[group]
    shift = _doubled_shift(group, label)
    two_delta = GROUPS[group].two_delta
    return Fraction(_dual(group, shift, shift) - _dual(group, two_delta, two_delta), 4 * d)


def enumerate_labels(group: str, max_cas: Fraction) -> list:
    """All dominant labels with Casimir constant <= max_cas.  The Casimir
    polynomial is strictly increasing in each label coordinate, so the
    sweep of the first coordinate bounds every coordinate."""
    rank = GROUPS[group].rank
    n = 0
    while casimir_constant(group, (n,) + (0,) * (rank - 1)) <= max_cas:
        n += 1
    out = [
        lab
        for lab in itertools.product(range(n), repeat=rank)
        if _dominant(group, lab) and casimir_constant(group, lab) <= max_cas
    ]
    return sorted(out, key=lambda lab: (casimir_constant(group, lab), lab))


# ---------------------------------------------------------------------------
# Explicit representations on the catalog spaces
# ---------------------------------------------------------------------------

class UnsupportedLabel(ValueError):
    """A valid label whose module has no explicit realization here."""


def _su2_factor_rep(block: tuple, k: int) -> tuple:
    """Action of a 2x2 matrix on Sym^k C^2 (k = 1, 2) in the monomial basis."""
    if k == 1:
        return block
    (a, b), (c, d) = block
    two = rational(2)
    return (
        (two * a, b, ZERO),
        (two * c, a + d, two * b),
        (ZERO, c, two * d),
    )


def _k3_rep(space: ReductiveSpace, label: tuple) -> tuple:
    if any(x > 2 for x in label):
        raise UnsupportedLabel(f"unsupported k3 label {label}")
    dims = [x + 1 for x in label]
    n = math.prod(dims)
    mats = []
    for g_mat in space.algebra.basis_matrices:
        total = linalg.zeros(n, n)
        for f in range(3):
            if label[f] == 0:
                continue
            block = tuple(row[2 * f : 2 * f + 2] for row in g_mat[2 * f : 2 * f + 2])
            factors = [
                _su2_factor_rep(block, label[f]) if g == f else linalg.identity(dims[g])
                for g in range(3)
            ]
            total = linalg.mat_add(total, linalg.kron(*factors))
        mats.append(total)
    return tuple(mats)


def explicit_rep(space: ReductiveSpace, label: tuple) -> tuple:
    """The module of a label as one matrix per symmetry-algebra basis
    vector: the trivial module, the defining module of so5 and su3 and
    the dual of su3's, the adjoint (label (1, 1)), and the k3 tensor
    products of Sym^k C^2 with k <= 2; built once per (space.name, label)."""
    return _explicit_rep(space.name, check_label(space.group, label))


@lru_cache(maxsize=None)
def _explicit_rep(name: str, label: tuple) -> tuple:
    space = build_space(name)
    alg = space.algebra
    if not any(label):
        return (linalg.zeros(1, 1),) * alg.dim
    if space.group == "k3":
        return _k3_rep(space, label)
    if label == (1, 0):
        return alg.basis_matrices
    if label == (1, 1):
        return alg.ad
    if label == (0, 1) and space.group == "su3":
        return tuple(linalg.transpose([-x for x in row] for row in m) for m in alg.basis_matrices)
    raise UnsupportedLabel(f"unsupported {space.group} label {label}")


def casimir_bruteforce(space: ReductiveSpace, rep: tuple) -> Fraction:
    """Casimir constant of a module given by explicit_rep, as minus the
    sum of squares over a Q-orthonormal basis of the symmetry algebra;
    raises if the operator is not scalar."""
    n = len(rep[0])
    acc = linalg.zeros(n, n)
    for v in space.g_orthonormal:
        m = linalg.lin_comb(v, rep)
        acc = linalg.mat_sub(acc, linalg.mat_mul(m, m))
    c = linalg.scalar_multiple_of_identity(acc)
    if c is None:
        raise ArithmeticError(f"Casimir operator on a module of {space.name} is not scalar")
    return c.rational()
