"""Highest-weight representation theory for the catalog symmetry groups.

Weights live in integer evaluation coordinates against a fixed torus
basis per group; the inner product on the weight space is the one induced
by the catalog inner product Q, so Casimir constants come out in the
normalization used throughout (Freudenthal's formula, cross-checked by
brute force on the explicit representations).

A label is a dominant integral weight: <label, alpha> >= 0 for every
simple root alpha (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, section 13).  The dominant weights of its module
are the dominant mu <= label (section 21.3), and each of them is joined to
the label by positive-root steps that stay dominant (Stembridge, *The
partial order of dominant weights*, Adv. Math. 136 (1998)), so a worklist
from the label that subtracts each positive root and keeps what stays
dominant finds them all.  Freudenthal's recursion runs on them alone, in
descending |mu + delta|^2, and writes each multiplicity to the weight's
Weyl orbit, reached by the simple reflections mu - <mu, alpha^vee> alpha
that lower a weight (Moody-Patera, Bull. AMS 7 (1982); Humphreys, section
22.3).  That order is valid because label + delta is strictly dominant:
every mu + k alpha above mu (k >= 1) has a strictly larger |. + delta|^2,
and its dominant conjugate a norm at least as large.  Every weight above
mu then has its entry and alpha-strings are unbroken, so the sum over
mu + k alpha stops at the first k without one.

Freudenthal's recursion, the Weyl dimension and the Casimir constant run
in plain integers.  Each group's record types D G^-1 and D, G the Gram of
Q on the torus basis and D the least denominator of G^-1, so nothing is
inverted at import; _dual scales inner products by D on doubled shifted
weights, and each simple coroot is an integral row.  The Casimir cutoff of
enumerate_labels is an integer bound on 4D |label + delta|^2, and each
label it keeps reads its Casimir constant off that same integer.

The explicit module of a label is the top component of the product of
Sym^k(seed) over the group's seed modules (``_SEEDS``): C^2 of each su2
factor for k3; C^3, its dual and ad for su3; C^5 and ad for so5.  The
algebra acts on its monomials by derivation (``exterior.product_action``).
A product of the Weyl dimension is the module.  Otherwise every other component has a lower
highest weight, so a smaller Casimir constant (Humphreys, sections 13 and
21; Fulton-Harris, Lectures 13 and 19), and the module is the kernel of
C - Cas(label), C the Casimir operator, whose dimension is checked exactly;
``linalg.restrict_to_span`` reads the algebra's action on that kernel.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .exterior import product_action
from .lie import ReductiveSpace, build_space
from .scalars import ZERO, Scalar


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


@dataclass(frozen=True)
class GroupData:
    name: str
    dual_gram: tuple  # D G^-1 as integer rows, G the Gram of Q on the torus basis
    denominator: int  # D, the least common denominator of G^-1
    simple_roots: tuple
    positive_roots: tuple

    @cached_property
    def rank(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def two_delta(self) -> tuple:
        """The sum of the positive roots, i.e. twice delta."""
        return tuple(map(sum, zip(*self.positive_roots)))

    @cached_property
    def root_duals(self) -> tuple:
        """(alpha, D G^-1 alpha) per positive root: D <mu, alpha> = mu . dual."""
        return tuple((a, tuple(_dot(row, a) for row in self.dual_gram)) for a in self.positive_roots)

    @cached_property
    def coroots(self) -> tuple:
        """Per simple root, in order, the coroot 2 G^-1 alpha / <alpha, alpha>
        as an integral row: <mu, alpha^vee> = mu . coroot."""
        out = []
        for alpha in self.simple_roots:
            dual = [_dot(row, alpha) for row in self.dual_gram]
            n = _dot(alpha, dual)
            if any(2 * x % n for x in dual):
                raise ArithmeticError(f"coroot of {alpha} is not integral")
            out.append(tuple(2 * x // n for x in dual))
        return tuple(out)


GROUPS: dict[str, GroupData] = {g.name: g for g in (
    GroupData(
        "k3", dual_gram=((3, 0, 0), (0, 3, 0), (0, 0, 3)), denominator=2,  # G = 2/3 I
        simple_roots=((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        positive_roots=((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    ),
    GroupData(
        "so5", dual_gram=((2, 0), (0, 2)), denominator=1,  # G = 1/2 I
        simple_roots=((1, -1), (0, 1)),
        positive_roots=((1, -1), (0, 1), (1, 0), (1, 1)),
    ),
    GroupData(
        "su3", dual_gram=((4, 2), (2, 4)), denominator=3,  # G = ((1, -1/2), (-1/2, 1))
        simple_roots=((2, -1), (-1, 2)),
        positive_roots=((2, -1), (-1, 2), (1, 1)),
    ),
)}


def _dual(group: str, u, v) -> int:
    """D <u, v> in the Q-dual inner product for integral weights u, v."""
    return _dot(u, [_dot(row, v) for row in GROUPS[group].dual_gram])


def _doubled_shift(group: str, label: tuple) -> tuple:
    """2 (label + delta), an integral weight."""
    return tuple(2 * x + d for x, d in zip(label, GROUPS[group].two_delta))


def _norm4(group: str, label: tuple) -> int:
    """4D * |label + delta|^2."""
    v = _doubled_shift(group, label)
    return _dual(group, v, v)


def _dominant(group: str, label: tuple) -> bool:
    return all(_dot(label, co) >= 0 for co in GROUPS[group].coroots)


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
    recursion on the dominant weights (found by positive-root steps from
    the label, see the module docstring), run in integers, each
    multiplicity written to its Weyl orbit.

    With D the common denominator of G^-1, 4D * |lam + delta|^2 (taken on
    the integral doubled weight 2(lam + delta)) and D * <mu, alpha> are
    ints, so the multiplicity 2 * num / denom is 8 * (D num) / (4D denom);
    it must still divide out exactly."""
    label = check_label(group, label)
    g = GROUPS[group]
    norm4 = {label: _norm4(group, label)}  # 4D |mu + delta|^2 of each dominant weight
    work = [label]
    for mu in work:
        for alpha in g.positive_roots:
            nu = tuple(map(operator.sub, mu, alpha))
            if nu not in norm4 and _dominant(group, nu):
                norm4[nu] = _norm4(group, nu)
                work.append(nu)
    c4 = norm4[label]

    mult: dict[tuple, int] = {}
    for lam in sorted(norm4, key=norm4.get, reverse=True):
        m = 1
        if denom4 := c4 - norm4[lam]:  # 0 at the label alone
            # every weight above lam has its entry, and alpha-strings are unbroken
            num_d = 0
            for alpha, alpha_dual in g.root_duals:
                mu = tuple(map(operator.add, lam, alpha))
                while mu in mult:
                    num_d += mult[mu] * _dot(mu, alpha_dual)
                    mu = tuple(map(operator.add, mu, alpha))
            m, rem = divmod(8 * num_d, denom4)
            if rem or m <= 0:  # every dominant weight below the label is a weight
                raise ArithmeticError(f"bad multiplicity for {lam}: {Fraction(8 * num_d, denom4)}")
        # the orbit of lam: reflect each weight by the simple roots that lower it
        mult[lam] = m
        orbit = [lam]
        for mu in orbit:
            for alpha, co in zip(g.simple_roots, g.coroots):
                c = _dot(mu, co)
                if c > 0:
                    nu = tuple([x - c * a for x, a in zip(mu, alpha)])
                    if nu not in mult:
                        mult[nu] = m
                        orbit.append(nu)
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
    in the Q-dual inner product, (_norm4(hw) - _norm4(0)) / 4D."""
    label = check_label(group, label)
    norm4 = _norm4(group, label) - _norm4(group, (0,) * len(label))
    return Fraction(norm4, 4 * GROUPS[group].denominator)


def enumerate_labels(group: str, max_cas: Fraction) -> dict:
    """Dominant labels with Casimir constant <= max_cas = p/q, each mapped to
    its Casimir constant, in order of Casimir constant and label.  Cas is
    increasing affine in _norm4 (casimir_constant): the test is
    _norm4 q <= _norm4(0) q + 4D p, and _norm4 sorts like Cas.  Cas increases
    in each coordinate, so the first coordinate's sweep bounds all."""
    rank = GROUPS[group].rank
    q = max_cas.denominator
    norm0 = _norm4(group, (0,) * rank)
    four_d = 4 * GROUPS[group].denominator
    top = norm0 * q + four_d * max_cas.numerator
    n = next(n for n in itertools.count() if _norm4(group, (n,) + (0,) * (rank - 1)) * q > top)
    keyed = []
    for lab in itertools.product(range(n), repeat=rank):
        if _dominant(group, lab) and (norm4 := _norm4(group, lab)) * q <= top:
            keyed.append((norm4, lab))
    return {lab: Fraction(norm4 - norm0, four_d) for norm4, lab in sorted(keyed)}


# ---------------------------------------------------------------------------
# Explicit representations on the catalog spaces
# ---------------------------------------------------------------------------

class UnsupportedLabel(ValueError):
    """A valid label whose product module is larger than MAX_PRODUCT_DIM."""


MAX_PRODUCT_DIM = 150  # cp3 (3, 1), Sym^2 C^5 (x) ad, is the largest up to Casimir 40

_SEEDS = {  # group -> (basis matrices, ad, label) -> [(seed module, its power)]
    "k3": lambda mats, ad, lab: [
        (tuple(tuple(r[2 * f : 2 * f + 2] for r in m[2 * f : 2 * f + 2]) for m in mats), k)
        for f, k in enumerate(lab)
    ],
    "su3": lambda mats, ad, lab: [
        (mats, lab[0] - min(lab)),
        (tuple(linalg.transpose([-x for x in r] for r in m) for m in mats), lab[1] - min(lab)),
        (ad, min(lab)),
    ],
    "so5": lambda mats, ad, lab: [(mats, lab[0] - lab[1]), (ad, lab[1])],
}


def explicit_rep(space: ReductiveSpace, label: tuple) -> tuple:
    """The module of a label (see the module docstring) as one matrix per
    symmetry-algebra basis vector, built once per (space.name, label)."""
    return _explicit_rep(space.name, check_label(space.group, label))


@lru_cache(maxsize=None)
def _explicit_rep(name: str, label: tuple) -> tuple:
    space = build_space(name)
    seeds = _SEEDS[space.group](space.algebra.basis_matrices, space.algebra.ad, label)
    n = math.prod(math.comb(len(seed[0]) + k - 1, k) for seed, k in seeds)
    if n > MAX_PRODUCT_DIM:
        raise UnsupportedLabel(f"{space.group} label {label} needs a product module of "
                               f"dimension {n}, above the bound {MAX_PRODUCT_DIM}")
    rep = product_action(seeds)
    d = dim(space.group, label)
    if n == d:
        return tuple(linalg.from_entries(n, e) for e in rep)
    c = -Scalar.from_fraction(casimir_constant(space.group, label))
    shifted = [{i: c} for i in range(n)]
    for (i, j), x in _casimir_operator(space, rep).items():
        linalg.add_into(shifted[i], j, x)
    kernel = linalg.nullspace(shifted, n)
    if len(kernel) != d:
        raise ArithmeticError(f"{name} {label}: top component of dimension {len(kernel)}, not {d}")
    return linalg.restrict_to_span(rep, kernel)


def _casimir_operator(space: ReductiveSpace, rep: list) -> dict:
    """-sum_ab (G^-1)_ab rho(X_a) rho(X_b), G the Gram matrix of the basis
    X, on nonzeros {(i, j): c}."""
    duals = [{} for _ in rep]  # sum_b (G^-1)_ab rho(X_b)
    for row, m in zip(space.algebra.gram_inv, duals):
        for c, x in zip(row, rep):
            linalg.axpy(m, c, x)
    return linalg.sum_of_products((x, m, True) for x, m in zip(rep, duals))


def casimir_bruteforce(space: ReductiveSpace, rep: tuple) -> Fraction:
    """Casimir constant of an explicit_rep module; raises if it is not scalar."""
    cas = _casimir_operator(space, [linalg.nonzeros(m) for m in rep])
    c = cas.get((0, 0), ZERO)
    if cas != {(i, i): c for i in range(len(rep[0])) if c}:
        raise ArithmeticError(f"Casimir operator on a module of {space.name} is not scalar")
    return c.rational()
