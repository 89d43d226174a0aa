"""Spectral bookkeeping for the second variation of the Einstein-Hilbert
action on the catalog spaces.

The tt-eigenspace of the Lichnerowicz Laplacian at lambda = 10 - eps is
assembled from eigenspaces E(mu) of the Hodge Laplacian on coclosed
primitive (1,1)-forms, by the case analysis of eigenspace_sources
(thresholds at eps = 6 and eps = 25/4, both handled by exact rational
comparison).  E(mu) itself is computed from the Casimir spectrum and
coclosed multiplicities; that mu is the Casimir constant on these forms
is cited from Moroianu-Semmelmann (*The Hermitian Laplace operator on
nearly Kaehler manifolds*; *Infinitesimal Einstein deformations of
nearly Kaehler metrics*), not checked here.

Why the Casimir cutoff of 12 suffices.  Only 0 < eps <= 25/4 can give a
nonzero eigenspace.  There sqrt(25 - 4 eps) < 5, so
mu1 = 7 - eps + sqrt(25 - 4 eps) < 12, while
mu2 = 7 - eps - sqrt(25 - 4 eps) and mu3 = 6 - eps are below 7; eps = 6
reads only E(2) (and b3), and eps = 25/4 only E(3/4).  So no E(mu) with
mu >= 12 enters eigenspace_sources; mu = 12 enters only at the boundary
eps = 0 of the infinitesimal Einstein deformations, which
assemble_report counts apart.  The tests check this on every candidate
eps of the three spaces and on a grid of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fourier import coclosed_dim, hom_basis
from .lie import ReductiveSpace, build_space
from .render import fraction_jsonable
from .reps import casimir_constant, dim, enumerate_labels

CRITICAL_EPS = Fraction(25, 4)
CASIMIR_THRESHOLD = Fraction(12)


def _sqrt_fraction(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    r = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return r if r * r == q else None


@dataclass(frozen=True)
class MuValues:
    case: str              # generic | eps6 | eps25over4 | empty
    mu1: Fraction | None   # None when irrational or not read by the case
    mu2: Fraction | None
    mu3: Fraction | None


def mu_values(eps) -> MuValues:
    """The three coupled Hodge eigenvalues at lambda = 10 - eps:
    mu_{1,2} = 7 - eps +/- sqrt(25 - 4 eps) and mu_3 = 6 - eps."""
    eps = Fraction(eps)
    if eps > CRITICAL_EPS:
        return MuValues("empty", None, None, None)
    mu3 = Fraction(6) - eps
    if eps == CRITICAL_EPS:
        return MuValues("eps25over4", Fraction(3, 4), Fraction(3, 4), mu3)
    if eps == 6:
        return MuValues("eps6", None, None, Fraction(0))
    s = _sqrt_fraction(Fraction(25) - 4 * eps)
    if s is None:
        return MuValues("generic", None, None, mu3)
    return MuValues("generic", Fraction(7) - eps + s, Fraction(7) - eps - s, mu3)


def eigenspace_sources(eps, e_dims: dict, b3: int) -> list:
    """The (multiplicity, source) pairs that make up the tt-eigenspace at
    lambda = 10 - eps, given the dimensions of E(mu) (absent keys count
    as zero) and the third Betti number; a multiplicity may be 0."""
    mv = mu_values(eps)
    if mv.case == "empty":
        return []
    if mv.case == "eps25over4":
        return [(e_dims.get(Fraction(3, 4), 0), "E(3/4) eigenforms")]
    if mv.case == "eps6":
        return [(e_dims.get(Fraction(2), 0), "E(2) eigenforms"), (b3, "harmonic-3-forms")]
    return [
        (e_dims.get(mu, 0), "harmonic-2-forms" if mu == 0 else f"E({mu}) eigenforms")
        for mu in (mv.mu1, mv.mu2, mv.mu3)
        if mu is not None and mu >= 0
    ]


def candidate_eps(e_dims: dict, b3: int) -> set:
    """Every eps in (0, 25/4] at which the eigenspace can be nonzero: where
    mu1, mu2 or mu3 hits a Casimir value present in e_dims, and the two
    thresholds when what they read is present."""
    candidates = set()
    for mu in e_dims:
        s = _sqrt_fraction(1 + 4 * mu)
        if s is not None:
            for eps in (Fraction(5) - mu + s, Fraction(5) - mu - s):
                if 0 < eps <= CRITICAL_EPS:
                    candidates.add(eps)
        eps3 = Fraction(6) - mu
        if 0 < eps3:
            candidates.add(eps3)
    if b3 > 0 or e_dims.get(Fraction(2), 0) > 0:
        candidates.add(Fraction(6))
    if e_dims.get(Fraction(3, 4), 0) > 0:
        candidates.add(CRITICAL_EPS)
    return candidates


@dataclass(frozen=True)
class DestabilizingSpace:
    lam: Fraction          # Lichnerowicz eigenvalue < 10
    mult: int
    source: str            # harmonic-2-forms | harmonic-3-forms | E(mu) eigenforms


@dataclass(frozen=True)
class StabilityReport:
    space: str
    destabilizing: tuple   # tuple of DestabilizingSpace
    coindex: int
    ied_dim: int
    casimir_rows: tuple    # ((label, dim, casimir, hom_dim, coclosed_dim) ...)

    def to_jsonable(self) -> dict:
        return {
            "space": self.space,
            "destabilizing": [
                {
                    "lambda": fraction_jsonable(d.lam),
                    "mult": d.mult,
                    "source": d.source,
                }
                for d in self.destabilizing
            ],
            "coindex": self.coindex,
            "ied_dim": self.ied_dim,
        }


def _coclosed_table(space: ReductiveSpace) -> list:
    """(label, dim, casimir, hom multiplicity, coclosed multiplicity) for
    every label with Casimir constant up to the enumeration threshold."""
    rows = []
    for label in enumerate_labels(space.group, CASIMIR_THRESHOLD):
        cas = casimir_constant(space.group, label)
        basis = hom_basis(space, label)
        cd = coclosed_dim(space, label, basis)
        rows.append((label, dim(space.group, label), cas, len(basis), cd))
    return rows


@lru_cache(maxsize=None)
def coindex_report(space_name: str) -> StabilityReport:
    """Assemble the coindex and IED dimension of a catalog space from the
    Casimir spectrum, coclosed multiplicities and Betti numbers."""
    space = build_space(space_name)
    return assemble_report(space_name, _coclosed_table(space))


def assemble_report(space_name: str, rows: list) -> StabilityReport:
    space = build_space(space_name)
    if space.einstein_constant != 5:  # lambda = 10 - eps is 2E - eps, and 25/4 assumes E = 5
        raise ArithmeticError(f"{space_name}: Einstein constant {space.einstein_constant}, not 5")
    b2, b3 = space.betti

    e_dims: dict[Fraction, int] = {}
    ied_boundary = 0
    for label, d, cas, hd, cd in rows:
        if cd == 0:
            continue
        contrib = d * cd
        if cas == CASIMIR_THRESHOLD:
            ied_boundary += contrib
        else:
            e_dims[cas] = e_dims.get(cas, 0) + contrib

    if e_dims.get(Fraction(0), 0) != b2:
        raise ArithmeticError(
            f"{space_name}: harmonic 2-form count {e_dims.get(Fraction(0), 0)} "
            f"does not match b2 = {b2}"
        )

    ied_dim = e_dims.get(Fraction(2), 0) + e_dims.get(Fraction(6), 0) + ied_boundary

    candidates = candidate_eps(e_dims, b3)
    destabilizing = [
        DestabilizingSpace(Fraction(10) - eps, mult, source)
        for eps in candidates
        for mult, source in eigenspace_sources(eps, e_dims, b3)
        if mult
    ]
    destabilizing.sort(key=lambda d: (d.lam, d.source))
    return StabilityReport(
        space=space_name,
        destabilizing=tuple(destabilizing),
        coindex=sum(d.mult for d in destabilizing),
        ied_dim=ied_dim,
        casimir_rows=tuple(rows),
    )
