"""Spectral bookkeeping for the second variation of the Einstein-Hilbert
action on the catalog spaces.

The tt-eigenspace of the Lichnerowicz Laplacian at lambda = 10 - eps is
assembled from eigenspaces E(mu) of the Hodge Laplacian on coclosed
primitive (1,1)-forms.  The coupled eigenvalues there are
mu_{1,2} = 7 - eps +/- sqrt(25 - 4 eps) and mu_3 = 6 - eps; tt_eigenspaces
reads them forward, so that each E(mu) feeds
eps = 5 - mu +/- sqrt(1 + 4 mu) (when rational) and eps = 6 - mu with
0 <= eps <= 25/4.  The double root mu_1 = mu_2 = 3/4 at eps = 25/4 is one
root in eps, 5 - 3/4 + 2, so E(3/4) is read there once.  At eps = 6 the
harmonic 3-forms (lambda = 4) take the place of the harmonic 2-forms:
(eps, mu) = (6, 0), where two of the three values meet, is dropped.
The rows with lambda < 10 destabilize; those at lambda = 10 (eps = 0,
where mu = 2, 6 and 12 are read) are the infinitesimal Einstein
deformations.  E(mu) itself is computed from the Casimir spectrum and
coclosed multiplicities; that mu is the Casimir constant on these forms
is cited from Moroianu-Semmelmann (*The Hermitian Laplace operator on
nearly Kaehler manifolds*; *Infinitesimal Einstein deformations of
nearly Kaehler metrics*), not checked here.

Why the Casimir cutoff of 12 suffices.  The largest eps that E(mu) feeds,
5 - mu + sqrt(1 + 4 mu), reaches 0 at mu = 12 and falls below it after,
so no label above Casimir 12 feeds lambda < 10, and mu = 12 feeds only
lambda = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fourier import coclosed_dim, hom_basis
from .lie import ReductiveSpace, build_space
from .render import fraction_jsonable
from .reps import dim, enumerate_labels

CRITICAL_EPS = Fraction(25, 4)
CASIMIR_THRESHOLD = Fraction(12)


def _sqrt_fraction(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    r = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return r if r * r == q else None


def tt_eigenspaces(e_dims: dict, b3: int) -> list:
    """(lambda, mult, source) of every nonzero tt-eigenspace at
    lambda = 10 - eps, 0 <= eps <= 25/4, read forward from the dimensions
    of E(mu) and the third Betti number (module docstring)."""
    rows = [(Fraction(4), b3, "harmonic-3-forms")] if b3 else []
    for mu, mult in e_dims.items():
        if not mult:
            continue
        s = _sqrt_fraction(1 + 4 * mu)
        roots = (6 - mu,) if s is None else (6 - mu, 5 - mu + s, 5 - mu - s)
        source = "harmonic-2-forms" if mu == 0 else f"E({mu}) eigenforms"
        rows += [
            (10 - eps, mult, source)
            for eps in roots
            if 0 <= eps <= CRITICAL_EPS and (eps, mu) != (6, 0)
        ]
    return rows


@dataclass(frozen=True)
class StabilityReport:
    space: str
    destabilizing: tuple   # (lambda < 10, mult, source) rows of tt_eigenspaces
    coindex: int
    ied_dim: int
    casimir_rows: tuple    # ((label, dim, casimir, hom_dim, coclosed_dim) ...)

    def to_jsonable(self) -> dict:
        return {
            "space": self.space,
            "destabilizing": [
                {"lambda": fraction_jsonable(lam), "mult": mult, "source": source}
                for lam, mult, source in self.destabilizing
            ],
            "coindex": self.coindex,
            "ied_dim": self.ied_dim,
        }


def _coclosed_table(space: ReductiveSpace) -> list:
    """(label, dim, casimir, hom multiplicity, coclosed multiplicity) for
    every label with Casimir constant up to the enumeration threshold."""
    rows = []
    for label, cas in enumerate_labels(space.group, CASIMIR_THRESHOLD).items():
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
    for label, d, cas, hd, cd in rows:
        e_dims[cas] = e_dims.get(cas, 0) + d * cd
    if e_dims.get(Fraction(0), 0) != b2:
        raise ArithmeticError(
            f"{space_name}: harmonic 2-form count {e_dims.get(Fraction(0), 0)} "
            f"does not match b2 = {b2}"
        )

    eigenspaces = tt_eigenspaces(e_dims, b3)
    destabilizing = sorted(
        (row for row in eigenspaces if row[0] < 10), key=lambda row: (row[0], row[2])
    )
    return StabilityReport(
        space=space_name,
        destabilizing=tuple(destabilizing),
        coindex=sum(mult for _, mult, _ in destabilizing),
        ied_dim=sum(mult for lam, mult, _ in eigenspaces if lam == 10),
        casimir_rows=tuple(rows),
    )
