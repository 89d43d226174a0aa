"""Exterior algebra helpers on the reductive complement.

Multivectors are sparse dicts keyed by strictly increasing index tuples;
tensors are sparse dicts keyed by ordered index tuples.
derivation_action is the one extension of a matrix to tensor keys: a
k-vector's callers alternate its result, and product_action, the one
builder of a product of symmetric powers (reps' modules, forms'
m^+ (x) m^-), sorts each key into a monomial.  alternate is the one map
from a tensor to a multivector; wedge2 alternates an outer product.  These
four are the module.  None reads the metric: ``lie.frame_pairing`` gives
the pairing of m^+ with m^- that Lambda^{1,1}_0 needs, and ``lie`` tests
J against the bracket by its isotropy blocks, not by a Kaehler form.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product

from .linalg import add_into
from .scalars import ONE

Form = dict  # dict[tuple[int, ...], Scalar]


def wedge2(u: list, v: list) -> Form:
    """u wedge v for coordinate vectors in the orthonormal basis."""
    return alternate({(a, b): x * y for a, x in enumerate(u) if x for b, y in enumerate(v) if y})


def derivation_action(m: list, tensor: dict) -> dict:
    """Extend the endomorphism m of the base space to a tensor as a
    derivation.  Keys are ordered index tuples and coefficients anything
    that multiplies a Scalar (Scalar or SymPoly); zeros are dropped."""
    out: dict = {}
    for key, coeff in tensor.items():
        for slot, idx in enumerate(key):
            for w in range(len(m)):
                c = m[w][idx]
                if not c:
                    continue
                add_into(out, key[:slot] + (w,) + key[slot + 1 :], coeff * c)
    return out


def product_action(seeds: list) -> list:
    """The nonzeros {(row, col): c} of each element's matrix on the
    product of Sym^k(V) over the seed modules (mats, k), mats[a] the
    matrix of element a on V.  The basis is one sorted k-tuple per seed,
    in itertools.product order (so Kronecker order), and each element acts
    by derivation on one factor at a time."""
    combos = (combinations_with_replacement(range(len(mats[0])), k) for mats, k in seeds)
    index = {mono: i for i, mono in enumerate(product(*combos))}
    out = [{} for _ in seeds[0][0]]
    for a, entries in enumerate(out):
        for mono, col in index.items():
            for f, (mats, _) in enumerate(seeds):
                for key, c in derivation_action(mats[a], {mono[f]: ONE}).items():
                    new = index[mono[:f] + (tuple(sorted(key)),) + mono[f + 1 :]]
                    add_into(entries, (new, col), c)
    return out


def alternate(tensor: dict) -> Form:
    """The k-vector of an ordered tensor: keys with a repeated index drop
    out, the rest are sorted, negated when the key has an odd number of
    inversions."""
    out: Form = {}
    for key, coeff in tensor.items():
        if len(set(key)) != len(key):
            continue
        inversions = sum(a > b for a, b in combinations(key, 2))
        add_into(out, tuple(sorted(key)), -coeff if inversions % 2 else coeff)
    return out

