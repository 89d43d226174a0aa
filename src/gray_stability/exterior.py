"""Exterior algebra helpers on the reductive complement.

Multivectors are sparse dicts keyed by strictly increasing index tuples;
derivation_action works on tensors keyed by ordered index tuples, and
alternate turns such a tensor into a multivector.
All formulas below assume the ambient basis is orthonormal for the
invariant metric, which holds for every catalog space.
"""

from __future__ import annotations

from .linalg import add_into
from .scalars import ZERO, Scalar

Form = dict  # dict[tuple[int, ...], Scalar]


def wedge2(u: list, v: list) -> Form:
    """u wedge v for coordinate vectors in the orthonormal basis."""
    out: Form = {}
    n = len(u)
    for a in range(n):
        ua = u[a]
        if not ua:
            continue
        for b in range(n):
            if a == b:
                continue
            vb = v[b]
            if not vb:
                continue
            c = ua * vb
            if a < b:
                add_into(out, (a, b), c)
            else:
                add_into(out, (b, a), -c)
    return out


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


def alternate(tensor: dict) -> Form:
    """The k-vector of an ordered tensor: keys with a repeated index drop
    out, the rest are sorted with the sign of the sorting permutation."""
    out: Form = {}
    for key, coeff in tensor.items():
        if len(set(key)) != len(key):
            continue
        order = sorted(range(len(key)), key=lambda s: key[s])
        add_into(out, tuple(sorted(key)), coeff if _permutation_sign(order) == 1 else -coeff)
    return out


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def contract(x: list, form: Form) -> Form:
    """Interior product x -| form, contraction convention
    x -| (v1 ^ ... ^ vk) = sum_s (-1)^(s-1) <x, v_s> v1 ^ ... (omit s) ... ^ vk
    with the bilinear pairing of the orthonormal base frame.
    """
    out: Form = {}
    for key, coeff in form.items():
        for slot, idx in enumerate(key):
            xc = x[idx]
            if not xc:
                continue
            val = xc * coeff
            add_into(out, key[:slot] + key[slot + 1 :], -val if slot % 2 else val)
    return out


def form_inner(a: Form, b: Form) -> Scalar:
    """Bilinear inner product induced by the orthonormal base frame:
    <u1 ^ u2, w1 ^ w2> = <u1,w1><u2,w2> - <u1,w2><u2,w1>, etc."""
    total = ZERO
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for key, va in small.items():
        vb = large.get(key)
        if vb:
            total = total + va * vb
    return total
