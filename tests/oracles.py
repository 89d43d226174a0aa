"""Reference code that only the tests use.

Each helper here is an independent check on a library result or a
convenience for writing one; none of them runs under a command.
"""

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from gray_stability import lie, linalg
from gray_stability.branching import KINDS, BranchingError, decompose_weights
from gray_stability.exterior import Form, alternate, derivation_action, wedge2
from gray_stability.forms import HRep, lambda11_0
from gray_stability.fourier import delta_kernel, hom_basis, proto_delta
from gray_stability.lie import ReductiveSpace, ad_and_gram, bracket_closes, build_space
from gray_stability.reps import GROUPS, _doubled_shift, _dual, _explicit_rep, check_label, explicit_rep
from gray_stability.scalars import BASIS_NAMES, I, ONE, SQRT2, ZERO, Scalar, rational
from gray_stability.stability import coindex_report
from gray_stability.sympoly import GENERATORS, NGENS, V1, V2, X, SymPoly

SQRT3 = Scalar.basis_element(3)
# Primitive cube root of unity (-1 + i*sqrt3)/2.
J = Scalar((Fraction(-1, 2), 0, 0, 0, 0, Fraction(1, 2), 0, 0))


# -- scalars -----------------------------------------------------------------

def real(s: Scalar) -> Scalar:
    """The part of s in the real subfield Q(sqrt2, sqrt3)."""
    return (s + s.conjugate()) * rational(1, 2)


def imag(s: Scalar) -> Scalar:
    """The real scalar t with s = real(s) + i t."""
    return (s - real(s)) * -I


def from_json(data) -> Scalar:
    """Inverse of Scalar.to_json."""
    return Scalar(tuple(Fraction(x) for x in data))


def _fractions(s: Scalar) -> tuple:
    """The 8 rational coordinates of s, in storage order."""
    return tuple(Fraction(x, s.d) for x in s.n)


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def scalar_str_reference(s: Scalar) -> str:
    """str(s) rendered from the Fraction coordinates."""
    terms = []
    for q, name in zip(_fractions(s), BASIS_NAMES):
        if not q:
            continue
        if name == "1":
            terms.append(str(q))
        elif q == 1:
            terms.append(name)
        elif q == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{q}*{name}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def scalar_json_reference(s: Scalar) -> list:
    """s.to_json() rendered from the Fraction coordinates."""
    return [_fraction_str(q) for q in _fractions(s)]


# (i, sqrt2, sqrt3) exponents of the storage basis, as in BASIS_NAMES
_EXPS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def fraction_mul_reference(p, q) -> list:
    """Product of two coordinate lists by the rules i^2 = -1, sqrt2^2 = 2,
    sqrt3^2 = 3, computed in Fractions."""
    out = [Fraction(0)] * 8
    for x, (i1, a1, b1) in zip(p, _EXPS):
        for y, (i2, a2, b2) in zip(q, _EXPS):
            if not (x and y):
                continue
            c = x * y * (-1 if i1 and i2 else 1) * (2 if a1 and a2 else 1) * (3 if b1 and b2 else 1)
            out[_EXPS.index(((i1 + i2) % 2, (a1 + a2) % 2, (b1 + b2) % 2))] += c
    return out


def fraction_inverse_reference(p) -> list:
    """The coordinates x with x * p = 1, by Gauss-Jordan elimination on the
    8 x 8 matrix of multiplication by p, in Fractions; p must be nonzero."""
    units = [[Fraction(j == k) for k in range(8)] for j in range(8)]
    columns = [fraction_mul_reference(u, p) for u in units]
    rows = [[col[r] for col in columns] + [units[0][r]] for r in range(8)]
    for c in range(8):
        pivot = next(r for r in range(c, 8) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(8):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[8] for row in rows]


def scalar_op_reference(op: str, a: Scalar, b: Scalar | None = None) -> tuple:
    """(n, d, tag) of a + b, a - b, a * b, -a or a.inverse() (op "+", "-",
    "*", "neg", "inverse"), computed from the Fraction coordinates: d the
    lcm of the coordinate denominators, n the coordinates times d, tag the
    index of the only nonzero coordinate, else 8 for zero and 9 for any
    other scalar."""
    pa = _fractions(a)
    pb = _fractions(b) if b is not None else None
    if op == "+":
        coords = [x + y for x, y in zip(pa, pb)]
    elif op == "-":
        coords = [x - y for x, y in zip(pa, pb)]
    elif op == "*":
        coords = fraction_mul_reference(pa, pb)
    elif op == "neg":
        coords = [-x for x in pa]
    else:
        coords = fraction_inverse_reference(pa)
    d = math.lcm(*(q.denominator for q in coords))
    n = tuple((q * d).numerator for q in coords)
    nonzero = [k for k, x in enumerate(n) if x]
    tag = nonzero[0] if len(nonzero) == 1 else 9 if nonzero else 8
    return n, d, tag


# -- linear algebra ----------------------------------------------------------

def zeros(m: int, n: int):
    """The m x n zero matrix, in the tuple-of-row-tuples form of linalg."""
    return ((ZERO,) * n,) * m


def trace(a) -> Scalar:
    s = ZERO
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def trace_product(a, b) -> Scalar:
    """tr(a b) = sum over i, j of a[i][j] * b[j][i], without forming a b."""
    s = ZERO
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                y = b[j][i]
                if y:
                    s = s + x * y
    return s


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def commutator(a, b):
    """Dense a b - b a."""
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


# The scale of each catalog space's trace form Q = scale * tr(x y).
SCALES = {"s3xs3": Fraction(-1, 3), "cp3": Fraction(-1, 4), "flag": Fraction(-1, 2)}


def shift_entry(mats: tuple, a: int, entry: tuple, c) -> tuple:
    """mats with c added to entry (i, j) of mats[a]."""
    out = list(mats)
    out[a] = mat_add(out[a], linalg.from_entries(len(out[a]), {entry: c}))
    return tuple(out)


# Corruptions of a catalog algebra after ad_and_gram, each giving the
# fields to replace.  ad[a] has column b = coordinates of [basis_a,
# basis_b], so entry (k, b) of ad[a] is coordinate k of [basis_a, basis_b].
ALGEBRA_CORRUPTIONS = {
    # [basis_2, basis_3] and [basis_3, basis_2] move together, so
    # antisymmetry still holds.
    "symmetric_bracket": lambda alg: {"ad": shift_entry(shift_entry(alg.ad, 2, (0, 3), ONE), 3, (0, 2), -ONE)},
    # [basis_2, basis_3] alone moves.
    "one_sided_bracket": lambda alg: {"ad": shift_entry(alg.ad, 2, (0, 3), ONE)},
    # Q(basis_2, basis_2) + 1 leaves the bracket alone.
    "gram_entry": lambda alg: {"gram": mat_add(alg.gram, linalg.from_entries(alg.dim, {(2, 2): ONE}))},
    # E_00 added to basis_2 after ad_and_gram: ad is no longer the
    # bracket of the basis matrices, though it still obeys Jacobi.
    "basis_matrix": lambda alg: {"basis_matrices": shift_entry(alg.basis_matrices, 2, (0, 0), ONE)},
}


def bracket_leaving_m(space: ReductiveSpace) -> ReductiveSpace:
    """The space with coordinate 0 (in h) added to [basis_0, basis_hd],
    basis_0 in h and basis_hd in m, so [h, m] leaves m."""
    alg = space.algebra
    return replace(space, algebra=replace(alg, ad=shift_entry(alg.ad, 0, (0, space.h_dim), ONE)))


def flip_planes(space: ReductiveSpace, planes) -> ReductiveSpace:
    """J flipped on the planes of p_k, k in planes: p_k and the k-th weight
    vector become their conjugates and its weight is negated, so the weight
    basis stays consistent with m^+."""

    def flip(k, v):
        return tuple(x.conjugate() for x in v) if k in planes else v

    return replace(
        space,
        m_plus=tuple(flip(k, p) for k, p in enumerate(space.m_plus)),
        m_plus_weights=tuple(
            (flip(k, v), tuple(-x for x in wt) if k in planes else wt)
            for k, (v, wt) in enumerate(space.m_plus_weights)
        ),
    )


# the J flips of one or two of the three planes
J_FLIPS = [planes for r in (1, 2) for planes in itertools.combinations(range(3), r)]


@contextlib.contextmanager
def catalog_mutant(name: str, mutate):
    """Inside the block build_space(name) returns mutate(real space),
    installed through lie._BUILDERS, so every command and Lambda^{1,1}_0
    read the mutant; the caches that hold a space, or what is built from
    one, are cleared on entry and on exit."""
    real = lie._BUILDERS[name]
    caches = (build_space, lambda11_0, coindex_report, _explicit_rep)
    lie._BUILDERS[name] = lambda: mutate(real())
    for cache in caches:
        cache.cache_clear()
    try:
        yield
    finally:
        lie._BUILDERS[name] = real
        for cache in caches:
            cache.cache_clear()


def validate_algebra_reference(alg) -> dict:
    """Reference for lie.validate_algebra: the same three checks with
    dense commutators and dense products."""
    ad, g, mats = alg.ad, alg.gram, alg.basis_matrices
    cols = [linalg.transpose(x) for x in ad]  # cols[a][b] = [basis_a, basis_b]
    pairs = [(a, b) for a in range(alg.dim) for b in range(alg.dim)]
    return {
        "antisymmetry": all(cols[a][b] == tuple(-x for x in cols[b][a]) for a, b in pairs),
        "jacobi": all(
            linalg.lin_comb(cols[a][b], mats) == commutator(mats[a], mats[b])
            for a, b in pairs
            if a < b
        ),
        "ad_invariance": all(
            linalg.is_zero_matrix(
                mat_add(linalg.mat_mul(linalg.transpose(x), g), linalg.mat_mul(g, x))
            )
            for x in ad
        ),
    }


def ad_and_gram_reference(mats, scale) -> tuple:
    """Reference for lie.ad_and_gram: (ad, gram, gram_inv), the Gram
    matrix of Q(x, y) = scale * tr(x y) by dense trace products, and each
    column of ad[a] as gram_inv times the pairings of [X_a, X_b] with
    every basis matrix."""

    def ip(x, y):
        return Scalar.from_fraction(scale) * trace_product(x, y)

    dim = len(mats)
    gram = linalg.from_entries(
        dim, {(a, b): ip(mats[a], mats[b]) for a in range(dim) for b in range(dim)}
    )
    gram_inv = linalg.inverse(gram)
    ad = tuple(
        linalg.transpose(
            linalg.mat_vec(gram_inv, [ip(c, m) for m in mats])
            for c in (commutator(x, y) for y in mats)
        )
        for x in mats
    )
    return ad, gram, gram_inv


def complex_structure_reference(space: ReductiveSpace) -> tuple:
    """J = P diag(i, i, i, -i, -i, -i) P^-1 on m, P the frame m^+ | m^-
    inverted by elimination."""
    p = linalg.transpose(space.m_plus + space.m_minus)
    k = len(space.m_plus)
    return linalg.mat_mul(linalg.mat_mul(p, linalg.diag(*[I] * k, *[-I] * k)), linalg.inverse(p))


def kahler_form(space: ReductiveSpace) -> Form:
    """omega(X, Y) = g(JX, Y) in the orthonormal m-basis: row k of P^-1 is
    conj(p_k)/d_k, so omega = -i sum_k p_k ^ P^-1[k]."""
    omega: Form = {}
    for p, row in zip(space.m_plus, space.eigenframe_inverse):
        linalg.axpy(omega, -I, wedge2(p, row))
    return omega


def nomizu_ricci(space: ReductiveSpace, sign: int = 1, isotropy_term: bool = True) -> tuple:
    """Reference for ReductiveSpace.einstein_constant: the Ricci tensor on
    m of the invariant connection with Nomizu map Lambda_X = sign * (1/2)
    ad_m(X), from its curvature

        R(X, Y) = [Lambda_X, Lambda_Y] - Lambda_{[X, Y]_m} - ad_m([X, Y]_h),

    the last term kept only with isotropy_term, contracted as
    Ric(Y, Z) = sum_c <R(e_c, Y) Z, e_c> in the orthonormal m-basis."""
    hd, md, ad = space.h_dim, space.m_dim, space.algebra.ad

    def block(x):  # the m-block of an adjoint matrix
        return [row[hd:] for row in x[hd:]]

    lam = [linalg.mat_scale(rational(sign, 2), block(ad[hd + a])) for a in range(md)]
    ad_h = [block(ad[k]) for k in range(hd)]

    def curvature(a, b):
        bracket = [row[hd + b] for row in ad[hd + a]]  # [e_a, e_b] in g-coordinates
        r = mat_sub(linalg.mat_mul(lam[a], lam[b]), linalg.mat_mul(lam[b], lam[a]))
        r = mat_sub(r, linalg.lin_comb(bracket[hd:], lam))
        return mat_sub(r, linalg.lin_comb(bracket[:hd], ad_h)) if isotropy_term else r

    curv = {(c, y): curvature(c, y) for c in range(md) for y in range(md)}
    return linalg.from_entries(
        md, {(y, z): sum((curv[c, y][c][z] for c in range(md)), ZERO) for y in range(md) for z in range(md)}
    )


def dense_rref(a) -> tuple:
    """Reference for linalg.rref: dense Gauss-Jordan elimination that
    zero-tests every cell, pivoting on the first row that holds each
    column."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots


def count_inverses(monkeypatch) -> list:
    """Patch Scalar.inverse to record each element it inverts; returns the
    list it appends to."""
    calls: list = []
    original = Scalar.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Scalar, "inverse", counted)
    return calls


def eliminate_reference(rows: list, n: int) -> tuple:
    """Reference for linalg._eliminate without the singleton presolve:
    every column pivoted on the sparsest row that leads with it, then one
    back-substitution, so each forced column costs an inverse and a row
    scaling."""
    by_lead: dict = {}
    for d in rows:
        if d:
            by_lead.setdefault(min(d), []).append(d)
    pivots: list = []
    reduced: list = []
    for col in range(n):
        leading = by_lead.pop(col, None)
        if leading is None:
            continue
        piv = leading.pop(min(range(len(leading)), key=lambda i: len(leading[i])))
        inv = piv[col].inverse()
        piv = {j: x * inv for j, x in piv.items()}
        for d in leading:
            linalg.axpy(d, -d[col], piv)
            if d:
                by_lead.setdefault(min(d), []).append(d)
        pivots.append(col)
        reduced.append(piv)
    for k in range(len(pivots) - 1, 0, -1):
        col, piv = pivots[k], reduced[k]
        for d in reduced[:k]:
            c = d.get(col)
            if c is not None:
                linalg.axpy(d, -c, piv)
    return reduced, pivots


def to_sparse(a) -> dict:
    """The nonzero entries of a vector, as {j: c}, or of a matrix, as
    {(i, j): c}: the sparse form of kernel vectors, elimination rows,
    Fourier coefficients and their delta images."""
    if a and isinstance(a[0], (list, tuple)):
        return {(i, j): x for i, row in enumerate(a) for j, x in enumerate(row) if x}
    return {j: x for j, x in enumerate(a) if x}


def to_dense(d: dict, m: int, n: int | None = None):
    """Inverse of to_sparse: the length-m vector, or with n the m x n
    matrix, holding the entries of d and zeros elsewhere."""
    if n is None:
        return [d.get(j, ZERO) for j in range(m)]
    return linalg.from_entries(m, d, n)


def dense_nullspace(a) -> list:
    """Reference for linalg.nullspace on a matrix: one kernel vector per
    free column of dense_rref, in column order."""
    if not a:
        return []
    n = len(a[0])
    red, pivots = dense_rref(a)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [ZERO] * n
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis


def dense_hom_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Reference for fourier.hom_basis: the dense equivariance matrix,
    one block W_t (x) Id - Id (x) R_t^T on the row-major coordinates of
    F per isotropy generator t, and its kernel by dense_nullspace."""
    target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    wd, vd = target.dim, len(rep[0])
    rows = []
    for w_t, r_t in zip(target.h_matrices, rep):
        rows.extend(mat_sub(
            linalg.kron(w_t, linalg.identity(vd)),
            linalg.kron(linalg.identity(wd), linalg.transpose(r_t)),
        ))
    return [
        linalg.from_entries(wd, {divmod(i, vd): x for i, x in enumerate(v) if x}, vd)
        for v in dense_nullspace(rows)
    ]


def proto_delta_reference(space: ReductiveSpace, gamma: tuple, f, m_basis=None) -> tuple:
    """Reference for fourier.proto_delta on one dense coefficient f: for
    each vector e of a real orthonormal basis of m (coordinate rows; the
    catalog basis by default) the dense product F rho(e), each column
    realized as a 2-vector and contracted with e.  The result is the
    dense matrix into the complexified complement."""
    target = lambda11_0(space.name)
    rep = explicit_rep(space, gamma)
    md, vd = space.m_dim, len(rep[0])
    if m_basis is None:
        m_basis = linalg.identity(md)
    out: dict = {}
    for e in m_basis:
        rho = linalg.lin_comb(e, rep[space.h_dim :])
        composed = linalg.mat_mul(f, rho)
        for v in range(vd):
            form = realize(target, [composed[w][v] for w in range(target.dim)])
            for (idx,), c in contract(e, form).items():
                linalg.add_into(out, (idx, v), c)
    return linalg.from_entries(md, out, vd)


# -- exterior algebra --------------------------------------------------------

def permutation_sign(perm) -> int:
    """The sign of a permutation of range(len(perm)), by its cycle lengths."""
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
            linalg.add_into(out, key[:slot] + key[slot + 1 :], -val if slot % 2 else val)
    return out


def alternate_reference(tensor: dict) -> Form:
    """exterior.alternate by the sign of each key's sorting permutation."""
    out: Form = {}
    for key, coeff in tensor.items():
        if len(set(key)) != len(key):
            continue
        order = sorted(range(len(key)), key=lambda s: key[s])
        linalg.add_into(out, tuple(sorted(key)), coeff if permutation_sign(order) == 1 else -coeff)
    return out


def wedge2_reference(u: list, v: list) -> Form:
    """exterior.wedge2 as a double loop over the coordinates of u and v."""
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
                linalg.add_into(out, (a, b), c)
            else:
                linalg.add_into(out, (b, a), -c)
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


def form_add(a: Form, b: Form) -> Form:
    out = dict(a)
    for k, v in b.items():
        linalg.add_into(out, k, v)
    return out


def form_lin_comb(coeffs, forms) -> Form:
    """sum_k coeffs[k] * forms[k]."""
    out: Form = {}
    for c, v in zip(coeffs, forms):
        linalg.axpy(out, c, v)
    return out


def form_scale(c: Scalar, a: Form) -> Form:
    """The multiple c * a of a k-vector; zero when c is."""
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def derivation_reference(m: list, form: Form) -> Form:
    """The endomorphism m of the base space extended to a k-vector as a
    derivation, sorting each key as it is made."""
    out: Form = {}
    for key, coeff in form.items():
        for slot, idx in enumerate(key):
            for w in range(len(m)):
                c = m[w][idx]
                if not c:
                    continue
                new = key[:slot] + (w,) + key[slot + 1 :]
                if len(set(new)) != len(new):
                    continue
                order = sorted(range(len(new)), key=lambda s: new[s])
                val = coeff * c if permutation_sign(order) == 1 else -(coeff * c)
                skey = tuple(sorted(new))
                s = out.get(skey)
                s = val if s is None else s + val
                if s:
                    out[skey] = s
                else:
                    out.pop(skey, None)
    return out


# -- representations ---------------------------------------------------------

# The Gram matrix of the catalog inner product Q on each group's torus basis.
TORUS_GRAM = {
    "k3": (
        (Fraction(2, 3), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2, 3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(2, 3)),
    ),
    "so5": ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))),
    "su3": ((Fraction(1), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1))),
}


def fraction_inverse(m) -> list:
    """m^-1 for an invertible square Fraction matrix, by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def _torus_gram_inv(group: str) -> tuple:
    return tuple(map(tuple, fraction_inverse(TORUS_GRAM[group])))


def dual_ip(group: str, u, v) -> Fraction:
    """<u, v> in the Q-dual inner product, in Fractions, from the inverse
    of the torus Gram matrix."""
    gi = _torus_gram_inv(group)
    return sum(Fraction(u[a]) * gi[a][b] * Fraction(v[b]) for a in range(len(gi)) for b in range(len(gi)))


def _delta(group: str) -> tuple:
    return tuple(Fraction(x, 2) for x in GROUPS[group].two_delta)


# label -> bounds of the simple-root coordinates of its weights: every weight
# of the module is label - sum n_k alpha_k with 0 <= n_k <= (BOX[k] . label)
BOX = {
    "k3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "so5": ((2, 0), (2, 2)),
    "su3": ((1, 1), (1, 1)),
}


def weight_system_reference(group: str, label: tuple) -> dict:
    """Freudenthal's recursion on every point of the box, in level order,
    in integers: with D the common denominator of G^-1, the multiplicity of
    lam is 8 * (D num) / (4D denom), num = sum m(mu) <mu, alpha> over
    mu = lam + k alpha (alpha positive, k >= 1) up to mu's leaving the box,
    denom = |label + delta|^2 - |lam + delta|^2; lam is skipped where
    denom is 0."""
    label = check_label(group, label)
    g = GROUPS[group]
    gi = g.dual_gram

    def norm4(lam):
        """4D * |lam + delta|^2."""
        v = _doubled_shift(group, lam)
        return _dual(group, v, v)

    # D * G^-1 alpha, so that D * <mu, alpha> is a dot product.
    root_duals = [
        (alpha, tuple(sum(gi[a][b] * alpha[b] for b in range(g.rank)) for a in range(g.rank)))
        for alpha in g.positive_roots
    ]
    c4 = norm4(label)

    bounds = [sum(b * h for b, h in zip(row, label)) for row in BOX[group]]
    candidates = []
    for ns in itertools.product(*(range(b + 1) for b in bounds)):
        lam = tuple(
            label[i] - sum(n * g.simple_roots[k][i] for k, n in enumerate(ns))
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
            mu = tuple(x + a for x, a in zip(lam, alpha))
            while mu in listed:
                num_d += mult.get(mu, 0) * sum(x * y for x, y in zip(mu, alpha_dual))
                mu = tuple(x + a for x, a in zip(mu, alpha))
        if num_d:
            val, rem = divmod(8 * num_d, denom4)
            if rem or val < 0:
                raise ArithmeticError(
                    f"non-integral multiplicity for {lam}: {Fraction(8 * num_d, denom4)}"
                )
            mult[lam] = val
    return mult


def weyl_dim_reference(group: str, label: tuple) -> Fraction:
    """prod over the positive roots of <label + delta, alpha> / <delta, alpha>."""
    label = check_label(group, label)
    delta = _delta(group)
    shift = tuple(x + d for x, d in zip(label, delta))
    out = Fraction(1)
    for alpha in GROUPS[group].positive_roots:
        out *= dual_ip(group, shift, alpha) / dual_ip(group, delta, alpha)
    return out


def casimir_reference(group: str, label: tuple) -> Fraction:
    """<label, label> + <label, 2 delta>."""
    label = check_label(group, label)
    two_delta = tuple(2 * d for d in _delta(group))
    return dual_ip(group, label, label) + dual_ip(group, label, two_delta)



def enumerate_labels_reference(group: str, max_cas: Fraction) -> list:
    """(label, Casimir constant) of the dominant labels with Casimir
    constant <= max_cas, by (Casimir constant, label), in Fractions.  The
    Casimir constant grows along each coordinate, so the box stops at the
    first n at which every dominant axis point n e_k is above the cutoff."""
    rank = GROUPS[group].rank

    def axis(k, n):
        return tuple(n if i == k else 0 for i in range(rank))

    n = 0
    while any(cas <= max_cas for cas, _ in _casimir_keyed(group, [axis(k, n) for k in range(rank)])):
        n += 1
    return [(lab, cas) for cas, lab in _box_by_casimir(group, n) if cas <= max_cas]


@lru_cache(maxsize=None)
def _box_by_casimir(group: str, n: int) -> list:
    return sorted(_casimir_keyed(group, itertools.product(range(n), repeat=GROUPS[group].rank)))


def _casimir_keyed(group: str, labels) -> list:
    """(Casimir constant, label) of each dominant label: <label, alpha> >= 0
    for every simple root alpha."""
    return [
        (casimir_reference(group, lab), lab)
        for lab in labels
        if all(dual_ip(group, lab, a) >= 0 for a in GROUPS[group].simple_roots)
    ]


def weyl_generators(group: str):
    if group == "k3":
        return [
            lambda w, i=i: tuple(-x if k == i else x for k, x in enumerate(w))
            for i in range(3)
        ]
    if group == "so5":
        return [lambda w: (w[1], w[0]), lambda w: (w[0], -w[1])]
    if group == "su3":
        return [lambda w: (-w[0], w[0] + w[1]), lambda w: (w[0] + w[1], -w[1])]
    raise ValueError(group)


def validate_rep(space: ReductiveSpace, rep: tuple) -> bool:
    """Homomorphism property on all pairs of symmetry-algebra basis vectors;
    both sides are antisymmetric in the pair (ad is, as validate_algebra
    checks), so the pairs a < b decide it."""
    alg = space.algebra
    for a in range(alg.dim):
        cols = linalg.transpose(alg.ad[a])
        for b in range(a + 1, alg.dim):
            lhs = linalg.lin_comb(cols[b], rep)
            rhs = commutator(rep[a], rep[b])
            if lhs != rhs:
                return False
    return True


# -- branching ---------------------------------------------------------------

def h_irrep_dim(h_type: str, label: tuple) -> int:
    if h_type == "delta_su2":
        return label[1] + 1
    if h_type == "u2":
        return label[1] + 1
    return 1


def decomposition_dim(h_type: str, decomposition: dict) -> int:
    return sum(h_irrep_dim(h_type, lab) * m for lab, m in decomposition.items())


def h_irrep_weights(h_type: str, label: tuple) -> dict:
    """Weights of an isotropy irrep: the SU(2) string through its highest
    weight, or that weight alone when the isotropy group is a torus."""
    top = label[1:]
    if h_type == "t2":
        return {top: 1}
    return {(n,) + top[1:]: 1 for n in range(-top[0], top[0] + 1, 2)}


def decompose_weights_reference(h_type: str, weights: dict) -> dict:
    """Greedy highest-weight character subtraction, taking the largest
    remaining weight anew at every step."""
    remaining = {w: m for w, m in weights.items() if m}
    if any(m < 0 for m in remaining.values()):
        raise BranchingError("negative input multiplicity")
    out: dict[tuple, int] = {}
    while remaining:
        top = max(remaining)
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
        out[label] = out.get(label, 0) + mult
    return out


# -- isotropy modules and Fourier coefficients -------------------------------

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
    for ad in space.m_action[: space.h_dim]:
        mats.append(_span_coords(vectors, [alternate(derivation_action(ad, v)) for v in vectors]))
    return mats


def lambda11_0_reference(space_name: str) -> HRep:
    """forms.lambda11_0 by elimination: the Kaehler 2-vector's coordinates
    against the nine wedges, the primitive combinations of the zero-weight
    block, and the isotropy matrices solved for in 2-vector coordinates."""
    space = build_space(space_name)
    wedges = []
    wedge_weights = []
    for p, wp in space.m_plus_weights:
        for q, wq in space.m_minus_weights:
            wedges.append(wedge2(p, q))
            wedge_weights.append(tuple(a + b for a, b in zip(wp, wq)))
    kahler = kahler_form(space)
    kahler_coords = [row[0] for row in _span_coords(wedges, [kahler])]

    zero_wt = tuple(0 for _ in space.h_weight_torus)
    zero_idx = [i for i, w in enumerate(wedge_weights) if w == zero_wt]
    if not any(kahler_coords[i] for i in zero_idx) or any(
        kahler_coords[i] for i in range(len(wedges)) if i not in zero_idx
    ):
        raise ArithmeticError("Kaehler 2-vector must span a zero-weight line")

    row: dict = {}
    for j, i in enumerate(zero_idx):
        linalg.add_into(row, j, form_inner(wedges[i], kahler))
    combos = linalg.nullspace([row], len(zero_idx))

    vectors = [v for i, v in enumerate(wedges) if i not in zero_idx]
    weights = [w for i, w in enumerate(wedge_weights) if i not in zero_idx]
    for combo in combos:
        vec: Form = {}
        for j, c in combo.items():
            linalg.axpy(vec, c, wedges[zero_idx[j]])
        vectors.append(vec)
        weights.append(zero_wt)
    return HRep(
        vectors=tuple(vectors),
        weights=tuple(weights),
        h_matrices=tuple(_h_action_matrices(space, vectors)),
        decomposition=decompose_weights(space.h_type, Counter(weights)),
    )


def lambda11(space_name: str) -> HRep:
    """m^+ wedge m^-, the full (1,1) module (dimension 9)."""
    space = build_space(space_name)
    vectors = []
    weights = []
    for p, wp in space.m_plus_weights:
        for q, wq in space.m_minus_weights:
            vectors.append(wedge2(p, q))
            weights.append(tuple(a + b for a, b in zip(wp, wq)))
    return HRep(
        vectors=tuple(vectors),
        weights=tuple(weights),
        h_matrices=tuple(_h_action_matrices(space, vectors)),
        decomposition=decompose_weights(space.h_type, Counter(weights)),
    )


def realize(rep: HRep, coords: list) -> Form:
    """The 2-vector with the given coordinates in the module basis."""
    return form_lin_comb(coords, rep.vectors)


def coords_of(rep: HRep, form: Form) -> list:
    """Coordinates of a 2-vector lying in the span of the module."""
    return [row[0] for row in _span_coords(rep.vectors, [form])]


def trivial_summand_basis(space_name: str) -> list:
    """Basis of the isotropy-fixed subspace of lambda11_0, as 2-vectors."""
    rep = lambda11_0(space_name)
    rows = [r for m in rep.h_matrices for r in m]
    kernel = linalg.nullspace([to_sparse(row) for row in rows], rep.dim) if rows else []
    return [_normalize_leading(form_lin_comb(to_dense(combo, rep.dim), rep.vectors)) for combo in kernel]


def _normalize_leading(form: Form) -> Form:
    if not form:
        return form
    lead = min(form)
    return form_scale(form[lead].inverse(), form)


def check_equivariance(space: ReductiveSpace, rep: tuple, target, f: tuple) -> bool:
    for t in range(space.h_dim):
        lhs = linalg.mat_mul(target.h_matrices[t], f)
        rhs = linalg.mat_mul(f, rep[t])
        if lhs != rhs:
            return False
    return True


def s3xs3_display_generator() -> tuple:
    """The reference display matrix on the module (1, 1, 0) of the triple
    product space; it differs from the equivariant generator by the sign
    of its first column."""
    space = build_space("s3xs3")
    target = lambda11_0("s3xs3")
    x, xb = space.m_plus, space.m_minus
    b1 = form_add(wedge2(x[0], xb[1]), form_scale(-ONE, wedge2(x[1], xb[0])))
    b2 = form_add(wedge2(x[1], xb[2]), form_scale(-ONE, wedge2(x[2], xb[1])))
    b3 = form_add(wedge2(x[2], xb[0]), form_scale(-ONE, wedge2(x[0], xb[2])))
    inv_s2 = SQRT2.inverse()
    cols = [
        form_scale(inv_s2, form_add(b2, form_scale(-I, b3))),
        form_scale(inv_s2, b1),
        form_scale(inv_s2, b1),
        form_scale(inv_s2, form_add(b2, form_scale(I, b3))),
    ]
    return linalg.transpose([coords_of(target, c) for c in cols])


def flag_invariant_coefficient() -> tuple:
    """The Fourier coefficient on the adjoint module of the flag manifold
    sending X to <X,h1> e56 - <X,h2> e34 + <X,h3> e12 (coordinates against
    the su(3) basis (t1, t2, e1..e6) of the catalog)."""
    target = lambda11_0("flag")
    half = rational(1, 2)
    # t1 = h1 - h2, t2 = h2 - h3 in the unitary frame: <t1,h1> = 1/2,
    # <t1,h2> = -1/2, <t2,h2> = 1/2, <t2,h3> = -1/2, all others zero.
    col_t1 = {(4, 5): half, (2, 3): half}
    col_t2 = {(2, 3): -half, (0, 1): -half}
    cols = [col_t1, col_t2] + [{}] * 6
    return linalg.transpose([coords_of(target, c) for c in cols])


def cp3_contraction_ratio(d: tuple):
    """The scalar c with delta(F)(v_i) = c (e_i -| eta) for i = 1..4, where
    d is the delta image of a Fourier coefficient on the defining module
    of cp3 and eta the invariant (1,1)-form; None when no single c fits."""
    eta = {(0, 1): rational(1, 2), (2, 3): rational(1, 2), (4, 5): ONE}
    inv_s2 = SQRT2.inverse()
    ratios = set()
    for idx in range(4):
        e_i = [(inv_s2 if k == idx else ZERO) for k in range(6)]
        expected = contract(e_i, eta)
        col = {(k,): d[k][idx] for k in range(6) if d[k][idx]}
        if set(col) != set(expected):
            return None
        ratios |= {col[key] * expected[key].inverse() for key in col}
    return ratios.pop() if len(ratios) == 1 else None


def coclosed_basis(space: ReductiveSpace, gamma: tuple) -> list:
    """Fourier coefficients spanning the kernel of the codifferential."""
    basis = hom_basis(space, gamma)
    vd = len(explicit_rep(space, gamma)[0]) if basis else 0
    dense = [to_dense(f, lambda11_0(space.name).dim, vd) for f in basis]
    return [
        linalg.lin_comb(to_dense(combo, len(basis)), dense)
        for combo in delta_kernel(proto_delta(space, gamma, basis))
    ]


# -- spectral case analysis --------------------------------------------------
# The eps-first reading of the coupling that stability.tt_eigenspaces reads
# forward from E(mu): at lambda = 10 - eps, mu_{1,2} = 7 - eps +/- sqrt(25 - 4 eps)
# and mu_3 = 6 - eps, with the thresholds eps = 6 and eps = 25/4 as cases.

@dataclass(frozen=True)
class MuValues:
    case: str              # generic | eps6 | eps25over4 | empty
    mu1: Fraction | None   # None when irrational or not read by the case
    mu2: Fraction | None
    mu3: Fraction | None


@lru_cache(maxsize=None)
def mu_values(eps) -> MuValues:
    """The three coupled Hodge eigenvalues at lambda = 10 - eps:
    mu_{1,2} = 7 - eps +/- sqrt(25 - 4 eps) and mu_3 = 6 - eps."""
    eps = Fraction(eps)
    if eps > Fraction(25, 4):
        return MuValues("empty", None, None, None)
    mu3 = Fraction(6) - eps
    if eps == Fraction(25, 4):
        return MuValues("eps25over4", Fraction(3, 4), Fraction(3, 4), mu3)
    if eps == 6:
        return MuValues("eps6", None, None, Fraction(0))
    s = sqrt_fraction_reference(Fraction(25) - 4 * eps)
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
        s = sqrt_fraction_reference(1 + 4 * mu)
        if s is not None:
            for eps in (Fraction(5) - mu + s, Fraction(5) - mu - s):
                if 0 < eps <= Fraction(25, 4):
                    candidates.add(eps)
        eps3 = Fraction(6) - mu
        if 0 < eps3:
            candidates.add(eps3)
    if b3 > 0 or e_dims.get(Fraction(2), 0) > 0:
        candidates.add(Fraction(6))
    if e_dims.get(Fraction(3, 4), 0) > 0:
        candidates.add(Fraction(25, 4))
    return candidates

def solution_dim(eps, e_dims: dict, b3: int) -> int:
    """Dimension of the tt-eigenspace at lambda = 10 - eps, summed over
    eigenspace_sources; eps must be positive."""
    if Fraction(eps) <= 0:
        raise ValueError("the case analysis requires eps > 0")
    return sum(mult for mult, _ in eigenspace_sources(eps, e_dims, b3))


def matrix_a(eps) -> list:
    """Coupling matrix of the (phi, delta sigma) system at lambda = 10 - eps."""
    eps = Fraction(eps)
    return [
        [Fraction(4) - eps, Fraction(-1)],
        [Fraction(-4) * (Fraction(4) - eps), Fraction(10) - eps],
    ]


@lru_cache(maxsize=None)
def sqrt_fraction_reference(q: Fraction):
    """sqrt(q) = sqrt(p d)/d for q = p/d in lowest terms, or None when
    q < 0 or p d is not a square."""
    if q < 0:
        return None
    n = q.numerator * q.denominator
    r = math.isqrt(n)
    return Fraction(r, q.denominator) if r * r == n else None


def matrix_a_eigenvalues(eps):
    """(eigenvalues sorted descending, diagonalizable) for rational spectra,
    or (None, None) when the eigenvalues are irrational."""
    a = matrix_a(eps)
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    disc = tr * tr - 4 * det
    s = sqrt_fraction_reference(disc)
    if s is None:
        return None, None
    vals = ((tr + s) / 2, (tr - s) / 2)
    if vals[0] != vals[1]:
        return vals, True
    lam = vals[0]
    diagonalizable = all(
        a[i][j] == (lam if i == j else 0) for i in range(2) for j in range(2)
    )
    return vals, diagonalizable


# -- the obstruction ---------------------------------------------------------

def substitute(p: SymPoly, values: list) -> Scalar:
    """Evaluate p at scalar values for the nine generators."""
    total = ZERO
    for m, c in p.terms.items():
        term = c
        for k, e in enumerate(m):
            for _ in range(e):
                term = term * values[k]
        total = total + term
    return total


def gram_su3() -> list:
    """The Fraction Gram matrix of the nine coordinate functions on the
    traceless subalgebra: <x_i, x_j> = delta, <x_i, v_j> = 0,
    <v_i, v_i> = 1/3, <v_i, v_j> = -1/6."""
    g = [[Fraction(0)] * NGENS for _ in range(NGENS)]
    for i in range(3):
        for j in range(3):
            g[i][j] = Fraction(1, 3) if i == j else Fraction(-1, 6)
    for i in range(3, NGENS):
        g[i][i] = Fraction(1)
    return g


_GRAM_SU3 = gram_su3()


def monomial_pairing_reference(m1: tuple, m2: tuple) -> Scalar:
    """<m1, m2> on the symmetric power as the Fraction permanent of the
    Gram entries of the two monomials' factors."""
    f1, f2 = ([k for k, e in enumerate(m) for _ in range(e)] for m in (m1, m2))
    acc = Fraction(0)
    for perm in itertools.permutations(range(len(f2))):
        prod = Fraction(1)
        for i, s in enumerate(perm):
            prod *= _GRAM_SU3[f1[i]][f2[s]]
            if not prod:
                break
        acc += prod
    return Scalar.from_fraction(acc)


def substitute_polys_reference(p: SymPoly, values: list) -> SymPoly:
    """p with the generators replaced by polynomials, one factor at a time."""
    total = SymPoly()
    for m, c in p.terms.items():
        term = SymPoly({(0,) * NGENS: c})
        for k, e in enumerate(m):
            for _ in range(e):
                term = term * values[k]
        total = total + term
    return total


def eliminate_v3(p: SymPoly) -> SymPoly:
    """Substitute v3 = -v1 - v2: normal form for equality modulo the
    trace relation."""
    return substitute_polys_reference(p, [V1, V2, -(V1 + V2)] + list(X))


def trace_cube_reference(tensor: dict, n: int = 6) -> SymPoly:
    """Reference for obstruction.trace_cube: tr(t^3) of the dense n x n
    matrix of polynomials, by two matrix products."""
    t = [[tensor.get((a, b), SymPoly()) for b in range(n)] for a in range(n)]

    def product(x, y):
        return [[sum((x[a][k] * y[k][b] for k in range(n)), SymPoly()) for b in range(n)] for a in range(n)]

    cube = product(product(t, t), t)
    return sum((cube[a][a] for a in range(n)), SymPoly())


def equal_mod_trace(p: SymPoly, q: SymPoly) -> bool:
    return eliminate_v3(p - q) == SymPoly()


def reduce_v_cubic_reference(p: SymPoly) -> SymPoly:
    """Reference for sympoly.reduce_v_cubic: the pure-v part must be a
    homogeneous cubic fixed by the six permutations of v1, v2, v3; on
    e1 = 0 it is c e3, and eliminating v3 turns e3 into -v1^2 v2 - v1 v2^2,
    so c is read off the coefficient of v1^2 v2 and checked there."""
    pure = {m: c for m, c in p.terms.items() if not any(m[3:])}
    if not pure:
        return p
    if {sum(m) for m in pure} != {3}:
        raise ValueError("pure-v part is not a homogeneous cubic")
    for perm in itertools.permutations(range(3)):
        if {tuple(m[k] for k in perm) + m[3:]: c for m, c in pure.items()} != pure:
            raise ValueError("pure-v part is not symmetric")
    reduced = eliminate_v3(SymPoly(pure))
    cubic = SymPoly({(1, 1, 1) + (0,) * (NGENS - 3): -reduced.terms.get((2, 1) + (0,) * (NGENS - 2), ZERO)})
    if reduced != eliminate_v3(cubic):
        raise ArithmeticError("symmetric cubic is not a multiple of v1 v2 v3 modulo the trace")
    return SymPoly({m: c for m, c in p.terms.items() if any(m[3:])}) + cubic


@lru_cache(maxsize=1)
def _frame():
    """The unitary frame: 3x3 matrices of h1..h3 and e1..e6."""
    su3 = build_space("flag").algebra.basis_matrices  # (t1, t2, e1..e6)
    h_mats = tuple(linalg.from_entries(3, {(k, k): I}) for k in range(3))
    return h_mats, su3[2:]


def _ip_u3(x, y) -> Scalar:
    # -(1/2) tr extends -(1/12)B of su(3) and makes (e_i, sqrt2 h_j) orthonormal.
    return rational(-1, 2) * trace_product(x, y)


def _coords_u3(m) -> tuple:
    """Coordinates of a u(3) matrix in the (h, e) basis, read through the
    trace form: the h-coordinate is twice the pairing, as |h_j|^2 = 1/2."""
    h_mats, e_mats = _frame()
    h_coeffs = [(_ip_u3(m, h) * rational(2)) for h in h_mats]
    e_coeffs = [_ip_u3(m, e) for e in e_mats]
    recon = linalg.lin_comb(h_coeffs + e_coeffs, h_mats + e_mats)
    if recon != m:
        raise ValueError("matrix is not in the unitary frame span")
    return tuple(h_coeffs), tuple(e_coeffs)


def coordinate_derivatives_reference() -> tuple:
    """D[a][g]: the derivative of coordinate function g along e_{a+1}, the
    linear polynomial whose coefficients are column g of the adjoint
    matrix of e_{a+1} on the u(3) frame.  Each column is checked exactly
    to recombine to the bracket [e_{a+1}, Z_g].  obstruction.nabla_h takes
    these derivatives as h([xi, e]) instead; the Leibniz rule over this
    table is its reference."""
    frame = tuple(linalg.from_entries(3, {(k, k): I}) for k in range(3))
    frame += build_space("flag").algebra.basis_matrices[2:]
    ad = ad_and_gram(frame, Fraction(-1, 2)).ad
    if not bracket_closes(frame, ad, ((3 + a, g) for a in range(6) for g in range(len(frame)))):
        raise ValueError("matrix is not in the unitary frame span")
    units = [next(iter(g.terms)) for g in GENERATORS]  # the exponent tuple of each generator
    return tuple(
        tuple(SymPoly(dict(zip(units, col))) for col in linalg.transpose(ad[3 + a]))
        for a in range(6)
    )


def coordinate_poly(m) -> SymPoly:
    """Reference for coordinate_derivatives_reference: the coordinate
    function <xi*, m> as a linear polynomial, by the trace form."""
    h_coeffs, e_coeffs = _coords_u3(m)
    out = SymPoly()
    for k, c in enumerate(h_coeffs + e_coeffs):
        if c:
            out = out + GENERATORS[k].scale(c)
    return out


def psi_lookup() -> dict:
    """Reference for the torsion endomorphisms A_X of obstruction:
    Psi^-(e_a, e_b, e_c) of the flag manifold for every ordered triple of
    distinct indices, by permuting each stored coefficient with its sign."""
    psi = {}
    for key, c in build_space("flag").psi_minus:
        for perm in itertools.permutations(range(3)):
            signed = c if permutation_sign(perm) == 1 else -c
            psi[tuple(key[p] for p in perm)] = signed
    return psi


def torus_derivative(h_index: int, p: SymPoly) -> SymPoly:
    """Leibniz derivative of a polynomial along the isotropy direction
    h_{h_index+1}; vanishes exactly on torus-invariant functions."""
    h_mats, e_mats = _frame()
    derivs = [
        coordinate_poly(commutator(h_mats[h_index], t))
        for t in h_mats + e_mats
    ]
    return sum((p.partial(k) * d for k, d in enumerate(derivs)), SymPoly())


def matrix_from_coordinates(v: list, x: list) -> tuple:
    """Reconstruct the traceless skew-hermitian matrix with coordinates
    (v1, v2, v3, x1..x6); scalars may be rationals or tower elements."""

    def s(q):
        return q if isinstance(q, Scalar) else Scalar.from_fraction(q)

    v = [s(q) for q in v]
    x = [s(q) for q in x]
    two_i = I * rational(2)
    return (
        (two_i * v[0], x[0] + I * x[1], x[2] + I * x[3]),
        (-x[0] + I * x[1], two_i * v[1], x[4] + I * x[5]),
        (-x[2] + I * x[3], -x[4] + I * x[5], two_i * v[2]),
    )
