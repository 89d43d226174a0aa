"""Small dense exact linear algebra over the scalar tower.

A matrix is a tuple of row tuples of Scalar, and this module is the only
one that builds that type: every function here that returns a matrix
returns it, and every function reads any sequence of row sequences.
Vectors are lists.  Everything here is plain Gauss elimination with exact
division; sizes never exceed a few hundred rows, so no fraction-free
tricks are needed.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ONE, ZERO, Scalar

Matrix = tuple  # tuple[tuple[Scalar, ...], ...]
Vector = list  # list[Scalar]


def _freeze(rows) -> Matrix:
    return tuple(map(tuple, rows))


def zeros(m: int, n: int) -> Matrix:
    return ((ZERO,) * n,) * m


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    return from_entries(n, {(i, i): ONE for i in range(n)})


def from_entries(m: int, entries: dict, n: int | None = None) -> Matrix:
    """The m x n matrix (n defaults to m) with the given {(i, j): c}
    entries and zeros elsewhere."""
    rows = [[ZERO] * (m if n is None else n) for _ in range(m)]
    for (i, j), c in entries.items():
        rows[i][j] = c
    return _freeze(rows)


def diag(*values) -> Matrix:
    return from_entries(len(values), {(i, i): c for i, c in enumerate(values)})


def kron(*mats) -> Matrix:
    """Kronecker product of one or more matrices, left to right."""
    out = mats[0]
    for m in mats[1:]:
        p, q = len(m), len(m[0])
        rows = [[ZERO] * (len(out[0]) * q) for _ in range(len(out) * p)]
        for i, orow in enumerate(out):
            for j, c in enumerate(orow):
                if not c:
                    continue
                for k, mrow in enumerate(m):
                    for l, x in enumerate(mrow):
                        if x:
                            rows[i * p + k][j * q + l] = c * x
        out = rows
    return _freeze(out)


def lin_comb(coeffs, mats) -> Matrix:
    """sum_k coeffs[k] * mats[k] over the nonzero coefficients; the zero
    matrix of the common shape when every coefficient vanishes."""
    rows = [[ZERO] * len(mats[0][0]) for _ in mats[0]]
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for row, acc in zip(m, rows):
            for j, x in enumerate(row):
                if x:
                    acc[j] = acc[j] + c * x
    return _freeze(rows)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Scalar, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            c = row[t]
            if not c:
                continue
            brow = b[t]
            for j in range(m):
                if brow[j]:
                    acc[j] = acc[j] + c * brow[j]
    return _freeze(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return not any(any(row) for row in a)


def trace_product(a: Matrix, b: Matrix) -> Scalar:
    """tr(a b) = sum over i, j of a[i][j] * b[j][i], without forming a b."""
    s = ZERO
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                y = b[j][i]
                if y:
                    s = s + x * y
    return s


def scalar_multiple_of_identity(a: Matrix) -> Scalar | None:
    """Return c with a == c*Id, or None if a is not scalar."""
    c = a[0][0]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if (x != c) if i == j else bool(x):
                return None
    return c


def rref(a: Matrix) -> tuple[list, list[int]]:
    """Reduced row echelon form (a list of row lists) and the pivot column list."""
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


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, in deterministic (free-column) order."""
    if not a:
        return []
    n = len(a[0])
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for j in free:
        v = [ZERO] * n
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a x = b; returns None if inconsistent, else one solution
    (the unique one when a has full column rank)."""
    n_cols = len(a[0])
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    return x


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(idrow) for row, idrow in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return _freeze(row[n:] for row in red[:n])


def det3(a: Matrix) -> Scalar:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


def adjugate3(a: Matrix) -> Matrix:
    """Classical adjugate of a 3x3 matrix: adj(a) @ a == det(a)*Id."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (
        (a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22),
        (a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23),
        (a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21),
    )
