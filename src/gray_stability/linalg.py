"""Exact linear algebra over the scalar tower.

A matrix is a tuple of row tuples of Scalar, and this module is the only
one that builds that type: every function here that returns a matrix
returns it, and every function reads any sequence of row sequences.
``mat_mul`` is the one dense product; vectors enter it as the columns
of a matrix.

A sparse vector is a dict of its nonzeros: elimination rows, kernel
vectors, forms, polynomial terms.  It never stores a zero, so two of them
are equal exactly when their dicts are, and ``min(d)`` is the leading
column of a row.  Every sum into one goes through ``add_into`` (one
entry) or ``axpy`` (a multiple of another sparse vector), which drop an
entry when it cancels.

Every kernel, solve and inverse goes through one sparse exact
elimination, ``_eliminate``; an inverse is the solve against the
identity.  The systems the pipeline builds (equivariance and Casimir
constraints, codifferentials) are a few percent dense, so it holds each
row as a sparse vector and touches only its nonzeros.
Division is exact in the field, so no fraction-free tricks are needed.
The isotropy torus acts diagonally on the weight bases, so many
equivariance rows hold one entry; a presolve clears those columns with
no arithmetic, and leaves the output alone, as the reduced echelon form
of a row space is unique.  A system with no such row skips it.

``nullspace(rows, n)`` takes sparse rows with their column count and
returns its kernel vectors sparse, so ``fourier`` hands over the
equivariance and codifferential systems as it builds them and keeps its
coefficients and their kernels sparse, with no dense matrix in between
and no zero test per cell.  ``rref`` keeps its dense rows in and out:
the tracer of ``perfbench`` sizes each elimination by ``len(a[0])`` of
the argument of ``rref``.

``restrict_to_span`` reads matrices on the span of such kernel vectors at
their free columns, with no further elimination.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ONE, ZERO, Scalar

Matrix = tuple  # tuple[tuple[Scalar, ...], ...]


def _freeze(rows) -> Matrix:
    return tuple(map(tuple, rows))


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c on a sparse vector, in place; an entry that cancels
    leaves acc.  c is anything that adds and has a truth value (Scalar or
    SymPoly)."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def axpy(acc: dict, c, x: dict) -> None:
    """acc += c * x on sparse vectors, in place; entries that cancel leave
    acc.  The loop is ``add_into`` written out, as the elimination runs it
    once per row operation."""
    if not c:
        return
    for k, y in x.items():
        s = acc.get(k)
        if s is None:
            acc[k] = c * y
        else:
            s = s + c * y
            if s:
                acc[k] = s
            else:
                del acc[k]


def nonzeros(a: Matrix) -> dict:
    """The nonzeros {(i, j): c} of a matrix, as a sparse vector."""
    return {(i, j): c for i, row in enumerate(a) for j, c in enumerate(row) if c}


def trace_pairing(x: dict, y: dict) -> Scalar:
    """tr(x y) = sum of x_ij y_ji, for two matrices given by their
    nonzeros {(i, j): c}."""
    return sum((c * y[j, i] for (i, j), c in x.items() if (j, i) in y), ZERO)


def sum_of_products(terms) -> dict:
    """Nonzeros of the sum of x y (of -x y when negate) over the terms
    (x, y, negate), each matrix given by its nonzeros {(i, j): c}."""
    out: dict = {}
    for first, second, negate in terms:
        rows: dict = {}
        for (k, j), d in second.items():
            rows.setdefault(k, []).append((j, d))
        for (i, k), c in first.items():
            for j, d in rows.get(k, ()):
                add_into(out, (i, j), -c * d if negate else c * d)
    return out


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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product of two matrices."""
    p, q = len(b), len(b[0])
    rows = [[ZERO] * (len(a[0]) * q) for _ in range(len(a) * p)]
    for i, arow in enumerate(a):
        for j, c in enumerate(arow):
            if not c:
                continue
            for k, brow in enumerate(b):
                for l, x in enumerate(brow):
                    if x:
                        rows[i * p + k][j * q + l] = c * x
    return _freeze(rows)


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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m = len(b[0])
    b_rows = [[(j, x) for j, x in enumerate(brow) if x] for brow in b]  # each row's nonzeros, read once
    out = []
    for row in a:
        acc = [ZERO] * m
        for c, brow in zip(row, b_rows, strict=True):
            if c:
                for j, x in brow:
                    acc[j] = acc[j] + c * x
        out.append(acc)
    return _freeze(out)


def is_zero_matrix(a: Matrix) -> bool:
    return not any(any(row) for row in a)


def rref(a: Matrix) -> tuple[list, list[int]]:
    """Reduced row echelon form (a list of row lists, zero rows last) and
    the pivot column list, by the sparse elimination ``_eliminate``.

    ``rref`` takes and returns dense rows, for ``solve`` (so
    ``inverse``); ``nullspace`` calls ``_eliminate`` directly.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    reduced, pivots = _eliminate([{j: x for j, x in enumerate(row) if x} for row in a], n)
    out = [[d.get(j, ZERO) for j in range(n)] for d in reduced]
    out += ([ZERO] * n for _ in range(m - len(reduced)))
    return out, pivots


def _eliminate(rows: list, n: int) -> tuple[list, list[int]]:
    """The nonzero rows of the reduced row echelon form of ``rows`` (each
    a {column: entry} dict of its nonzeros, consumed here; columns below
    n) and the pivot column list.

    A presolve clears the singleton rows first (the singleton-row step of
    LP presolve): a row with one entry forces its column c, whose reduced
    row is the unit row {c: ONE}, and c is deleted from every other row,
    a multiple of a unit row subtracted with no arithmetic.  A row left
    with one entry cascades.  The column index is built only when some row
    is a singleton, so a system without one pays a length test per row.

    Each remaining row is filed under its leading column.  The columns are
    taken in their natural order; each is pivoted on the sparsest row that
    leads with it (Markowitz's choice, restricted to rows), which clears
    the column from the other rows leading there, and back-substitution
    runs once at the end, past the unit rows: no other row holds a forced
    column.  The columns are never reordered, so the result is the unique
    reduced echelon form of the row space, whichever rows are presolved
    or pivot.
    """
    forced: dict[int, dict] = {}
    singles = [d for d in rows if len(d) == 1]
    if singles:
        by_col: dict[int, list] = {}
        for d in rows:
            for j in d:
                by_col.setdefault(j, []).append(d)
        while singles:
            d = singles.pop()
            if not d:  # emptied by a column forced since it was queued
                continue
            (col,) = d
            forced[col] = {col: ONE}
            for e in by_col[col]:  # d itself is emptied here
                if e.pop(col, None) is not None and len(e) == 1:
                    singles.append(e)
    by_lead: dict[int, list] = {}
    for d in rows:
        if d:
            by_lead.setdefault(min(d), []).append(d)
    pivots: list[int] = []
    reduced: list[dict] = []
    for col in range(n):
        piv = forced.get(col)
        if piv is None:
            leading = by_lead.pop(col, None)
            if leading is None:
                continue
            piv = leading.pop(min(range(len(leading)), key=lambda i: len(leading[i])))
            inv = piv[col].inverse()
            piv = {j: x * inv for j, x in piv.items()}
            for d in leading:
                axpy(d, -d[col], piv)
                if d:
                    by_lead.setdefault(min(d), []).append(d)
        pivots.append(col)
        reduced.append(piv)
    for k in range(len(pivots) - 1, 0, -1):
        col, piv = pivots[k], reduced[k]
        if col in forced:
            continue
        for d in reduced[:k]:
            c = d.get(col)
            if c is not None:
                axpy(d, -c, piv)
    return reduced, pivots


def nullspace(rows: list, n: int) -> list:
    """Basis of the right kernel of the sparse rows (each a {column:
    entry} dict of its nonzeros, columns below n), in deterministic
    (free-column) order; each kernel vector is such a dict."""
    reduced, pivots = _eliminate([dict(d) for d in rows], n)
    pivot_set = set(pivots)
    kernel = {j: {j: ONE} for j in range(n) if j not in pivot_set}
    for pc, d in zip(pivots, reduced):
        for j, x in d.items():
            if j != pc:
                kernel[j][pc] = -x
    return list(kernel.values())


def solve(a: Matrix, b: Matrix):
    """Solve a x = b for every column of b by one elimination.  Returns
    the matrix x, each column one solution (the unique one when a has full
    column rank), or None if some column is inconsistent."""
    n = len(a[0])
    red, pivots = rref([list(row) + list(r) for row, r in zip(a, b)])
    if pivots and pivots[-1] >= n:
        return None
    x = [(ZERO,) * len(b[0])] * n
    for r, pc in enumerate(pivots):
        x[pc] = tuple(red[r][n:])
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    x = solve(a, identity(len(a)))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def restrict_to_span(mats, kernel) -> tuple:
    """The action of each matrix (its nonzeros {(i, j): c}) on the span
    of kernel vectors as ``nullspace`` returns them, each 1 at its free
    column (its largest key) and 0 at the others': a vector of the span
    has its coordinates there.  ArithmeticError if an image leaves it."""
    free = {max(v): t for t, v in enumerate(kernel)}
    basis = {(i, t): x for t, v in enumerate(kernel) for i, x in v.items()}
    out = []
    for m in mats:
        image = sum_of_products([(m, basis, False)])
        coords = {(free[i], t): x for (i, t), x in image.items() if i in free}
        if image != sum_of_products([(basis, coords, False)]):
            raise ArithmeticError("an image leaves the span of the kernel vectors")
        out.append(from_entries(len(kernel), coords))
    return tuple(out)


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
