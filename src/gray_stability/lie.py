"""Catalog of the three unstable homogeneous Gray manifolds.

A catalog space types its bracket and its complex structure, nothing
metric: the basis matrices of the symmetry algebra (isotropy subalgebra
first, then an orthonormal basis of the reductive complement m) with the
scale of their trace form, the +i eigenspace m^+ of J in m^C with its
weight basis and the isotropy torus, the Betti numbers, and on the flag
manifold the imaginary part Psi^- of the complex volume form, a witness
that a test compares with the bracket.  What follows from these is
derived where it is read, once per space: m^- and its weight basis are
the conjugates of m^+ with the weights negated, dim m is twice dim m^+
and dim h is dim g - dim m.  What the metric gives is derived from
``ad`` and the Gram matrix:

- the Einstein constant E, from the Ricci tensor of the normal metric,
  Ric(X, Y) = -B(X, Y)/2 - (1/4) sum_i <[X, e_i]_m, [Y, e_i]_m> with B
  the trace form tr(ad_X ad_Y) (Besse, *Einstein Manifolds*, 7.38); it
  raises unless Ric = E g with E rational;
- the pairing ``frame_pairing``: g is Hermitian, so a frame W = m^+ | m^-
  has W^T W = [[0, D], [D, 0]], D diagonal; W^-1 is W^T with its halves
  swapped and scaled by D^-1;
- the inverse Gram matrix, the one elimination, which ``ad_and_gram``
  forms to read coordinates and the Casimir operator contracts with;
- ``m_action``, the m-block of ad(X) for each basis element X: the
  isotropy action for X in h, the torsion A_X for X in m.  The other
  modules read ad on m only through it; it checks [h, m] in m once;
- ``isotropy_blocks``, the one test of J against the bracket: W^-1 ad(X) W,
  X in h, keeps m^+ and m^-, so ad(h) commutes with J and keeps g(J., .);
- ``torus_acts_by``, the one test that the isotropy torus acts by the
  typed weights, on the weight frame of m^C and on Lambda^{1,1}_0.

The adjoint matrices and the Gram matrix are built from the basis
matrices' nonzeros alone (two to six each).  Each basis matrix is read
once as a ``{(i, j): Scalar}`` dict; a Gram entry is a sparse trace
pairing, and the Gram matrix is inverted once.  The dual basis then gives
one coordinate reader: the coordinates of any matrix C are the sum, over
the nonzeros of C, of C_ij times the reader's ``{k: c}`` for (i, j).  Each
commutator [X_a, X_b] with a < b is the difference of two sparse products,
read through it; [X_b, X_a] is its negative.  ``ad_and_gram`` is the
library's one bracket; the three catalog builders are its only callers.

The run-time checks work on nonzeros too: ``bracket_closes`` compares
sum_k ad[a][k][b] X_k with [X_a, X_b] as exact ``{(i, j): c}`` dicts, for
Jacobi (the basis matrices X, a < b), and the ad-invariance
ad^T G + G ad = 0 is one sparse sum of products.

Each catalog premise is tested once, by the guard of the value that needs
it (``m_action``, ``frame_pairing``, ``isotropy_blocks`` and the nearly
Kaehler guard in ``forms``), which raises ``PremiseError``.  A validate
key is its check, or False when a value it reads raises one: ``holds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .exterior import alternate, derivation_action
from .scalars import I, ONE, SQRT2, SQRT6, ZERO, Scalar, rational


@dataclass(frozen=True)
class GroupRecord:
    """The symmetry-group data of a catalog space: all that its Casimir and
    branching tables read."""

    name: str
    group: str                  # rep-theory group key: k3 | so5 | su3
    h_type: str                 # delta_su2 | u2 | t2
    weight_embedding: tuple     # integer matrix: G-weight coords -> H-weight coords


GROUP_RECORDS = {r.name: r for r in (
    GroupRecord("s3xs3", "k3", "delta_su2", ((1, 1, 1),)),
    GroupRecord("cp3", "so5", "u2", ((1, -1), (1, 1))),
    GroupRecord("flag", "su3", "t2", ((1, 1), (0, 1))),
)}
SPACE_NAMES = tuple(GROUP_RECORDS)


def group_record(name: str) -> GroupRecord:
    if name not in GROUP_RECORDS:
        raise ValueError(f"unknown space {name!r}; expected one of {SPACE_NAMES}")
    return GROUP_RECORDS[name]


@dataclass(frozen=True)
class LieAlgebraData:
    """Basis, adjoint matrices and invariant inner product of g."""

    basis_matrices: tuple
    ad: tuple        # ad[a] = matrix of ad(basis_a); column b = coordinates of [basis_a, basis_b]
    gram: tuple      # gram[a][b] = Q(basis_a, basis_b)
    gram_inv: tuple  # the inverse of gram: Q-dual coordinates

    @property
    def dim(self) -> int:
        return len(self.basis_matrices)


class PremiseError(ValueError):
    """A failed catalog premise, raised by the guard of the value that needs it."""


@dataclass(frozen=True)
class ReductiveSpace(GroupRecord):
    """A catalog homogeneous space G/H as typed: its bracket and complex
    structure.  The rest is derived on first use: m^-, its weight basis
    and the dimensions below, and the metric data E and P^-1, with the
    inverse Gram matrix in ``algebra``."""

    algebra: LieAlgebraData     # the bracket; the metric is its Gram matrix
    m_plus: tuple               # the +i eigenbasis of J in m^C, in m-coordinates
    # weight-adapted basis of m^+ used to build H-representations
    m_plus_weights: tuple       # tuple of (coords, weight tuple)
    h_weight_torus: tuple       # h-coordinate vectors with integer ad-eigenvalues
    psi_minus: tuple | None     # sorted ((a, b, c), Scalar) or None; a test ties it to ad
    betti: tuple                # (b2, b3)

    @cached_property
    def m_dim(self) -> int:
        return 2 * len(self.m_plus)

    @cached_property
    def h_dim(self) -> int:
        return self.algebra.dim - self.m_dim

    @cached_property
    def m_minus(self) -> tuple:
        """The -i eigenbasis: the conjugates of m^+."""
        return tuple(map(_conjugate, self.m_plus))

    @cached_property
    def m_minus_weights(self) -> tuple:
        """The conjugates of m^+'s weight basis, weights negated."""
        return tuple((_conjugate(v), tuple(-x for x in wt)) for v, wt in self.m_plus_weights)

    @cached_property
    def einstein_constant(self) -> Fraction:
        """E with Ric = E g on m, Ric the Ricci tensor of the normal metric
        (module docstring), its sum over the m-basis taken as orthonormal;
        raises ArithmeticError when there is none."""
        hd, g = self.h_dim, self.algebra.gram
        ads = [linalg.nonzeros(x) for x in self.algebra.ad[hd:]]
        ric4 = {}  # 4 Ric(e_a, e_b) = -2 B(e_a, e_b) - sum_i <[e_a, e_i]_m, [e_b, e_i]_m>
        for a, x in enumerate(ads):
            for b, y in enumerate(ads[a:], a):
                # B(e_a, e_b) = tr(x y), and the squares sum x_ki y_ki over the m-block
                trace_form = linalg.trace_pairing(x, y)
                squares = sum((c * y[k] for k, c in x.items() if k in y and min(k) >= hd), ZERO)
                ric4[a, b] = -(trace_form + trace_form + squares)
        e4 = ric4[0, 0] * g[hd][hd].inverse()
        if not e4.is_rational() or any(r != e4 * g[hd + a][hd + b] for (a, b), r in ric4.items()):
            raise ArithmeticError(f"{self.name}: the Ricci tensor is not a rational multiple of g")
        return e4.rational() * Fraction(1, 4)

    @cached_property
    def eigenframe_inverse(self) -> tuple:
        """P^-1, P the matrix with columns m^+ then m^-: it takes
        m-coordinates to coordinates in the eigenbasis of J."""
        return frame_pairing(self.m_plus + self.m_minus, f"{self.name}: m^+ and m^-")[1]

    @cached_property
    def m_action(self) -> tuple:
        """The m-block of ad(X_a) for each basis element X_a, in the
        orthonormal m-basis; raises PremiseError when [h, m] leaves m."""
        hd = self.h_dim
        if any(any(row[hd:]) for x in self.algebra.ad[:hd] for row in x[:hd]):
            raise PremiseError(f"{self.name}: [h, m] leaves m")
        return tuple(tuple(row[hd:] for row in x[hd:]) for x in self.algebra.ad)

    def isotropy_blocks(self, cols, frame: str) -> tuple:
        """The pairing d of the frame W with columns cols (``frame_pairing``)
        and the m^+ and the m^- diagonal blocks of each isotropy basis
        element's matrix W^-1 ad W; PremiseError if an off-diagonal block
        is nonzero, since then ad(h) does not commute with J."""
        d, frame_inv = frame_pairing(cols, f"{self.name}: {frame}")
        w, k = linalg.transpose(cols), len(d)
        plus, minus = [], []
        for ad in self.m_action[: self.h_dim]:
            block = linalg.mat_mul(frame_inv, linalg.mat_mul(ad, w))
            if any(any(row[k:]) for row in block[:k]) or any(any(row[:k]) for row in block[k:]):
                raise PremiseError(f"{self.name}: the isotropy action mixes m^+ and m^-")
            plus.append(tuple(row[:k] for row in block[:k]))
            minus.append(tuple(row[k:] for row in block[k:]))
        return d, plus, minus

    def torus_acts_by(self, mats, frame, weights) -> bool:
        """Whether each torus element t acts on the frame F with the given
        vectors as columns by their weights, lin_comb(t, mats) F =
        F diag(i weight_t), mats the action of the isotropy basis."""
        f = linalg.transpose(frame)
        return all(
            linalg.mat_mul(linalg.lin_comb(t, mats), f)
            == linalg.mat_mul(f, linalg.diag(*(I * rational(w[k]) for w in weights)))
            for k, t in enumerate(self.h_weight_torus)
        )


def _conjugate(v: tuple) -> tuple:
    return tuple(x.conjugate() for x in v)


def frame_pairing(cols, frame: str) -> tuple:
    """d and W^-1 for the frame W of m^C with columns cols, a basis of m^+
    then its conjugates: W^T W must be [[0, D], [D, 0]] with D = diag(d)
    invertible, and W^-1 is W^T with its halves swapped and row k divided
    by d_k.  Otherwise PremiseError names the frame."""
    n = len(cols)
    k = n // 2
    gram = linalg.mat_mul(cols, linalg.transpose(cols))
    d = tuple(gram[i][k + i] for i in range(k))
    if not all(d) or gram != linalg.from_entries(n, {(i, (i + k) % n): d[i % k] for i in range(n)}):
        raise PremiseError(f"{frame} do not pair under g")
    return d, linalg.mat_mul(linalg.diag(*(x.inverse() for x in d + d)), cols[k:] + cols[:k])


def _sparse_commutator(x: dict, y: dict) -> dict:
    """Nonzeros of x y - y x, from each matrix's nonzeros {(i, j): c}."""
    return linalg.sum_of_products(((x, y, False), (y, x, True)))


def bracket_closes(mats: tuple, ad: tuple, pairs) -> bool:
    """Whether sum_k ad[a][k][b] mats[k] == [mats[a], mats[b]] for each pair
    (a, b), on {(i, j): c} dicts of nonzeros, so dict equality is exact.
    Its one check is Jacobi, mats the basis matrices, in ``validate_algebra``."""
    nz = [linalg.nonzeros(x) for x in mats]
    for a, b in pairs:
        lhs: dict = {}
        for k, row in enumerate(ad[a]):
            linalg.axpy(lhs, row[b], nz[k])
        if lhs != _sparse_commutator(nz[a], nz[b]):
            return False
    return True


def ad_and_gram(mats: tuple, scale: Fraction) -> LieAlgebraData:
    """The algebra spanned by the basis mats: its adjoint matrices and the
    Gram matrix of the trace form Q(x, y) = scale * tr(x y) with its
    inverse, touching only nonzero entries."""
    dim = len(mats)
    s = Scalar.from_fraction(scale)
    nz = [linalg.nonzeros(x) for x in mats]

    entries = {}  # the form is symmetric
    for a in range(dim):
        for b in range(a, dim):
            entries[a, b] = entries[b, a] = s * linalg.trace_pairing(nz[a], nz[b])
    gram = linalg.from_entries(dim, entries)
    gram_inv = linalg.inverse(gram)

    # Coordinate k of C is Q(C, dual_k) = s * sum_ij C_ij (dual_k)_ji with
    # dual_k = sum_l gram_inv[k][l] X_l, so position (i, j) of C reads
    # reader[i, j] = {k: s * sum_l gram_inv[k][l] (X_l)_ji}.
    reader: dict = {}
    for l, x in enumerate(nz):
        for (j, i), c in x.items():
            sc = s * c
            acc = reader.setdefault((i, j), {})
            for k in range(dim):
                g = gram_inv[k][l]
                if g:
                    linalg.add_into(acc, k, g * sc)

    # [X_b, X_a] = -[X_a, X_b], so each pair a < b is formed once
    ad_entries = [{} for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            coords: dict = {}
            for pos, c in _sparse_commutator(nz[a], nz[b]).items():
                linalg.axpy(coords, c, reader.get(pos, {}))
            for k, c in coords.items():
                ad_entries[a][k, b] = c
                ad_entries[b][k, a] = -c
    ad = tuple(linalg.from_entries(dim, e) for e in ad_entries)
    return LieAlgebraData(mats, ad, gram, gram_inv)


# ---------------------------------------------------------------------------
# S^3 x S^3 = (SU(2) x SU(2) x SU(2)) / diagonal SU(2)
# ---------------------------------------------------------------------------

def _su2_seed():
    # Orthonormal basis of su(2) for minus one twelfth of the triple Killing
    # form; Y3 is diagonal so the torus weights below come out integral.
    q = SQRT2 * rational(1, 4)   # 1/(2*sqrt2)
    y1 = linalg.from_entries(2, {(0, 1): I * q, (1, 0): I * q})
    y2 = linalg.from_entries(2, {(0, 1): -q, (1, 0): q})
    y3 = linalg.from_entries(2, {(0, 0): I * q, (1, 1): -(I * q)})
    return y1, y2, y3


def _build_s3xs3() -> ReductiveSpace:
    y = _su2_seed()
    two_s2 = SQRT2 * 2
    # blockdiag(a Y, b Y, c Y) = kron(diag(a, b, c), Y)
    u_coeffs = linalg.diag(two_s2, -SQRT2, -SQRT2)
    w_coeffs = linalg.diag(ZERO, SQRT6, -SQRT6)
    h_mats = tuple(linalg.kron(linalg.identity(3), ya) for ya in y)
    m_mats = tuple(linalg.kron(c, ya) for ya in y for c in (u_coeffs, w_coeffs))
    mats = h_mats + m_mats  # d1, d2, d3, u1, w1, u2, w2, u3, w3
    algebra = ad_and_gram(mats, Fraction(-1, 3))

    inv_s2 = SQRT2.inverse()
    i_inv_s2 = I * inv_s2
    # X_a = (u_a + i w_a)/sqrt2 spans the +i eigenspace of J.
    x1 = (inv_s2, i_inv_s2, ZERO, ZERO, ZERO, ZERO)
    x2 = (ZERO, ZERO, inv_s2, i_inv_s2, ZERO, ZERO)
    x3 = (ZERO, ZERO, ZERO, ZERO, inv_s2, i_inv_s2)

    def _comb(u, v, coeff):
        return tuple(a + coeff * b for a, b in zip(u, v))

    # Diagonal-torus weight vectors inside m^+: X1 -/+ i X2 and X3.
    plus_w = (
        (_comb(x1, x2, -I), (2,)),
        (x3, (0,)),
        (_comb(x1, x2, I), (-2,)),
    )

    return ReductiveSpace(
        **vars(GROUP_RECORDS["s3xs3"]),
        algebra=algebra,
        m_plus=(x1, x2, x3),
        m_plus_weights=plus_w,
        h_weight_torus=((ZERO, ZERO, two_s2),),
        psi_minus=None,
        betti=(0, 2),
    )


# ---------------------------------------------------------------------------
# CP^3 = SO(5) / U(2)
# ---------------------------------------------------------------------------

def _build_cp3() -> ReductiveSpace:
    def skew(i, j, c=ONE):  # 1-indexed c (E_ij - E_ji) inside so(5)
        return linalg.from_entries(5, {(i - 1, j - 1): c, (j - 1, i - 1): -c})

    t1 = skew(2, 1)
    t2 = skew(4, 3)
    a = linalg.from_entries(5, {(0, 2): ONE, (1, 3): ONE, (2, 0): -ONE, (3, 1): -ONE})
    b = linalg.from_entries(5, {(0, 3): -ONE, (1, 2): ONE, (2, 1): -ONE, (3, 0): ONE})
    f1 = linalg.from_entries(5, {(0, 2): ONE, (1, 3): -ONE, (2, 0): -ONE, (3, 1): ONE})
    f2 = linalg.from_entries(5, {(0, 3): ONE, (1, 2): ONE, (2, 1): -ONE, (3, 0): -ONE})

    h_mats = (t1, t2, a, b)
    m_mats = tuple(skew(i, 5, SQRT2) for i in (1, 2, 3, 4)) + (f1, f2)
    mats = h_mats + m_mats
    algebra = ad_and_gram(mats, Fraction(-1, 4))

    inv_s2 = SQRT2.inverse()
    i_inv_s2 = I * inv_s2
    # m-basis is (sqrt2 skew(i, 5) for i = 1..4, f_1, f_2); p_i are root vectors.
    p1 = (inv_s2, -i_inv_s2, ZERO, ZERO, ZERO, ZERO)
    p2 = (ZERO, ZERO, inv_s2, -i_inv_s2, ZERO, ZERO)
    p3 = (ZERO, ZERO, ZERO, ZERO, ONE, I)
    # U(2) weights (p - q, p + q) of the torus weight (p, q) on (t1, t2)
    plus_w = ((p1, (1, 1)), (p2, (-1, 1)), (p3, (0, -2)))

    return ReductiveSpace(
        **vars(GROUP_RECORDS["cp3"]),
        algebra=algebra,
        m_plus=(p1, p2, p3),
        m_plus_weights=plus_w,
        h_weight_torus=((ONE, -ONE, ZERO, ZERO), (ONE, ONE, ZERO, ZERO)),
        psi_minus=None,
        betti=(1, 0),
    )


# ---------------------------------------------------------------------------
# F_{1,2} = SU(3) / T^2
# ---------------------------------------------------------------------------

def _su3_frame_mats() -> tuple:
    t1 = linalg.from_entries(3, {(0, 0): I, (1, 1): -I})
    t2 = linalg.from_entries(3, {(1, 1): I, (2, 2): -I})
    e1 = linalg.from_entries(3, {(0, 1): ONE, (1, 0): -ONE})
    e2 = linalg.from_entries(3, {(0, 1): I, (1, 0): I})
    e3 = linalg.from_entries(3, {(0, 2): ONE, (2, 0): -ONE})
    e4 = linalg.from_entries(3, {(0, 2): I, (2, 0): I})
    e5 = linalg.from_entries(3, {(1, 2): ONE, (2, 1): -ONE})
    e6 = linalg.from_entries(3, {(1, 2): I, (2, 1): I})
    return (t1, t2, e1, e2, e3, e4, e5, e6)


def _build_flag() -> ReductiveSpace:
    mats = _su3_frame_mats()
    algebra = ad_and_gram(mats, Fraction(-1, 2))

    p1 = (ONE, -I, ZERO, ZERO, ZERO, ZERO)   # e1 - i e2
    p2 = (ZERO, ZERO, ONE, I, ZERO, ZERO)    # e3 + i e4
    p3 = (ZERO, ZERO, ZERO, ZERO, ONE, -I)   # e5 - i e6
    plus_w = ((p1, (1, -1)), (p2, (-2, -1)), (p3, (1, 2)))

    minus_one = -ONE
    return ReductiveSpace(
        **vars(GROUP_RECORDS["flag"]),
        algebra=algebra,
        m_plus=(p1, p2, p3),
        m_plus_weights=plus_w,
        # torus of the (z1, z2) parametrization: diag(i,0,-i) = t1 + t2, diag(0,i,-i) = t2
        h_weight_torus=((ONE, ONE), (ZERO, ONE)),
        psi_minus=(((1, 2, 5), ONE), ((0, 3, 5), minus_one), ((0, 2, 4), minus_one), ((1, 3, 4), minus_one)),
        betti=(2, 0),
    )


_BUILDERS = {"s3xs3": _build_s3xs3, "cp3": _build_cp3, "flag": _build_flag}


@lru_cache(maxsize=None)
def build_space(name: str) -> ReductiveSpace:
    group_record(name)  # rejects an unknown name
    return _BUILDERS[name]()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def holds(check) -> bool:
    """A validate key: check(), or False when a value it reads raises PremiseError."""
    try:
        return bool(check())
    except PremiseError:
        return False


def validate_algebra(alg: LieAlgebraData) -> dict:
    """Run the structural checks; failures are reported, not raised."""
    ad, g = alg.ad, linalg.nonzeros(alg.gram)
    cols = [linalg.transpose(x) for x in ad]  # cols[a][b] = [basis_a, basis_b]
    pairs = [(a, b) for a in range(alg.dim) for b in range(alg.dim)]
    return {
        "antisymmetry": all(cols[a][b] == tuple(-x for x in cols[b][a]) for a, b in pairs),
        # ad is the bracket of the basis matrices, whose commutator obeys
        # Jacobi; the invertible Gram makes them independent, and with
        # antisymmetry the pairs a < b suffice.
        "jacobi": bracket_closes(alg.basis_matrices, ad, [(a, b) for a, b in pairs if a < b]),
        # Q([X_a, y], z) + Q(y, [X_a, z]) = 0: ad_a^T G + G ad_a = 0
        "ad_invariance": not any(
            linalg.sum_of_products(((linalg.nonzeros(col), g, False), (g, linalg.nonzeros(x), False)))
            for x, col in zip(ad, cols)
        ),
    }


def validate_space(space: ReductiveSpace) -> dict:
    """Run the catalog checks of a space; failures are reported, not raised."""
    checks = dict(validate_algebra(space.algebra))
    alg = space.algebra
    hd, md = space.h_dim, space.m_dim

    checks["m_orthonormal"] = all(
        row[hd:] == unit for row, unit in zip(alg.gram[hd:], linalg.identity(md))
    )
    checks["h_m_orthogonal"] = all(
        alg.gram[i][hd + a] == ZERO for i in range(hd) for a in range(md)
    )

    checks["reductivity"] = holds(lambda: space.m_action)
    checks["h_subalgebra"] = not any(any(row[:hd]) for x in alg.ad[:hd] for row in x[hd:])

    # g pairs m^+ with its conjugates, which makes J orthogonal
    checks["m_pm_conjugate_swap"] = holds(lambda: space.eigenframe_inverse)

    def weight_basis_spans_m_plus():  # W that basis: P^-1 W has zero m^- rows, an invertible m^+ block
        coords = linalg.mat_mul(space.eigenframe_inverse, linalg.transpose([v for v, _ in space.m_plus_weights]))
        return linalg.is_zero_matrix(coords[3:]) and linalg.det3(coords[:3]) != ZERO

    checks["m_pm_spans"] = holds(weight_basis_spans_m_plus)
    weight_frame = space.m_plus_weights + space.m_minus_weights
    checks["m_pm_weight_vectors"] = holds(lambda: space.torus_acts_by(
        space.m_action[:hd], [v for v, _ in weight_frame], [wt for _, wt in weight_frame]
    ))

    checks["kahler_h_invariant"] = holds(lambda: space.isotropy_blocks(space.m_plus + space.m_minus, "m^+ and m^-"))
    if space.psi_minus is not None:
        checks["psi_minus_h_invariant"] = holds(lambda: not any(
            alternate(derivation_action(ad, dict(space.psi_minus))) for ad in space.m_action[:hd]
        ))
    return checks
