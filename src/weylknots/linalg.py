"""Exact dense linear algebra over the rings of ``weylknots.rings``.

Matrices are immutable grids of ring elements sharing one ring tag.  There
are two entry kinds, fields (Z_p, Q and Frac(F[x])) and Laurent rings
F[x, x^-1], and one forward elimination for both, ``_gaussian_pass``.  It
pivots on units only: over a field every nonzero entry, over F[x, x^-1]
the monomials c x^k.  Eliminating on a unit pivot drops one invariant
factor 1 and keeps the others (Fitting's lemma), so a Laurent matrix sends
only what the pass leaves, its core, to the Euclidean elimination over
F[x, x^-1] (``_laurent_smith``), in which x is a unit too, so no power of
x is carried through a division.  F[x, x^-1] is a principal ideal domain,
so the gcd of the s x s minors is the product of the first s invariant
factors, and their number is the rank.  Over a field the core is zero.
``mat_inverse`` runs the same pass on [M | I] and back-substitutes; a
Laurent matrix enters Frac(F[x]) by the fraction field's own conversion,
and its inverse comes back by the Laurent ring's.

Any other entry ring, F[x] among them, raises ``RingError`` in products,
eliminations and inverses alike.  Field entries answer
``is_unit()`` themselves; a raw Laurent value is a unit when it has one
coefficient.

Laurent entries are raw between steps: the kernels take a Laurent
matrix's rows as (offset, coefficient tuple) pairs, the stored pair of each
``LaurentPolynomial`` (``Matrix.kernel_rows``), and elements are built only
for the result (``Matrix.from_kernel_rows``).  A product of two elements
is the ring's own convolution; every sum of products of raw values is
``rings.poly_dot``, which reduces it once.  It computes each entry of a
Laurent product and of the row updates a - f b of the unit-pivot pass and
of the Smith step, and strips each remainder of the Smith step's
``rings.divmod_raw``.

Products, in ``Matrix.__mul__`` and in ``braids.represent``, go through one
row-times-matrix kernel, ``_row_times``, on rows in the form of
``kernel_rows``, which is the form of its output too.  Over F[x, x^-1],
Z_p and Q it computes each output entry by one sum over the entry's
nonzero products, reduced once, so no ring element is built for a single
product or partial sum: ``poly_dot`` over F[x, x^-1], and over Z_p and Q
a plain sum of the scalars' values, reduced mod p, or over Q made an int
when integral, as ``QQ`` does.  Z_p and Q values, like Laurent ones,
therefore ride across a whole word in ``represent``: its running product
holds ints in [0, p) over Z_p, and ``from_kernel_rows`` builds one
``FieldScalar`` per entry of the result.  Frac(F[x]) rows stay elements,
summed by the field's operators: only the rep gate and a symbolic
``weyl_switch`` multiply fractions.  The eliminations and ``mat_inverse``
take a field matrix's rows as elements, not values.

Each matrix runs its elimination at most once: the result, (rank, det,
factors) for both kinds, is kept on the immutable ``Matrix``, and
``rank_over_fractions``, ``det_exact``, ``invariant_factors``,
``closure_invariants`` and ``minors_gcd`` all read that one result.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import (
    FieldScalar,
    FractionField,
    LaurentPolynomial,
    LaurentRing,
    NonUnitError,
    PrimeField,
    RationalField,
    RingError,
    RingMismatchError,
    UniPolynomial,
    divmod_raw,
    poly_dot,
    poly_gcd,
)

_SCALARS = (PrimeField, RationalField)
_FIELDS = (*_SCALARS, FractionField)


class Matrix:
    """Immutable rectangular matrix over one declared ring; ``_elim`` holds
    its elimination once run (see ``_elimination``)."""

    __slots__ = ("ring", "rows", "nrows", "ncols", "_elim")

    def __init__(self, rows, ring=None):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if ring is None:
            ring = rows[0][0].ring
        for r in rows:
            for e in r:
                if e.ring is not ring and e.ring != ring:
                    raise RingMismatchError(f"entry {e!r} not in {ring}")
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width
        self._elim = None

    @classmethod
    def identity(cls, ring, n: int):
        z, o = ring.zero, ring.one
        return cls([[o if i == j else z for j in range(n)] for i in range(n)], ring)

    @classmethod
    def zeros(cls, ring, nrows: int, ncols: int | None = None):
        z = ring.zero
        ncols = nrows if ncols is None else ncols
        return cls([[z] * ncols for _ in range(nrows)], ring)

    @classmethod
    def block(cls, grid):
        """Assemble from a 2D grid of equally-ringed matrices."""
        rows = []
        for band in grid:
            height = band[0].nrows
            if any(b.nrows != height for b in band):
                raise ValueError("block heights differ within a band")
            for i in range(height):
                row = []
                for b in band:
                    row.extend(b.rows[i])
                rows.append(row)
        return cls(rows)

    def kernel_rows(self):
        """The rows as lists in the form the product kernel ``_row_times``
        takes: over F[x, x^-1] raw values (offset, coefficient tuple), the
        stored pair of each ``LaurentPolynomial`` with zero as (0, ());
        over Z_p and Q each ``FieldScalar``'s value as stored, an int in
        [0, p) over Z_p and an int or a ``Fraction`` over Q; and the
        elements themselves over Frac(F[x])."""
        ring = self.ring
        if isinstance(ring, LaurentRing):
            return [[(e.offset, e.poly.coeffs) for e in row] for row in self.rows]
        if isinstance(ring, _SCALARS):
            return [[e.value for e in row] for row in self.rows]
        return [list(row) for row in self.rows]

    @classmethod
    def from_kernel_rows(cls, rows, ring):
        """The matrix over ring of rows in the form of ``kernel_rows``,
        with one element built per Laurent or scalar value."""
        if isinstance(ring, LaurentRing):
            rows = [[_laurent(ring, e) for e in row] for row in rows]
        elif isinstance(ring, _SCALARS):
            rows = [[FieldScalar(ring, v) for v in row] for row in rows]
        return cls(rows, ring)

    def is_square(self):
        return self.nrows == self.ncols

    def submatrix(self, row_idx, col_idx):
        return Matrix([[self.rows[i][j] for j in col_idx] for i in row_idx], self.ring)

    def transpose(self):
        return Matrix(list(zip(*self.rows)), self.ring)

    def __add__(self, other):
        self._compat(other, same_shape=True)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)], self.ring)

    def __sub__(self, other):
        self._compat(other, same_shape=True)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)], self.ring)

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows], self.ring)

    def _compat(self, other, same_shape=False):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(f"mixed matrix rings: {self.ring} vs {other.ring}")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} "
                             f"vs {other.nrows}x{other.ncols}")

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} "
                             f"by {other.nrows}x{other.ncols}")
        if not isinstance(self.ring, (LaurentRing, *_FIELDS)):
            raise RingError(f"no matrix product over {self.ring}")
        rows = other.kernel_rows()
        return Matrix.from_kernel_rows([_row_times(row, rows, self.ring)
                                        for row in self.kernel_rows()], self.ring)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        return Matrix([[scalar * a for a in r] for r in self.rows], self.ring)

    def __eq__(self, other):
        if not isinstance(other, Matrix) or other.ring != self.ring:
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def is_identity(self):
        if not self.is_square():
            return False
        return all((self.rows[i][j].is_one() if i == j else self.rows[i][j].is_zero())
                   for i in range(self.nrows) for j in range(self.ncols))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(repr(e) for e in r) + "]" for r in self.rows)
        return f"[{body}]"


def _row_times(row, rows, ring):
    """The vector row * rows over ring, for a row of len(rows) entries and a
    list of equally long rows, all in the form of ``Matrix.kernel_rows``,
    which is also the form of the output.  Each output entry is one sum
    over the row's nonzero entries a, in row order, of a times the entry b
    below it: ``poly_dot`` over F[x, x^-1], reduced once, skipping a zero
    b too; otherwise one list of running sums that each nonzero a updates
    in one pass over its row of rows, of elements over Frac(F[x]), and of
    values over Z_p and Q, then reduced mod p, or over Q made an int when
    it is integral, as ``QQ`` does.  A zero entry of row costs nothing."""
    if isinstance(ring, LaurentRing):
        field = ring.field
        terms = [(r, a) for r, a in zip(rows, row) if a[1]]
        return [poly_dot([(a, b) for r, a in terms if (b := r[c])[1]], field)
                for c in range(len(rows[0]))]
    if isinstance(ring, FractionField):
        sums = [ring.zero] * len(rows[0])
        for r, a in zip(rows, row):
            if not a.is_zero():
                sums = [s + a * b for s, b in zip(sums, r)]
        return sums
    sums = [0] * len(rows[0])
    for r, a in zip(rows, row):
        if a:
            sums = [s + a * b for s, b in zip(sums, r)]
    p = ring.p
    return [s % p for s in sums] if p else [
        s.numerator if s.denominator == 1 else s for s in sums]


# raw Laurent values ---------------------------------------------------------

_ONE = (0, (1,))


def _laurent(ring, raw):
    """The element of ring whose stored pair is the raw value (offset,
    coefficients), which is already reduced with its valuation stripped."""
    return LaurentPolynomial(ring, UniPolynomial(ring.poly_ring, raw[1]), raw[0])


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _gaussian_pass(rows, width, ring):
    """(rank, det, free) of a list of rows over ring, raw values over
    F[x, x^-1] (``Matrix.kernel_rows``) and elements over a field, by one
    forward pass on unit pivots, reducing the rows in place.  In each
    column the first unit at or below the current row is the pivot; a
    column with none is free.  Pivots are taken only in the first
    ``width`` columns, but row operations run over whole rows, so an
    augmented block rides along.

    Afterwards rows[rank:] are zero in every pivot column, so their free
    columns hold what is left, zero over a field.  det, an element of ring,
    is the signed product of the pivots: -1 per row swap, and -1 for each
    free column that a pivot column moves past, so that a square matrix has
    determinant det times that of rows[rank:] in the free columns.  Row
    operations skip the zero entries of the (unscaled) pivot row.  Over
    F[x, x^-1] a unit is a raw c x^k, and each updated entry a - f b is one
    ``poly_dot``, reduced once."""
    laurent = isinstance(ring, LaurentRing)
    field = ring.field if laurent else None
    sign, pivots, rank, free = 1, [], 0, []
    for col in range(width):
        for pivot in range(rank, len(rows)):
            if len(rows[pivot][col][1]) == 1 if laurent else rows[pivot][col].is_unit():
                break
        else:
            free.append(col)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        if len(free) % 2:
            sign = -sign
        pivot_row = rows[rank]
        pivots.append(pivot_row[col])
        if laurent:
            k, (c,) = pivot_row[col]
            minus_inv = (-k, (-field.cinv(c),))
            for i in range(rank + 1, len(rows)):
                if rows[i][col][1]:
                    f = poly_dot([(rows[i][col], minus_inv)], field)
                    rows[i] = [a if not b[1] else poly_dot(
                        [(a, _ONE), (f, b)] if a[1] else [(f, b)], field)
                        for a, b in zip(rows[i], pivot_row)]
        else:
            inv = pivot_row[col].inv()
            for i in range(rank + 1, len(rows)):
                if not rows[i][col].is_zero():
                    f = rows[i][col] * inv
                    rows[i] = [a if b.is_zero() else a - f * b
                               for a, b in zip(rows[i], pivot_row)]
        rank += 1
    if laurent:
        pivots = [_laurent(ring, e) for e in pivots]
    return rank, math.prod(pivots, start=ring.one if sign > 0 else -ring.one), free


def _elimination(m: Matrix):
    """The one elimination of m, (rank, det, factors), run on first use and
    kept on m; det is zero unless m is square and of full rank.

    Both kinds run ``_gaussian_pass``, a Laurent matrix on raw values and a
    field matrix on its elements, not on the values of ``kernel_rows``.  It
    then reduces only its core (the rows left by the pass, in its free
    columns, which held no unit when the pass reached them), still raw, by
    ``_laurent_smith``: its factors are one 1 per unit pivot followed by the
    core's diagonal, and its det is the pass's times the core's,
    u * d_1 ... d_k for the unit u = c x^s.  A field matrix has no factors.
    Any other ring raises RingError.
    """
    if m._elim is None:
        ring = m.ring
        laurent = isinstance(ring, LaurentRing)
        if not (laurent or isinstance(ring, _FIELDS)):
            raise RingError(f"no determinant or rank over {ring}")
        rows = m.kernel_rows() if laurent else [list(r) for r in m.rows]
        rank, det, free = _gaussian_pass(rows, m.ncols, ring)
        factors = (ring.poly_ring.one,) * rank if laurent else ()
        if laurent and free and rank < m.nrows:
            diag, unit = _laurent_smith([[row[j] for j in free] for row in rows[rank:]], ring)
            det = det * unit * ring.from_poly(math.prod(diag, start=ring.poly_ring.one))
            factors += tuple(diag)
            rank += len(diag)
        m._elim = (rank, det if rank == m.nrows == m.ncols else ring.zero, factors)
    return m._elim


def det_exact(m: Matrix):
    """Exact determinant in the entry ring, a field or a Laurent ring, read
    off the one elimination: the signed product of the unit pivots, times
    the determinant of the core over F[x, x^-1] for a Laurent matrix.
    Any other ring raises RingError."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _elimination(m)[1]


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a field or Laurent matrix.

    A Laurent matrix is inverted over Frac(F[x]): its entries enter by
    ``field(e)``, and det and the inverse's entries, fractions n / x^k
    when det is a unit, come back by ``ring(f)``.  One pass
    (``_gaussian_pass``) reduces [m | I] to echelon form and gives det(m),
    the product of its pivots when all n are found and zero otherwise;
    when it is not a unit of the entry ring, NonUnitError carries it.
    Back substitution then clears the columns above each pivot, bottom up,
    on the right half only: the left half is triangular, and each step
    changes it in the pivot column alone.  Scaling and row operations skip
    the zero entries of the pivot row."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    ring, n = m.ring, m.nrows
    if isinstance(ring, LaurentRing):
        field = FractionField(ring.poly_ring)
    elif isinstance(ring, _FIELDS):
        field = ring
    else:
        raise RingError(f"no inverse over {ring}")
    z, o = field.zero, field.one
    aug = [[field(e) for e in row] + [o if i == j else z for j in range(n)]
           for i, row in enumerate(m.rows)]
    rank, det, _ = _gaussian_pass(aug, n, field)
    det = ring(det if rank == n else z)
    if not det.is_unit():
        raise NonUnitError(f"determinant {det!r} is not a unit in {ring}", det)
    inv_rows = [row[n:] for row in aug]
    for k in range(n - 1, -1, -1):
        inv = aug[k][k].inv()
        pivot_row = inv_rows[k] = [e if e.is_zero() else e * inv for e in inv_rows[k]]
        for i in range(k):
            f = aug[i][k]
            if not f.is_zero():
                inv_rows[i] = [a if b.is_zero() else a - f * b
                               for a, b in zip(inv_rows[i], pivot_row)]
    return Matrix([[ring(e) for e in row] for row in inv_rows], ring)


def rank_over_fractions(m: Matrix) -> int:
    """Rank of a field or Laurent matrix over the fraction field of its
    entry ring: the unit pivots plus, for a Laurent matrix, the invariant
    factors of its core (see ``_elimination``)."""
    return _elimination(m)[0]


# ---------------------------------------------------------------------------
# invariant factors and elementary ideals
# ---------------------------------------------------------------------------

def _laurent_smith(rows, ring):
    """Nonzero diagonal of the Smith form over ring = F[x, x^-1] of a list of
    raw Laurent rows, which it reduces in place: the invariant factors
    d_1 | d_2 | ..., as many as the rank, each monic in F[x] with a nonzero
    constant term, so canonical; and the unit u = c x^s of ring that the
    steps multiplied the determinant by: det = u * d_1 ... d_N when all N
    factors are found.

    Euclidean elimination in which x is a unit, so the norm of an entry is
    its number of stored coefficients: move a least-norm entry of the
    trailing block to the pivot x^k B, reduce its column by row operations
    and then its row by column operations, and move the least-norm
    remainder in whenever one is left; the pivot's norm drops each time, so
    this ends with the pivot alone in its row and column.  An entry x^i A
    is divided with the valuations stripped: A = Q B + R (``divmod_raw``)
    gives the quotient x^(i-k) Q and the remainder x^i R, which ``poly_dot``
    reduces and strips, and each updated entry a - x^(i-k) Q b of a row is
    one ``poly_dot``.  A pairwise gcd/lcm sweep then orders the diagonal by
    divisibility.  Over Q each reduced row is divided by its rational
    content, which keeps the coefficients from growing; Z_p has no such
    growth and skips it.

    Adding a multiple of one row or column to another leaves the
    determinant alone, and so does the sweep, since d_i d_j = gcd * lcm for
    monic factors.  u collects the rest: -1 per row or column swap, the
    x^k and the leading coefficient of B for each pivot x^k B made monic,
    and the inverse of each content scale.
    """
    nrows, ncols = len(rows), len(rows[0])
    field, pring = ring.field, ring.poly_ring
    c, s, diag = 1, 0, []
    for t in range(min(nrows, ncols)):
        cells = [(len(e[1]), r, j) for r in range(t, nrows)
                 for j, e in enumerate(rows[r][t:], t) if e[1]]
        if not cells:
            break
        while cells:
            _, r, j = min(cells)
            if r != t:
                rows[t], rows[r] = rows[r], rows[t]
                c = -c
            if j != t:
                for row in rows[t:]:
                    row[t], row[j] = row[j], row[t]
                c = -c
            pivot_row = rows[t]
            k, b = pivot_row[t]
            for row in rows[t + 1:]:
                i, a = row[t]
                if len(a) < len(b):  # zero, or left for the least-norm search
                    continue
                quo, rem = divmod_raw(field, a, b)
                row[t] = poly_dot([((i, rem), _ONE)], field)
                minus_quo = (i - k, tuple([-q for q in quo]))
                row[t + 1:] = [e if not f[1] else poly_dot(
                    [(e, _ONE), (minus_quo, f)] if e[1] else [(minus_quo, f)], field)
                    for e, f in zip(row[t + 1:], pivot_row[t + 1:])]
                if not field.p:
                    coeffs = [x for _, e in row[t:] for x in e]
                    num = math.gcd(*[x.numerator for x in coeffs])
                    den = math.lcm(*[x.denominator for x in coeffs])
                    if num and (num, den) != (1, 1):
                        scale = Fraction(den, num)
                        row[t:] = [(i, tuple([x * scale for x in e])) for i, e in row[t:]]
                        c /= scale
            cells = [(len(e[1]), r, t) for r in range(t + 1, nrows) if (e := rows[r][t])[1]]
            if not cells:
                # the column is clear, so column operations change row t only
                for j in range(t + 1, ncols):
                    i, a = pivot_row[j]
                    if len(a) >= len(b):
                        pivot_row[j] = poly_dot([((i, divmod_raw(field, a, b)[1]), _ONE)],
                                                field)
                cells = [(len(e[1]), t, j) for j in range(t + 1, ncols)
                         if (e := pivot_row[j])[1]]
        c *= b[-1]
        s += k
        diag.append(UniPolynomial(pring, b).monic())
    for i, d in enumerate(diag):
        for j in range(i + 1, len(diag)):
            if d.is_one():
                break
            g = poly_gcd(d, diag[j])
            diag[j] = (d * diag[j]).exact_div(g)
            d = g
        diag[i] = d
    return diag, ring.from_poly(pring.from_raw([c]), s)


def invariant_factors(m: Matrix) -> list:
    """Invariant factors d_1 | d_2 | ... of a Laurent matrix, the one entry
    kind besides fields, each monic, as many as the rank; zero factors are
    left out.  Field matrices and any other ring raise RingError.

    Each unit pivot of the pass gives a factor 1, and the core's factors
    follow (see ``_elimination``), each with a nonzero constant term, so it
    is canonical in the sense of ``laurent_canonicalize``.  Over the PID
    F[x, x^-1] the product d_1 ... d_s generates the ideal of all s x s
    minors.
    """
    ring = m.ring
    if not isinstance(ring, LaurentRing):
        raise RingError(f"invariant factors need a Laurent matrix, got ring {ring}")
    return list(_elimination(m)[2])


def closure_invariants(m: Matrix) -> tuple:
    """(corank, [E_corank, E_corank+1, ..., 1]) of the module that m
    presents, rows as generators and columns as relations, square or not:
    corank = nrows - rank, and E_r, the gcd of the (nrows - r)-minors, up
    to the first that is 1.  Over a Laurent ring E_r is the product of the
    first nrows - r invariant factors, monic and canonical in F[x]; over a
    field every nonzero minor is a unit, so the list is [ring.one]."""
    corank = m.nrows - _elimination(m)[0]
    if not isinstance(m.ring, LaurentRing):
        return corank, [m.ring.one]
    ideals = [m.ring.poly_ring.one]
    for d in invariant_factors(m):
        if not d.is_one():
            ideals.append(ideals[-1] * d)
    return corank, ideals[::-1]


def minors_gcd(m: Matrix, r: int) -> UniPolynomial:
    """E_r of a square Laurent matrix, looked up in ``closure_invariants``:
    zero below the corank, 1 past its list.  Kept for ``bench/workloads.py``
    until the benchmark's next revision."""
    if not m.is_square():
        raise ValueError("minors of a non-square matrix")
    if not 0 <= r < m.nrows:
        raise ValueError(f"codimension {r} out of range for size {m.nrows}")
    if not isinstance(m.ring, LaurentRing):
        raise RingError(f"elementary ideals need a Laurent matrix, got ring {m.ring}")
    corank, ideals = closure_invariants(m)
    if r < corank:
        return m.ring.poly_ring.zero
    return ideals[min(r - corank, len(ideals) - 1)]
