import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from weylknots import linalg
from weylknots.braids import parse_braid, represent
from weylknots.linalg import (
    Matrix,
    closure_invariants,
    det_exact,
    invariant_factors,
    mat_inverse,
    minors_gcd,
    rank_over_fractions,
)
from weylknots.rings import (
    QQ,
    FieldScalar,
    FractionElement,
    FractionField,
    LaurentPolynomial,
    LaurentRing,
    NonUnitError,
    PolynomialRing,
    PrimeField,
    RationalField,
    RingError,
    RingMismatchError,
    laurent_canonicalize,
    poly_gcd,
)
from weylknots.reps import family_q_bidiagonal
from weylknots.switches import weyl_switch
from weylknots.weyl import EngineMode

F2 = PrimeField(2)
F3 = PrimeField(3)
R2x = PolynomialRing(F2, "x")
R3y = PolynomialRing(F3, "y")
L2x = LaurentRing(R2x)
L3y = LaurentRing(R3y)
# a ring that linalg does not support: the Weyl engine's coefficients
WEYL_COEFFS = EngineMode.symbolic().coeff_field


def lmat(ring, rows):
    return Matrix([[ring(e) for e in row] for row in rows], ring)


# determinant oracles, independent of the eliminations in weylknots.linalg -----

def _bareiss_det(rows, zero, one):
    """Fraction-free elimination; every division is exact in the domain."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            if mik.is_zero():
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j]).exact_div(prev)
            else:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - mik * row_k[j]).exact_div(prev)
            row_i[k] = zero
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def bareiss_det(m):
    """Bareiss over the entry ring itself; Laurent entries divide exactly."""
    return _bareiss_det(m.rows, m.ring.zero, m.ring.one)


def det_division_free(m: Matrix):
    """Minor expansion over column subsets; works in any commutative ring.

    O(2^n * n) ring operations, used for rings without exact division and
    as the oracle the Bareiss path is tested against.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    zero = m.ring.zero
    minors = {0: m.ring.one}
    for r in range(n):
        nxt = {}
        row = m.rows[r]
        for mask, val in minors.items():
            if val.is_zero():
                continue
            pos = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    pos += 1
                    continue
                e = row[j]
                if not e.is_zero():
                    term = val * e if (r + pos) % 2 == 0 else -(val * e)
                    key = mask | bit
                    acc = nxt.get(key)
                    nxt[key] = term if acc is None else acc + term
        minors = nxt
    return minors.get((1 << n) - 1, zero)


def minor_rank(m):
    """The size of the largest nonzero minor, by Bareiss on each."""
    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows_sel in itertools.combinations(range(m.nrows), size):
            for cols_sel in itertools.combinations(range(m.ncols), size):
                if not bareiss_det(m.submatrix(rows_sel, cols_sel)).is_zero():
                    return size
    return 0


# matrices of the 2x2 flat representation over Z_2[x]
U_FLAT = lmat(L2x, [["x", 1], [0, "x"]])
V_FLAT = lmat(L2x, [[1, 0], [1, 1]])

# matrices of the 3x3 representation over Z_3[y]
U3 = lmat(L3y, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
V3 = lmat(L3y, [["y", 0, 0], [1, "y", 0], [0, 2, "y"]])


class TestArithmetic:
    def test_identity_multiplication(self):
        m = lmat(L3y, [["y", 1], [2, "y^2"]])
        assert Matrix.identity(L3y, 2) * m == m

    def test_commutator_is_identity(self):
        assert U3 * V3 - V3 * U3 == Matrix.identity(L3y, 3)

    def test_burau_square_at_unit_parameter(self):
        Rt = PolynomialRing(QQ, "t")
        Lt = LaurentRing(Rt)
        b1 = lmat(Lt, [[0, 1], [1, 0]])  # the Burau matrix at t=1
        assert b1 * b1 == Matrix.identity(Lt, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lmat(L2x, [[1, 0]]) + lmat(L2x, [[1], [0]])

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            lmat(L2x, [[1]]) + lmat(L3y, [[1]])

    @pytest.mark.parametrize("ring", [PrimeField(7), QQ, L3y], ids=repr)
    def test_scalar_on_either_side_scales(self, ring):
        m = lmat(ring, [[1, 2], [0, 3]])
        scalars = [3, ring(5)] + ([Fraction(1, 2)] if ring is QQ else [])
        if isinstance(ring, LaurentRing):
            scalars.append(ring("y^-1 + 2"))
        for c in scalars:
            assert c * m == m * c == m.scale(c), c
            assert (c * m).rows == tuple(tuple(c * e for e in row) for row in m.rows), c


# the product kernel over Z_p and Q -------------------------------------------

SCALAR_FIELDS = {"Z2": F2, "Z101": PrimeField(101), "Z2^31-1": PrimeField(2**31 - 1),
                 "Q": QQ}


def _scalar_entry(rng, field):
    """A seeded entry, zero about one time in three: a residue over Z_p,
    near p - 1 half the time, so that over Z_(2^31 - 1) products pass
    2^61, and over Q an int or a fraction of denominator up to 6."""
    if rng.random() < 1 / 3:
        return field.zero
    if field.p:
        return field(field.p - 1 - rng.randrange(3) if rng.random() < 0.5
                     else rng.randrange(field.p))
    return field(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))


def _scalar_matrix(rng, field, nrows, ncols, zero_row=None):
    rows = [[_scalar_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    if zero_row is not None:
        rows[zero_row] = [field.zero] * ncols
    return Matrix(rows, field)


def _loop_product(a, b):
    """The entries of a * b by a triple loop of the ring's + and *."""
    ring = a.ring
    out = [[ring.zero] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for j in range(b.ncols):
            for t in range(a.ncols):
                out[i][j] = out[i][j] + a.rows[i][t] * b.rows[t][j]
    return out


def _assert_canonical_scalars(m, field):
    """Every entry is a FieldScalar of field: over Z_p an int in [0, p),
    over Q an int exactly when it is integral, and a Fraction otherwise."""
    for row in m.rows:
        for e in row:
            assert type(e) is FieldScalar and e.ring is field, e
            if field.p:
                assert type(e.value) is int and 0 <= e.value < field.p, e
            else:
                integral = Fraction(e.value).denominator == 1
                assert type(e.value) is (int if integral else Fraction), e


class TestScalarProducts:
    """``Matrix.__mul__`` over Z_p and Q, which sums the scalars' values in
    ``_row_times``, against a loop of element operators."""

    @pytest.mark.parametrize("name", sorted(SCALAR_FIELDS))
    def test_matches_the_operator_loop(self, name):
        field = SCALAR_FIELDS[name]
        rng = random.Random(name)
        for n in range(1, 7):
            cases = [(_scalar_matrix(rng, field, 1, n), _scalar_matrix(rng, field, n, 1)),
                     (_scalar_matrix(rng, field, n, n), _scalar_matrix(rng, field, n, n)),
                     (_scalar_matrix(rng, field, n, n, zero_row=rng.randrange(n)),
                      _scalar_matrix(rng, field, n, n, zero_row=rng.randrange(n))),
                     (Matrix.zeros(field, 1, n), _scalar_matrix(rng, field, n, 1)),
                     (_scalar_matrix(rng, field, n, n), Matrix.zeros(field, n))]
            for a, b in cases:
                product = a * b
                assert product.rows == tuple(map(tuple, _loop_product(a, b))), (a, b)
                _assert_canonical_scalars(product, field)

    def test_integral_rational_sums_are_ints(self):
        a = Matrix([[QQ("1/2"), QQ("1/3")]], QQ)
        b = Matrix([[QQ(2)], [QQ(3)]], QQ)
        [[entry]] = (a * b).rows
        assert entry == QQ(2) and type(entry.value) is int
        [[entry]] = (Matrix([[QQ("1/2"), QQ("1/2")]], QQ) * b).rows
        assert entry == QQ("5/2") and type(entry.value) is Fraction
        [[entry]] = (Matrix([[QQ("1/2"), QQ("-1/3")]], QQ) * b).rows
        assert entry.is_zero() and type(entry.value) is int


# the kernel form: values over Z_p and Q, raw pairs over F[x, x^-1] ----------

QT = PolynomialRing(QQ, "t")
KERNEL_RINGS = {**SCALAR_FIELDS, "Z3": F3, "FracQt": FractionField(QT),
                "Q[t^+-1]": LaurentRing(QT), "Z3[y^+-1]": L3y}


def _kernel_entry(rng, ring):
    """A seeded entry of ring, zero about one time in three."""
    if not isinstance(ring, (LaurentRing, FractionField)):
        return _scalar_entry(rng, ring)
    if rng.random() < 1 / 3:
        return ring.zero
    if isinstance(ring, LaurentRing):
        return _random_entry(rng, ring, rng.randrange(3))
    dom = ring.domain
    return ring(dom([rng.randint(-2, 2), rng.randint(1, 2)]),
                dom([rng.randint(1, 2), rng.randint(0, 1)]))


def _kernel_matrix(rng, ring, nrows, ncols, zero_row=None):
    rows = [[_kernel_entry(rng, ring) for _ in range(ncols)] for _ in range(nrows)]
    if zero_row is not None:
        rows[zero_row] = [ring.zero] * ncols
    return Matrix(rows, ring)


def _assert_kernel_form(rows, m):
    """rows is m's in the form of ``kernel_rows``: over Z_p the value, an int
    in [0, p); over Q the value, an int exactly when it is integral; over
    F[x, x^-1] the raw pair (offset, coefficient tuple); over Frac(F[x])
    an element, equal to m's."""
    ring = m.ring
    assert type(rows) is list and len(rows) == m.nrows
    for row, elements in zip(rows, m.rows):
        assert type(row) is list and len(row) == m.ncols
        for v, e in zip(row, elements):
            if isinstance(ring, PrimeField):
                assert type(v) is int and 0 <= v < ring.p and v == e.value, (v, e)
            elif isinstance(ring, RationalField):
                assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v
                assert v == e.value, (v, e)
            elif isinstance(ring, LaurentRing):
                assert v == (e.offset, e.poly.coeffs), (v, e)
                assert type(v[0]) is int and type(v[1]) is tuple, v
            else:
                assert type(v) is FractionElement and v.ring is ring and v == e, (v, e)


KERNEL_SHAPES = [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3), (4, 4)]


class TestKernelForm:
    """``Matrix.kernel_rows``, ``_row_times`` and ``Matrix.from_kernel_rows``
    keep one form, so a running product holds values, not elements."""

    @pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
    def test_roundtrip_and_entry_form(self, name):
        ring = KERNEL_RINGS[name]
        rng = random.Random(f"kernel form {name}")
        for nrows, ncols in KERNEL_SHAPES * 2:
            for m in (_kernel_matrix(rng, ring, nrows, ncols),
                      _kernel_matrix(rng, ring, nrows, ncols, rng.randrange(nrows)),
                      Matrix.zeros(ring, nrows, ncols)):
                rows = m.kernel_rows()
                _assert_kernel_form(rows, m)
                back = Matrix.from_kernel_rows(rows, ring)
                assert back == m and back.rows == m.rows, m
                assert all(type(e) is type(f) for r, s in zip(back.rows, m.rows)
                           for e, f in zip(r, s)), m

    @pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
    def test_row_times_keeps_the_form(self, name):
        ring = KERNEL_RINGS[name]
        rng = random.Random(f"kernel product {name}")
        for nrows, ncols in KERNEL_SHAPES:
            a = _kernel_matrix(rng, ring, nrows, ncols, rng.randrange(nrows))
            b = _kernel_matrix(rng, ring, ncols, nrows, rng.randrange(ncols))
            out = [linalg._row_times(row, b.kernel_rows(), ring) for row in a.kernel_rows()]
            expected = Matrix(_loop_product(a, b), ring)
            _assert_kernel_form(out, expected)
            assert Matrix.from_kernel_rows(out, ring) == expected, (a, b)


class TestDeterminant:
    def test_zero(self):
        i3 = Matrix.identity(L3y, 3)
        assert det_exact(i3 - i3).is_zero()

    def test_triangular(self):
        assert det_exact(V3) == L3y("y^3")

    def test_unit_tracking_with_negative_offsets(self):
        m = lmat(L2x, [["1/x^2", "1/x"], ["1/x", 1]])
        # rows scale by x^2 and x: det = (1 + x^2*...)/x^3 computed exactly
        expected = L2x("1/x^2") * L2x(1) - L2x("1/x") * L2x("1/x")
        assert det_exact(m) == expected

    def test_matches_division_free(self):
        rng = random.Random(7)
        for n in range(1, 5):
            for _ in range(6):
                m = Matrix([[L3y.from_poly(R3y.from_raw([rng.randrange(3)
                                                         for _ in range(3)]),
                                           rng.randrange(-2, 3))
                             for _ in range(n)] for _ in range(n)], L3y)
                assert det_exact(m) == det_division_free(m)

    def test_det_multiplicative(self):
        rng = random.Random(21)
        for n in (2, 3, 5):
            a = Matrix([[L2x.from_poly(R2x.from_raw([rng.randrange(2)
                                                     for _ in range(2)]),
                                       rng.randrange(-1, 2))
                         for _ in range(n)] for _ in range(n)], L2x)
            b = Matrix([[L2x.from_poly(R2x.from_raw([rng.randrange(2)
                                                     for _ in range(2)]),
                                       rng.randrange(-1, 2))
                         for _ in range(n)] for _ in range(n)], L2x)
            assert det_exact(a * b) == det_exact(a) * det_exact(b)


def _roundtrip_entry(rng, ring):
    if ring == L3y:
        return L3y.from_poly(R3y.from_raw([rng.randrange(3) for _ in range(2)]),
                             rng.randrange(-1, 2))
    if isinstance(ring, PrimeField):
        return ring(rng.randrange(ring.p))
    dom = ring.domain
    return ring(dom([rng.randint(-2, 2), rng.randint(-2, 2)]),
                dom([rng.randint(1, 2), rng.randint(0, 1)]))


class TestInverse:
    def test_char2_involution(self):
        assert mat_inverse(V_FLAT) == V_FLAT

    def test_adjugate_over_determinant(self):
        inv = mat_inverse(U_FLAT)
        assert inv == lmat(L2x, [["1/x", "1/x^2"], [0, "1/x"]])

    def test_paper_block(self):
        a = mat_inverse(V_FLAT) * mat_inverse(U_FLAT)
        assert a == lmat(L2x, [["1/x", "1/x^2"], ["1/x", "(1+x)/x^2"]])

    def test_singular_reports_determinant(self):
        m = lmat(L3y, [["y", "y"], ["y", "y"]])
        with pytest.raises(NonUnitError) as exc:
            mat_inverse(m)
        assert exc.value.value.is_zero()

    def test_non_unit_determinant_rejected(self):
        m = lmat(L3y, [["y+1", 0], [0, 1]])
        with pytest.raises(NonUnitError):
            mat_inverse(m)

    @pytest.mark.parametrize("m", [
        Matrix([[PrimeField(5)(e) for e in row]
                for row in [[1, 2, 3], [2, 4, 1], [3, 1, 4]]], PrimeField(5)),
        Matrix([[PrimeField(7)(e) for e in row]
                for row in [[1, 2, 3], [2, 4, 6], [0, 1, 5]]], PrimeField(7)),
        lmat(L2x, [["x+1", 0], [0, "x+1"]]),
        lmat(L3y, [[0, "y+1"], [1, 0]]),
        lmat(L3y, [["1/y", 1], [0, "y^2+1"]]),
        lmat(L3y, [["y", "1/y"], ["y^2", 1]]),
    ], ids=["Z5-singular", "Z7-zero-pivot-column", "Z2-diagonal-x+1",
            "row-swap-sign", "negative-offset", "laurent-singular"])
    def test_error_carries_the_exact_determinant(self, m):
        with pytest.raises(NonUnitError) as exc:
            mat_inverse(m)
        assert exc.value.value.ring == m.ring
        assert exc.value.value == det_exact(m)

    def test_inverse_without_a_unit_entry(self):
        # det 1, yet no entry is a unit of Z_13[x, x^-1], so no Laurent pivot
        # exists: the inverse needs the fraction field
        ring = LaurentRing(PolynomialRing(PrimeField(13), "x"))
        m = lmat(ring, [["x + 2", "12x + 4"], ["x + 4", "12x + 2"]])
        assert det_exact(m) == ring.one
        assert not any(e.is_unit() for row in m.rows for e in row)
        inv = mat_inverse(m)
        assert inv == lmat(ring, [["12x + 2", "x + 9"], ["12x + 9", "x + 2"]])
        assert (m * inv).is_identity() and (inv * m).is_identity()

    def test_inverse_roundtrip_random(self):
        # every ring mat_inverse serves: Laurent, Z_p and Frac(Q[q])
        rng = random.Random(3)
        for ring in (L3y, PrimeField(101), FractionField(PolynomialRing(QQ, "q"))):
            made = 0
            while made < 5:
                m = Matrix([[_roundtrip_entry(rng, ring) for _ in range(3)]
                            for _ in range(3)], ring)
                if not det_exact(m).is_unit():
                    continue
                made += 1
                inv = mat_inverse(m)
                assert (m * inv).is_identity() and (inv * m).is_identity()


class TestRank:
    def test_zero_matrix(self):
        assert rank_over_fractions(Matrix.zeros(L2x, 4)) == 0

    def test_identity(self):
        for k in (1, 3):
            assert rank_over_fractions(Matrix.identity(L3y, k)) == k

    def test_rank_one(self):
        m = lmat(L2x, [[1, 1], [1, 1]])
        assert rank_over_fractions(m) == 1

    def test_field_entries(self):
        singular = Matrix([[F3(1), F3(2)], [F3(2), F3(1)]], F3)
        assert rank_over_fractions(singular) == 1
        m = Matrix([[F3(1), F3(2)], [F3(2), F3(2)]], F3)
        assert rank_over_fractions(m) == 2


class TestMinorsGcd:
    def test_r0_is_canonical_det(self):
        from weylknots.rings import laurent_canonicalize
        assert minors_gcd(V3, 0) == laurent_canonicalize(bareiss_det(V3))[0]

    def test_identity_minors(self):
        assert minors_gcd(Matrix.identity(L2x, 2), 1) == R2x.one

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            minors_gcd(Matrix.identity(L2x, 2), 2)

    def test_zero_past_the_rank(self):
        m = Matrix([[L2x.one, L2x.zero], [L2x.zero, L2x.zero]], L2x)
        assert minors_gcd(m, 1) == R2x.one
        assert minors_gcd(m, 0) == R2x.zero
        assert minors_gcd(Matrix.zeros(L2x, 2), 1) == R2x.zero

    def test_against_brute_force(self):
        import itertools

        from weylknots.rings import laurent_canonicalize, poly_gcd
        rng = random.Random(11)
        for _ in range(8):
            m = Matrix([[L3y.from_poly(R3y.from_raw([rng.randrange(3)
                                                     for _ in range(2)]),
                                       rng.randrange(-1, 2))
                         for _ in range(3)] for _ in range(3)], L3y)
            got = minors_gcd(m, 1)
            acc = R3y.zero
            for rows_sel in itertools.combinations(range(3), 2):
                for cols_sel in itertools.combinations(range(3), 2):
                    d = det_division_free(m.submatrix(rows_sel, cols_sel))
                    if not d.is_zero():
                        acc = poly_gcd(acc, laurent_canonicalize(d)[0])
            assert got == acc


class TestUnsupportedRings:
    def test_every_entry_point_raises(self):
        # linalg serves two entry kinds, fields and Laurent rings; a matrix
        # over F[x] or over the Weyl engine's coefficients is refused
        for ring in (R3y, WEYL_COEFFS):
            m = Matrix.identity(ring, 2)
            for fn in (rank_over_fractions, det_exact, invariant_factors,
                       closure_invariants, lambda m: minors_gcd(m, 0), mat_inverse):
                with pytest.raises(RingError):
                    fn(_copy(m))


# oracles for the invariant factors -----------------------------------------

def _canonical_of_det(d):
    if isinstance(d, LaurentPolynomial):
        return laurent_canonicalize(d)[0]
    raise RingError(f"minors_gcd needs Laurent entries, got {d!r}")


def brute_force_minors_gcd(m, r):
    """The gcd of all (nrows - r)-minors of a Laurent matrix, square or not,
    by enumerating them: 1 for r = nrows (the empty minor), and 0 when
    every minor vanishes or there is none."""
    if not isinstance(m.ring, LaurentRing):
        raise RingError(f"minors_gcd needs a Laurent matrix, got ring {m.ring}")
    n = m.nrows
    if not 0 <= r <= n:
        raise ValueError(f"codimension {r} out of range for {n} rows")
    size = n - r
    pring = m.ring.poly_ring
    one = pring.one
    if not size:
        return one
    acc = pring.zero
    for rows_sel in itertools.combinations(range(n), size):
        for cols_sel in itertools.combinations(range(m.ncols), size):
            d = bareiss_det(m.submatrix(rows_sel, cols_sel))
            if d.is_zero():
                continue
            acc = poly_gcd(acc, _canonical_of_det(d))
            if acc == one:
                return acc
    return acc


def gaussian_rank(m):
    """Rank of a Laurent matrix by Gaussian elimination over Frac(F[x]),
    each entry f x^k embedded as f * x^k there."""
    field = FractionField(m.ring.poly_ring)
    x = field(m.ring.poly_ring.gen)
    return rank_over_fractions(Matrix([[field(e.poly) * x ** e.offset for e in row]
                                       for row in m.rows], field))


LAURENT_RINGS = {"Z2": L2x, "Z3": L3y, "Q": LaurentRing(PolynomialRing(QQ, "t"))}


def _random_entry(rng, ring, degree):
    field = ring.field
    if isinstance(field, PrimeField):
        coeffs = [rng.randrange(field.p) for _ in range(degree + 1)]
    else:
        coeffs = [rng.randint(-2, 2) for _ in range(degree + 1)]
    return ring.from_poly(ring.poly_ring(coeffs), rng.randint(-1, 1))


def random_matrix(rng, ring, nrows, ncols, degree, zero_share=0.25):
    return Matrix([[ring.zero if rng.random() < zero_share
                    else _random_entry(rng, ring, degree)
                    for _ in range(ncols)] for _ in range(nrows)], ring)


def unit_heavy_matrix(rng, ring, nrows, ncols):
    """About 60% of the columns are units c x^k (a fifth of them zero), the
    others non-units of degree up to 2, so about half the entries are units
    and the unit-pivot pass leaves free columns between its pivot
    columns."""
    field = ring.field

    def entry(unit_column):
        if not unit_column:
            while (e := _random_entry(rng, ring, 2)).is_unit():
                pass
            return e
        if rng.random() < 0.2:
            return ring.zero
        c = (rng.randrange(1, field.p) if isinstance(field, PrimeField)
             else rng.choice([-2, -1, 1, 2]))
        return ring.monomial(rng.randint(-2, 2), c)

    columns = []
    for _ in range(ncols):
        unit_column = rng.random() < 0.6
        columns.append([entry(unit_column) for _ in range(nrows)])
    return Matrix(list(zip(*columns)), ring)


def core_only_matrix(rng, ring, nrows, ncols):
    """A matrix with no monomial entry, so the unit-pivot pass takes no
    pivot and the Smith step reduces all of it: about a fifth of the
    entries zero, the others of two or three stored coefficients, each
    times its own x^k for k in -3..3.  Over Q each row is also scaled by a
    fraction, so its rational content is not 1."""
    rows = []
    for _ in range(nrows):
        scale = (Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 3, 4]))
                 if isinstance(ring.field, RationalField) else 1)
        row = []
        for _ in range(ncols):
            if rng.random() < 0.2:
                row.append(ring.zero)
                continue
            while len((e := _random_entry(rng, ring, rng.randint(1, 2))).poly.coeffs) < 2:
                pass
            row.append(e * ring.monomial(rng.randint(-3, 3), scale))
        rows.append(row)
    return Matrix(rows, ring)


CORE_ONLY_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 5), (5, 3)]


def oracle_cases(ring, seed):
    """Seeded square matrices: full random, rank-deficient products of
    N x k and k x N matrices, matrices with a zero row or column, and one
    6 x 6 matrix that is half units."""
    rng = random.Random(seed)
    sizes = [(n, 2) for n in range(1, 6)] + [(6, 1)]
    for n, degree in sizes:
        for _ in range(2):
            yield random_matrix(rng, ring, n, n, degree)
        k = rng.randint(0, n - 1)
        if k:
            yield (random_matrix(rng, ring, n, k, 1, 0)
                   * random_matrix(rng, ring, k, n, 1, 0))
        m = random_matrix(rng, ring, n, n, degree, 0)
        rows = [list(r) for r in m.rows]
        zero = rng.randrange(n)
        if rng.random() < 0.5:
            rows[zero] = [ring.zero] * n
        else:
            for row in rows:
                row[zero] = ring.zero
        yield Matrix(rows, ring)
    yield unit_heavy_matrix(random.Random(seed), ring, 6, 6)


# seed 1 over Q holds the dense 6x6 rank-5 matrix whose coefficients grew to
# 27,000 bits before each reduced row was divided by its rational content
ORACLE_SEEDS = {"Q": (0, 1), "Z2": (1,), "Z3": (2,)}


class TestInvariantFactors:
    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_matches_brute_force_minors_and_gaussian_rank(self, name):
        ring = LAURENT_RINGS[name]
        for m in itertools.chain.from_iterable(
                oracle_cases(ring, seed) for seed in ORACLE_SEEDS[name]):
            factors = invariant_factors(m)
            assert len(factors) == rank_over_fractions(m) == gaussian_rank(m)
            for d, e in zip(factors, factors[1:]):
                assert (e % d).is_zero()
            for r in range(m.nrows):
                assert minors_gcd(m, r) == brute_force_minors_gcd(m, r), (m, r)

    def test_rectangular_and_polynomial_ranks(self):
        # rectangular Laurent matrices match the oracle; F[x] matrices are
        # not an entry kind of linalg
        rng = random.Random(5)
        for nrows, ncols in [(1, 4), (3, 5), (5, 2), (4, 4)]:
            m = random_matrix(rng, L3y, nrows, ncols, 2)
            assert rank_over_fractions(m) == gaussian_rank(m)
            poly = Matrix([[e.poly for e in row] for row in m.rows], R3y)
            with pytest.raises(RingError, match="no determinant or rank"):
                rank_over_fractions(poly)
        # free columns between the unit pivot columns
        for nrows, ncols in [(2, 5), (5, 2), (3, 4), (6, 3)] * 3:
            m = unit_heavy_matrix(rng, L3y, nrows, ncols)
            assert rank_over_fractions(m) == gaussian_rank(m) == len(direct_factors(m))

    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_core_only_matrices_match_the_direct_smith_step(self, name):
        # no unit to pivot on, so every factor comes from the Smith step
        # over F[x, x^-1], square and rectangular
        ring = LAURENT_RINGS[name]
        rng = random.Random(90 + sorted(LAURENT_RINGS).index(name))
        for nrows, ncols in CORE_ONLY_SHAPES * 3:
            m = core_only_matrix(rng, ring, nrows, ncols)
            assert linalg._gaussian_pass(m.kernel_rows(), ncols, ring)[0] == 0, m
            factors = invariant_factors(m)
            assert factors == direct_factors(m), m
            assert len(factors) == rank_over_fractions(m) == gaussian_rank(m), m
            for d in factors:
                assert d.coeffs[0] and d.coeffs[-1] == 1, m

    def test_zero_and_identity(self):
        assert invariant_factors(Matrix.zeros(L2x, 3)) == []
        assert invariant_factors(Matrix.identity(L2x, 3)) == [R2x.one] * 3

    def test_powers_of_x_are_units(self):
        m = lmat(L3y, [["y^2", 0], [0, "y^2 + y"]])
        assert invariant_factors(m) == [R3y.one, R3y("y + 1")]

    def test_field_matrix_rejected(self):
        with pytest.raises(RingError):
            invariant_factors(Matrix.identity(F3, 2))


def _least_degree(cells):
    """(i, j) of a least-degree nonzero entry among (i, j, entry) triples,
    the first in the given order on ties; None when all are zero."""
    best = min(((len(e.coeffs), i, j) for i, j, e in cells if not e.is_zero()),
               default=None)
    return None if best is None else best[1:]


def direct_factors(m):
    """The invariant factors of a Laurent matrix by a Smith step over F[x] on
    all of its rows, with no unit-pivot pass first, written with ring
    operators only, so it shares no code with ``linalg``'s elimination.

    Each row is cleared to F[x] by its least power of x, a unit.  Euclidean
    elimination on degrees: move a least-degree entry of the trailing block
    to the pivot, reduce its column by row operations and then its row by
    column operations (``divmod``), and move the least-degree remainder in
    whenever one is left.  Over Q[x] each reduced row is divided by its
    rational content, which keeps the coefficients from growing.  A
    pairwise gcd/lcm sweep orders the monic diagonal by divisibility, and
    each factor has its power of x stripped."""
    pring = m.ring.poly_ring
    a = []
    for row in m.rows:
        low = min((e.offset for e in row if not e.is_zero()), default=0)
        a.append([pring.zero if e.is_zero() else e.poly.shift(e.offset - low) for e in row])
    nrows, ncols = m.nrows, m.ncols
    diag = []
    for t in range(min(nrows, ncols)):
        at = _least_degree((i, j, a[i][j]) for i in range(t, nrows) for j in range(t, ncols))
        if at is None:
            break
        while at is not None:
            i, j = at
            a[t], a[i] = a[i], a[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            pivot_row, pivot = a[t], a[t][t]
            for row in a[t + 1:]:
                if not row[t].is_zero():
                    quo, row[t] = divmod(row[t], pivot)
                    row[t + 1:] = [e - quo * f for e, f in zip(row[t + 1:], pivot_row[t + 1:])]
                    if not pring.field.p:
                        coeffs = [c for e in row[t:] for c in e.coeffs]
                        if coeffs:
                            num = math.gcd(*[c.numerator for c in coeffs])
                            den = math.lcm(*[c.denominator for c in coeffs])
                            row[t:] = [e.scale(Fraction(den, num)) for e in row[t:]]
            at = _least_degree((i, t, a[i][t]) for i in range(t + 1, nrows))
            if at is None:
                for j in range(t + 1, ncols):
                    pivot_row[j] = pivot_row[j] % pivot
                at = _least_degree((t, j, pivot_row[j]) for j in range(t + 1, ncols))
        diag.append(pivot.monic())
    for i, d in enumerate(diag):
        for j in range(i + 1, len(diag)):
            g = poly_gcd(d, diag[j])
            diag[j] = (d * diag[j]).exact_div(g)
            d = g
        diag[i] = d
    return [laurent_canonicalize(m.ring.from_poly(d))[0] for d in diag]


class TestFreeColumns:
    """Free columns between pivot columns flip the sign of det once for
    each free column a pivot column moves past; the factors of the core
    follow the unit pivots' ones."""

    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_matches_the_oracles(self, name):
        ring = LAURENT_RINGS[name]
        rng = random.Random(70 + sorted(LAURENT_RINGS).index(name))
        odd_moves = 0
        for n in [2, 3, 4, 5, 6] * 4:
            m = unit_heavy_matrix(rng, ring, n, n)
            _, _, free = linalg._gaussian_pass(m.kernel_rows(), n, ring)
            pivots = sorted(set(range(n)) - set(free))
            odd_moves += sum(sum(f < c for f in free) for c in pivots) % 2
            assert det_exact(m) == bareiss_det(m), m
            assert invariant_factors(m) == direct_factors(m), m
            if n <= 5:
                for r in range(n):
                    assert minors_gcd(m, r) == brute_force_minors_gcd(m, r), (m, r)
        assert odd_moves >= 3


class TestClosureInvariants:
    """closure_invariants against enumerated minors and an independent rank,
    over every elimination case."""

    def test_matches_the_minors_and_the_rank(self):
        for m in elimination_cases():
            corank, ideals = closure_invariants(m)
            assert corank == m.nrows - rank_over_fractions(_copy(m)), m
            # a zero row, a generator with no relation, adds 1 to the corank
            # and leaves the list alone
            with_free = Matrix([*m.rows, [m.ring.zero] * m.ncols], m.ring)
            assert closure_invariants(with_free) == (corank + 1, ideals), m
            if not isinstance(m.ring, LaurentRing):
                assert ideals == [m.ring.one], m
                if m.nrows <= 4 and m.ncols <= 4:
                    assert corank == m.nrows - minor_rank(m), m
                continue
            assert corank == m.nrows - gaussian_rank(m), m
            assert [e.is_one() for e in ideals] == [False] * len(ideals[1:]) + [True], m
            for r, e in enumerate(ideals, corank):
                assert e == brute_force_minors_gcd(m, r), (m, r)

    def test_laurent_cases_match_the_direct_smith_step(self):
        # the unit-pivot pass on raw values and the core's Smith step against
        # the Smith step on all of m: E_r is the product of the first
        # nrows - r factors, listed from the corank up to the first that is 1
        for m in elimination_cases():
            if not isinstance(m.ring, LaurentRing):
                continue
            factors = direct_factors(m)
            corank, expected = m.nrows - len(factors), []
            for r in range(corank, m.nrows + 1):
                expected.append(math.prod(factors[:m.nrows - r], start=m.ring.poly_ring.one))
                if expected[-1].is_one():
                    break
            assert closure_invariants(m) == (corank, expected), m


def _exact_det_entry(rng, ring, degree):
    """A nonzero Laurent entry with offset in -2..1; over Q the coefficients
    are fractions, so a row's rational content is rarely 1."""
    field = ring.field
    while True:
        if isinstance(field, PrimeField):
            coeffs = [rng.randrange(field.p) for _ in range(degree + 1)]
        else:
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))
                      for _ in range(degree + 1)]
        e = ring.from_poly(ring.poly_ring(coeffs), rng.randint(-2, 1))
        if not e.is_zero():
            return e


def det_cases(ring, seed):
    """Seeded square Laurent matrices of sizes 1-7: random ones with zero
    entries, rank-deficient products of N x k and k x N matrices, permuted
    diagonals, which force row and column swaps, and up to size 5 matrices
    with no monomial entry (``core_only_matrix``)."""
    rng = random.Random(seed)
    entry = lambda degree: _exact_det_entry(rng, ring, degree)
    for n in range(1, 8):
        degree = 2 if n <= 5 else 1
        for _ in range(2):
            yield Matrix([[ring.zero if rng.random() < 0.2 else entry(degree)
                           for _ in range(n)] for _ in range(n)], ring)
        k = rng.randint(0, n - 1)
        if k:
            left = Matrix([[entry(1) for _ in range(k)] for _ in range(n)], ring)
            right = Matrix([[entry(1) for _ in range(n)] for _ in range(k)], ring)
            yield left * right
        else:
            yield Matrix.zeros(ring, n)
        cols = list(range(n))
        rng.shuffle(cols)
        rows = [[ring.zero] * n for _ in range(n)]
        for i, j in enumerate(cols):
            rows[i][j] = entry(rng.randint(0, 2))
        yield Matrix(rows, ring)
        if n <= 5:
            yield core_only_matrix(rng, ring, n, n)


class TestExactDeterminant:
    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_matches_bareiss_and_division_free(self, name):
        ring = LAURENT_RINGS[name]
        for m in det_cases(ring, seed=20 + sorted(LAURENT_RINGS).index(name)):
            d = det_exact(m)
            assert d.ring == m.ring
            assert d == bareiss_det(m), m
            if m.nrows <= 5:
                assert d == det_division_free(m), m

    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_matches_sympy(self, name):
        pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        ring = LAURENT_RINGS[name]
        for m in det_cases(ring, seed=30 + sorted(LAURENT_RINGS).index(name)):
            rows, domain, total, to_poly = _sympy_cleared(m)
            d = DomainMatrix.from_Matrix(rows).convert_to(domain).det()
            assert det_exact(m) == ring.from_poly(to_poly(domain.to_sympy(d)), total), m

    def test_unsupported_ring_raises(self):
        with pytest.raises(RingError, match="no determinant"):
            det_exact(Matrix.identity(WEYL_COEFFS, 2))


FIELDS = {"Z101": PrimeField(101), "Q": QQ,
          "FracQq": FractionField(PolynomialRing(QQ, "q"))}


def field_cases(field, seed):
    """Seeded field matrices: random square ones with zero entries (sizes
    1-6, 1-4 over Frac(Q[q])), rank-deficient products and rectangular
    ones."""
    rng = random.Random(seed)
    if field == QQ:
        entry = lambda: QQ(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    else:
        entry = lambda: _roundtrip_entry(rng, field)
    rand = lambda nrows, ncols: Matrix(
        [[field.zero if rng.random() < 0.2 else entry() for _ in range(ncols)]
         for _ in range(nrows)], field)
    largest = 4 if isinstance(field, FractionField) else 6
    for n in range(1, largest + 1):
        yield rand(n, n)
        yield rand(n, n)
        k = rng.randint(1, n)
        yield rand(n, k) * rand(k, n)
    for nrows, ncols in [(1, 3), (2, 4), (4, 2), (3, 1)]:
        yield rand(nrows, ncols)


class TestFieldDeterminantAndRank:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_the_oracles(self, name):
        field = FIELDS[name]
        for m in field_cases(field, seed=40 + sorted(FIELDS).index(name)):
            if m.nrows <= 4 and m.ncols <= 4:
                assert rank_over_fractions(m) == minor_rank(m), m
            if not m.is_square():
                continue
            d = det_exact(m)
            assert d == bareiss_det(m), m
            if m.nrows <= 4:
                assert d == det_division_free(m), m


def _sympy_cleared(m):
    """m as a sympy Matrix, each row cleared by its least power of x; its
    domain GF(p)[x] or QQ[x]; the total exponent extracted; and a map from
    sympy polynomials in x back to m's polynomial ring."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    pring = m.ring.poly_ring
    field = pring.field

    def entry(e, low):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** (k + e.offset - low)
                   for k, c in enumerate(e.poly.coeffs))

    rows = []
    total = 0
    for row in m.rows:
        low = min((e.min_exp for e in row if not e.is_zero()), default=0)
        total += low
        rows.append([entry(e, low) for e in row])
    if isinstance(field, PrimeField):
        domain = sympy.GF(field.p)[x]
    else:
        domain = sympy.QQ[x]

    def to_poly(expr):
        coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
        if isinstance(field, PrimeField):
            return pring([int(c) % field.p for c in coeffs])
        return pring([Fraction(int(c.p), int(c.q)) for c in coeffs])

    return sympy.Matrix(rows), domain, total, to_poly


def _sympy_factors(m):
    """sympy's invariant factors of the row-cleared polynomial matrix, with
    zeros dropped, powers of x stripped and each made monic."""
    rows, domain, _, to_poly = _sympy_cleared(m)
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    return [laurent_canonicalize(m.ring.from_poly(to_poly(d)))[0]
            for d in sympy_factors(rows, domain=domain) if d != 0]


class TestAgainstSympy:
    @pytest.mark.parametrize("name", sorted(LAURENT_RINGS))
    def test_small_matrices(self, name):
        ring = LAURENT_RINGS[name]
        for m in oracle_cases(ring, seed=10 + sorted(LAURENT_RINGS).index(name)):
            if m.nrows <= 4:
                assert invariant_factors(m) == _sympy_factors(m), m


# one elimination per Matrix --------------------------------------------------

def _copy(m):
    return Matrix(m.rows, m.ring)


def _outcome(fn, m):
    """fn(m), or the type of the exception it raised."""
    try:
        return fn(m)
    except (RingError, ValueError) as err:
        return type(err)


STEPS = {
    "rank": rank_over_fractions,
    "det": det_exact,
    "factors": invariant_factors,
    "minors": lambda m: [minors_gcd(m, r) for r in range(m.nrows)],
    "closure": closure_invariants,
}
ORDERS = list(itertools.permutations(STEPS))


def elimination_cases():
    """Laurent matrices over Z_2, Z_3 and Q and field matrices over Z_101,
    Q and Frac(Q[q]), square and rectangular, rank-deficient ones and
    Laurent ones with no monomial entry included."""
    for name, ring in sorted(LAURENT_RINGS.items()):
        seed = 50 + sorted(LAURENT_RINGS).index(name)
        yield from oracle_cases(ring, seed)
        rng = random.Random(seed)
        for nrows, ncols in [(1, 3), (3, 5), (5, 2)]:
            yield random_matrix(rng, ring, nrows, ncols, 1)
        for nrows, ncols in [(4, 6), (6, 3)]:
            yield unit_heavy_matrix(rng, ring, nrows, ncols)
        for nrows, ncols in CORE_ONLY_SHAPES:
            yield core_only_matrix(rng, ring, nrows, ncols)
    for name, field in sorted(FIELDS.items()):
        yield from field_cases(field, seed=60 + sorted(FIELDS).index(name))


class TestOneElimination:
    """rank, det, invariant factors, the closure invariants and every E_r
    read one elimination, run once per Matrix and kept on it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Each call of the two eliminations, by name: the (rows, columns)
        it was given and what it returned."""
        calls = {}
        for name in ("_laurent_smith", "_gaussian_pass"):
            def counted(rows, *args, _run=getattr(linalg, name), _name=name):
                shape = (len(rows), len(rows[0]))
                out = _run(rows, *args)
                calls.setdefault(_name, []).append((shape, out))
                return out
            monkeypatch.setattr(linalg, name, counted)
        return calls

    def test_closure_sequence_eliminates_once(self, passes):
        # every kind runs the unit-pivot pass once; a Laurent matrix runs
        # the Smith step at most once, on the rows the pass left in its
        # free columns
        cores = 0
        for m in elimination_cases():
            if m.is_square():
                m = m - Matrix.identity(m.ring, m.nrows)
            passes.clear()
            rank = rank_over_fractions(m)
            closure_invariants(m)
            if m.is_square():
                det_exact(m)
                if isinstance(m.ring, LaurentRing):
                    for r in range(m.nrows):
                        minors_gcd(m, r)
            [(_, (units, _, free))] = passes.pop("_gaussian_pass")
            smith = passes.pop("_laurent_smith", [])
            assert not passes, m
            if isinstance(m.ring, linalg._FIELDS):
                assert not smith and rank == units, m
            elif smith:
                [(shape, (diag, _))] = smith
                assert shape == (m.nrows - units, len(free)), m
                assert rank == units + len(diag), m
                cores += 1
            else:
                assert rank == units and not (free and units < m.nrows), m
        assert cores

    def test_inverse_runs_one_gaussian_pass(self, passes):
        # Laurent matrices over Z_2, Z_3 and Q, and field matrices over
        # Z_101, Q and Frac(Q[q]); singular ones included
        inverted = set()
        for m in [U_FLAT, V_FLAT, U3, V3, *elimination_cases()]:
            if not m.is_square():
                continue
            passes.clear()
            try:
                inv = mat_inverse(m)
            except NonUnitError as err:
                inv, det = None, err.value
            assert {name: len(c) for name, c in passes.items()} == {"_gaussian_pass": 1}, m
            if inv is None:
                assert det == det_exact(_copy(m)), m
                assert not det.is_unit(), m
            else:
                assert (m * inv).is_identity(), m
                inverted.add(type(m.ring).__name__)
        assert inverted == {"LaurentRing", "PrimeField", "RationalField",
                            "FractionField"}

    def test_any_order_matches_fresh_copies(self):
        for i, m in enumerate(elimination_cases()):
            want = {name: _outcome(fn, _copy(m)) for name, fn in STEPS.items()}
            for order in (ORDERS[i % len(ORDERS)], ORDERS[-1 - i % len(ORDERS)]):
                c = _copy(m)
                for name in order + order[::-1]:
                    assert _outcome(STEPS[name], c) == want[name], (name, order, m)

    def test_returned_factors_are_fresh(self):
        m = lmat(L3y, [["y^2", "y"], [0, "y^2 + y"]])
        fresh = _copy(m)
        factors = invariant_factors(m)
        factors.append(R3y.zero)
        factors[0] = R3y("y + 2")
        assert invariant_factors(m) == invariant_factors(fresh)
        assert invariant_factors(m) is not invariant_factors(m)
        assert det_exact(m) == det_exact(fresh)
        assert rank_over_fractions(m) == 2
        assert minors_gcd(m, 0) == minors_gcd(fresh, 0)
        ideals = closure_invariants(m)[1]
        ideals.append(R3y.zero)
        ideals[0] = R3y("y + 2")
        assert closure_invariants(m) == closure_invariants(fresh)
        assert closure_invariants(m) == (0, [R3y("y + 1"), R3y.one])


def test_kishino_lift_rank_over_symbolic_q():
    # The Kishino lift's 9 x 9 M - I on the symbolic q_bidiagonal(3) switch,
    # which weyl_switch builds over Q[q, q^-1].  Its rank over Frac(Q[q])
    # took 7.3 s while fraction normalization ran the Euclidean gcd on
    # Fraction coefficients, and about 0.4 s on the integer remainder
    # sequence.
    switch = weyl_switch(family_q_bidiagonal(3, q="q", a=2, b=[1, -1]))
    assert switch.ring == LaurentRing(PolynomialRing(QQ, "q"))
    m = represent(parse_braid("t2 s1 s2 s1^-1 t2 s1^-1 s2^-1 s1", strands=3), switch)
    m = m - Matrix.identity(m.ring, m.nrows)
    start = time.perf_counter()
    assert m.nrows - rank_over_fractions(m) == 3
    assert time.perf_counter() - start < 3


def test_kishino_lift_ideals_over_laurent_q():
    # The same lift, on the switch weyl_switch builds over Q[q, q^-1].  Its
    # M - I has no monomial entry, so the Smith step reduces all of it.
    # closure_invariants took 5.5 s while that step ran over Q[q], carrying
    # powers of q through every division, and about 0.3 s over
    # Q[q, q^-1].
    switch = weyl_switch(family_q_bidiagonal(3, q="q", a=2, b=[1, -1]))
    ring = switch.ring
    assert ring == LaurentRing(PolynomialRing(QQ, "q"))
    m = represent(parse_braid("t2 s1 s2 s1^-1 t2 s1^-1 s2^-1 s1", strands=3), switch)
    m = m - Matrix.identity(ring, m.nrows)
    start = time.perf_counter()
    assert closure_invariants(m) == (3, [ring.poly_ring.one])
    assert time.perf_counter() - start < 2
