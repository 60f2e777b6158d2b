"""Canonical form of Frac(F[x]) and of the Weyl engine's shift-factored
Frac(Z[q,h]), and the paths that skip the Euclidean gcd or the trial
divisions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylknots import rings, weyl
from weylknots.rings import (
    QQ,
    FractionElement,
    FractionField,
    PolynomialRing,
    PrimeField,
    poly_gcd,
)
from weylknots.weyl import EngineMode

QX = PolynomialRing(QQ, "x")
FQ = FractionField(QX)
R3y = PolynomialRing(PrimeField(3), "y")
F3 = FractionField(R3y)
Z7q = PolynomialRing(PrimeField(7), "q")
QQq = PolynomialRing(QQ, "q")
# the Weyl engine's field; its elements of Z[q, h] are term maps
# {(a, b): c} for c q^a h^b
FQH = EngineMode.symbolic().coeff_field


def euclid_gcd(a, b):
    """The monic gcd by the Euclidean algorithm on the coefficients, as
    ``poly_gcd`` ran it over Q too before the integer remainder sequence."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def euclid_fraction(ring, num, den):
    """The Frac(F[x]) normalization before the gcd-free paths, copied
    verbatim: Euclidean gcd, then a monic denominator."""
    if den.is_zero():
        raise ZeroDivisionError(f"zero denominator in {ring}")
    if num.is_zero():
        return FractionElement(ring, num, ring.domain.one)
    g = euclid_gcd(num, den)
    if not g.is_one():
        num = num.exact_div(g)
        den = den.exact_div(g)
    lead = den.coeffs[-1]
    if lead != 1:
        inv = ring.domain.field.cinv(lead)
        num = num.scale(inv)
        den = den.scale(inv)
    return FractionElement(ring, num, den)


def sympy_expr(sympy, p):
    x = sympy.symbols("x")
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def sympy_coeffs(sympy, expr):
    """The ascending Fraction tuple of a sympy polynomial in x."""
    p = sympy.Poly(expr, sympy.symbols("x"), domain="QQ")
    if p.is_zero:
        return ()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def sympy_pair(num, den):
    """(num, den) coefficient tuples of sympy's cancel, den made monic."""
    sympy = pytest.importorskip("sympy")
    n, d = sympy.fraction(sympy.cancel(sympy_expr(sympy, num) / sympy_expr(sympy, den)))
    lead = sympy.Poly(d, sympy.symbols("x"), domain="QQ").LC()
    return sympy_coeffs(sympy, n / lead), sympy_coeffs(sympy, d / lead)


def sympy_gcd(a, b):
    """The coefficient tuple of sympy's gcd, made monic."""
    sympy = pytest.importorskip("sympy")
    g = sympy.Poly(sympy.gcd(sympy_expr(sympy, a), sympy_expr(sympy, b)),
                   sympy.symbols("x"), domain="QQ")
    return () if g.is_zero else sympy_coeffs(sympy, g.monic().as_expr())


def random_poly(rng, degree, low=0):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]
    coeffs[:low] = [Fraction(0)] * low
    if not coeffs[-1]:
        coeffs[-1] = Fraction(1)
    return QX.from_raw(coeffs)


def random_denominator(rng, kind):
    if kind == "constant":
        return QX([Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))])
    if kind == "monomial":
        k = rng.randint(1, 3)
        return QX.from_raw([Fraction(0)] * k + [Fraction(rng.choice((-2, 1, 3)), 2)])
    return random_poly(rng, rng.randint(1, 3))


def random_fraction(rng, kind):
    # numerators with a power of x as often as not, so valuations cancel
    num = random_poly(rng, rng.randint(0, 4), low=rng.randint(0, 2))
    if rng.random() < 0.15:
        num = QX.zero
    return FQ(num, random_denominator(rng, kind))


def is_canonical(f):
    return (f.den.coeffs[-1] == 1
            and (f.num.is_zero() and f.den.is_one() or poly_gcd(f.num, f.den).is_one()))


def results(a, b):
    """(name, library result, unreduced num, unreduced den) per operation."""
    out = [("a + b", a + b, a.num * b.den + b.num * a.den, a.den * b.den),
           ("a - b", a - b, a.num * b.den - b.num * a.den, a.den * b.den),
           ("a * b", a * b, a.num * b.num, a.den * b.den)]
    if not b.is_zero():
        out.append(("a / b", a / b, a.num * b.den, a.den * b.num))
        out.append(("b.inv()", b.inv(), b.den, b.num))
    return out


KINDS = ("constant", "monomial", "general")


@pytest.mark.parametrize("seed", range(4))
def test_canonical_form_matches_euclid_and_sympy(seed):
    rng = random.Random(seed)
    for _ in range(12):
        a = random_fraction(rng, rng.choice(KINDS))
        b = random_fraction(rng, rng.choice(KINDS))
        pairs = [(a, b)]
        if not a.is_zero():
            # a and a + p share a's denominator: the equal-denominator sums
            pairs.append((a, a + FQ(random_poly(rng, 2))))
        for left, right in pairs:
            for name, got, num, den in results(left, right):
                assert is_canonical(got), name
                want = euclid_fraction(FQ, num, den)
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), name
                assert (got.num.coeffs, got.den.coeffs) == sympy_pair(num, den), name


def test_canonical_form_over_a_prime_field():
    rng = random.Random(7)
    for _ in range(60):
        num = R3y([rng.randint(0, 2) for _ in range(rng.randint(1, 5))])
        den = R3y([0] * rng.randint(0, 2) + [rng.randint(0, 2) for _ in range(rng.randint(0, 3))]
                  + [rng.randint(1, 2)])
        got, want = F3(num, den), euclid_fraction(F3, num, den)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)


def big_poly(rng, degree):
    """Random coefficients with up to 12-digit numerators over up to
    15-digit denominators, the leading one negative half the time."""
    coeffs = [Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 15))
              for _ in range(degree + 1)]
    coeffs[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12),
                          rng.randint(1, 10 ** 15))
    return QX.from_raw(coeffs)


def gcd_pairs(seed):
    """Seeded Q[x] pairs with the degree of a factor they share: zero,
    constants, monomials, negative leading coefficients, large
    denominators, and common factors of known degree."""
    rng = random.Random(seed)
    x = QX.gen
    f, g = random_poly(rng, 3), big_poly(rng, 2)
    out = [(QX.zero, QX.zero, None), (QX.zero, f, 3), (g, QX.zero, 2),
           (QX("-2/3"), f, 0), (QX("5"), QX("-7/9"), 0),
           (QX("-3x^4"), QX("2/5 x^2"), 2), (QX("x^3"), f * x, 1),
           (-f, -(f * g), 3), (QX("-x^2 + 1/49"), QX("-(1/7)x + 1/49"), 1)]
    for k in range(5):
        common = big_poly(rng, k) if rng.random() < 0.5 else random_poly(rng, k)
        a, b = random_poly(rng, rng.randint(0, 4)), big_poly(rng, rng.randint(0, 3))
        if rng.random() < 0.3:
            a = a * x ** rng.randint(1, 2)
        out.append((a * common, b * common, k))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_rational_gcd_matches_euclid_and_sympy(seed):
    for a, b, shared in gcd_pairs(seed):
        g = poly_gcd(a, b)
        assert g.coeffs == euclid_gcd(a, b).coeffs == sympy_gcd(a, b), (a, b)
        if shared is not None:
            assert g.degree >= shared and g.coeffs[-1] == 1, (a, b)
        if not g.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_integer_gcd_divides_exactly_over_z(seed):
    # Gauss's lemma: the primitive gcd divides both scaled operands over Z
    for a, b, _ in gcd_pairs(seed):
        if a.is_zero() or b.is_zero():
            continue
        ia, ib = rings._scaled(a.coeffs)[0], rings._scaled(b.coeffs)[0]
        g = rings._integer_gcd(ia, ib)
        assert math.gcd(*g) == 1 and len(g) - 1 == poly_gcd(a, b).degree
        for ints in (ia, ib):
            assert rings._convolve(rings._exact_quotient(ints, g), g) == ints


@pytest.mark.parametrize("seed", range(6))
def test_rational_fraction_matches_euclid_and_sympy(seed):
    # the same (num, den) coefficients as the Fraction Euclidean gcd gave,
    # num/den and den/num alike
    for a, b, _ in gcd_pairs(seed):
        for num, den in ((a, b), (b, a)):
            if den.is_zero():
                continue
            got = rings._make_fraction(FQ, num, den)
            want = euclid_fraction(FQ, num, den)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
            assert (got.num.coeffs, got.den.coeffs) == sympy_pair(num, den)


class TestGcdFreePaths:
    """The fast paths, pinned by making the slow operation raise."""

    @pytest.fixture
    def no_euclid(self, monkeypatch):
        # _make_fraction reaches the gcd through poly_gcd over Z_p and
        # through the integer remainder sequence over Q
        def refuse(a, b):
            raise AssertionError(f"polynomial gcd of {a} and {b}")
        monkeypatch.setattr(rings, "poly_gcd", refuse)
        monkeypatch.setattr(rings, "_integer_gcd", refuse)

    @pytest.fixture
    def no_products(self, monkeypatch):
        # a product of two polynomials, and a sum of products
        def refuse(*args):
            raise AssertionError("polynomial product")
        monkeypatch.setattr(rings, "_mul_raw", refuse)
        monkeypatch.setattr(rings, "poly_dot", refuse)

    def test_monomial_denominators(self, no_euclid):
        x = FQ(QX.gen)
        fs = [FQ(QX("3x^2 - x + 1/2")), FQ(QX("x^3 + 2x"), QX("2x^2")),
              FQ(QX("x - 1"), QX("5x")), FQ(QX("x^4 - 1"), QX("-3/2")), x ** 2 / x ** 5]
        for a in fs:
            assert (a * x ** 3 / x ** 2) * x.inv() == a
            inv = a.inv()
            assert (inv.inv().num, inv.inv().den) == (a.num, a.den)
            for b in fs:
                assert (a + b) - b == a
                assert a * b == b * a
                assert (a - a).is_zero() and (a - a).den.is_one()

    def test_monomial_cancellation(self, no_euclid):
        f = FQ(QX("2x^3 + x^2"), QX("4x^5"))
        assert f.num == QX("1/2 x + 1/4") and f.den == QX("x^3")
        assert F3(R3y("y^2"), R3y("2y^4")).den == R3y("y^2")

    def test_equal_denominator_sums(self, no_products):
        b = QX("x^2 - 1")
        a, c = FQ(QX("x"), b), FQ(QX.one, b)
        assert (a.den, c.den) == (b, b)
        s = a + c
        assert (s.num, s.den) == (QX.one, QX("x - 1"))
        assert (a - c).num.is_one() and (a - c).den == QX("x + 1")

    def test_equal_monomial_denominator_sums(self, no_euclid, no_products):
        b = QX("x^3")
        a, c = FQ(QX("x^2 + 1"), b), FQ(QX("2 - x^2"), b)
        s = a + c
        assert (s.num, s.den) == (QX("3"), b)
        d = a - c
        assert (d.num, d.den) == (QX("2x^2 - 1"), b)

    def test_bivariate_sums_keep_the_denominator(self):
        b = {(1, 3): 1, (0, 2): 1, (1, 2): -1, (0, 1): -1}  # h (h - 1) (q h + 1)
        total = FQH.zero
        for n in range(1, 7):
            total = total + FQH({(n, 1): n, (0, 0): 2}, b)
            assert total.den == b
        total = total - FQH({(1, 1): 1}, b)
        assert total.den == b


# Each case: a ring, an element, and the module and name of the normalizer
# that the zero operands skip: the gcd step of Frac(F[x]) and the trial
# divisions by shift factors of the Weyl engine's Frac(Z[q,h]).
ZERO_OPERAND_CASES = {
    "Q[x]": (FQ, FQ(QX("x^2 - 1/2"), QX("3x + 1")), rings, "_make_fraction"),
    "Z3[y]": (F3, F3(R3y("y^2 + 1"), R3y("y + 2")), rings, "_make_fraction"),
    "Z[q,h]": (FQH, FQH({(1, 0): 2, (0, 1): 1}, {(1, 1): 1, (0, 0): 1}),
               weyl, "_divide_out"),
}


@pytest.mark.parametrize("name", sorted(ZERO_OPERAND_CASES))
def test_zero_operands_skip_normalization(name, monkeypatch):
    """a +- 0, 0 +- a and products with a zero factor equal the canonical
    pair that the general path, the constructor on the expanded value,
    gives, without calling the normalizer."""
    ring, a, module, normalizer = ZERO_OPERAND_CASES[name]
    z = ring.zero
    a_, neg_a, z_ = (ring(x.num, x.den) for x in (a, -a, z))
    want = {"a + 0": a_, "0 + a": a_, "a - 0": a_, "0 - a": neg_a,
            "a * 0": z_, "0 * a": z_, "0 + 0": z_, "0 * 0": z_}

    def refuse(*args, **kwargs):
        raise AssertionError(f"{normalizer} called")
    monkeypatch.setattr(module, normalizer, refuse)
    got = {"a + 0": (a + z, a + 0), "0 + a": (z + a, 0 + a),
           "a - 0": (a - z, a - 0), "0 - a": (z - a, 0 - a),
           "a * 0": (a * z, a * 0), "0 * a": (z * a, 0 * a),
           "0 + 0": (z + z,), "0 * 0": (z * z,)}
    for case, results in got.items():
        for result in results:
            assert result.ring == ring, case
            assert (result.num, result.den) == (want[case].num, want[case].den), case


def cross_equal(a, b):
    return (a.num * b.den - b.num * a.den).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQq, Z7q]), st.data())
def test_structural_equality_matches_cross_multiplication(ring, data):
    """The stored pair is canonical, so equality compares it: it agrees
    with cross-multiplication on fractions that are equal by construction
    and on independent ones, and equal fractions hash alike."""
    field = FractionField(ring)
    poly = st.lists(st.integers(-3, 3), max_size=4).map(ring)
    n, d, c, n2, d2 = (data.draw(poly) for _ in range(5))
    assume(not (d.is_zero() or c.is_zero() or d2.is_zero()))
    a = field(n, d)
    for b in (field(n * c, d * c), field(n2, d2), field(n2 * d, d2 * d)):
        assert (a == b) == (b == a) == cross_equal(a, b)
        if a == b:
            assert hash(a) == hash(b)
