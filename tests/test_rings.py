import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylknots import rings
from weylknots.linalg import Matrix
from weylknots.polytext import parse_laurent
from weylknots.reps import family_char_p_bidiagonal
from weylknots.rings import (
    QQ,
    LETTER_BUDGET,
    FractionField,
    LaurentPolynomial,
    LaurentRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    RingError,
    RingMismatchError,
    laurent_canonicalize,
    poly_gcd,
)
from weylknots.weyl import EngineMode

F2 = PrimeField(2)
F3 = PrimeField(3)
R2x = PolynomialRing(F2, "x")
R3y = PolynomialRing(F3, "y")
L2x = LaurentRing(R2x)
L3y = LaurentRing(R3y)
R5y = PolynomialRing(PrimeField(5), "y")
L5y = LaurentRing(R5y)
QX = PolynomialRing(QQ, "x")
# Frac(Z[q, h]) is the symbolic Weyl engine's coefficient field, whose
# denominators are powers of q times shift factors such as h, h - 1, qh + 1.
# Its elements of Z[q, h] are term maps {(a, b): c} for c q^a h^b.
FQH = EngineMode.symbolic().coeff_field
HF, QF = FQH({(0, 1): 1}), FQH({(1, 0): 1})
QQ_Q = PolynomialRing(QQ, "q")
# A unit of each element class that has units: Laurent units are c y^k,
# and a Weyl coefficient inverts when its numerator is a power of q times
# shift factors, here -(h - 1).
UNITS = {
    "scalar": F3(2), "rational": QQ("3/2"), "laurent": L3y("2y^2"),
    "fraction": FractionField(QQ_Q)(QQ_Q("q + 1"), QQ_Q("q^2 - 2")),
    "weyl": (1 - HF) * QF / (HF * (QF * HF + 1)),
}


class TestScalars:
    def test_mod3_add(self):
        assert F3(2) + F3(2) == F3(1)

    def test_division(self):
        assert F3(1) / F3(2) == F3(2)
        assert QQ(3) / QQ(4) == QQ("3/4")

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F3(1) / F3(0)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            F3(1) + F2(1)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_prime_field_reads_fraction_text(self):
        # text is read the way QQ reads it, so "1/2" is the inverse of 2
        F7 = PrimeField(7)
        assert F7("1/2") == F7(Fraction(1, 2)) == F7(4)
        assert F7("-3/5") == F7(-3) / F7(5) and F7(" 12 ") == F7(5)
        with pytest.raises(ZeroDivisionError):
            F7("1/14")
        with pytest.raises(ValueError):
            F7("1/2y")

    def test_rational_inverse_is_exact(self):
        # an int coefficient inverts to a Fraction, never to a float
        for a, want in ((2, Fraction(1, 2)), (-3, Fraction(-1, 3)),
                        (Fraction(2, 3), Fraction(3, 2))):
            got = QQ.cinv(a)
            assert type(got) is Fraction and got == want
        assert QQ(4).inv() == QQ("1/4")

    def test_polynomials_take_a_bare_fraction(self):
        half = Fraction(1, 2)
        assert QX(half) == QX([half]) == QX("1/2")
        assert PolynomialRing(PrimeField(7))(half) == PolynomialRing(PrimeField(7))(4)
        t = LaurentRing(PolynomialRing(QQ, "t"))
        assert t.monomial(1, half) == t("(1/2)t")
        assert t.monomial(-2, Fraction(-3, 4)) * t.monomial(2, Fraction(-4, 3)) == t.one

    def test_laurent_polynomials_take_a_bare_fraction(self):
        half = Fraction(1, 2)
        t = LaurentRing(PolynomialRing(QQ, "t"))
        assert t(half) == t("1/2") and repr(t(half)) == "1/2"
        t7 = LaurentRing(PolynomialRing(PrimeField(7), "t"))
        assert t7(half) == t7(4) and repr(t7(half)) == "4"

    @pytest.mark.parametrize("ring", [F3, PrimeField(101), QQ], ids=str)
    def test_powers_match_repeated_products(self, ring):
        for value in (1, 2, -1):
            base, acc = ring(value), ring.one
            for n in range(8):
                assert base ** n == acc
                assert base ** -n == acc.inv()
                acc = acc * base
        assert ring.zero ** 0 == ring.one

    @pytest.mark.parametrize("ring", [F3, QQ], ids=str)
    def test_zero_to_a_negative_power(self, ring):
        with pytest.raises(ZeroDivisionError):
            ring.zero ** -1

    @pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
    def test_prime_field_values_stay_reduced(self, p):
        # is_zero and is_one read the stored value, so every Z_p scalar the
        # constructors and operators make must hold an int in [0, p)
        rng = random.Random(p)
        F = PrimeField(p)

        def reduced(x):
            assert type(x.value) is int and 0 <= x.value < p, (x.value, p)
            return x

        pool = [reduced(F.zero), reduced(F.one)]
        for _ in range(300):
            n = rng.choice([rng.randint(-3 * p, 3 * p), rng.randint(-2**70, 2**70),
                            p * rng.randint(-3, 3)])
            d = rng.choice([1, -1, 2 * p + 1, rng.randint(1, 2**40) * p + 1])
            pool += [reduced(F(n)), reduced(F(str(n))),
                     reduced(F(Fraction(n, d)))]
            a, b = rng.choice(pool), rng.choice(pool)
            pool += [reduced(a + b), reduced(a - b), reduced(a * b), reduced(-a),
                     reduced(a + n), reduced(n - a), reduced(n * a)]
            assert (a + b).value == (a.value + b.value) % p
            assert (a - b).value == (a.value - b.value) % p
            assert (a * b).value == (a.value * b.value) % p
            assert (a.is_zero(), a.is_one()) == (a.value % p == 0, a.value % p == 1)
            k = rng.randint(0, 9)
            pool.append(reduced(a ** k))
            if not b.is_zero():
                pool += [reduced(a / b), reduced(a.exact_div(b)), reduced(b.inv()),
                         reduced(b ** -k), reduced(n / b)]
                assert (a / b) * b == a
        assert any(x.is_zero() for x in pool) and any(x.is_one() for x in pool)


class TestPolynomials:
    @pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
    def test_prime_field_coefficients_stay_reduced(self, p):
        # from_raw reduces and trims every coefficient list, so each Z_p
        # polynomial the constructors and operators make holds ints in
        # [0, p) with a nonzero top entry, and each Laurent polynomial also
        # a nonzero constant term
        rng = random.Random(p)
        F = PrimeField(p)
        R = PolynomialRing(F, "y")
        L = LaurentRing(R)
        FR = FractionField(R)

        def canonical(f):
            cs = f.poly.coeffs if isinstance(f, LaurentPolynomial) else f.coeffs
            assert type(cs) is tuple and all(type(c) is int and 0 <= c < p for c in cs), cs
            assert not cs or cs[-1], cs
            if isinstance(f, LaurentPolynomial):
                assert cs[0] if cs else f.offset == 0, (cs, f.offset)
            return f

        def ints(k):
            return [rng.choice([rng.randint(-3 * p, 3 * p), rng.randint(-2**70, 2**70),
                                p * rng.randint(-3, 3)]) for _ in range(k)]

        def text(dens=(1, p + 1, 2 * p + 1)):
            # terms that may repeat an exponent, so sums can cancel mod p
            out = []
            for _ in range(rng.randint(1, 5)):
                c, d = rng.randint(0, 3 * p), rng.choice(dens)
                c = c if d == 1 else f"{c}/{d}"
                out.append(f"{rng.choice('+-')} {c}y^{rng.randint(0, 4)}")
            return " ".join(out)

        polys = [canonical(R.zero), canonical(R.one), canonical(R.gen)]
        laurents = [canonical(L.zero), canonical(L.one), canonical(L.gen)]
        for _ in range(150):
            n, k = ints(1)[0], rng.randint(-4, 4)
            raw = ints(rng.randint(0, 12))
            polys += [canonical(R(n)), canonical(R(F(n))), canonical(R(raw)),
                      canonical(R(tuple(raw))), canonical(R.from_raw(raw)),
                      canonical(R(text()))]
            laurents += [canonical(L(n)), canonical(L.from_poly(R(raw), k)), canonical(L(text())),
                         canonical(L(text().replace("y^", "y^-"))),
                         canonical(L(f"({text(dens=(1,))})/y^{abs(k)}")),
                         canonical(L.from_poly(rng.choice(polys), k)),
                         canonical(L.monomial(k, n))]
            a, b = rng.choice(polys), rng.choice(polys)
            polys += [canonical(a + b), canonical(a - b), canonical(a * b), canonical(-a),
                      canonical(a + n), canonical(n - a), canonical(n * a),
                      canonical(a ** rng.randint(0, 4)), canonical(a.monic()),
                      canonical(a.scale(n)), canonical(a.scale(F(n))),
                      canonical(a.shift(abs(k))), canonical(poly_gcd(a, b))]
            if not b.is_zero():
                q, r = divmod(a, b)
                polys += [canonical(q), canonical(r), canonical(a % b),
                          canonical((a * b).exact_div(b))]
                fr = FR(a, b) + FR(n, b)
                polys += [canonical(fr.num), canonical(fr.den)]
            a, b = rng.choice(laurents), rng.choice(laurents)
            laurents += [canonical(a + b), canonical(a - b), canonical(a * b),
                         canonical(-a), canonical(a + n), canonical(n - a),
                         canonical(n * a), canonical(a ** rng.randint(0, 4)),
                         canonical(L.from_poly(a.poly, a.offset + k))]
            polys.append(canonical(laurent_canonicalize(a)[0]))
            if not b.is_zero():
                laurents += [canonical((a * b) / b), canonical((a * b).exact_div(b))]
            if a.is_unit():
                laurents += [canonical(a.inv()), canonical(a ** -rng.randint(1, 4))]
        assert any(f.is_zero() for f in polys) and any(f.degree for f in polys)

    @pytest.mark.parametrize("ring", [R5y, L5y], ids=str)
    def test_list_coefficients_go_through_the_field(self, ring):
        assert repr(ring([Fraction(1, 2), 7])) == "2y + 3"
        assert ring((PrimeField(5)(3), -1)) == ring([3, 4])
        with pytest.raises(TypeError):
            ring([1, 1.5])
        with pytest.raises(RingMismatchError):
            ring([F3(1)])

    @pytest.mark.parametrize("text, coeffs, offset", [
        ("y + 2y + 1/y", (1,), -1),
        ("y + 2y + y^-1", (1,), -1),
        ("2y^-1 + y^-1 + 1", (1,), 0),
        ("y^2 + 2y^2 + y^-2 + 2y^-2", (), 0),
        ("y^3 - 4y^3 + 2y + 1/2 - 2", (2,), 1),
    ])
    def test_parse_cancels_mod_p(self, text, coeffs, offset):
        # terms that cancel mod 3 leave no zero top or bottom coefficient
        f = L3y(text)
        assert (f.poly.coeffs, f.offset) == (coeffs, offset)

    def test_char2_frobenius(self):
        f = R2x("x + 1")
        assert f * f == R2x("x^2 + 1")

    def test_parse_and_print(self):
        f = R3y("2y^3 + y + 1")
        assert repr(f) == "2y^3 + y + 1"
        assert f.coeffs == (1, 1, 0, 2)
        # terms that cancel mod 3 leave no zero top
        assert R3y("y^2 + 2y^2 + y").coeffs == (0, 1)
        assert R3y("2y + y + 2 + 1").is_zero()

    def test_degree_sentinel(self):
        assert R2x(0).degree is None
        assert R2x(1).degree == 0
        assert R2x("x^4").degree == 4

    def test_divmod(self):
        f = R3y("y^3 + 2y + 1")
        g = R3y("y + 2")
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree is None or r.degree < g.degree

    @pytest.mark.parametrize("p,f,g", [
        (3, [i % 3 for i in range(40)] + [1], [(2 * i + 1) % 3 for i in range(37)] + [2]),
        # all-(p - 1) operands give the largest convolution coefficients
        (3, [2] * 100, [2] * 130),
        (65521, [65520] * 100, [65520] * 100),
        (268435399, [268435398] * 128, [268435398] * 130),
        (2**31 - 1, [2**31 - 2] * 100, [2**31 - 2] * 200),
    ], ids=["p3-mixed", "p3-top", "p65521-top", "p268435399-top", "p2147483647-top"])
    def test_product_matches_shifted_sums(self, p, f, g):
        ring = PolynomialRing(PrimeField(p), "y")
        f, g = ring(f), ring(g)
        slow = ring.zero
        for i, c in enumerate(f.coeffs):
            slow = slow + g.scale(c).shift(i)
        assert f * g == slow == g * f

    def test_rational_product_matches_schoolbook(self):
        # mixed denominators, negative and interior-zero coefficients,
        # length-1 operands and the zero polynomial
        F = Fraction
        operands = [
            [F(1, 2), F(-2, 3), F(0), F(5, 7)],
            [F(-3, 4), F(0), F(0), F(1, 6)],
            [F(7, 3)],
            [F(-1)],
            [],
            [F(4, 9), F(3), F(-9, 4), F(0), F(1, 10)],
            [F(6, 5), F(-10, 3)],
        ]
        rng = random.Random(5)
        operands += [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 12))]
                     for _ in range(6)]
        for a, b in itertools.product(operands, repeat=2):
            slow = [F(0)] * (len(a) + len(b))
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    slow[i + j] += ai * bj
            assert (QX.from_raw(a) * QX.from_raw(b)).coeffs == QX.from_raw(slow).coeffs


    def test_scale_checks_the_scalar_ring(self):
        y = R3y.gen
        assert y.scale(F3(2)) == R3y("2y") == y.scale(2)
        with pytest.raises(RingMismatchError):
            y.scale(PrimeField(5)(4))
        with pytest.raises(RingMismatchError):
            QX.gen.scale(F3(2))

    def test_shift(self):
        f = R3y("y + 2")
        assert f.shift(0) == f
        assert f.shift(2) == R3y("y^3 + 2y^2")
        assert R3y.zero.shift(3).is_zero()
        with pytest.raises(ValueError, match="negative"):
            f.shift(-1)

    def test_powers_match_repeated_products(self):
        # every element class; units also to negative powers
        others = [R3y("y + 2"), L3y("y + 1/y"), (QF + HF) / (HF * (HF - 1) * (QF * HF + 1))]
        for base, unit in [(x, False) for x in others] + [(u, True) for u in UNITS.values()]:
            acc = base.ring.one
            for n in range(10):
                assert base ** n == acc
                assert not unit or base ** -n == acc.inv()
                acc = acc * base
        u = L3y("y^2")
        assert u ** -3 == u.inv() ** 3 == L3y("1/y^6")
        with pytest.raises(ValueError, match="negative power"):
            R3y("y + 2") ** -1


@pytest.mark.parametrize("build", [
    lambda: QX("1/0"),
    lambda: R3y("1/3 y"),
    lambda: L3y("2/3y^-1"),
    lambda: LaurentRing(QX)("x^-1 - 1/0"),
    lambda: family_char_p_bidiagonal(3, 3, "1/3", "y", ["1", "1"]),
], ids=["Q-1/0", "Z3-poly", "Z3-laurent", "Q-laurent", "char-p-spec"])
def test_zero_denominator_coefficient_is_a_value_error(build):
    with pytest.raises(ValueError, match="zero denominator .* in the term"):
        build()


def test_bivariate_exponents_are_nonnegative():
    # term maps of Z[q, h] hold polynomials; the Weyl engine keeps powers of
    # q apart
    assert repr(FQH({(2, 1): 3, (0, 0): -1})) == "3*q^2*h - 1"
    for exps in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="negative exponent"):
            FQH({exps: 1, (0, 0): 1})


class TestPolyGcd:
    def test_char2_square(self):
        assert poly_gcd(R2x("x^2+1"), R2x("x+1")) == R2x("x+1")

    def test_gcd_with_zero(self):
        f = R3y("2y^2 + 1")
        assert poly_gcd(f, R3y.zero) == f.monic()
        assert poly_gcd(R3y.zero, R3y.zero) == R3y.zero

    def test_unit_multiple(self):
        assert poly_gcd(R3y("y+1"), R3y("2y+2")) == R3y("y+1")

    @pytest.mark.parametrize("field", [F2, F3])
    def test_against_brute_force_divisor_search(self, field):
        ring = PolynomialRing(field, "x")
        p = field.p
        polys = []
        for deg in range(5):
            for tail in itertools.product(range(p), repeat=deg):
                for lead in range(1, p):
                    polys.append(ring.from_raw(list(tail) + [lead]))
        small = [f for f in polys if f.degree <= 2][:40]
        divisors = [f for f in polys if f.degree >= 1]

        def brute_gcd(a, b):
            best = ring.one
            for d in divisors:
                if (a % d).is_zero() and (b % d).is_zero():
                    if d.degree > best.degree:
                        best = d.monic()
            return best

        for a, b in itertools.islice(itertools.combinations(small, 2), 120):
            g = poly_gcd(a, b)
            assert (a % g).is_zero() and (b % g).is_zero()
            if not (a.is_zero() or b.is_zero()) and a.degree + b.degree <= 4:
                assert g == brute_gcd(a, b)


@pytest.mark.parametrize("build", [
    lambda e: QX(f"x^{e}"),
    lambda e: R3y(f"2y^{e} + 1"),
    lambda e: L3y(f"y^{e} + 1"),
    lambda e: L3y(f"y^-{e}"),
    lambda e: parse_laurent(f"1/y^{e}", L3y),
    lambda e: parse_laurent(f"(y + 1)/y^{e}", L3y),
], ids=["Q-poly", "Z3-poly", "Z3-laurent", "Z3-negative", "Z3-over-y^k", "Z3-paren"])
def test_exponent_budget(build):
    # one coefficient per degree: an exponent above the budget is refused
    # before it is allocated, and one at the budget still parses
    assert build(LETTER_BUDGET) is not None
    with pytest.raises(ValueError, match=rf"exponent above {LETTER_BUDGET} in the term"):
        build(LETTER_BUDGET + 1)


ELEMENTS = {
    "scalar": F3(2), "poly": R3y("y + 1"), "laurent": L3y("y + 1/y"),
    "bivariate": FQH({(1, 1): 1}), "fraction": FQH({(1, 0): 1}, {(0, 1): 1}),
}


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_reflected_operators_refuse_floats(name):
    # an operator returns NotImplemented for an operand it cannot coerce, so
    # Python raises TypeError, whichever side the float is on
    x = ELEMENTS[name]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(x, 1.5)
        with pytest.raises(TypeError, match="unsupported operand"):
            op(1.5, x)
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 / x
    # a value no ring holds compares unequal instead
    for other in (1.5, None, "y"):
        assert not x == other and not other == x
        assert x != other and other != x


# Every element class has exact_div: polynomials through divmod, the others
# from RingElement.  The fraction is one over Z_3[y], and the Weyl engine's
# coefficient one of Frac(Z[q, h]).
@pytest.mark.parametrize("name", ["scalar", "poly", "laurent", "fraction", "weyl"])
def test_exact_div_names_the_operand(name):
    x = {"fraction": FractionField(R3y)(R3y("y"), R3y("y + 1")),
         "weyl": ELEMENTS["fraction"]}.get(name, ELEMENTS.get(name))
    with pytest.raises(TypeError, match="cannot divide by 1.5"):
        x.exact_div(1.5)


@pytest.mark.parametrize("name", sorted(UNITS) + ["poly"])
def test_int_operands_on_the_left_are_coerced(name):
    x = R3y("y + 2") if name == "poly" else UNITS[name]
    two = x.ring(2)
    assert 2 + x == two + x and (2 + x).ring is x.ring
    assert 2 - x == two - x and (2 - x).ring is x.ring
    assert 2 * x == two * x and (2 * x).ring is x.ring
    if name == "poly":
        # polynomials have no /, and the refusal names the int operand
        with pytest.raises(TypeError, match="'int' and 'UniPolynomial'"):
            2 / x
    else:
        assert 2 / x == two / x and (2 / x).ring is x.ring


class TestLaurent:
    def test_whorl_value_canonicalizes(self):
        f = parse_laurent("(x^10 + x^4 + x^2 + 1)/x^10", L2x)
        mono, unit = laurent_canonicalize(f)
        assert mono == R2x("x^10 + x^4 + x^2 + 1")
        assert unit == (F2(1), 10)

    def test_scalar_unit(self):
        f = L3y("2y + 2")
        mono, unit = laurent_canonicalize(f)
        assert mono == R3y("y + 1")
        assert unit == (F3(2), 0)

    def test_symmetric_power(self):
        x = L2x.gen
        f = x ** 2 + x ** -2
        mono, unit = laurent_canonicalize(f)
        assert mono == R2x("x^4 + 1")
        assert unit == (F2(1), 2)

    def test_print_negative_offset(self):
        f = parse_laurent("(x^10+x^4+x^2+1)/x^10", L2x)
        assert repr(f) == "(x^10 + x^4 + x^2 + 1)/x^10"
        assert repr(L2x.monomial(-2)) == "1/x^2"

    def test_canonicalize_idempotent_and_unit_invariant(self):
        f = L3y("y^2 + 2y") * L3y.monomial(-4)
        mono, unit = laurent_canonicalize(f)
        again, unit2 = laurent_canonicalize(L3y.from_poly(mono))
        assert again == mono and unit2 == (F3(1), 0)
        for c in (1, 2):
            for k in (-3, 0, 5):
                g = f * L3y.monomial(k, F3(c))
                assert laurent_canonicalize(g)[0] == mono

    def test_zero(self):
        mono, unit = laurent_canonicalize(L2x.zero)
        assert mono.is_zero() and unit == (F2(1), 0)

    def test_unit_inverse(self):
        u = L3y.monomial(3, F3(2))
        assert u * u.inv() == L3y.one

    def test_sum_with_a_quotient_term(self):
        y = L5y.gen
        assert L5y("y + 1/y") == y + y ** -1
        assert L5y("2 + 3y^2/y^4 - y") == 2 + 3 * y ** -2 - y
        assert L5y("(y + 1)/y") == (y + 1) * y ** -1

    @pytest.mark.parametrize("text", [
        "(y + 1/y", "y + 1)/y", "(y)+(1)/y", "1/y^2/y", "/y", "(y + 1)/2",
        "(y + 1)/y + 1", "y/x"])
    def test_unbalanced_or_ambiguous_quotients_raise(self, text):
        with pytest.raises(ValueError):
            L5y(text)

    def test_repr_round_trip_over_q(self):
        ring = LaurentRing(QX)
        for coeffs, offset in [([Fraction(1, 2)], -1), ([Fraction(-1, 2)], -2),
                               ([Fraction(-1, 3), -1], -2), ([1, 0, 2], -3)]:
            f = ring.from_poly(QX(coeffs), offset)
            assert ring(repr(f)) == f, repr(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_repr_round_trip_over_q_with_fractions(self, seed):
        # fractional, negative and interior-zero coefficients, printed as
        # -(1/2)x^3 + 3x - 2/5 and (...)/x^k
        rng = random.Random(seed)
        ring = LaurentRing(QX)
        seen = set()
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                      if rng.random() < 0.7 else 0 for _ in range(rng.randint(1, 7))]
            f = QX(coeffs)
            assert QX(repr(f)) == f, repr(f)
            g = ring.from_poly(f, rng.randint(-6, 3))
            assert ring(repr(g)) == g, repr(g)
            seen.update(t for t in ("-(", "+ (", "/x") if t in repr(g))
        assert seen == {"-(", "+ (", "/x"}


def test_entries_answer_is_unit():
    # every matrix entry kind of linalg: field scalars, fractions and
    # Laurent polynomials
    frac = FractionField(R3y)
    assert F3(2).is_unit() and not F3(0).is_unit()
    assert QQ(Fraction(1, 2)).is_unit() and not QQ(0).is_unit()
    assert frac(R3y("y + 1"), R3y("y")).is_unit() and not frac.zero.is_unit()
    assert L3y("2/y^3").is_unit() and not L3y("y + 1").is_unit()
    assert not L3y.zero.is_unit()


def _random_coeff(rng, field):
    if field.p:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _random_element(rng, ring):
    """A seeded element of a matrix entry ring, zero about one time in six;
    polynomials have interior zero coefficients and Laurent ones negative
    offsets."""
    if rng.random() < 1 / 6:
        return ring.zero
    if isinstance(ring, (PrimeField, RationalField)):
        return ring(_random_coeff(rng, ring))
    if isinstance(ring, FractionField):
        den = ring.domain.zero
        while den.is_zero():
            den = _random_element(rng, ring.domain)
        return ring(_random_element(rng, ring.domain), den)
    field = ring.field
    coeffs = [0 if rng.random() < 0.3 else _random_coeff(rng, field)
              for _ in range(rng.randint(1, 5))]
    if isinstance(ring, LaurentRing):
        return ring.from_poly(ring.poly_ring(coeffs), rng.randint(-4, 2))
    return ring(coeffs)


DOT_RINGS = {
    "Z101": PrimeField(101), "Q": QQ, "Z2[x,1/x]": L2x, "Z3[y,1/y]": L3y,
    "Z101[x,1/x]": LaurentRing(PolynomialRing(PrimeField(101), "x")),
    "Q[t,1/t]": LaurentRing(PolynomialRing(QQ, "t")),
    "Frac(Q[q])": FractionField(PolynomialRing(QQ, "q")),
    "Frac(Z5[x])": FractionField(PolynomialRing(PrimeField(5), "x")),
}
FRACTION_RINGS = sorted(name for name in DOT_RINGS if name.startswith("Frac"))


def _fraction_denominators(domain):
    """Powers of x, polynomials with a nonzero constant term, and products
    of the two."""
    x = domain.gen
    return [domain.one, x, x ** 3, x + 1, x * x + 2, x ** 2 * (x + 1), (x + 3) ** 2]


class TestConversions:
    """A Laurent polynomial enters Frac(F[x]) by ``field(e)``, and a
    fraction n / x^k comes back by ``ring(f)``."""

    @pytest.mark.parametrize("name", ["Z3[y,1/y]", "Q[t,1/t]"])
    def test_laurent_round_trips_through_fractions(self, name):
        ring = DOT_RINGS[name]
        field, x = FractionField(ring.poly_ring), ring.poly_ring.gen
        rng = random.Random(name)
        for _ in range(60):
            e = _random_element(rng, ring)
            f, k = field(e), e.offset
            made = rings._make_fraction(field, e.poly.shift(max(k, 0)), x ** max(-k, 0))
            assert (f.num, f.den) == (made.num, made.den)
            assert ring(f) == e and ring(f).ring is ring

    def test_other_fractions_are_refused(self):
        field, ring = FractionField(QX), LaurentRing(QX)
        with pytest.raises(ValueError, match=r"\(x \+ 1\)/\(x \+ 2\) is not a Laurent"):
            ring(field("x + 1", "x + 2"))
        # the conversions are explicit: operators do not mix the two rings
        with pytest.raises(TypeError):
            ring.gen + field(QX.gen)


def _random_factor(rng, ring):
    """A seeded factor of ring's sum of products: an element over a field,
    and over a Laurent ring a raw value (offset, coefficient tuple), zero
    (0, ()) about one time in six, with a negative or positive offset,
    zeros anywhere, and coefficients unreduced over Z_p (from -2p to 2p)
    and with mixed denominators over Q."""
    if not isinstance(ring, LaurentRing):
        return _random_element(rng, ring)
    if rng.random() < 1 / 6:
        return 0, ()
    field = ring.field
    coeffs = [field.czero if rng.random() < 0.3 else
              rng.randint(-2 * field.p, 2 * field.p) if field.p else _random_coeff(rng, field)
              for _ in range(rng.randint(1, 5))]
    return rng.randint(-4, 3), tuple(coeffs)


def _element(ring, factor):
    """The element of ring that a factor of ``_random_factor`` stands for."""
    if not isinstance(ring, LaurentRing):
        return factor
    offset, coeffs = factor
    return ring.from_poly(ring.poly_ring(list(coeffs)), offset)


def _dot(ring, pairs):
    """The sum of a * b over pairs as the matrix product kernel computes it:
    over Z_p and Q the one entry of the 1 x n by n x 1 ``Matrix`` product
    of the a's and the b's (no pairs: of two 1 x 1 zeros, whose sum the
    kernel leaves empty); ring.dot over Frac(F[x]); over a Laurent ring
    ``rings.poly_dot`` of raw values, its result wrapped as it is, so that
    == compares the raw value with the stored pair of the element."""
    if isinstance(ring, FractionField):
        return ring.dot(pairs)
    if not isinstance(ring, LaurentRing):
        left, right = zip(*pairs) if pairs else ([ring.zero], [ring.zero])
        [[entry]] = (Matrix([left], ring) * Matrix([[b] for b in right], ring)).rows
        return entry
    offset, coeffs = rings.poly_dot(pairs, ring.field)
    return LaurentPolynomial(ring, rings.UniPolynomial(ring.poly_ring, coeffs), offset)


class TestDot:
    """The sums of products of the matrix product kernel (``_dot``): a
    1 x n by n x 1 product over Z_p and Q, ``ring.dot`` over Frac(F[x])
    and ``rings.poly_dot`` of raw values over F[x, x^-1], against the
    left-to-right sum of element products."""

    @pytest.mark.parametrize("name", sorted(DOT_RINGS))
    def test_matches_the_element_sum(self, name):
        ring = DOT_RINGS[name]
        rng = random.Random(name)
        for _ in range(40):
            pairs = [(_random_factor(rng, ring), _random_factor(rng, ring))
                     for _ in range(rng.randint(1, 8))]
            expected = ring.zero
            for a, b in pairs:
                expected = expected + _element(ring, a) * _element(ring, b)
            assert _dot(ring, pairs) == expected, pairs

    @pytest.mark.parametrize("name", sorted(DOT_RINGS))
    def test_empty_and_cancelling_sums_are_the_canonical_zero(self, name):
        ring = DOT_RINGS[name]
        rng = random.Random(name)
        laurent = isinstance(ring, LaurentRing)
        zero = (0, ()) if laurent else ring.zero
        neg = (lambda f: (f[0], tuple([-c for c in f[1]]))) if laurent else operator.neg
        a, b = _random_factor(rng, ring), _random_factor(rng, ring)
        while _element(ring, a).is_zero() or _element(ring, b).is_zero():
            a, b = _random_factor(rng, ring), _random_factor(rng, ring)
        c = _random_factor(rng, ring)
        for pairs in ([], [(zero, a), (b, zero)], [(a, b), (neg(a), b)],
                      [(a, b), (c, c), (neg(b), a), (neg(c), c)]):
            d = _dot(ring, pairs)
            assert d.is_zero() and d == ring.zero and repr(d) == "0"
            if laurent:
                assert d.offset == 0 and d.poly.coeffs == ()
            elif isinstance(ring, FractionField):
                assert d.num.coeffs == ()
            else:
                assert type(d.value) is type(ring.zero.value)

    @pytest.mark.parametrize("name", FRACTION_RINGS)
    def test_mixed_denominators(self, name):
        ring = DOT_RINGS[name]
        dom = ring.domain
        dens = _fraction_denominators(dom)
        rng = random.Random(name)
        for _ in range(60):
            pairs = [tuple(ring(_random_element(rng, dom), rng.choice(dens))
                           for _ in range(2)) for _ in range(rng.randint(1, 6))]
            expected = ring.zero
            for a, b in pairs:
                expected = expected + a * b
            assert ring.dot(pairs) == expected, pairs

    @pytest.mark.parametrize("name", FRACTION_RINGS)
    def test_sums_cancel_over_general_denominators(self, name):
        # each pair of products is equal and opposite, with unreduced
        # denominators x^k (x + 2) (x + 1) and x^k (x + 2)
        ring = DOT_RINGS[name]
        dom = ring.domain
        x = dom.gen
        for k in range(3):
            a = ring(x + 1, x ** k * (x + 2))
            b = ring(dom.one, x + 1)
            c = ring(-dom.one, x ** k * (x + 2))
            for pairs in ([(a, b), (c, ring.one)],
                          [(b, a), (a, b), (ring.one, c), (c, ring.one)]):
                d = ring.dot(pairs)
                assert d.is_zero() and d.num.coeffs == () and d.den.is_one()

    @pytest.mark.parametrize("name", FRACTION_RINGS)
    def test_fractions_reduce_once_per_entry(self, name, monkeypatch):
        ring = DOT_RINGS[name]
        dom = ring.domain
        dens = _fraction_denominators(dom)
        rng = random.Random(name)
        # nonzero numerators c + d x, so that no product is skipped
        draws = [[tuple(ring(dom([rng.randint(1, 4), rng.randint(0, 4)]), rng.choice(dens))
                        for _ in range(2)) for _ in range(rng.randint(1, 6))]
                 for _ in range(20)]
        make, calls = rings._make_fraction, []
        monkeypatch.setattr(rings, "_make_fraction",
                            lambda *args, **kwargs: calls.append(args) or make(*args, **kwargs))
        for pairs in draws:
            calls.clear()
            ring.dot(pairs)
            assert len(calls) == 1, pairs

    def test_rational_values_stay_fractions(self):
        pairs = [(QQ(2), QQ(3)), (QQ("1/2"), QQ("2/3"))]
        d = _dot(QQ, pairs)
        assert d.value == Fraction(19, 3) and type(d.value) is Fraction
        qt = DOT_RINGS["Q[t,1/t]"]
        pairs = [(qt("1/t + 2"), qt(3)), (qt("1/2"), qt("2t - 4"))]
        g = _dot(qt, [tuple((e.offset, e.poly.coeffs) for e in pair) for pair in pairs])
        assert g == qt("3/t + 4 + t") and all(type(c) is Fraction for c in g.poly.coeffs)


class TestFractions:
    def test_cancellation(self):
        h, q = HF, QF
        a = h / (h - 1)
        b = (h - 1) / q
        assert a * b == h / q
        c = (q * h + 1) / h
        assert a * c / (q * h + 1) == 1 / (h - 1)

    def test_common_factor(self):
        h, q = HF, QF
        assert h / (h - 1) == (q * h) / (q * (h - 1))
        assert (h - 1) / (q * h + 1) == ((h - 1) * h) / ((q * h + 1) * h)

    def test_distinct(self):
        h, q = HF, QF
        assert 1 / h != 1 / (h - 1)
        assert 1 / (q * h + 1) != 1 / (h - 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            FQH(1, 0)

    def test_bivariate_domain_refused(self):
        # no gcd over Z[q, h]: its fractions are the Weyl engine's
        with pytest.raises(TypeError, match="univariate"):
            FractionField(FQH)

    def test_univariate_reduction(self):
        FR = FractionField(R3y)
        y = FR(R3y.gen)
        f = (y * y - 1) / (y - 1)
        assert f == y + 1
        assert f.den.is_one()


# property-based ring axioms -------------------------------------------------

scalar3 = st.integers(0, 2).map(F3)
rational = st.fractions(-5, 5, max_denominator=7).map(QQ)
poly3 = st.lists(st.integers(0, 2), max_size=6).map(lambda cs: R3y.from_raw(cs))
laurent2 = st.tuples(st.lists(st.integers(0, 1), max_size=6), st.integers(-4, 4)).map(
    lambda t: L2x.from_poly(R2x.from_raw(t[0]), t[1]))
laurent3 = st.tuples(st.lists(st.integers(0, 2), max_size=6), st.integers(-4, 4)).map(
    lambda t: L3y.from_poly(R3y.from_raw(t[0]), t[1]))


def biv(seed):
    terms = {}
    for k, c in enumerate(seed):
        if c:
            terms[(k % 3, k // 3)] = c
    return terms


def shift_denominator(ms):
    """The product of the shift factors f_m = h - [m]_q (m >= 0) and
    q^n h + [n]_q (m = -n) over the list ms."""
    den = FQH.one
    for m in ms:
        s = sum((QF ** i for i in range(abs(m))), FQH.zero)
        den = den * (HF - s if m >= 0 else QF ** -m * HF + s)
    return den


fraction_qh = st.tuples(
    st.lists(st.integers(-2, 2), min_size=1, max_size=5),
    st.lists(st.integers(-2, 2), max_size=3),
    st.integers(0, 2),
).map(lambda t: FQH(biv(t[0])) / (shift_denominator(t[1]) * QF ** t[2]))


RING_OPS = (operator.add, operator.sub, operator.mul)
FIELD_OPS = RING_OPS + (operator.truediv,)

# Each entry: a maker of fresh ring objects, two element inputs, a ring that
# differs from the made one, and the binary operators of its elements.
EQUAL_RINGS = {
    "Z7": (lambda: PrimeField(7), "3", "5", PrimeField(5), FIELD_OPS),
    "Q": (RationalField, "3/4", "-2", PrimeField(5), FIELD_OPS),
    "Z3[x]": (lambda: PolynomialRing(PrimeField(3), "x"), "x + 2", "2x^2 + 1",
              PolynomialRing(PrimeField(5), "x"), RING_OPS + (divmod,)),
    "Z3[x,x^-1]": (lambda: LaurentRing(PolynomialRing(PrimeField(3), "x")),
                   "x + 2", "2x^2 + 1", LaurentRing(PolynomialRing(PrimeField(5), "x")),
                   RING_OPS),
    "Frac(Q[q])": (lambda: FractionField(PolynomialRing(QQ, "q")),
                   "q + 1", "q^2 - 3", FractionField(PolynomialRing(PrimeField(5), "q")),
                   FIELD_OPS),
}


class TestRingEquality:
    """Ring equality is structural: distinct equal ring objects mix, and
    unequal ones raise RingMismatchError.  Operands on distinct ring objects
    take the coercion path of every operator, so each one is covered."""

    @pytest.mark.parametrize("name", sorted(EQUAL_RINGS))
    def test_distinct_equal_rings_mix(self, name):
        make, a_text, b_text, _, ops = EQUAL_RINGS[name]
        r, s = make(), make()
        assert r is not s and r == s and hash(r) == hash(s)
        a, b = r(a_text), s(b_text)
        for op in ops:
            assert op(a, b) == op(r(a_text), r(b_text))
            assert op(b, a) == op(s(b_text), s(a_text))
        for op in (operator.add, operator.sub, operator.mul):
            assert op(a, b).ring is r and op(b, a).ring is s
        # conversion lands on the converting ring object itself
        assert r(b).ring is r and r(b) == r(b_text) and (2 + a).ring is r
        m = Matrix([[a, b], [b, a]], r)
        if isinstance(r, PolynomialRing):
            # linalg serves fields and Laurent rings only
            with pytest.raises(RingError, match=r"no matrix product over Z_3\[x\]"):
                m * Matrix.identity(s, 2)
        else:
            assert m * Matrix.identity(s, 2) == m
        assert m + Matrix.zeros(s, 2) == Matrix([[a, b], [b, a]], s)

    @pytest.mark.parametrize("name", sorted(EQUAL_RINGS))
    def test_unequal_rings_raise(self, name):
        make, a_text, b_text, other, ops = EQUAL_RINGS[name]
        r = make()
        assert r != other
        a, c = r(a_text), other(b_text)
        for op, d in itertools.product(ops, (c, other.zero)):
            # a zero operand would skip the arithmetic, but not the check
            with pytest.raises(RingMismatchError):
                op(a, d)
            with pytest.raises(RingMismatchError):
                op(d, a)
        for d in (c, other.zero):
            with pytest.raises(RingMismatchError):
                a == d
            with pytest.raises(RingMismatchError):
                d == a
        with pytest.raises(RingMismatchError):
            Matrix([[a, c]], r)
        with pytest.raises(RingMismatchError):
            Matrix.identity(r, 2) * Matrix.identity(other, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([scalar3, rational, poly3, laurent2, laurent3]).flatmap(
    lambda s: st.tuples(s, s, s)))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    assert (a - a).is_zero() and a - a == a.ring.zero
    # reflected and forward int operands take the coercion path
    assert 3 - a == a.ring(3) - a == -(a - 3)
    assert 2 * a == a * 2 == a.ring(2) * a
    assert a + 0 == 0 + a == a


@settings(max_examples=40, deadline=None)
@given(fraction_qh, fraction_qh, fraction_qh)
def test_fraction_equality_is_equivalence(a, b, c):
    assert a == a
    if a == b:
        assert b == a
        if b == c:
            assert a == c
    assert (a + b) * c == a * c + b * c


# Over Q a coefficient is an int when it is an integer built over the
# denominator 1 and a Fraction otherwise, never a float or a bool, and the
# normalizer ``from_raw`` keeps no integral Fraction.  The values drawn here
# mix ints with Fractions of small denominators, integral ones such as
# Fraction(4, 2) included, as elements built outside ``from_raw`` may hold
# them; every result is checked against an oracle on plain Fraction lists.
QT = PolynomialRing(QQ, "t")
LQT = LaurentRing(QT)
FQT = FractionField(QT)

rational_coeffs = st.lists(st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))),
    max_size=4)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _q_poly(cs):
    """The Q[t] value holding exactly the coefficients cs, top zeros trimmed."""
    return rings.UniPolynomial(QT, tuple(_trim(cs)))


def _rational_coeffs(cs, normalized=False):
    """cs as a list, once each entry is checked to be an int or a Fraction,
    and with ``normalized`` not an integral Fraction."""
    for c in cs:
        assert type(c) in (int, Fraction), (c, type(c))
        assert not (normalized and type(c) is Fraction and c.denominator == 1), c
    return list(cs)


def _oracle(cs):
    return _trim([Fraction(c) for c in cs])


def _oracle_sum(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _trim([x + sign * y for x, y in zip(a, b)])


def _oracle_product(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _oracle_divmod(a, b):
    quot, rem = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = c = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(quot), _trim(rem)


def _oracle_monic(a):
    return [c / a[-1] for c in a]


def _oracle_gcd(a, b):
    while b:
        a, b = b, _oracle_divmod(a, b)[1]
    return _oracle_monic(a)


def _terms(offset, cs):
    """A Laurent value as its map exponent -> nonzero Fraction."""
    return {offset + k: Fraction(c) for k, c in enumerate(cs) if c}


def _oracle_laurent(a, b, op):
    if op is operator.mul:
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
    else:
        sign = -1 if op is operator.sub else 1
        out = dict(a)
        for j, y in b.items():
            out[j] = out.get(j, 0) + sign * y
    return {k: c for k, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(rational_coeffs, rational_coeffs, rational_coeffs, rational_coeffs,
       st.integers(-3, 3), st.integers(-3, 3))
def test_rational_coefficients_are_ints_or_fractions(ca, cb, cc, cd, i, j):
    a, b, x, y = _oracle(ca), _oracle(cb), _oracle(cc), _oracle(cd)
    pa, pb = _q_poly(ca), _q_poly(cb)
    assert _rational_coeffs(QT.from_raw(ca).coeffs, normalized=True) == a
    for got, want in ((pa + pb, _oracle_sum(a, b)), (pa - pb, _oracle_sum(a, b, -1)),
                      (pa * pb, _oracle_product(a, b))):
        assert _rational_coeffs(got.coeffs, normalized=True) == want
    if b:
        quot, rem = divmod(pa, pb)
        want = _oracle_divmod(a, b)
        assert _rational_coeffs(quot.coeffs, normalized=True) == want[0]
        assert _rational_coeffs(rem.coeffs, normalized=True) == want[1]
    if a:
        assert _rational_coeffs(pa.monic().coeffs, normalized=True) == _oracle_monic(a)
    assert _rational_coeffs(poly_gcd(pa, pb).coeffs) == (_oracle_gcd(a, b) if a or b else [])

    la, lb = LQT.from_poly(pa, i), LQT.from_poly(pb, j)
    ta, tb = _terms(i, a), _terms(j, b)
    for op in (operator.add, operator.sub, operator.mul):
        got = op(la, lb)
        # with both operands nonzero the result comes from ``from_raw``
        coeffs = _rational_coeffs(got.poly.coeffs, normalized=bool(a and b))
        assert _terms(got.offset, coeffs) == _oracle_laurent(ta, tb, op)
    px, py = LQT.from_poly(_q_poly(cc), i + j), LQT.from_poly(_q_poly(cd), -j)
    pairs = [((e.offset, e.poly.coeffs), (f.offset, f.poly.coeffs))
             for e, f in ((la, lb), (px, py), (lb, px))]
    offset, coeffs = rings.poly_dot(pairs, QQ)
    want = {}
    for ((e, cs), (f, ds)) in pairs:
        for k, c in _oracle_laurent(_terms(e, cs), _terms(f, ds), operator.mul).items():
            want[k] = want.get(k, 0) + c
    assert _terms(offset, _rational_coeffs(coeffs)) == {k: c for k, c in want.items() if c}
    assert coeffs[0] and coeffs[-1] if coeffs else offset == 0

    if b and y:
        fa, fb = FQT(pa, pb), FQT(_q_poly(cc), _q_poly(cd))
        for op, num, den in (
                (operator.add, _oracle_sum(_oracle_product(a, y), _oracle_product(x, b)),
                 _oracle_product(b, y)),
                (operator.sub, _oracle_sum(_oracle_product(a, y), _oracle_product(x, b), -1),
                 _oracle_product(b, y)),
                (operator.mul, _oracle_product(a, x), _oracle_product(b, y)),
                (operator.truediv, _oracle_product(a, y), _oracle_product(b, x))):
            if not den:
                continue
            got = op(fa, fb)
            n, d = _rational_coeffs(got.num.coeffs), _rational_coeffs(got.den.coeffs)
            assert d[-1] == 1 and _oracle_product(n, den) == _oracle_product(num, d)
        got = FQT.dot([(fa, fb), (fb, fb)])
        n, d = _rational_coeffs(got.num.coeffs), _rational_coeffs(got.den.coeffs)
        num = _oracle_sum(_oracle_product(_oracle_product(a, x), _oracle_product(y, y)),
                          _oracle_product(_oracle_product(x, x), _oracle_product(b, y)))
        den = _oracle_product(_oracle_product(b, y), _oracle_product(y, y))
        assert d[-1] == 1 and _oracle_product(n, den) == _oracle_product(num, d)

    scalars = [rings.FieldScalar(QQ, c) for c in ca + cb]
    pairs = list(zip(scalars, reversed(scalars)))
    got = _dot(QQ, pairs).value
    assert _rational_coeffs([got], normalized=True) == [sum(
        [Fraction(u.value) * Fraction(v.value) for u, v in pairs], Fraction(0))]
    for c in ca + cb:
        for value in (c, str(c)):
            assert _rational_coeffs([QQ(value).value], normalized=True) == [Fraction(c)]
        if c:
            assert _rational_coeffs([QQ.cinv(c)]) == [1 / Fraction(c)]
    assert _rational_coeffs([QQ(True).value, QQ(False).value], normalized=True) == [1, 0]


@settings(max_examples=100, deadline=None)
@given(rational_coeffs, st.integers(-3, 3))
def test_rational_values_print_and_parse_back(cs, k):
    # an integer coefficient prints alike as an int and as a Fraction, and
    # the printed text parses back to the value
    as_fractions = [Fraction(c) for c in cs]
    as_ints = [c.numerator if c.denominator == 1 else c for c in as_fractions]
    polys = [_q_poly(c) for c in (cs, as_fractions, as_ints)]
    laurents = [LQT.from_poly(f, k) for f in polys]
    for values, ring in ((polys, QT), (laurents, LQT)):
        assert len({repr(e) for e in values}) == 1
        assert all(ring(repr(e)) == e for e in values)
