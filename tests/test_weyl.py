import random
import time

import pytest
from weyl_oracle import FixedQWeyl

from weylknots import weyl
from weylknots.rings import LETTER_BUDGET, RingError
from weylknots.weyl import (
    IDENTITY_SUITE,
    NUMERATOR_TERM_BUDGET,
    NUMERATOR_WORK_BUDGET,
    ONE,
    Q,
    U,
    UI,
    V,
    VI,
    Add,
    EngineMode,
    Mul,
    Neg,
    _survives_q1,
    evaluate,
    mul,
    parse_expression,
    run_identity_suite,
    sigma_apply,
    skew_mul,
    sub,
    verify_identity,
)

SYM = EngineMode.symbolic()

# The factor multisets of the weyl-verify benchmark products, as text.
WEYL_PRODUCTS = (
    ("(u + v)", "(u' + v')", "(u v' + q)", "(u + v + q)"),
    ("(u + q v)", "(v + u')", "(q u' + v)", "(u' + v' + 1)"),
    ("(u + v)", "(v u' + 1)", "(u v' + q)", "(u' + v')", "(u + v + q)"),
    ("(u + q v)", "(v + u')", "(u' + v')", "(q u' + v)", "(u v' + v u' + q)"),
    ("(u v' + v u' + q)",) * 4,
)
X = "(u v' + v u' + q)"
FINITE_PAIRS = ((101, 3), (13, 5), (7, 6))


def shift_factor(mode, m):
    """f_m = h - [m]_q for m >= 0 and q^n h + [n]_q for m = -n, as a
    coefficient of mode, built from its definition."""
    h, q = mode.h_coeff(), mode.q_coeff()
    s = mode.coeff_field.zero
    for i in range(abs(m)):
        s = s + q ** i
    return h - s if m >= 0 else q ** -m * h + s


def random_shift_product(rng, mode):
    """A seeded product of one to three f_m with -3 <= m <= 3."""
    out = mode.coeff_field.one
    for _ in range(rng.randint(1, 3)):
        out = out * shift_factor(mode, rng.randint(-3, 3))
    return out


def random_tree(rng, depth):
    """A seeded expression tree of products and differences of generators,
    q and 1."""
    if depth == 0:
        return rng.choice([U, V, UI, VI, Q, ONE])
    kind = rng.randrange(3)
    if kind == 0:
        return mul(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 1:
        return sub(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    return random_tree(rng, depth - 1)


def at_q1(expr):
    """expr with every q replaced by 1."""
    if expr == Q:
        return ONE
    if isinstance(expr, Neg):
        return Neg(at_q1(expr.term))
    if isinstance(expr, Add):
        return Add(tuple(map(at_q1, expr.terms)))
    if isinstance(expr, Mul):
        return Mul(tuple(map(at_q1, expr.factors)))
    return expr


def vanishes_at_q1(expr):
    """The q = 1 rule of ``run_identity_suite`` on one expression."""
    return _survives_q1(evaluate(expr, SYM)).is_zero()


def sample_pairs(trials, rng):
    """Random (p, q) pairs with q and 1 - q invertible mod p."""
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    pairs = []
    for _ in range(trials):
        p = rng.choice(primes)
        pairs.append((p, rng.randrange(2, p)))
    return pairs


def injectivity_spot_check(max_degree, oracle=None):
    """Images of u^m v^n for m, n <= max_degree, in the engine or in the
    oracle, are one-term normal forms with pairwise distinct
    (h-degree, x-degree) signatures."""
    if oracle is None:
        def normal_form(word):
            return evaluate(word, SYM).terms

        degree = h_degree
    else:
        def normal_form(word):
            return oracle.evaluate(word)

        def degree(poly):
            return poly.degree or 0
    seen = set()
    for m in range(max_degree + 1):
        for n in range(max_degree + 1):
            terms = normal_form(mul(*[U] * m + [V] * n) if m + n else ONE)
            if len(terms) != 1:
                return False
            exp, coeff = next(iter(terms.items()))
            hdeg = degree(coeff.num) - degree(coeff.den)
            if exp != n - m or hdeg != m or (hdeg, exp) in seen:
                return False
            seen.add((hdeg, exp))
    return True


def h_degree(poly):
    """The h-degree of a term map of Z[q, h], 0 for the zero map."""
    return max((b for _, b in poly), default=0)


def seeded_product(rng, factors):
    """One weyl-verify left side: the factors in seeded order, with u v
    placed at a seeded position."""
    factors = list(factors)
    rng.shuffle(factors)
    at = rng.randint(0, len(factors))
    return " ".join(factors[:at] + ["(u v)"] + factors[at:])


class TestSigma:
    def test_forward(self):
        h = SYM.h_coeff()
        q = SYM.q_coeff()
        assert sigma_apply(h, 1, SYM) == (h - 1) / q

    def test_inverse_substitution(self):
        h = SYM.h_coeff()
        q = SYM.q_coeff()
        assert sigma_apply(h, -1, SYM) == q * h + 1

    def test_roundtrip_random(self):
        rng = random.Random(5)
        h = SYM.h_coeff()
        q = SYM.q_coeff()
        for _ in range(18):
            f = ((h ** rng.randrange(3)) * rng.randrange(1, 4)
                 + q / random_shift_product(rng, SYM))
            for k in (1, 2, 3):
                assert sigma_apply(sigma_apply(f, k, SYM), -k, SYM) == f

    def test_power_composition(self):
        h = SYM.h_coeff()
        assert sigma_apply(h, 2, SYM) == sigma_apply(sigma_apply(h, 1, SYM), 1, SYM)

    def test_shift_factors_shift(self):
        # sigma^k(f_m) = q^t f_(m+k) with t = max(m, 0) - max(m + k, 0)
        q = SYM.q_coeff()
        for m in range(-4, 5):
            for k in range(-3, 4):
                t = max(m, 0) - max(m + k, 0)
                assert sigma_apply(shift_factor(SYM, m), k, SYM) == \
                    q ** t * shift_factor(SYM, m + k), (m, k)

    def test_finite_mode_is_symbolic_mode_reduced(self):
        # sigma^k commutes with q := q0 followed by reduction mod p; the
        # oracle twists by its own substitution
        rng = random.Random(29)
        checked = 0
        for p, q0 in FINITE_PAIRS:
            oracle = FixedQWeyl(p, q0)
            for _ in range(8):
                f = SYM.coeff_field(_random_biv(rng)) / random_shift_product(rng, SYM)
                for k in (1, 2, 3, -1, -2, -3):
                    want = oracle.reduce(sigma_apply(f, k, SYM))
                    assert oracle.sigma(oracle.reduce(f), k) == want, (f, k, oracle)
                    checked += 1
        assert checked >= 120


def _random_biv(rng):
    """A seeded term map of Z[q, h] with q- and h-degree at most 2; the
    coefficient field drops its zero coefficients."""
    return {(a, b): rng.randint(-3, 3) for a in range(3) for b in range(3)
            if rng.random() < 0.5}


class TestSkewArithmetic:
    def test_twist_rule(self):
        x = SYM.skew({1: SYM.coeff_field.one})
        h = SYM.skew_scalar(SYM.h_coeff())
        expected = SYM.skew({1: (SYM.h_coeff() - 1) / SYM.q_coeff()})
        assert skew_mul(x, h) == expected

    def test_defining_commutator(self):
        # (h x^-1) x - q x (h x^-1) = 1
        hx = SYM.skew({-1: SYM.h_coeff()})
        x = SYM.skew({1: SYM.coeff_field.one})
        qx = SYM.skew({1: SYM.q_coeff()})
        lhs = skew_mul(hx, x) - skew_mul(qx, hx)
        assert lhs.is_one()

    def test_multiplicative_identity(self):
        a = SYM.skew({-2: SYM.h_coeff(), 3: SYM.q_coeff()})
        assert skew_mul(a, SYM.one) == a
        assert skew_mul(SYM.one, a) == a


class TestEvaluate:
    def test_inverse_pairs(self):
        oracle = FixedQWeyl(5, 2)
        for g, gi in ((U, UI), (V, VI)):
            for word in (mul(g, gi), mul(gi, g)):
                assert evaluate(word, SYM).is_one()
                assert oracle.evaluate(word) == {0: oracle.field.one}

    def test_defining_relation(self):
        rel = sub(sub(mul(U, V), mul(Q, V, U)), ONE)
        assert evaluate(rel, SYM).is_zero()
        assert not FixedQWeyl(13, 4).evaluate(rel)

    def test_monomial_normal_form(self):
        img = evaluate(mul(U, U, V, V, V), SYM)
        assert set(img.terms) == {1}
        c = img.terms[1]
        assert h_degree(c.num) == 2 and h_degree(c.den) == 0

    def test_homomorphism_on_random_trees(self):
        rng = random.Random(17)
        for _ in range(10):
            e1, e2 = random_tree(rng, 2), random_tree(rng, 2)
            assert evaluate(mul(e1, e2), SYM) == skew_mul(evaluate(e1, SYM),
                                                          evaluate(e2, SYM))
            assert evaluate(sub(e1, e2), SYM) == evaluate(e1, SYM) - evaluate(e2, SYM)


class TestIdentities:
    def test_suite_symbolic(self):
        for res in run_identity_suite(SYM):
            assert res.ok, f"{res.name}: {res.witness}"

    def test_suite_finite_samples(self):
        # every entry in the oracle, flat-only ones at q = 1
        rng = random.Random(2024)
        for p, q0 in sample_pairs(20, rng):
            for name, _d, lhs, rhs, flat_only in IDENTITY_SUITE:
                oracle = FixedQWeyl(p, 1 if flat_only else q0)
                assert not oracle.evaluate(sub(lhs, rhs)), (name, oracle)

    def test_witness_on_failure(self, monkeypatch):
        res = verify_identity(mul(U, V), mul(V, U), SYM, "noncommutativity")
        assert not res.ok
        assert res.witness is not None
        # a flat-only entry that fails at q = 1 reports a witness too
        entry = ("noncommutativity", "u v = v u at q = 1", mul(U, V), mul(V, U), True)
        monkeypatch.setattr(weyl, "IDENTITY_SUITE", (entry,))
        (res,) = run_identity_suite(SYM)
        assert not res.ok
        assert res.witness is not None

    def test_flat_words_disagree_off_q1(self):
        # flat-c-words is decided by the q = 1 rule alone
        name, _d, lhs, rhs, _f = IDENTITY_SUITE[-1]
        assert not verify_identity(lhs, rhs, SYM, name).ok
        assert FixedQWeyl(7, 3).evaluate(sub(lhs, rhs))
        assert vanishes_at_q1(sub(lhs, rhs))

    def test_coefficient_degree_bound(self):
        for _name, _d, lhs, rhs, _f in IDENTITY_SUITE:
            for side in (lhs, rhs):
                assert evaluate(side, SYM).max_coeff_degree() < 64


class TestModeGuards:
    def test_one_shared_engine(self):
        assert EngineMode.symbolic() is SYM

    def test_q_one_is_classical(self):
        # at q = 1, the classical algebra, sigma(h) = h - 1: read off the
        # symbolic twist, and in the oracle over Z_7 and over Q
        h = SYM.h_coeff()
        assert _survives_q1(SYM.skew({0: sigma_apply(h, 1, SYM) - (h - 1)})).is_zero()
        assert not _survives_q1(SYM.skew({0: sigma_apply(h, 1, SYM) - h})).is_zero()
        for oracle in (FixedQWeyl(7, 1), FixedQWeyl(None, 1)):
            assert oracle.sigma(oracle.h, 1) == oracle.h - 1


class TestQOne:
    """The q = 1 rule against the oracle at q = 1 over Q."""

    def test_tree_minus_its_q1_form_vanishes(self):
        rng = random.Random(31)
        oracle = FixedQWeyl(None, 1)
        nonzero = 0
        for _ in range(20):
            tree = random_tree(rng, 3)
            diff = sub(tree, at_q1(tree))
            assert vanishes_at_q1(diff), tree
            assert not oracle.evaluate(diff), tree
            nonzero += not evaluate(diff, SYM).is_zero()
        assert nonzero >= 5

    def test_pairs_that_differ_at_q1_are_rejected(self):
        rng = random.Random(37)
        oracle = FixedQWeyl(None, 1)
        assert not vanishes_at_q1(sub(mul(U, V), mul(V, U)))
        differ = 0
        for _ in range(20):
            diff = sub(random_tree(rng, 2), random_tree(rng, 2))
            assert vanishes_at_q1(diff) == (not oracle.evaluate(diff)), diff
            differ += not vanishes_at_q1(diff)
        assert differ >= 5


class TestInjectivity:
    def test_generators_distinct(self):
        assert injectivity_spot_check(1)

    def test_uv_vs_vu(self):
        assert evaluate(mul(U, V), SYM) != evaluate(mul(V, U), SYM)

    def test_full_grid(self):
        assert injectivity_spot_check(4)
        assert injectivity_spot_check(4, FixedQWeyl(11, 7))


class TestParser:
    def test_words(self):
        assert parse_expression("u v") == mul(U, V)
        assert parse_expression("uv") == mul(U, V)
        assert parse_expression("u'v'") == mul(UI, VI)
        assert parse_expression("u^-1 v^-1") == mul(UI, VI)

    def test_scalars_and_parens(self):
        expr = parse_expression("1 - q - u'v'")
        direct = sub(sub(ONE, Q), mul(UI, VI))
        assert evaluate(expr, SYM) == evaluate(direct, SYM)

    def test_powers(self):
        assert evaluate(parse_expression("u^2"), SYM) == evaluate(mul(U, U), SYM)
        assert evaluate(parse_expression("(uv)^2"), SYM) == \
            evaluate(mul(U, V, U, V), SYM)

    def test_power_budget(self):
        assert parse_expression(f"u^{LETTER_BUDGET}") == mul(*[U] * LETTER_BUDGET)
        for text in (f"u^{LETTER_BUDGET + 1}", f"(u v)^{LETTER_BUDGET // 2 + 1}",
                     f"v^-{LETTER_BUDGET + 1}", "((u v)^512 + u)^4", "(u + v)^1024"):
            with pytest.raises(ValueError, match="more than"):
                parse_expression(text)

    def test_nesting_depth(self):
        assert parse_expression("(" * 50 + "u" + ")" * 50) == U
        for text in ("(" * 3000 + "u" + ")" * 3000, "-" * 3000 + "u"):
            with pytest.raises(ValueError, match="nested more than"):
                parse_expression(text)

    def test_negative_group_power_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("(uv)^-1")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_expression("u $ v")

    def test_q1_equality_via_parser(self):
        lhs = parse_expression("u v u' v' u' v u v' u'")
        rhs = parse_expression("q u v u' v' u' v' u' v u")
        assert vanishes_at_q1(sub(lhs, rhs))
        assert not FixedQWeyl(None, 1).evaluate(sub(lhs, rhs))


class TestShiftFactoredCoefficients:
    """The symbolic coefficients against the fixed-q oracle, sympy and their
    own canonical form."""

    @pytest.mark.parametrize("p, q0", FINITE_PAIRS)
    def test_symbolic_reduces_to_finite(self, p, q0):
        rng = random.Random(1000 + p)
        oracle = FixedQWeyl(p, q0)
        exprs = [parse_expression(seeded_product(rng, factors)) for factors in WEYL_PRODUCTS]
        exprs += [random_tree(rng, 3) for _ in range(12)]
        for expr in exprs:
            assert oracle.reduce_element(evaluate(expr, SYM)) == oracle.evaluate(expr), expr

    def test_stored_numerators_are_reduced(self):
        sympy = pytest.importorskip("sympy")
        q, h = sympy.symbols("q h")
        rng = random.Random(7)
        seen = 0
        for factors in WEYL_PRODUCTS:
            for c in evaluate(parse_expression(seeded_product(rng, factors)), SYM).terms.values():
                numer = _sympy(c.numer, q, h)
                assert min(a for a, _ in c.numer) == 0, c
                for m, e in c.shifts.items():
                    assert e > 0
                    f = _sympy(SYM.coeff_field.factor(m), q, h)
                    assert sympy.rem(numer, f, h) != 0, (c, m)
                    seen += 1
        assert seen > 20

    def test_sums_and_products_divide_out_listed_factors(self):
        h, q, one = SYM.h_coeff(), SYM.q_coeff(), {(0, 0): 1}
        f1, fm1 = shift_factor(SYM, 1), shift_factor(SYM, -1)
        assert (h / f1 - 1 / f1).is_one()
        s = q * h / (f1 * fm1) + 1 / (f1 * fm1)
        assert (s.numer, s.qexp, s.shifts) == (one, 0, {1: 1})
        p = (f1 * h / fm1) * (q * fm1 / (f1 * f1))
        assert (p.numer, p.qexp, p.shifts) == ({(0, 1): 1}, 1, {1: 1})

    def test_association_order_stores_identical_triples(self):
        rng = random.Random(11)
        for factors in WEYL_PRODUCTS:
            parts = [evaluate(parse_expression(f), SYM) for f in factors]
            rng.shuffle(parts)
            left = parts[0]
            for part in parts[1:]:
                left = skew_mul(left, part)
            right = parts[-1]
            for part in reversed(parts[:-1]):
                right = skew_mul(part, right)
            assert set(left.terms) == set(right.terms)
            for e, c in left.terms.items():
                d = right.terms[e]
                assert (c.numer, c.qexp, c.shifts) == (d.numer, d.qexp, d.shifts)

    def test_values_agree_with_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        q, h = sympy.symbols("q h")
        rng = random.Random(23)
        coeffs = []
        for factors in WEYL_PRODUCTS[:3]:
            coeffs += evaluate(parse_expression(seeded_product(rng, factors)), SYM).terms.values()
        coeffs = rng.sample(coeffs, 6)

        def value(c):
            return _sympy(c.num, q, h) / _sympy(c.den, q, h)

        def same(c, expr):
            # equal values, and the stored pair is already in lowest terms
            assert sympy.cancel(value(c) - expr) == 0
            n, d = sympy.fraction(sympy.cancel(value(c)))
            assert sympy.expand(n * _sympy(c.den, q, h) - d * _sympy(c.num, q, h)) == 0
            den = sympy.Poly(_sympy(c.den, q, h), q, h)
            assert sympy.Poly(d, q, h).total_degree() == den.total_degree()

        for a, b in zip(coeffs, coeffs[1:]):
            va, vb = value(a), value(b)
            same(a + b, va + vb)
            same(a - b, va - vb)
            same(a * b, va * vb)
            for k in (1, -2):
                z = (h - sum(q ** i for i in range(k))) / q ** k if k > 0 else \
                    q ** -k * h + sum(q ** i for i in range(-k))
                same(sigma_apply(a, k, SYM), va.subs(h, z))
        x = coeffs[0]
        for d in (SYM.q_coeff(), shift_factor(SYM, 1) * shift_factor(SYM, -1),
                  shift_factor(SYM, 0)):
            same(x / d, value(x) / value(d))

    def test_other_denominators_raise(self):
        h, q = SYM.h_coeff(), SYM.q_coeff()
        for den in ({(0, 1): 1, (0, 0): 1}, 2, {(1, 1): 1, (0, 0): -1}):
            with pytest.raises(RingError, match="shift factors"):
                SYM.coeff_field(1, den)
        for divisor in (h + 1, 2 * q, q * h - 1, h * h + 1):
            with pytest.raises(RingError, match="shift factors"):
                h / divisor
        with pytest.raises(ZeroDivisionError):
            h / SYM.coeff_field.zero

    def test_term_map_inputs(self):
        field = SYM.coeff_field
        assert field({(0, 1): 2, (1, 0): 0}) == 2 * SYM.h_coeff()
        assert field({(1, 1): 1}, {(0, 1): 1, (0, 0): -1}).num == {(1, 1): 1}
        for exps in ((-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="negative exponent"):
                field({exps: 1, (0, 0): 1})
            with pytest.raises(ValueError, match="negative exponent"):
                field(1, {exps: 1})
        for bad in (1.5, "h", [(0, 1)]):
            with pytest.raises(TypeError):
                field(bad)
            with pytest.raises(TypeError):
                field(1, bad)
        with pytest.raises(ValueError, match="denominator not allowed"):
            field(SYM.h_coeff(), 2)

    def test_a_distinct_field_object_converts(self):
        field = SYM.coeff_field
        other = type(field)(SYM)
        h = other(SYM.h_coeff())
        assert h.ring is other and other(h) is h
        assert (SYM.h_coeff() + h).ring is field and (h + SYM.h_coeff()).ring is other
        assert h - SYM.h_coeff() == 0 and field(h) == h


class TestCoefficientGrowth:
    """(u v' + v u' + q)^k once took 0.01, 0.17 and 12 s for k = 4, 5, 6
    because sums cross-multiplied denominators that never cancelled.  In
    the shift-factored form the largest numerator or denominator degree
    of its normal form is k(k + 1)."""

    def test_six_factor_product_verifies(self):
        power = " ".join([X] * 6)
        lhs = parse_expression(f"(u v) {power}")
        assert verify_identity(lhs, parse_expression(f"(1 + q v u) {power}"), SYM).ok
        assert not verify_identity(lhs, parse_expression(f"(1 + v u) {power}"), SYM).ok

    def test_eight_factor_power_evaluates(self):
        value = evaluate(parse_expression(f"{X}^8"), SYM)
        assert value.max_coeff_degree() == 8 * 9
        assert evaluate(parse_expression(f"{X}^6"), SYM).max_coeff_degree() == 6 * 7
        oracle = FixedQWeyl(101, 3)
        fin = oracle.evaluate(parse_expression(f"{X}^8"))
        assert set(value.terms) == set(fin)
        assert oracle.reduce_element(value) == fin


def _numerator_terms(value):
    return sum(len(c.numer) for c in value.terms.values())


class TestEvaluationBudget:
    """Products are refused before a factor whose numerator terms times
    those of the partial product exceed NUMERATOR_WORK_BUDGET, and once the
    partial product stores more than NUMERATOR_TERM_BUDGET numerator terms.
    Each of these inputs once ran for seconds to minutes; the two
    (u^k + v^k)^2 passed the term budget alone and were refused only after
    about 1.5 and 3 s.  Each is refused within 0.1 s on a 2-core x86-64
    container; the bound below leaves room for a loaded host."""

    @pytest.mark.parametrize("text", [
        "u^40", "u^200", "(u^10 + v^10)^4", "(u' + v')^16", "(u' + v')^20",
        "(u + v)^512", "(u' + v' + q u' v' + 1)^9", "(u' + q v' + 1)^12",
        "(u^15 + v^15)^2", "(u^17 + v^17)^2"])
    def test_runaway_products_raise_fast(self, text):
        expr = parse_expression(text)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="numerator term"):
            evaluate(expr, SYM)
        assert time.perf_counter() - start < 0.5

    def test_work_budget_both_sides(self, monkeypatch):
        # (u^8 + v^8)^2 multiplies 121 x 121 numerator terms and passes;
        # (u^10 + v^10)^2, 251 x 251, is refused before its one skew_mul
        # of the two bases
        assert 121 ** 2 <= NUMERATOR_WORK_BUDGET < 251 ** 2
        square = evaluate(parse_expression("(u^8 + v^8)^2"), SYM)
        base = evaluate(parse_expression("u^8 + v^8"), SYM)
        assert square == skew_mul(base, base)
        pairs = []
        monkeypatch.setattr(weyl, "skew_mul", lambda a, b: pairs.append(
            _numerator_terms(a) * _numerator_terms(b)) or skew_mul(a, b))
        with pytest.raises(ValueError, match=f"63001 numerator term pairs, more "
                                             f"than {NUMERATOR_WORK_BUDGET}"):
            evaluate(parse_expression("(u^10 + v^10)^2"), SYM)
        assert pairs and max(pairs) <= NUMERATOR_WORK_BUDGET

    def test_boundary(self):
        assert _numerator_terms(evaluate(parse_expression(f"{X}^8"), SYM)) == 705
        # u^k for the largest k within the budget passes, u^(k + 1) not
        u = evaluate(U, SYM)
        acc, k = u, 1
        while _numerator_terms(skew_mul(acc, u)) <= NUMERATOR_TERM_BUDGET:
            acc, k = skew_mul(acc, u), k + 1
        assert evaluate(parse_expression(f"u^{k}"), SYM) == acc
        with pytest.raises(ValueError, match="numerator terms"):
            evaluate(parse_expression(f"1 + u^{k + 1}"), SYM)


def _sympy(poly, q, h):
    """An element of Z[q, h] as a sympy expression."""
    return sum((c * q ** a * h ** b for (a, b), c in poly.items()), 0 * q)
