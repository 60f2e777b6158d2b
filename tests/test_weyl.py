import random

import pytest

from weylknots.rings import LETTER_BUDGET, RingError
from weylknots.weyl import (
    IDENTITY_SUITE,
    ONE,
    Q,
    U,
    UI,
    V,
    VI,
    EngineMode,
    evaluate,
    injectivity_spot_check,
    mul,
    parse_expression,
    run_identity_suite,
    sample_finite_modes,
    sigma_apply,
    skew_mul,
    sub,
    verify_identity,
)

SYM = EngineMode.symbolic()


def coeff(mode, text_num, text_den="1"):
    # small helper for hand-built q,h fractions in symbolic mode
    ring = mode.domain
    def parse(t):
        out = ring.zero
        for part in t.split("+"):
            part = part.strip()
            eq = part.count("q")
            eh = part.count("h")
            c = part.replace("q", "").replace("h", "").replace("*", "").strip()
            out = out + ring.monomial(eq, eh, int(c) if c and c != "-" else (-1 if c == "-" else 1))
        return out
    return mode.coeff_field(parse(text_num), parse(text_den))


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
        for mode in [SYM, EngineMode.finite(7, 3), EngineMode.finite(11, 5)]:
            h = mode.h_coeff()
            q = mode.q_coeff()
            for _ in range(6):
                f = (h ** rng.randrange(3)) * rng.randrange(1, 4) + q / (h + rng.randrange(1, 3))
                for k in (1, 2, 3):
                    assert sigma_apply(sigma_apply(f, k, mode), -k, mode) == f

    def test_power_composition(self):
        h = SYM.h_coeff()
        assert sigma_apply(h, 2, SYM) == sigma_apply(sigma_apply(h, 1, SYM), 1, SYM)

    def test_finite_mode_is_symbolic_mode_reduced(self):
        # sigma^k commutes with q := q0 followed by reduction mod p
        rng = random.Random(29)
        checked = 0
        for p, q0 in ((101, 3), (13, 5), (7, 6)):
            mode = EngineMode.finite(p, q0)
            for _ in range(8):
                f = SYM.coeff_field(_random_biv(rng), _random_biv(rng) + SYM.domain.one)
                if _reduce(f.den, mode).is_zero():
                    continue
                for k in (1, 2, 3, -1, -2, -3):
                    image = sigma_apply(f, k, SYM)
                    den = _reduce(image.den, mode)
                    assert not den.is_zero()
                    want = mode.coeff_field(_reduce(image.num, mode), den)
                    reduced = mode.coeff_field(_reduce(f.num, mode), _reduce(f.den, mode))
                    assert sigma_apply(reduced, k, mode) == want, (f, k, mode)
                    checked += 1
        assert checked >= 120


def _random_biv(rng):
    """A seeded element of Z[q, h] with q- and h-degree at most 2."""
    return SYM.domain({(a, b): rng.randint(-3, 3) for a in range(3) for b in range(3)
                       if rng.random() < 0.5})


def _reduce(poly, mode):
    """An element of Z[q, h] with q := mode.q_int, as an element of Z_p[h]."""
    coeffs = {}
    for (a, b), c in poly.terms.items():
        coeffs[b] = coeffs.get(b, 0) + c * pow(mode.q_int, a, mode.p)
    top = max(coeffs, default=-1)
    return mode.domain([coeffs.get(b, 0) % mode.p for b in range(top + 1)])


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
        for mode in [SYM, EngineMode.finite(5, 2)]:
            for g, gi in ((U, UI), (V, VI)):
                assert evaluate(mul(g, gi), mode).is_one()
                assert evaluate(mul(gi, g), mode).is_one()

    def test_defining_relation(self):
        for mode in [SYM, EngineMode.finite(13, 4)]:
            rel = sub(sub(mul(U, V), mul(Q, V, U)), ONE)
            assert evaluate(rel, mode).is_zero()

    def test_monomial_normal_form(self):
        img = evaluate(mul(U, U, V, V, V), SYM)
        assert set(img.terms) == {1}
        c = img.terms[1]
        assert c.num.degree_in(1) == 2 and (c.den.degree_in(1) or 0) == 0

    def test_homomorphism_on_random_trees(self):
        rng = random.Random(17)
        atoms = [U, V, UI, VI, Q, ONE]
        def tree(depth):
            if depth == 0:
                return rng.choice(atoms)
            kind = rng.randrange(3)
            if kind == 0:
                return mul(tree(depth - 1), tree(depth - 1))
            if kind == 1:
                return sub(tree(depth - 1), tree(depth - 1))
            return tree(depth - 1)
        mode = EngineMode.finite(11, 3)
        for _ in range(10):
            e1, e2 = tree(2), tree(2)
            assert evaluate(mul(e1, e2), mode) == skew_mul(evaluate(e1, mode),
                                                           evaluate(e2, mode))
            assert evaluate(sub(e1, e2), mode) == \
                evaluate(e1, mode) - evaluate(e2, mode)


class TestIdentities:
    def test_suite_symbolic(self):
        for res in run_identity_suite(SYM):
            assert res.ok, f"{res.name}: {res.witness}"

    def test_suite_finite_samples(self):
        rng = random.Random(2024)
        for mode in sample_finite_modes(20, rng):
            for res in run_identity_suite(mode):
                assert res.ok, f"{res.name} in {mode}: {res.witness}"

    def test_witness_on_failure(self):
        for mode in (SYM, EngineMode.finite(None, 1)):
            res = verify_identity(mul(U, V), mul(V, U), mode, "noncommutativity")
            assert not res.ok
            assert res.witness is not None

    def test_flat_words_disagree_off_q1(self):
        name, _d, lhs, rhs, _f = IDENTITY_SUITE[-1]
        res = verify_identity(lhs, rhs, EngineMode.finite(7, 3), name)
        assert not res.ok

    def test_coefficient_degree_bound(self):
        for _name, _d, lhs, rhs, _f in IDENTITY_SUITE:
            for side in (lhs, rhs):
                assert evaluate(side, SYM).max_coeff_degree() < 64


class TestModeGuards:
    def test_q_zero_rejected(self):
        for p in (7, None):
            with pytest.raises(ValueError, match="q must be invertible"):
                EngineMode.finite(p, 0)

    def test_q_one_is_classical(self):
        # q = 1 over Z_7 and over Q is the classical algebra: sigma(h) = h - 1
        for mode in (EngineMode.finite(7, 1), EngineMode.finite(None, 1)):
            h = mode.h_coeff()
            assert mode.q_int == 1
            assert sigma_apply(h, 1, mode) == h - 1


class TestInjectivity:
    def test_generators_distinct(self):
        assert injectivity_spot_check(1, SYM)

    def test_uv_vs_vu(self):
        assert evaluate(mul(U, V), SYM) != evaluate(mul(V, U), SYM)

    def test_full_grid(self):
        assert injectivity_spot_check(4, SYM)
        assert injectivity_spot_check(4, EngineMode.finite(11, 7))

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            injectivity_spot_check(7, SYM)


class TestParser:
    def test_words(self):
        assert parse_expression("u v") == mul(U, V)
        assert parse_expression("uv") == mul(U, V)
        assert parse_expression("u'v'") == mul(UI, VI)
        assert parse_expression("u^-1 v^-1") == mul(UI, VI)

    def test_scalars_and_parens(self):
        expr = parse_expression("1 - q - u'v'")
        mode = EngineMode.finite(5, 3)
        direct = sub(sub(ONE, Q), mul(UI, VI))
        assert evaluate(expr, mode) == evaluate(direct, mode)

    def test_powers(self):
        assert evaluate(parse_expression("u^2"), SYM) == evaluate(mul(U, U), SYM)
        assert evaluate(parse_expression("(uv)^2"), SYM) == \
            evaluate(mul(U, V, U, V), SYM)

    def test_power_budget(self):
        assert parse_expression(f"u^{LETTER_BUDGET}") == mul(*[U] * LETTER_BUDGET)
        for text in (f"u^{LETTER_BUDGET + 1}", f"(u v)^{LETTER_BUDGET // 2 + 1}",
                     f"v^-{LETTER_BUDGET + 1}"):
            with pytest.raises(ValueError, match="more than"):
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
        assert verify_identity(lhs, rhs, EngineMode.finite(None, 1)).ok
