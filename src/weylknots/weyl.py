"""Normal-form arithmetic in the quantum Weyl algebra.

The algebra on invertible generators u, v with uv - qvu = 1 embeds
faithfully into a skew Laurent ring: coefficients are rational functions
of q and h, x twists them by the substitution sigma(h) = (h - 1)/q, and the
generators map to

    u  ->  h x^-1          v  ->  x
    u' ->  (q/(h-1)) x     v' ->  x^-1

so every word flattens to a normal form  sum_i  c_i(q, h) x^i.  Two
expressions agree in the algebra exactly when their normal forms agree
coefficientwise, which turns all the identities the rest of the package
relies on into decidable zero-tests.  q is a free parameter, so a verified
identity holds for every q at once.

Every denominator the engine forms is a product of powers of q and of the
shift factors

    f_m = h - [m]_q  (m >= 0)        f_-n = q^n h + [n]_q  (n > 0),

with [n]_q = 1 + q + ... + q^(n-1), so that sigma^k(h) = f_k / q^max(k, 0)
and sigma^k(f_m) = q^t f_(m+k) for an integer t: each f_m is a shift of
h - 1 = f_1 up to a power of q (the Gosper-Petkovsek shift-factored form,
Petkovsek-Wilf-Zeilberger, *A = B*, 1996).  Z[q, h] has no gcd here, so
each coefficient is kept as the triple (num, e, {m: e_m}) of
num q^e / prod f_m^(e_m), with num in Z[q, h] divisible neither by q nor
by a listed f_m (``ShiftFraction``).  An element of Z[q, h] is a plain
term map {(a, b): c} for the terms c q^a h^b, with a, b >= 0 and c a
nonzero int; the zero polynomial is {}.  The f_m are pairwise coprime
irreducibles, so the triple is canonical: equality is structural, and a
product or a sum needs only trial divisions by listed f_m, never a gcd.

The classical algebra is the specialization q = 1, where sigma(h) = h - 1.
There each f_m becomes h - m, which is never zero, so setting q = 1 is a
ring map on every coefficient the engine forms and commutes with every
engine step: an expression vanishes at q = 1 exactly when each stored
numerator of its normal form does (``run_identity_suite``).

``parse_expression`` accepts the text grammar used by the CLI: whitespace
or juxtaposition for products, ``u'`` or ``u^-1`` for inverses, ``q`` for
the ground scalar, integer constants, parentheses, ``+`` and ``-``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .rings import LETTER_BUDGET, RingElement, RingError


class EngineMode:
    """Coefficient context for the skew-Laurent engine: the shift-factored
    fraction field of Z[q, h], and the generator images and sigma pairs,
    each computed on first use.  Use the one shared instance,
    ``EngineMode.symbolic()``."""

    def __init__(self):
        self.coeff_field = ShiftFractionField(self)
        self._images = None
        self._sigma = {}

    @classmethod
    def symbolic(cls) -> EngineMode:
        return _ENGINE

    # coefficient helpers ---------------------------------------------------

    def q_coeff(self) -> ShiftFraction:
        return self.coeff_field({(1, 0): 1})

    def h_coeff(self) -> ShiftFraction:
        return self.coeff_field({(0, 1): 1})

    def sigma_pair(self, k: int):
        """Term maps (z, d) with sigma^k(h) = z/d, computed once per k:
        (f_k, q^k) for k >= 0 and (f_k, 1) for k < 0, where f_k is the
        shift factor h - [k]_q, or q^n h + [n]_q for k = -n, and
        [n]_q = 1 + q + ... + q^(n-1)."""
        pair = self._sigma.get(k)
        if pair is None:
            n = abs(k)
            if k >= 0:
                pair = ({(0, 1): 1, **{(i, 0): -1 for i in range(n)}}, {(n, 0): 1})
            else:
                pair = ({(n, 1): 1, **{(i, 0): 1 for i in range(n)}}, {(0, 0): 1})
            self._sigma[k] = pair
        return pair

    # skew elements ---------------------------------------------------------

    def skew(self, terms: dict) -> SkewLaurentElement:
        pruned = {e: c for e, c in terms.items() if not c.is_zero()}
        return SkewLaurentElement(self, pruned)

    def skew_scalar(self, coeff: ShiftFraction) -> SkewLaurentElement:
        return self.skew({0: coeff})

    @property
    def zero(self):
        return SkewLaurentElement(self, {})

    @property
    def one(self):
        return self.skew_scalar(self.coeff_field.one)

    def images(self) -> dict:
        """Images of u, v, u', v' (u' and v' are two-sided inverses of u and
        v; ``tests/test_weyl.py`` checks this)."""
        if self._images is None:
            q = self.q_coeff()
            h = self.h_coeff()
            self._images = {
                "u": self.skew({-1: h}),
                "v": self.skew({1: self.coeff_field.one}),
                "u'": self.skew({1: q / (h - 1)}),
                "v'": self.skew({-1: self.coeff_field.one}),
            }
        return self._images


# ---------------------------------------------------------------------------
# Z[q, h] as term maps {(a, b): c}
# ---------------------------------------------------------------------------

def _term_map(value):
    """An int or a term map as a term map with no zero coefficient."""
    if isinstance(value, int):
        return {(0, 0): value} if value else {}
    if isinstance(value, dict):
        if any(a < 0 or b < 0 for a, b in value):
            raise ValueError("negative exponent in a polynomial of Z[q,h]")
        return {e: c for e, c in value.items() if c}
    raise TypeError(f"cannot build an element of Z[q,h] from {value!r}")


def _add(x, y, sign=1):
    """x + sign * y, dropping the terms that cancel."""
    out = dict(x)
    for e, c in y.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul(x, y):
    """x * y, dropping the terms that cancel."""
    out: dict = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            e = (a1 + a2, b1 + b2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _poly_str(x):
    """x as text, terms by descending exponents of q then h: 3*q^2*h - 1."""
    if not x:
        return "0"
    out = ""
    for a, b in sorted(x, reverse=True):
        c = x[a, b]
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("q", a), ("h", b)) if e)
        if not body:
            term = str(c)
        elif c in (1, -1):
            term = body if c == 1 else f"-{body}"
        else:
            term = f"{c}*{body}"
        if not out:
            out = term
        else:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


# ---------------------------------------------------------------------------
# the twist sigma(h) = (h - 1)/q and its powers
# ---------------------------------------------------------------------------

def _h_parts(poly):
    """The coefficients c_0, ..., c_top of poly = sum_b c_b h^b, each a term
    map free of h."""
    by_b: dict[int, dict] = {}
    for (a, b), c in poly.items():
        by_b.setdefault(b, {})[(a, 0)] = c
    return [by_b.get(b, {}) for b in range(max(by_b) + 1)]


def _subst_h(poly, z, d):
    """poly, nonzero, with h replaced by z/d and times d^top, by Horner's
    rule; returns (that numerator, top), where top is the h-degree of poly."""
    parts = _h_parts(poly)
    top = len(parts) - 1
    acc = parts[top]
    dp = {(0, 0): 1}
    for b in range(top - 1, -1, -1):
        dp = _mul(dp, d)
        acc = _add(_mul(acc, z), _mul(parts[b], dp))
    return acc, top


def sigma_apply(f, k: int, mode: EngineMode):
    """Apply sigma^k to a coefficient, where sigma(h) = (h-1)/q and
    sigma^-1(h) = qh + 1.  With sigma^k(h) = z/d (see
    ``EngineMode.sigma_pair``) and N the numerator after ``_subst_h``, of
    h-degree b before it, numer q^e / prod f_m^(e_m) maps to
    N q^e / (d^b prod (q^t f_(m+k))^(e_m)) with
    t = max(m, 0) - max(m + k, 0).  Only the power of q dividing N is
    divided out, since sigma^k maps the listed f_m to the listed f_(m+k).
    """
    if f.ring != mode.coeff_field:
        raise RingError(f"{f!r} is not a coefficient of the Weyl engine")
    if k == 0 or f.is_zero():
        return f
    numer, b = _subst_h(f.numer, *mode.sigma_pair(k))
    qexp = f.qexp - k * b if k > 0 else f.qexp
    shifts = {}
    for m, e in f.shifts.items():
        shifts[m + k] = e
        qexp += e * (max(m + k, 0) - max(m, 0))
    numer, v = _strip_q(numer)
    return ShiftFraction(f.ring, numer, qexp + v, shifts)


# ---------------------------------------------------------------------------
# coefficients: Frac(Z[q, h]) in shift-factored form
# ---------------------------------------------------------------------------

class ShiftFractionField:
    """Frac(Z[q, h]) restricted to denominators q^a prod f_m^e: the
    coefficients of the engine (see the module docstring).

    An element is the triple (numer, qexp, shifts) standing for
    numer q^qexp / prod_m f_m^shifts[m]: numer is a term map of Z[q, h]
    divisible neither by q nor by a listed f_m, and each listed exponent is
    positive; zero is ({}, 0, {}).  The triple is canonical, so equality is
    structural.  ``field(num, den=None)`` takes each of num and den as an
    int or a term map.  A denominator or divisor of any other shape
    (2, h + 1) raises ``RingError``; the engine never forms one.  ``num``
    and ``den`` expand the value over Z[q, h] on demand.
    """

    __slots__ = ("mode",)

    def __init__(self, mode):
        self.mode = mode

    def factor(self, m: int):
        """The shift factor f_m as a term map."""
        return self.mode.sigma_pair(m)[0]

    def expand(self, shifts, poly):
        """poly * prod f_m^shifts[m] over Z[q, h]."""
        for m, e in shifts.items():
            for _ in range(e):
                poly = _mul(poly, self.factor(m))
        return poly

    def __call__(self, num, den=None) -> ShiftFraction:
        if isinstance(num, ShiftFraction):
            if den is not None:
                raise ValueError("denominator not allowed with a fraction input")
            if num.ring is not self:
                # every ShiftFractionField is equal, so num moves onto this one
                num = ShiftFraction(self, num.numer, num.qexp, num.shifts)
            return num
        num = _term_map(num)
        sign, qexp, shifts = (1, 0, {}) if den is None else self._factored(_term_map(den))
        if not num:
            return self.zero
        num, v = _strip_q(num if sign > 0 else {e: -c for e, c in num.items()})
        num, shifts = _divide_out(num, shifts, self)
        return ShiftFraction(self, num, v - qexp, shifts)

    def _factored(self, den):
        """(sign, a, shifts) with den = sign q^a prod f_m^shifts[m]."""
        if not den:
            raise ZeroDivisionError(f"zero denominator in {self}")
        rest, a = _strip_q(den)
        span, top = max(a for a, _ in rest), max(b for _, b in rest)
        # f_m has q-degree m - 1 for m >= 2 and n for m = -n, so no other
        # shift factor divides den; each divides it at most top times
        trial = {m: top for m in range(-span, span + 2)}
        rest, left = _divide_out(rest, trial, self)
        if rest not in ({(0, 0): 1}, {(0, 0): -1}):
            raise RingError(f"{_poly_str(den)} is not a power of q times shift factors "
                            "h - [m]_q and q^n h + [n]_q")
        shifts = {m: top - left.get(m, 0) for m in trial if left.get(m, 0) < top}
        return rest[(0, 0)], a, shifts

    @property
    def zero(self):
        return ShiftFraction(self, {}, 0, {})

    @property
    def one(self):
        return ShiftFraction(self, {(0, 0): 1}, 0, {})

    def __eq__(self, other):
        return other is self or isinstance(other, ShiftFractionField)

    def __hash__(self):
        return hash("ShiftFractionField")

    def __repr__(self):
        return "Frac(Z[q,h])"


def _times_q(poly, k: int):
    """poly * q^k for k >= 0."""
    if not k:
        return poly
    return {(a + k, b): c for (a, b), c in poly.items()}


def _strip_q(poly):
    """(poly / q^v, v) for the largest v with q^v dividing poly, nonzero."""
    v = min(a for a, _ in poly)
    if not v:
        return poly, 0
    return {(a - v, b): c for (a, b), c in poly.items()}, v


def _divide_out(numer, shifts, field):
    """(numer / prod f_m^k_m, {m: shifts[m] - k_m}), each k_m as large as
    shifts[m] and the divisibility of numer allow; exponents that reach 0
    are dropped from the returned map, a new dict."""
    left = {}
    for m, e in shifts.items():
        while e:
            quot = _shift_quotient(numer, m, field)
            if quot is None:
                break
            numer, e = quot, e - 1
        if e:
            left[m] = e
    return numer, left


def _shift_quotient(numer, m: int, field):
    """numer / f_m if f_m divides numer, else None: one synthetic division
    by f_m = q^n h + beta(q), from the top h-degree down."""
    rows: dict[int, dict] = {}
    for (a, b), c in numer.items():
        rows.setdefault(b, {})[a] = c
    top = max(rows)
    if not top:
        return None
    n, beta = 0, {}
    for (a, b), c in field.factor(m).items():
        if b:
            n = a
        else:
            beta[a] = c
    quot = {}
    r = rows[top]
    for j in range(top, 0, -1):
        # the quotient's h^(j-1) row is r / q^n; the next r is the h^(j-1)
        # row of numer less beta times it
        if n and r:
            if min(r) < n:
                return None
            r = {a - n: c for a, c in r.items()}
        nxt = dict(rows.get(j - 1, ()))
        for a, c in r.items():
            quot[(a, j - 1)] = c
            for a2, c2 in beta.items():
                s = nxt.get(a + a2, 0) - c * c2
                if s:
                    nxt[a + a2] = s
                else:
                    del nxt[a + a2]
        r = nxt
    return None if r else quot


class ShiftFraction(RingElement):
    """numer q^qexp / prod f_m^shifts[m] in the canonical form of
    ``ShiftFractionField``; equality is structural."""

    __slots__ = ("ring", "numer", "qexp", "shifts")
    _lifts = (int,)

    def __init__(self, ring, numer, qexp, shifts):
        self.ring = ring
        self.numer = numer
        self.qexp = qexp
        self.shifts = shifts

    @property
    def num(self):
        """The numerator over Z[q, h], expanded, as a term map."""
        return _times_q(self.numer, max(self.qexp, 0))

    @property
    def den(self):
        """The denominator over Z[q, h], expanded, as a term map."""
        return self.ring.expand(self.shifts, {(max(-self.qexp, 0), 0): 1})

    def is_zero(self):
        return not self.numer

    def is_one(self):
        return self.qexp == 0 and not self.shifts and self.numer == {(0, 0): 1}

    def _combine(self, other, sign):
        # self + sign * other, both nonzero, over the least common denominator
        qexp = min(self.qexp, other.qexp)
        shifts = dict(self.shifts)
        for m, e in other.shifts.items():
            if e > shifts.get(m, 0):
                shifts[m] = e
        numer = _add(self._lifted(qexp, shifts), other._lifted(qexp, shifts), sign)
        if not numer:
            return self.ring.zero
        numer, v = _strip_q(numer)
        # Where one operand lists f_m with the lesser exponent, f_m divides
        # its lifted numerator and not the other's, so not the sum.
        shared = {m: e for m, e in shifts.items() if self.shifts.get(m) == other.shifts.get(m)}
        numer, left = _divide_out(numer, shared, self.ring)
        for m in shared:
            del shifts[m]
        shifts.update(left)
        return ShiftFraction(self.ring, numer, qexp + v, shifts)

    def _lifted(self, qexp, shifts):
        """numer times q^(self.qexp - qexp) prod f_m^(shifts[m] - self.shifts[m]),
        the numerator of self over the denominator q^-qexp prod f_m^shifts[m]."""
        extra = {m: e - self.shifts.get(m, 0) for m, e in shifts.items()
                 if e != self.shifts.get(m, 0)}
        return _times_q(self.ring.expand(extra, self.numer), self.qexp - qexp)

    def __add__(self, other):
        if other.__class__ is not ShiftFraction or other.ring is not self.ring:
            return self._mixed(operator.add, other)
        if not other.numer:
            return self
        return other if not self.numer else self._combine(other, 1)

    def __sub__(self, other):
        if other.__class__ is not ShiftFraction or other.ring is not self.ring:
            return self._mixed(operator.sub, other)
        if not other.numer:
            return self
        return -other if not self.numer else self._combine(other, -1)

    def __neg__(self):
        return ShiftFraction(self.ring, {e: -c for e, c in self.numer.items()},
                             self.qexp, self.shifts)

    def __mul__(self, other):
        if other.__class__ is not ShiftFraction or other.ring is not self.ring:
            return self._mixed(operator.mul, other)
        if not self.numer or not other.numer:
            return self.ring.zero
        # each numerator cancels against the other operand's shift factors
        a, right = _divide_out(self.numer, other.shifts, self.ring)
        b, shifts = _divide_out(other.numer, self.shifts, self.ring)
        for m, e in right.items():
            shifts[m] = shifts.get(m, 0) + e
        return ShiftFraction(self.ring, _mul(a, b), self.qexp + other.qexp, shifts)

    def inv(self):
        if not self.numer:
            raise ZeroDivisionError(f"inverse of 0 in {self.ring}")
        sign, _, shifts = self.ring._factored(self.numer)
        numer = self.ring.expand(self.shifts, {(0, 0): sign})
        return ShiftFraction(self.ring, numer, -self.qexp, shifts)

    def __truediv__(self, other):
        if other.__class__ is not ShiftFraction or other.ring is not self.ring:
            return self._mixed(operator.truediv, other)
        return self * other.inv()

    def __eq__(self, other):
        if other.__class__ is not ShiftFraction or other.ring is not self.ring:
            return self._mixed(operator.eq, other)
        return (self.qexp == other.qexp and self.shifts == other.shifts
                and self.numer == other.numer)

    __hash__ = None

    def __repr__(self):
        parts = [] if self.qexp >= 0 else ["q" if self.qexp == -1 else f"q^{-self.qexp}"]
        for m in sorted(self.shifts):
            f, e = _poly_str(self.ring.factor(m)), self.shifts[m]
            f = f"({f})" if " " in f else f
            parts.append(f if e == 1 else f"{f}^{e}")
        num = _poly_str(self.num)
        if not parts:
            return num
        num = f"({num})" if " " in num else num
        return f"{num}/{parts[0]}" if len(parts) == 1 else f"{num}/({'*'.join(parts)})"


# ---------------------------------------------------------------------------
# skew Laurent elements
# ---------------------------------------------------------------------------

class SkewLaurentElement:
    """Finite sum of c_i * x^i with twisted multiplication x*r = sigma(r)*x."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode, terms):
        self.mode = mode
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return set(self.terms) == {0} and self.terms[0].is_one()

    def _check(self, other):
        if not isinstance(other, SkewLaurentElement) or other.mode != self.mode:
            raise RingError("mixed engine modes")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return SkewLaurentElement(self.mode, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SkewLaurentElement(self.mode, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        return skew_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, SkewLaurentElement) or other.mode != self.mode:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def leading_witness(self):
        """One nonzero term rendered as text, or None."""
        if not self.terms:
            return None
        e = min(self.terms)
        return f"({self.terms[e]!r}) * x^{e}"

    def max_coeff_degree(self):
        """Largest numerator/denominator total degree over all coefficients."""
        worst = 0
        for c in self.terms.values():
            for part in (c.num, c.den):
                worst = max(worst, max((a + b for a, b in part), default=0))
        return worst

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = repr(self.terms[e])
            if e == 0:
                bits.append(c)
            else:
                xp = "x" if e == 1 else f"x^{e}"
                bits.append(xp if c == "1" else f"({c})*{xp}")
        return " + ".join(bits)


def skew_mul(a: SkewLaurentElement, b: SkewLaurentElement) -> SkewLaurentElement:
    """(r x^i)(s x^j) = r * sigma^i(s) * x^(i+j), summed with zero pruning."""
    a._check(b)
    mode = a.mode
    out: dict = {}
    for i, r in a.terms.items():
        for j, s in b.terms.items():
            c = r * sigma_apply(s, i, mode)
            e = i + j
            acc = out.get(e)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(e, None)
            else:
                out[e] = acc
    return SkewLaurentElement(mode, out)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    name: str  # u, v, u', v'


@dataclass(frozen=True)
class QScalar:
    pass


@dataclass(frozen=True)
class IntScalar:
    n: int


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Neg:
    term: object


U, V = Gen("u"), Gen("v")
UI, VI = Gen("u'"), Gen("v'")
Q = QScalar()
ONE = IntScalar(1)


def mul(*factors):
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    return Mul(tuple(flat)) if len(flat) != 1 else flat[0]


def add(*terms):
    return Add(tuple(terms)) if len(terms) != 1 else terms[0]


def sub(a, b):
    return Add((a, Neg(b)))


# Largest number of stored numerator terms, summed over the coefficients
# of ``evaluate``'s partial product.  The letter budget does not bound the
# cost of a product, and that cost tracks this count: on a 2-core x86-64
# container (u' + v' + q u' v' + 1)^k for k = 7 / 8 / 9 stores 6,769 /
# 14,231 / 27,729 terms in 0.2 / 0.54 / 1.7 s, and u^40 19,800 in 2.6 s.
# The benchmark's weyl-verify products peak at 168 terms and
# (u v' + v u' + q)^8 at 705; each runaway input of the tests is refused
# within about 0.1 s.
NUMERATOR_TERM_BUDGET = 2048

# Largest product of the two operands' stored numerator-term counts that
# ``evaluate`` passes to ``skew_mul``, whose work tracks that product: on
# the same container (u^k + v^k)^2 multiplies 14,641 / 31,684 / 63,001 /
# 857,476 term pairs for k = 8 / 9 / 10 / 15 in 0.02 / 0.05 / 0.09 / 1.5 s
# and stores 1,434 / 2,078 / 2,892 / 10,212 terms.  One step of
# (u v' + v u' + q)^8 multiplies at most 1,257 pairs, of the benchmark's
# products 246.
NUMERATOR_WORK_BUDGET = 16 * NUMERATOR_TERM_BUDGET


def _numerator_terms(value: SkewLaurentElement) -> int:
    return sum(len(c.numer) for c in value.terms.values())


def evaluate(expr, mode: EngineMode) -> SkewLaurentElement:
    """Map an expression tree to its skew-Laurent normal form.  A product
    raises ``ValueError`` before a factor whose numerator terms times those
    of the partial result exceed ``NUMERATOR_WORK_BUDGET``, and once the
    partial result stores more than ``NUMERATOR_TERM_BUDGET``."""
    if isinstance(expr, Gen):
        return mode.images()[expr.name]
    if isinstance(expr, QScalar):
        return mode.skew_scalar(mode.q_coeff())
    if isinstance(expr, IntScalar):
        return mode.skew_scalar(mode.coeff_field(expr.n))
    if isinstance(expr, Neg):
        return -evaluate(expr.term, mode)
    if isinstance(expr, Add):
        acc = mode.zero
        for t in expr.terms:
            acc = acc + evaluate(t, mode)
        return acc
    if isinstance(expr, Mul):
        acc = mode.one
        terms = _numerator_terms(acc)
        for f in expr.factors:
            f = evaluate(f, mode)
            pairs = terms * _numerator_terms(f)
            if pairs > NUMERATOR_WORK_BUDGET:
                raise ValueError(f"product of {pairs} numerator term pairs, more "
                                 f"than {NUMERATOR_WORK_BUDGET}")
            acc = skew_mul(acc, f)
            terms = _numerator_terms(acc)
            if terms > NUMERATOR_TERM_BUDGET:
                raise ValueError("product with more than "
                                 f"{NUMERATOR_TERM_BUDGET} numerator terms")
        return acc
    raise TypeError(f"not an algebra expression: {expr!r}")


_TOKEN_RE = re.compile(r"\s*(?:(?P<gen>[uv]'?)|(?P<q>q)|(?P<int>\d+)"
                       r"|(?P<pow>\^-?\d+)|(?P<op>[+\-()]))")

_INVERSES = {"u": "u'", "v": "v'", "u'": "u", "v'": "v"}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad expression syntax near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("gen"):
            tokens.append(("gen", m.group("gen")))
        elif m.group("q"):
            tokens.append(("q", None))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        elif m.group("pow"):
            tokens.append(("pow", int(m.group("pow")[1:])))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


_NESTING_BUDGET = 100


def _letters(expr) -> int:
    """The letters of an expression tree, generators and scalars alike,
    with each power counted as its expansion."""
    if isinstance(expr, Neg):
        return _letters(expr.term)
    if isinstance(expr, Add):
        return sum(map(_letters, expr.terms))
    if isinstance(expr, Mul):
        return sum(map(_letters, expr.factors))
    return 1


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def nested(self, parse):
        """parse() one level deeper: parentheses and unary minus recurse, so
        their depth is bounded here rather than by Python's stack."""
        if self.depth == _NESTING_BUDGET:
            raise ValueError(f"expression nested more than {_NESTING_BUDGET} deep")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            term = self.parse_term()
            terms.append(term if op == "+" else Neg(term))
        return add(*terms)

    def parse_term(self):
        if self.peek() == ("op", "-"):
            self.next()
            return Neg(self.nested(self.parse_term))
        factors = [self.parse_factor()]
        while True:
            tag, _ = self.peek()
            if tag in ("gen", "q", "int") or self.peek() == ("op", "("):
                factors.append(self.parse_factor())
            else:
                break
        return mul(*factors)

    def parse_factor(self):
        atom = self.parse_atom()
        tag, val = self.peek()
        if tag == "pow":
            self.next()
            if val < 0:
                if not isinstance(atom, Gen):
                    raise ValueError("negative powers only apply to generators")
                atom = Gen(_INVERSES[atom.name])
                val = -val
            if val == 0:
                return ONE
            if _letters(atom) * val > LETTER_BUDGET:
                raise ValueError(f"power of more than {LETTER_BUDGET} letters")
            return mul(*([atom] * val))
        return atom

    def parse_atom(self):
        tag, val = self.next()
        if tag == "gen":
            return Gen(val)
        if tag == "q":
            return Q
        if tag == "int":
            return IntScalar(val)
        if (tag, val) == ("op", "("):
            inner = self.nested(self.parse_expr)
            if self.next() != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return inner
        raise ValueError(f"unexpected token {val!r}")


def parse_expression(text: str):
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ValueError(f"trailing input after expression: {text!r}")
    return expr


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    name: str
    ok: bool
    witness: str | None = None


def verify_identity(lhs, rhs, mode: EngineMode, name: str = "identity") -> VerifyResult:
    """True iff lhs - rhs normalizes to zero termwise; on failure the
    witness is the first surviving term."""
    diff = evaluate(lhs, mode) - evaluate(rhs, mode)
    return VerifyResult(name, diff.is_zero(), diff.leading_witness())


# A = v'u' and B = u; their inverses are uv and u'.
_A = mul(VI, UI)
_AI = mul(U, V)
_B = U
_BI = UI
_C_WORD = mul(Q, U, V, UI, VI, UI, VI, UI, V, U)
_C_FLAT_WORD = mul(U, V, UI, VI, UI, V, U, VI, UI)

IDENTITY_SUITE = (
    ("fundamental",
     "A'B'AB - B'AB = BA'B'A - A with A=v'u', B=u",
     sub(mul(_AI, _BI, _A, _B), mul(_BI, _A, _B)),
     sub(mul(_B, _AI, _BI, _A), _A),
     False),
    ("quantum-exchange",
     "B = BA' - q A'B",
     _B,
     sub(mul(_B, _AI), mul(Q, _AI, _B)),
     False),
    ("closed-form-C",
     "A'B'A(1 - A) equals the q-scaled 9-letter word",
     mul(_AI, _BI, _A, sub(ONE, _A)),
     _C_WORD,
     False),
    ("closed-form-D",
     "1 - A'B'AB = 1 - q - u'v'",
     sub(ONE, mul(_AI, _BI, _A, _B)),
     sub(sub(ONE, Q), mul(UI, VI)),
     False),
    ("hecke-scalar",
     "(1 - A)A'B'AB = q",
     mul(sub(ONE, _A), _AI, _BI, _A, _B),
     Q,
     False),
    ("flat-c-words",
     "the two closed forms of C agree at q = 1",
     _C_FLAT_WORD,
     _C_WORD,
     True),
)


def _survives_q1(diff: SkewLaurentElement) -> SkewLaurentElement:
    """The terms of diff that are nonzero at q = 1.  The denominators
    q^e prod f_m^(e_m) stay nonzero there, as f_m(1, h) = h - m, so a term
    vanishes exactly when its numerator does once its q^a h^b terms are
    summed over a."""
    kept = {}
    for e, c in diff.terms.items():
        at_one: dict[int, int] = {}
        for (_a, b), n in c.numer.items():
            at_one[b] = at_one.get(b, 0) + n
        if any(at_one.values()):
            kept[e] = c
    return SkewLaurentElement(diff.mode, kept)


def run_identity_suite(mode: EngineMode) -> list[VerifyResult]:
    """Run every built-in identity.

    An entry marked flat-only holds only in the classical algebra q = 1
    (the two C-words), so it is decided on the same normal form of
    lhs - rhs by ``_survives_q1``: it holds when every term vanishes at
    q = 1, and its witness is the first term that does not.
    """
    results = []
    for name, _desc, lhs, rhs, flat_only in IDENTITY_SUITE:
        diff = evaluate(lhs, mode) - evaluate(rhs, mode)
        if flat_only:
            diff = _survives_q1(diff)
        results.append(VerifyResult(name, diff.is_zero(), diff.leading_witness()))
    return results


_ENGINE = EngineMode()
