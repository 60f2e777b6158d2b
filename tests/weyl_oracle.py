"""An independent evaluator of Weyl-algebra expressions at a fixed q.

``FixedQWeyl(p, q0)`` maps the expression trees of ``weylknots.weyl`` into
the skew Laurent ring over Frac(F[h]), F = Z_p or Q when p is None, with q
the nonzero scalar q0.  It shares only the expression dataclasses with the
library engine: its twist, its twisted product and its walk of the tree are
its own, so reducing the symbolic normal form at q := q0 and comparing
coefficientwise cross-checks every step of the engine.

An element is a dict {i: c_i} of nonzero coefficients of x^i.
"""

from weylknots.rings import QQ, FractionField, PolynomialRing, PrimeField
from weylknots.weyl import Add, Gen, IntScalar, Mul, Neg, QScalar


class FixedQWeyl:
    def __init__(self, p, q0):
        self.p, self.q0 = p, q0
        self.ring = PolynomialRing(QQ if p is None else PrimeField(p), "h")
        self.field = FractionField(self.ring)
        self.q = self.field(q0)
        if self.q.is_zero():
            raise ValueError(f"q0 = {q0} is not invertible")
        self.h = self.field(self.ring.gen)
        one = self.field.one
        self.images = {
            "u": {-1: self.h},
            "v": {1: one},
            "u'": {1: self.q / (self.h - 1)},
            "v'": {-1: one},
        }

    def __repr__(self):
        return f"FixedQWeyl(p={self.p}, q0={self.q0})"

    def sigma(self, c, k):
        """sigma^k(c), by Horner's rule at sigma^k(h) = (h - [k]_q0)/q0^k,
        a linear polynomial of F[h]; [k]_q0 = 1 + q0 + ... + q0^(k-1) for
        k >= 0 and -(q0^-1 + ... + q0^k) for k < 0."""
        if k == 0:
            return c
        q = self.ring.field(self.q0)
        if k > 0:
            bracket = sum((q ** i for i in range(k)), self.ring.field.zero)
        else:
            bracket = -sum((q ** i for i in range(k, 0)), self.ring.field.zero)
        z = self.ring([-bracket / q ** k, q ** -k])
        return self.field(_horner(c.num, z), _horner(c.den, z))

    def mul(self, a, b):
        """(r x^i)(s x^j) = r sigma^i(s) x^(i+j), summed."""
        out = {}
        for i, r in a.items():
            for j, s in b.items():
                c = r * self.sigma(s, i)
                out[i + j] = out[i + j] + c if i + j in out else c
        return {e: c for e, c in out.items() if not c.is_zero()}

    def add(self, a, b, sign=1):
        out = dict(a)
        for e, c in b.items():
            out[e] = out[e] + sign * c if e in out else sign * c
        return {e: c for e, c in out.items() if not c.is_zero()}

    def evaluate(self, expr):
        if isinstance(expr, Gen):
            return self.images[expr.name]
        if isinstance(expr, QScalar):
            return {0: self.q}
        if isinstance(expr, IntScalar):
            c = self.field(expr.n)
            return {} if c.is_zero() else {0: c}
        if isinstance(expr, Neg):
            return self.add({}, self.evaluate(expr.term), -1)
        if isinstance(expr, Add):
            out = {}
            for t in expr.terms:
                out = self.add(out, self.evaluate(t))
            return out
        if isinstance(expr, Mul):
            out = {0: self.field.one}
            for f in expr.factors:
                out = self.mul(out, self.evaluate(f))
            return out
        raise TypeError(f"not an algebra expression: {expr!r}")

    def specialize(self, poly):
        """A term map {(a, b): c} of Z[q, h] with q := q0, as an element of
        F[h]."""
        q = self.ring.field(self.q0)
        coeffs = {}
        for (a, b), c in poly.items():
            coeffs[b] = coeffs.get(b, 0) + q ** a * c
        top = max(coeffs, default=-1)
        return self.ring([coeffs.get(b, 0) for b in range(top + 1)])

    def reduce(self, coeff):
        """A symbolic coefficient with q := q0, as an element of Frac(F[h]);
        q0 and every shift factor stay invertible there."""
        return self.field(self.specialize(coeff.num), self.specialize(coeff.den))

    def reduce_element(self, value):
        """A symbolic normal form with q := q0, as an oracle element."""
        out = {e: self.reduce(c) for e, c in value.terms.items()}
        return {e: c for e, c in out.items() if not c.is_zero()}


def _horner(poly, z):
    acc = poly.ring.zero
    for c in reversed(poly.coeffs):
        acc = acc * z + poly.ring.from_raw([c])
    return acc
