"""Polynomial and Laurent polynomial text, parsed into ``weylknots.rings``.

``PolynomialRing(F, var)("2y^3 + y + 1")`` and ``LaurentRing(...)("y + 1/y")``
come here.  The text forms are the ones ``repr`` prints, so every ring
element round-trips.  Each exponent is bounded by ``LETTER_BUDGET``, as a
polynomial stores one coefficient per degree.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import LETTER_BUDGET

_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?|\(\d+/\d+\))?\s*\*?\s*"
    r"(?:(?P<var>[A-Za-zλ_][A-Za-z0-9_]*)\s*(?:\^\s*(?P<exp>-?\d+))?)?\s*"
    r"(?:/\s*(?P<over>[A-Za-zλ_][A-Za-z0-9_]*)\s*(?:\^\s*(?P<k>\d+))?\s*)?"
)


def _parse_terms(text: str, ring):
    """Parse `2y^3 + y + 1`-style text in ring's indeterminate into
    {exponent: coefficient sum}, unreduced, for ``from_raw``.  A fraction
    multiplying the indeterminate may be parenthesized, as ``repr`` prints
    it: `(1/2)y`.  A term may be divided by a power of the indeterminate, as
    in `2y/y^3`.  Each coefficient goes through the field's own conversion;
    a denominator that is zero there raises ValueError naming the term."""
    field = ring.field
    pos = 0
    terms: dict[int, object] = {}
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
        pos = m.end()
        if m.group("sign") is None and m.start() != 0:
            raise ValueError(f"missing +/- before {text[m.start():]!r}")
        try:
            coeff = field(Fraction((m.group("coeff") or "1").strip("()"))).value
        except ZeroDivisionError:
            raise ValueError(f"zero denominator over {field} in the term "
                             f"{m.group(0).strip()!r}") from None
        if m.group("sign") == "-":
            coeff = -coeff
        exp = 0
        for var, group, sign in (("var", "exp", 1), ("over", "k", -1)):
            if m.group(var) is None:
                continue
            if m.group(var) != ring.var:
                raise ValueError(f"expected indeterminate {ring.var!r}, "
                                 f"got {m.group(var)!r}")
            k = int(m.group(group) or 1)
            if abs(k) > LETTER_BUDGET:
                raise ValueError(f"exponent above {LETTER_BUDGET} in the term "
                                 f"{m.group(0).strip()!r}")
            exp += sign * k
        terms[exp] = terms.get(exp, 0) + coeff
    return terms


def _terms_poly(terms, ring, low: int):
    """sum of c * var^(e - low) over the parsed {e: c}, e >= low."""
    coeffs = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        coeffs[e - low] = c
    return ring.from_raw(coeffs)


def parse_polynomial(text: str, ring):
    """The element of the ``PolynomialRing`` ring that text spells."""
    terms = _parse_terms(text, ring)
    if any(e < 0 for e in terms):
        raise ValueError(f"negative exponent in plain polynomial: {text!r}")
    return _terms_poly(terms, ring, 0)


def parse_laurent(text: str, ring):
    """A sum of terms, each divided by at most one power of the
    indeterminate (`y + 2 + 1/y^2`), or one parenthesized polynomial over
    such a power (`(y^2 + 1)/y^3`, whose fractions may be parenthesized
    as in `((1/2)y + 3)/y`); any other text raises ValueError."""
    m = re.fullmatch(r"\s*\((?P<num>(?:[^()]|\(\d+/\d+\))*)\)\s*/\s*"
                     r"(?P<var>[A-Za-zλ_][A-Za-z0-9_]*)(?:\s*\^\s*(?P<k>\d+))?\s*", text)
    if m:
        if m.group("var") != ring.var:
            raise ValueError(f"expected indeterminate {ring.var!r} in {text!r}")
        k = int(m.group("k") or 1)
        if k > LETTER_BUDGET:
            raise ValueError(f"exponent above {LETTER_BUDGET} in the term "
                             f"'/{m.group('var')}^{k}'")
        return ring.from_poly(parse_polynomial(m.group("num"), ring.poly_ring), -k)
    terms = _parse_terms(text, ring)
    low = min(terms)
    return ring.from_poly(_terms_poly(terms, ring.poly_ring, low), low)
