"""Exact scalar, polynomial, Laurent and fraction arithmetic.

Every value is immutable and carries a reference to its ring, so mixed-ring
operations fail loudly instead of coercing.  Ring equality is structural,
so two equal ring objects mix freely.  Every element class, the Weyl
engine's coefficients too, subclasses ``RingElement``.

``ring(x)`` is the one way a value enters a ring.  It builds an element
from ints, strings (parsed by ``weylknots.polytext``), coefficient lists
and the elements of smaller rings, moves an element of an equal ring onto
the ring object itself, and raises ``RingMismatchError`` for an element of
an unequal ring.  Between a Laurent ring and its fraction field it converts
both ways, fractions n / x^k only.  A binary operator whose operand has
the same class and the very same ring object goes straight to the
arithmetic; any other operand of that class, or of a type in the class's
``_lifts``, is converted by ``ring(other)`` in ``RingElement._coerce`` and
the operator runs again.  The reflected operators, ``exact_div`` and
powers are ``RingElement``'s alone, except that polynomials divide exactly
through ``divmod`` and have no / and no negative powers.

Representation conventions:

* Coefficients are plain Python numbers: ints in ``[0, p)`` over
  ``PrimeField(p)``; over ``QQ``, whose ``p`` is 0, ints and
  ``fractions.Fraction`` values in lowest terms.  An integral rational
  built from integers is the int itself (``_rational``), and ``from_raw``
  turns an integral Fraction into its int; the two compare, hash and
  print alike, so this only spares ``Fraction`` arithmetic.  Arithmetic
  on coefficients is Python's own ``+ - *``, zero and one are the ints 0
  and 1, and a coefficient prints by ``str``; the fields supply only
  ``p`` and ``cinv``.
* ``PrimeField(p)`` scalars reduce their value in every constructor and
  operator, so ``is_zero`` and ``is_one`` read the value.
* ``UniPolynomial`` stores an ascending coefficient tuple with a nonzero
  last entry; the zero polynomial is the empty tuple and its ``degree`` is
  the sentinel ``None``.  ``PolynomialRing.from_raw`` is the one
  normalizer of elements: every operator passes it an unreduced list, and
  it reduces mod p and trims the zero top, so equality compares the
  tuples.  Raw values, below, are normalized by ``poly_dot``.
* ``LaurentPolynomial`` is a ``UniPolynomial`` with a nonzero constant term
  plus an integer ``offset`` (the lowest exponent), so the stored pair is
  unique.  Values with negative offset print as ``p(x)/x^k``.
* ``FractionElement`` keeps numerator/denominator over a univariate
  domain F[x], reduced and with a monic denominator, the gcd skipped where
  the answer is known (see ``FractionField``).  That pair is unique, so
  equality compares it.  Fractions have no sum of products: ``linalg``
  adds their products with the ring's own operators.

A product of two polynomials is one integer convolution, ``_convolve``:
over Z_p of the residues, over Q of the coefficients scaled to integers
(``_scaled``).  A sum of products is ``poly_dot``, on raw Laurent values
(offset, coefficient tuple) with zero as (0, ()), the stored pair of a
``LaurentPolynomial``: it adds every product into one integer accumulator
and reduces it mod p, strips it and, over Q, divides it by its one
denominator once.  ``linalg`` runs Laurent matrices on raw values through
it.  Every gcd over Q runs on integers too (``_integer_gcd``); over Z_p it
is the Euclidean algorithm.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class RingError(Exception):
    """Base class for exact-arithmetic failures."""


class RingMismatchError(RingError):
    """Operands belong to different rings."""


class NonUnitError(RingError):
    """Inversion of a non-unit; carries the offending value."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


def _check_ring(ring, value):
    if value.ring != ring:
        raise RingMismatchError(f"{value!r} is not in {ring}")


class RingElement:
    """The operator protocol every element class shares.

    A subclass has a ``ring`` with a ``one``, the tuple ``_lifts`` of the
    other types its ring builds elements from, and its own same-ring
    operators, each of which hands any other operand to ``_mixed``.  The
    coercion, the reflected operators, exact division and powers are built
    on those here."""

    __slots__ = ()
    _lifts = ()

    def _coerce(self, other):
        """other in self's very ring object, built by ``self.ring(other)``
        when it has self's class or a type in ``_lifts`` (the ring raises
        ``RingMismatchError`` for an unequal ring); NotImplemented
        otherwise."""
        if other.__class__ is self.__class__ or isinstance(other, self._lifts):
            return self.ring(other)
        return NotImplemented

    def _mixed(self, op, other):
        """op(self, other) once other is coerced into self's very ring object,
        so that op takes its same-ring path; NotImplemented if other cannot
        be coerced."""
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    # Python reflects an operator only when other is not of self's class, so
    # each coerces other first; + and * commute in every ring here.
    def __radd__(self, other):
        return self._mixed(operator.add, other)

    def __rmul__(self, other):
        return self._mixed(operator.mul, other)

    def __rsub__(self, other):
        return self._mixed(lambda a, b: b - a, other)

    def __rtruediv__(self, other):
        return self._mixed(lambda a, b: b / a, other)

    def exact_div(self, other):
        """self / other; TypeError naming other if it cannot be coerced."""
        result = self.__truediv__(other)
        if result is NotImplemented:
            raise TypeError(f"cannot divide by {other!r}")
        return result

    def __pow__(self, n: int):
        """self^n by square-and-multiply; a negative n inverts self first."""
        base, result = self, self.ring.one
        if n < 0:
            base, n = self.inv(), -n
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


# Most letters a braid word, and most factors a Weyl-algebra product, may
# expand to from its text.  The longest benchmark word has 80 letters and
# whorl(48), the largest word timed so far, has 142; 1024 leaves room above
# both and refuses text such as s1^1000000000 before it is expanded.  It
# bounds each exponent in polynomial and Laurent text too, as a polynomial
# stores one coefficient per degree: q^1000000000 is refused, not allocated.
LETTER_BUDGET = 1024


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class FieldScalar(RingElement):
    """Element of a ``PrimeField`` or of ``QQ``."""

    __slots__ = ("ring", "value")
    _lifts = (int, Fraction)

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def is_zero(self):
        return not self.value

    def is_one(self):
        return self.value == 1

    def is_unit(self):
        return bool(self.value)

    def inv(self):
        return FieldScalar(self.ring, self.ring.cinv(self.value))

    def __add__(self, other):
        if other.__class__ is not FieldScalar or other.ring is not self.ring:
            return self._mixed(operator.add, other)
        p = self.ring.p
        v = self.value + other.value
        return FieldScalar(self.ring, v % p if p else v)

    def __sub__(self, other):
        if other.__class__ is not FieldScalar or other.ring is not self.ring:
            return self._mixed(operator.sub, other)
        p = self.ring.p
        v = self.value - other.value
        return FieldScalar(self.ring, v % p if p else v)

    def __mul__(self, other):
        if other.__class__ is not FieldScalar or other.ring is not self.ring:
            return self._mixed(operator.mul, other)
        p = self.ring.p
        v = self.value * other.value
        return FieldScalar(self.ring, v % p if p else v)

    def __truediv__(self, other):
        if other.__class__ is not FieldScalar or other.ring is not self.ring:
            return self._mixed(operator.truediv, other)
        p = self.ring.p
        v = self.value * self.ring.cinv(other.value)
        return FieldScalar(self.ring, v % p if p else v)

    def __neg__(self):
        p = self.ring.p
        return FieldScalar(self.ring, -self.value % p if p else -self.value)

    def __eq__(self, other):
        if other.__class__ is not FieldScalar or other.ring is not self.ring:
            return self._mixed(operator.eq, other)
        return self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return str(self.value)


class PrimeField:
    """The field Z_p for a machine-word-safe prime p (< 2^31)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not _is_prime(p):
            raise ValueError(f"modulus must be a prime below 2^31, got {p!r}")
        self.p = p

    def __call__(self, value) -> FieldScalar:
        if isinstance(value, FieldScalar):
            if value.ring is not self:
                _check_ring(self, value)
                value = FieldScalar(self, value.value)
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return FieldScalar(self, value.numerator * self.cinv(value.denominator)
                               % self.p)
        if not isinstance(value, int):
            raise TypeError(f"cannot build a Z_{self.p} scalar from {value!r}")
        return FieldScalar(self, value % self.p)

    @property
    def zero(self):
        return FieldScalar(self, 0)

    @property
    def one(self):
        return FieldScalar(self, 1)

    def cinv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in Z_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"Z_{self.p}"


class RationalField:
    """The rationals, exact: a value is an int, or a ``Fraction`` whose
    denominator is not 1 when the field builds it.  ``cinv`` never returns
    a float.  Use the ``QQ`` singleton."""

    __slots__ = ()
    p = 0  # the characteristic, as ``PrimeField.p``

    def __call__(self, value) -> FieldScalar:
        if isinstance(value, FieldScalar):
            if value.ring is not self:
                _check_ring(self, value)
                value = FieldScalar(self, value.value)
            return value
        if isinstance(value, (int, str)):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot build a rational from {value!r}")
        return FieldScalar(self, _rational(value.numerator, value.denominator))

    @property
    def zero(self):
        return FieldScalar(self, 0)

    @property
    def one(self):
        return FieldScalar(self, 1)

    def cinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _rational(a.denominator, a.numerator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def _rational(n, d):
    """n / d over Q for ints n and d != 0: the int quotient when d divides
    n, so that an integer stays an int; a Fraction otherwise."""
    quo, rem = divmod(n, d)
    return Fraction(n, d) if rem else quo


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def _convolve(a, b):
    """The integer convolution of two nonempty int lists, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _mul_raw(field, a, b):
    """The unreduced coefficient list of the product a * b: the convolution
    of the residues over Z_p; over Q the convolution of the operands scaled
    to integers (``_scaled``), each coefficient then divided by the one
    denominator with ``_rational``, so ints stay ints."""
    if not a or not b:
        return []
    if not field.p:
        (ia, da), (ib, db) = _scaled(a), _scaled(b)
        d = da * db
        return [_rational(c, d) for c in _convolve(ia, ib)]
    return _convolve(a, b)


def _scaled(coeffs):
    """A list of rationals as (ints, d): integers over the lcm d of its
    denominators.  A list with no Fraction is its own scaling, (list, 1)."""
    # The lcm argument is a list: unpacking a generator expression here raised
    # the peak memory of the symbolic-switch benchmark by about 4%.
    if Fraction not in map(type, coeffs):
        return list(coeffs), 1
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = math.lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def poly_dot(pairs, field):
    """The sum of a * b over a list of pairs of raw Laurent values over
    field, each an (offset, coefficient tuple) pair with zero as (0, ()),
    as a raw value reduced mod p with no zero at either end.  Every product
    is added into one accumulator at its offset above the least one, which
    is reduced and stripped once, so the factors' coefficients need not be
    reduced.  Over Q each factor is scaled to integers (``_scaled``) and
    the accumulator holds integers over one denominator, divided out once
    per coefficient kept (``_rational``), so an integral one is an int."""
    if not pairs:
        return 0, ()
    p = field.p
    if not p:
        scaled = [((i, *_scaled(a)), (j, *_scaled(b))) for (i, a), (j, b) in pairs]
        den = math.lcm(*[da * db for (_, _, da), (_, _, db) in scaled])
        pairs = [((i, [c * (den // (da * db)) for c in a]), (j, b))
                 for (i, a, da), (j, b, db) in scaled]
    base = min([a[0] + b[0] for a, b in pairs])
    acc = [0] * (max([a[0] + b[0] + len(a[1]) + len(b[1]) for a, b in pairs]) - base - 1)
    for (i, a), (j, b) in pairs:
        for k, x in enumerate(a, i + j - base):
            if x:
                for m, y in enumerate(b, k):
                    acc[m] += x * y
    if p:
        acc = [c % p for c in acc]
    top = len(acc)
    while top and not acc[top - 1]:
        top -= 1
    if not top:
        return 0, ()
    low = _valuation(acc)
    kept = acc[low:top]
    return base + low, tuple(kept if p else [_rational(c, den) for c in kept])


def divmod_raw(field, a, b):
    """Unreduced coefficient lists (quotient, remainder) of a by b.  Over Z_p
    only the quotient digits are reduced, since they drive the loop; the
    remainder is left for ``from_raw``, or for ``poly_dot`` in ``linalg``'s
    Smith step on raw Laurent values."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    p = field.p
    rem = list(a)
    lead_inv = field.cinv(b[-1])
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * lead_inv
        if p:
            c %= p
        quot[k] = c
        if c:
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    del rem[len(b) - 1:]
    return quot, rem


class PolynomialRing:
    """K[var] for K a ``PrimeField`` or ``QQ``."""

    __slots__ = ("field", "var")

    def __init__(self, field, var: str = "x"):
        if not isinstance(field, (PrimeField, RationalField)):
            raise TypeError(f"polynomial coefficients must be Z_p or Q, got {field!r}")
        self.field = field
        self.var = var

    def __call__(self, value) -> UniPolynomial:
        if isinstance(value, UniPolynomial):
            if value.ring is not self:
                _check_ring(self, value)
                value = UniPolynomial(self, value.coeffs)
            return value
        if isinstance(value, str):
            from .polytext import parse_polynomial
            return parse_polynomial(value, self)
        if isinstance(value, (int, Fraction, FieldScalar)):
            value = [value]
        if isinstance(value, (list, tuple)):
            return self.from_raw([self.field(c).value for c in value])
        raise TypeError(f"cannot build a polynomial from {value!r}")

    def from_raw(self, coeffs) -> UniPolynomial:
        """The polynomial of an ascending list of field values (ints over
        Z_p, reduced here; ints and Fractions over Q, an integral Fraction
        turned into its int here), with its zero top trimmed."""
        p = self.field.p
        coeffs = ([c % p for c in coeffs] if p else
                  [c.numerator if c.denominator == 1 else c for c in coeffs])
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return UniPolynomial(self, tuple(coeffs))

    @property
    def zero(self):
        return UniPolynomial(self, ())

    @property
    def one(self):
        return UniPolynomial(self, (1,))

    @property
    def gen(self):
        return UniPolynomial(self, (0, 1))

    def __eq__(self, other):
        return other is self or (isinstance(other, PolynomialRing)
                                 and other.field == self.field and other.var == self.var)

    def __hash__(self):
        return hash(("PolynomialRing", self.field, self.var))

    def __repr__(self):
        return f"{self.field}[{self.var}]"


class UniPolynomial(RingElement):
    """Dense univariate polynomial; the zero polynomial's degree is None."""

    __slots__ = ("ring", "coeffs")
    _lifts = (int, FieldScalar)

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_constant(self):
        return len(self.coeffs) <= 1

    def _combine(self, other, op):
        # op on each coefficient pair, self padded with zeros when shorter;
        # a longer self keeps its top coefficients as they are
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a += (0,) * (len(b) - len(a))
        return self.ring.from_raw([*map(op, a, b), *a[len(b):]])

    def __add__(self, other):
        if other.__class__ is not UniPolynomial or other.ring is not self.ring:
            return self._mixed(operator.add, other)
        return self._combine(other, operator.add)

    def __sub__(self, other):
        if other.__class__ is not UniPolynomial or other.ring is not self.ring:
            return self._mixed(operator.sub, other)
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self.ring.from_raw([-c for c in self.coeffs])

    def __mul__(self, other):
        if other.__class__ is not UniPolynomial or other.ring is not self.ring:
            return self._mixed(operator.mul, other)
        return self.ring.from_raw(_mul_raw(self.ring.field, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        if other.__class__ is not UniPolynomial or other.ring is not self.ring:
            return self._mixed(divmod, other)
        q, r = divmod_raw(self.ring.field, self.coeffs, other.coeffs)
        return self.ring.from_raw(q), self.ring.from_raw(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __rtruediv__(self, other):
        return NotImplemented  # polynomials have no /, so other / self is refused

    def exact_div(self, other):
        qr = self.__divmod__(other)
        if qr is NotImplemented:
            raise TypeError(f"cannot divide by {other!r}")
        q, r = qr
        if not r.is_zero():
            raise RingError(f"inexact polynomial division: {self} by {other}")
        return q

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return super().__pow__(n)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.field.cinv(self.coeffs[-1]))

    def scale(self, scalar):
        if isinstance(scalar, FieldScalar):
            if scalar.ring != self.ring.field:
                raise RingMismatchError(f"{scalar!r} is not in {self.ring.field}")
            scalar = scalar.value
        return self.ring.from_raw([c * scalar for c in self.coeffs])

    def shift(self, k: int):
        """Multiply by var^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"shift by a negative power: {k}")
        if self.is_zero() or k == 0:
            return self
        return UniPolynomial(self.ring, (0,) * k + self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not UniPolynomial or other.ring is not self.ring:
            return self._mixed(operator.eq, other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return _poly_str(self.coeffs, self.ring.var)


def _valuation(coeffs):
    """Index of the first nonzero coefficient: the power of var dividing it."""
    k = 0
    while not coeffs[k]:
        k += 1
    return k


def poly_gcd(a: UniPolynomial, b: UniPolynomial) -> UniPolynomial:
    """Monic gcd; gcd(0, 0) = 0.  Over Z_p the Euclidean algorithm; over Q
    the primitive remainder sequence ``_integer_gcd`` of the operands scaled
    to integers, made monic by dividing each coefficient by the leading one
    (``_rational``)."""
    _check_ring(a.ring, b)
    if a.ring.field.p or not (a.coeffs and b.coeffs):
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()
    g = _integer_gcd(_scaled(a.coeffs)[0], _scaled(b.coeffs)[0])
    return UniPolynomial(a.ring, tuple([_rational(c, g[-1]) for c in g]))


def _primitive(a):
    """A nonzero int list divided by the gcd of its entries, its content."""
    c = math.gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _integer_gcd(a, b):
    """A primitive gcd over Z of two nonzero int lists, up to sign; a
    constant for coprime lists.  This is the primitive remainder sequence
    (Brown, JACM 1971) with no ``Fraction``: each pseudo-division step
    scales the remainder by lc(b) / g and subtracts c / g times b, for c its
    top coefficient and g = gcd(c, lc(b)), and each remainder is divided by
    its content."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        n, lead, r = len(b) - 1, b[-1], list(a)
        while len(r) > n:
            c = r.pop()
            if c:
                g = math.gcd(c, lead)
                m, c, s = lead // g, c // g, len(r) - n
                if m != 1:
                    r = [x * m for x in r]
                for j in range(n):
                    r[s + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        a, b = b, _primitive(r)
    return b


def _poly_str(coeffs, var):
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        cs = str(c)
        if k == 0:
            term = cs
        else:
            vp = var if k == 1 else f"{var}^{k}"
            if cs == "1":
                term = vp
            elif cs == "-1":
                term = f"-{vp}"
            elif "/" in cs:
                # (1/2)y, and -(1/2)y with the sign outside, as parsed back
                term = f"({cs}){vp}".replace("(-", "-(")
            else:
                term = f"{cs}{vp}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentRing:
    """K[var, var^-1] built over a PolynomialRing."""

    __slots__ = ("poly_ring",)

    def __init__(self, poly_ring: PolynomialRing):
        self.poly_ring = poly_ring

    @property
    def field(self):
        return self.poly_ring.field

    @property
    def var(self):
        return self.poly_ring.var

    def __call__(self, value) -> LaurentPolynomial:
        """The Laurent polynomial of an element of this ring, an int, a
        ``Fraction``, a scalar, a polynomial, a coefficient list, text, or
        a fraction n / x^k (``ValueError`` for any other fraction)."""
        if isinstance(value, LaurentPolynomial):
            if value.ring is not self:
                _check_ring(self, value)
                value = LaurentPolynomial(self, self.poly_ring(value.poly), value.offset)
            return value
        if isinstance(value, str):
            from .polytext import parse_laurent
            return parse_laurent(value, self)
        if isinstance(value, FractionElement):
            den = value.den.coeffs
            if any(den[:-1]):
                raise ValueError(f"{value!r} is not a Laurent polynomial")
            return self.from_poly(self.poly_ring(value.num), 1 - len(den))
        if isinstance(value, (int, Fraction, FieldScalar, list, tuple, UniPolynomial)):
            return self.from_poly(self.poly_ring(value))
        raise TypeError(f"cannot build a Laurent polynomial from {value!r}")

    def from_poly(self, poly: UniPolynomial, offset: int = 0) -> LaurentPolynomial:
        if poly.is_zero():
            return LaurentPolynomial(self, poly, 0)
        shift = _valuation(poly.coeffs)
        if shift:
            poly = UniPolynomial(self.poly_ring, poly.coeffs[shift:])
        return LaurentPolynomial(self, poly, offset + shift)

    @property
    def zero(self):
        return LaurentPolynomial(self, self.poly_ring.zero, 0)

    @property
    def one(self):
        return LaurentPolynomial(self, self.poly_ring.one, 0)

    @property
    def gen(self):
        return LaurentPolynomial(self, self.poly_ring.one, 1)

    def monomial(self, k: int, coeff=1):
        c = self.poly_ring(coeff)
        return self.from_poly(c, k)

    def __eq__(self, other):
        return other is self or (isinstance(other, LaurentRing)
                                 and other.poly_ring == self.poly_ring)

    def __hash__(self):
        return hash(("LaurentRing", self.poly_ring))

    def __repr__(self):
        v = self.poly_ring.var
        return f"{self.poly_ring.field}[{v},{v}^-1]"


class LaurentPolynomial(RingElement):
    """poly * var^offset with poly having a nonzero constant term (or zero)."""

    __slots__ = ("ring", "poly", "offset")
    _lifts = (int, FieldScalar, UniPolynomial)

    def __init__(self, ring, poly, offset):
        self.ring = ring
        self.poly = poly
        self.offset = offset

    def is_zero(self):
        return self.poly.is_zero()

    def is_one(self):
        return self.offset == 0 and self.poly.is_one()

    def is_unit(self):
        """Units are c * var^k with c a nonzero scalar."""
        return not self.poly.is_zero() and self.poly.is_constant()

    @property
    def min_exp(self):
        return self.offset

    @property
    def max_exp(self):
        return None if self.poly.is_zero() else self.offset + self.poly.degree

    def _combine(self, other, op):
        # op on the two polynomials shifted to the lesser offset
        if other.is_zero():
            return self
        base = min(self.offset, other.offset)
        return self.ring.from_poly(op(self.poly.shift(self.offset - base),
                                      other.poly.shift(other.offset - base)), base)

    def __add__(self, other):
        if other.__class__ is not LaurentPolynomial or other.ring is not self.ring:
            return self._mixed(operator.add, other)
        return other if self.is_zero() else self._combine(other, operator.add)

    def __sub__(self, other):
        if other.__class__ is not LaurentPolynomial or other.ring is not self.ring:
            return self._mixed(operator.sub, other)
        return self._combine(other, operator.sub)

    def __neg__(self):
        return LaurentPolynomial(self.ring, -self.poly, self.offset)

    def __mul__(self, other):
        if other.__class__ is not LaurentPolynomial or other.ring is not self.ring:
            return self._mixed(operator.mul, other)
        return self.ring.from_poly(self.poly * other.poly, self.offset + other.offset)

    def __truediv__(self, other):
        if other.__class__ is not LaurentPolynomial or other.ring is not self.ring:
            return self._mixed(operator.truediv, other)
        return self.ring.from_poly(self.poly.exact_div(other.poly),
                                   self.offset - other.offset)

    def inv(self):
        if not self.is_unit():
            raise NonUnitError(f"not a unit in {self.ring}: {self}", self)
        c = self.ring.field.cinv(self.poly.coeffs[0])
        return self.ring.monomial(-self.offset, FieldScalar(self.ring.field, c))

    def __eq__(self, other):
        if other.__class__ is not LaurentPolynomial or other.ring is not self.ring:
            return self._mixed(operator.eq, other)
        return self.offset == other.offset and self.poly.coeffs == other.poly.coeffs

    def __hash__(self):
        return hash((self.ring, self.poly, self.offset))

    def __repr__(self):
        if self.poly.is_zero():
            return "0"
        if self.offset >= 0:
            return repr(self.poly.shift(self.offset))
        num = repr(self.poly)
        den = self.ring.var if self.offset == -1 else f"{self.ring.var}^{-self.offset}"
        if " " in num:
            return f"({num})/{den}"
        return f"{num}/{den}"


def laurent_canonicalize(f: LaurentPolynomial):
    """Unique monic polynomial with nonzero constant term, plus the unit
    (c, k) that produced it: canonical = f * c * var^k.  Zero maps to
    (0, (1, 0))."""
    field = f.ring.field
    if f.is_zero():
        return f.poly, (field.one, 0)
    c = field.cinv(f.poly.coeffs[-1])
    return f.poly.monic(), (FieldScalar(field, c), -f.offset)


# ---------------------------------------------------------------------------
# fractions over a polynomial domain
# ---------------------------------------------------------------------------

class FractionField:
    """Frac(D) for D a univariate ``PolynomialRing`` F[x].

    Canonical form over D = F[x]: num and den are coprime and den is monic,
    so each fraction has exactly one stored pair.  The gcd runs only when
    the answer is not already known:

    * a monomial numerator or denominator c*x^k: the gcd is the power of x
      dividing both (the lesser valuation), stripped without division;
    * the inverse of a canonical fraction is already reduced and is only
      made monic;
    * equal denominators: a/b +- c/b normalizes (a +- c)/b, with no cross
      products;
    * a zero operand: a +- 0 is a, 0 + b is b, 0 - b is -b, and a product
      with a zero factor is zero, with no normalization at all.

    Where it runs, the gcd is ``poly_gcd`` (the Euclidean algorithm over
    Z_p, the integer remainder sequence over Q), divided out of both sides
    by ``exact_div``; the pair is then made monic.

    ``field(num, den)`` builds num / den from anything ``domain`` converts,
    and ``field(x)`` also takes a fraction or a Laurent polynomial f x^k,
    f(0) != 0, which is f x^k / 1 or f / x^-k.  Fractions are matrix
    entries; a fraction field is not a coefficient field of
    ``PolynomialRing``.
    """

    __slots__ = ("domain",)

    def __init__(self, domain):
        if not isinstance(domain, PolynomialRing):
            raise TypeError(f"fractions need a univariate polynomial domain, got {domain!r}")
        self.domain = domain

    def __call__(self, num, den=None) -> FractionElement:
        if den is not None:
            return _make_fraction(self, self.domain(num), self.domain(den))
        if isinstance(num, FractionElement):
            if num.ring is not self:
                _check_ring(self, num)
                num = FractionElement(self, self.domain(num.num), self.domain(num.den))
            return num
        if isinstance(num, LaurentPolynomial):
            # f x^k with f(0) != 0 is f x^k / 1 or f / x^-k, both canonical
            f, k = self.domain(num.poly), num.offset
            return FractionElement(self, f.shift(max(k, 0)),
                                   self.domain.one.shift(max(-k, 0)))
        # n/1 is already canonical
        return FractionElement(self, self.domain(num), self.domain.one)

    @property
    def zero(self):
        return FractionElement(self, self.domain.zero, self.domain.one)

    @property
    def one(self):
        return FractionElement(self, self.domain.one, self.domain.one)

    def __eq__(self, other):
        return other is self or (isinstance(other, FractionField)
                                 and other.domain == self.domain)

    def __hash__(self):
        return hash(("FractionField", self.domain))

    def __repr__(self):
        return f"Frac({self.domain})"


def _make_fraction(ring, num, den, coprime=False):
    """The canonical fraction num/den (see ``FractionField``); ``coprime``
    says the pair is already reduced, as when a canonical fraction is
    inverted."""
    if den.is_zero():
        raise ZeroDivisionError(f"zero denominator in {ring}")
    if num.is_zero():
        return FractionElement(ring, num, ring.domain.one)
    if not coprime:
        vn, vd = _valuation(num.coeffs), _valuation(den.coeffs)
        if vn == num.degree or vd == den.degree:
            # One side is c*x^k, so the gcd is x^min(vn, vd).
            s = min(vn, vd)
            if s:
                num = UniPolynomial(ring.domain, num.coeffs[s:])
                den = UniPolynomial(ring.domain, den.coeffs[s:])
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = num.exact_div(g)
                den = den.exact_div(g)
    lead = den.coeffs[-1]
    if lead != 1:
        inv = ring.domain.field.cinv(lead)
        num = num.scale(inv)
        den = den.scale(inv)
    return FractionElement(ring, num, den)


class FractionElement(RingElement):
    """num/den with a nonzero denominator in the canonical form of
    ``FractionField``, so equality and hashing read the stored pair."""

    __slots__ = ("ring", "num", "den")
    _lifts = (int, UniPolynomial)

    def __init__(self, ring, num, den):
        self.ring = ring
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def is_unit(self):
        return not self.num.is_zero()

    def _combine(self, other, op):
        # self op other for op + or -, both nonzero; equal denominators skip
        # the cross products
        if self.den == other.den:
            return _make_fraction(self.ring, op(self.num, other.num), self.den)
        return _make_fraction(self.ring, op(self.num * other.den, other.num * self.den),
                              self.den * other.den)

    def __add__(self, other):
        if other.__class__ is not FractionElement or other.ring is not self.ring:
            return self._mixed(operator.add, other)
        if other.num.is_zero():
            return self
        return other if self.num.is_zero() else self._combine(other, operator.add)

    def __sub__(self, other):
        if other.__class__ is not FractionElement or other.ring is not self.ring:
            return self._mixed(operator.sub, other)
        if other.num.is_zero():
            return self
        return -other if self.num.is_zero() else self._combine(other, operator.sub)

    def __neg__(self):
        return FractionElement(self.ring, -self.num, self.den)

    def __mul__(self, other):
        if other.__class__ is not FractionElement or other.ring is not self.ring:
            return self._mixed(operator.mul, other)
        if self.num.is_zero() or other.num.is_zero():
            return self.ring.zero
        return _make_fraction(self.ring, self.num * other.num, self.den * other.den)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError(f"inverse of 0 in {self.ring}")
        return _make_fraction(self.ring, self.den, self.num, coprime=True)

    def __truediv__(self, other):
        if other.__class__ is not FractionElement or other.ring is not self.ring:
            return self._mixed(operator.truediv, other)
        return self * other.inv()

    def __eq__(self, other):
        if other.__class__ is not FractionElement or other.ring is not self.ring:
            return self._mixed(operator.eq, other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.ring, self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        ns, ds = repr(self.num), repr(self.den)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

