"""Finite-dimensional matrix representations of the (quantum) Weyl algebra.

A representation is a pair of invertible matrices U, V with UV - qVU = I.
``MatrixRep`` is the one gate: its constructor checks UV - qVU = I and
raises ``RepError`` on failure, so every ``MatrixRep`` is valid, and a typo
in a family's assembly formula surfaces as a hard failure instead of a
silently wrong invariant downstream.  The gate inverts U and V, one
elimination each, and the rep keeps both inverses for ``weyl_switch``.

Families:

* ``family_char_p_bidiagonal`` -- char p | n, q = 1: U upper bidiagonal
  with diagonal x, V lower bidiagonal with diagonal y and subdiagonal
  entries i/a_i.  The parameters may share one indeterminate; the entries
  then live in Z_p[x, x^-1].  Two distinct indeterminates are rejected.
* ``family_truncated`` -- q = 1 operators f -> f'/I' + Jf and f -> If on
  K[x]/(x^n) with p | n; the inverse-derivative coefficients k_r come from
  the difference equation  i_1 k_r + 2 i_2 k_{r-1} + ... + (r+1) i_{r+1} k_0 = 0.
* ``family_q_bidiagonal`` -- lower/upper bidiagonal pair whose diagonal
  products beta_i = b_i d_i and the product ac are solved exactly from the
  recurrence  beta_{i-1} - q beta_i + (1-q) q^(2(n-i)) ac = 1  with
  beta_0 = beta_n = 0.
* ``family_q_upper`` -- the upper-triangular pair with geometric diagonals
  q^(n-1)a ... a and c ... q^(n-1)c, where c = 1/(a q^(n-1) (1-q)).

Representations with q = 1 are rejected at construction unless n = 0 in
the entry ring: trace(UV - VU) = 0 can never equal trace(I) = n otherwise.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .linalg import Matrix, mat_inverse
from .rings import (
    QQ,
    FractionField,
    LaurentRing,
    NonUnitError,
    PolynomialRing,
    PrimeField,
    RingError,
)


class RepError(RingError):
    """Representation construction or validation failure."""


class MatrixRep:
    """A pair (U, V) with UV - qVU = I over a common entry ring.  The
    constructor is the gate: it raises ``RepError`` naming the first entry
    where UV - qVU != I and each determinant that is not a unit, and keeps
    the pair (U^-1, V^-1) that it computes as ``inverses``."""

    def __init__(self, U: Matrix, V: Matrix, q, label: str = "custom"):
        if not (U.is_square() and V.is_square() and U.nrows == V.nrows):
            raise RepError("U and V must be square of equal size")
        if U.ring != V.ring or q.ring != U.ring:
            raise RepError("U, V and q must share one ring")
        self.U = U
        self.V = V
        self.q = q
        self.dim = U.nrows
        self.ring = U.ring
        self.label = label
        if q.is_one() and not self.ring(self.dim).is_zero():
            raise RepError(
                f"no q=1 representation of dimension {self.dim} exists over "
                f"{self.ring}: trace(UV - VU) = 0 but trace(I) = {self.dim}")
        # UV - qVU as one block product, so each entry is reduced once
        got = Matrix.block([[U, V.scale(-q)]]) * Matrix.block([[V], [U]])
        identity = Matrix.identity(self.ring, self.dim)
        wrong = next(((i, j) for i, row in enumerate(got.rows)
                      for j, e in enumerate(row) if e != identity.rows[i][j]), None)
        parts = []
        if wrong is not None:
            i, j = wrong
            parts.append(f"UV - qVU != I at entry ({i},{j}): got {got.rows[i][j]!r}")
        inverses = []
        for name, m in (("U", U), ("V", V)):
            try:
                inverses.append(mat_inverse(m))
            except NonUnitError as err:
                parts.append(f"det({name}) = {err.value!r} is not a unit")
        if parts:
            raise RepError(f"{label}: " + "; ".join(parts))
        self.inverses = tuple(inverses)

    def __repr__(self):
        return (f"MatrixRep({self.label}, dim={self.dim}, ring={self.ring}, "
                f"q={self.q!r})")


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _indeterminates(values) -> list[str]:
    names = set()
    for v in values:
        if isinstance(v, str):
            names.update(_NAME_RE.findall(v))
    return sorted(names)


def _charp_ring(p, values):
    """Entry ring for char-p families: Z_p[x, x^-1] in the one indeterminate
    the parameters use ("x" when they use none)."""
    names = _indeterminates(values)
    if len(names) > 1:
        raise RepError(f"parameters may use one indeterminate, got {names}")
    var = names[0] if names else "x"
    return LaurentRing(PolynomialRing(PrimeField(p), var))


def _q_values(ring, values):
    """ring(v) for each parameter value; a denominator that is zero in ring
    raises RepError."""
    try:
        return [ring(v) for v in values]
    except ZeroDivisionError as err:
        raise RepError(f"parameter with a zero denominator in {ring}: {err}") from None


def _q_ring(p, values):
    """Entry ring for the q-families: Frac(Q[q]) with q symbolic when p is
    None, else Z_p, where the parameters may use no indeterminate."""
    if p is None:
        return FractionField(PolynomialRing(QQ, "q"))
    names = _indeterminates(values)
    if names:
        raise RepError(f"indeterminate parameters {names} need p=None")
    return PrimeField(p)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def family_char_p_bidiagonal(n: int, p: int, x, y, a) -> MatrixRep:
    """U upper bidiagonal (diagonal x, superdiagonal a_i), V lower
    bidiagonal (diagonal y, subdiagonal i/a_i); q = 1, valid when p | n."""
    if n % p != 0:
        raise RepError(f"characteristic {p} must divide the dimension {n}")
    a = list(a)
    if len(a) != n - 1:
        raise RepError(f"need {n - 1} superdiagonal parameters, got {len(a)}")
    ring = _charp_ring(p, [x, y, *a])
    xv, yv = ring(x), ring(y)
    av = [ring(ai) for ai in a]
    for nameval, val in (("x", xv), ("y", yv)):
        if val.is_zero():
            raise RepError(f"parameter {nameval} must be nonzero")
    if any(ai.is_zero() for ai in av):
        raise RepError("superdiagonal parameters must be nonzero")
    zero = ring.zero
    urows = [[xv if r == c else (av[r] if c == r + 1 else zero) for c in range(n)]
             for r in range(n)]
    vrows = []
    for r in range(n):
        row = [zero] * n
        row[r] = yv
        if r >= 1:
            row[r - 1] = ring(r) * av[r - 1].inv()
        vrows.append(row)
    return MatrixRep(Matrix(urows, ring), Matrix(vrows, ring), ring.one,
                     label=f"char_p_bidiagonal(n={n},p={p})")


def truncated_k_sequence(i_vals, length: int):
    """Coefficients of (I')^-1 from the difference equation; i_vals are the
    coefficients of I in the entry ring, i_1 a unit."""
    k = [i_vals[1].inv()]
    for r in range(1, length):
        acc = k[0].ring.zero
        for m in range(1, min(r + 1, len(i_vals) - 1)):
            if not i_vals[m + 1].is_zero():
                acc += (m + 1) * i_vals[m + 1] * k[r - m]
        k.append(-(acc * k[0]))
    return k


def family_truncated(n: int, p: int, i_coeffs, j_coeffs) -> MatrixRep:
    """q = 1 representation on K[x]/(x^n) by f -> f'/I' + Jf and f -> If.

    The matrices are assembled in the basis {1, x, ..., x^(n-1)} in the
    row-convention layout u[r][c] = j_(c-r) + r*k_(c-r+1), v[r][c] = i_(c-r).
    That layout flips the commutator sign, which matters only in odd
    characteristic: p = 2 keeps it, odd p uses the transposed (operator)
    orientation.
    """
    if n % p != 0:
        raise RepError(f"characteristic {p} must divide the dimension {n}")
    ring = _charp_ring(p, list(i_coeffs) + list(j_coeffs))
    ivals = [ring(c) for c in i_coeffs]
    jvals = [ring(c) for c in j_coeffs]
    ivals += [ring.zero] * (n - len(ivals))
    jvals += [ring.zero] * (n - len(jvals))
    if ivals[0].is_zero() or ivals[1].is_zero():
        raise RepError("i_0 and i_1 must be nonzero units")
    if not ivals[1].is_unit():
        raise RepError(f"i_1 = {ivals[1]!r} must be a unit")
    kvals = truncated_k_sequence(ivals, n)

    def jat(m):
        return jvals[m] if 0 <= m < n else ring.zero

    def kat(m):
        return kvals[m] if 0 <= m < n else ring.zero

    urows = [[jat(c - r) + ring(r) * kat(c - r + 1) for c in range(n)]
             for r in range(n)]
    vrows = [[ivals[c - r] if 0 <= c - r < n else ring.zero for c in range(n)]
             for r in range(n)]
    U, V = Matrix(urows, ring), Matrix(vrows, ring)
    if p != 2:
        U, V = U.transpose(), V.transpose()
    return MatrixRep(U, V, ring.one, label=f"truncated(n={n},p={p})")


def family_q_bidiagonal(n: int, q, a, b, p: int | None = None) -> MatrixRep:
    """Lower-bidiagonal U (diagonal q^(n-i) a, subdiagonal b_i) and
    upper-bidiagonal V (diagonal q^(n-i) c, superdiagonal beta_i / b_i),
    with beta_i and ac solved exactly from the diagonal recurrence."""
    b = list(b)
    if len(b) != n - 1:
        raise RepError(f"need {n - 1} subdiagonal parameters, got {len(b)}")
    ring = _q_ring(p, [q, a, *b])
    qv, av, *bv = _q_values(ring, [q, a, *b])
    one = ring.one
    if qv.is_zero() or (one - qv).is_zero():
        raise RepError("q and 1 - q must be invertible")
    if av.is_zero() or any(x.is_zero() for x in bv):
        raise RepError("a and every b_i must be invertible")

    # beta_i = alpha_i + gamma_i * t with t = ac, from
    # beta_i = (beta_{i-1} + (1-q) q^(2(n-i)) t - 1) / q, beta_0 = 0
    alpha, gamma = [ring.zero], [ring.zero]
    qinv = one / qv
    for i in range(1, n):
        alpha.append((alpha[-1] - one) * qinv)
        gamma.append((gamma[-1] + (one - qv) * qv ** (2 * (n - i))) * qinv)
    # closing equation: alpha_(n-1) + gamma_(n-1) t + (1-q) t = 1
    denom = gamma[-1] + (one - qv)
    if denom.is_zero():
        raise RepError(f"unsolvable recurrence: q = {qv!r} makes the system singular")
    t = (one - alpha[-1]) / denom
    cv = t / av
    beta = [alpha[i] + gamma[i] * t for i in range(1, n)]

    zero = ring.zero
    urows = [[zero] * n for _ in range(n)]
    vrows = [[zero] * n for _ in range(n)]
    for r in range(n):
        urows[r][r] = qv ** (n - 1 - r) * av
        vrows[r][r] = qv ** (n - 1 - r) * cv
        if r >= 1:
            urows[r][r - 1] = bv[r - 1]
        if r < n - 1:
            vrows[r][r + 1] = beta[r] / bv[r]
    return MatrixRep(Matrix(urows, ring), Matrix(vrows, ring), qv,
                     label=f"q_bidiagonal(n={n})")


def family_q_upper(n: int, q, a, b, d, e, p: int | None = None) -> MatrixRep:
    """The upper-triangular pair with geometric diagonals and
    c = 1/(a q^(n-1) (1-q))."""
    ring = _q_ring(p, [q, a, b, d, e])
    qv, av, bvv, dv, ev = _q_values(ring, [q, a, b, d, e])
    one = ring.one
    if qv.is_zero() or (one - qv).is_zero():
        raise RepError("q and 1 - q must be invertible")
    if av.is_zero() or bvv.is_zero():
        raise RepError("a and b must be invertible")
    cv = one / (av * qv ** (n - 1) * (one - qv))
    zero = ring.zero
    urows = [[zero] * n for _ in range(n)]
    vrows = [[zero] * n for _ in range(n)]
    binv = one / bvv
    for r in range(n):
        urows[r][r] = qv ** (n - 1 - r) * av
        vrows[r][r] = qv ** r * cv
        if r < n - 1:
            urows[r][r + 1] = bvv ** (n - 2 - r) * dv
            vrows[r][r + 1] = (qv * binv) ** r * ev
    return MatrixRep(Matrix(urows, ring), Matrix(vrows, ring), qv,
                     label=f"q_upper(n={n})")


# ---------------------------------------------------------------------------
# named specs and JSON ingestion
# ---------------------------------------------------------------------------

# Largest dimension a JSON spec may ask for: a family allocates n x n
# matrices and the rep gate eliminates them.  Tests and benchmarks stay at
# n <= 6.
DIMENSION_BUDGET = 64


@dataclass
class RepSpec:
    family: str
    n: int
    p: int | None = None
    params: dict = field(default_factory=dict)
    name: str = ""

    @classmethod
    def from_json(cls, data) -> RepSpec:
        """The spec of a JSON object: n an int from 1 to DIMENSION_BUDGET,
        p null or an int, params an object, name a string; anything else,
        JSON nested too deeply for the parser included, raises
        ``RepError``."""
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as err:
                raise RepError(f"a RepSpec is a JSON object: {err}") from None
            except RecursionError:
                raise RepError("a RepSpec is a JSON object, got JSON nested too "
                               "deeply to parse") from None
        if not isinstance(data, dict):
            raise RepError(f"a RepSpec is a JSON object, got {data!r}")
        extra = set(data) - {"family", "n", "p", "params", "name"}
        if extra:
            raise RepError(f"unknown RepSpec keys: {sorted(extra)}")
        try:
            family, n = data["family"], data["n"]
        except KeyError as missing:
            raise RepError(f"RepSpec is missing {missing}") from None
        p, params, name = data.get("p"), data.get("params", {}), data.get("name", "")
        if type(n) is not int or not 1 <= n <= DIMENSION_BUDGET:
            raise RepError(f"RepSpec n must be an int from 1 to {DIMENSION_BUDGET}, got {n!r}")
        if p is not None and type(p) is not int:
            raise RepError(f"RepSpec p must be null or an int, got {p!r}")
        if not isinstance(params, dict):
            raise RepError(f"RepSpec params must be an object, got {params!r}")
        if not isinstance(family, str):
            raise RepError(f"RepSpec family must be a string, got {family!r}")
        if not isinstance(name, str):
            raise RepError(f"RepSpec name must be a string, got {name!r}")
        return cls(family=family, n=n, p=p, params=dict(params), name=name)

    def build(self) -> MatrixRep:
        """The family member.  An unknown family, a p that is not a prime
        where one is needed or given, and a missing, unknown or ill-typed
        parameter raise ``RepError`` naming it; parameter text that does not
        parse raises ``RepError`` quoting it, and a fraction whose
        denominator is zero in the ring raises ``RepError`` too."""
        if self.family not in _SPEC_FAMILIES:
            raise RepError(f"unknown family {self.family!r}")
        make, keys = _SPEC_FAMILIES[self.family]
        char_p = make in (family_char_p_bidiagonal, family_truncated)
        if char_p or self.p is not None:
            try:
                PrimeField(self.p)
            except ValueError:
                raise RepError(f"family {self.family!r} needs p, a prime, "
                               f"got {self.p!r}") from None
        args = [self._param(key) for key in keys]
        extra = set(self.params) - {key.removesuffix("[]") for key in keys}
        if extra:
            raise RepError(f"family {self.family!r} takes no parameter {sorted(extra)}")
        try:
            rep = make(self.n, self.p, *args) if char_p else make(self.n, *args, self.p)
        except ValueError as err:
            raise RepError(f"family {self.family!r}: {err}") from None
        if self.name:
            rep.label = self.name
        return rep

    def _param(self, key):
        """params[name] for key "name" (an int or a string) or "name[]" (a
        list of them)."""
        name = key.removesuffix("[]")
        if name not in self.params:
            raise RepError(f"family {self.family!r} needs parameter {name!r}")
        value = self.params[name]
        if name == key:
            ok, kind = _is_scalar(value), "an int or a string"
        else:
            ok = isinstance(value, (list, tuple)) and all(map(_is_scalar, value))
            kind = "a list of ints and strings"
        if not ok:
            raise RepError(f"parameter {name!r} of family {self.family!r} must be "
                           f"{kind}, got {value!r}")
        return value


def _is_scalar(value):
    return type(value) is int or isinstance(value, str)


# Each family of a RepSpec and its params in call order; "[]" marks a list.
_SPEC_FAMILIES = {
    "char_p_bidiagonal": (family_char_p_bidiagonal, ("x", "y", "a[]")),
    "truncated": (family_truncated, ("i[]", "j[]")),
    "q_bidiagonal": (family_q_bidiagonal, ("q", "a", "b[]")),
    "q_upper": (family_q_upper, ("q", "a", "b", "d", "e")),
}


BUILTIN_SPECS = {
    # the 3x3 pair over Z_3[y] used for the Kishino shadow
    "kishino3": RepSpec("char_p_bidiagonal", n=3, p=3,
                        params={"x": "1", "y": "y", "a": ["1", "1"]},
                        name="kishino3"),
    # the 2x2 pair over Z_2[x] used for the flat 2-braid closures
    "flat2": RepSpec("char_p_bidiagonal", n=2, p=2,
                     params={"x": "x", "y": "1", "a": ["1"]},
                     name="flat2"),
}


def build_rep(source) -> MatrixRep:
    """Build from a builtin name, a JSON file path, a JSON string, a dict,
    a RepSpec or a finished MatrixRep.  A path that is missing, cannot be
    read or is not UTF-8 text raises ``RepError``."""
    if isinstance(source, MatrixRep):
        return source
    if isinstance(source, RepSpec):
        return source.build()
    if isinstance(source, dict):
        return RepSpec.from_json(source).build()
    if isinstance(source, str):
        if source in BUILTIN_SPECS:
            return BUILTIN_SPECS[source].build()
        if source.lstrip().startswith("{"):
            return RepSpec.from_json(source).build()
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise RepError(f"no builtin rep or spec file named {source!r}") from None
        except (OSError, UnicodeDecodeError) as err:
            raise RepError(f"cannot read spec file {source!r}: {err}") from None
        return RepSpec.from_json(text).build()
    raise RepError(f"cannot build a representation from {source!r}")
