"""Seeded inputs and the op of each benchmark workload.

One op is one user-level computation in the shape of a CLI call: it
starts from text and a rep spec, and composes only public library
functions (``RepSpec.build``/``build_rep``, ``weyl_switch``,
``LinearSwitch.inverse``, ``braid_from_text``, ``represent``,
``rank_over_fractions``, ``det_exact``, ``minors_gcd``,
``laurent_canonicalize``, ``parse_expression``, ``verify_identity``), so an
optimisation behind those signatures shows up here unedited.

Each workload produces its op list in rounds.  A round holds one op per
stratum (a fixed size class), so every round costs about the same and a
run's cost mix does not depend on the seed; the seed picks the parameters,
letters and factor orders inside each stratum.  Strata are laid out so
that the median and the tail percentile fall inside a group of similar
ops rather than on the boundary between two.

Every output is checked against something independent of the op itself:
in zp-braids and symbolic-switch the last op of a round is a cyclic
rotation (a conjugate braid) of an earlier word on the same rep, in
flat-ideals the seeded word is Markov-equivalent to a pinned fixture, and
weyl-verify verdicts are known by construction.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace

from weylknots.braids import CLASSICAL, FLAT, VIRTUAL, braid_from_text, represent
from weylknots.linalg import Matrix, det_exact, minors_gcd, rank_over_fractions
from weylknots.reps import RepSpec, build_rep
from weylknots.rings import (
    FieldScalar,
    FractionElement,
    LaurentPolynomial,
    UniPolynomial,
    laurent_canonicalize,
)
from weylknots.switches import weyl_switch
from weylknots.weyl import EngineMode, evaluate, parse_expression, verify_identity

# Upper bound on the minors one op may enumerate (sum of C(N, r)^2 over its
# minors_gcd calls).  An op that would pass it fails with BudgetExceeded
# instead of running for many minutes.  The timed workloads stay below 2200;
# the Kishino fixture (N = 9, corank 3) needs 38808.
MINORS_BUDGET = 40000


class BudgetExceeded(Exception):
    """The op's input is beyond the benchmark's size budget."""


@dataclass(frozen=True)
class Op:
    key: str                  # "<round>:<position>", unique in a run
    stratum: str              # size class, the same in every round
    rep: object = None        # builtin rep name or RepSpec
    word: str = ""            # braid text
    flavor: str = VIRTUAL
    strands: int | None = None
    lhs: str = ""             # weyl-verify expressions
    rhs: str = ""
    expect: str | None = None   # output known by construction
    twin_of: str | None = None  # key of an op whose output this must equal


# ---------------------------------------------------------------------------
# the op: rep -> switch -> braid matrix -> closure invariants
# ---------------------------------------------------------------------------

def closure_op(op: Op, tr, ideals: bool):
    """Corank and det(M - I), or with ``ideals`` the elementary ideal
    sequence E_r of M - I.  Returns (output text, objects for sizing)."""
    with tr.span("reps.build"):
        rep = build_rep(op.rep)
    with tr.span("switches.weyl_switch"):
        switch = weyl_switch(rep)
    with tr.span("braids.parse"):
        word = braid_from_text(op.word, op.flavor, op.strands)
    inv = None
    if word.flavor != FLAT:
        with tr.span("switches.inverse"):
            inv = switch.inverse()
    with tr.span("braids.represent"):
        m = represent(word, switch)
    with tr.span("linalg.closure"):
        a = m - Matrix.identity(m.ring, m.nrows)
    with tr.span("linalg.rank"):
        corank = a.nrows - rank_over_fractions(a)
    objects = {"word": word, "switch": switch, "inverse": inv, "matrix": m}
    if not ideals:
        with tr.span("linalg.det"):
            det = det_exact(a)
        objects["outputs"] = [det]
        return f"corank={corank} det={det!r}", objects
    seq = []
    if corank == 0:
        with tr.span("linalg.det"):
            det = det_exact(a)
        with tr.span("rings.canonicalize"):
            seq.append((0, laurent_canonicalize(det)[0]))
    n = a.nrows
    r = max(corank, 1)
    spent = 0
    while r <= n - 1 and not (seq and seq[-1][1].is_one()):
        bound = math.comb(n, r) ** 2
        spent += bound
        if spent > MINORS_BUDGET:
            raise BudgetExceeded(f"E_{r} of a {n}x{n} matrix needs {spent} minors")
        tr.add("linalg.minors_gcd_calls", 1)
        tr.add("linalg.minors_bound", bound)
        with tr.span("linalg.minors_gcd"):
            seq.append((r, minors_gcd(a, r)))
        r += 1
    objects["outputs"] = [e for _, e in seq]
    return f"corank={corank} " + " ".join(f"E{r}={e!r}" for r, e in seq), objects


_CORANK_DET = re.compile(r"corank=(\d+) det=(.+)$")
_IDEALS = re.compile(r"corank=(\d+)((?: E\d+=[^E]+)+)$")


def inconsistency(output: str) -> str | None:
    """Why a closure output contradicts itself, or None.  Over a field
    det(M - I) vanishes exactly when the corank is positive, and the ideal
    sequence starts at E_corank (E_0 when the corank is 0), runs through
    consecutive indices and holds no zero ideal."""
    m = _CORANK_DET.match(output)
    if m:
        if (m.group(1) == "0") == (m.group(2) == "0"):
            return "corank and det(M - I) disagree"
        return None
    m = _IDEALS.match(output)
    if not m:
        return "unparsable output"
    ideals = re.findall(r"E(\d+)=([^E]+)", m.group(2))
    indices = [int(r) for r, _ in ideals]
    if indices != list(range(int(m.group(1)), int(m.group(1)) + len(indices))):
        return "ideal indices do not start at the corank or skip one"
    if any(e.strip() == "0" for _, e in ideals):
        return "zero ideal in the sequence"
    return None


def verify_op(op: Op, tr):
    with tr.span("weyl.parse"):
        lhs = parse_expression(op.lhs)
        rhs = parse_expression(op.rhs)
    with tr.span("weyl.verify"):
        result = verify_identity(lhs, rhs, EngineMode.symbolic())
    return ("true" if result.ok else "false"), {"lhs": lhs}


def degree(entry) -> int:
    """Laurent degree span, or the larger numerator/denominator degree."""
    if isinstance(entry, LaurentPolynomial):
        return 0 if entry.is_zero() else entry.max_exp - entry.min_exp
    if isinstance(entry, FractionElement):
        return max(entry.num.degree or 0, entry.den.degree or 0)
    if isinstance(entry, UniPolynomial):
        return entry.degree or 0
    if isinstance(entry, FieldScalar):
        return 0
    raise TypeError(f"no degree for {entry!r}")


def _matrix_degree(m) -> int:
    return max((degree(e) for row in m.rows for e in row), default=0)


def record_sizes(tr, objects):
    """Size counters of one op, taken after its span has closed."""
    if "lhs" in objects:
        value = evaluate(objects["lhs"], EngineMode.symbolic())
        tr.peak("weyl.coeff_degree_max", value.max_coeff_degree())
        return
    word, m = objects["word"], objects["matrix"]
    tr.add("braids.letters", len(word.letters))
    tr.peak("braids.matrix_dim_max", m.nrows)
    tr.peak("braids.entry_degree_max", _matrix_degree(m))
    blocks = [objects["switch"].S]
    if objects["inverse"] is not None:
        blocks.append(objects["inverse"])
    tr.peak("switches.block_degree_max", max(_matrix_degree(b) for b in blocks))
    tr.peak("rings.output_degree_max",
            max((degree(e) for e in objects["outputs"]), default=0))


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def _virtual_word(rng, strands, length, real_share=2 / 3):
    letters = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        if rng.random() < real_share:
            letters.append(f"s{i}" if rng.random() < 0.5 else f"s{i}^-1")
        else:
            letters.append(f"t{i}")
    return letters


def _flat_word(rng, strands, length):
    return [f"{rng.choice('st')}{rng.randint(1, strands - 1)}" for _ in range(length)]


def _twin(first: Op, key: str, rng) -> Op:
    """A cyclic rotation of ``first``'s word: a conjugate braid."""
    letters = first.word.split()
    k = rng.randint(1, len(letters) - 1)
    return Op(key, first.stratum + "-rotated", rep=first.rep,
              word=" ".join(letters[k:] + letters[:k]),
              flavor=first.flavor, strands=first.strands, twin_of=first.key)


# --- mod-p screening of q-family parameters --------------------------------

def _det_mod_p(rows, p):
    rows = [r[:] for r in rows]
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def _q_bidiagonal_ok(n, p, q, a, b):
    """True when the q_bidiagonal recurrence is solvable mod p and the
    resulting switch block C is invertible (det(UV - I) != 0)."""
    inv = lambda x: pow(x % p, p - 2, p)
    qinv = inv(q)
    alpha = gamma = 0
    for i in range(1, n):
        alpha = (alpha - 1) * qinv % p
        gamma = (gamma + (1 - q) * pow(q, 2 * (n - i), p)) * qinv % p
    denom = (gamma + 1 - q) % p
    if denom == 0:
        return False
    t = (1 - alpha) * inv(denom) % p
    if t == 0:
        return False
    c = t * inv(a) % p
    beta, bi = [], 0
    for i in range(1, n):
        bi = (bi + (1 - q) * pow(q, 2 * (n - i), p) * t - 1) * qinv % p
        beta.append(bi)
    u = [[0] * n for _ in range(n)]
    v = [[0] * n for _ in range(n)]
    for r in range(n):
        u[r][r] = pow(q, n - 1 - r, p) * a % p
        v[r][r] = pow(q, n - 1 - r, p) * c % p
        if r >= 1:
            u[r][r - 1] = b[r - 1]
        if r < n - 1:
            v[r][r + 1] = beta[r] * inv(b[r]) % p
    uv = [[(sum(u[i][k] * v[k][j] for k in range(n)) - (i == j)) % p
           for j in range(n)] for i in range(n)]
    return _det_mod_p(uv, p) != 0


PRIMES_NEAR_100 = (89, 97, 101, 103, 107, 109, 113)


def _zp_spec(rng, family, k):
    while True:
        p = rng.choice(PRIMES_NEAR_100)
        q = rng.randint(2, p - 1)
        a = rng.randint(1, p - 1)
        if family == "q_upper":
            b, d, e = (rng.randint(1, p - 1) for _ in range(3))
            return RepSpec(family, n=k, p=p, params={"q": q, "a": a, "b": b, "d": d, "e": e})
        b = [rng.randint(1, p - 1) for _ in range(k - 1)]
        if _q_bidiagonal_ok(k, p, q, a, b):
            return RepSpec(family, n=k, p=p, params={"q": q, "a": a, "b": b})


def _small_int(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _symbolic_spec(rng, family, n):
    if family == "q_upper":
        a, b, d, e = (_small_int(rng) for _ in range(4))
        return RepSpec(family, n=n, params={"q": "q", "a": a, "b": b, "d": d, "e": e})
    return RepSpec(family, n=n, params={"q": "q", "a": _small_int(rng),
                                        "b": [_small_int(rng) for _ in range(n - 1)]})


# --- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    tail_percentile = 90  # fixed per workload, so runs report the same statistic
    trace_rounds = 1      # rounds in the fixed traced op list

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def rounds(self):
        """Endless stream of rounds; round r is the same for a given seed."""
        r = 0
        while True:
            yield self.make_round(r)
            r += 1

    def make_round(self, r):
        raise NotImplementedError

    def run(self, op: Op, tr):
        raise NotImplementedError

    def inconsistency(self, output: str) -> str | None:
        """Why an output contradicts itself, or None."""
        return inconsistency(output)


class ZpBraids(Workload):
    """q-family reps over Z_p, virtual words on 4-5 strands, N = 12..20.

    Three cost classes -- q_upper N = 12 L = 40, q_bidiagonal N = 15
    L = 60, q_upper N = 20 L = 80 -- of three ops each, plus the rotated
    twin of a middle one, so the median falls inside the middle class and
    the 90th percentile inside the top class.
    """

    name = "zp-braids"
    tail_percentile = 90
    trace_rounds = 8
    # (family, k, strands, length); N = k * strands
    STRATA = ([("q_upper", 3, 4, 40)] * 3 + [("q_bidiagonal", 3, 5, 60)] * 3
              + [("q_upper", 4, 5, 80)] * 3)
    TWIN = 4

    def make_round(self, r):
        ops = []
        for j, (family, k, strands, length) in enumerate(self.STRATA):
            ops.append(Op(f"{r}:{j}", f"{family}-k{k}-n{strands}-L{length}",
                          rep=_zp_spec(self.rng, family, k),
                          word=" ".join(_virtual_word(self.rng, strands, length)),
                          flavor=VIRTUAL, strands=strands))
        ops.append(_twin(ops[self.TWIN], f"{r}:{len(ops)}", self.rng))
        return ops

    def run(self, op, tr):
        return closure_op(op, tr, ideals=False)


# Paper fixtures (Fenn-Turaev), pinned as exact values.
FLAT_FIXTURES = {
    "l(3)": "corank=0 E0=x^12 + 1 E1=x^4 + x^2 + 1 E2=1",
    "whorl(3)": "corank=0 E0=x^4 + 1 E1=1",
}


def _markov_word(rng, base, strands, length):
    """A seeded flat word equivalent to ``base``: stabilized by s_n or t_n
    up to ``strands`` strands, then conjugated by a random word so that it
    has ``length`` letters (flat letters are involutions, so x w x^-1 is
    x w reversed(x))."""
    word = braid_from_text(base)
    letters, n = [str(let) for let in word.letters], word.n
    while n < strands:
        letters.append(f"{rng.choice('st')}{n}")
        n += 1
    conjugator = _flat_word(rng, n, (length - len(letters)) // 2)
    return " ".join(conjugator + letters + conjugator[::-1])


class FlatIdeals(Workload):
    """flat2 over Z_2[x^+-1]: the pinned l(n)/whorl(n) words and one seeded
    word on 3-4 strands that is Markov-equivalent to a pinned one.

    Fully random flat words were left out: whether E_r reaches 1 early
    varies so much that their cost differs fivefold between seeds.  Each
    round draws its seeded word from the next stratum in turn, and its
    five ops sort as l(3) < l(8) < whorl(3) < seeded < whorl(4), so the
    median and the 90th percentile fall on pinned words.
    """

    name = "flat-ideals"
    tail_percentile = 90
    trace_rounds = 5
    PINNED = ("l(3)", "l(8)", "whorl(3)", "whorl(4)")
    # (pinned base, strands, length) of the seeded words
    STRATA = [("l(3)", 3, 20), ("l(3)", 3, 40), ("whorl(3)", 4, 20),
              ("whorl(3)", 4, 30), ("whorl(3)", 4, 40)]

    def make_round(self, r):
        base, strands, length = self.STRATA[r % len(self.STRATA)]
        seeded = Op("", f"{base}-n{strands}-L{length}", rep="flat2",
                    word=_markov_word(self.rng, base, strands, length),
                    flavor=FLAT, strands=strands, twin_of=f"{r}:{self.PINNED.index(base)}")
        pinned = [Op("", name, rep="flat2", word=name, flavor=FLAT,
                     expect=FLAT_FIXTURES.get(name)) for name in self.PINNED]
        ops = pinned[:3] + [seeded] + pinned[3:]
        return [replace(op, key=f"{r}:{j}") for j, op in enumerate(ops)]

    def run(self, op, tr):
        return closure_op(op, tr, ideals=True)


class SymbolicSwitch(Workload):
    """Symbolic-q reps over Frac(Q[q]): switch and inverse dominate.

    A round sorts as q_upper n=2 (and its rotated twin) < q_bidiagonal n=2
    < q_upper n=3, two ops each, so the median falls among the
    q_bidiagonal ops and the 75th percentile among the q_upper n=3 ops.
    Symbolic q_bidiagonal n=3 (about 2.5 s per switch plus inverse) is
    left out: a run would hold too few ops for a tail percentile.
    """

    name = "symbolic-switch"
    tail_percentile = 75
    trace_rounds = 5
    STRATA = [("q_upper", 2), ("q_bidiagonal", 2), ("q_bidiagonal", 2),
              ("q_upper", 3), ("q_upper", 3)]

    def make_round(self, r):
        ops = []
        for j, (family, n) in enumerate(self.STRATA):
            length = self.rng.randint(2, 4)
            word = [f"s1^{self.rng.choice((1, -1))}" for _ in range(length)]
            ops.append(Op(f"{r}:{j}", f"{family}-n{n}",
                          rep=_symbolic_spec(self.rng, family, n),
                          word=" ".join(word), flavor=CLASSICAL, strands=2))
        ops.append(_twin(ops[0], f"{r}:{len(ops)}", self.rng))
        return ops

    def run(self, op, tr):
        return closure_op(op, tr, ideals=False)


# Products for weyl-verify: fixed multisets of binomials and trinomials in
# the generators, their inverses and q; the seed orders the factors and
# places ``u v`` among them.  The last is (u v' + v u' + q)^4, the
# coefficient-growth case.
WEYL_PRODUCTS = (
    ("(u + v)", "(u' + v')", "(u v' + q)", "(u + v + q)"),
    ("(u + q v)", "(v + u')", "(q u' + v)", "(u' + v' + 1)"),
    ("(u + v)", "(v u' + 1)", "(u v' + q)", "(u' + v')", "(u + v + q)"),
    ("(u + q v)", "(v + u')", "(u' + v')", "(q u' + v)", "(u v' + v u' + q)"),
    ("(u v' + v u' + q)",) * 4,
)
# uv = 1 + q vu holds; each perturbation differs from it by a nonzero
# element, and the algebra has no zero divisors, so the product is false.
WEYL_TRUE = "(1 + q v u)"
WEYL_FALSE = ("(2 + q v u)", "(1 + v u)", "(1 + q u v)", "(1 + q v u + q)")


class WeylVerify(Workload):
    """Symbolic identity checks: a product with ``u v`` inside against the
    same product with ``u v`` rewritten; 4 true : 1 false per round.

    Products drawn freely from the factor list vary a hundredfold in cost,
    so each position of a round has a fixed multiset.  The median falls
    among the 5-factor products and the 95th percentile inside the
    (u v' + v u' + q)^4 group.  Six factors are left out (p90 14 s).
    """

    name = "weyl-verify"
    tail_percentile = 95
    trace_rounds = 25
    FALSE_PRODUCT = 1

    def make_round(self, r):
        ops = []
        for j, product in enumerate(WEYL_PRODUCTS):
            factors = list(product)
            self.rng.shuffle(factors)
            at = self.rng.randint(0, len(factors))
            true = j != self.FALSE_PRODUCT
            rewrite = WEYL_TRUE if true else self.rng.choice(WEYL_FALSE)
            lhs = " ".join(factors[:at] + ["(u v)"] + factors[at:])
            rhs = " ".join(factors[:at] + [rewrite] + factors[at:])
            ops.append(Op(f"{r}:{j}", f"product{j}-{'true' if true else 'false'}",
                          lhs=lhs, rhs=rhs, expect="true" if true else "false"))
        return ops

    def run(self, op, tr):
        return verify_op(op, tr)

    def inconsistency(self, output):
        return None if output in ("true", "false") else "not a verdict"


WORKLOADS = {w.name: w for w in (ZpBraids, FlatIdeals, SymbolicSwitch, WeylVerify)}
