"""The paper's claim that its q-module generalizes the Alexander module,
checked exactly on the symbolic q-switches over Q[q, q^-1].

A 1-dim rep of the q-Weyl algebra forces A = 1 - q, so its switch is
Sawollek's generalized Alexander switch with bc = q.  On classical words
the k-dim switches of both q-families see k copies of the Burau module at
t = q: k times its corank and k copies of each of its nontrivial invariant
factors.  On every word the determinant of a q_upper switch is the product
of its 1-dim determinants (Jordan, *A simple localization of the quantized
Weyl algebra*, J. Algebra 1995): its blocks are upper triangular, so M - I
is block triangular over the weights.
"""

import random
from fractions import Fraction

import pytest

from weylknots.braids import CLASSICAL, VIRTUAL, parse_braid, represent
from weylknots.linalg import Matrix, closure_invariants, det_exact, invariant_factors
from weylknots.reps import family_q_bidiagonal, family_q_upper
from weylknots.rings import QQ, LaurentRing, PolynomialRing, laurent_canonicalize
from weylknots.switches import burau_switch, sawollek_switch, weyl_switch

LQ = LaurentRing(PolynomialRing(QQ, "q"))

Q_SWITCHES = {
    "q_bidiagonal3": lambda: weyl_switch(family_q_bidiagonal(3, q="q", a=2, b=[1, -1])),
    "q_upper2": lambda: weyl_switch(family_q_upper(2, q="q", a=1, b=1, d=1, e=1)),
}


def _closure(word, switch):
    m = represent(word, switch)
    return m - Matrix.identity(m.ring, m.nrows)


def _module(word, switch):
    """(corank, non-unit invariant factors in a fixed order) of the closure."""
    a = _closure(word, switch)
    corank, _ = closure_invariants(a)
    factors = [f for f in invariant_factors(a) if not f.is_one()]
    return corank, sorted(factors, key=lambda f: f.coeffs)


def _classical_word(seed):
    """A seeded classical word on 2-3 strands with 3-8 letters, mostly of
    one sign and with no letter next to its inverse, so that the closure
    often has a nontrivial Alexander polynomial."""
    rng = random.Random(seed)
    strands, length = rng.randint(2, 3), rng.randint(3, 8)
    sign, letters = rng.choice((1, -1)), []
    while len(letters) < length:
        i = rng.randint(1, strands - 1)
        e = sign if rng.random() < 0.8 else -sign
        if letters and letters[-1] == (i, -e):
            continue
        letters.append((i, e))
    text = " ".join(f"s{i}" + ("^-1" if e < 0 else "") for i, e in letters)
    return parse_braid(text, CLASSICAL, strands)


@pytest.mark.parametrize("u", [1, 2, -3])
def test_one_dim_q_switch_is_sawolleks(u):
    switch = weyl_switch(family_q_upper(1, q="q", a=u, b=1, d=1, e=1))
    sawollek = sawollek_switch(u, LQ.monomial(1, Fraction(1, u)), ring=LQ)
    assert switch.ring == sawollek.ring == LQ
    assert switch.S == sawollek.S
    assert switch.q == sawollek.q == LQ.gen


@pytest.mark.parametrize("name", sorted(Q_SWITCHES))
@pytest.mark.parametrize("seed", range(12))
def test_classical_words_see_k_copies_of_burau(name, seed):
    switch = Q_SWITCHES[name]()
    word = _classical_word(seed)
    corank, factors = _module(word, burau_switch(ring=LQ))
    q_corank, q_factors = _module(word, switch)
    assert q_corank == switch.k * corank
    assert q_factors == sorted(factors * switch.k, key=lambda f: f.coeffs)


def _virtual_word(rng):
    """A seeded virtual word on 2-3 strands with 2-6 letters s_i^+-1 and t_i."""
    n = rng.randint(2, 3)
    letters = []
    for _ in range(rng.randint(2, 6)):
        kind, i = rng.choice("st"), rng.randint(1, n - 1)
        letters.append(f"{kind}{i}^-1" if kind == "s" and rng.random() < 0.5 else f"{kind}{i}")
    return parse_braid(" ".join(letters), VIRTUAL, n)


@pytest.mark.parametrize("n", [2, 3])
def test_q_upper_det_is_the_product_of_one_dim_dets(n):
    rep = family_q_upper(n, q="q", a=2, b=3, d=-1, e="1/2")
    switch = weyl_switch(rep)
    for block in (switch.A, switch.B, switch.C, switch.D):
        assert all(block.rows[i][j].is_zero() for i in range(n) for j in range(i))
    # the 1-dim switches at the weights u_r = U_rr
    ones = [weyl_switch(family_q_upper(1, q="q", a=rep.U.rows[r][r], b=1, d=1, e=1))
            for r in range(n)]
    rng = random.Random(f"q_upper{n}")
    nonzero = 0
    for _ in range(40):
        word = _virtual_word(rng)
        product = LQ.one
        for one in ones:
            product = product * det_exact(_closure(word, one))
        det = det_exact(_closure(word, switch))
        assert laurent_canonicalize(det)[0] == laurent_canonicalize(product)[0], word
        nonzero += not det.is_zero()
    assert nonzero >= 10  # 13 at n = 2 and 12 at n = 3


def test_torus_knot_t25_pin():
    # s1^5 closes to T(2, 5), whose Alexander polynomial is
    # q^4 - q^3 + q^2 - q + 1; the 3-dim switch sees it three times
    switch = Q_SWITCHES["q_bidiagonal3"]()
    delta = LQ.poly_ring("q^4 - q^3 + q^2 - q + 1")
    corank, ideals = closure_invariants(_closure(parse_braid("s1^5", CLASSICAL, 2), switch))
    assert corank == 3
    assert ideals == [delta ** 3, delta ** 2, delta, LQ.poly_ring.one]


# The printed closure invariants, det(M - I) and first row of M for one
# symbolic switch of each benchmark stratum on a 2-strand word, with
# rational parameters so that the rows print fractional coefficients.
PRINTED = {
    "q_upper2": (
        lambda: family_q_upper(2, q="q", a=2, b=-1, d=3, e="1/2"), "s1 s1 s1",
        "(2, [q^4 - 2q^3 + 3q^2 - 2q + 1, q^2 - q + 1, 1])", "0",
        "(-q^3 + q^2 - q + 1, -q^5 + 3q^4 - (5/2)q^3 + 2q - 3/2, 2q^3 - 2q^2 + 2q,"
        " 3q^2 - 3q + 3)"),
    "q_bidiagonal2": (
        lambda: family_q_bidiagonal(2, q="q", a=-2, b=["3/2"]), "s1^-1 s1^-1 s1^-1",
        "(2, [q^4 - 2q^3 + 3q^2 - 2q + 1, q^2 - q + 1, 1])", "0",
        "((q^4 - 3q^3 + 5q^2 - 4q + 1)/q^3, ((4/3)q^5 - (16/3)q^4 + (28/3)q^3"
        " - (28/3)q^2 + (16/3)q - 4/3)/q^3, (-2q^2 + 2q - 2)/q^2, 0)"),
    "q_upper3": (
        lambda: family_q_upper(3, q="q", a=1, b=2, d=-1, e=1), "s1 s1",
        "(3, [q^3 - 3q^2 + 3q - 1, q^2 - 2q + 1, q - 1, 1])", "0",
        "(q^2 - q + 1, (q^6 - 3q^5 + 3q^4 - q^3 + 2q^2 - 4q + 2)/q, ((1/2)q^9 - 2q^8"
        " + 3q^7 - q^6 - (5/2)q^5 + 3q^4 - q^3 + 2q^2 - 4q + 2)/q, -q^3 + q^2, 2q - 2, 0)"),
}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_symbolic_outputs_print_as_pinned(name):
    rep, word, invariants, det, row = PRINTED[name]
    m = represent(parse_braid(word, CLASSICAL, 2), weyl_switch(rep()))
    a = m - Matrix.identity(m.ring, m.nrows)
    assert repr(closure_invariants(a)) == invariants
    assert repr(det_exact(a)) == det
    assert repr(tuple(m.rows[0])) == row
