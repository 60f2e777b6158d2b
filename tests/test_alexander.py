"""The paper's claim that its q-module generalizes the Alexander module,
checked exactly on the symbolic q-switches over Q[q, q^-1].

A 1-dim rep of the q-Weyl algebra forces A = 1 - q, so its switch is
Sawollek's generalized Alexander switch with bc = q.  On classical words
the k-dim switches of both q-families see k copies of the Burau module at
t = q: k times its corank and k copies of each of its nontrivial invariant
factors.
"""

import random
from fractions import Fraction

import pytest

from weylknots.braids import CLASSICAL, parse_braid, represent
from weylknots.linalg import Matrix, closure_invariants, invariant_factors
from weylknots.reps import family_q_bidiagonal, family_q_upper
from weylknots.rings import QQ, LaurentRing, PolynomialRing
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


def test_torus_knot_t25_pin():
    # s1^5 closes to T(2, 5), whose Alexander polynomial is
    # q^4 - q^3 + q^2 - q + 1; the 3-dim switch sees it three times
    switch = Q_SWITCHES["q_bidiagonal3"]()
    delta = LQ.poly_ring("q^4 - q^3 + q^2 - q + 1")
    corank, ideals = closure_invariants(_closure(parse_braid("s1^5", CLASSICAL, 2), switch))
    assert corank == 3
    assert ideals == [delta ** 3, delta ** 2, delta, LQ.poly_ring.one]
