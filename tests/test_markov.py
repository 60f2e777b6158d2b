"""Markov invariance of the closure invariants.

Fenn-Turaev's module is an invariant of virtual and flat links, so
``closure_invariants`` of M - I, its corank and elementary ideals, must
survive the Markov moves of a braid word w on n strands: stabilization,
w s_n and w t_n on n + 1 strands (and w s_n^-1 for virtual words), and
conjugation x w x^-1 by s_i and t_i.  Grounding: Kamada, the Markov theorem for
virtual braids (math/0008092); Kauffman-Lambropoulou, *Virtual braids*
(math/0407349).  Words are seeded random words on 2-4 strands.
"""

import random

import pytest

from weylknots.braids import FLAT, VIRTUAL, parse_braid, represent
from weylknots.linalg import Matrix, closure_invariants
from weylknots.reps import build_rep, family_q_bidiagonal
from weylknots.rings import LaurentRing, PolynomialRing, PrimeField
from weylknots.switches import burau_switch, weyl_switch

WORDS_PER_SWITCH = 12


def _random_word(rng, flavor):
    n = rng.randint(2, 4)
    letters = []
    for _ in range(rng.randint(1, 8)):
        kind, i = rng.choice("st"), rng.randint(1, n - 1)
        inverse = flavor == VIRTUAL and kind == "s" and rng.random() < 0.5
        letters.append(f"{kind}{i}^-1" if inverse else f"{kind}{i}")
    return " ".join(letters), n


def _markov_variants(text, n, flavor):
    """(text, strands) of every stabilization and conjugation of the word."""
    ends = [f"s{n}", f"t{n}"] + ([f"s{n}^-1"] if flavor == VIRTUAL else [])
    variants = [(f"{text} {end}", n + 1) for end in ends]
    variants += [(f"{kind}{i} {text} {kind}{i}^-1", n)
                 for kind in "st" for i in range(1, n)]
    return variants


def _invariants(text, n, flavor, switch):
    m = represent(parse_braid(text, flavor, n), switch)
    return closure_invariants(m - Matrix.identity(m.ring, m.nrows))


SWITCHES = {
    "flat2": (lambda: weyl_switch(build_rep("flat2")), FLAT),
    "kishino3": (lambda: weyl_switch(build_rep("kishino3")), FLAT),
    "burau-Z5": (lambda: burau_switch(ring=LaurentRing(PolynomialRing(PrimeField(5), "t"))),
                 VIRTUAL),
    # Z_101 scalars: over a field the ideals are [1], so the corank decides
    "q_bidiagonal3-Z101": (lambda: weyl_switch(family_q_bidiagonal(3, q=5, a=2, b=[1, 3],
                                                                   p=101)),
                           VIRTUAL),
}


@pytest.mark.parametrize("name", list(SWITCHES))
def test_markov_moves_keep_the_invariants(name):
    make, flavor = SWITCHES[name]
    switch = make()
    rng = random.Random(name)
    for _ in range(WORDS_PER_SWITCH):
        text, n = _random_word(rng, flavor)
        expected = _invariants(text, n, flavor, switch)
        for variant, strands in _markov_variants(text, n, flavor):
            got = _invariants(variant, strands, flavor, switch)
            assert got == expected, (text, variant)
