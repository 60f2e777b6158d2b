"""Paper fixtures for the elementary ideals of closure matrices M - I.

E_r is the monic gcd of the (N-r)-minors, the product of the first N-r
invariant factors; the sequence runs from the corank until it reaches 1.
"""

import time

import pytest
from test_linalg import bareiss_det

from weylknots.braids import FLAT, braid_from_text, represent
from weylknots.linalg import (
    Matrix,
    det_exact,
    invariant_factors,
    minors_gcd,
    rank_over_fractions,
)
from weylknots.reps import build_rep
from weylknots.rings import laurent_canonicalize
from weylknots.switches import weyl_switch


def closure(rep, text, strands=None):
    m = represent(braid_from_text(text, FLAT, strands), weyl_switch(build_rep(rep)))
    return m - Matrix.identity(m.ring, m.nrows)


def ideals(a):
    """The corank of ``a`` and its ideals E_corank, ... up to the first 1."""
    corank = a.nrows - rank_over_fractions(a)
    seq = {}
    r = corank
    while r < a.nrows and not (seq and seq[r - 1].is_one()):
        seq[r] = minors_gcd(a, r)
        r += 1
    return corank, {r: repr(e) for r, e in seq.items()}


KISHINO = "t2 s1 s2 s1 t2 s1 s2 s1"


@pytest.mark.parametrize("text", ["kishino", f"s1 {KISHINO} s1", f"t1 {KISHINO} t1"],
                         ids=["kishino", "conjugated-by-s1", "conjugated-by-t1"])
def test_kishino(text):
    a = closure("kishino3", text, 3)
    assert a.nrows == 9
    assert ideals(a) == (3, {3: "y^6 + y^3 + 1", 4: "y^3 + 2", 5: "1"})


@pytest.mark.parametrize("text, expected", [
    ("l(3)", (0, {0: "x^12 + 1", 1: "x^4 + x^2 + 1", 2: "1"})),
    ("whorl(3)", (0, {0: "x^4 + 1", 1: "1"})),
])
def test_flat_fixtures(text, expected):
    assert ideals(closure("flat2", text)) == expected


@pytest.mark.parametrize("n", [16, 32, 48])
def test_kishino3_whorls(n):
    # N = 3n + 3; the unit pivots leave a core of at most 5 x 5, so
    # whorl(48), which took 21-23 s by the Smith step on all of M - I,
    # stays well inside 10 s
    start = time.perf_counter()
    assert ideals(closure("kishino3", f"whorl({n})")) == (3, {3: "1"})
    assert time.perf_counter() - start < 10


def test_flat2_whorl48():
    a = closure("flat2", "whorl(48)")
    x = a.ring.poly_ring.gen
    e0 = (x ** 48 + 1) * (x ** 140 + x ** 48 + x ** 44 + 1)
    assert ideals(a) == (0, {0: repr(e0), 1: "x^48 + 1", 2: "1"})


def test_whorl16_factors_multiply_to_the_determinant():
    # det_exact and the factors come from one elimination, so the exact
    # determinant, unit included, is checked against Bareiss first
    a = closure("flat2", "whorl(16)")
    assert a.nrows == 34
    det = det_exact(a)
    assert det == bareiss_det(a)
    factors = invariant_factors(a)
    assert len(factors) == 34
    product = a.ring.poly_ring.one
    for d in factors:
        product = product * d
    assert product == laurent_canonicalize(det)[0]
