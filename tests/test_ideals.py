"""Paper fixtures for the elementary ideals of closure matrices M - I.

``closure_invariants`` gives the corank and E_corank, E_corank+1, ... up to
the first E_r that is 1; each pair is pinned here by its repr.
"""

import time

import pytest
from test_linalg import bareiss_det

from weylknots.braids import FLAT, braid_from_text, represent
from weylknots.linalg import Matrix, closure_invariants, det_exact, invariant_factors
from weylknots.reps import build_rep
from weylknots.rings import laurent_canonicalize
from weylknots.switches import weyl_switch


def closure(rep, text, strands=None):
    m = represent(braid_from_text(text, FLAT, strands), weyl_switch(build_rep(rep)))
    return m - Matrix.identity(m.ring, m.nrows)


KISHINO = "t2 s1 s2 s1 t2 s1 s2 s1"


@pytest.mark.parametrize("text", ["kishino", f"s1 {KISHINO} s1", f"t1 {KISHINO} t1"],
                         ids=["kishino", "conjugated-by-s1", "conjugated-by-t1"])
def test_kishino(text):
    a = closure("kishino3", text, 3)
    assert a.nrows == 9
    assert repr(closure_invariants(a)) == "(3, [y^6 + y^3 + 1, y^3 + 2, 1])"
    # a zero row is a generator with no relation, as a free semiarc would be
    free = Matrix([*a.rows, [a.ring.zero] * a.ncols], a.ring)
    assert repr(closure_invariants(free)) == "(4, [y^6 + y^3 + 1, y^3 + 2, 1])"


@pytest.mark.parametrize("text, expected", [
    ("l(3)", (0, ["x^12 + 1", "x^4 + x^2 + 1", "1"])),
    ("whorl(3)", (0, ["x^4 + 1", "1"])),
])
def test_flat_fixtures(text, expected):
    corank, ideals = closure_invariants(closure("flat2", text))
    assert (corank, [repr(e) for e in ideals]) == expected


@pytest.mark.parametrize("n", [16, 32, 48])
def test_kishino3_whorls(n):
    # N = 3n + 3; the unit pivots leave a core of at most 5 x 5, so
    # whorl(48), which took 21-23 s by the Smith step on all of M - I,
    # stays well inside 10 s
    start = time.perf_counter()
    assert repr(closure_invariants(closure("kishino3", f"whorl({n})"))) == "(3, [1])"
    assert time.perf_counter() - start < 10


def test_flat2_whorl48():
    a = closure("flat2", "whorl(48)")
    x = a.ring.poly_ring.gen
    e0 = (x ** 48 + 1) * (x ** 140 + x ** 48 + x ** 44 + 1)
    assert repr(closure_invariants(a)) == f"(0, [{e0!r}, x^48 + 1, 1])"


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
