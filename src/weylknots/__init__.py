"""Exact-arithmetic quantum Weyl algebras, linear switches and link invariants.

The pipeline from a representation to the invariants of a braid closure,
here of the Kishino braid: the corank of M - I and its elementary ideals
E_3, E_4 and E_5.

>>> from weylknots.braids import braid_from_text, represent
>>> from weylknots.linalg import Matrix, closure_invariants
>>> from weylknots.reps import build_rep
>>> from weylknots.switches import weyl_switch
>>> rep = build_rep("kishino3")
>>> switch = weyl_switch(rep)
>>> word = braid_from_text("kishino")
>>> m = represent(word, switch)
>>> closure_invariants(m - Matrix.identity(m.ring, m.nrows))
(3, [y^6 + y^3 + 1, y^3 + 2, 1])
"""

__version__ = "0.1.0"

from .rings import (
    QQ,
    FractionField,
    LaurentRing,
    NonUnitError,
    PolynomialRing,
    PrimeField,
    RingError,
    RingMismatchError,
    laurent_canonicalize,
    poly_gcd,
)

__all__ = [
    "QQ",
    "FractionField",
    "LaurentRing",
    "NonUnitError",
    "PolynomialRing",
    "PrimeField",
    "RingError",
    "RingMismatchError",
    "laurent_canonicalize",
    "poly_gcd",
]
