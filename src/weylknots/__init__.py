"""Exact-arithmetic quantum Weyl algebras, linear switches and link invariants."""

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
