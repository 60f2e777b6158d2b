"""Linear switches: 2x2 block solutions of the braid relation.

A linear switch is the block matrix S = [[A, B], [C, D]] acting on pairs
of k-dimensional strand blocks.  ``check_switch`` verifies the axioms as
exact matrix identities: the braid relation on three blocks and the Hecke
quadratic S^2 = (1-q)S + qI for the switch's declared scalar q, which at
q = 1 is S^2 = I: a flat switch is one that declares q = 1.

Only the factories build a ``LinearSwitch``, and each declares a q that
satisfies the quadratic: ``weyl_switch`` because ``MatrixRep`` enforces
UV - qVU = I (``hecke-scalar`` in ``weyl.IDENTITY_SUITE``), Burau and
scalar Sawollek switches by direct algebra, and ``custom_switch`` by
gating on ``check_switch``, which raises ``SwitchError`` or returns
nothing.  So ``inverse`` is the closed form S^-1 = q^-1(S - (1-q)I) and
``is_flat`` reads q, neither with a check.

``weyl_switch`` takes U^-1, V^-1 from ``MatrixRep``: A = V'U', B = U,
C = A'B'A(I - A) and D = (1-q)I - U'V'.  UV = I + qVU gives A'B' = UVU' =
U' + qV, so C is formed as (U' + qV)A(I - A): four products per switch.
UV - I = qVU gives det(C) = q^n / det(U), a unit exactly when q is; det(C)
is computed only for the error message.  ``tests/test_switches.py``
re-verifies the construction: the quadratic for every factory, C against
the q-scaled 9-letter word in U, V, and the inverse against two reference
inverses.

A symbolic rep lives over Frac(Q[q]), since tr(UV - qVU) = n forces
tr(UV) = n / (1 - q).  Its switch does not: for the q-families every
entry of S and S^-1 has a power of q as its denominator, so
``weyl_switch`` moves the blocks and q to Q[q, q^-1], where braids are
represented on raw Laurent values and the closure yields its elementary
ideals, the q-Alexander invariants.  An entry with any other denominator
raises ``SwitchError``; no switch is built over a fraction field.
"""

from __future__ import annotations

from .linalg import Matrix, det_exact, mat_inverse
from .reps import MatrixRep
from .rings import (
    QQ,
    FractionField,
    LaurentRing,
    NonUnitError,
    PolynomialRing,
    RingError,
)


class SwitchError(RingError):
    """Switch construction or axiom failure."""


class LinearSwitch:
    """Blocks A, B, C, D (k x k) with the assembled 2k x 2k matrix S and a
    declared Hecke scalar q (None when the switch has no such scalar).
    Built only by the factories below."""

    def __init__(self, A, B, C, D, q, label, _token=None):
        if _token is not _SWITCH_TOKEN:
            raise TypeError("build switches with weyl_switch, burau_switch, "
                            "sawollek_switch or custom_switch")
        for m in (B, C, D):
            if m.ring != A.ring or m.nrows != A.nrows or not m.is_square():
                raise SwitchError("blocks must be square, equal-sized, one ring")
        if q is not None and q.ring != A.ring:
            raise SwitchError("q must live in the block entry ring")
        self.A, self.B, self.C, self.D = A, B, C, D
        self.q = q
        self.k = A.nrows
        self.ring = A.ring
        self.label = label
        self.S = Matrix.block([[A, B], [C, D]])
        self._S_inv = None

    def is_flat(self) -> bool:
        """The switch declares q = 1, where the Hecke quadratic is S^2 = I."""
        return self.q is not None and self.q.is_one()

    def inverse(self) -> Matrix:
        """S^-1 = q^-1 (S - (1-q)I), which the declared q makes exact;
        ``mat_inverse(S)`` when q is None or not a unit."""
        if self._S_inv is None:
            s, q, ring = self.S, self.q, self.ring
            if q is not None and q.is_unit():
                i2k = Matrix.identity(ring, 2 * self.k)
                self._S_inv = (s - i2k.scale(ring.one - q)).scale(ring.one.exact_div(q))
            else:
                try:
                    self._S_inv = mat_inverse(s)
                except NonUnitError as err:
                    raise SwitchError(f"switch is singular: det = {err.value!r}"
                                      ) from None
        return self._S_inv

    def __repr__(self):
        return f"LinearSwitch({self.label}, k={self.k}, ring={self.ring})"


_SWITCH_TOKEN = object()


def weyl_switch(rep: MatrixRep, label=None) -> LinearSwitch:
    """The canonical switch of a representation, from the U^-1 and V^-1
    that ``MatrixRep`` keeps; det(C) = q^n / det(U) must be a unit, that
    is, q must be.

    A rep over Frac(F[x]) gives a switch over F[x, x^-1]: the blocks and q
    are built over the fraction field and converted entry by entry, and an
    entry whose denominator is not a power of x raises ``SwitchError``
    naming its block and position.  The rep itself stays over Frac(F[x])."""
    U, V, q = rep.U, rep.V, rep.q
    Uinv, Vinv = rep.inverses
    identity = Matrix.identity(rep.ring, rep.dim)
    A = Vinv * Uinv
    C = (Uinv + V.scale(q)) * A * (identity - A)
    D = identity.scale(rep.ring.one - q) - Uinv * Vinv
    if not q.is_unit():
        raise SwitchError(f"block C is singular: det = {det_exact(C)!r}")
    if isinstance(rep.ring, FractionField):
        ring = LaurentRing(rep.ring.domain)
        A, U, C, D = [Matrix([[_laurent(ring, e, f"block {name} entry ({i},{j})")
                               for j, e in enumerate(row)]
                              for i, row in enumerate(m.rows)], ring)
                      for name, m in zip("ABCD", (A, U, C, D))]
        q = _laurent(ring, q, "q")
    return LinearSwitch(A, U, C, D, q, label=label or f"weyl({rep.label})",
                        _token=_SWITCH_TOKEN)


def _laurent(ring, e, where):
    """ring(e) for a fraction e; ``SwitchError`` naming where e sits when
    its denominator is not a power of the variable."""
    try:
        return ring(e)
    except ValueError:
        raise SwitchError(f"{where} = {e!r} is not in {ring}: its denominator "
                          f"is not a power of {ring.var}") from None


def burau_switch(t=None, ring=None) -> LinearSwitch:
    """The 1x1-block switch [[0, 1], [t, 1-t]] with Hecke scalar t.

    With no arguments t is the generator of Q[t, t^-1].
    """
    if ring is None:
        ring = LaurentRing(PolynomialRing(QQ, "t"))
    if t is None:
        t = ring.gen
    else:
        t = ring(t)
    if not t.is_unit():
        raise SwitchError(f"Burau parameter must be a unit, got {t!r}")
    one, zero = ring.one, ring.zero
    mk = lambda e: Matrix([[e]], ring)
    return LinearSwitch(mk(zero), mk(one), mk(t), mk(one - t), t, label="burau",
                        _token=_SWITCH_TOKEN)


def sawollek_switch(b, c, ring=None) -> LinearSwitch:
    """[[1 - BC, B], [C, 0]]; for scalar blocks, or matrix blocks with
    BC = CB = cI, the Hecke scalar is c = BC, and C = 1 recovers the Burau
    form with t = B.  Matrix blocks are the caller's, so they pass the
    ``custom_switch`` gate."""
    if isinstance(b, Matrix):
        B, C = b, c
        ring = B.ring
        identity, bc = Matrix.identity(ring, B.nrows), B * C
        scalar = identity.scale(bc.rows[0][0])
        q = bc.rows[0][0] if bc == scalar and C * B == scalar else None
        return custom_switch(identity - bc, B, C, Matrix.zeros(ring, B.nrows), q,
                             label="sawollek")
    if ring is None:
        raise SwitchError("scalar blocks need an explicit ring")
    b, c = ring(b), ring(c)
    mk = lambda e: Matrix([[e]], ring)
    return LinearSwitch(mk(ring.one - b * c), mk(b), mk(c), mk(ring.zero),
                        b * c, label="sawollek", _token=_SWITCH_TOKEN)


def custom_switch(A, B, C, D, q, label="custom") -> LinearSwitch:
    """Assemble and gate on check_switch; axiom failures raise."""
    switch = LinearSwitch(A, B, C, D, q, label=label, _token=_SWITCH_TOKEN)
    check_switch(switch)
    return switch


def check_switch(switch: LinearSwitch) -> None:
    """Exact verification of the braid relation on three blocks and of the
    Hecke quadratic, which at q = 1 is S^2 = I; raises ``SwitchError``
    naming each relation that fails."""
    k = switch.k
    ring = switch.ring
    ik = Matrix.identity(ring, k)
    s = switch.S
    s1 = Matrix.block([[s, Matrix.zeros(ring, 2 * k, k)],
                       [Matrix.zeros(ring, k, 2 * k), ik]])
    s2 = Matrix.block([[ik, Matrix.zeros(ring, k, 2 * k)],
                       [Matrix.zeros(ring, 2 * k, k), s]])
    failures = []
    if s1 * s2 * s1 != s2 * s1 * s2:
        failures.append("braid relation S1 S2 S1 = S2 S1 S2 fails")
    q = switch.q
    if q is not None:
        i2k = Matrix.identity(ring, 2 * k)
        if s * s != s.scale(ring.one - q) + i2k.scale(q):
            failures.append(f"Hecke quadratic fails for q = {q!r}")
    if failures:
        raise SwitchError("switch axioms fail: " + "; ".join(failures))
