"""Linear switches: 2x2 block solutions of the braid relation.

A linear switch is the block matrix S = [[A, B], [C, D]] acting on pairs
of k-dimensional strand blocks (Budden-Fenn).  The paper's fundamental
relation A'B'AB - B'AB = BA'B'A - A, with both sides qI, gives
A'B'A = qB' + B'A, and so fixes the lower blocks from A, B^-1 and q:

    C = (qB' + B'A)(I - A),    D = (1 - q)I - B'AB.

``LinearSwitch`` forms C and D this way for every switch; no A^-1
appears, so A may be singular.  For any A, invertible B and scalar q the
result satisfies the Hecke quadratic S^2 = (1-q)S + qI, which at q = 1 is
S^2 = I: a flat switch is one with q = 1.  Each factory supplies blocks
whose braid relation holds by its own algebra:

- ``weyl_switch``: (V'U', U, U', q), where ``MatrixRep`` enforces
  UV - qVU = I (``hecke-scalar`` in ``weyl.IDENTITY_SUITE``) and keeps U^-1;
- ``burau_switch``: (0, 1, 1, t);
- ``sawollek_switch``: (I - BC, B, C/q, q) for BC = CB = qI.

In each, det(B) det(C) = q^k, and q must be a unit.  So ``inverse`` is the
closed form S^-1 = q^-1(S - (1-q)I) and ``is_flat`` reads q, neither with
a check.  ``tests/test_switches.py`` verifies the braid relation and the
quadratic for every factory.

A symbolic rep lives over Frac(Q[q]), since tr(UV - qVU) = n forces
tr(UV) = n / (1 - q).  Its switch does not: for the q-families every
entry of S and S^-1 has a power of q as its denominator, so
``weyl_switch`` moves A, U, U^-1 and q to Q[q, q^-1] before C and D are
formed.  Braids are then represented on raw Laurent values and the
closure yields its elementary ideals, the q-Alexander invariants.  An
entry with any other denominator raises ``SwitchError``; no switch is
built over a fraction field.
"""

from __future__ import annotations

from .linalg import Matrix, det_exact
from .reps import MatrixRep
from .rings import QQ, FractionField, LaurentRing, PolynomialRing, RingError


class SwitchError(RingError):
    """Switch construction failure."""


class LinearSwitch:
    """The switch of (A, B, B^-1, q): k x k blocks A, B over one ring, the
    lower blocks C = (qB' + B'A)(I - A) and D = (1 - q)I - B'AB of the
    fundamental relation, the assembled 2k x 2k matrix S and the Hecke
    scalar q, a unit.  Built only by the factories below."""

    def __init__(self, A, B, B_inv, q, label, _token=None):
        if _token is not _SWITCH_TOKEN:
            raise TypeError("build switches with weyl_switch, burau_switch "
                            "or sawollek_switch")
        ring, identity = A.ring, Matrix.identity(A.ring, A.nrows)
        b_inv_a = B_inv * A
        C = (B_inv.scale(q) + b_inv_a) * (identity - A)
        D = identity.scale(ring.one - q) - b_inv_a * B
        if not q.is_unit():
            raise SwitchError(f"block C is singular: det = {det_exact(C)!r}")
        self.A, self.B, self.C, self.D = A, B, C, D
        self.q = q
        self.k = A.nrows
        self.ring = ring
        self.label = label
        self.S = Matrix.block([[A, B], [C, D]])
        self._S_inv = None

    def is_flat(self) -> bool:
        """q = 1, where the Hecke quadratic is S^2 = I."""
        return self.q.is_one()

    def inverse(self) -> Matrix:
        """S^-1 = q^-1 (S - (1-q)I), from the Hecke quadratic."""
        if self._S_inv is None:
            ring, q = self.ring, self.q
            shift = Matrix.identity(ring, 2 * self.k).scale(ring.one - q)
            self._S_inv = (self.S - shift).scale(ring.one.exact_div(q))
        return self._S_inv

    def __repr__(self):
        return f"LinearSwitch({self.label}, k={self.k}, ring={self.ring})"


_SWITCH_TOKEN = object()


def weyl_switch(rep: MatrixRep, label=None) -> LinearSwitch:
    """The canonical switch of a representation: (V'U', U, U', q), from the
    U^-1 and V^-1 that ``MatrixRep`` keeps.  UV - I = qVU gives
    det(C) = q^n / det(U), so q must be a unit.

    A rep over Frac(F[x]) gives a switch over F[x, x^-1]: A, U, U^-1 and q
    are converted entry by entry, and an entry whose denominator is not a
    power of x raises ``SwitchError`` naming its block and position.  With
    A and U Laurent, C is Laurent exactly when U^-1 is, since
    det(C) det(U) = q^n.  The rep itself stays over Frac(F[x])."""
    Uinv, Vinv = rep.inverses
    blocks, q = (Vinv * Uinv, rep.U, Uinv), rep.q
    if isinstance(rep.ring, FractionField):
        ring = LaurentRing(rep.ring.domain)
        blocks = [Matrix([[_laurent(ring, e, f"block {name} entry ({i},{j})")
                           for j, e in enumerate(row)]
                          for i, row in enumerate(m.rows)], ring)
                  for name, m in zip(("A", "B", "B^-1"), blocks)]
        q = _laurent(ring, q, "q")
    return LinearSwitch(*blocks, q, label=label or f"weyl({rep.label})",
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
    """[[0, 1], [t, 1-t]] with Hecke scalar t: the 1x1 switch of (0, 1, 1, t).

    With no arguments t is the generator of Q[t, t^-1].
    """
    if ring is None:
        ring = LaurentRing(PolynomialRing(QQ, "t"))
    t = ring.gen if t is None else ring(t)
    one = Matrix.identity(ring, 1)
    return LinearSwitch(Matrix.zeros(ring, 1), one, one, t, label="burau",
                        _token=_SWITCH_TOKEN)


def sawollek_switch(b, c, ring=None) -> LinearSwitch:
    """[[I - BC, B], [C, 0]] with Hecke scalar q, for blocks with
    BC = CB = qI and q a unit: the switch of (I - BC, B, C/q, q).  Scalars
    b and c, in ``ring``, are 1x1 blocks; any other pair of blocks raises
    ``SwitchError``."""
    if not isinstance(b, Matrix) and not isinstance(c, Matrix):
        if ring is None:
            raise SwitchError("scalar blocks need an explicit ring")
        b, c = Matrix([[ring(b)]], ring), Matrix([[ring(c)]], ring)
    elif not (isinstance(b, Matrix) and isinstance(c, Matrix)):
        raise SwitchError("b and c must both be matrices or both be scalars")
    bc, cb = b * c, c * b
    q = bc.rows[0][0]
    identity = Matrix.identity(bc.ring, bc.nrows)
    if bc != identity.scale(q) or cb != bc or not q.is_unit():
        raise SwitchError(f"sawollek blocks need BC = CB = qI with q a unit: "
                          f"BC = {bc!r}, CB = {cb!r}")
    return LinearSwitch(identity - bc, b, c.scale(bc.ring.one.exact_div(q)), q,
                        label="sawollek", _token=_SWITCH_TOKEN)
