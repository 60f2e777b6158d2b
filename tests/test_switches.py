import random

import pytest
from test_linalg import bareiss_det

from weylknots.linalg import Matrix, mat_inverse
from weylknots.reps import (
    MatrixRep,
    RepError,
    build_rep,
    family_q_bidiagonal,
    family_q_upper,
    validate_rep,
)
from weylknots.rings import LaurentRing, PolynomialRing, PrimeField
from weylknots.switches import (
    LinearSwitch,
    SwitchError,
    burau_switch,
    check_switch,
    custom_switch,
    sawollek_switch,
    weyl_switch,
)

F7 = PrimeField(7)
L5t = LaurentRing(PolynomialRing(PrimeField(5), "t"))


def _factorization_inverse(switch: LinearSwitch) -> Matrix:
    """Inverse through the elementary factorization available when
    D = CA'B + I - A'; needs A, C and I - A' invertible."""
    ring = switch.ring
    k = switch.k
    ik = Matrix.identity(ring, k)
    zk = Matrix.zeros(ring, k)
    Ainv = mat_inverse(switch.A)
    if switch.D != switch.C * Ainv * switch.B + ik - Ainv:
        raise SwitchError("factorization path needs the canonical D block")
    m1 = Matrix.block([[ik, -(Ainv * switch.B)], [zk, ik]])
    m2 = Matrix.block([[ik, zk], [zk, mat_inverse(ik - Ainv)]])
    m3 = Matrix.block([[ik, zk], [-switch.C, ik]])
    m4 = Matrix.block([[Ainv, zk], [zk, ik]])
    return m1 * m2 * m3 * m4


def _seeded_q_rep(family, seed, p=101):
    """A Z_p member of a q-family with seeded parameters."""
    rng = random.Random(seed)
    unit = lambda: rng.randrange(1, p)
    q = rng.randrange(2, p)
    if family == "q_bidiagonal":
        return family_q_bidiagonal(3, q, unit(), [unit(), unit()], p=p)
    return family_q_upper(3, q, unit(), unit(), unit(), unit(), p=p)


WEYL_REPS = {
    "kishino3": lambda: build_rep("kishino3"),
    "flat2": lambda: build_rep("flat2"),
    "q_upper-zp": lambda: family_q_upper(3, q=3, a=2, b=1, d=1, e=1, p=7),
    "q_bidiagonal-zp": lambda: family_q_bidiagonal(3, q=2, a=1, b=[1, 3], p=101),
    "q_upper-symbolic": lambda: family_q_upper(3, q="q", a=3, b=2, d=1, e=5),
    "q_bidiagonal-symbolic": lambda: family_q_bidiagonal(2, q="q", a=2, b=[1]),
}


class TestCheckSwitch:
    def test_burau(self):
        assert check_switch(burau_switch()).ok

    def test_scalar_sawollek(self):
        switch = sawollek_switch(2, 3, ring=F7)
        report = check_switch(switch)
        assert report.ok and report.hecke

    @pytest.mark.parametrize("name", sorted(WEYL_REPS))
    def test_weyl(self, name):
        report = check_switch(weyl_switch(WEYL_REPS[name]()))
        assert report.ok, report.describe()
        assert report.hecke

    def test_flat2_is_involutive(self):
        report = check_switch(weyl_switch(build_rep("flat2")))
        assert report.involution

    def test_perturbed_block_fails(self):
        s = weyl_switch(build_rep("kishino3"))
        ring = s.ring
        bump = Matrix([[ring.one if (i, j) == (0, 0) else ring.zero
                        for j in range(s.k)] for i in range(s.k)], ring)
        blocks = (s.A, s.B, s.C + bump, s.D)
        report = check_switch(LinearSwitch(*blocks, s.q))
        assert not report.ok
        assert "braid relation" in report.describe()
        with pytest.raises(SwitchError, match="axioms fail"):
            custom_switch(*blocks, s.q)


class TestInverse:
    @pytest.mark.parametrize("name", sorted(WEYL_REPS))
    def test_matches_reference_inverses(self, name):
        switch = weyl_switch(WEYL_REPS[name]())
        inv = switch.inverse()
        assert inv == _factorization_inverse(switch)
        assert inv == mat_inverse(switch.S)

    def test_burau_inverse(self):
        switch = burau_switch()
        assert switch.inverse() == mat_inverse(switch.S)

    def test_fallback_without_q(self):
        # B and C commute, BC = diag(2, 6) is not scalar: no Hecke scalar
        B = Matrix([[F7(2), F7(0)], [F7(0), F7(3)]])
        C = Matrix([[F7(1), F7(0)], [F7(0), F7(2)]])
        switch = sawollek_switch(B, C)
        assert switch.q is None
        assert check_switch(switch).ok
        inv = switch.inverse()
        assert inv == mat_inverse(switch.S)
        assert (switch.S * inv).is_identity()

    def test_singular_switch_without_q(self):
        B = Matrix([[F7(0), F7(0)], [F7(0), F7(3)]])
        C = Matrix([[F7(1), F7(0)], [F7(0), F7(2)]])
        with pytest.raises(SwitchError, match="singular"):
            sawollek_switch(B, C).inverse()

    def test_wrong_hecke_scalar_raises(self):
        s = burau_switch(ring=L5t)
        t = L5t.gen
        switch = LinearSwitch(s.A, s.B, s.C, s.D, t * t)
        assert check_switch(switch).hecke is False
        with pytest.raises(SwitchError, match="Hecke quadratic fails"):
            switch.inverse()


class TestWeylSwitch:
    @pytest.mark.parametrize("p", [None, 101], ids=["symbolic", "mod101"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["q_bidiagonal", "q_upper"])
    def test_det_c_is_q_to_the_n_over_det_u(self, family, n, p):
        # weyl_switch tests q for a unit in place of det(C)
        if family == "q_bidiagonal":
            rep = family_q_bidiagonal(n, "q" if p is None else 3, 2,
                                      list(range(1, n)), p=p)
        else:
            rep = family_q_upper(n, "q" if p is None else 3, 2, 3, 1, 5, p=p)
        s = weyl_switch(rep)
        assert bareiss_det(s.C) * bareiss_det(rep.U) == rep.q ** n

    @pytest.mark.parametrize("name", ["kishino3", "flat2"])
    def test_det_c_is_q_to_the_n_over_det_u_builtin(self, name):
        rep = build_rep(name)
        s = weyl_switch(rep)
        assert bareiss_det(s.C) * bareiss_det(rep.U) == rep.q ** rep.dim

    def test_singular_c_names_its_determinant(self):
        # UV - qVU = I forces UV - I = qVU, so det(C) = q^n / det(U) and no
        # member of q_bidiagonal has a singular C.  With q = 0 the pair in
        # q_bidiagonal's shape has V = U^-1 and UV - I = 0.
        U = Matrix([[F7(2), F7(0)], [F7(3), F7(1)]])
        rep = MatrixRep(U, mat_inverse(U), F7(0), label="q_bidiagonal-shape")
        assert validate_rep(rep).ok
        with pytest.raises(SwitchError, match=r"block C is singular: det = 0"):
            weyl_switch(rep)

    def test_invalid_rep_rejected(self):
        # weyl_switch takes a MatrixRep, whose constructor is the gate
        i2 = Matrix.identity(F7, 2)
        with pytest.raises(RepError, match=r"UV - qVU != I at entry \(0,0\)"):
            MatrixRep(i2, i2, F7(2))

    @pytest.mark.parametrize("name", sorted(WEYL_REPS) + [
        f"{family}-seed{seed}" for family in ("q_bidiagonal", "q_upper")
        for seed in range(4)])
    def test_c_is_the_scaled_nine_letter_word(self, name):
        if name in WEYL_REPS:
            rep = WEYL_REPS[name]()
        else:
            family, seed = name.split("-seed")
            rep = _seeded_q_rep(family, int(seed))
        U, V = rep.U, rep.V
        Uinv, Vinv = mat_inverse(U), mat_inverse(V)
        word = (U * V * Uinv * Vinv * Uinv * Vinv * Uinv * V * U).scale(rep.q)
        assert weyl_switch(rep).C == word
