import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_linalg import bareiss_det

from weylknots import linalg, switches
from weylknots.linalg import Matrix, det_exact, mat_inverse
from weylknots.reps import (
    BUILTIN_SPECS,
    MatrixRep,
    RepError,
    RepSpec,
    build_rep,
    family_q_bidiagonal,
    family_q_upper,
)
from weylknots.rings import (
    QQ,
    FractionField,
    LaurentRing,
    PolynomialRing,
    PrimeField,
    RationalField,
)
from weylknots.switches import (
    LinearSwitch,
    SwitchError,
    burau_switch,
    sawollek_switch,
    weyl_switch,
)

F7 = PrimeField(7)
L5t = LaurentRing(PolynomialRing(PrimeField(5), "t"))


def _over(ring, m: Matrix) -> Matrix:
    """m with each entry converted by ring(e)."""
    return Matrix([[ring(e) for e in row] for row in m.rows], ring)


def _hecke_holds(S: Matrix, q) -> bool:
    """The Hecke quadratic S^2 = (1-q)S + qI, which at q = 1 is S^2 = I."""
    ring = S.ring
    return S * S == S.scale(ring.one - q) + Matrix.identity(ring, S.nrows).scale(q)


def check_switch(S: Matrix, q) -> None:
    """The axioms oracle: the braid relation on three blocks and the Hecke
    quadratic for q, as exact matrix identities; raises ``AssertionError``
    naming each relation that fails."""
    ring, k = S.ring, S.nrows // 2
    ik = Matrix.identity(ring, k)
    s1 = Matrix.block([[S, Matrix.zeros(ring, 2 * k, k)],
                       [Matrix.zeros(ring, k, 2 * k), ik]])
    s2 = Matrix.block([[ik, Matrix.zeros(ring, k, 2 * k)],
                       [Matrix.zeros(ring, 2 * k, k), S]])
    failures = []
    if s1 * s2 * s1 != s2 * s1 * s2:
        failures.append("braid relation S1 S2 S1 = S2 S1 S2 fails")
    if not _hecke_holds(S, q):
        failures.append(f"Hecke quadratic fails for q = {q!r}")
    assert not failures, "switch axioms fail: " + "; ".join(failures)


def _factorization_inverse(switch: LinearSwitch) -> Matrix:
    """Inverse through the elementary factorization available when
    D = CA'B + I - A'; needs A, C and I - A' invertible over a field, so a
    Laurent switch runs it over Frac(F[x]) and the result is mapped back:
    det(I - A') need not be a unit of F[x, x^-1]."""
    ring = switch.ring
    field = FractionField(ring.poly_ring) if isinstance(ring, LaurentRing) else ring
    A, B, C, D = [_over(field, m) for m in (switch.A, switch.B, switch.C, switch.D)]
    k = switch.k
    ik = Matrix.identity(field, k)
    zk = Matrix.zeros(field, k)
    Ainv = mat_inverse(A)
    if D != C * Ainv * B + ik - Ainv:
        raise SwitchError("factorization path needs the canonical D block")
    m1 = Matrix.block([[ik, -(Ainv * B)], [zk, ik]])
    m2 = Matrix.block([[ik, zk], [zk, mat_inverse(ik - Ainv)]])
    m3 = Matrix.block([[ik, zk], [-C, ik]])
    m4 = Matrix.block([[Ainv, zk], [zk, ik]])
    return _over(ring, m1 * m2 * m3 * m4)


def _seeded_rep(family, seed, n=3, p=101):
    """A member of a rep family with seeded parameters, built from its
    ``RepSpec``; the q-families take q symbolic when p is None."""
    rng = random.Random(seed)
    unit = lambda: rng.randrange(1, p or 10)
    if family == "char_p_bidiagonal":
        mono = lambda: f"{unit()}x^{rng.randrange(-2, 3)}"
        params = {"x": mono(), "y": mono(), "a": [unit() for _ in range(n - 1)]}
    elif family == "truncated":
        params = {"i": [unit(), unit()] + [rng.randrange(p) for _ in range(n - 2)],
                  "j": [rng.randrange(p) for _ in range(n)]}
    else:
        params = {"q": "q" if p is None else rng.randrange(2, p)}
        if family == "q_bidiagonal":
            params.update(a=unit(), b=[unit() for _ in range(n - 1)])
        else:
            params.update(zip("abde", (unit(), unit(), unit(), unit())))
    return RepSpec(family, n=n, p=p, params=params).build()


WEYL_REPS = {
    "kishino3": lambda: build_rep("kishino3"),
    "flat2": lambda: build_rep("flat2"),
    "q_upper-zp": lambda: family_q_upper(3, q=3, a=2, b=1, d=1, e=1, p=7),
    "q_bidiagonal-zp": lambda: family_q_bidiagonal(3, q=2, a=1, b=[1, 3], p=101),
    "q_upper-symbolic": lambda: family_q_upper(3, q="q", a=3, b=2, d=1, e=5),
    "q_bidiagonal-symbolic": lambda: family_q_bidiagonal(2, q="q", a=2, b=[1]),
}

# Seeded members of all four families, whose switches declare q unchecked
SEEDED_REPS = {
    **{f"{family}-n{n}-{'symbolic' if p is None else f'mod{p}'}":
       (lambda family=family, n=n, p=p: _seeded_rep(family, n, n=n, p=p))
       for family in ("q_bidiagonal", "q_upper") for n in range(2, 6)
       for p in (None, 101)},
    **{f"{family}-n{n}-p{p}":
       (lambda family=family, n=n, p=p: _seeded_rep(family, n, n=n, p=p))
       for family in ("char_p_bidiagonal", "truncated")
       for n, p in ((2, 2), (3, 3), (4, 2))},
}
ALL_REPS = {**WEYL_REPS, **SEEDED_REPS}

# Scalar Sawollek switches (b, c, ring); b c = 15 = 1 over Z_7 gives q = 1
SAWOLLEK_SCALARS = ((2, 3, F7), (2, 5, QQ), (3, 5, F7))


def _sawollek_blocks():
    """B = [[t, 1], [0, t]] and C = [[t, -1], [0, t]] over Z_5[t, t^-1],
    with BC = CB = t^2 I."""
    t = L5t.gen
    return (Matrix([[t, L5t.one], [L5t.zero, t]]),
            Matrix([[t, -L5t.one], [L5t.zero, t]]))


class TestCheckSwitch:
    """Every factory's switch passes the axioms oracle, so is_flat(), which
    reads q = 1, needs no S^2 = I product of its own."""

    def test_burau(self):
        for ring in (None, L5t):
            s = burau_switch(ring=ring)
            check_switch(s.S, s.q)
            assert not s.is_flat() and not (s.S * s.S).is_identity()

    def test_scalar_sawollek(self):
        for b, c, ring in SAWOLLEK_SCALARS:
            s = sawollek_switch(b, c, ring=ring)
            check_switch(s.S, s.q)
            assert s.is_flat() == (s.S * s.S).is_identity() == (s.q == ring.one)

    def test_matrix_sawollek(self):
        B, C = _sawollek_blocks()
        s = sawollek_switch(B, C)
        check_switch(s.S, s.q)
        assert s.q == L5t.gen ** 2
        assert (s.B, s.C, s.D) == (B, C, Matrix.zeros(L5t, 2))

    @pytest.mark.parametrize("name", sorted(ALL_REPS))
    def test_weyl(self, name):
        s = weyl_switch(ALL_REPS[name]())
        check_switch(s.S, s.q)
        assert s.is_flat() == (s.S * s.S).is_identity()

    def test_flat2_is_involutive(self):
        s = weyl_switch(build_rep("flat2"))
        assert s.is_flat() and (s.S * s.S).is_identity()

    def test_perturbed_block_fails(self):
        s = weyl_switch(build_rep("kishino3"))
        ring = s.ring
        bump = Matrix([[ring.one if (i, j) == (0, 0) else ring.zero
                        for j in range(s.k)] for i in range(s.k)], ring)
        S = Matrix.block([[s.A, s.B], [s.C + bump, s.D]])
        with pytest.raises(AssertionError, match="axioms fail: braid relation"):
            check_switch(S, s.q)

    def test_direct_construction_refused(self):
        s = burau_switch()
        with pytest.raises(TypeError, match="weyl_switch, burau_switch or sawollek"):
            LinearSwitch(s.A, s.B, s.B, s.q, label="burau")

    def test_non_commuting_sawollek_blocks_rejected(self):
        # BC = 0 but CB != 0: no Hecke scalar, and no switch
        B = Matrix([[F7(0), F7(1)], [F7(0), F7(0)]])
        C = Matrix([[F7(1), F7(0)], [F7(0), F7(0)]])
        with pytest.raises(SwitchError, match=r"CB = \[\[0, 1\], \[0, 0\]\]"):
            sawollek_switch(B, C)


class TestSawollekBlocks:
    """sawollek_switch refuses, when it is built, any blocks without
    BC = CB = qI for a unit q."""

    def test_non_scalar_bc_rejected(self):
        # B and C commute, but BC = diag(2, 6) is not scalar
        B = Matrix([[F7(2), F7(0)], [F7(0), F7(3)]])
        C = Matrix([[F7(1), F7(0)], [F7(0), F7(2)]])
        with pytest.raises(SwitchError, match=r"BC = \[\[2, 0\], \[0, 6\]\]"):
            sawollek_switch(B, C)

    def test_bc_differs_from_cb(self):
        # BC = [1] is scalar with a unit q, but CB is 2 x 2 of rank 1
        B = Matrix([[F7(1), F7(0)]])
        C = Matrix([[F7(1)], [F7(0)]])
        with pytest.raises(SwitchError, match=r"CB = \[\[1, 0\], \[0, 0\]\]"):
            sawollek_switch(B, C)

    def test_non_unit_q_rejected(self):
        # BC = CB = 0, so q = 0
        B = Matrix([[F7(0), F7(0)], [F7(0), F7(3)]])
        C = Matrix([[F7(1), F7(0)], [F7(0), F7(0)]])
        with pytest.raises(SwitchError, match=r"q a unit: BC = \[\[0, 0\], \[0, 0\]\]"):
            sawollek_switch(B, C)

    def test_matrix_with_scalar_rejected(self):
        B, _ = _sawollek_blocks()
        with pytest.raises(SwitchError, match="both be matrices or both be scalars"):
            sawollek_switch(B, 2, ring=L5t)

    def test_scalars_need_a_ring(self):
        with pytest.raises(SwitchError, match="explicit ring"):
            sawollek_switch(2, 3)


class TestFundamentalRelation:
    """C and D are the paper's forms, read off the fundamental relation."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(1, 3), st.data())
    def test_hecke_quadratic_for_any_blocks(self, p, k, data):
        # S^2 = (1-q)S + qI for any A, invertible B and unit q; without its
        # (1-q)I term D breaks the quadratic whenever q != 1
        field = PrimeField(p)
        entries = st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                           min_size=k, max_size=k)
        A, B = [Matrix([[field(e) for e in row] for row in data.draw(entries)], field)
                for _ in range(2)]
        assume(not det_exact(B).is_zero())
        q = field(data.draw(st.integers(1, p - 1)))
        s = LinearSwitch(A, B, mat_inverse(B), q, "random",
                         _token=switches._SWITCH_TOKEN)
        assert _hecke_holds(s.S, q)
        mutant_d = s.D - Matrix.identity(field, k).scale(field.one - q)
        mutant = Matrix.block([[s.A, s.B], [s.C, mutant_d]])
        assert _hecke_holds(mutant, q) == q.is_one()

    @pytest.mark.parametrize("name", sorted(WEYL_REPS))
    def test_weyl_blocks_are_the_papers_forms(self, name):
        # C = A'B'A(I - A) and D = I - A'B'AB, over Frac(F[x]) for a
        # Laurent switch: A^-1 = UV need not be Laurent
        s = weyl_switch(WEYL_REPS[name]())
        ring = s.ring
        field = FractionField(ring.poly_ring) if isinstance(ring, LaurentRing) else ring
        A, B, C, D = [_over(field, m) for m in (s.A, s.B, s.C, s.D)]
        identity = Matrix.identity(field, s.k)
        a_b_a = mat_inverse(A) * mat_inverse(B) * A
        assert C == a_b_a * (identity - A)
        assert D == identity - a_b_a * B

    def test_pinned_burau(self):
        for ring in (LaurentRing(PolynomialRing(QQ, "t")), L5t):
            t = ring.gen
            assert burau_switch(ring=ring).S == Matrix([[ring.zero, ring.one],
                                                        [t, ring.one - t]], ring)

    @pytest.mark.parametrize("b, c, ring, pinned, flat", [
        (2, 5, QQ, [[-9, 2], [5, 0]], False),
        (2, 3, F7, [[2, 2], [3, 0]], False),
        (3, 5, F7, [[0, 3], [5, 0]], True),
    ], ids=["Q", "F7", "F7-flat"])
    def test_pinned_scalar_sawollek(self, b, c, ring, pinned, flat):
        s = sawollek_switch(b, c, ring=ring)
        assert s.S == Matrix([[ring(e) for e in row] for row in pinned], ring)
        assert s.q == ring(b * c)
        assert s.is_flat() == flat


class TestEntryKinds:
    """Every switch factory gives blocks over Z_p, Q or a Laurent ring; a
    rep over Frac(F[x]) gives its switch over F[x, x^-1]."""

    KINDS = (PrimeField, RationalField, LaurentRing)

    @pytest.mark.parametrize("name", sorted(ALL_REPS))
    def test_weyl_switch(self, name):
        assert isinstance(weyl_switch(ALL_REPS[name]()).ring, self.KINDS)

    def test_builtin_reps(self):
        for name in BUILTIN_SPECS:
            assert isinstance(weyl_switch(build_rep(name)).ring, LaurentRing)

    def test_burau_and_sawollek(self):
        switches = [burau_switch(), burau_switch(ring=L5t),
                    sawollek_switch(L5t.gen, 2, ring=L5t),
                    sawollek_switch(*_sawollek_blocks())]
        switches += [sawollek_switch(b, c, ring=ring) for b, c, ring in SAWOLLEK_SCALARS]
        for s in switches:
            assert isinstance(s.ring, self.KINDS), s
            assert (s.S * s.inverse()).is_identity(), s


class TestWorkCounts:
    """The rep gate eliminates U and V once each; weyl_switch reuses those
    inverses in four products, and inverse() and is_flat() read q."""

    @pytest.fixture
    def counts(self, monkeypatch):
        count = {"elim": 0, "mul": 0}
        for name in ("_laurent_smith", "_gaussian_pass"):
            def counted(*args, _run=getattr(linalg, name)):
                count["elim"] += 1
                return _run(*args)
            monkeypatch.setattr(linalg, name, counted)
        mul = Matrix.__mul__

        def counted_mul(self, other):
            count["mul"] += 1
            return mul(self, other)
        monkeypatch.setattr(Matrix, "__mul__", counted_mul)
        return count

    @pytest.mark.parametrize("name", sorted(WEYL_REPS))
    def test_switch_runs_no_elimination(self, counts, name):
        rep = WEYL_REPS[name]()
        assert counts["elim"] == 2
        counts.update(elim=0, mul=0)
        s = weyl_switch(rep)
        # A = V'U', then with B = U: B'A, C = (qB' + B'A)(I - A) and
        # D = (1-q)I - (B'A)B
        assert counts == {"elim": 0, "mul": 4}
        counts["mul"] = 0
        s.inverse()
        s.is_flat()
        assert counts == {"elim": 0, "mul": 0}


class TestInverse:
    @pytest.mark.parametrize("name", sorted(ALL_REPS))
    def test_matches_reference_inverses(self, name):
        switch = weyl_switch(ALL_REPS[name]())
        inv = switch.inverse()
        assert inv == _factorization_inverse(switch)
        assert inv == mat_inverse(switch.S)

    def test_burau_inverse(self):
        for ring in (None, L5t):
            switch = burau_switch(ring=ring)
            assert switch.inverse() == mat_inverse(switch.S)

    def test_scalar_sawollek_inverse(self):
        for b, c, ring in SAWOLLEK_SCALARS:
            switch = sawollek_switch(b, c, ring=ring)
            assert switch.inverse() == mat_inverse(switch.S)

    def test_wrong_hecke_scalar_raises(self):
        s = burau_switch(ring=L5t)
        t = L5t.gen
        with pytest.raises(AssertionError, match="Hecke quadratic fails"):
            check_switch(s.S, t * t)


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
        # a symbolic rep's switch is over Q[q, q^-1], its rep over Frac(Q[q])
        assert rep.ring(bareiss_det(s.C)) * bareiss_det(rep.U) == rep.q ** n

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
        with pytest.raises(SwitchError, match=r"block C is singular: det = 0"):
            weyl_switch(rep)

    @pytest.mark.parametrize("name", sorted(n for n in ALL_REPS if "symbolic" in n))
    def test_symbolic_reps_give_laurent_switches(self, name):
        # the rep stays over Frac(Q[q]): tr(UV) = n / (1 - q)
        rep = ALL_REPS[name]()
        s = weyl_switch(rep)
        assert rep.ring == FractionField(PolynomialRing(QQ, "q"))
        assert s.ring == LaurentRing(PolynomialRing(QQ, "q"))
        assert s.q == s.ring.gen

    def test_non_monomial_denominator_names_block_and_entry(self):
        # U = [q + 1]: A is Laurent, U^-1 is the first block that is not
        rep = family_q_upper(1, q="q", a="q + 1", b=1, d=1, e=1)
        with pytest.raises(SwitchError,
                           match=r"block B\^-1 entry \(0,0\) = 1/\(q \+ 1\) is not in Q\[q,q\^-1\]"):
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
            rep = _seeded_rep(family, int(seed))
        U, V = rep.U, rep.V
        Uinv, Vinv = mat_inverse(U), mat_inverse(V)
        word = (U * V * Uinv * Vinv * Uinv * Vinv * Uinv * V * U).scale(rep.q)
        switch = weyl_switch(rep)
        assert switch.C == _over(switch.ring, word)
