import pytest

from weylknots.linalg import Matrix, det_exact
from weylknots.reps import (
    BUILTIN_SPECS,
    DIMENSION_BUDGET,
    MatrixRep,
    RepError,
    RepSpec,
    build_rep,
    family_char_p_bidiagonal,
    family_q_bidiagonal,
    family_q_upper,
    family_truncated,
    truncated_k_sequence,
)
from weylknots.rings import (
    QQ,
    FractionField,
    LaurentRing,
    PolynomialRing,
    PrimeField,
)

F2, F3, F7 = PrimeField(2), PrimeField(3), PrimeField(7)
L3y = LaurentRing(PolynomialRing(F3, "y"))
L2x = LaurentRing(PolynomialRing(F2, "x"))


def lmat(ring, rows):
    return Matrix([[ring(e) for e in row] for row in rows], ring)


class TestValidate:
    def test_kishino_pair_is_valid(self):
        u = lmat(L3y, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        v = lmat(L3y, [["y", 0, 0], [1, "y", 0], [0, 2, "y"]])
        MatrixRep(u, v, L3y.one)

    def test_flat_pair_is_valid(self):
        u = lmat(L2x, [["x", 1], [0, "x"]])
        v = lmat(L2x, [[1, 0], [1, 1]])
        MatrixRep(u, v, L2x.one)

    def test_identity_pair_invalid(self):
        i2 = Matrix.identity(L2x, 2)
        with pytest.raises(RepError, match=r"UV - qVU != I at entry \(0,0\)"):
            MatrixRep(i2, i2, L2x.one)

    def test_non_unit_determinant_rejected(self):
        # flat2 with diagonal x + 1: UV - VU = I still holds over
        # Z_2[x, x^-1], but det(U) = (x + 1)^2 is not a unit there
        u = lmat(L2x, [["x + 1", 1], [0, "x + 1"]])
        v = lmat(L2x, [[1, 0], [1, 1]])
        with pytest.raises(RepError, match=r"det\(U\) = x\^2 \+ 1 is not a unit"):
            MatrixRep(u, v, L2x.one)

    def test_relation_and_determinant_failures_in_one_error(self):
        # U = (x + 1)I commutes with V = I, so UV - VU = 0, and
        # det(U) = (x + 1)^2 is not a unit over Z_2[x, x^-1]
        u = lmat(L2x, [["x + 1", 0], [0, "x + 1"]])
        with pytest.raises(RepError, match=r"^pair: UV - qVU != I at entry \(0,0\): "
                           r"got 0; det\(U\) = x\^2 \+ 1 is not a unit$"):
            MatrixRep(u, Matrix.identity(L2x, 2), L2x.one, label="pair")

    def test_first_failure_in_row_major_order(self):
        # over Z_7 with q = 3, UV - qVU = [[1, 5], [3, 2]]: (0,0) holds, and
        # (0,1) comes before (1,0) in row-major order
        u = lmat(F7, [[0, 1], [2, 0]])
        v = lmat(F7, [[1, 1], [0, 1]])
        with pytest.raises(RepError, match=r"^z7: UV - qVU != I at entry \(0,1\): got 5$"):
            MatrixRep(u, v, F7(3), label="z7")

    def test_char0_q1_guard(self):
        ring = LaurentRing(PolynomialRing(QQ, "t"))
        i2 = Matrix.identity(ring, 2)
        with pytest.raises(RepError, match="trace"):
            MatrixRep(i2, i2, ring.one)

    def test_q1_guard_reads_n_in_the_entry_ring(self):
        # trace(UV - VU) = 0, so q = 1 needs n = 0 in the ring: 2 = 0 in
        # Z_2 but not in Z_3 or Frac(Q[q])
        for ring in (F3, FractionField(PolynomialRing(QQ, "q"))):
            i2 = Matrix.identity(ring, 2)
            with pytest.raises(RepError, match=r"trace\(I\) = 2"):
                MatrixRep(i2, i2, ring.one)
        with pytest.raises(RepError, match="UV - qVU != I"):
            MatrixRep(Matrix.identity(F2, 2), Matrix.identity(F2, 2), F2.one)


class TestCharPBidiagonal:
    def test_kishino_matrices(self):
        rep = family_char_p_bidiagonal(3, 3, "1", "y", ["1", "1"])
        assert rep.U == lmat(L3y, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert rep.V == lmat(L3y, [["y", 0, 0], [1, "y", 0], [0, 2, "y"]])

    def test_flat2_matrices(self):
        rep = family_char_p_bidiagonal(2, 2, "x", "1", ["1"])
        assert rep.U == lmat(L2x, [["x", 1], [0, "x"]])
        assert rep.V == lmat(L2x, [[1, 0], [1, 1]])

    def test_characteristic_guard(self):
        with pytest.raises(RepError, match="divide"):
            family_char_p_bidiagonal(3, 2, "x", "1", ["1", "1"])

    def test_zero_parameter_guard(self):
        with pytest.raises(RepError, match="nonzero"):
            family_char_p_bidiagonal(2, 2, "0", "1", ["1"])

    @pytest.mark.parametrize("build", [
        lambda: family_char_p_bidiagonal(2, 2, "x", "y", ["1"]),
        lambda: family_truncated(2, 2, ["1", "x"], ["y"]),
    ], ids=["char_p_bidiagonal", "truncated"])
    def test_two_indeterminates_rejected(self, build):
        with pytest.raises(RepError, match=r"one indeterminate, got \['x', 'y'\]"):
            build()

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3)])
    def test_symbolic_family_members(self, n, p):
        a = [str(i + 1) if (i + 1) % p else "1" for i in range(n - 1)]
        family_char_p_bidiagonal(n, p, "x", "1", a)


class TestTruncated:
    def test_k_sequence_formulas(self):
        # k_1 = -2 i_2 i_1^-2 and k_2 = (4 i_2^2 - 3 i_1 i_3) i_1^-3
        ring = LaurentRing(PolynomialRing(F7, "x"))
        i1, i2, i3 = 2, 3, 5
        ivals = [ring(c) for c in (1, i1, i2, i3)]
        k = truncated_k_sequence(ivals, 3)
        inv = pow(i1, 5, 7)
        assert k[0] == ring(inv)
        assert k[1] == ring(-2 * i2 * inv * inv)
        assert k[2] == ring((4 * i2 * i2 - 3 * i1 * i3) * pow(inv, 3, 7))

    def test_n2_p2_displayed_orientation(self):
        rep = family_truncated(2, 2, [1, 1], [1])
        assert rep.V == lmat(L2x, [[1, 1], [0, 1]])

    def test_singular_u_rejected(self):
        # J = 0 makes u singular, which the determinant condition rejects
        with pytest.raises(RepError, match=r"det\(U\) = 0 is not a unit"):
            family_truncated(2, 2, [1, 1], [0])

    def test_i1_zero_rejected(self):
        with pytest.raises(RepError, match="i_0 and i_1"):
            family_truncated(2, 2, [1, 0], [1])

    def test_odd_characteristic_uses_transpose(self):
        # row layout u[r][c] = j_(c-r) + r k_(c-r+1), v[r][c] = i_(c-r)
        # with k = (1, 1, 1); it gives UV - VU = -I over Z_3
        ring = LaurentRing(PolynomialRing(F3, "x"))
        u_rows = lmat(ring, [[0, 1, 0], [1, 1, 2], [0, 2, 2]])
        v_rows = lmat(ring, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        with pytest.raises(RepError, match=r"UV - qVU != I at entry \(0,0\)"):
            MatrixRep(u_rows, v_rows, ring.one)
        rep = family_truncated(3, 3, [1, 1, 1], [0, 1, 0])
        assert rep.U == u_rows.transpose() and rep.V == v_rows.transpose()


class TestQBidiagonal:
    def test_n2_numeric(self):
        family_q_bidiagonal(2, q=3, a=2, b=[1], p=7)

    def test_n3_symbolic_q(self):
        rep = family_q_bidiagonal(3, q="q", a=1, b=[1, 1])
        dom = PolynomialRing(QQ, "q")
        assert rep.ring == FractionField(dom)

    def test_symbolic_members_up_to_6(self):
        for n in range(2, 7):
            family_q_bidiagonal(n, q="q", a=2, b=[1] * (n - 1))

    def test_q_one_rejected(self):
        with pytest.raises(RepError, match="1 - q"):
            family_q_bidiagonal(2, q=1, a=1, b=[1], p=5)

    def test_indeterminate_needs_symbolic_q(self):
        with pytest.raises(RepError, match=r"indeterminate parameters \['q'\] need p=None"):
            family_q_bidiagonal(2, q="q", a=1, b=[1], p=5)

    def test_unsolvable_recurrence(self):
        # q = -1 makes the closing equation singular for n = 2
        with pytest.raises(RepError, match="unsolvable"):
            family_q_bidiagonal(2, q=4, a=1, b=[1], p=5)

    def test_printed_beta_formula_differs_from_solved(self):
        # the paper's closed form for beta_i is misprinted:
        # sum_{e=n-2i}^{n-i-1} q^e - sum_{e=1-i}^{-1} q^e
        for n in range(2, 6):
            rep = family_q_bidiagonal(n, q="q", a=1, b=[1] * (n - 1))
            q, one = rep.q, rep.ring.one
            for i in range(1, n):
                printed = rep.ring.zero
                for e in range(n - 2 * i, n - i):
                    printed = printed + (q ** e if e >= 0 else one / q ** (-e))
                for e in range(1 - i, 0):
                    printed = printed - one / q ** (-e)
                solved = rep.V.rows[i - 1][i]  # beta_i / b_i with b_i = 1
                assert printed != solved


class TestQUpper:
    def test_n2_instance(self):
        family_q_upper(2, q=3, a=2, b=1, d=1, e=1, p=7)

    def test_diagonal_law(self):
        # diag(U)_i * diag(V)_i = 1/(1-q) for the upper-triangular pair
        for n in (2, 3, 4):
            rep = family_q_upper(n, q="q", a=3, b=2, d=1, e=5)
            one = rep.ring.one
            target = one / (one - rep.q)
            for i in range(n):
                assert rep.U.rows[i][i] * rep.V.rows[i][i] == target

    def test_q_one_rejected(self):
        with pytest.raises(RepError):
            family_q_upper(2, q=1, a=1, b=1, d=1, e=1, p=3)


class TestSpecs:
    def test_builtin_kishino3(self):
        rep = build_rep("kishino3")
        assert rep.dim == 3 and rep.label == "kishino3"

    def test_builtin_flat2(self):
        rep = build_rep("flat2")
        assert rep.dim == 2 and rep.ring == L2x

    def test_json_roundtrip(self):
        spec = RepSpec.from_json(
            '{"family":"char_p_bidiagonal","p":3,"n":3,'
            '"params":{"x":"1","y":"y","a":["1","1"]}}')
        rep = spec.build()
        assert rep.U == build_rep("kishino3").U

    def test_json_file(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text('{"family":"q_upper","n":2,"p":7,'
                        '"params":{"q":3,"a":1,"b":1,"d":2,"e":1}}')
        build_rep(str(path))

    def test_q_family_over_zp_takes_fraction_text(self):
        spec = {"family": "q_bidiagonal", "n": 2, "p": 7,
                "params": {"q": "1/2", "a": "1", "b": ["1"]}}
        assert build_rep(spec).q == F7(4)

    @pytest.mark.parametrize("params, message", [
        ({"q": "1/7"}, "inverse of 0 in Z_7"),
        ({"a": "1/0"}, r"Fraction\(1, 0\)"),
    ], ids=["zero-mod-p", "zero"])
    def test_zero_denominator_over_zp_is_a_rep_error(self, params, message):
        spec = {"family": "q_upper", "n": 2, "p": 7,
                "params": {"q": 3, "a": 1, "b": 1, "d": 1, "e": 1, **params}}
        with pytest.raises(RepError, match=f"zero denominator in Z_7: {message}"):
            build_rep(spec)

    @pytest.mark.parametrize("make, message", [
        (lambda: family_q_upper(2, "1/7", 1, 1, 1, 1, 7), "inverse of 0 in Z_7"),
        (lambda: family_q_bidiagonal(2, 3, "1/0", [1], 7), r"Fraction\(1, 0\)"),
        (lambda: family_q_bidiagonal(2, 3, 1, ["2/7"], 7), "inverse of 0 in Z_7"),
    ], ids=["q_upper-q", "q_bidiagonal-a", "q_bidiagonal-b"])
    def test_zero_denominator_in_a_family_is_a_rep_error(self, make, message):
        with pytest.raises(RepError, match=f"zero denominator in Z_7: {message}"):
            make()

    def test_unknown_name(self):
        with pytest.raises(RepError, match="no builtin"):
            build_rep("nonesuch")

    @pytest.mark.parametrize("change", [
        {"n": 2.9}, {"n": True}, {"n": "abc"}, {"n": 0}, {"n": -3},
        {"n": DIMENSION_BUDGET + 1}, {"n": None}, {"p": "7"}, {"p": 7.0}, {"p": False},
        {"params": "x"}, {"params": ["q", 3]}, {"family": ["q_upper"]},
    ], ids=repr)
    def test_json_field_types(self, change):
        spec = {"family": "q_upper", "n": 2, "p": 7,
                "params": {"q": 3, "a": 1, "b": 1, "d": 2, "e": 1}}
        assert RepSpec.from_json(spec).build().dim == 2
        with pytest.raises(RepError, match="RepSpec"):
            RepSpec.from_json({**spec, **change})

    def test_json_not_an_object(self):
        for text in ("[1, 2]", "3", "{bad", ""):
            with pytest.raises(RepError, match="JSON object"):
                RepSpec.from_json(text)
        with pytest.raises(RepError, match="missing 'n'"):
            RepSpec.from_json({"family": "q_upper"})

    def test_directory_is_not_a_spec_file(self, tmp_path):
        with pytest.raises(RepError, match=r"cannot read spec file .*directory") as info:
            build_rep(str(tmp_path))
        assert "\n" not in str(info.value)

    def test_binary_file_is_not_a_spec_file(self, tmp_path):
        binary = tmp_path / "rep.bin"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80")
        with pytest.raises(RepError, match=r"cannot read spec file .*utf-8") as info:
            build_rep(str(binary))
        assert "\n" not in str(info.value)

    def test_deeply_nested_json(self):
        depth = 100_000
        with pytest.raises(RepError, match="nested too deeply") as info:
            RepSpec.from_json("[" * depth + "]" * depth)
        assert "\n" not in str(info.value)

    def test_name_must_be_a_string(self):
        spec = {"family": "q_upper", "n": 2, "p": 7, "name": "mine",
                "params": {"q": 3, "a": 1, "b": 1, "d": 2, "e": 1}}
        assert RepSpec.from_json(spec).build().label == "mine"
        with pytest.raises(RepError, match="RepSpec name must be a string, got 5"):
            RepSpec.from_json({**spec, "name": 5})

    def test_missing_param(self):
        with pytest.raises(RepError, match="needs parameter"):
            RepSpec("q_upper", n=2, p=7, params={"q": 3}).build()

    # one valid spec per family, and a change to it that build() refuses
    VALID_SPECS = {
        "char_p_bidiagonal": {"n": 3, "p": 3,
                              "params": {"x": "1", "y": "y", "a": ["1", "1"]}},
        "truncated": {"n": 2, "p": 2, "params": {"i": ["1", "1"], "j": ["x"]}},
        "q_bidiagonal": {"n": 2, "p": 7, "params": {"q": 3, "a": 2, "b": [1]}},
        "q_upper": {"n": 2, "p": 7, "params": {"q": 3, "a": 1, "b": 1, "d": 2, "e": 1}},
    }

    @pytest.mark.parametrize("family, key, value, match", [
        ("char_p_bidiagonal", "p", None, r"needs p, a prime, got None"),
        ("truncated", "j", 5,
         r"parameter 'j' of family 'truncated' must be a list of ints and strings, got 5"),
        ("char_p_bidiagonal", "a", "11",
         r"parameter 'a' of family 'char_p_bidiagonal' must be a list .*, got '11'"),
        ("q_upper", "q", 2.5,
         r"parameter 'q' of family 'q_upper' must be an int or a string, got 2.5"),
        ("q_bidiagonal", "a", True,
         r"parameter 'a' of family 'q_bidiagonal' must be an int or a string, got True"),
        ("q_upper", "p", 4, r"needs p, a prime, got 4"),
        ("char_p_bidiagonal", "y", "y + 1)/y", r"bad polynomial syntax near '\)/y'"),
        ("q_bidiagonal", "d", 2, r"family 'q_bidiagonal' takes no parameter \['d'\]"),
    ], ids=["p-null", "j-int", "a-string", "q-float", "a-bool", "p-not-prime",
            "unparsable", "unknown-key"])
    def test_build_names_the_bad_parameter(self, family, key, value, match):
        spec = {"family": family, **self.VALID_SPECS[family]}
        RepSpec.from_json(spec).build()
        if key == "p":
            spec["p"] = value
        else:
            spec["params"] = {**spec["params"], key: value}
        with pytest.raises(RepError, match=match):
            RepSpec.from_json(spec).build()

    def test_det_u_is_unit(self):
        for name in BUILTIN_SPECS:
            rep = build_rep(name)
            assert det_exact(rep.U).is_unit()
