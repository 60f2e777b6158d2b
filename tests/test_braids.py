import random

import pytest

from weylknots.braids import (
    CLASSICAL,
    FLAT,
    VIRTUAL,
    Letter,
    braid_from_text,
    builtin_word,
    parse_braid,
    represent,
    word_kishino,
    word_l,
    word_whorl,
)
from weylknots.linalg import Matrix, det_exact, rank_over_fractions
from weylknots.reps import build_rep, family_q_bidiagonal, family_q_upper
from weylknots.rings import (
    LETTER_BUDGET,
    QQ,
    FieldScalar,
    LaurentPolynomial,
    LaurentRing,
    PolynomialRing,
    PrimeField,
)
from weylknots.switches import (
    SwitchError,
    burau_switch,
    sawollek_switch,
    weyl_switch,
)


# the dense letter-matrix product: the reference for ``represent`` ----------
# Grids of ring elements multiplied by a plain triple loop over entries, so
# the reference shares no code with ``linalg``'s product kernel.

def _embed_blocks(ring, n: int, k: int, i: int, two_by_two) -> list:
    """Place a 2k x 2k block operator on strands (i, i+1) of n strands."""
    size = n * k
    grid = [[ring.one if r == c else ring.zero for c in range(size)]
            for r in range(size)]
    base = (i - 1) * k
    for r in range(2 * k):
        for c in range(2 * k):
            grid[base + r][base + c] = two_by_two.rows[r][c]
    return grid


def _twist_matrix(ring, n: int, k: int, i: int) -> list:
    size = n * k
    grid = [[ring.zero] * size for _ in range(size)]
    base = (i - 1) * k
    for s in range(size):
        grid[s][s] = ring.one
    for r in range(k):
        grid[base + r][base + r] = ring.zero
        grid[base + k + r][base + k + r] = ring.zero
        grid[base + r][base + k + r] = ring.one
        grid[base + k + r][base + r] = ring.one
    return grid


def _grid_product(ring, a, b) -> list:
    size = len(a)
    out = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for t in range(size):
                out[i][j] = out[i][j] + a[i][t] * b[t][j]
    return out


def dense_represent(word, switch) -> Matrix:
    ring, n, k = switch.ring, word.n, switch.k
    result = [[ring.one if r == c else ring.zero for c in range(n * k)]
              for r in range(n * k)]
    for let in word.letters:
        if let.kind == "t":
            letter = _twist_matrix(ring, n, k, let.index)
        else:
            block = switch.S if let.exp == 1 else switch.inverse()
            letter = _embed_blocks(ring, n, k, let.index, block)
        result = _grid_product(ring, result, letter)
    return Matrix(result, ring)


def random_word(rng, strands, length, flavor):
    letters = []
    for _ in range(length):
        kind = rng.choice("sst")
        letters.append(f"{kind}{rng.randint(1, strands - 1)}"
                       + ("^-1" if kind == "s" and rng.random() < 0.4 else ""))
    return parse_braid(" ".join(letters), flavor, strands)


ZP_SWITCHES = {
    "q_bidiagonal": lambda: weyl_switch(family_q_bidiagonal(3, q=5, a=2, b=[3, 7],
                                                            p=101)),
    "q_upper": lambda: weyl_switch(family_q_upper(2, q=3, a=2, b=1, d=1, e=1,
                                                  p=7)),
    # the smallest odd field, and the largest prime below 2^31, whose
    # residue products pass 2^60 before the kernel reduces their sum
    "q_upper-Z3": lambda: weyl_switch(family_q_upper(2, q=2, a=1, b=1, d=1, e=1,
                                                     p=3)),
    "q_upper-Z2^31-1": lambda: weyl_switch(family_q_upper(3, q=5, a=2, b=1, d=2, e=3,
                                                          p=2147483647)),
}


L101 = LaurentRing(PolynomialRing(PrimeField(101), "t"))


def _sawollek_blocks_switch():
    """A k = 2 Sawollek switch over Z_101[t, t^-1] on hand-picked blocks:
    [[I - BC, B], [C, 0]] for B = [[t, 1], [0, t]] and C = [[t, -1], [0, t]],
    whose BC = CB = t^2 I gives the Hecke scalar t^2."""
    B = Matrix([[L101(e) for e in row] for row in [["t", 1], [0, "t"]]])
    C = Matrix([[L101(e) for e in row] for row in [["t", -1], [0, "t"]]])
    return sawollek_switch(B, C)


# Laurent switches: over Z_101 with k = 1 and k = 2, and Burau over Q[t, t^-1],
# whose coefficients are Fractions
LAURENT_SWITCHES = {
    "sawollek": lambda: sawollek_switch("3/t", "t", ring=L101),
    "custom-k2": _sawollek_blocks_switch,
    "burau-Q": burau_switch,
}


class TestParsing:
    @pytest.mark.parametrize("text", ["x1", "s", "s1^", "s1^a", "s-1"])
    def test_bad_letter(self, text):
        with pytest.raises(ValueError, match="bad braid letter"):
            parse_braid(text)

    def test_index_zero(self):
        with pytest.raises(ValueError, match="positive"):
            parse_braid("s1 t0")

    def test_too_few_strands(self):
        with pytest.raises(ValueError, match="at least 4 strands"):
            parse_braid("s1 s3", strands=3)

    def test_exponents_expand(self):
        word = parse_braid("s1^3, t2 s2^-2 s1^0")
        assert word.n == 3
        assert [str(l) for l in word.letters] == [
            "s1", "s1", "s1", "t2", "s2^-1", "s2^-1"]

    def test_virtual_letters_normalize(self):
        assert parse_braid("t1^-1").letters == (Letter("t", 1, 1),)

    def test_flat_letters_normalize(self):
        word = parse_braid("s1^-1 t2^-2", FLAT)
        assert word.letters == (Letter("s", 1, 1), Letter("t", 2, 1),
                                Letter("t", 2, 1))

    def test_classical_rejects_virtual(self):
        with pytest.raises(ValueError, match="not classical"):
            parse_braid("s1 t1", CLASSICAL)

    def test_unknown_flavor(self):
        with pytest.raises(ValueError, match="unknown flavor"):
            parse_braid("s1", "welded")

    def test_letter_budget(self):
        assert len(parse_braid(f"s1^{LETTER_BUDGET}").letters) == LETTER_BUDGET
        half = LETTER_BUDGET // 2
        for text in (f"s1^{LETTER_BUDGET + 1}", f"s1^-{LETTER_BUDGET + 1}",
                     f"s1^{half + 1} t1^{half}", f"t1 s1^{LETTER_BUDGET}"):
            with pytest.raises(ValueError, match="longer than"):
                parse_braid(text)


class TestBuiltinWords:
    def test_kishino(self):
        word = builtin_word("kishino")
        assert word == word_kishino()
        assert (word.n, word.flavor) == (3, FLAT)
        assert str(word) == "t2 s1 s2 s1 t2 s1 s2 s1"

    def test_l(self):
        assert str(builtin_word("l(2)")) == "t1 s1 t1 s1"
        assert word_l(3).n == 2

    def test_whorl(self):
        word = builtin_word("whorl(3)")
        assert word == word_whorl(3)
        assert str(word) == "t1 t2 t3 t2 s1 s2 s3"
        assert word.n == 4

    @pytest.mark.parametrize("text,flavor,strands", [
        ("kishino", VIRTUAL, 5), ("kishino", VIRTUAL, None), ("kishino", FLAT, 5),
        ("whorl(3)", CLASSICAL, 2), ("l(2)", FLAT, 3)])
    def test_builtins_refuse_another_flavor_or_strand_count(self, text, flavor, strands):
        with pytest.raises(ValueError, match="is a flat word on"):
            braid_from_text(text, flavor, strands)

    def test_builtins_keep_their_flavor_and_strand_count(self):
        assert braid_from_text("kishino", FLAT, 3) == braid_from_text("kishino") == word_kishino()
        assert braid_from_text("whorl(3)", FLAT, 4) == word_whorl(3)

    def test_text_falls_back_to_parsing(self):
        assert braid_from_text("s1 t1") == parse_braid("s1 t1", FLAT)
        assert builtin_word("s1 t1") is None

    @pytest.mark.parametrize("text,match", [
        ("kishino(2)", "no argument"), ("l", "needs an argument"),
        ("whorl", "needs an argument"), ("l(0)", "n >= 1"),
        ("whorl(1)", "n >= 2")])
    def test_argument_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            builtin_word(text)

    def test_letter_budget(self):
        assert len(word_l(LETTER_BUDGET // 2).letters) == LETTER_BUDGET
        assert len(word_whorl((LETTER_BUDGET + 2) // 3).letters) <= LETTER_BUDGET
        for text in (f"l({LETTER_BUDGET // 2 + 1})",
                     f"whorl({(LETTER_BUDGET + 2) // 3 + 1})"):
            with pytest.raises(ValueError, match="more than"):
                builtin_word(text)


class TestRepresent:
    @pytest.mark.parametrize("name", sorted(ZP_SWITCHES))
    @pytest.mark.parametrize("seed", range(4))
    def test_virtual_words_match_dense_product(self, name, seed):
        switch = ZP_SWITCHES[name]()
        rng = random.Random(seed)
        word = random_word(rng, rng.randint(2, 4), rng.randint(1, 12), VIRTUAL)
        assert represent(word, switch) == dense_represent(word, switch)

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_words_match_dense_product(self, seed):
        switch = weyl_switch(build_rep("flat2"))
        rng = random.Random(seed)
        word = random_word(rng, rng.randint(2, 5), rng.randint(1, 16), FLAT)
        assert represent(word, switch) == dense_represent(word, switch)

    @pytest.mark.parametrize("text", ["kishino", "l(3)", "whorl(4)"])
    def test_builtin_words_match_dense_product(self, text):
        rep = "kishino3" if text == "kishino" else "flat2"
        switch = weyl_switch(build_rep(rep))
        word = builtin_word(text)
        assert represent(word, switch) == dense_represent(word, switch)

    def test_classical_burau(self):
        switch = burau_switch()
        word = parse_braid("s1 s2^-1 s1 s3 s2^-1", CLASSICAL)
        assert represent(word, switch) == dense_represent(word, switch)

    def test_classical_burau_over_q(self):
        switch = burau_switch("2/3", QQ)
        word = parse_braid("s1 s2^-1 s1 s3 s2^-1 s1^-1", CLASSICAL)
        assert represent(word, switch) == dense_represent(word, switch)

    @pytest.mark.parametrize("seed", range(2))
    def test_symbolic_q_upper_matches_dense_product(self, seed):
        switch = weyl_switch(family_q_upper(2, q="q", a=2, b=1, d=1, e=1))
        assert switch.ring == LaurentRing(PolynomialRing(QQ, "q"))
        rng = random.Random(seed)
        word = random_word(rng, 3, 6, VIRTUAL)
        assert represent(word, switch) == dense_represent(word, switch)

    @pytest.mark.parametrize("text", ["t2 s1 s2 s1^-1 t2 s1^-1 s2^-1 s1",
                                      "s1 s2^-1 t1 s1^-1 s2"])
    def test_symbolic_q_bidiagonal_matches_dense_product(self, text):
        # S and S^-1 are over Q[q, q^-1]; each word has letters of both signs
        switch = weyl_switch(family_q_bidiagonal(3, q="q", a=2, b=[1, -1]))
        word = parse_braid(text, VIRTUAL, 3)
        assert {let.exp for let in word.letters if let.kind == "s"} == {1, -1}
        assert represent(word, switch) == dense_represent(word, switch)

    @pytest.mark.parametrize("name", sorted(LAURENT_SWITCHES))
    @pytest.mark.parametrize("seed", range(3))
    def test_laurent_words_with_inverse_letters_match_dense_product(self, name, seed):
        switch = LAURENT_SWITCHES[name]()
        assert isinstance(switch.ring, LaurentRing)
        rng = random.Random(seed)
        strands = rng.randint(2, 4)
        word = (random_word(rng, strands, rng.randint(4, 10), VIRTUAL)
                * parse_braid("s1^-1 t1 s1^-1", VIRTUAL, strands))
        assert represent(word, switch) == dense_represent(word, switch)

    def test_laurent_entries_are_built_once(self, monkeypatch):
        # the running product stays raw across the word: represent builds one
        # LaurentPolynomial per entry of the result (and the identity's two),
        # not one per entry and letter
        switch = LAURENT_SWITCHES["custom-k2"]()
        switch.inverse()
        word = random_word(random.Random(7), 3, 40, VIRTUAL)
        built = []
        init = LaurentPolynomial.__init__
        monkeypatch.setattr(LaurentPolynomial, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        represent(word, switch)
        assert len(built) <= 2 * (word.n * switch.k) ** 2, len(built)

    def test_scalar_entries_are_built_once(self, monkeypatch):
        # over Z_p the running product holds residues across the word:
        # represent builds one FieldScalar per entry of the result (and the
        # identity's two), not one per entry and letter
        switch = ZP_SWITCHES["q_bidiagonal"]()
        switch.inverse()
        word = random_word(random.Random(7), 4, 40, VIRTUAL)
        built = []
        init = FieldScalar.__init__
        monkeypatch.setattr(FieldScalar, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        represent(word, switch)
        assert len(built) <= (word.n * switch.k) ** 2 + 2, len(built)

    def test_empty_word_is_identity(self):
        switch = ZP_SWITCHES["q_upper"]()
        assert represent(parse_braid("", strands=3), switch).is_identity()

    @pytest.mark.parametrize("seed", range(3))
    def test_word_times_inverse_is_identity(self, seed):
        switch = ZP_SWITCHES["q_bidiagonal"]()
        rng = random.Random(seed)
        word = random_word(rng, 4, 10, VIRTUAL)
        assert represent(word * word.inverse(), switch).is_identity()

    def test_flat_word_needs_involutive_switch(self):
        with pytest.raises(SwitchError, match="involutive"):
            represent(word_l(2), burau_switch())


# one word per zp-braids stratum: a q-family switch over Z_p, p near 100, and
# a seeded virtual word; outputs in the form "corank=<c> det=<det(M - I)>"
ZP_BRAIDS_CASES = {
    "q_upper-k3-n4-L40": (lambda: family_q_upper(3, q=5, a=2, b=3, d=4, e=6, p=97),
                          4, 40, "corank=0 det=26"),
    "q_bidiagonal-k3-n5-L60": (lambda: family_q_bidiagonal(3, q=5, a=2, b=[3, 7], p=101),
                               5, 60, "corank=0 det=41"),
    "q_upper-k4-n5-L80": (lambda: family_q_upper(4, q=7, a=3, b=2, d=5, e=11, p=103),
                          5, 80, "corank=0 det=18"),
}


@pytest.mark.parametrize("name", sorted(ZP_BRAIDS_CASES))
def test_zp_braids_outputs_are_pinned(name):
    rep, strands, length, expected = ZP_BRAIDS_CASES[name]
    switch = weyl_switch(rep())
    word = random_word(random.Random(name), strands, length, VIRTUAL)
    assert len(word.letters) == length
    m = represent(word, switch)
    ring = switch.ring
    for row in m.rows:
        for e in row:
            assert type(e) is FieldScalar and e.ring is ring, e
            assert type(e.value) is int and 0 <= e.value < ring.p, e
    a = m - Matrix.identity(ring, m.nrows)
    corank = a.nrows - rank_over_fractions(a)
    assert f"corank={corank} det={det_exact(a)!r}" == expected
