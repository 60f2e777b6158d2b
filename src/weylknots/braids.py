"""Braid words for the classical, virtual and flat braid groups, and their
matrix representations through a linear switch.

Words are sequences of letters ``s<i>`` (real crossings, exponent +-1) and
``t<i>`` (virtual crossings).  Virtual letters square to the identity, so
their exponents normalize to +1; in the flat flavor real letters do too.

``represent`` sends a word on n strands to an nk x nk matrix, one k-block
per strand: s_i acts by the switch S on blocks (i, i+1), t_i by the block
twist, and the word maps to the product of its letter matrices in written
order.  ``tests/test_braids.py`` pins these conventions against the dense
letter-matrix product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linalg import Matrix, _row_times
from .rings import LETTER_BUDGET
from .switches import LinearSwitch, SwitchError

CLASSICAL, VIRTUAL, FLAT = "classical", "virtual", "flat"
_FLAVORS = (CLASSICAL, VIRTUAL, FLAT)


@dataclass(frozen=True)
class Letter:
    kind: str   # "s" real, "t" virtual
    index: int  # 1-based strand position
    exp: int    # +1 or -1

    def inverse(self) -> Letter:
        return Letter(self.kind, self.index, -self.exp)

    def __str__(self):
        base = f"{self.kind}{self.index}"
        return base if self.exp == 1 else f"{base}^-1"


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple
    flavor: str = VIRTUAL

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        for let in self.letters:
            if not 1 <= let.index <= self.n - 1:
                raise ValueError(f"letter {let} out of range for {self.n} strands")
            if let.kind == "t" and self.flavor == CLASSICAL:
                raise ValueError("virtual letters are not classical braid letters")

    def __mul__(self, other: BraidWord) -> BraidWord:
        if other.n != self.n or other.flavor != self.flavor:
            raise ValueError("concatenation needs equal strand counts and flavors")
        return BraidWord(self.n, self.letters + other.letters, self.flavor)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(l.inverse() for l in reversed(self.letters)),
                         self.flavor)

    def __str__(self):
        return " ".join(str(l) for l in self.letters) or "<empty>"


def _normalize(letter: Letter, flavor: str) -> Letter:
    if letter.kind == "t" or (flavor == FLAT and letter.kind == "s"):
        return Letter(letter.kind, letter.index, 1)
    return letter


_LETTER_RE = re.compile(r"([st])(\d+)(?:\^(-?\d+))?$")


def parse_braid(text: str, flavor: str = VIRTUAL, strands: int | None = None
                ) -> BraidWord:
    """Parse whitespace/comma separated letters; n defaults to 1 + max index.
    A word expanding to more than ``LETTER_BUDGET`` letters raises
    ValueError."""
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    letters = []
    max_index = 0
    for token in re.split(r"[,\s]+", text.strip()):
        if not token:
            continue
        m = _LETTER_RE.match(token)
        if not m:
            raise ValueError(f"bad braid letter {token!r}")
        kind, index, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if index < 1:
            raise ValueError(f"strand index must be positive in {token!r}")
        if exp == 0:
            continue
        if len(letters) + abs(exp) > LETTER_BUDGET:
            raise ValueError(f"braid word longer than {LETTER_BUDGET} letters "
                             f"at {token!r}")
        max_index = max(max_index, index)
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            letters.append(_normalize(Letter(kind, index, sign), flavor))
    n = strands if strands is not None else max_index + 1
    if strands is not None and max_index >= strands:
        raise ValueError(f"letter index {max_index} needs at least "
                         f"{max_index + 1} strands, got {strands}")
    if n < 1:
        raise ValueError("a braid needs at least one strand")
    return BraidWord(n, tuple(letters), flavor)


# built-in words -------------------------------------------------------------

def word_kishino() -> BraidWord:
    """t2 s1 s2 s1 t2 s1 s2 s1 on three strands (flat)."""
    return parse_braid("t2 s1 s2 s1 t2 s1 s2 s1", FLAT)


def word_l(n: int) -> BraidWord:
    """(t1 s1)^n on two strands (flat)."""
    if n < 1:
        raise ValueError("l(n) needs n >= 1")
    if 2 * n > LETTER_BUDGET:
        raise ValueError(f"l({n}) has more than {LETTER_BUDGET} letters")
    return parse_braid("t1 s1 " * n, FLAT)


def word_whorl(n: int) -> BraidWord:
    """t1..tn t(n-1)..t2 s1..sn on n+1 strands (flat)."""
    if n < 2:
        raise ValueError("whorl(n) needs n >= 2")
    if 3 * n - 2 > LETTER_BUDGET:
        raise ValueError(f"whorl({n}) has more than {LETTER_BUDGET} letters")
    ups = " ".join(f"t{i}" for i in range(1, n + 1))
    downs = " ".join(f"t{i}" for i in range(n - 1, 1, -1))
    sigmas = " ".join(f"s{i}" for i in range(1, n + 1))
    return parse_braid(f"{ups} {downs} {sigmas}", FLAT)


_BUILTIN_RE = re.compile(r"(kishino|l|whorl)(?:\((\d+)\))?$")


def builtin_word(name: str) -> BraidWord | None:
    """kishino, l(n) or whorl(n); None when the name is not a builtin."""
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        return None
    kind, arg = m.group(1), m.group(2)
    if kind == "kishino":
        if arg is not None:
            raise ValueError("kishino takes no argument")
        return word_kishino()
    if arg is None:
        raise ValueError(f"{kind} needs an argument, e.g. {kind}(3)")
    return word_l(int(arg)) if kind == "l" else word_whorl(int(arg))


def braid_from_text(text: str, flavor: str = FLAT, strands=None) -> BraidWord:
    """A builtin word by name, else the parsed text.  A builtin is a flat
    word on its own n strands; asking for it with another flavor or strand
    count raises ValueError."""
    word = builtin_word(text)
    if word is None:
        return parse_braid(text, flavor, strands)
    if flavor != FLAT or strands not in (None, word.n):
        raise ValueError(f"{text.strip()} is a flat word on {word.n} strands, "
                         f"asked for with flavor {flavor} and strands {strands}")
    return word


# representation -------------------------------------------------------------

def represent(word: BraidWord, switch: LinearSwitch) -> Matrix:
    """The nk x nk image of the word: letter matrices multiplied in written
    order.  Flat words need a flat switch: one declaring q = 1, so S^2 = I.

    Each letter touches only block columns i and i+1 of the running
    product: t_i swaps them and s_i^+-1 mixes them through S or S^-1, each
    row's pair of blocks times S^+-1 by the ``Matrix`` product kernel
    ``linalg._row_times``.  The running product stays in the kernel's form
    (``Matrix.kernel_rows``): over F[x, x^-1] its entries are raw values
    across the whole word, and the matrix's elements are built once, at
    the end; over a field they are elements, whose values the kernel sums.
    """
    if word.flavor == FLAT and not switch.is_flat():
        raise SwitchError("flat braid words need an involutive switch (S^2 = I)")
    ring = switch.ring
    n, k = word.n, switch.k
    rows = Matrix.identity(ring, n * k).kernel_rows()
    blocks = {}
    for let in word.letters:
        lo = (let.index - 1) * k
        mid, hi = lo + k, lo + 2 * k
        if let.kind == "t":
            for row in rows:
                row[lo:hi] = row[mid:hi] + row[lo:mid]
            continue
        block = blocks.get(let.exp)
        if block is None:
            s = switch.S if let.exp == 1 else switch.inverse()
            block = blocks[let.exp] = s.kernel_rows()
        for row in rows:
            row[lo:hi] = _row_times(row[lo:hi], block, ring)
    return Matrix.from_kernel_rows(rows, ring)
