"""The Kishino fixture through the benchmark's op, kept out of timed runs
because each word takes close to a minute (brute-force minors of a 9x9
matrix at corank 3).

    python3 -m pytest bench/kishino_check.py
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from tracing import NullTracer  # noqa: E402
from workloads import FLAT, Op, closure_op  # noqa: E402

KISHINO = "t2 s1 s2 s1 t2 s1 s2 s1"
EXPECTED = "corank=3 E3=y^6 + y^3 + 1 E4=y^3 + 2 E5=1"


@pytest.mark.parametrize("word", ["kishino", f"s1 {KISHINO} s1", f"t1 {KISHINO} t1"],
                         ids=["kishino", "conjugated-by-s1", "conjugated-by-t1"])
def test_kishino_ideals(word):
    op = Op("0:0", "kishino", rep="kishino3", word=word, flavor=FLAT, strands=3)
    output, _ = closure_op(op, NullTracer(), ideals=True)
    assert output == EXPECTED
