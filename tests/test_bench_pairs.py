"""The verdicts tools/bench_pairs.py prints, on synthetic paired runs; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def _judge(change, higher=True, bound=0.25, parent=PARENT):
    return bench_pairs.judge(parent, change, higher, bound)


def test_claim_needs_nine_of_ten_pairs_and_a_gain_beyond_the_spread():
    # parent median 100, Q3 - Q1 = 101 - 99.25 = 1.75
    assert _judge([x + 5 for x in PARENT]) == (10, True, "within bound")
    # nine wins, one tie: the tie counts for neither side
    change = [x + 5 for x in PARENT[:9]] + [PARENT[9]]
    assert _judge(change) == (9, True, "within bound")
    # eight wins are too few, however large the gain
    change = [x + 50 for x in PARENT[:8]] + PARENT[8:]
    assert _judge(change)[:2] == (8, False)
    # ten wins, but the median gain (1.5) is within the parent's spread
    assert _judge([x + 1.5 for x in PARENT]) == (10, False, "within bound")


@pytest.mark.parametrize("higher", (True, False))
def test_bound_is_relative_to_the_parents_median(higher):
    worse = -1 if higher else 1
    # 20 % worse is within a bound of 0.25, 30 % worse beyond it
    assert _judge([x + worse * 20 for x in PARENT], higher)[2] == \
        "within bound"
    assert _judge([x + worse * 30 for x in PARENT], higher)[2] == \
        "beyond bound"
    # the claim and the win count follow the better side
    better = [x - worse * 5 for x in PARENT]
    assert _judge(better, higher) == (10, True, "within bound")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 90.0,
              110.0]
    change = [x + 1 for x in parent]
    assert _judge(change, parent=parent)[2] == "unresolved"
    # unless every change run beats every parent run; a claim also needs
    # a gain beyond the parent's Q3 - Q1 (52.5 here)
    assert _judge([150.0] * 10, parent=parent) == (10, False, "within bound")
    assert _judge([160.0] * 10, parent=parent) == (10, True, "within bound")
    assert _judge([40.0] * 10, higher=False, parent=parent) == (
        10, True, "within bound")
    # a worse median beyond the bound is reported as such first
    assert _judge([40.0] * 10, parent=parent)[2] == "beyond bound"
