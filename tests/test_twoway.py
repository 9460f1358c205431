"""A genuinely two-way machine: both engines must agree on it.

The machine makes a full sweep to the right end marker, walks back to the
left end marker, and only then checks a^n b^n one-way; the sweep uses
left moves, so it exercises the two-way semantics in both engines.
"""

import pytest

from pegmachine.cooksim import run_linear
from pegmachine.pppda import (
    DOWN,
    HAT_LEFT,
    HAT_RIGHT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    run_direct,
)

from conftest import all_words


def sweeping_anbn() -> Machine:
    mb = MachineBuilder("p1", "Z", "ab", ("pf",), two_way=True,
                        states=("p1", "p2", "p3", "p4", "pf"), stack_alphabet=("Z", "X"))
    emit = mb.emit
    emit("p1", LEFT_MARK, "Z", Move("p1", (), HAT_RIGHT))
    emit("p3", "a", "Z", Move("p3", ("X",), RIGHT))
    emit("p3", "a", "X", Move("p3", ("X",), RIGHT))
    emit("p3", "b", "X", Move("p4", (), RIGHT))
    emit("p4", "b", "X", Move("p4", (), RIGHT))
    emit("p3", RIGHT_MARK, "Z", Move("pf", (), DOWN))
    emit("p4", RIGHT_MARK, "Z", Move("pf", (), DOWN))
    for a in "ab":
        emit("p1", a, "Z", Move("p1", (), HAT_RIGHT))
        emit("p2", a, "Z", Move("p2", (), HAT_LEFT))
    # End of the rightward sweep; turn around.
    emit("p1", RIGHT_MARK, "Z", Move("p2", (), HAT_LEFT))
    # End of the leftward sweep; start checking.
    emit("p2", LEFT_MARK, "Z", Move("p3", (), HAT_RIGHT))
    return mb.build()


@pytest.fixture(scope="module")
def machine():
    return sweeping_anbn()


def test_two_way_language(machine):
    for word in all_words("ab", 8):
        k = len(word) // 2
        want = len(word) % 2 == 0 and word == "a" * k + "b" * k
        assert (run_direct(machine, word).outcome == "accept") == want, word


def test_two_way_engines_agree(machine):
    for word in all_words("ab", 7):
        direct = run_direct(machine, word).outcome
        linear = run_linear(machine, word).outcome
        assert direct == linear, (word, direct, linear)


def test_two_way_head_really_goes_left(machine):
    heads = []
    run = run_direct(machine, "ab", None, lambda kind, state, head, *_: heads.append(head))
    assert any(b < a for a, b in zip(heads, heads[1:])), heads
    assert run.outcome == "accept"
