"""The worked three-state machine: trace checkpoints and actual language.

The machine's rules are kept exactly as listed; read literally they accept
some words beyond the triple-block family (the second pass may skip ``a``
letters between balanced b/c blocks).  The tests therefore check the
positive family membership, and check the whole length-bounded language
against an independently written simulator of the same ten rules.
"""

from pegmachine.pppda import (
    Configuration,
    builtin_anbncn,
    run_direct,
)

from conftest import all_words, configurations, traced


def independent_oracle(word: str) -> bool:
    """Literal re-implementation of the ten rules, no shared code."""
    n = len(word)

    def letter(pos: int) -> str:
        return "<" if pos == 0 else ">" if pos == n + 1 else word[pos - 1]

    stack = ["Z0", "Y"]  # after the initial push on the left marker
    state, pos = "q0", 1
    fuel = 10 * (n + 2) + 20
    while fuel:
        fuel -= 1
        ch, top = letter(pos), stack[-1]
        if state == "q0":
            if ch == "a" and top in ("Y", "X"):
                stack.append("X"); pos += 1
            elif ch == "b" and top == "X":
                stack.pop(); pos += 1
            elif ch == "c" and top == "Y":
                stack.pop(); state, pos = "q1", 1
            else:
                return False
        else:
            if ch == "a" and top == "Z0":
                pos += 1
            elif ch == "b" and top in ("Z0", "X"):
                stack.append("X"); pos += 1
            elif ch == "c" and top == "X":
                stack.pop(); pos += 1
            elif ch == ">" and top == "Z0":
                return True
            else:
                return False
    return False


# The run listing's configuration checkpoints for aaabbbccc.  The snapshot
# at cell 10 is forced to state q1 by the rules (only q1 reads the c block).
CHECKPOINTS = [
    ("q0", (("Z0", 0),), 0),
    ("q0", (("Y", 1), ("Z0", 0)), 1),
    ("q0", (("X", 2), ("Y", 1), ("Z0", 0)), 2),
    ("q0", (("X", 4), ("X", 3), ("X", 2), ("Y", 1), ("Z0", 0)), 4),
    ("q0", (("X", 3), ("X", 2), ("Y", 1), ("Z0", 0)), 5),
    ("q0", (("Y", 1), ("Z0", 0)), 7),
    ("q1", (("Z0", 0),), 1),
    ("q1", (("Z0", 0),), 4),
    ("q1", (("X", 5), ("Z0", 0)), 5),
    ("q1", (("X", 7), ("X", 6), ("X", 5), ("Z0", 0)), 7),
    ("q1", (("X", 6), ("X", 5), ("Z0", 0)), 8),
    ("q1", (("Z0", 0),), 10),
    ("qf", (), 10),
]


def test_trace_replays_the_worked_run():
    md = builtin_anbncn()
    run, events = traced(md, "aaabbbccc")
    assert run.outcome == "accept"
    configs = configurations(md, "aaabbbccc")
    assert [ev[1:4] for ev in events] == [(c.state, c.head, len(c.stack)) for c in configs[1:]]
    expected = [Configuration(*c) for c in CHECKPOINTS]
    it = iter(configs)
    for want in expected:
        for got in it:
            if got == want:
                break
        else:
            raise AssertionError(f"checkpoint {want} not reached in order")
    assert configs[0] == expected[0]
    assert configs[-1] == expected[-1]


def test_triple_blocks_accepted_up_to_nine():
    md = builtin_anbncn()
    for n in (1, 2, 3):
        assert run_direct(md, "a" * n + "b" * n + "c" * n).outcome == "accept"


def test_empty_word_rejected():
    md = builtin_anbncn()
    assert run_direct(md, "").outcome == "reject"


def test_language_matches_independent_oracle_up_to_nine():
    md = builtin_anbncn()
    for word in all_words("abc", 9):
        assert (run_direct(md, word).outcome == "accept") == independent_oracle(word), word


def test_rules_read_literally_accept_beyond_the_family():
    # Documents the skip rule refiring between balanced blocks.
    md = builtin_anbncn()
    assert run_direct(md, "abca").outcome == "accept"
    assert run_direct(md, "aabbcc" + "a").outcome == "accept"
    assert run_direct(md, "aabcc").outcome == "reject"
