import time

import pytest

from pegmachine.cooksim import (
    IN_PROGRESS,
    STUCK,
    WORK_BOUND_FACTOR,
    run_linear,
    terminator,
    work_bound_check,
)
from pegmachine.errors import MachineInvariantError
from pegmachine.pppda import (
    DOWN,
    LEFT_MARK,
    Machine,
    Move,
    RIGHT_MARK,
    UP,
    builtin_anbncn,
    builtin_loop,
    builtin_sweep,
    run_direct,
)
from pegmachine.translate import grammar_to_machine
from pegmachine.peg import parse_grammar_text

from conftest import all_words


def _decode_terminator(m, value):
    """The (state, head) a coded terminator names."""
    head, state = divmod(value, m.coded_delta.key_space)
    return m.coded_delta.decode_state(state), head


def test_pop_surface_is_its_own_terminator():
    md = builtin_anbncn()
    # (q0, b, X) pops: the surface terminates itself.
    key = md.coded_delta.surface("q0", "X", 4)
    value, _, _ = terminator(md, "aaabbbccc", key, {})
    assert _decode_terminator(md, value) == ("q0", 4)


def test_two_rule_machine_loops():
    wild = ("a", RIGHT_MARK)
    delta = {("q", LEFT_MARK, "Z"): Move("h", ("H",), "right")}
    for sigma in wild:
        delta[("h", sigma, "H")] = Move("q", (), DOWN)
        delta[("q", sigma, "Z")] = Move("q", ("Z2",), DOWN)
        delta[("q", sigma, "Z2")] = Move("q", (), UP)
    m = Machine(
        states=("q", "h"), input_alphabet=("a",), stack_alphabet=("Z", "H", "Z2"),
        finals=(), initial_state="q", bottom="Z", delta=delta,
    )
    value, _, loop_at = terminator(m, "a", m.coded_delta.surface("q", "Z", 1), {})
    assert value is IN_PROGRESS
    assert m.coded_delta.decode_surface(loop_at) == ("q", "Z", 1)


def test_initial_terminator_gives_acceptance():
    md = builtin_anbncn()
    key = md.coded_delta.surface(md.initial_state, md.bottom, 0)
    value, _, _ = terminator(md, "abc", key, {})
    state, head = _decode_terminator(md, value)
    assert head == len("abc") + 1
    mv = md.delta[(state, RIGHT_MARK, md.bottom)]
    assert mv.state == "qf" and mv.direction == DOWN
    assert run_linear(md, "abc").outcome == "accept"


@pytest.mark.parametrize("word", ["aaabbbccc", "aabbbccc", "", "abc", "abca", "cab"])
def test_agrees_with_direct_engine(word):
    md = builtin_anbncn()
    assert (run_linear(md, word).outcome == "accept") == (
        run_direct(md, word).outcome == "accept"
    )


def test_agreement_on_enumeration():
    md = builtin_anbncn()
    for word in all_words("abc", 8):
        direct = run_direct(md, word)
        assert direct.outcome in ("accept", "reject")
        assert run_linear(md, word).outcome == direct.outcome, word


def test_loop_machine_rejects_where_direct_exhausts_budget():
    lm = builtin_loop()
    for n in (0, 3, 17):
        word = "a" * n
        assert run_direct(lm, word, step_limit=5000).outcome == "budget"
        lin = run_linear(lm, word)
        assert (lin.outcome, lin.reason) == ("reject", "loop")
        assert lin.loop_at is not None


def test_loop_detection_constant_time():
    lm = builtin_loop()
    word = "a" * 10_000
    t0 = time.time()
    lin = run_linear(lm, word)
    assert (lin.outcome, lin.reason) == ("reject", "loop")
    assert time.time() - t0 < 0.01
    assert lin.ops < 50


def test_stuck_chase_rejects():
    m = Machine(
        states=("q", "p"),
        input_alphabet=("a",),
        stack_alphabet=("Z", "X"),
        finals=(),
        initial_state="q",
        bottom="Z",
        delta={("q", LEFT_MARK, "Z"): Move("p", ("X",), "right")},
    )
    lin = run_linear(m, "a")
    assert (lin.outcome, lin.reason) == ("reject", "stuck")


class _ForgetfulTable(dict):
    """Loses every in-progress mark, so each finish meets an unmarked key."""

    def __setitem__(self, key, value):
        if value is not IN_PROGRESS:
            super().__setitem__(key, value)


def test_memo_write_once():
    md = builtin_anbncn()
    key = md.coded_delta.surface(md.initial_state, md.bottom, 0)
    with pytest.raises(MachineInvariantError, match="write-once"):
        terminator(md, "abc", key, _ForgetfulTable())


def test_work_counter_linear_growth():
    md = builtin_anbncn()
    ops = {}
    for n in (50, 100, 200, 400):
        word = "a" * n + "b" * n + "c" * n
        report = work_bound_check(md, word)
        assert report.ok, (n, report)
        ops[n] = report.ops
    for n in (50, 100, 200):
        ratio = ops[2 * n] / ops[n]
        assert 1.8 <= ratio <= 2.2, (n, ratio)


def test_work_bound_on_empty_word():
    md = builtin_anbncn()
    report = work_bound_check(md, "")
    assert report.ok
    assert report.bound == 2 * len(md.states) * len(md.stack_alphabet) * 2 * WORK_BOUND_FACTOR


def test_compiled_machine_linear_growth():
    m = grammar_to_machine(parse_grammar_text('S <- "a" S / ""'))
    ops = {n: run_linear(m, "a" * n).ops for n in (50, 100, 200)}
    for n in (50, 100):
        assert 1.8 <= ops[2 * n] / ops[n] <= 2.2


def test_compiled_fig2_linear_growth_on_a_blocks(fig2):
    m = grammar_to_machine(fig2)
    ops = {}
    for n in (50, 100):
        word = "a" * n
        report = work_bound_check(m, word)
        assert report.ok
        ops[n] = report.ops
    assert 1.8 <= ops[100] / ops[50] <= 2.2


def test_sweep_table_stays_within_key_space():
    m = builtin_sweep()
    n = 800
    run = run_linear(m, "a" * n)
    assert run.outcome == "accept"
    assert run.table_size <= len(m.states) * len(m.stack_alphabet) * (n + 2)
    # 3 203 entries and 11 207 ops when surfaces that pop at once (each
    # sweep step's hat symbol) still took a table entry.
    assert (run.table_size, run.ops) == (2_400, 9_601)


@pytest.mark.parametrize("n", [100, 400, 800])
def test_sweep_work_bound(n):
    m = builtin_sweep()
    report = work_bound_check(m, "a" * n)
    assert report.ok, report


def test_terminator_matches_instrumented_replay():
    """A terminator names the first surface where that symbol is popped.

    A ``STUCK`` entry names a symbol that is never popped.  Neither depends
    on the symbol's origin, so the replay starts from every origin.
    """
    from pegmachine.pppda.machine import Configuration, Halt, step

    md = builtin_anbncn()
    coded = md.coded_delta
    for word in all_words("abc", 6):
        table = {}
        terminator(md, word, coded.surface(md.initial_state, md.bottom, 0), table)
        for key, want in table.items():
            state, sym, head = coded.decode_surface(key)
            assert want is not IN_PROGRESS, (word, state, sym, head)
            if want is not STUCK:
                want = _decode_terminator(md, want)
            for origin in range(len(word) + 2):
                c = Configuration(state, ((sym, origin),), head)
                seen = None
                for _ in range(2000):
                    nxt = step(md, c, word)
                    if isinstance(nxt, Halt):
                        seen = STUCK
                        break
                    if len(c.stack) == 1 and len(nxt.stack) == 0:
                        seen = (c.state, c.head)
                        break
                    c = nxt
                assert seen == want, (word, state, sym, head, origin)
