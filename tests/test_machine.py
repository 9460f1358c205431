import pytest

from pegmachine.errors import MachineInvariantError, MachineTextError
from pegmachine.pppda import (
    ANY,
    Configuration,
    DOWN,
    HAT_DIRECTIONS,
    Halt,
    LEFT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
    builtin_anbncn,
    initial_configuration,
    letter_at,
    parse_machine_text,
    render_machine_text,
    run_direct,
    step,
)
from pegmachine.translate import grammar_to_machine

from conftest import configurations, traced

ANBNCN_SOURCE = """\
@twoway no
@states q0 q1 qf
@initial q0
@final qf
@bottom Z0
@alphabet "abc"
q0 < Z0 -> q0 Y right
q0 "a" Y -> q0 X right
q0 "a" X -> q0 X right
q0 "b" X -> q0 - right
q0 "c" Y -> q1 - up
q1 "a" Z0 -> q1 - hatright
q1 "b" Z0 -> q1 X right
q1 "b" X -> q1 X right
q1 "c" X -> q1 - right
q1 > Z0 -> qf - down
"""


def test_parse_machine_source_matches_builtin():
    m = parse_machine_text(ANBNCN_SOURCE)
    b = builtin_anbncn()
    assert m.states == b.states == ("q0", "q1", "qf", "hats:q1:hatright")
    assert m.delta == b.delta
    assert m.bottom == "Z0"


def test_up_with_push_rejected():
    with pytest.raises(MachineInvariantError):
        Machine(
            states=("q", "p"),
            input_alphabet=("a",),
            stack_alphabet=("Z", "X", "Y"),
            finals=(),
            initial_state="q",
            bottom="Z",
            delta={("q", "a", "Z"): Move("p", ("X", "Y"), UP)},
        )


def test_duplicate_transition_rejected():
    with pytest.raises(MachineTextError):
        parse_machine_text(ANBNCN_SOURCE + 'q0 "a" Y -> q0 X right\n')


def test_up_with_push_in_source_rejected():
    bad = '@initial q\n@bottom Z\n@alphabet "a"\nq "a" Z -> p XY up\n'
    with pytest.raises(MachineInvariantError):
        parse_machine_text(bad)


def test_boundary_moves_rejected():
    with pytest.raises(MachineInvariantError):
        Machine(
            states=("q",), input_alphabet=("a",), stack_alphabet=("Z",),
            finals=(), initial_state="q", bottom="Z",
            delta={("q", RIGHT_MARK, "Z"): Move("q", (), RIGHT)},
        )
    with pytest.raises(MachineInvariantError):
        Machine(
            states=("q",), input_alphabet=("a",), stack_alphabet=("Z",),
            finals=(), initial_state="q", bottom="Z",
            delta={("q", LEFT_MARK, "Z"): Move("q", (), LEFT)}, two_way=True,
        )


def test_one_way_forbids_left_moves():
    with pytest.raises(MachineInvariantError):
        Machine(
            states=("q",), input_alphabet=("a",), stack_alphabet=("Z",),
            finals=(), initial_state="q", bottom="Z",
            delta={("q", "a", "Z"): Move("q", (), LEFT)}, two_way=False,
        )


def _machine(delta=None, **parts) -> Machine:
    """A small valid machine, with ``parts`` replaced and ``delta`` added to δ."""
    moves = {("q", LEFT_MARK, "Z"): Move("p", ("X",), RIGHT), ("p", "a", "X"): Move("p", (), DOWN)}
    moves.update(delta or {})
    fields = dict(
        states=("q", "p"), input_alphabet=("a",), stack_alphabet=("Z", "X"),
        finals=("p",), initial_state="q", bottom="Z", delta=moves,
    )
    fields.update(parts)
    return Machine(**fields)


@pytest.mark.parametrize(
    "parts, message",
    [
        (dict(states=("q", "p", "q")), "duplicate state name"),
        (dict(stack_alphabet=("Z", "X", "Z")), "duplicate stack symbol"),
        (dict(input_alphabet=("a", RIGHT_MARK)), "bad input letter '>'"),
        (dict(initial_state="r"), "unknown initial state 'r'"),
        (dict(finals=("p", "r")), "final states must be states"),
        (dict(bottom="Y"), "bottom symbol 'Y' not in stack alphabet"),
        (dict(delta={("p", "a", "Z"): Move("r", (), DOWN)}), "delta('p', 'a', 'Z'): unknown state"),
        (dict(delta={("p", "b", "Z"): Move("p", (), DOWN)}), "delta('p', 'b', 'Z'): unknown letter"),
        (
            dict(delta={("p", "a", "Z"): Move("p", ("X", "Y"), DOWN)}),
            "delta('p', 'a', 'Z'): unknown stack symbol",
        ),
        (
            dict(delta={("p", "a", "Z"): Move("p", (), "sideways")}),
            "delta('p', 'a', 'Z'): bad direction 'sideways'",
        ),
        (
            dict(delta={("p", "a", "Z"): Move("p", ("X",), UP)}),
            "delta('p', 'a', 'Z'): an up move must not push",
        ),
        (dict(input_alphabet=("a", "ab")), "bad input letter 'ab'"),
        (
            dict(delta={("p", LEFT_MARK, "X"): Move("p", (), LEFT)}, two_way=True),
            "delta('p', '<', 'X'): cannot move left off the left end marker",
        ),
        (
            dict(delta={("p", RIGHT_MARK, "X"): Move("p", ("X",), RIGHT)}),
            "delta('p', '>', 'X'): cannot move right off the right end marker",
        ),
        (
            dict(delta={("p", "a", "Z"): Move("p", (), LEFT)}),
            "delta('p', 'a', 'Z'): left moves need a two-way machine",
        ),
        (dict(finals=("p", "p")), "duplicate final state"),
    ],
)
def test_every_validation_message(parts, message):
    with pytest.raises(MachineInvariantError) as err:
        _machine(**parts)
    assert str(err.value) == message


@pytest.mark.parametrize("direction", HAT_DIRECTIONS)
def test_machine_refuses_hat_directions(direction):
    with pytest.raises(MachineInvariantError) as err:
        _machine({("p", "a", "Z"): Move("p", (), direction)})
    assert str(err.value) == f"delta('p', 'a', 'Z'): bad direction {direction!r}"


@pytest.mark.parametrize(
    "row, twoway, message",
    [
        ('q "a" Z -> q X hatright', "no", "hat moves carry no push string"),
        ('q "a" Z -> q X,Y hatdown', "yes", "hat moves carry no push string"),
        ("q > Z -> q - hatright", "no", "cannot move right off the right end marker"),
        ("q < Z -> q - hatleft", "yes", "cannot move left off the left end marker"),
        ('q "a" Z -> q - hatleft', "no", "left moves need a two-way machine"),
    ],
    ids=["push", "push-two-way", "off-right", "off-left", "one-way-left"],
)
def test_reader_names_the_line_of_a_bad_hat_row(row, twoway, message):
    text = f'@twoway {twoway}\n@initial q\n@bottom Z\n@alphabet "ab"\nq "b" Z -> q - down\n{row}\n'
    with pytest.raises(MachineTextError) as err:
        parse_machine_text(text)
    assert str(err.value) == f"line 6: {message}"


@pytest.mark.parametrize(
    "row, twoway, message",
    [
        ("q > Z -> q - right", "no", "cannot move right off the right end marker"),
        ('q "a" Z -> q - left', "no", "left moves need a two-way machine"),
        ('q "a" Z -> q X up', "no", "an up move must not push"),
    ],
    ids=["off-right", "one-way-left", "up-push"],
)
def test_reader_names_the_line_of_a_bad_core_row(row, twoway, message):
    text = f'@twoway {twoway}\n@initial q\n@bottom Z\n@alphabet "ab"\nq "b" Z -> q - down\n{row}\n'
    with pytest.raises(MachineTextError) as err:
        parse_machine_text(text)
    assert str(err.value) == f"line 6: {message}"


def test_validation_reports_the_first_bad_transition():
    bad = {("p", "a", "Z"): Move("p", (), LEFT), ("s", "a", "X"): Move("p", (), DOWN)}
    with pytest.raises(MachineInvariantError) as err:
        _machine(bad)
    assert str(err.value) == "delta('p', 'a', 'Z'): left moves need a two-way machine"
    with pytest.raises(MachineInvariantError) as err:
        _machine(bad, two_way=True)
    assert str(err.value) == "delta('s', 'a', 'X'): unknown state"


# --- stepping, against the worked run ----------------------------------------


def test_step_initial_push():
    m = builtin_anbncn()
    c0 = initial_configuration(m)
    assert c0 == Configuration("q0", (("Z0", 0),), 0)
    c1 = step(m, c0, "aaabbbccc")
    assert c1 == Configuration("q0", (("Y", 1), ("Z0", 0)), 1)


def test_step_up_pop_returns_to_origin():
    m = builtin_anbncn()
    c = Configuration("q0", (("Y", 1), ("Z0", 0)), 7)
    after = step(m, c, "aaabbbccc")
    assert after == Configuration("q1", (("Z0", 0),), 1)


def test_step_down_pop_keeps_head():
    m = builtin_anbncn()
    c = Configuration("q1", (("Z0", 0),), 10)
    after = step(m, c, "aaabbbccc")
    assert after == Configuration("qf", (), 10)


def test_step_halts_without_transition():
    halted = step(builtin_anbncn(), Configuration("q0", (("X", 2), ("Z0", 0)), 2), "ax")
    assert isinstance(halted, Halt) and halted.reason == "no-transition"


def test_run_outcomes():
    md = builtin_anbncn()
    assert run_direct(md, "aaabbbccc").outcome == "accept"
    assert run_direct(md, "aabbbccc").outcome == "reject"
    assert run_direct(md, "").outcome == "reject"
    assert run_direct(md, "abc", step_limit=0).outcome == "budget"


def test_final_configuration_of_accepting_run():
    md = builtin_anbncn()
    run = run_direct(md, "aaabbbccc")
    assert run.final == Configuration("qf", (), 10)


@pytest.mark.parametrize("word", ["abc>", "a>bc", "<abc", "ab<c"])
def test_end_markers_inside_the_word_are_foreign_letters(word):
    # A marker inside the word has no transition, like any letter outside
    # the alphabet: every engine halts on it rather than reading an end.
    from pegmachine.cooksim import run_linear

    md = builtin_anbncn()
    foreign = word.replace("<", "z").replace(">", "z")
    run = run_direct(md, word)
    assert (run.outcome, run.reason) == ("reject", "no-transition")
    assert run == run_direct(md, foreign)
    assert traced(md, word) == traced(md, foreign)
    lin = run_linear(md, word)
    assert (lin.outcome, lin.reason) == ("reject", "stuck")
    assert lin == run_linear(md, foreign)


# --- trace invariants -----------------------------------------------------------


def _moves(word):
    """The (before, after) configuration pairs of the reference run on ``word``."""
    md = builtin_anbncn()
    configs = configurations(md, word)
    return md, run_direct(md, word), list(zip(configs, configs[1:]))


def _pop_direction(md, word, before):
    return md.delta[(before.state, letter_at(word, before.head), before.stack[0][0])].direction


@pytest.mark.parametrize("word", ["aaabbbccc", "aabbcc", "aabbc", "abca", "cab"])
def test_pointer_discipline_and_pop_directions(word):
    md, _, moves = _moves(word)
    for before, after in moves:
        if len(after.stack) > len(before.stack):
            # Every new entry's origin is the head right after the move.
            depth_gain = len(after.stack) - len(before.stack)
            assert depth_gain >= 1
            for sym, origin in after.stack[:depth_gain]:
                assert origin == after.head
        else:
            assert len(after.stack) == len(before.stack) - 1
            direction = _pop_direction(md, word, before)
            if direction == UP:
                assert after.head == before.stack[0][1]
            elif direction == DOWN:
                assert after.head == before.head


@pytest.mark.parametrize("word", ["aaabbbccc", "aabbcc"])
def test_bottom_popped_only_at_accepting_last_move(word):
    md, run, moves = _moves(word)
    assert run.outcome == "accept"
    for i, (_, after) in enumerate(moves):
        bottoms = [s for s, _ in after.stack if s == "Z0"]
        if i < len(moves) - 1:
            assert bottoms == ["Z0"]
    assert moves[-1][0].stack[0][0] == "Z0"


# --- text round trip ------------------------------------------------------------


def test_render_parse_roundtrip():
    md = builtin_anbncn()
    text = render_machine_text(md)
    again = parse_machine_text(text)
    assert render_machine_text(again) == text


def test_multichar_push_roundtrip():
    m = Machine(
        states=("q", "p"),
        input_alphabet=("a",),
        stack_alphabet=("Z", "X1", "X2"),
        finals=(),
        initial_state="q",
        bottom="Z",
        delta={("q", "a", "Z"): Move("p", ("X1", "X2"), DOWN)},
    )
    again = parse_machine_text(render_machine_text(m))
    assert again.delta[("q", "a", "Z")].push == ("X1", "X2")


def test_push_token_reads_the_same_on_every_line():
    # ``XY`` is pushed but never on top, so the writer leaves it bare; the
    # push-only ``X`` of an earlier line must not split it into X, Y.
    m = Machine(
        states=("q",),
        input_alphabet=("a",),
        stack_alphabet=("Y", "X", "XY"),
        finals=(),
        initial_state="q",
        bottom="Y",
        delta={
            ("q", "a", "Y"): Move("q", ("X",), RIGHT),
            ("q", RIGHT_MARK, "Y"): Move("q", ("XY",), DOWN),
        },
    )
    text = render_machine_text(m)
    assert "q > Y -> q XY down" in text
    assert parse_machine_text(text) == m


def test_reader_builds_one_move_per_distinct_move(fig2):
    text = render_machine_text(grammar_to_machine(fig2))
    m = parse_machine_text(text)
    moves = list(m.delta.values())
    assert len({id(mv) for mv in moves}) == len(set(moves)) < len(moves)
    assert render_machine_text(m) == text


# --- the machine builder -----------------------------------------------------------


def _builder() -> MachineBuilder:
    return MachineBuilder("q", "Z", "a", states=["q", "p"], stack_alphabet=["Z"])


def test_builder_identical_reemit_is_a_no_op():
    mb = _builder()
    mb.emit("q", "a", "Z", Move("p", (), RIGHT))
    mb.emit("q", "a", "Z", Move("p", (), RIGHT))
    assert mb.build().delta == {("q", "a", "Z"): Move("p", (), RIGHT)}


def test_builder_conflicting_emit_raises():
    mb = _builder()
    mb.emit("q", "a", "Z", Move("p", (), RIGHT))
    with pytest.raises(MachineInvariantError):
        mb.emit("q", "a", "Z", Move("q", (), RIGHT))


def test_builder_emit_any_covers_every_letter_and_the_right_marker():
    mb = MachineBuilder("q", "Z", "ab", states=["q", "p"], stack_alphabet=["Z"])
    mb.emit_any("q", "Z", Move("p", (), DOWN))
    delta = mb.build().delta
    assert delta == {("q", a, "Z"): Move("p", (), DOWN) for a in ("a", "b", RIGHT_MARK)}
    assert delta.stored == {("q", ANY, "Z"): Move("p", (), DOWN)}


def test_builder_identical_emit_any_is_a_no_op():
    mb = _builder()
    move = Move("p", (), DOWN)
    mb.emit("q", "a", "Z", move)
    mb.emit_any("q", "Z", move)
    mb.emit_any("q", "Z", move)
    assert mb.build().delta == {("q", "a", "Z"): move, ("q", RIGHT_MARK, "Z"): move}


@pytest.mark.parametrize("letter", ["a", RIGHT_MARK])
def test_builder_letter_emit_conflicting_with_emit_any_raises(letter):
    mb = _builder()
    mb.emit_any("q", "Z", Move("p", (), DOWN))
    mb.emit("q", LEFT_MARK, "Z", Move("q", (), DOWN))  # not covered: no conflict
    with pytest.raises(MachineInvariantError, match="conflicting moves"):
        mb.emit("q", letter, "Z", Move("q", (), DOWN))


def test_builder_emit_any_conflicts_name_the_first_row():
    mb = _builder()
    mb.emit("q", RIGHT_MARK, "Z", Move("p", (), DOWN))
    with pytest.raises(MachineInvariantError, match=r"delta\('q', '>', 'Z'\)"):
        mb.emit_any("q", "Z", Move("q", (), DOWN))
    mb.emit_any("p", "Z", Move("p", (), DOWN))
    with pytest.raises(MachineInvariantError, match=r"delta\('p', 'a', 'Z'\)"):
        mb.emit_any("p", "Z", Move("q", (), DOWN))


def test_builder_fresh_skips_taken_names():
    mb = _builder()
    assert mb.states.fresh("r") == "r"
    assert mb.states.fresh("q") == "q'"
    assert mb.states.fresh("q") == "q''"
    assert mb.stack_alphabet.fresh("q") == "q"  # states and symbols are separate


def test_builder_registries_keep_first_insertion_order():
    mb = _builder()
    for q in ("s", "p", "b", "q", "a"):
        mb.states.note(q)
    for z in ("Y", "Z", "X", "Y"):
        mb.stack_alphabet.note(z)
    m = mb.build()
    assert m.states == ("q", "p", "s", "b", "a")
    assert m.stack_alphabet == ("Z", "Y", "X")
    with pytest.raises(MachineInvariantError):
        mb.states.add("s")


def test_repeated_state_declaration_exits_invalid(tmp_path, capsys):
    from pegmachine.cli import EXIT_INVALID, main

    path = tmp_path / "dup.mach"
    path.write_text(ANBNCN_SOURCE.replace("@states q0 q1 qf", "@states q0 q1 q0 qf"))
    assert main(["check", str(path)]) == EXIT_INVALID
    assert "duplicate state name" in capsys.readouterr().err


# --- the stored table: one entry per letter-independent move ------------------------

_GROUP_HEAD = """\
@twoway no
@states q p f
@initial q
@final f
@bottom Z
@alphabet "ab"
q < Z -> q X right
"""


def _any_entries(m: Machine) -> dict:
    return {k: mv for k, mv in m.delta.stored.items() if k[1] == ANY}


def test_reader_folds_a_complete_group_where_its_first_row_stands():
    m = parse_machine_text(
        _GROUP_HEAD + 'p "a" Z -> f - down\nq "a" X -> p - down\n'
        'q "b" X -> p - down\np > Z -> f - down\nq > X -> p - down\n'
    )
    assert list(m.delta.stored) == [
        ("q", LEFT_MARK, "Z"), ("p", "a", "Z"), ("q", ANY, "X"), ("p", RIGHT_MARK, "Z"),
    ]
    assert len(m.delta) == 6
    assert m.delta[("q", "b", "X")] == Move("p", (), DOWN)
    # An ANY entry covers the input letters and ">" only.
    assert m.delta.get(("q", "c", "X")) is None and ("q", LEFT_MARK, "X") not in m.delta


@pytest.mark.parametrize(
    "rows",
    [
        'q "a" X -> p - down\nq > X -> p - down\n',  # no "b" row
        'q "a" X -> p - down\nq "b" X -> p - down\nq > X -> f - down\n',  # ">" differs
        # A letter that only a later row brings: the group lacks it.
        'q "a" X -> p - down\nq "b" X -> p - down\nq > X -> p - down\np "c" Z -> f - down\n',
    ],
    ids=["missing-letter", "other-end-move", "late-letter"],
)
def test_reader_leaves_an_incomplete_group_as_rows(rows):
    text = _GROUP_HEAD + rows
    m = parse_machine_text(text)
    assert _any_entries(m) == {}
    assert len(m.delta) == len(m.delta.stored) == text.count("->")
    assert render_machine_text(m) == render_machine_text(parse_machine_text(render_machine_text(m)))


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            'q "a" X -> p - down\nq "b" X -> p - down\nq > X -> p - down\nq "b" X -> p - down\n',
            "line 11: duplicate transition for ('q', 'b', 'X')",
        ),
        (
            'q "a" X -> p Y up\nq "b" X -> p Y up\nq > X -> p Y up\n',
            "line 8: an up move must not push",
        ),
        (
            'q "a" X -> p - right\nq "b" X -> p - right\nq > X -> p - right\np "a" Z -> f - down\n',
            "line 10: cannot move right off the right end marker",
        ),
        # The first fault in the file is named, not the first in the folded table.
        (
            'q "a" X -> p - right\np "a" Z -> f Y,Y up\nq "b" X -> p - right\nq > X -> p - right\n',
            "line 9: an up move must not push",
        ),
    ],
    ids=["duplicate", "up-push", "right-off-the-end", "first-fault-in-file-order"],
)
def test_reader_names_a_fault_in_a_group_at_its_line(rows, message):
    with pytest.raises(MachineTextError) as exc:
        parse_machine_text(_GROUP_HEAD + rows)
    assert str(exc.value) == message


def test_reader_expands_hat_rows_in_row_order_and_folds_them():
    m = parse_machine_text(
        _GROUP_HEAD + 'q "a" X -> p - hatdown\np "a" Z -> f - hatright\n'
        'q "b" X -> p - hatdown\nq > X -> p - hatdown\np "b" Z -> f - hatright\n'
    )
    assert m.states == ("q", "p", "f", "hats:p:hatdown", "hats:f:hatright")
    assert m.stack_alphabet == ("Z", "X", "hat:p:hatdown", "hat:f:hatright")
    assert m.delta.stored[("q", ANY, "X")] == Move("hats:p:hatdown", ("hat:p:hatdown",), DOWN)
    assert m.delta[("hats:p:hatdown", LEFT_MARK, "hat:p:hatdown")] == Move("p", (), DOWN)


STORED_SIZES = {  # name: ((rows, stored entries) compiled, (rows, stored entries) normalized)
    "fig2": ((426, 120), (523, 142)),
    "sec13_union": ((410, 116), (503, 137)),
    "sec13_abc": ((506, 140), (619, 166)),
}


@pytest.mark.parametrize("name", list(STORED_SIZES))
def test_stored_table_sizes_are_pinned(name, request):
    """A move on every letter and ``>`` is one entry; the rows stay as before."""
    from pegmachine.pppda import normalize

    m = grammar_to_machine(request.getfixturevalue(name))
    sizes = []
    for machine in (m, normalize(m)):
        again = parse_machine_text(render_machine_text(machine))
        assert (len(again.delta), len(again.delta.stored)) == (
            len(machine.delta), len(machine.delta.stored),
        )
        sizes.append((len(machine.delta), len(machine.delta.stored)))
    assert tuple(sizes) == STORED_SIZES[name]
