import pytest

from pegmachine.errors import MachineInvariantError, NotNormalError
from pegmachine.pppda import (
    ANY,
    DOWN,
    HAT_DIRECTIONS,
    HAT_DOWN,
    HAT_LEFT,
    HAT_RIGHT,
    LEFT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
    builtin_anbncn,
    check_normal,
    normalize,
    run_direct,
)

from pegmachine.peg import accepts, desugar
from pegmachine.translate import dppda_to_peg, grammar_to_machine

from conftest import all_words
from test_builtin_anbncn import independent_oracle


# Hat moves are expanded by MachineBuilder.emit, and by the .mach reader
# through it: a Machine never holds one.


@pytest.mark.parametrize("direction", HAT_DIRECTIONS)
def test_builder_expands_each_hat_direction(direction):
    mb = MachineBuilder("q", "Z", "ab", two_way=True, states=("q", "t"), stack_alphabet=("Z",))
    mb.emit("q", "a", "Z", Move("t", (), direction))
    m = mb.build()
    mid, sym = f"hats:t:{direction}", f"hat:t:{direction}"
    core = {HAT_LEFT: LEFT, HAT_DOWN: DOWN, HAT_RIGHT: RIGHT}[direction]
    assert m.states == ("q", "t", mid) and m.stack_alphabet == ("Z", sym)
    assert m.delta[("q", "a", "Z")] == Move(mid, (sym,), core)
    # The pop lands in the target whatever the letter, on the left end
    # marker too unless the push moved right.
    markers = (RIGHT_MARK,) if direction == HAT_RIGHT else (RIGHT_MARK, LEFT_MARK)
    assert {k: mv for k, mv in m.delta.items() if k[0] == mid} == {
        (mid, a, sym): Move("t", (), DOWN) for a in ("a", "b") + markers
    }


def test_builder_refuses_a_hat_with_a_push_string():
    mb = MachineBuilder("q", "Z", "a", states=("q",), stack_alphabet=("Z",))
    with pytest.raises(MachineInvariantError) as err:
        mb.emit("q", "a", "Z", Move("q", ("Z",), HAT_RIGHT))
    assert str(err.value) == "delta('q', 'a', 'Z'): hat moves carry no push string"


def test_hat_desugar_expansion_shape():
    md = builtin_anbncn()  # its one hat row: q1 "a" Z0 -> q1 - hatright
    mv = md.delta[("q1", "a", "Z0")]
    assert mv == Move("hats:q1:hatright", ("hat:q1:hatright",), RIGHT)
    for sigma in md.input_alphabet + (RIGHT_MARK,):
        assert md.delta[(mv.state, sigma, mv.push[0])] == Move("q1", (), DOWN)


def test_hat_desugar_preserves_language():
    # The oracle reads the hat row literally: the head moves, the stack stays.
    md = builtin_anbncn()
    for word in all_words("abc", 7):
        assert (run_direct(md, word).outcome == "accept") == independent_oracle(word), word


# Five hat rows with three distinct (target, direction) pairs; the machine
# accepts every word over "ab".
MANY_HATS = [
    ("q", LEFT_MARK, "Z", Move("q", ("X",), RIGHT)),
    ("q", "a", "X", Move("p", (), HAT_RIGHT)),
    ("q", "b", "X", Move("p", (), HAT_RIGHT)),
    ("p", "a", "X", Move("p", (), HAT_RIGHT)),
    ("p", "b", "X", Move("q", (), HAT_DOWN)),
    ("q", RIGHT_MARK, "X", Move("p", (), HAT_DOWN)),
    ("p", RIGHT_MARK, "X", Move("f", (), DOWN)),
    ("f", RIGHT_MARK, "Z", Move("f", (), DOWN)),
]


def _machine_many_hats() -> Machine:
    mb = MachineBuilder("q", "Z", "ab", ("f",), states=("q", "p", "f"), stack_alphabet=("Z", "X"))
    for row in MANY_HATS:
        mb.emit(*row)
    return mb.build()


def test_builder_names_hat_expansions_in_first_use_order():
    m = _machine_many_hats()
    fresh = ("p:hatright", "q:hatdown", "p:hatdown")
    assert m.states == ("q", "p", "f") + tuple("hats:" + h for h in fresh)
    assert m.stack_alphabet == ("Z", "X") + tuple("hat:" + h for h in fresh)
    for q, a, z, mv in MANY_HATS:
        if mv.direction in HAT_DIRECTIONS:
            assert m.delta[(q, a, z)].state == f"hats:{mv.state}:{mv.direction}"


@pytest.mark.parametrize("factory", [builtin_anbncn, _machine_many_hats])
def test_hat_desugar_shares_expansion_per_target_and_direction(factory):
    m = factory()
    hats = [q for q in m.states if q.startswith("hats:")]
    # One push per hat state, of that state's own fresh symbol, for every row.
    pushes = {mv for mv in m.delta.values() if mv.state in hats}
    assert sorted(mv.state for mv in pushes) == sorted(hats)
    assert all(mv.push == ("hat:" + mv.state[len("hats:"):],) for mv in pushes)


def test_hat_desugar_shared_expansion_preserves_language():
    md = _machine_many_hats()
    for word in all_words("ab", 6):
        assert run_direct(md, word).outcome == "accept", word


def _machine_pop_right() -> Machine:
    # Accepts exactly "a": pop the bottom while moving right over it.
    return Machine(
        states=("q", "f"),
        input_alphabet=("a",),
        stack_alphabet=("Z", "W"),
        finals=("f",),
        initial_state="q",
        bottom="Z",
        delta={
            ("q", LEFT_MARK, "Z"): Move("q", ("W",), RIGHT),
            ("q", "a", "W"): Move("f", (), RIGHT),
            ("f", RIGHT_MARK, "Z"): Move("f", (), DOWN),
        },
    )


def _machine_multi_push() -> Machine:
    # Pushes two symbols in one move; accepts "ab".
    return Machine(
        states=("q", "p", "f"),
        input_alphabet=("a", "b"),
        stack_alphabet=("Z", "X", "Y"),
        finals=("f",),
        initial_state="q",
        bottom="Z",
        delta={
            ("q", LEFT_MARK, "Z"): Move("q", ("X", "Y"), RIGHT),
            ("q", "a", "X"): Move("p", (), RIGHT),
            ("p", "b", "Y"): Move("p", (), RIGHT),
            ("p", RIGHT_MARK, "Z"): Move("f", (), DOWN),
        },
    )


@pytest.mark.parametrize(
    "factory,sigma",
    [
        (_machine_pop_right, "a"),
        (_machine_multi_push, "ab"),
        (lambda: builtin_anbncn(), "abc"),
    ],
)
def test_normalize_preserves_language(factory, sigma):
    m = factory()
    norm = normalize(m)
    check_normal(norm)
    for word in all_words(sigma, 8):
        assert (
            run_direct(m, word).outcome == run_direct(norm, word).outcome
        ), (word, run_direct(m, word).outcome, run_direct(norm, word).outcome)


def test_normalize_structural_properties():
    norm = normalize(builtin_anbncn())
    for (q, a, z), mv in norm.delta.items():
        if not mv.push:
            assert mv.direction in (DOWN, UP)
        assert len(mv.push) <= 1
        assert norm.bottom not in mv.push
        if z == norm.bottom and not mv.push:
            assert mv.direction == DOWN
    left_entries = [k for k in norm.delta if k[1] == LEFT_MARK]
    assert len(left_entries) == 1  # only the initial skip reads the left marker


def _machine_shared_push_and_pop_right() -> Machine:
    # The same two-symbol push to ``q`` from two sources, the first of them
    # before a pop that moves right in δ order.
    return Machine(
        states=("q", "p", "f"),
        input_alphabet=("a", "b"),
        stack_alphabet=("Z", "X", "Y"),
        finals=("f",),
        initial_state="q",
        bottom="Z",
        delta={
            ("q", LEFT_MARK, "Z"): Move("q", ("X", "Y"), RIGHT),
            ("q", "a", "X"): Move("p", (), RIGHT),
            ("p", "b", "Y"): Move("q", ("X", "Y"), RIGHT),
            ("p", RIGHT_MARK, "Y"): Move("f", (), DOWN),
            ("f", RIGHT_MARK, "Z"): Move("f", (), DOWN),
        },
    )


def test_normalize_registers_fresh_names_in_stage_order(monkeypatch):
    """``nr`` names, then ``np`` names, then ``nz`` names; one chain per push."""
    emitted: list[tuple[str, str, str]] = []
    emit = MachineBuilder.emit

    def counting_emit(self, q, a, z, move):
        # One key per row that the call emits: an ANY entry covers every letter and ">".
        emitted.extend((q, b, z) for b in ((*self.input_alphabet, RIGHT_MARK) if a == ANY else (a,)))
        emit(self, q, a, z, move)

    monkeypatch.setattr(MachineBuilder, "emit", counting_emit)
    m = _machine_shared_push_and_pop_right()
    norm = normalize(m)
    check_normal(norm)
    assert norm.states == (
        "m:q", "b:q", "m:p", "m:f", "m:nr1:q:a:X", "m:nr2:q:a:X", "m:np:q:X",
        "m:nz:init", "b:nz:init", "m:nz:fin", "nz:skip",
    )
    assert norm.stack_alphabet == ("Z", "X", "Y", "nr:q:a:X", "nz:#", "[Z<]", "nz:skip-sym")
    assert len(norm.delta) == 30
    # Both pushes enter the one chain, whose links were emitted once each.
    assert norm.delta[("m:p", "b", "Y")] == Move("m:np:q:X", ("Y",), RIGHT)
    links = [key for key in emitted if key[0] == "np:q:X"]
    assert len(links) == len(set(links)) == 4  # "a", "b", ">" and "<"
    for word in all_words("ab", 6):
        assert run_direct(norm, word).outcome == run_direct(m, word).outcome, word


def test_normalize_max_push_length_one():
    norm = normalize(_machine_multi_push())
    assert max(len(mv.push) for mv in norm.delta.values()) == 1
    for word in all_words("ab", 6):
        assert run_direct(norm, word).outcome == run_direct(_machine_multi_push(), word).outcome


def test_normalize_idempotent_language():
    norm1 = normalize(builtin_anbncn())
    norm2 = normalize(norm1)
    check_normal(norm2)
    for word in all_words("abc", 7):
        assert run_direct(norm1, word).outcome == run_direct(norm2, word).outcome


def test_normalize_rejects_two_way():
    m = Machine(
        states=("q",),
        input_alphabet=("a",),
        stack_alphabet=("Z",),
        finals=(),
        initial_state="q",
        bottom="Z",
        delta={("q", "a", "Z"): Move("q", (), UP)},
        two_way=True,
    )
    with pytest.raises(NotNormalError):
        normalize(m)


def test_normalized_machine_start_convention():
    """Started at cell 1 with the bottom's origin there, runs coincide."""
    from pegmachine.pppda.machine import Configuration, step, Halt

    norm = normalize(builtin_anbncn())
    for word in ("abc", "aabbcc", "abca", "ab", ""):
        # Conventional run.
        want = run_direct(norm, word).outcome
        # Run started directly on the first input cell.
        c = Configuration(norm.initial_state, ((norm.bottom, 1),), 1)
        finals = set(norm.finals)
        for _ in range(10_000):
            nxt = step(norm, c, word)
            if isinstance(nxt, Halt):
                break
            c = nxt
        got = "accept" if (not c.stack and c.state in finals and c.head == len(word) + 1) else "reject"
        assert got == want, (word, got, want)


def fig2_without_skip(fig2) -> Machine:
    """Compiled fig2 with no initial skip, but normal in every other respect.

    Every left-marker row but the initial one is dropped, and each
    two-symbol push is split through a fresh state.  The initial row then
    pushes the axiom symbol, so the run does not restart on cell 1 in the
    initial state, as extraction assumes.
    """
    m = grammar_to_machine(fig2)
    mb = MachineBuilder.like(m)
    for (q, a, z), mv in m.delta.items():
        if a == LEFT_MARK and (q, z) != (m.initial_state, m.bottom):
            continue
        if len(mv.push) == 2:
            top, deep = mv.push
            mid = mb.states.fresh(f"split:{q}:{a}:{z}")
            mb.emit(q, a, z, Move(mid, (deep,), mv.direction))
            mb.emit_any(mid, deep, Move(mv.state, (top,), DOWN))
        else:
            mb.emit(q, a, z, mv)
    return mb.build()


def test_check_normal_requires_the_initial_skip(fig2):
    m = fig2_without_skip(fig2)
    assert m.normal_form_defect == "the initial move is not a skip of the left end marker"
    with pytest.raises(NotNormalError, match="not a skip of the left end marker"):
        dppda_to_peg(m)
    norm = normalize(m)
    assert normalize(norm) is norm
    g = desugar(dppda_to_peg(norm))
    accepted = 0
    for word in all_words("abc", 6):
        want = accepts(fig2, word)
        accepted += want
        assert run_direct(m, word).outcome == ("accept" if want else "reject"), word
        assert accepts(g, word) == want, word
    assert accepted == 11
