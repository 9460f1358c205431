import pytest

from pegmachine.errors import NotNormalError
from pegmachine.pppda import (
    DOWN,
    HAT_DIRECTIONS,
    HAT_DOWN,
    HAT_RIGHT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
    builtin_anbncn,
    builtin_loop,
    builtin_sweep,
    check_normal,
    desugar_hat_moves,
    normalize,
    run_direct,
)
from pegmachine.translate import grammar_to_machine

from conftest import all_words


def test_hat_desugar_is_identity_without_hats():
    m = desugar_hat_moves(builtin_anbncn())
    assert desugar_hat_moves(m) is m


def test_hat_desugar_expansion_shape():
    m = builtin_anbncn()
    md = desugar_hat_moves(m)
    mv = md.delta[("q1", "a", "Z0")]
    assert mv.push and mv.direction == RIGHT
    fresh = mv.push[0]
    for sigma in md.input_alphabet + (RIGHT_MARK,):
        pop = md.delta[(mv.state, sigma, fresh)]
        assert pop == Move("q1", (), DOWN)


def test_hat_desugar_preserves_language():
    m = builtin_anbncn()
    md = desugar_hat_moves(m)
    for word in all_words("abc", 9):
        want = run_direct(md, word).outcome
        assert want in ("accept", "reject")
    # Spot equivalence against a hand-built hat-free variant is covered by
    # the oracle test in test_builtin_anbncn; here check determinism of size.
    assert len(md.delta) > len(m.delta)


def _machine_many_hats() -> Machine:
    # Five hat moves with three distinct (target, direction) pairs; accepts
    # every word over "ab".
    return Machine(
        states=("q", "p", "f"),
        input_alphabet=("a", "b"),
        stack_alphabet=("Z", "X"),
        finals=("f",),
        initial_state="q",
        bottom="Z",
        delta={
            ("q", LEFT_MARK, "Z"): Move("q", ("X",), RIGHT),
            ("q", "a", "X"): Move("p", (), HAT_RIGHT),
            ("q", "b", "X"): Move("p", (), HAT_RIGHT),
            ("p", "a", "X"): Move("p", (), HAT_RIGHT),
            ("p", "b", "X"): Move("q", (), HAT_DOWN),
            ("q", RIGHT_MARK, "X"): Move("p", (), HAT_DOWN),
            ("p", RIGHT_MARK, "X"): Move("f", (), DOWN),
            ("f", RIGHT_MARK, "Z"): Move("f", (), DOWN),
        },
    )


@pytest.mark.parametrize("factory", [builtin_anbncn, _machine_many_hats])
def test_hat_desugar_shares_expansion_per_target_and_direction(factory):
    m = factory()
    hats = {(mv.state, mv.direction) for mv in m.delta.values() if mv.direction in HAT_DIRECTIONS}
    md = desugar_hat_moves(m)
    assert len(md.states) - len(m.states) <= len(hats)
    assert len(md.stack_alphabet) - len(m.stack_alphabet) <= len(hats)
    expansions = {}
    for key, mv in m.delta.items():
        if mv.direction in HAT_DIRECTIONS:
            assert expansions.setdefault((mv.state, mv.direction), md.delta[key]) == md.delta[key]


def test_hat_desugar_shared_expansion_preserves_language():
    md = desugar_hat_moves(_machine_many_hats())
    for word in all_words("ab", 6):
        assert run_direct(md, word).outcome == "accept", word


def test_hat_desugar_records_the_computed_verdict(fig2, sec13_union, sec13_abc):
    # The verdict is recorded when the machine is built, so the engines'
    # hat check does not walk δ; it must equal the one a walk computes.
    machines = [grammar_to_machine(g) for g in (fig2, sec13_union, sec13_abc)]
    for m in machines:  # compile expands its hat moves as it emits them
        assert not any(mv.direction in HAT_DIRECTIONS for mv in m.delta.values())
    for factory in (builtin_anbncn, builtin_loop, builtin_sweep, _machine_many_hats):
        machines.append(desugar_hat_moves(factory()))
    for m in machines:
        assert "has_hat_moves" in vars(m)
        assert m.has_hat_moves is any(mv.direction in HAT_DIRECTIONS for mv in m.delta.values())


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
        (lambda: desugar_hat_moves(builtin_anbncn()), "abc"),
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
    norm = normalize(desugar_hat_moves(builtin_anbncn()))
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
        emitted.append((q, a, z))
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
    norm1 = normalize(desugar_hat_moves(builtin_anbncn()))
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

    norm = normalize(desugar_hat_moves(builtin_anbncn()))
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
