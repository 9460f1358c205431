"""Seeded random-machine properties: engine agreement and normal-form soundness.

Random one-way machines exercise corners the hand-built corpus does not:
pushes and pops on the left end marker, up pops of symbols with origin 0,
multi-symbol pushes, and partial transition tables.  Random two-way
machines add left moves, which revisit cells with other stacks.  Random
sweep machines make the run depend on the origins: every pushed symbol's
``up`` pop sends the head back to where it was pushed.
"""

import random
from dataclasses import replace

import pytest

from pegmachine.cooksim import run_linear, work_bound
from pegmachine.errors import MachineInvariantError
from pegmachine.pppda import (
    ANY,
    DOWN,
    HAT_DOWN,
    HAT_RIGHT,
    Halt,
    LEFT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
    check_normal,
    initial_configuration,
    normalize,
    parse_machine_text,
    render_machine_text,
    run_direct,
    step,
)

from conftest import all_words, configurations, traced

SIGMA = "ab"


def random_machine(rng: random.Random) -> Machine:
    n_states = rng.randint(1, 3)
    n_syms = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    gamma = tuple(f"Z{i}" for i in range(n_syms))
    finals = tuple(q for q in states if rng.random() < 0.4)
    delta = {}
    letters = list(SIGMA) + [LEFT_MARK, RIGHT_MARK]
    for q in states:
        for a in letters:
            for z in gamma:
                roll = rng.random()
                if roll < 0.35:
                    continue  # leave undefined
                target = rng.choice(states)
                if roll < 0.6:  # pop
                    choices = [DOWN, UP]
                    if a != RIGHT_MARK:
                        choices.append(RIGHT)
                    delta[(q, a, z)] = Move(target, (), rng.choice(choices))
                else:  # push one or two symbols
                    push = tuple(rng.choice(gamma) for _ in range(rng.randint(1, 2)))
                    direction = DOWN if a == RIGHT_MARK or rng.random() < 0.5 else RIGHT
                    delta[(q, a, z)] = Move(target, push, direction)
    return Machine(
        states=states,
        input_alphabet=tuple(SIGMA),
        stack_alphabet=gamma,
        finals=finals,
        initial_state=states[0],
        bottom=gamma[0],
        delta=delta,
    )


def random_two_way_machine(rng: random.Random) -> Machine:
    n_states = rng.randint(2, 4)
    n_syms = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    gamma = tuple(f"Z{i}" for i in range(n_syms))
    finals = tuple(q for q in states if rng.random() < 0.4)
    delta = {}
    for q in states:
        for a in list(SIGMA) + [LEFT_MARK, RIGHT_MARK]:
            steps = [DOWN] + [RIGHT] * (a != RIGHT_MARK) + [LEFT] * (a != LEFT_MARK)
            for z in gamma:
                roll = rng.random()
                if roll < 0.2:
                    continue  # leave undefined
                target = rng.choice(states)
                if roll < 0.5:  # pop, perhaps up to the popped symbol's origin
                    delta[(q, a, z)] = Move(target, (), rng.choice(steps + [UP]))
                else:  # push one to three symbols
                    push = tuple(rng.choice(gamma) for _ in range(rng.randint(1, 3)))
                    delta[(q, a, z)] = Move(target, push, rng.choice(steps))
    # Start with a push to the right, so that few runs end on the left end marker.
    push = tuple(rng.choice(gamma) for _ in range(rng.randint(1, 3)))
    delta[(states[0], LEFT_MARK, gamma[0])] = Move(rng.choice(states), push, RIGHT)
    return Machine(
        states=states,
        input_alphabet=tuple(SIGMA),
        stack_alphabet=gamma,
        finals=finals,
        initial_state=states[0],
        bottom=gamma[0],
        delta=delta,
        two_way=True,
    )


def _random_move(rng: random.Random, a: str, symbols: tuple[str, ...], states) -> Move:
    """Any move the one-way model allows on letter ``a``."""
    target = rng.choice(states)
    roll = rng.random()
    if roll < 0.4:
        return Move(target, (), rng.choice([DOWN, UP] + [RIGHT] * (a != RIGHT_MARK)))
    if roll < 0.7:
        push = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2)))
        return Move(target, push, rng.choice([DOWN] + [RIGHT] * (a != RIGHT_MARK)))
    return Move(target, (), rng.choice([HAT_DOWN] + [HAT_RIGHT] * (a != RIGHT_MARK)))


def random_sweep_machine(rng: random.Random) -> Machine:
    """Push runs followed by ``up``-pop sweeps, as in ``builtin_sweep``, then mutated.

    Push states read the word left to right, pushing one or two symbols per
    letter.  On the right end marker a pushed symbol's ``up`` pop sends the
    head back to its origin, from where a sweep state hat-moves right to
    the marker and pops the next one.  Then about one move in five is
    replaced by a random one, and a few are dropped.
    """
    push_states = tuple(f"p{i}" for i in range(rng.randint(1, 2)))
    sweep_states = tuple(f"r{i}" for i in range(rng.randint(1, 2)))
    states = push_states + sweep_states + ("f",)
    pushed = tuple(f"X{i}" for i in range(rng.randint(1, 3)))
    gamma = ("Z",) + pushed
    delta = {(push_states[0], LEFT_MARK, "Z"): Move(rng.choice(push_states), (pushed[0],), RIGHT)}
    for p in push_states:
        for x in pushed:
            for a in SIGMA:
                push = tuple(rng.choice(pushed) for _ in range(rng.randint(1, 2)))
                delta[(p, a, x)] = Move(rng.choice(push_states), push, RIGHT)
            delta[(p, RIGHT_MARK, x)] = Move(rng.choice(sweep_states), (), UP)
    for r in sweep_states:
        for z in gamma:
            for a in SIGMA:
                delta[(r, a, z)] = Move(rng.choice(sweep_states), (), HAT_RIGHT)
        for x in pushed:
            delta[(r, RIGHT_MARK, x)] = Move(rng.choice(sweep_states), (), UP)
        delta[(r, RIGHT_MARK, "Z")] = Move("f", (), DOWN)
    for key in list(delta):
        roll = rng.random()
        if roll < 0.05:
            del delta[key]
        elif roll < 0.25:
            delta[key] = _random_move(rng, key[1], gamma, states)
    finals = ("f",) + tuple(q for q in states[:-1] if rng.random() < 0.2)
    mb = MachineBuilder(push_states[0], "Z", SIGMA, finals, states=states, stack_alphabet=gamma)
    for (q, a, z), move in delta.items():
        mb.emit(q, a, z, move)
    return mb.build()


def stepped_run(m: Machine, word: str, limit: int) -> tuple:
    """(outcome, reason, steps, final) of iterating ``step`` from the start."""
    c = initial_configuration(m)
    steps = 0
    while not isinstance(after := step(m, c, word), Halt):
        if steps == limit:
            return "budget", None, steps, c
        c, steps = after, steps + 1
    final, at_end = c.state in m.finals, c.head == len(word) + 1
    if c.stack:
        reason = "stack-not-empty" if final and at_end else "no-transition"
    else:
        reason = None if final and at_end else "not-at-right-end" if final else "non-final-halt"
    return "reject" if reason else "accept", reason, steps, c


def stepped_events(configs) -> list[tuple]:
    """The ``run_direct`` events the moves between ``configs`` make.

    One (kind, state, head, depth, popped origin) per move, the kind read
    from the change in stack depth.
    """
    return [
        ("push", c.state, c.head, len(c.stack), None)
        if len(c.stack) > len(b.stack)
        else ("pop", c.state, c.head, len(c.stack), b.stack[0][1])
        for b, c in zip(configs, configs[1:])
    ]


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("make", [random_machine, random_two_way_machine])
def test_direct_engine_matches_stepping(make, seed):
    m = make(random.Random(3000 + seed))
    for word in all_words(SIGMA, 5):
        run = run_direct(m, word, step_limit=300)
        assert (run.outcome, run.reason, run.steps, run.final) == stepped_run(m, word, 300), word
        again, events = traced(m, word, 300)
        assert again == run and len(events) == run.steps, word
        assert events == stepped_events(configurations(m, word, 300)), word


@pytest.mark.parametrize("seed", range(40))
def test_linear_engine_agrees_with_direct_on_random_machines(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    for word in all_words(SIGMA, 5):
        direct = run_direct(m, word, step_limit=20_000)
        linear = run_linear(m, word)
        if direct.outcome != "budget":
            assert linear.outcome == direct.outcome, (word, direct.outcome, linear.outcome)
        elif (linear.outcome, linear.reason) != ("reject", "loop"):
            # A long but finite run: the direct engine must finish and agree
            # once given room.
            retry = run_direct(m, word, step_limit=5_000_000)
            assert retry.outcome != "budget" and linear.outcome == retry.outcome, word


# A halt with symbols left on the stack is a stuck chase to the cook engine.
_COOK_REASON = {"no-transition": "stuck", "stack-not-empty": "stuck"}


@pytest.mark.parametrize("seed", range(40))
def test_linear_engine_agrees_with_direct_on_random_two_way_machines(seed):
    m = random_two_way_machine(random.Random(seed))
    for word in all_words(SIGMA, 5):
        # No finite run of these machines on these words takes 1000 steps.
        direct = run_direct(m, word, step_limit=2_000)
        if direct.outcome != "budget":
            want = (direct.outcome, _COOK_REASON.get(direct.reason, direct.reason))
            linear = run_linear(m, word)
            assert (linear.outcome, linear.reason) == want, (word, linear)


@pytest.mark.parametrize("seed", range(40))
def test_linear_engine_on_random_sweep_machines(seed):
    """Cook agrees with direct, within its table size and work bounds."""
    rng = random.Random(4000 + seed)
    m = random_sweep_machine(rng)
    words = list(all_words(SIGMA, 4)) + ["a" * 24, "b" * 24]
    words += ["".join(rng.choice(SIGMA) for _ in range(rng.randint(5, 24))) for _ in range(4)]
    for word in words:
        linear = run_linear(m, word)
        assert linear.table_size <= len(m.states) * len(m.stack_alphabet) * (len(word) + 2), word
        assert linear.ops <= work_bound(m, len(word)), word
        direct = run_direct(m, word, step_limit=20_000)
        if direct.outcome == "budget" and linear.reason != "loop":
            # A long but finite run: the direct engine must finish once given room.
            direct = run_direct(m, word, step_limit=2_000_000)
        if direct.outcome == "budget":
            assert (linear.outcome, linear.reason) == ("reject", "loop"), word
        else:
            want = (direct.outcome, _COOK_REASON.get(direct.reason, direct.reason))
            assert (linear.outcome, linear.reason) == want, (word, linear)


@pytest.mark.parametrize("seed", range(30))
def test_extraction_agrees_on_random_machines(seed):
    """normalize + extract matches the machine wherever its run terminates.

    On words where the machine loops, the extracted grammar's recursion
    revisits a rule at the same position; the memoizing recognizer reports
    that instead of diverging, and the loop-exact engine must concur.
    """
    from pegmachine.peg import Consumed, LeftRecursionError, desugar, interpret_packrat
    from pegmachine.translate import dppda_to_peg

    rng = random.Random(2000 + seed)
    m = random_machine(rng)
    norm = normalize(m)
    g = desugar(dppda_to_peg(norm))
    for word in all_words(SIGMA, 4):
        direct = run_direct(m, word, step_limit=50_000)
        try:
            got = interpret_packrat(g, word) == Consumed(len(word))
        except LeftRecursionError:
            # The grammar re-entered a rule in place, which mirrors a loop
            # of the machine's run; looping words are never accepted.
            assert run_linear(m, word).reason == "loop", word
            continue
        if direct.outcome == "budget":
            arbiter = run_linear(m, word)
            if arbiter.reason == "loop":
                assert got is False, word  # looping runs accept nothing
            else:
                assert got == (arbiter.outcome == "accept"), word
        else:
            assert got == (direct.outcome == "accept"), (word, direct.outcome, got)


@pytest.mark.parametrize("seed", range(40))
def test_normalize_preserves_language_on_random_machines(seed):
    rng = random.Random(1000 + seed)
    m = random_machine(rng)
    norm = normalize(m)
    check_normal(norm)
    for word in all_words(SIGMA, 5):
        want_run = run_direct(m, word, step_limit=20_000)
        if want_run.outcome == "budget":
            # Arbitrate long runs with the loop-exact engine.
            arbiter = run_linear(m, word)
            if arbiter.reason == "loop":
                assert run_direct(norm, word, step_limit=200_000).outcome == "budget"
            else:
                got = run_direct(norm, word, step_limit=5_000_000).outcome
                assert got == arbiter.outcome, (word, arbiter.outcome, got)
        else:
            got = run_direct(norm, word, step_limit=200_000).outcome
            assert got == want_run.outcome, (word, want_run.outcome, got)


def normal_mutant(rng: random.Random, m: Machine) -> Machine | None:
    """``m`` with one to three rows dropped, replaced or added; None if invalid.

    New moves have the shapes the normal form allows: one-symbol pushes
    and pops moving ``down`` or ``up``.  So a mutant often still passes
    :func:`check_normal` while its language changes.
    """
    delta = dict(m.delta)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            del delta[rng.choice(list(delta))]
            continue
        if roll < 0.6:
            q, a, z = rng.choice(list(delta))
        else:
            q, a = rng.choice(m.states), rng.choice(SIGMA + RIGHT_MARK)
            z = rng.choice(m.stack_alphabet)
        target = rng.choice(m.states)
        if rng.random() < 0.5:
            delta[(q, a, z)] = Move(target, (), rng.choice([DOWN, UP]))
        else:
            direction = rng.choice([DOWN] + [RIGHT] * (a != RIGHT_MARK))
            delta[(q, a, z)] = Move(target, (rng.choice(m.stack_alphabet),), direction)
    try:
        return Machine(
            m.states, m.input_alphabet, m.stack_alphabet, m.finals, m.initial_state, m.bottom, delta
        )
    except MachineInvariantError:
        return None


def direct_accepts(m: Machine, word: str) -> bool:
    """The direct engine's verdict; cook's loop detection settles runs over budget."""
    run = run_direct(m, word, step_limit=20_000)
    if run.outcome == "budget":
        if run_linear(m, word).reason == "loop":
            return False
        run = run_direct(m, word, step_limit=2_000_000)
    assert run.outcome != "budget", word
    return run.outcome == "accept"


@pytest.mark.parametrize("seed", range(20))
def test_machines_check_normal_accepts_extract_faithfully(seed):
    """``normalize`` keeps a normal machine, and every normal machine extracts.

    The machines are normalized random machines and their mutants; each
    one that :func:`check_normal` accepts must extract to a grammar that
    agrees with the direct engine on every short word.
    """
    from pegmachine.peg import Consumed, LeftRecursionError, desugar, interpret_packrat
    from pegmachine.translate import dppda_to_peg

    rng = random.Random(5000 + seed)
    norm = normalize((random_machine if seed % 2 else random_sweep_machine)(rng))
    assert normalize(norm) is norm
    for m in [norm] + [normal_mutant(rng, norm) for _ in range(6)]:
        if m is None or m.normal_form_defect is not None:
            continue
        assert normalize(m) is m
        g = desugar(dppda_to_peg(m))
        for word in all_words(SIGMA, 4):
            try:
                got = interpret_packrat(g, word) == Consumed(len(word))
            except LeftRecursionError:  # mirrors a loop of the machine
                assert run_linear(m, word).reason == "loop", word
                continue
            assert got == direct_accepts(m, word), word


# --- the stored table against its expansion ---------------------------------------


def _stored_table_machines() -> dict:
    """Factories of machines that store moves every way the toolkit makes them."""
    from pegmachine.closures import left_concat_dcfl, reg_closure_machine
    from pegmachine.fuzz import random_cnf_grammar
    from pegmachine.peg import parse_grammar_text
    from pegmachine.pppda import builtin_anbncn, builtin_loop, builtin_sweep
    from pegmachine.translate import grammar_to_machine

    from conftest import FIG2_TEXT, SEC13_ABC_TEXT, SEC13_UNION_TEXT
    from test_closure_random import random_dpda, random_spec

    cases = []
    for make in (random_machine, random_two_way_machine, random_sweep_machine):
        cases += [(f"{make.__name__}-{seed}", lambda make=make, seed=seed: make(random.Random(seed)))
                  for seed in range(8)]
    for name, text in (("fig2", FIG2_TEXT), ("union", SEC13_UNION_TEXT), ("abc", SEC13_ABC_TEXT)):
        cases.append((name, lambda text=text: grammar_to_machine(parse_grammar_text(text))))
    for name, build in (("anbncn", builtin_anbncn), ("loop", builtin_loop), ("sweep", builtin_sweep)):
        cases.append((name, build))
    for seed in range(4):
        cases.append((f"reg-closure-{seed}", lambda seed=seed: reg_closure_machine(
            random_spec(random.Random(seed)))))
        cases.append((f"concat-{seed}", lambda seed=seed: left_concat_dcfl(
            random_dpda(random.Random(1000 + seed)),
            grammar_to_machine(random_cnf_grammar(random.Random(seed), 4, len(SIGMA))))))
    return dict(cases)


STORED_TABLE_MACHINES = _stored_table_machines()


def _expanded(m: Machine) -> dict:
    """δ row by row, written out from the stored entries."""
    rows = {}
    for (q, a, z), mv in m.delta.stored.items():
        for b in (*m.input_alphabet, RIGHT_MARK) if a == ANY else (a,):
            assert (q, b, z) not in rows, (q, b, z)
            rows[q, b, z] = mv
    return rows


@pytest.mark.parametrize("name", list(STORED_TABLE_MACHINES))
def test_stored_table_answers_as_its_expansion(name):
    """Each machine, its normal form when one-way, and both read back from their text.

    The text keeps every part but Γ's order, which the reader rebuilds from
    the rows; a machine read back once reads back equal.
    """
    m = STORED_TABLE_MACHINES[name]()
    built = [m] if m.two_way else [m, normalize(m)]
    read = [parse_machine_text(render_machine_text(x)) for x in built]
    for x, was_read in [(x, False) for x in built] + [(x, True) for x in read]:
        assert dict(x.delta.items()) == _expanded(x)
        text = render_machine_text(x)
        assert len(x.delta) == sum(1 for line in text.splitlines() if not line.startswith("@"))
        again = parse_machine_text(text)
        assert again == (x if was_read else replace(x, stack_alphabet=again.stack_alphabet))
        for word in all_words(x.input_alphabet[:2], 3):
            assert run_direct(x, word, step_limit=400)[:3] == stepped_run(x, word, 400)[:3], word
