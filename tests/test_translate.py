import random

import pytest

from pegmachine.cooksim import run_linear
from pegmachine.errors import GrammarInvariantError, IllFormedError, NotCnfError, NotNormalError
from pegmachine.peg import (
    CnfGrammar,
    Consumed,
    FAILURE,
    Grammar,
    Nonterminal,
    Sequence,
    Terminal,
    accepts,
    desugar,
    interpret_naive,
    parse_grammar_text,
    to_cnf,
    wellformed,
)
from pegmachine.pppda import (
    DOWN,
    LEFT_MARK,
    RIGHT,
    RIGHT_MARK,
    Machine,
    Move,
    builtin_anbncn,
    normalize,
    run_direct,
)
from pegmachine.translate import (
    dppda_to_peg,
    grammar_to_machine,
    peg_to_dppda,
    roundtrip_check,
)

from conftest import all_words, configurations


def test_compile_single_terminal():
    g = to_cnf(parse_grammar_text('@alphabet "ab"\nS <- "a"'))
    m = peg_to_dppda(g)
    assert not m.two_way
    for word in all_words("ab", 4):
        assert (run_direct(m, word).outcome == "accept") == accepts(g, word), word


def test_compile_fig2_examples(fig2):
    m = grammar_to_machine(fig2)
    assert run_direct(m, "aab").outcome == "accept"
    assert run_direct(m, "abbc").outcome == "reject"


def test_compile_negation():
    g = to_cnf(parse_grammar_text('@alphabet "a"\nS <- N E\nN <- !B\nB <- "a"\nE <- ""'))
    m = peg_to_dppda(g)
    assert run_direct(m, "").outcome == "accept"
    assert run_direct(m, "a").outcome == "reject"


def test_compile_rejects_non_cnf(fig2):
    with pytest.raises(NotCnfError):
        peg_to_dppda(fig2)
    # Normal-form shapes, but the axiom on a right-hand side.
    with pytest.raises(GrammarInvariantError, match="right-hand side"):
        peg_to_dppda(parse_grammar_text('S <- A S\nA <- "a"'))


def test_compile_pipeline_checks_well_formedness_once(fig2, monkeypatch):
    calls = []
    real = wellformed.check_well_formed
    monkeypatch.setattr(wellformed, "check_well_formed", lambda g: calls.append(g) or real(g))
    grammar_to_machine(fig2)
    assert len(calls) == 1
    # The public compile still checks its input.
    a_b = Sequence(Nonterminal("A"), Nonterminal("B"))
    left_recursive = CnfGrammar.build([("S", a_b), ("A", a_b), ("B", Terminal("b"))])
    with pytest.raises(IllFormedError):
        peg_to_dppda(left_recursive)
    assert len(calls) == 2


def test_compiled_machines_loop_free(fig2, sec13_union):
    for g in (fig2, sec13_union):
        m = grammar_to_machine(g)
        for word in all_words("abc", 8):
            assert run_direct(m, word).outcome != "budget", word


def test_invariant_main_state_head_at_top_origin(fig2):
    """In the work state with a grammar symbol on top, head == its origin."""
    m = grammar_to_machine(fig2)
    for word in ("aab", "abbc", "bacc"):
        for c in configurations(m, word)[1:]:
            if c.state == "peg:q" and c.stack and c.stack[0][0].startswith("sym:"):
                assert c.head == c.stack[0][1], (word, c)


def test_invariant_signed_states_report_parse_outcomes(fig2):
    """Entering A+/A- with A's frame on top matches the packrat verdict."""
    cnf = to_cnf(desugar(fig2))
    m = peg_to_dppda(cnf)
    for word in ("aab", "abbc"):
        for c in configurations(m, word)[:-1]:
            state = c.state
            if not (state.startswith("peg:") and state[-1] in "+-"):
                continue
            name = state[4:-1]
            if name not in cnf.rules or not c.stack:
                continue
            if c.stack[0][0] != f"sym:{name}":
                continue
            left = c.stack[0][1]
            outcome = interpret_naive(cnf, Nonterminal(name), word, left - 1)
            if state.endswith("+"):
                assert outcome == Consumed(c.head - 1), (word, state, c)
            else:
                assert outcome == FAILURE, (word, state, c)


# --- extraction -----------------------------------------------------------------


def test_extract_requires_normal_form():
    with pytest.raises(NotNormalError):
        dppda_to_peg(builtin_anbncn())


def test_extract_checks_machines_passed_straight_in():
    # A machine with a two-symbol push is one-way but not normal.
    m = Machine(
        states=("q", "f"),
        input_alphabet=("a",),
        stack_alphabet=("Z", "X", "Y"),
        finals=("f",),
        initial_state="q",
        bottom="Z",
        delta={
            ("q", LEFT_MARK, "Z"): Move("q", ("X", "Y"), RIGHT),
            ("f", RIGHT_MARK, "Z"): Move("f", (), DOWN),
        },
    )
    with pytest.raises(NotNormalError, match="adds 2 symbols"):
        dppda_to_peg(m)
    with pytest.raises(NotNormalError, match="adds 2 symbols"):  # from the cached verdict
        dppda_to_peg(m)


def test_normal_form_verdict_is_cached():
    norm = normalize(builtin_anbncn())
    assert norm.__dict__["normal_form_defect"] is None  # set by normalize's check
    dppda_to_peg(norm)
    assert builtin_anbncn().normal_form_defect == "pop at ('q0', 'b', 'X') moves right"


def test_extract_anbncn_agrees_with_machine():
    norm = normalize(builtin_anbncn())
    g = dppda_to_peg(norm)
    for n in (1, 2, 3):
        assert accepts(g, "a" * n + "b" * n + "c" * n)
    for word in all_words("abc", 7):
        assert accepts(g, word) == (run_direct(norm, word).outcome == "accept"), word


def test_extract_trivial_epsilon_machine():
    g0 = to_cnf(parse_grammar_text('@alphabet "ab"\nS <- ""'))
    norm = normalize(peg_to_dppda(g0))
    g = dppda_to_peg(norm)
    for word in all_words("ab", 3):
        assert accepts(g, word) == (word == ""), word


def test_extract_up_variants_never_consume():
    """R of an up-direction nonterminal either keeps the suffix or fails."""
    norm = normalize(peg_to_dppda(to_cnf(parse_grammar_text('@alphabet "ab"\nS <- "a"'))))
    g = desugar(dppda_to_peg(norm))
    up_rules = [n for n in g.nonterminals if n.endswith(".up]")]
    assert up_rules
    for word in all_words("ab", 6):
        for name in up_rules:
            for pos in range(len(word) + 1):
                out = interpret_naive(g, Nonterminal(name), word, pos, budget=200_000)
                if isinstance(out, Consumed):
                    assert out.resume == pos, (name, word, pos)


def test_extract_alternative_order_immaterial(fig2):
    """Permuting the per-letter alternatives leaves the language unchanged."""
    from pegmachine.peg.ast import Choice, Expression

    norm = normalize(grammar_to_machine(fig2))
    g = dppda_to_peg(norm)

    def permute(e: Expression, rng: random.Random) -> Expression:
        alts = []
        node = e
        while isinstance(node, Choice):
            alts.append(node.first)
            node = node.second
        alts.append(node)
        if len(alts) == 1:
            return e
        rng.shuffle(alts)
        out = alts[-1]
        for alt in reversed(alts[:-1]):
            out = Choice(alt, out)
        return out

    rng = random.Random(3)
    shuffled = Grammar.build(
        [(name, permute(g.rules[name], rng)) for name in g.nonterminals],
        axiom=g.axiom,
        alphabet=g.alphabet,
    )
    for word in all_words("abc", 5):
        assert accepts(g, word) == accepts(shuffled, word), word


def _episode_down_pop(machine, word, q, z, p, start):
    """Where the run from (q, z on top, start) pops that z down into p, if ever."""
    from pegmachine.pppda.machine import Configuration, Halt, letter_at, step

    c = Configuration(q, ((z, start),), start)
    for _ in range(2000):
        if len(c.stack) == 1:
            mv = machine.delta.get((c.state, letter_at(word, c.head), c.stack[0][0]))
            if mv is not None and not mv.push:
                if mv.state == p and mv.direction == "down":
                    return c.head
                return None
        nxt = step(machine, c, word)
        if isinstance(nxt, Halt):
            return None
        c = nxt
    return None


@pytest.mark.parametrize("source", ['@alphabet "ab"\nS <- "a"', '@alphabet "ab"\nS <- N\nN <- !B\nB <- "b"'])
def test_extract_episode_semantics(source):
    """[q Z p dn] consumes exactly up to the machine's down pop into p."""
    norm = normalize(peg_to_dppda(to_cnf(desugar(parse_grammar_text(source)))))
    g = desugar(dppda_to_peg(norm))
    for word in ("ab", "ba", ""):
        for name in g.nonterminals:
            if not (name.startswith("[") and name.endswith(".dn]")):
                continue
            q, z, p, _ = name[1:-1].rsplit(".", 3)
            for start in range(1, len(word) + 2):
                popped_at = _episode_down_pop(norm, word, q, z, p, start)
                out = interpret_naive(g, Nonterminal(name), word, start - 1, budget=100_000)
                if popped_at is not None:
                    assert out == Consumed(popped_at - 1), (word, name, start)
                else:
                    assert not isinstance(out, Consumed), (word, name, start, out)


# --- full round trips --------------------------------------------------------------


def test_roundtrip_fig2(fig2):
    report = roundtrip_check(to_cnf(desugar(fig2)), all_words("abc", 6))
    assert report.ok, report.disagreements[:5]


def test_roundtrip_epsilon():
    report = roundtrip_check(to_cnf(parse_grammar_text('@alphabet "a"\nS <- ""')), all_words("a", 4))
    assert report.ok


def test_sec13_abc_engine_counts_do_not_grow(sec13_abc):
    # Sharing normal-form rules and hat expansions shrinks the machine but
    # must not lengthen a run: the direct engine takes exactly as many steps
    # as on the unshared machine (14 773).  Cook, which memoizes only the
    # surfaces whose move pushes, takes 23 211 ops and 4 823 entries (36 505
    # and 11 470 when every surface it chased took an entry; 41 337 ops on
    # the unshared machine).
    m = grammar_to_machine(sec13_abc)
    word = "a" * 300 + "b" * 300 + "c" * 300
    run = run_direct(m, word)
    assert run.outcome == "accept" and run.steps == 14_773
    lin = run_linear(m, word)
    assert lin.outcome == "accept"
    assert (lin.ops, lin.table_size) == (23_211, 4_823)


def test_roundtrip_sec13_abc(sec13_abc):
    report = roundtrip_check(to_cnf(desugar(sec13_abc)), all_words("abc", 9))
    assert report.ok, report.disagreements[:5]
