import random

import pytest

from pegmachine.closures import (
    CompositionSpec,
    Dpda,
    LabeledDfa,
    absorb_epsilon_labels,
    brute_force_membership,
    dpda_run,
    left_concat_dcfl,
    parse_dpda_text,
    pel_complement,
    pel_intersection,
    pel_union,
    reg_closure_machine,
    render_dpda_text,
)
from pegmachine.cooksim import run_linear
from pegmachine.errors import CompositionError, MachineInvariantError
from pegmachine.peg import accepts, parse_grammar_text
from pegmachine.pppda import run_direct
from pegmachine.translate import grammar_to_machine

from conftest import all_words, dfa_pairs, dpda_anbn, dpda_cmd, dpda_single


# --- classical DPDA -------------------------------------------------------------


def test_dpda_anbn_language():
    d = dpda_anbn()
    assert dpda_run(d, "aabb") == "accept"
    assert dpda_run(d, "abb") == "reject"
    assert dpda_run(d, "") == "reject"
    for word in all_words("ab", 8):
        k = len(word) // 2
        want = word != "" and word == "a" * k + "b" * k
        assert (dpda_run(d, word) == "accept") == want, word


def test_dpda_epsilon_budget():
    looping = Dpda(
        states=("q",), input_alphabet=("a",), stack_alphabet=("B",),
        finals=(), initial_state="q", bottom="B",
        delta={("q", "", "B"): ("q", ("B",))},
    )
    assert dpda_run(looping, "a") == "budget"


def test_dpda_determinism_validated():
    with pytest.raises(MachineInvariantError):
        Dpda(
            states=("q",), input_alphabet=("a",), stack_alphabet=("B",),
            finals=(), initial_state="q", bottom="B",
            delta={("q", "a", "B"): ("q", ("B",)), ("q", "", "B"): ("q", ("B",))},
        )


@pytest.mark.parametrize(
    "field, value", [("states", ("q", "q")), ("finals", ("q", "q")), ("stack_alphabet", ("B", "B"))]
)
def test_dpda_repeated_names_rejected(field, value):
    parts = dict(
        states=("q",), input_alphabet=("a",), stack_alphabet=("B",),
        finals=(), initial_state="q", bottom="B", delta={},
    )
    with pytest.raises(MachineInvariantError, match="repeated"):
        Dpda(**{**parts, field: value})


@pytest.mark.parametrize("letter", ["<", ">", '"', " ", "ab", ""])
def test_dpda_refuses_a_bad_input_letter(letter):
    with pytest.raises(MachineInvariantError) as err:
        Dpda(
            states=("q",), input_alphabet=("a", letter), stack_alphabet=("B",),
            finals=(), initial_state="q", bottom="B", delta={},
        )
    assert str(err.value) == f"bad input letter {letter!r}"


@pytest.mark.parametrize(
    "field, value", [("states", ("s", "s")), ("finals", ("s", "s")), ("labels", ("l", "l"))]
)
def test_dfa_repeated_names_rejected(field, value):
    parts = dict(states=("s",), labels=("l",), delta={("s", "l"): "s"}, initial="s", finals=())
    with pytest.raises(MachineInvariantError, match="repeated"):
        LabeledDfa(**{**parts, field: value})


def test_dpda_text_roundtrip():
    d = dpda_anbn()
    text = render_dpda_text(d)
    again = parse_dpda_text(text)
    assert render_dpda_text(again) == text
    assert again.delta == d.delta


# --- Boolean combinators ----------------------------------------------------------


def test_complement_accepts_the_rejected_word(fig2):
    assert accepts(pel_complement(fig2), "abbc")


def test_complement_of_everything_is_empty():
    g = parse_grammar_text('@alphabet "ab"\nS <- .*')
    comp = pel_complement(g)
    for word in all_words("ab", 4):
        assert not accepts(comp, word), word


def test_double_complement_restores_language():
    anbn = parse_grammar_text('@alphabet "ab"\nS <- A !.\nA <- "a" A "b" / ""')
    twice = pel_complement(pel_complement(anbn))
    for word in all_words("ab", 8):
        assert accepts(twice, word) == accepts(anbn, word), word


def test_union_matches_reference_language(sec13_union):
    anbn = parse_grammar_text('@alphabet "abc"\nS <- A !.\nA <- "a" A "b" / ""')
    ancn = parse_grammar_text('@alphabet "abc"\nS <- A !.\nA <- "a" A "c" / ""')
    u = pel_union(anbn, ancn)
    for word in all_words("abc", 8):
        assert accepts(u, word) == accepts(sec13_union, word), word


def test_intersection_idempotent(fig2):
    both = pel_intersection(fig2, fig2)
    for word in all_words("abc", 6):
        assert accepts(both, word) == accepts(fig2, word), word


def test_intersection_of_prefix_and_suffix_sets():
    starts_a = parse_grammar_text('@alphabet "ab"\nS <- "a" .*')
    ends_b = parse_grammar_text('@alphabet "ab"\nS <- (!(. !.) .)* "b"')
    both = pel_intersection(starts_a, ends_b)
    for word in all_words("ab", 6):
        want = word.startswith("a") and word.endswith("b")
        assert accepts(both, word) == want, word


def test_boolean_truth_tables_random():
    from pegmachine.fuzz import random_general_grammar

    rng = random.Random(13)
    for _ in range(10):
        g1 = random_general_grammar(rng, 3, 2)
        g2 = random_general_grammar(rng, 3, 2)
        comp = pel_complement(g1)
        union = pel_union(g1, g2)
        inter = pel_intersection(g1, g2)
        for word in all_words("ab", 5):
            a, b = accepts(g1, word), accepts(g2, word)
            assert accepts(comp, word) == (not a), word
            assert accepts(union, word) == (a or b), word
            assert accepts(inter, word) == (a and b), word


# --- left concatenation -------------------------------------------------------------


def _concat_oracle(x, y_grammar, word):
    return any(
        dpda_run(x, word[:k]) == "accept" and accepts(y_grammar, word[k:])
        for k in range(len(word) + 1)
    )


def test_concat_anbn_cstar():
    x = dpda_anbn()
    y_grammar = parse_grammar_text('@alphabet "abc"\nS <- "c" S / ""')
    m = left_concat_dcfl(x, grammar_to_machine(y_grammar))
    for word in all_words("abc", 8):
        want = _concat_oracle(x, y_grammar, word)
        assert (run_direct(m, word).outcome == "accept") == want, word


def test_concat_single_letters():
    x = dpda_single("a")
    y_grammar = parse_grammar_text('@alphabet "ab"\nS <- "b"')
    m = left_concat_dcfl(x, grammar_to_machine(y_grammar))
    for word in all_words("ab", 4):
        assert (run_direct(m, word).outcome == "accept") == (word == "ab"), word


def test_concat_empty_left_language():
    empty = Dpda(
        states=("q",), input_alphabet=("a",), stack_alphabet=("B",),
        finals=(), initial_state="q", bottom="B", delta={},
    )
    y_grammar = parse_grammar_text('@alphabet "ab"\nS <- .*')
    m = left_concat_dcfl(empty, grammar_to_machine(y_grammar))
    for word in all_words("ab", 4):
        assert run_direct(m, word).outcome == "reject", word


def test_concat_requires_compiled_machine():
    from pegmachine.pppda import builtin_anbncn

    with pytest.raises(CompositionError):
        left_concat_dcfl(dpda_single("a"), builtin_anbncn())


def test_concat_requires_covering_alphabet():
    y = grammar_to_machine(parse_grammar_text('S <- "b"'))  # alphabet {b} only
    with pytest.raises(CompositionError):
        left_concat_dcfl(dpda_single("a"), y)


def test_concat_agrees_under_linear_engine():
    x = dpda_anbn()
    y_grammar = parse_grammar_text('@alphabet "abc"\nS <- "c" S / ""')
    m = left_concat_dcfl(x, grammar_to_machine(y_grammar))
    for word in all_words("abc", 6):
        want = _concat_oracle(x, y_grammar, word)
        assert (run_linear(m, word).outcome == "accept") == want, word


# --- regular closure -----------------------------------------------------------------


def _pairs_spec():
    return CompositionSpec(dfa_pairs(), {"l1": dpda_anbn(), "l2": dpda_cmd()})


def test_brute_force_examples():
    spec = _pairs_spec()
    assert brute_force_membership(spec, "abcd") is True
    assert brute_force_membership(spec, "abab") is False
    assert brute_force_membership(spec, "") is True  # zero blocks, initial final
    single = CompositionSpec(
        LabeledDfa(
            states=("t0", "t1"), labels=("l1",),
            delta={("t0", "l1"): "t1", ("t1", "l1"): "t1"},
            initial="t0", finals=("t1",),
        ),
        {"l1": dpda_anbn()},
    )
    assert brute_force_membership(single, "ab") is True


def test_brute_force_agrees_with_the_machine_on_long_words():
    """The oracle has no length cap: 40-letter words and their one-letter mutants."""
    spec = _pairs_spec()
    m = reg_closure_machine(spec)
    word = "abcd" * 10
    words = [word] + [word[:i] + c + word[i + 1:] for i in range(len(word)) for c in "abcd"]
    cache: dict = {}
    verdicts = set()
    for w in dict.fromkeys(words):
        want = brute_force_membership(spec, w, cache)
        verdicts.add(want)
        assert (run_linear(m, w).outcome == "accept") == want, w
    assert verdicts == {True, False}


def test_reg_closure_pairs_machine():
    spec = _pairs_spec()
    m = reg_closure_machine(spec)
    assert run_direct(m, "abcd").outcome == "accept"
    assert run_direct(m, "abab").outcome == "reject"
    cache: dict = {}
    for word in all_words("abcd", 6):
        want = brute_force_membership(spec, word, cache)
        assert (run_direct(m, word).outcome == "accept") == want, word
        assert (run_linear(m, word).outcome == "accept") == want, word


def test_reg_closure_epsilon_only_dfa():
    dfa = LabeledDfa(
        states=("u0", "ud"), labels=("l1",),
        delta={("u0", "l1"): "ud", ("ud", "l1"): "ud"},
        initial="u0", finals=("u0",),
    )
    m = reg_closure_machine(CompositionSpec(dfa, {"l1": dpda_anbn()}))
    for word in all_words("ab", 4):
        assert (run_direct(m, word).outcome == "accept") == (word == ""), word


def test_reg_closure_single_label_identity():
    dfa = LabeledDfa(
        states=("t0", "t1"), labels=("l1",),
        delta={("t0", "l1"): "t1", ("t1", "l1"): "t1"},
        initial="t0", finals=("t1",),
    )
    spec = CompositionSpec(dfa, {"l1": dpda_anbn()})
    m = reg_closure_machine(spec)
    cache: dict = {}
    for word in all_words("ab", 8):
        want = brute_force_membership(spec, word, cache)
        assert (run_direct(m, word).outcome == "accept") == want, word


def test_reg_closure_rejects_epsilon_binding():
    eps_dpda = Dpda(
        states=("q",), input_alphabet=("a",), stack_alphabet=("B",),
        finals=("q",), initial_state="q", bottom="B",
        delta={},
    )
    dfa = LabeledDfa(
        states=("t0",), labels=("l1",), delta={("t0", "l1"): "t0"},
        initial="t0", finals=("t0",),
    )
    with pytest.raises(CompositionError):
        CompositionSpec(dfa, {"l1": eps_dpda})


def test_reg_closure_unbound_label_rejected():
    with pytest.raises(CompositionError):
        CompositionSpec(dfa_pairs(), {"l1": dpda_anbn()})


def test_absorb_epsilon_labels():
    # (l1 l2)* where the l2 block may be skipped.
    repaired = absorb_epsilon_labels(dfa_pairs(), ["l2"])
    assert repaired.accepts_labels([])
    assert repaired.accepts_labels(["l1"])  # l2 skipped
    assert repaired.accepts_labels(["l1", "l2"])
    assert repaired.accepts_labels(["l1", "l1"])  # skip between the two
    assert not repaired.accepts_labels(["l2"])
    # Determinized result is complete and usable in a spec.
    spec = CompositionSpec(repaired, {"l1": dpda_anbn(), "l2": dpda_cmd()})
    m = reg_closure_machine(spec)
    assert run_direct(m, "ab").outcome == "accept"  # l2 block skipped
    cache: dict = {}
    for word in all_words("abcd", 5):
        want = brute_force_membership(spec, word, cache)
        assert (run_direct(m, word).outcome == "accept") == want, word


def test_reg_closure_search_is_exhaustive():
    """Every split point consistent with shortest-first order is visited."""
    spec = _pairs_spec()
    m = reg_closure_machine(spec)
    # aabbcd factors only as (aabb)(cd); abcd only as (ab)(cd): both found
    # even though shorter prefixes are tried (and rolled back) first.
    assert run_direct(m, "aabbcd").outcome == "accept"
    assert run_direct(m, "abcd").outcome == "accept"
    assert run_direct(m, "aabbcdabd").outcome == "accept"  # (aabb)(cd)(ab)(d)
    states_seen = set()
    run = run_direct(
        m, "abx" if "x" in m.input_alphabet else "abab", None,
        lambda kind, state, head, depth, origin: states_seen.add(state),
    )
    assert run.outcome == "reject"
    # The rollback visited both labels from the start state before giving up.
    assert any(":l1:" in s for s in states_seen)
    assert any(":l2:" in s for s in states_seen)
