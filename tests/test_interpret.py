import random

from pegmachine.peg import (
    Consumed,
    DIVERGED,
    FAILURE,
    Grammar,
    Nonterminal,
    Not,
    Sequence,
    Terminal,
    accepts,
    desugar,
    interpret_naive,
    interpret_packrat,
    parse_grammar_text,
    walk,
)

from conftest import all_words


def _expr(g, name):
    return g.rules[name]


def test_terminal_consumes_one():
    g = Grammar.build([("S", Terminal("a"))])
    assert interpret_naive(g, _expr(g, "S"), "as", 0) == Consumed(1)


def test_terminal_mismatch_fails():
    g = Grammar.build([("S", Terminal("a"))])
    assert interpret_naive(g, _expr(g, "S"), "bs", 0) == FAILURE


def test_not_consumes_nothing_on_inner_failure():
    g = Grammar.build([("S", Not(Terminal("a")))])
    assert interpret_naive(g, _expr(g, "S"), "b", 0) == Consumed(0)
    assert interpret_naive(g, _expr(g, "S"), "ab", 0) == FAILURE


def test_sequence_threads_positions():
    g = Grammar.build([("S", Sequence(Terminal("a"), Terminal("b")))])
    assert interpret_naive(g, _expr(g, "S"), "abc", 0) == Consumed(2)
    assert interpret_naive(g, _expr(g, "S"), "ac", 0) == FAILURE


def test_budget_exhaustion_is_a_value():
    g = parse_grammar_text('A <- A "a" / "a"')  # left recursive
    assert interpret_naive(g, g.rules["A"], "x", 0, budget=10_000) == DIVERGED


def test_packrat_matches_paper_examples(fig2):
    assert interpret_packrat(fig2, "aab") == Consumed(3)
    # The prefix ab parses but the whole word is not consumed.
    assert interpret_packrat(fig2, "abbc") == Consumed(2)
    assert accepts(fig2, "aab") is True
    assert accepts(fig2, "abbc") is False


def test_empty_rule_accepts_empty_word():
    g = parse_grammar_text('S <- ""')
    assert interpret_packrat(g, "") == Consumed(0)
    assert accepts(g, "")


def test_packrat_linearity_counter(fig2):
    for word in ("aab", "abbc", "aaabbb", ""):
        stats: dict[str, int] = {}
        interpret_packrat(fig2, word, stats)
        assert stats["computed"] <= len(fig2.nonterminals) * (len(word) + 1)


def test_packrat_agrees_with_naive_everywhere(fig2):
    """Every memo entry equals the naive outcome for that rule and position."""
    from pegmachine.peg.interpret import _run

    for word in ("aab", "abbc", "bba"):
        memo: dict[int, object] = {}
        _run(fig2, fig2.rules[fig2.axiom], word, 0, None, memo, None)
        assert memo
        stride = len(word) + 2
        for key, value in memo.items():
            rule_ix, pos = divmod(key, stride)
            name = fig2.nonterminals[rule_ix]
            naive = interpret_naive(fig2, Nonterminal(name), word, pos)
            want = naive.resume if isinstance(naive, Consumed) else -1
            assert value == want, (word, name, pos)


def test_sec13_union_language(sec13_union):
    for word in all_words("abc", 6):
        half = len(word) // 2
        want = len(word) % 2 == 0 and (
            word == "a" * half + "b" * half or word == "a" * half + "c" * half
        )
        assert accepts(sec13_union, word) == want, word
    assert accepts(sec13_union, "aabb")
    assert accepts(sec13_union, "aacc")
    assert not accepts(sec13_union, "aabc")


def test_not_never_consumes_property():
    rng = random.Random(11)
    from pegmachine.fuzz import random_general_grammar

    for _ in range(25):
        g = desugar(random_general_grammar(rng, 3, 2))
        nots = [n for name in g.nonterminals for n in walk(g.rules[name]) if isinstance(n, Not)]
        for word in all_words("ab", 4):
            for node in nots[:8]:
                for pos in range(len(word) + 1):
                    out = interpret_naive(g, node, word, pos, budget=100_000)
                    if isinstance(out, Consumed):
                        assert out.resume == pos
