import itertools
import random

import pytest

from pegmachine.errors import NotCoreError
from pegmachine.fuzz import random_cnf_grammar, random_general_grammar
from pegmachine.peg import (
    And,
    AnyChar,
    Choice,
    CnfGrammar,
    Empty,
    Expression,
    Fail,
    Grammar,
    Nonterminal,
    Not,
    Option,
    Plus,
    Sequence,
    Star,
    TO_FULL_MATCH,
    TO_PREFIX,
    Terminal,
    accepts,
    check_well_formed,
    cnf_body_shape_ok,
    convert_acceptance,
    desugar,
    parse_grammar_text,
    render_grammar_text,
    to_cnf,
)

from conftest import all_words


# --- desugar -----------------------------------------------------------------


def test_star_becomes_fresh_loop_rule():
    g = Grammar.build([("S", Star(Terminal("a")))], alphabet="a")
    out = desugar(g)
    assert out.is_core
    loop = [n for n in out.nonterminals if n.startswith("#")]
    assert len(loop) == 1
    name = loop[0]
    assert out.rules["S"] == Nonterminal(name)
    assert out.rules[name] == Choice(Sequence(Terminal("a"), Nonterminal(name)), Empty())


def test_and_becomes_double_negation():
    g = Grammar.build([("S", And(Terminal("a")))])
    assert desugar(g).rules["S"] == Not(Not(Terminal("a")))


def test_option_anychar_fail_expansions():
    g = Grammar.build([("S", Option(Terminal("a")))], alphabet="ab")
    assert desugar(g).rules["S"] == Choice(Terminal("a"), Empty())
    g2 = Grammar.build([("S", AnyChar())], alphabet="ab")
    assert desugar(g2).rules["S"] == Choice(Terminal("a"), Terminal("b"))
    g3 = Grammar.build([("S", Fail())], alphabet="a")
    assert desugar(g3).rules["S"] == Not(Empty())


def test_desugar_identity_on_core(fig2):
    assert render_grammar_text(desugar(fig2)) == render_grammar_text(fig2)


def test_desugar_soundness_on_enumeration(sec13_abc):
    core = desugar(sec13_abc)
    for word in all_words("abc", 6):
        assert accepts(sec13_abc, word) == accepts(core, word), word


def test_desugar_soundness_random():
    from pegmachine.fuzz import random_general_grammar

    rng = random.Random(5)
    for _ in range(20):
        g = random_general_grammar(rng, 3, 2)
        core = desugar(g)
        for word in all_words("ab", 5):
            assert accepts(g, word) == accepts(core, word), (render_grammar_text(g), word)


# --- normal form ----------------------------------------------------------------


def test_to_cnf_shapes_and_axiom(fig2):
    cnf = to_cnf(desugar(fig2))
    assert isinstance(cnf, CnfGrammar)
    for name in cnf.nonterminals:
        assert cnf_body_shape_ok(cnf.rules[name])
    from pegmachine.peg.ast import references_of

    for name in cnf.nonterminals:
        assert cnf.axiom not in references_of(cnf.rules[name])


def test_to_cnf_right_folds_triple():
    g = Grammar.build(
        [
            ("S", Sequence(Nonterminal("A"), Sequence(Nonterminal("B"), Nonterminal("C")))),
            ("A", Terminal("a")),
            ("B", Terminal("b")),
            ("C", Terminal("c")),
        ]
    )
    cnf = to_cnf(g)
    body = cnf.rules["S"]
    assert isinstance(body, Sequence) and body.left == Nonterminal("A")
    bracket = body.right.name
    assert cnf.rules[bracket] == Sequence(Nonterminal("B"), Nonterminal("C"))


def test_to_cnf_identity_on_cnf_input():
    text = '@start S\n@alphabet "ab"\nS <- A B\nA <- "a"\nB <- !A\n'
    g = parse_grammar_text(text)
    assert render_grammar_text(to_cnf(g)) == text


def test_to_cnf_wraps_axiom_on_rhs():
    g = parse_grammar_text('S <- "a" S / ""')
    cnf = to_cnf(g)
    assert cnf.axiom != "S"
    for word in all_words("a", 6):
        assert accepts(cnf, word) == accepts(g, word)


def test_to_cnf_rejects_ill_formed():
    from pegmachine.errors import IllFormedError

    with pytest.raises(IllFormedError):
        to_cnf(parse_grammar_text('A <- A "a" / "a"'))


def test_to_cnf_rejects_sugar():
    with pytest.raises(NotCoreError):
        to_cnf(parse_grammar_text('A <- "a"*'))


def test_to_cnf_equivalence_fig2(fig2):
    cnf = to_cnf(desugar(fig2))
    for word in all_words("abc", 8):
        assert accepts(fig2, word) == accepts(cnf, word), word


SHARED_TEXT = """\
@alphabet "ab"
S <- "a" A "a" / "b" A / "a" A "a"
A <- !"a" "" "b" / "a" "" A
"""


def test_to_cnf_one_rule_per_distinct_body():
    # Repeated terminals, a repeated composite ("a" A "a") and empties inside
    # bodies: each distinct body gets one rule, named after the pre-order
    # position of its first occurrence, and every lifted empty is #u.
    g = parse_grammar_text(SHARED_TEXT)
    cnf = to_cnf(g)
    assert render_grammar_text(cnf) == (
        '@start S\n@alphabet "ab"\n'
        "S <- `#c1` / `#c6`\n"
        "A <- `#c16` / `#c22`\n"
        '`#c2` <- "a"\n'
        "`#c3` <- A `#c2`\n"
        "`#c1` <- `#c2` `#c3`\n"
        '`#c8` <- "b"\n'
        "`#c7` <- `#c8` A\n"
        "`#c6` <- `#c7` / `#c1`\n"
        "`#c17` <- !`#c2`\n"
        "`#c19` <- `#u` `#c8`\n"
        "`#c16` <- `#c17` `#c19`\n"
        "`#c24` <- `#u` A\n"
        "`#c22` <- `#c2` `#c24`\n"
        '`#u` <- ""\n'
    )
    bodies = [cnf.rules[n] for n in cnf.nonterminals]
    assert len(set(bodies)) == len(bodies)
    for word in all_words("ab", 7):
        assert accepts(g, word) == accepts(cnf, word), word


def _kids(e):
    values = (getattr(e, f) for f in e.__match_args__)
    return [v for v in values if isinstance(v, Expression)]


def _loop_names(g):
    """desugar's fresh rules by a recursive pre-order count: ``#k`` for the
    loop at position ``k``, in the order the loops' rewrites finish."""
    counter = itertools.count()
    names = []

    def visit(e):
        k = next(counter)
        for kid in _kids(e):
            visit(kid)
        if isinstance(e, (Star, Plus)):
            names.append(f"#{k}")

    for name in g.nonterminals:
        visit(g.rules[name])
    return names


def _lift_names(g):
    """to_cnf's ``#c<k>`` rules by a recursive pre-order count: a lifted
    composite is named after the position of the first occurrence of its
    converted shape, in the order the lifts finish."""
    counter = itertools.count()
    shared = {}

    def lift(e):
        k = next(counter)
        if isinstance(e, Nonterminal):
            return e.name
        shape = convert(e)
        return "#u" if isinstance(e, Empty) else shared.setdefault(shape, f"#c{k}")

    def convert(e):
        return (type(e).__name__, getattr(e, "symbol", None), *map(lift, _kids(e)))

    for name in g.nonterminals:
        next(counter)
        convert(g.rules[name])
    return list(shared.values())


def test_fresh_names_are_recursive_preorder_positions():
    rng = random.Random(1101)
    for _ in range(200):
        g = random_general_grammar(rng, 5, 3)
        core = desugar(g)
        assert list(core.nonterminals[len(g.nonterminals) :]) == _loop_names(g)
        cnf = to_cnf(core)
        assert [n for n in cnf.nonterminals if n.startswith("#c")] == _lift_names(core)


def test_to_cnf_keeps_well_formedness():
    # grammar_to_machine compiles to_cnf's output without checking it again.
    rng = random.Random(1102)
    for k in range(200):
        g = desugar(random_general_grammar(rng, 5, 3)) if k % 2 else random_cnf_grammar(rng, 5, 3)
        cnf = to_cnf(g)  # raises unless g is well-formed
        assert check_well_formed(cnf).well_formed


# --- acceptance-mode conversion ---------------------------------------------------


def test_to_prefix_mode_swallows_rest():
    g = parse_grammar_text('@alphabet "ab"\nS <- "a"')
    wrapped = convert_acceptance(g, TO_PREFIX)
    for word in all_words("ab", 3):
        assert accepts(wrapped, word) == word.startswith("a"), word


def test_to_full_match_mode_is_identity_on_full_match():
    g = parse_grammar_text('S <- "a"')
    wrapped = convert_acceptance(g, TO_FULL_MATCH)
    for word in all_words("a", 3):
        assert accepts(wrapped, word) == accepts(g, word), word


def test_full_match_wrapper_requires_whole_input():
    g = parse_grammar_text('@alphabet "ab"\nS <- "a"')
    wrapped = convert_acceptance(g, TO_FULL_MATCH)
    assert accepts(wrapped, "a")
    assert not accepts(wrapped, "ab")


def test_unknown_direction_rejected(fig2):
    with pytest.raises(ValueError):
        convert_acceptance(fig2, "sideways")
