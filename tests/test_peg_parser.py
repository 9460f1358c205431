import pytest

from pegmachine import cli
from pegmachine.errors import GrammarTextError
from pegmachine.peg import (
    Choice,
    Empty,
    Nonterminal,
    Sequence,
    Terminal,
    parse_grammar_text,
    render_grammar_text,
)

from conftest import FIG2_TEXT


def test_simple_rule_shape():
    g = parse_grammar_text('S <- "a" S / ""')
    assert g.nonterminals == ("S",)
    assert g.alphabet == ("a",)
    body = g.rules["S"]
    assert body == Choice(Sequence(Terminal("a"), Nonterminal("S")), Empty())


def test_fig2_grammar_shape(fig2):
    assert fig2.nonterminals == ("S", "A", "B", "C")
    assert fig2.axiom == "S"
    assert set(fig2.alphabet) == {"a", "b", "c"}
    assert fig2.rules["S"] == Choice(
        Sequence(Nonterminal("A"), Nonterminal("B")),
        Sequence(Nonterminal("B"), Nonterminal("C")),
    )


def test_duplicate_rule_rejected():
    with pytest.raises(GrammarTextError):
        parse_grammar_text('A <- "a"\nA <- "b"')


def test_undefined_reference_rejected():
    with pytest.raises(GrammarTextError):
        parse_grammar_text('A <- B "a"')


def test_syntax_error_has_position():
    with pytest.raises(GrammarTextError) as err:
        parse_grammar_text('A <- "a" )')
    assert err.value.line == 1
    assert err.value.col > 0


def test_multichar_terminal_rejected():
    with pytest.raises(GrammarTextError):
        parse_grammar_text('A <- "ab"')


def test_start_and_alphabet_directives():
    g = parse_grammar_text('@start B\n@alphabet "xy"\nA <- "x"\nB <- A')
    assert g.axiom == "B"
    assert g.alphabet == ("x", "y")


def test_comments_and_grouping():
    g = parse_grammar_text('S <- ("a" / "b") !"c" S? # trailing\n')
    assert "S" in g.rules


def test_postfix_binds_tighter_than_prefix():
    g = parse_grammar_text('S <- !"a"*')
    from pegmachine.peg import Not, Star

    assert g.rules["S"] == Not(Star(Terminal("a")))


def test_render_parse_roundtrip(fig2):
    text = render_grammar_text(fig2)
    again = parse_grammar_text(text)
    assert render_grammar_text(again) == text
    assert text == render_grammar_text(parse_grammar_text(FIG2_TEXT))


def test_backquoted_names_roundtrip():
    from pegmachine.peg import Grammar

    g = Grammar.build([("#weird name", Terminal("a"))])
    text = render_grammar_text(g)
    assert "`#weird name`" in text
    again = parse_grammar_text(text)
    assert again.nonterminals == ("#weird name",)


# name: (source, message, line, column).  Recorded before the tokenizer
# became one regular expression and the parser an explicit stack; only the
# undefined reference, which now names its place, has changed since.
DIAGNOSTICS = {
    "unterminated-string": ('S <- "a', "unterminated string literal", 1, 6),
    "multi-letter-terminal": ('S <- "ab"', "terminals are single characters, got 'ab'", 1, 6),
    "empty-backquote": ("S <- ``", "empty backquoted name", 1, 6),
    "unterminated-backquote": ("S <- `abc", "unterminated backquoted name", 1, 6),
    "unterminated-backquote-line-2": (
        'S <- "a"\nT <- "b" "c" ` ', "unterminated backquoted name", 2, 14
    ),
    "unexpected-character": ('S <- "a" $', "unexpected character '$'", 1, 10),
    "missing-arrow": ('S "a"', "expected '<-' after rule name", 1, 1),
    "no-name": ('"a" <- S', "rule must start with a name", 1, 1),
    "missing-paren": ('S <- ("a" "b"', "expected ')'", 1, 11),
    "missing-paren-line-3": ('S <- "a"\n\n  T <- !( "b" # (\n', "expected ')'", 3, 11),
    "arrow-in-group": ('S <- ("a" / "b" <- "c")', "expected ')'", 1, 17),
    "trailing-input": ('S <- "a" )', "trailing input at ')'", 1, 10),
    "trailing-after-postfix": ('S <- "a"*)', "trailing input at ')'", 1, 10),
    "lexical-error-first": ('# c\nS <- "a" ) "b', "unterminated string literal", 2, 12),
    "dangling-choice": ('S <- "a" /', "expected an expression", 1, 10),
    "empty-body": ("S <- ", "expected an expression", 1, 1),
    "leading-choice": ('S <- / "a"', "unexpected token '/'", 1, 6),
    "duplicate-rule": ('S <- "a"\nS <- "b"', "duplicate rule for 'S'", 2, 1),
    "unknown-start": ('@start T\nS <- "a"', "@start names unknown rule 'T'", 0, 0),
    "bad-alphabet": ('@alphabet xy\nS <- "a"', "@alphabet needs a quoted string", 1, 1),
    "no-rules": ("", "no rules found", 0, 0),
    "undefined-reference": (
        'S <- A "b"\nA <- "a" B', "undefined nonterminal 'B' in rule 'A'", 2, 10
    ),
}


@pytest.mark.parametrize("source, message, line, col", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
def test_diagnostics(source, message, line, col):
    with pytest.raises(GrammarTextError) as err:
        parse_grammar_text(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == (f"{line}:{col}: {message}" if line else message)


def test_undefined_reference_names_its_first_place():
    source = 'S <- A "b"\nA <- "a" (B / "c" B)\nT <- B'
    with pytest.raises(GrammarTextError) as err:
        parse_grammar_text(source)
    assert str(err.value) == "2:11: undefined nonterminal 'B' in rule 'A'"


@pytest.mark.parametrize(
    "source, word",
    [
        ('A <- "a"\nS <- A "b"\n@startS', "@startS"),
        ('@alphabet"xy"\nS <- "x"', '@alphabet"xy"'),
        ('@alphabetical "xyz"\nS <- "x"', "@alphabetical"),
    ],
    ids=["start", "alphabet", "alphabetical"],
)
def test_directive_is_its_whole_first_word(source, word, tmp_path, capsys):
    with pytest.raises(GrammarTextError, match=f"unknown directive {word}$"):
        parse_grammar_text(source)
    path = tmp_path / "g.peg"
    path.write_text(source)
    assert cli.main(["run", str(path), "x", "--engine", "packrat"]) == 2
    assert f"unknown directive {word}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, nodes",
    [
        (" ".join(['"a"'] * 10_000), 2 * 10_000 - 1),  # a flat rule
        ('("a" ' * 300 + '"b"' + ")" * 300, 2 * 300 + 1),  # deep parentheses
        ("!" * 2_000 + '"a"', 2_000 + 1),  # a tower of prefix operators
    ],
    ids=["flat", "parentheses", "prefix"],
)
def test_loader_takes_deep_input(body, nodes):
    g = parse_grammar_text("S <- " + body)
    assert g.node_count == nodes


@pytest.mark.parametrize(
    "source, line, col, letter",
    [
        ('S <- "<"', 1, 6, "<"),
        ('S <- " "', 1, 6, " "),
        ('S <- "\t"', 1, 6, "\t"),
        ('@alphabet "<"\nS <- "a"', 1, 12, "<"),
        ('  @alphabet "ab >"\nS <- "a"', 1, 16, " "),
        ('S <- "a"\nT <- "b" ">"', 2, 10, ">"),
    ],
    ids=["open-marker", "blank", "tab", "alphabet", "alphabet-blank", "line-2"],
)
def test_reserved_or_blank_letter_names_its_place(source, line, col, letter, tmp_path, capsys):
    with pytest.raises(GrammarTextError) as err:
        parse_grammar_text(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: bad alphabet letter {letter!r}"
    path = tmp_path / "g.peg"
    path.write_text(source)
    assert cli.main(["check", str(path)]) == 2
    assert f"{line}:{col}: bad alphabet letter" in capsys.readouterr().err
