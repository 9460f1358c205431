"""Parser for the grammar file format.

One rule per line, ``Name <- body``.  Terminals are single characters in
double quotes, ``""`` is the empty word.  Operators, loosest to tightest:
``/`` ordered choice, juxtaposition for sequence, prefix ``!`` and ``&``,
postfix ``*`` ``+`` ``?``.  ``.`` matches any letter, ``(...)`` groups and
``#`` starts a comment.  The first rule's left-hand side is the axiom
unless a ``@start Name`` line appears; ``@alphabet "abc"`` declares extra
letters.  A directive is the first word of its line, so ``@startS`` is an
unknown directive.  Names are identifiers; generated names that are not
identifiers are written between backquotes.

Each line is cut into tokens by one regular expression and parsed with an
explicit stack, so neither long rules nor deep nesting recurse.  A
reference to an undefined name is reported at its first occurrence.
"""

from __future__ import annotations

import re

from ..errors import GrammarTextError
from .ast import (
    And,
    AnyChar,
    Choice,
    Empty,
    Expression,
    Grammar,
    Nonterminal,
    Not,
    Option,
    Plus,
    Sequence,
    Star,
    Terminal,
    is_letter,
)

# One token per match, after any blanks.  The group that matched tells the
# kind; a line's tokens are contiguous because group 9 takes any character
# the others do not.
_TOKEN = re.compile(
    r"[ \t]*(?:"
    r"(\w+)"  # 1 identifier
    r'|"([^"]*)("?)'  # 2 terminal, 3 its closing quote
    r"|`([^`]*)(`?)"  # 4 backquoted name, 5 its closing quote
    r"|(<-)"  # 6 arrow
    r"|([/!&*+?.()])"  # 7 operator
    r"|(#)"  # 8 comment
    r"|([^ \t]))"  # 9 any other character
)

# A directive line up to its comment: '#' counts only outside quotes.
_DIRECTIVE = re.compile(r'(?:[^"`#]+|"[^"]*"?|`[^`]*`?)*')

# A token is (kind, text, column).  The kind of an operator or the arrow
# is its text; identifiers and backquoted names are "name".
Token = tuple[str, str, int]

_STARTS_OPERAND = frozenset(("name", "string", "!", "&", ".", "("))
_POSTFIX = {"*": Star, "+": Plus, "?": Option}


def _tokenize(line: str, lineno: int) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(line):
        group = m.lastindex
        if group == 1:
            toks.append(("name", m[1], m.start(1) + 1))
        elif group == 7:
            toks.append((m[7], m[7], m.start(7) + 1))
        elif group == 3:
            col = m.start(2)
            if not m[3]:
                raise GrammarTextError("unterminated string literal", lineno, col)
            if len(m[2]) > 1:
                raise GrammarTextError(
                    f"terminals are single characters, got {m[2]!r}", lineno, col
                )
            if m[2] and not is_letter(m[2]):
                raise GrammarTextError(f"bad alphabet letter {m[2]!r}", lineno, col)
            toks.append(("string", m[2], col))
        elif group == 5:
            col = m.start(4)
            if not m[5]:
                raise GrammarTextError("unterminated backquoted name", lineno, col)
            if not m[4]:
                raise GrammarTextError("empty backquoted name", lineno, col)
            toks.append(("name", m[4], col))
        elif group == 6:
            toks.append(("<-", "<-", m.start(6) + 1))
        elif group == 8:
            break
        elif group == 9:
            raise GrammarTextError(f"unexpected character {m[9]!r}", lineno, m.start(9) + 1)
    return toks


def _fold(parts: list[Expression], node: type) -> Expression:
    """Right-nest ``parts`` under the binary ``node``: a (b c)."""
    e = parts[-1]
    for k in range(len(parts) - 2, -1, -1):
        e = node(parts[k], e)
    return e


def _parse_body(
    toks: list[Token], lineno: int, rule: str, refs: dict[str, tuple[int, int, str]]
) -> Expression:
    """Parse ``toks[2:]``, the body of ``rule``, with an explicit stack.

    Loosest to tightest: ``/``, juxtaposition, prefix ``!`` ``&``, postfix
    ``*`` ``+`` ``?``.  Each open parenthesis saves the enclosing group's
    finished alternatives, finished items and pending prefix operators.
    The first reference to each name is recorded in ``refs`` with its
    place.
    """
    n = len(toks)

    def error(msg: str, i: int) -> GrammarTextError:
        col = toks[i][2] if i < n else (toks[-1][2] if n > 2 else 1)
        return GrammarTextError(msg, lineno, col)

    groups: list[tuple[list[Expression], list[Expression], list[str]]] = []
    alts: list[Expression] = []
    items: list[Expression] = []
    prefixes: list[str] = []
    i = 2
    while True:
        # An operand: prefix operators, then an atom or a group.
        if i == n:
            raise error("expected an expression", i)
        kind, text, col = toks[i]
        i += 1
        if kind == "name":
            e: Expression = Nonterminal(text)
            if text not in refs:
                refs[text] = (lineno, col, rule)
        elif kind == "string":
            e = Terminal(text) if text else Empty()
        elif kind == "!" or kind == "&":
            prefixes.append(kind)
            continue
        elif kind == "(":
            groups.append((alts, items, prefixes))
            alts, items, prefixes = [], [], []
            continue
        elif kind == ".":
            e = AnyChar()
        else:
            raise error(f"unexpected token {text!r}", i - 1)
        while True:
            # After an atom or a closed group: its postfix operators, then
            # the prefix operators waiting for it.
            while i < n and toks[i][0] in _POSTFIX:
                e = _POSTFIX[toks[i][0]](e)
                i += 1
            while prefixes:
                e = Not(e) if prefixes.pop() == "!" else And(e)
            items.append(e)
            kind = toks[i][0] if i < n else ""
            if kind in _STARTS_OPERAND:
                break
            alts.append(_fold(items, Sequence))
            items = []
            if kind == "/":
                i += 1
                break
            e = _fold(alts, Choice)
            if not groups:
                if i == n:
                    return e
                raise error(f"trailing input at {toks[i][1]!r}", i)
            if kind != ")":
                raise error("expected ')'", i)
            i += 1
            alts, items, prefixes = groups.pop()


def parse_grammar_text(text: str) -> Grammar:
    """Parse grammar source into a validated :class:`Grammar`."""
    rules: list[tuple[str, Expression]] = []
    seen: set[str] = set()
    declared: list[str] = []
    start: str | None = None
    refs: dict[str, tuple[int, int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("@"):
            # The directive is the line's first word, its argument the rest.
            word, *rest = _DIRECTIVE.match(raw).group().split(None, 1)
            arg = rest[0].strip() if rest else ""
            if word == "@start":
                if arg.startswith("`") and arg.endswith("`") and len(arg) > 2:
                    arg = arg[1:-1]
                if not arg:
                    raise GrammarTextError("@start needs a name", lineno, 1)
                start = arg
            elif word == "@alphabet":
                if not (len(arg) >= 2 and arg[0] == '"' and arg[-1] == '"'):
                    raise GrammarTextError('@alphabet needs a quoted string', lineno, 1)
                col = raw.index('"') + 1
                for ch in arg[1:-1]:
                    col += 1
                    if not is_letter(ch):
                        raise GrammarTextError(f"bad alphabet letter {ch!r}", lineno, col)
                    if ch not in declared:
                        declared.append(ch)
            else:
                raise GrammarTextError(f"unknown directive {word}", lineno, 1)
            continue
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        kind, name, col = toks[0]
        if kind != "name":
            raise GrammarTextError("rule must start with a name", lineno, col)
        if len(toks) < 2 or toks[1][0] != "<-":
            raise GrammarTextError("expected '<-' after rule name", lineno, col)
        if name in seen:
            raise GrammarTextError(f"duplicate rule for {name!r}", lineno, col)
        seen.add(name)
        rules.append((name, _parse_body(toks, lineno, name, refs)))
    if not rules:
        raise GrammarTextError("no rules found", 0, 0)
    if start is not None and start not in seen:
        raise GrammarTextError(f"@start names unknown rule {start!r}", 0, 0)
    for ref, (line, col, rule) in refs.items():
        if ref not in seen:
            raise GrammarTextError(f"undefined nonterminal {ref!r} in rule {rule!r}", line, col)
    return Grammar.build(rules, axiom=start, alphabet=declared)
