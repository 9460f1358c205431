"""Grammar AST: expression nodes, grammars, and recognition outcomes.

Expressions form a tree of frozen nodes.  The core forms are Empty,
Terminal, Nonterminal, Sequence, Choice and Not; Star, Plus, Option, And,
AnyChar and Fail are sugar that :func:`pegmachine.peg.transform.desugar`
rewrites into core forms.  Every node carries an integer node id ``nid``
that is unique and dense (``0 .. node_count-1``) within one grammar; ids
are assigned by :meth:`Grammar.build` in rule order, pre-order within each
rule body.  Node equality is structural and ignores ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence as SeqT

from ..errors import GrammarInvariantError, NotCnfError

# Characters that may never be grammar letters: the end markers of the
# machine model, the terminal quote of the file format, and whitespace.
RESERVED_LETTERS = frozenset('<>"')

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Expression):
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Terminal(Expression):
    symbol: str
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Nonterminal(Expression):
    name: str
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Sequence(Expression):
    left: Expression
    right: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Choice(Expression):
    first: Expression
    second: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Not(Expression):
    inner: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Star(Expression):
    inner: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Plus(Expression):
    inner: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Option(Expression):
    inner: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class And(Expression):
    inner: Expression
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class AnyChar(Expression):
    nid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Fail(Expression):
    nid: int = field(default=-1, compare=False)


_CORE_TYPES = (Empty, Terminal, Nonterminal, Sequence, Choice, Not)


def children(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, Sequence):
        return (e.left, e.right)
    if isinstance(e, Choice):
        return (e.first, e.second)
    if isinstance(e, (Not, Star, Plus, Option, And)):
        return (e.inner,)
    return ()


def walk(e: Expression) -> Iterator[Expression]:
    """Yield ``e`` and all descendants in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def is_core_expr(e: Expression) -> bool:
    return all(isinstance(n, _CORE_TYPES) for n in walk(e))


def letters_of(e: Expression) -> list[str]:
    """Terminal letters appearing in ``e``, in first-appearance order."""
    seen: list[str] = []
    for n in walk(e):
        if isinstance(n, Terminal) and n.symbol not in seen:
            seen.append(n.symbol)
    return seen


def references_of(e: Expression) -> list[str]:
    """Referenced nonterminal names, in first-appearance order."""
    return list(dict.fromkeys(n.name for n in walk(e) if isinstance(n, Nonterminal)))


def reachable_from(rules: Mapping[str, Expression], axiom: str) -> set[str]:
    """Names of the rules reachable from ``axiom``, itself included."""
    keep = {axiom}
    work = [axiom]
    while work:
        for ref in references_of(rules[work.pop()]):
            if ref not in keep:
                keep.add(ref)
                work.append(ref)
    return keep


def _renumber(e: Expression, counter: Iterator[int]) -> Expression:
    nid = next(counter)
    if isinstance(e, Sequence):
        return Sequence(_renumber(e.left, counter), _renumber(e.right, counter), nid)
    if isinstance(e, Choice):
        return Choice(_renumber(e.first, counter), _renumber(e.second, counter), nid)
    if isinstance(e, (Not, Star, Plus, Option, And)):
        return type(e)(_renumber(e.inner, counter), nid)
    if isinstance(e, Terminal):
        return Terminal(e.symbol, nid)
    if isinstance(e, Nonterminal):
        return Nonterminal(e.name, nid)
    return type(e)(nid)


# --- recognition outcomes ---------------------------------------------------


@dataclass(frozen=True)
class Consumed:
    """Success: ``resume`` is the 0-based offset of the unconsumed suffix."""

    resume: int


@dataclass(frozen=True)
class Failure:
    pass


@dataclass(frozen=True)
class Diverged:
    """The budgeted interpreter ran out of steps (naive engine only)."""

    pass


ParseOutcome = Consumed | Failure | Diverged

FAILURE = Failure()
DIVERGED = Diverged()


# --- grammars ----------------------------------------------------------------


@dataclass(frozen=True)
class Grammar:
    """A grammar: ordered nonterminals, ordered alphabet, one rule each, axiom.

    Immutable after construction; construct through :meth:`build` (or the
    text parser), which assigns dense node ids and validates the invariants.
    """

    nonterminals: tuple[str, ...]
    alphabet: tuple[str, ...]
    rules: Mapping[str, Expression]
    axiom: str

    def __post_init__(self) -> None:
        names = self.nonterminals
        if len(set(names)) != len(names):
            raise GrammarInvariantError("duplicate nonterminal in ordering")
        if set(self.rules) != set(names):
            raise GrammarInvariantError("rules must cover exactly the nonterminals")
        if self.axiom not in self.rules:
            raise GrammarInvariantError(f"axiom {self.axiom!r} has no rule")
        for ch in self.alphabet:
            if len(ch) != 1 or ch in RESERVED_LETTERS or ch.isspace():
                raise GrammarInvariantError(f"bad alphabet letter {ch!r}")
        if set(names) & set(self.alphabet):
            raise GrammarInvariantError("nonterminal names and alphabet must be disjoint")
        sigma = set(self.alphabet)
        nids: list[int] = []
        for name in names:
            for n in walk(self.rules[name]):
                nids.append(n.nid)
                if isinstance(n, Nonterminal) and n.name not in self.rules:
                    raise GrammarInvariantError(f"undefined nonterminal {n.name!r}")
                if isinstance(n, Terminal) and n.symbol not in sigma:
                    raise GrammarInvariantError(f"letter {n.symbol!r} not in alphabet")
        if sorted(nids) != list(range(len(nids))):
            raise GrammarInvariantError("node ids must be dense and unique")

    @staticmethod
    def build(
        rules: SeqT[tuple[str, Expression]],
        axiom: str | None = None,
        alphabet: SeqT[str] = (),
    ) -> "Grammar":
        """Assemble a grammar, renumbering node ids and computing the alphabet.

        The alphabet is the declared letters followed by any further letters
        appearing in rule bodies, in first-appearance order.
        """
        names = tuple(name for name, _ in rules)
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise GrammarInvariantError(f"duplicate rule for {dup!r}")
        counter = iter(range(10**9))
        numbered = {name: _renumber(body, counter) for name, body in rules}
        sigma = list(alphabet)
        for name in names:
            for ch in letters_of(numbered[name]):
                if ch not in sigma:
                    sigma.append(ch)
        return Grammar(
            nonterminals=names,
            alphabet=tuple(sigma),
            rules=numbered,
            axiom=axiom if axiom is not None else names[0],
        )

    @cached_property
    def node_count(self) -> int:
        return sum(1 for name in self.nonterminals for _ in walk(self.rules[name]))

    @cached_property
    def is_core(self) -> bool:
        return all(is_core_expr(self.rules[name]) for name in self.nonterminals)


class CnfGrammar(Grammar):
    """Grammar restricted to the five normal-form rule shapes.

    Every body is one of ``Choice(N, N)``, ``Sequence(N, N)``, ``Not(N)``,
    ``Terminal`` or ``Empty``, and the axiom never appears on a right-hand
    side.  The constructor re-checks the shape, so holding a value of this
    type certifies it.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in self.nonterminals:
            body = self.rules[name]
            if not cnf_body_shape_ok(body):
                raise NotCnfErrorFor(name, body)
            if self.axiom in references_of(body):
                raise GrammarInvariantError(
                    f"axiom {self.axiom!r} occurs on the right-hand side of {name!r}"
                )

    @staticmethod
    def build(  # type: ignore[override]
        rules: SeqT[tuple[str, Expression]],
        axiom: str | None = None,
        alphabet: SeqT[str] = (),
    ) -> "CnfGrammar":
        g = Grammar.build(rules, axiom, alphabet)
        return CnfGrammar(g.nonterminals, g.alphabet, g.rules, g.axiom)


def cnf_body_shape_ok(body: Expression) -> bool:
    if isinstance(body, (Terminal, Empty)):
        return True
    if isinstance(body, Not):
        return isinstance(body.inner, Nonterminal)
    if isinstance(body, Sequence):
        return isinstance(body.left, Nonterminal) and isinstance(body.right, Nonterminal)
    if isinstance(body, Choice):
        return isinstance(body.first, Nonterminal) and isinstance(body.second, Nonterminal)
    return False


def NotCnfErrorFor(name: str, body: Expression) -> NotCnfError:
    return NotCnfError(f"rule for {name!r} is not a normal-form shape: {render_expr(body)}")


# --- rendering ---------------------------------------------------------------

# Precedence levels: choice < sequence < prefix (! &) < postfix (* + ?) < atom.
_CHOICE, _SEQ, _PREFIX, _POSTFIX, _ATOM = 0, 1, 2, 3, 4


def render_name(name: str) -> str:
    return name if _IDENT_RE.match(name) else "`" + name + "`"


def _render(e: Expression) -> tuple[int, str]:
    if isinstance(e, Empty):
        return _ATOM, '""'
    if isinstance(e, Terminal):
        return _ATOM, '"' + e.symbol + '"'
    if isinstance(e, Nonterminal):
        return _ATOM, render_name(e.name)
    if isinstance(e, AnyChar):
        return _ATOM, "."
    if isinstance(e, Fail):
        return _PREFIX, '!""'
    if isinstance(e, Choice):
        return _CHOICE, _at(e.first, _SEQ) + " / " + _at(e.second, _CHOICE)
    if isinstance(e, Sequence):
        return _SEQ, _at(e.left, _PREFIX) + " " + _at(e.right, _SEQ)
    if isinstance(e, Not):
        return _PREFIX, "!" + _at(e.inner, _PREFIX)
    if isinstance(e, And):
        return _PREFIX, "&" + _at(e.inner, _PREFIX)
    if isinstance(e, Star):
        return _POSTFIX, _at(e.inner, _POSTFIX) + "*"
    if isinstance(e, Plus):
        return _POSTFIX, _at(e.inner, _POSTFIX) + "+"
    if isinstance(e, Option):
        return _POSTFIX, _at(e.inner, _POSTFIX) + "?"
    raise TypeError(f"unknown expression node {e!r}")


def _at(e: Expression, required: int) -> str:
    level, text = _render(e)
    return text if level >= required else "(" + text + ")"


def render_expr(e: Expression) -> str:
    """Render an expression in the grammar file syntax (Fail prints as !"")."""
    return _render(e)[1]


def render_grammar_text(g: Grammar) -> str:
    """Deterministic text form of a grammar, reloadable by the parser."""
    lines = ["@start " + render_name(g.axiom)]
    if g.alphabet:
        lines.append('@alphabet "' + "".join(g.alphabet) + '"')
    for name in g.nonterminals:
        lines.append(render_name(name) + " <- " + render_expr(g.rules[name]))
    return "\n".join(lines) + "\n"
