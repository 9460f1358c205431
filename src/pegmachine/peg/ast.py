"""Grammar AST: expression nodes, grammars, and recognition outcomes.

Expressions form a tree of frozen nodes.  The core forms are Empty,
Terminal, Nonterminal, Sequence, Choice and Not; Star, Plus, Option, And,
AnyChar and Fail are sugar that :func:`pegmachine.peg.transform.desugar`
rewrites into core forms.  Every node carries an integer node id ``nid``
that is unique and dense (``0 .. node_count-1``) within one grammar.
Node equality is structural and ignores ids.

Ids are assigned in one place: :meth:`Grammar.build` copies every rule
body once, in rule order, numbering its nodes in pre-order
(:func:`_number`).  The same pass gathers the alphabet, the referenced
names, ``node_count`` and ``is_core``, so a built grammar is never walked
again to check or measure it.  Nodes made elsewhere (by the text parser,
the rewrites or the extraction) carry id -1 until they are built into a
grammar.  Node types have no subclasses, so the walkers here dispatch on
``type(e)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


_CORE_TYPES = frozenset((Empty, Terminal, Nonterminal, Sequence, Choice, Not))
_UNARY_TYPES = frozenset((Not, Star, Plus, Option, And))


def children(e: Expression) -> tuple[Expression, ...]:
    t = type(e)
    if t is Sequence:
        return (e.left, e.right)
    if t is Choice:
        return (e.first, e.second)
    if t in _UNARY_TYPES:
        return (e.inner,)
    return ()


def walk(e: Expression) -> Iterator[Expression]:
    """Yield ``e`` and all descendants in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        t = type(node)
        if t is Sequence:
            stack += (node.right, node.left)
        elif t is Choice:
            stack += (node.second, node.first)
        elif t in _UNARY_TYPES:
            stack.append(node.inner)


def is_core_expr(e: Expression) -> bool:
    return all(type(n) in _CORE_TYPES for n in walk(e))


def references_of(e: Expression) -> list[str]:
    """Referenced nonterminal names, in first-appearance order."""
    return list(dict.fromkeys(n.name for n in walk(e) if type(n) is Nonterminal))


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


def _number(
    body: Expression, nid: int, letters: dict[str, None], refs: dict[str, None]
) -> tuple[Expression, int, bool]:
    """Copy ``body`` with pre-order ids from ``nid``: (copy, next id, core-only).

    One pass: the first loop lists the nodes in pre-order and adds the
    body's letters and referenced names to ``letters`` and ``refs`` in
    first-appearance order; the second builds the copies bottom-up, from
    the end of that list, where every node's children are already built.
    """
    order: list[Expression] = []
    core = True
    stack = [body]
    while stack:
        e = stack.pop()
        order.append(e)
        t = type(e)
        if t is Terminal:
            letters[e.symbol] = None
        elif t is Nonterminal:
            refs[e.name] = None
        elif t is Sequence:
            stack += (e.right, e.left)
        elif t is Choice:
            stack += (e.second, e.first)
        elif t in _UNARY_TYPES:
            stack.append(e.inner)
            core = core and t is Not
        elif t is not Empty:
            core = False
    built: list[Expression] = []
    k = nid + len(order)
    for e in reversed(order):
        k -= 1
        t = type(e)
        if t is Terminal:
            built.append(Terminal(e.symbol, k))
        elif t is Nonterminal:
            built.append(Nonterminal(e.name, k))
        elif t is Sequence or t is Choice:
            first = built.pop()
            built[-1] = t(first, built[-1], k)
        elif t in _UNARY_TYPES:
            built[-1] = t(built[-1], k)
        else:
            built.append(t(k))
    return built[0], nid + len(order), core


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
    A grammar constructed directly is checked node by node instead.
    ``node_count`` and ``is_core`` are recorded by whichever check ran.
    """

    nonterminals: tuple[str, ...]
    alphabet: tuple[str, ...]
    rules: Mapping[str, Expression]
    axiom: str
    node_count: int = field(init=False, repr=False, compare=False)
    is_core: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_header()
        rules, sigma = self.rules, set(self.alphabet)
        nids: list[int] = []
        core = True
        for name in self.nonterminals:
            for n in walk(rules[name]):
                nids.append(n.nid)
                t = type(n)
                if t is Nonterminal and n.name not in rules:
                    raise GrammarInvariantError(f"undefined nonterminal {n.name!r}")
                if t is Terminal and n.symbol not in sigma:
                    raise GrammarInvariantError(f"letter {n.symbol!r} not in alphabet")
                core = core and t in _CORE_TYPES
        if sorted(nids) != list(range(len(nids))):
            raise GrammarInvariantError("node ids must be dense and unique")
        self._check_shapes()
        object.__setattr__(self, "node_count", len(nids))
        object.__setattr__(self, "is_core", core)

    def _check_header(self) -> None:
        """The invariants that do not look inside rule bodies."""
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

    def _check_shapes(self) -> None:
        """Invariants a subclass adds on rule shapes; a plain grammar has none."""

    @classmethod
    def build(
        cls,
        rules: SeqT[tuple[str, Expression]],
        axiom: str | None = None,
        alphabet: SeqT[str] = (),
    ) -> "Grammar":
        """Assemble a grammar, numbering node ids and computing the alphabet.

        The alphabet is the declared letters followed by any further letters
        appearing in rule bodies, in first-appearance order.  Each body is
        copied once by :func:`_number`; its ids are dense and its letters in
        the alphabet by construction, so only the references and the
        invariants outside the bodies are left to check.
        """
        names = tuple(name for name, _ in rules)
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise GrammarInvariantError(f"duplicate rule for {dup!r}")
        declared = tuple(alphabet)
        letters = dict.fromkeys(declared)
        known = len(letters)
        refs: dict[str, None] = {}
        numbered: dict[str, Expression] = {}
        nid, core = 0, True
        for name, body in rules:
            numbered[name], nid, body_core = _number(body, nid, letters, refs)
            core = core and body_core
        g = object.__new__(cls)
        for attr, value in (
            ("nonterminals", names),
            ("alphabet", declared + tuple(letters)[known:]),
            ("rules", numbered),
            ("axiom", axiom if axiom is not None else names[0]),
            ("node_count", nid),
            ("is_core", core),
        ):
            object.__setattr__(g, attr, value)
        g._check_header()
        for ref in refs:
            if ref not in numbered:
                raise GrammarInvariantError(f"undefined nonterminal {ref!r}")
        g._check_shapes()
        return g


class CnfGrammar(Grammar):
    """Grammar restricted to the five normal-form rule shapes.

    Every body is one of ``Choice(N, N)``, ``Sequence(N, N)``, ``Not(N)``,
    ``Terminal`` or ``Empty``, and the axiom never appears on a right-hand
    side.  Construction checks the shapes, so holding a value of this type
    certifies it.
    """

    def _check_shapes(self) -> None:
        for name in self.nonterminals:
            body = self.rules[name]
            if not cnf_body_shape_ok(body):
                raise NotCnfErrorFor(name, body)
            if any(ref.name == self.axiom for ref in children(body)):
                raise GrammarInvariantError(
                    f"axiom {self.axiom!r} occurs on the right-hand side of {name!r}"
                )


def cnf_body_shape_ok(body: Expression) -> bool:
    t = type(body)
    if t is Terminal or t is Empty:
        return True
    if t is Not:
        return type(body.inner) is Nonterminal
    if t is Sequence:
        return type(body.left) is Nonterminal and type(body.right) is Nonterminal
    if t is Choice:
        return type(body.first) is Nonterminal and type(body.second) is Nonterminal
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
