"""Grammar AST: expression nodes, grammars, and recognition outcomes.

Expressions form a tree of frozen, slotted nodes.  The core forms are
Empty, Terminal, Nonterminal, Sequence, Choice and Not; Star, Plus,
Option, And, AnyChar and Fail are sugar that
:func:`pegmachine.peg.transform.desugar` rewrites into core forms.  A node
is a plain value: it carries no id, its equality and hash are structural
and include its class (``Not(x) != Star(x)``), and setting or deleting
any attribute raises ``FrozenInstanceError``.  So a node is built once,
where it is made, and may be shared by several trees; the rewrites that
name fresh rules after a node count its pre-order position as they visit
it.  Nodes and outcomes are plain classes, not dataclasses, so importing
this module compiles no generated code (see :class:`Expression`).

:meth:`Grammar.build` walks each rule body once, without copying it, and
gathers the alphabet, the referenced names, ``node_count`` (node
occurrences, a shared subtree counted at each) and ``is_core``, so a
built grammar is never walked again to check or measure it.  Node types
have no subclasses, so the walkers here dispatch on ``type(e)``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Sequence as SeqT

from ..errors import GrammarInvariantError, NotCnfError

# Characters that may never be letters, of a grammar, a machine or a DPDA:
# the end markers of the machine model, the quote of the file formats, and
# whitespace.  :func:`is_letter` is the one rule every model and reader applies.
RESERVED_LETTERS = frozenset('<>"')

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Expression:
    """Base class for expression nodes: frozen, slotted, structural values.

    A node class names its fields in ``__slots__`` and ``__match_args__``
    and sets them in its ``__init__`` through ``object.__setattr__``.  The
    rest comes from here, keyed on that field tuple: equality, hash, repr,
    copying and pickling, and guards raising ``FrozenInstanceError`` on every
    write.  Node classes are not dataclasses, which generate and compile
    these methods at each import, a large part of a command's start-up.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _key = staticmethod(lambda node: ())  # the field values, compared and hashed

    def __init_subclass__(cls) -> None:
        if cls.__match_args__:
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Empty(Expression):
    __slots__ = ()


class Terminal(Expression):
    __slots__ = __match_args__ = ("symbol",)

    def __init__(self, symbol: str) -> None:
        object.__setattr__(self, "symbol", symbol)


class Nonterminal(Expression):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Sequence(Expression):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Choice(Expression):
    __slots__ = __match_args__ = ("first", "second")

    def __init__(self, first: Expression, second: Expression) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


class _Unary(Expression):
    __slots__ = __match_args__ = ("inner",)

    def __init__(self, inner: Expression) -> None:
        object.__setattr__(self, "inner", inner)


class Not(_Unary):
    __slots__ = ()


class Star(_Unary):
    __slots__ = ()


class Plus(_Unary):
    __slots__ = ()


class Option(_Unary):
    __slots__ = ()


class And(_Unary):
    __slots__ = ()


class AnyChar(Expression):
    __slots__ = ()


class Fail(Expression):
    __slots__ = ()


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


def is_letter(ch: str) -> bool:
    """May ``ch`` be a letter?  One character, neither reserved nor blank."""
    return len(ch) == 1 and ch not in RESERVED_LETTERS and not ch.isspace()


# --- recognition outcomes ---------------------------------------------------


class Consumed(NamedTuple):
    """Success: ``resume`` is the 0-based offset of the unconsumed suffix."""

    resume: int


class _Singleton:
    """A field-less outcome: its class has one instance, which ``X()`` returns."""

    __slots__ = ()

    def __new__(cls):
        cls.instance = cls.__dict__.get("instance") or super().__new__(cls)
        return cls.instance

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Failure(_Singleton):
    __slots__ = ()


class Diverged(_Singleton):
    """The budgeted interpreter ran out of steps (naive engine only)."""

    __slots__ = ()


ParseOutcome = Consumed | Failure | Diverged

FAILURE = Failure()
DIVERGED = Diverged()


# --- grammars ----------------------------------------------------------------


@dataclass(frozen=True)
class Grammar:
    """A grammar: ordered nonterminals, ordered alphabet, one rule each, axiom.

    Immutable after construction; construct through :meth:`build` (or the
    text parser), which computes the alphabet and validates the invariants.
    A grammar constructed directly is also checked against its alphabet.
    Either way each body is walked once, by :meth:`_check_bodies`, which
    records ``node_count`` and ``is_core``.
    """

    nonterminals: tuple[str, ...]
    alphabet: tuple[str, ...]
    rules: Mapping[str, Expression]
    axiom: str
    node_count: int = field(init=False, repr=False, compare=False)
    is_core: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_header()
        letters = dict.fromkeys(self.alphabet)
        known = len(letters)
        self._check_bodies(letters)
        if len(letters) > known:
            raise GrammarInvariantError(f"letter {list(letters)[known]!r} not in alphabet")
        self._check_shapes()

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
            if not is_letter(ch):
                raise GrammarInvariantError(f"bad alphabet letter {ch!r}")
        if set(names) & set(self.alphabet):
            raise GrammarInvariantError("nonterminal names and alphabet must be disjoint")

    def _check_bodies(self, letters: dict[str, None]) -> None:
        """Walk every body once, in pre-order and rule order: add its letters
        to ``letters`` in first-appearance order, check its references, and
        record ``node_count`` and ``is_core``."""
        rules = self.rules
        refs: dict[str, None] = {}
        count, core = 0, True
        stack = [rules[name] for name in reversed(self.nonterminals)]
        while stack:
            e = stack.pop()
            count += 1
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
        for ref in refs:
            if ref not in rules:
                raise GrammarInvariantError(f"undefined nonterminal {ref!r}")
        object.__setattr__(self, "node_count", count)
        object.__setattr__(self, "is_core", core)

    def _check_shapes(self) -> None:
        """Invariants a subclass adds on rule shapes; a plain grammar has none."""

    @classmethod
    def build(
        cls,
        rules: SeqT[tuple[str, Expression]],
        axiom: str | None = None,
        alphabet: SeqT[str] = (),
    ) -> "Grammar":
        """Assemble a grammar from its rules, computing the alphabet.

        The alphabet is the declared letters followed by any further letters
        appearing in rule bodies, in first-appearance order.  The bodies are
        kept as given: a node may be shared within or between them.
        """
        names = tuple(name for name, _ in rules)
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise GrammarInvariantError(f"duplicate rule for {dup!r}")
        g = object.__new__(cls)
        object.__setattr__(g, "nonterminals", names)
        object.__setattr__(g, "rules", dict(rules))
        object.__setattr__(g, "axiom", axiom if axiom is not None else names[0])
        declared = tuple(alphabet)
        letters = dict.fromkeys(declared)
        known = len(letters)
        g._check_bodies(letters)
        object.__setattr__(g, "alphabet", declared + tuple(letters)[known:])
        g._check_header()
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
