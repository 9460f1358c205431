"""Grammar rewrites: desugaring, normal-form conversion, acceptance-mode wrappers.

Fresh nonterminals introduced by the rewrites are named ``#k`` where ``k``
is the pre-order position of the originating node in the input grammar:
the rewrite counts the nodes as it visits them, rule by rule in order,
and a subtree that occurs twice (as the body of a ``Plus`` does after
desugaring) is counted at each occurrence.  So output is deterministic
and golden-testable.  ``#`` is not a legal character in user-written
names, which makes collisions impossible.  The normal-form conversion
shares one fresh rule among equal subexpressions: that rule takes the
position of the first occurrence in rule order, and lifted empties all
reuse the ``#u <- ""`` rule.
"""

from __future__ import annotations

from ..errors import NotCoreError
from .ast import (
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
    Terminal,
)
from .wellformed import require_well_formed


def desugar(g: Grammar) -> Grammar:
    """Rewrite sugar forms into the core forms.

    Star and Plus loops become fresh rules (``e*`` turns into ``#k`` with
    ``#k <- e #k / ""``, ``k`` the loop's pre-order position); Option,
    And, AnyChar and Fail are expanded in place.  Core-only grammars come
    back equal.
    """
    fresh: list[tuple[str, Expression]] = []
    sigma = g.alphabet
    k = 0  # pre-order position of the next node visited

    def rewrite(e: Expression) -> Expression:
        nonlocal k
        pos = k
        k += 1
        t = type(e)
        if t is Terminal or t is Nonterminal or t is Empty:
            return e
        if t is Sequence:
            return Sequence(rewrite(e.left), rewrite(e.right))
        if t is Choice:
            return Choice(rewrite(e.first), rewrite(e.second))
        if t is Not:
            return Not(rewrite(e.inner))
        if t is And:
            return Not(Not(rewrite(e.inner)))
        if t is Option:
            return Choice(rewrite(e.inner), Empty())
        if t is Star:
            name = f"#{pos}"
            fresh.append((name, Choice(Sequence(rewrite(e.inner), Nonterminal(name)), Empty())))
            return Nonterminal(name)
        if t is Plus:
            # e+ is e e*; rewrite the body once and reference it twice
            # (nodes are values, so sharing is fine).
            name = f"#{pos}"
            inner = rewrite(e.inner)
            fresh.append((name, Choice(Sequence(inner, Nonterminal(name)), Empty())))
            return Sequence(inner, Nonterminal(name))
        if t is AnyChar:
            if not sigma:
                return Not(Empty())
            out: Expression = Terminal(sigma[-1])
            for ch in reversed(sigma[:-1]):
                out = Choice(Terminal(ch), out)
            return out
        if t is Fail:
            return Not(Empty())
        raise TypeError(f"unknown expression node {e!r}")

    rules = [(name, rewrite(g.rules[name])) for name in g.nonterminals]
    return Grammar.build(rules + fresh, axiom=g.axiom, alphabet=sigma)


_EPS_NT = "#u"
_FRESH_AXIOM = "#ax"


def to_cnf(g: Grammar) -> CnfGrammar:
    """Convert a core-only, well-formed grammar to the normal-form shapes.

    Long sequences and choices are right-folded into fresh bracket rules,
    bare terminals / empties / negations inside composite bodies are lifted
    into fresh rules, unit rules ``A <- B`` are padded to ``A <- B #u`` with
    ``#u <- ""``, and a fresh axiom wrapping the old one is added whenever
    the old axiom occurs on a right-hand side.  Acceptance and
    well-formedness are preserved; the output records that it is
    well-formed, so :func:`~pegmachine.translate.peg_to_dppda` compiles it
    without a second analysis.

    Lifting works bottom-up and is hash-consed on the converted body, so
    equal subexpressions share one rule ``#c<k>``, named after the
    pre-order position of the first occurrence; a lifted empty is ``#u``
    itself.  Sharing is sound because equal bodies over the same
    nonterminals have the same outcome, and it cannot create left
    recursion because a shared rule has the same successors as each
    occurrence it replaces.
    """
    if not g.is_core:
        raise NotCoreError("to_cnf needs a core-only grammar; desugar first")
    require_well_formed(g)

    fresh: list[tuple[str, Expression]] = []
    shared: dict[Expression, str] = {}
    needs_eps = False
    axiom = g.axiom
    axiom_used = False  # does the axiom occur on a right-hand side?
    k = 0  # pre-order position of the next node visited

    def ref(name: str) -> Nonterminal:
        """A reference in a converted body; notes whether it names the axiom."""
        nonlocal axiom_used
        axiom_used = axiom_used or name == axiom
        return Nonterminal(name)

    def lift(e: Expression) -> Nonterminal:
        """Name the subexpression ``e`` so it can sit inside a binary body."""
        nonlocal needs_eps, k
        if type(e) is Nonterminal:
            k += 1
            return ref(e.name)
        pos = k
        body = convert(e)
        if type(body) is Empty:
            needs_eps = True
            return ref(_EPS_NT)
        name = shared.get(body)
        if name is None:
            # "#c" keeps these names disjoint from desugar's "#k" rules,
            # which may survive in the input grammar.
            name = shared[body] = f"#c{pos}"
            fresh.append((name, body))
        return ref(name)

    def convert(e: Expression) -> Expression:
        nonlocal needs_eps, k
        k += 1
        t = type(e)
        if t is Terminal or t is Empty:
            return e
        if t is Nonterminal:
            needs_eps = True
            return Sequence(ref(e.name), ref(_EPS_NT))
        if t is Sequence:
            return Sequence(lift(e.left), lift(e.right))
        if t is Choice:
            return Choice(lift(e.first), lift(e.second))
        if t is Not:
            return Not(lift(e.inner))
        raise NotCoreError(f"unexpected node {e!r}")

    rules = [(name, convert(g.rules[name])) for name in g.nonterminals]
    rules += fresh
    if needs_eps:
        rules.append((_EPS_NT, Empty()))

    if axiom_used:
        rules.append((_FRESH_AXIOM, Sequence(Nonterminal(axiom), Nonterminal(_EPS_NT))))
        if not needs_eps:
            rules.append((_EPS_NT, Empty()))
        axiom = _FRESH_AXIOM
    out = CnfGrammar.build(rules, axiom=axiom, alphabet=g.alphabet)
    vars(out)["_well_formed"] = True  # the conversion keeps the input's verdict
    return out


TO_FULL_MATCH = "to-full-match-mode"
TO_PREFIX = "to-prefix-mode"


def convert_acceptance(g: Grammar, direction: str) -> Grammar:
    """Wrap the axiom to move between whole-input and prefix acceptance.

    ``to-full-match-mode`` adds ``#full <- S !.`` so the run succeeds only
    when the old axiom consumed the whole input; ``to-prefix-mode`` adds
    ``#prefix <- S .*`` so any input whose prefix the old axiom matches is
    accepted with the remainder swallowed.
    """
    if direction == TO_FULL_MATCH:
        wrapper = ("#full", Sequence(Nonterminal(g.axiom), Not(AnyChar())))
    elif direction == TO_PREFIX:
        wrapper = ("#prefix", Sequence(Nonterminal(g.axiom), Star(AnyChar())))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    rules = [wrapper] + [(name, g.rules[name]) for name in g.nonterminals]
    return Grammar.build(rules, axiom=wrapper[0], alphabet=g.alphabet)
