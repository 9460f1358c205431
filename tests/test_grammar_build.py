"""Grammar.build against a recursive reference, and the checks of grammars
constructed directly."""

from __future__ import annotations

import itertools
import random

import pytest

from pegmachine.errors import GrammarInvariantError, NotCnfError
from pegmachine.fuzz import random_cnf_grammar, random_general_grammar
from pegmachine.peg import (
    Choice,
    CnfGrammar,
    Grammar,
    Nonterminal,
    Not,
    Option,
    Sequence,
    Terminal,
    is_core_expr,
    walk,
)


def _renumber(e, counter):
    """Copy ``e`` with pre-order ids, recursively."""
    nid = next(counter)
    if isinstance(e, (Sequence, Choice)):
        first, second = (e.left, e.right) if isinstance(e, Sequence) else (e.first, e.second)
        return type(e)(_renumber(first, counter), _renumber(second, counter), nid)
    if hasattr(e, "inner"):
        return type(e)(_renumber(e.inner, counter), nid)
    if isinstance(e, Terminal):
        return Terminal(e.symbol, nid)
    if isinstance(e, Nonterminal):
        return Nonterminal(e.name, nid)
    return type(e)(nid)


def _reference_build(rules, declared):
    """Bodies and alphabet as a builder that walks each body twice makes them."""
    counter = itertools.count()
    numbered = {name: _renumber(body, counter) for name, body in rules}
    sigma = list(declared)
    for body in numbered.values():
        for n in walk(body):
            if isinstance(n, Terminal) and n.symbol not in sigma:
                sigma.append(n.symbol)
    return numbered, tuple(sigma)


def _generated_grammars():
    rng = random.Random(10)
    for _ in range(100):
        yield random_general_grammar(rng, 4, 3)
    for _ in range(100):
        yield random_cnf_grammar(rng, 5, 3)


def test_build_matches_a_recursive_reference():
    for g in _generated_grammars():
        # Reversed rule order and a partial declared alphabet: the input ids
        # and letter order are not the ones the builder must produce.
        rules = [(name, g.rules[name]) for name in reversed(g.nonterminals)]
        declared = g.alphabet[-1:]
        built = Grammar.build(rules, axiom=g.axiom, alphabet=declared)
        bodies, sigma = _reference_build(rules, declared)
        assert built.alphabet == sigma
        assert built.nonterminals == tuple(bodies)
        for name, body in bodies.items():
            assert built.rules[name] == body
            assert [n.nid for n in walk(built.rules[name])] == [n.nid for n in walk(body)]
        assert built.node_count == sum(1 for body in bodies.values() for _ in walk(body))
        assert built.is_core == all(is_core_expr(body) for body in bodies.values())


def test_direct_construction_is_checked_node_by_node():
    a, b = Terminal("a", 1), Terminal("b", 2)
    g = Grammar(("S",), ("a", "b"), {"S": Sequence(a, b, 0)}, "S")
    assert (g.node_count, g.is_core) == (3, True)
    assert Grammar(("S",), ("a",), {"S": Option(Terminal("a", 1), 0)}, "S").is_core is False
    with pytest.raises(GrammarInvariantError, match="dense and unique"):
        Grammar(("S",), ("a", "b"), {"S": Sequence(a, Terminal("b", 1), 0)}, "S")
    with pytest.raises(GrammarInvariantError, match="undefined nonterminal 'T'"):
        Grammar(("S",), (), {"S": Nonterminal("T", 0)}, "S")
    with pytest.raises(GrammarInvariantError, match="not in alphabet"):
        Grammar(("S",), ("a",), {"S": Sequence(a, b, 0)}, "S")


def test_normal_form_shapes_are_checked_by_both_constructions():
    rules = {"S": Sequence(Terminal("a", 1), Nonterminal("S", 2), 0)}
    with pytest.raises(NotCnfError):
        CnfGrammar(("S",), ("a",), rules, "S")
    with pytest.raises(NotCnfError):
        CnfGrammar.build(list(rules.items()))
    with pytest.raises(GrammarInvariantError, match="right-hand side"):
        CnfGrammar.build([("S", Not(Nonterminal("A"))), ("A", Terminal("a"))], axiom="A")
    g = CnfGrammar.build([("S", Not(Nonterminal("A"))), ("A", Terminal("a"))])
    assert isinstance(g, CnfGrammar) and g.node_count == 3
