"""Grammar.build against a recursive reference, and the checks of grammars
constructed directly."""

from __future__ import annotations

import copy as copy_module
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import pegmachine
from pegmachine.errors import GrammarInvariantError, NotCnfError
from pegmachine.fuzz import random_cnf_grammar, random_general_grammar
from pegmachine.peg import (
    DIVERGED,
    FAILURE,
    And,
    AnyChar,
    Choice,
    CnfGrammar,
    Consumed,
    Diverged,
    Empty,
    Fail,
    Failure,
    Grammar,
    Nonterminal,
    Not,
    Option,
    Plus,
    Sequence,
    Star,
    Terminal,
    desugar,
    is_core_expr,
)


def _preorder(e):
    """``e`` and its descendants in pre-order, recursively."""
    yield e
    if isinstance(e, Sequence):
        yield from _preorder(e.left)
        yield from _preorder(e.right)
    elif isinstance(e, Choice):
        yield from _preorder(e.first)
        yield from _preorder(e.second)
    elif hasattr(e, "inner"):
        yield from _preorder(e.inner)


def _reference_build(rules, declared):
    """Alphabet and node count as a recursive walk of every body finds them."""
    nodes = [n for _, body in rules for n in _preorder(body)]
    sigma = list(declared)
    for n in nodes:
        if isinstance(n, Terminal) and n.symbol not in sigma:
            sigma.append(n.symbol)
    return tuple(sigma), len(nodes)


def _generated_grammars():
    rng = random.Random(10)
    for _ in range(100):
        g = random_general_grammar(rng, 4, 3)
        yield g
        yield desugar(g)  # shares each Plus body between two places
    for _ in range(100):
        yield random_cnf_grammar(rng, 5, 3)


def test_build_matches_a_recursive_reference():
    for g in _generated_grammars():
        # Reversed rule order and a partial declared alphabet: the letter
        # order is not the one the builder must produce.
        rules = [(name, g.rules[name]) for name in reversed(g.nonterminals)]
        declared = g.alphabet[-1:]
        built = Grammar.build(rules, axiom=g.axiom, alphabet=declared)
        sigma, count = _reference_build(rules, declared)
        assert built.alphabet == sigma
        assert built.nonterminals == tuple(name for name, _ in rules)
        for name, body in rules:
            assert built.rules[name] == body
        assert built.node_count == count
        assert built.is_core == all(is_core_expr(body) for _, body in rules)


def test_direct_construction_is_checked_node_by_node():
    a, b = Terminal("a"), Terminal("b")
    g = Grammar(("S",), ("a", "b"), {"S": Sequence(a, b)}, "S")
    assert (g.node_count, g.is_core) == (3, True)
    assert Grammar(("S",), ("a",), {"S": Option(Terminal("a"))}, "S").is_core is False
    # A node shared by two places is counted at each.
    assert Grammar(("S",), ("a",), {"S": Sequence(a, a)}, "S").node_count == 3
    with pytest.raises(GrammarInvariantError, match="undefined nonterminal 'T'"):
        Grammar(("S",), (), {"S": Nonterminal("T")}, "S")
    with pytest.raises(GrammarInvariantError, match="not in alphabet"):
        Grammar(("S",), ("a",), {"S": Sequence(a, b)}, "S")


_X, _Y = Terminal("x"), Nonterminal("Y")
_NODES = [
    Empty(),
    Terminal("a"),
    Nonterminal("A"),
    Sequence(_X, _Y),
    Choice(_X, _Y),
    Not(_X),
    Star(_X),
    Plus(_X),
    Option(_X),
    And(_X),
    AnyChar(),
    Fail(),
]


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_nodes_are_frozen_structural_values(node):
    fields = node.__match_args__
    copy = type(node)(*(getattr(node, f) for f in fields))
    assert copy == node and hash(copy) == hash(node) and copy is not node
    tree = Sequence(node, node)
    assert copy_module.deepcopy(tree) == tree == pickle.loads(pickle.dumps(tree))
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f, _X)
    assert not hasattr(node, "__dict__")
    # Equality includes the class: no two kinds of node are ever equal.
    assert [other for other in _NODES if other == node] == [node]
    assert len(set(_NODES)) == len(_NODES)


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_nodes_refuse_every_attribute_write(node):
    """A field or any other name, set or deleted: always FrozenInstanceError."""
    for name in node.__match_args__ + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, _X)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)


def test_node_reprs_are_pinned():
    """Error messages print nodes, so their reprs are part of the interface."""
    assert [repr(node) for node in _NODES] == [
        "Empty()",
        "Terminal(symbol='a')",
        "Nonterminal(name='A')",
        "Sequence(left=Terminal(symbol='x'), right=Nonterminal(name='Y'))",
        "Choice(first=Terminal(symbol='x'), second=Nonterminal(name='Y'))",
        "Not(inner=Terminal(symbol='x'))",
        "Star(inner=Terminal(symbol='x'))",
        "Plus(inner=Terminal(symbol='x'))",
        "Option(inner=Terminal(symbol='x'))",
        "And(inner=Terminal(symbol='x'))",
        "AnyChar()",
        "Fail()",
    ]
    pinned = "Sequence(left=Terminal(symbol='a'), right=Empty())"
    assert repr(Sequence(Terminal("a"), Empty())) == pinned


def test_outcomes_are_distinct_values():
    assert FAILURE != DIVERGED and Failure() is FAILURE and Diverged() is DIVERGED
    assert Consumed(0) != FAILURE and Consumed(0) != DIVERGED
    assert Consumed(2) == Consumed(2) and Consumed(2) != Consumed(3)
    assert (repr(FAILURE), repr(DIVERGED), repr(Consumed(2))) == (
        "Failure()", "Diverged()", "Consumed(resume=2)"
    )
    assert Not(_X) != Star(_X) and Not(_X) == Not(Terminal("x"))


# The classes that validate in ``__post_init__`` or cache, and so stay
# dataclasses; every other record is a named tuple or a plain class, whose
# import generates no code.
_DATACLASSES = {
    "Grammar", "Machine", "WfReport", "Dpda", "LabeledDfa", "CompositionSpec", "FuzzReport",
}


def test_only_the_validating_classes_are_dataclasses():
    classes = set()
    for info in pkgutil.walk_packages(pegmachine.__path__, "pegmachine."):
        module = importlib.import_module(info.name)
        classes.update(v for v in vars(module).values() if isinstance(v, type))
    found = {
        cls.__name__
        for cls in classes
        if cls.__module__.startswith("pegmachine.") and dataclasses.is_dataclass(cls)
    }
    assert found == _DATACLASSES | {"CnfGrammar"}  # CnfGrammar inherits Grammar's fields


def test_normal_form_shapes_are_checked_by_both_constructions():
    rules = {"S": Sequence(Terminal("a"), Nonterminal("S"))}
    with pytest.raises(NotCnfError):
        CnfGrammar(("S",), ("a",), rules, "S")
    with pytest.raises(NotCnfError):
        CnfGrammar.build(list(rules.items()))
    with pytest.raises(GrammarInvariantError, match="right-hand side"):
        CnfGrammar.build([("S", Not(Nonterminal("A"))), ("A", Terminal("a"))], axiom="A")
    g = CnfGrammar.build([("S", Not(Nonterminal("A"))), ("A", Terminal("a"))])
    assert isinstance(g, CnfGrammar) and g.node_count == 3
