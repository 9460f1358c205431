"""Well-formedness analysis: left-recursion detection by abstract interpretation.

Each expression is assigned the set of outcomes it may have: succeed
consuming nothing, succeed consuming at least one letter, fail.  The sets
grow monotonically under fixed-point iteration, so the analysis terminates
and over-approximates actual behaviour.  A grammar is ill-formed when some
nonterminal can reinvoke itself before any input has been consumed; the
report carries one witnessing cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import NotCoreError
from .ast import (
    Choice,
    Empty,
    Expression,
    Grammar,
    Nonterminal,
    Not,
    Sequence,
    Terminal,
)

# Abstract outcome bits.
_EMPTY = 1  # may succeed consuming nothing
_CONSUME = 2  # may succeed consuming at least one letter
_FAIL = 4  # may fail


@dataclass(frozen=True)
class WfReport:
    well_formed: bool
    offending_cycle: tuple[str, ...] | None
    nullable: Mapping[str, bool]
    can_fail: Mapping[str, bool]

    def __post_init__(self) -> None:
        assert self.well_formed == (self.offending_cycle is None)


def _outcome(kind: type, a: int, b: int) -> int:
    """Outcome set of a ``kind`` node whose children have sets ``a`` and ``b``."""
    if kind is Sequence:
        out = _FAIL & a
        if a & (_EMPTY | _CONSUME):
            out |= _FAIL & b
            if a & _EMPTY and b & _EMPTY:
                out |= _EMPTY
            if (a | b) & _CONSUME and a & (_EMPTY | _CONSUME) and b & (_EMPTY | _CONSUME):
                out |= _CONSUME
        return out
    if kind is Choice:
        out = a & (_EMPTY | _CONSUME)
        if a & _FAIL:
            out |= b
        return out
    out = 0  # Not, of the set ``a``
    if a & _FAIL:
        out |= _EMPTY
    if a & (_EMPTY | _CONSUME):
        out |= _FAIL
    return out


# ``_outcome`` tabulated for each composite node type, indexed by ``a << 3 | b``.
_SEQ, _CHOICE, _NOT = (
    tuple(_outcome(kind, a, b) for a in range(8) for b in range(8))
    for kind in (Sequence, Choice, Not)
)

# The outcome sets of every empty and of every terminal, which never change,
# sit in slots 0 and 1; slot ``2 + i`` holds the ``i``-th nonterminal's.
_CONSTANT_SLOT = {Empty: 0, Terminal: 1}


def _flatten(
    body: Expression,
    slot_of: dict[str, int],
    kids: list[tuple[tuple[int, ...], int, int]],
) -> tuple[int, list[tuple[int, tuple[int, ...], int, int]]]:
    """The slot of ``body`` and its composite nodes in post-order.

    Each Sequence, Choice and Not node takes the first slot after the
    rules' slots and those already in ``kids``, where it is recorded as
    ``(table, left slot, right slot)``; a Not has its inner slot on both
    sides.  The nodes come back as ``(slot, table, left slot, right slot)``.
    """
    nodes: list[tuple[int, tuple[int, ...], int, int]] = []
    slots: list[int] = []
    stack: list = [body]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Nonterminal:
            slots.append(slot_of[e.name])
        elif t is Terminal or t is Empty:
            slots.append(_CONSTANT_SLOT[t])
        elif t is Sequence:
            stack += (_SEQ, e.right, e.left)
        elif t is Choice:
            stack += (_CHOICE, e.second, e.first)
        elif t is Not:
            stack += (_NOT, e.inner)
        elif t is tuple:  # a table, once the node's children have their slots
            b = slots.pop()
            a = b if e is _NOT else slots.pop()
            slot = len(slot_of) + 2 + len(kids)
            kids.append((e, a, b))
            nodes.append((slot, e, a, b))
            slots.append(slot)
        else:
            raise NotCoreError(f"well-formedness analysis needs a core-only grammar, saw {e!r}")
    return slots[0], nodes


def _zero_reach(root: int, values: list[int], kids: list, names: tuple[str, ...]) -> list[str]:
    """Nonterminals invocable from a body before any input is consumed."""
    base = 2 + len(names)
    acc: dict[str, None] = {}
    stack = [root]
    while stack:
        slot = stack.pop()
        if slot >= base:
            table, a, b = kids[slot - base]
            if table is _SEQ and values[a] & _EMPTY or table is _CHOICE and values[a] & _FAIL:
                stack.append(b)
            stack.append(a)
        elif slot >= 2:
            acc[names[slot - 2]] = None
    return list(acc)


def check_well_formed(g: Grammar) -> WfReport:
    """Analyse a core-only grammar; raises :class:`NotCoreError` on sugar.

    Each body is flattened once; a fixpoint pass then evaluates each of its
    composite nodes once, in post-order, updating the rules' sets in place
    in rule order.  The last pass leaves every node's final set in its
    slot, where the zero-consumption edges read it.
    """
    names = g.nonterminals
    slot_of = {name: i for i, name in enumerate(names, start=2)}
    kids: list[tuple[tuple[int, ...], int, int]] = []
    rules = [_flatten(g.rules[name], slot_of, kids) for name in names]
    values = [_EMPTY, _CONSUME | _FAIL] + [0] * (len(names) + len(kids))
    changed = True
    while changed:
        changed = False
        for i, (root, nodes) in enumerate(rules, start=2):
            for slot, table, a, b in nodes:
                values[slot] = table[values[a] << 3 | values[b]]
            new = values[i] | values[root]
            if new != values[i]:
                values[i] = new
                changed = True

    edges = {name: _zero_reach(root, values, kids, names) for name, (root, _) in zip(names, rules)}
    cycle = _find_cycle(names, edges)
    return WfReport(
        well_formed=cycle is None,
        offending_cycle=cycle,
        nullable={name: bool(values[i] & _EMPTY) for name, i in slot_of.items()},
        can_fail={name: bool(values[i] & _FAIL) for name, i in slot_of.items()},
    )


def _find_cycle(names: tuple[str, ...], edges: dict[str, list[str]]) -> tuple[str, ...] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in names}
    for root in names:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path = [root]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(edges[node]):
                stack[-1] = (node, idx + 1)
                succ = edges[node][idx]
                if color[succ] == GRAY:
                    return tuple(path[path.index(succ) :])
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, 0))
                    path.append(succ)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def require_well_formed(g: Grammar) -> WfReport:
    from ..errors import IllFormedError

    report = check_well_formed(g)
    if not report.well_formed:
        raise IllFormedError(report.offending_cycle)
    return report
