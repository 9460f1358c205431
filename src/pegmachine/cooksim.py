"""Linear-time simulation of two-way pointer machines by memoized terminators.

A *surface configuration* ``(state, symbol, head)`` is the part of a
configuration the next move can see: the state, the top stack symbol and
the head position.  Its *terminator* is the ``(state, head)`` of the first
configuration of the run from it at which that top symbol is about to be
popped.  The chase that finds the terminator never reads the symbol's
origin: only the pop itself does, when an ``up`` move sends the head back
there, and the caller that pushed the symbol holds the origin and applies
that pop.  So the memo is keyed by ``(state, symbol, head)`` alone and has
at most ``|Q| * |Gamma| * (n + 2)`` entries on a word of length ``n``, as
in Cook's simulation of two-way deterministic pushdown automata (1971).

Terminators satisfy a recurrence: a pop move terminates immediately, and
for a push move the terminators of the pushed symbols' episodes, chased in
order from the top and each followed by its pop move, give the surface
configuration from which the original symbol's episode continues.  Each
surface configuration is computed at most once into a write-once table
whose values are terminators or one of two sentinels: ``IN_PROGRESS``
while the chase is open, ``STUCK`` when it reached a configuration with no
move, so that the symbol is never popped.  Reaching a configuration whose
chase is still open proves the machine loops, and the input is rejected
outright.  Evaluation is iterative with an explicit frame stack, so
recursion depth never grows with the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MachineInvariantError
from .pppda.machine import DOWN, LEFT, LEFT_MARK, Machine, RIGHT, RIGHT_MARK, UP, letter_at

ACCEPT, REJECT = "accept", "reject"

IN_PROGRESS = "in-progress"
STUCK = "stuck"

# Head displacement of every direction but ``up``, which returns to the origin.
_STEP = {LEFT: -1, DOWN: 0, RIGHT: 1}

Key = tuple[str, str, int]  # (state, top symbol, head)


def terminator(
    m: Machine, word: str, key: Key, table: dict[Key, object]
) -> tuple[object, int, Key | None]:
    """Compute (and memoize in ``table``) the terminator of ``key``.

    Returns ``(value, ops, loop_at)``.  ``value`` is the terminator
    ``(state, head)``, ``STUCK``, or ``IN_PROGRESS`` when the chase
    re-entered ``loop_at``, a key whose chase is still open.  ``ops``
    counts the table's gets, in-progress marks and finishes.
    """
    if m.has_hat_moves:
        raise MachineInvariantError("terminator needs a hat-free machine; desugar first")
    delta = m.delta
    letters = (LEFT_MARK, *word, RIGHT_MARK)
    ops = 1
    hit = table.get(key)
    if hit is IN_PROGRESS:
        return hit, ops, key
    if hit is not None:
        return hit, ops, None
    ops += 1
    table[key] = IN_PROGRESS

    # The open frame chases the episode of ``sym``; ``keys`` are the surface
    # configurations with that symbol on top it has passed, all sharing one
    # terminator.  While ``chain`` is set, the symbols it pushed are chased
    # in order, ``chain[idx]`` on top, every one of them with origin ``origin``.
    state, sym, head = key
    keys = [key]
    chain: tuple[str, ...] | None = None
    idx = origin = 0
    parents: list[tuple[str, list[Key], tuple[str, ...], int, int]] = []
    while True:
        if chain is None:
            mv = delta.get((state, letters[head], sym))
            if mv is None:
                value: object = STUCK
            else:
                target, push, direction = mv
                if not push:
                    value = (state, head)
                else:
                    state = target
                    head += _STEP[direction]
                    chain, idx, origin = push, 0, head
                    continue
        elif idx < len(chain):
            top = chain[idx]
            sub = (state, top, head)
            ops += 1
            hit = table.get(sub)
            if hit is None:  # suspend this frame and chase the pushed symbol
                ops += 1
                table[sub] = IN_PROGRESS
                parents.append((sym, keys, chain, idx, origin))
                sym, keys, chain = top, [sub], None
                continue
            if hit is IN_PROGRESS:
                return hit, ops, sub
            if hit is STUCK:
                value = STUCK
            else:
                state, head = hit  # type: ignore[misc]
                state, _, direction = delta[(state, letters[head], top)]
                head = origin if direction == UP else head + _STEP[direction]
                idx += 1
                continue
        else:  # every pushed symbol is popped: the frame's own is on top again
            chain = None
            tail = (state, sym, head)
            ops += 1
            hit = table.get(tail)
            if hit is None:
                ops += 1
                table[tail] = IN_PROGRESS
                keys.append(tail)
                continue
            if hit is IN_PROGRESS:
                return hit, ops, tail
            value = hit
        # The frame is resolved; a stuck frame leaves every suspended one stuck.
        while True:
            for k in keys:
                ops += 1
                if table.get(k) is not IN_PROGRESS:
                    raise MachineInvariantError("terminator table entries are write-once")
                table[k] = value
            if not parents:
                return value, ops, None
            sym, keys, chain, idx, origin = parents.pop()
            if value is not STUCK:
                break
        # Apply the pop move of the resolved child symbol, ``chain[idx]``.
        state, head = value  # type: ignore[misc]
        state, _, direction = delta[(state, letters[head], chain[idx])]
        head = origin if direction == UP else head + _STEP[direction]
        idx += 1


@dataclass(frozen=True)
class LinearRun:
    outcome: str  # accept / reject
    reason: str | None
    ops: int
    table_size: int
    loop_at: Key | None = None


def run_linear(m: Machine, word: str) -> LinearRun:
    """Accept or reject in time linear in the input length.

    Computes the terminator of the initial surface configuration, applies
    its pop move (the bottom symbol's origin is 0), and accepts exactly
    when that lands in a final state on the right end marker (the stack,
    being a single symbol deep at start, is then empty).  A detected loop
    or a stuck chase rejects.
    """
    table: dict[Key, object] = {}
    value, ops, loop_at = terminator(m, word, (m.initial_state, m.bottom, 0), table)
    size = len(table)
    if size > len(m.states) * len(m.stack_alphabet) * (len(word) + 2):
        raise MachineInvariantError(f"terminator table outgrew its key space: {size} entries")
    if value is IN_PROGRESS:
        return LinearRun(REJECT, "loop", ops, size, loop_at)
    if value is STUCK:
        return LinearRun(REJECT, "stuck", ops, size)
    state, head = value  # type: ignore[misc]
    mv = m.delta[(state, letter_at(word, head), m.bottom)]
    head = 0 if mv.direction == UP else head + _STEP[mv.direction]
    if mv.state in m.finals and head == len(word) + 1:
        return LinearRun(ACCEPT, None, ops, size)
    if mv.state not in m.finals:
        return LinearRun(REJECT, "non-final-halt", ops, size)
    return LinearRun(REJECT, "not-at-right-end", ops, size)


@dataclass(frozen=True)
class WorkReport:
    ops: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.ops <= self.bound


# Constant factor of the table-operation bound asserted by work_bound_check.
WORK_BOUND_FACTOR = 4


def work_bound(m: Machine, n: int) -> int:
    """The table-operation bound on a word of length ``n``.

    ``2 * |Q| * |Gamma| * (n + 2) * 4``: at most two episode chases touch
    each materialized surface configuration, and each touch costs a
    bounded handful of table operations.
    """
    return 2 * len(m.states) * len(m.stack_alphabet) * (n + 2) * WORK_BOUND_FACTOR


def work_bound_check(m: Machine, word: str) -> WorkReport:
    """Run the linear engine and compare its table operations to the bound."""
    return WorkReport(run_linear(m, word).ops, work_bound(m, len(word)))
