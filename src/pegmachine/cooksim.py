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
surface configuration whose move pushes is computed at most once into a
write-once table whose values are terminators or one of two sentinels:
``IN_PROGRESS``
while the chase is open, ``STUCK`` when it reached a configuration with no
move, so that the symbol is never popped.  Reaching a configuration whose
chase is still open proves the machine loops, and the input is rejected
outright.  Evaluation is iterative with an explicit frame stack, so
recursion depth never grows with the input.

The engine reads δ through ``Machine.coded_delta``, where states, symbols
and letters are ints whose sum keys a transition.  A surface
configuration is keyed by the int ``state + symbol + head * K`` and a
terminator is the int ``state + head * K``, with ``K = |Q| * |Gamma| * L``
for ``L`` letter codes.  A surface whose move pops is trivially its own
terminator, and one with no move is stuck; neither can be part of a loop,
so the chase resolves them on the spot and gives them no table entry.  In
particular a pushed symbol that pops at once costs one δ read and one op.
:func:`run_linear` applies the bottom's pop the same way, and the direct
engine's halt rule gives the verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MachineInvariantError
from .pppda.machine import ACCEPT, REJECT, Machine, halt_reason

IN_PROGRESS = "in-progress"
STUCK = "stuck"


def terminator(
    m: Machine, word: str, key: int, table: dict[int, object]
) -> tuple[object, int, int | None]:
    """Compute (and memoize in ``table``) the terminator of surface ``key``.

    Surfaces and terminators are coded through ``m.coded_delta``: ``key``
    is ``state + symbol + head * key_space``, a terminator is
    ``state + head * key_space``.  Returns ``(value, ops, loop_at)``.
    ``value`` is the terminator, ``STUCK``, or ``IN_PROGRESS`` when the
    chase re-entered ``loop_at``, a surface whose chase is still open.
    ``ops`` counts the table's gets, in-progress marks and finishes; where
    a surface that pops or halts at once takes the place of a get, its δ
    read counts instead.
    """
    delta = m.coded_delta
    letters = delta.code_word(word)
    per_head = delta.key_space  # surface codes per head position
    ops = 1
    hit = table.get(key)
    if hit is IN_PROGRESS:
        return hit, ops, key
    if hit is not None:
        return hit, ops, None
    ops += 1
    table[key] = IN_PROGRESS

    # The open frame chases the episode of ``sym``, whose surface move is
    # ``mv`` while ``chain`` is None; ``keys`` are the surface configurations
    # with that symbol on top it has passed, all sharing one terminator.
    # While ``chain`` is set, the symbols it pushed (top last) are chased
    # from ``chain[idx - 1]`` down, every one of them with origin ``origin``.
    # Only a surface whose move pushes is memoized: one that halts or pops
    # at once is resolved on the spot and can take no part in a loop.
    head, surface = divmod(key, per_head)
    sym = surface % delta.symbol_span
    state = surface - sym
    mv = delta[state + letters[head] + sym]
    keys = [key]
    chain: tuple[int, ...] | None = None
    idx = origin = 0
    parents: list[tuple[int, list[int], tuple[int, ...], int, int]] = []
    while True:
        if chain is None:
            if mv is None:
                value: object = STUCK
            elif not mv[1]:
                value = state + head * per_head
            else:
                state, chain, offset, _ = mv
                head += offset
                idx, origin = len(chain), head
                continue
        elif idx:
            idx -= 1
            top = chain[idx]
            mv = delta[state + letters[head] + top]
            ops += 1
            if mv is None:
                value = STUCK
            elif not mv[1]:  # the pushed symbol pops at once: apply that pop
                state, _, offset, up = mv
                head = origin if up else head + offset
                continue
            else:
                sub = state + top + head * per_head
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
                    head, state = divmod(hit, per_head)  # type: ignore[call-overload]
                    state, _, offset, up = delta[state + letters[head] + top]
                    head = origin if up else head + offset
                    continue
        else:  # every pushed symbol is popped: the frame's own is on top again
            chain = None
            mv = delta[state + letters[head] + sym]
            ops += 1
            if mv is None or not mv[1]:
                continue
            tail = state + sym + head * per_head
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
        head, state = divmod(value, per_head)  # type: ignore[call-overload]
        state, _, offset, up = delta[state + letters[head] + chain[idx]]
        head = origin if up else head + offset


class LinearRun(NamedTuple):
    outcome: str  # accept / reject
    reason: str | None
    ops: int
    table_size: int
    loop_at: tuple[str, str, int] | None = None  # (state, symbol, head)


def run_linear(m: Machine, word: str) -> LinearRun:
    """Accept or reject in time linear in the input length.

    Computes the terminator of the initial surface configuration and
    applies its pop move through ``m.coded_delta``, as :func:`terminator`
    applies every pop (the bottom symbol's origin is 0).  That pop empties
    the stack, and :func:`halt_reason` gives the verdict, as for the direct
    engine.  A detected loop or a stuck chase rejects.
    """
    delta = m.coded_delta
    table: dict[int, object] = {}
    key = delta.surface(m.initial_state, m.bottom, 0)
    value, ops, loop_at = terminator(m, word, key, table)
    size = len(table)
    if size > len(m.states) * len(m.stack_alphabet) * (len(word) + 2):
        raise MachineInvariantError(f"terminator table outgrew its key space: {size} entries")
    if value is IN_PROGRESS:
        return LinearRun(REJECT, "loop", ops, size, delta.decode_surface(loop_at))
    if value is STUCK:
        return LinearRun(REJECT, "stuck", ops, size)
    head, state = divmod(value, delta.key_space)  # type: ignore[call-overload]
    bottom = delta.symbol_code[m.bottom]
    state, _, offset, up = delta[state + delta.letter_code(word, head) + bottom]
    reason = halt_reason(m, word, delta.decode_state(state), 0 if up else head + offset, True)
    return LinearRun(REJECT if reason else ACCEPT, reason, ops, size)


class WorkReport(NamedTuple):
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
    bounded handful of table operations.  A surface that pops or halts at
    once has no table entry: reading its move counts as one operation (for
    a pushed symbol that pops at once, applying the pop), and every such
    read follows a push move made at a materialized surface.
    """
    return 2 * len(m.states) * len(m.stack_alphabet) * (n + 2) * WORK_BOUND_FACTOR


def work_bound_check(m: Machine, word: str) -> WorkReport:
    """Run the linear engine and compare its table operations to the bound."""
    return WorkReport(run_linear(m, word).ops, work_bound(m, len(word)))
