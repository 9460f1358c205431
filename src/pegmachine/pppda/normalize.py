"""The machine normal form used by grammar extraction.

``normalize`` rewrites a one-way machine, preserving its language, until:

1. pops move only ``down`` or ``up`` (a pop moving ``right`` becomes a
   stay-put push/pop shuffle followed by a ``down`` pop one cell later);
2. every push adds exactly one symbol (a ``k``-symbol push becomes the
   deepest symbol on the original direction followed by ``k-1`` single
   ``down`` pushes through fresh chain states);
3. a fresh outer bottom marker sits below everything and is popped
   ``down`` exactly once, at a former final state;
4. after the initial skip of the left end marker the head never returns
   to it: work the original machine performed on the left end marker is
   simulated in finite control ("begin mode"), with symbols it pushed
   there wrapped as tagged variants whose ``up`` pop re-enters begin mode;
5. the final pop direction is ``down``.

The rewritten machine behaves identically whether started on the left end
marker or directly on the first input cell with the bottom origin set to
1, which is the convention the machine-to-grammar extraction relies on.

``normalize`` makes two passes over δ's stored entries, each into one
builder whose machine is validated: the first establishes properties 1-3,
the second properties 4 and 5.  A move on every letter and ``>`` is
rewritten once.  Fresh names are registered in this order:

- ``nr1:``/``nr2:`` states and ``nr:`` symbols, per pop moving right, in
  δ order;
- ``np:`` chain states, per multi-symbol push, in δ order;
- the ``nz:init`` and ``nz:fin`` states and the outer bottom ``nz:#``.

The second pass renames every state ``q`` to ``m:q``; a state that acts on
the left end marker gets a begin-mode copy ``b:q``, a symbol pushed there
a tagged variant ``[Z<]``, and the initial skip uses ``nz:skip`` and
``nz:skip-sym``.  A name already taken is primed (``'``) until it is new.
"""

from __future__ import annotations

from ..errors import NotNormalError
from .machine import (
    DOWN,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    UP,
)


def desugar_hat_moves(m: Machine) -> Machine:
    """Return ``m``, hat-free as every machine; ``benchmarks/tracing.py`` times this name."""
    return m


# Fresh-name prefixes used by normalize; the second pass's state names.
def _norm(q: str) -> str:
    return "m:" + q


def _begin(q: str) -> str:
    return "b:" + q


def _tagged(z: str) -> str:
    return "[" + z + "<]"


NEW_BOTTOM = "nz:#"
_INIT = "nz:init"
_FIN = "nz:fin"
_SKIP_STATE = "nz:skip"
_SKIP_SYM = "nz:skip-sym"


def normalize(m: Machine) -> Machine:
    """Rewrite a one-way machine into the five-property normal form.

    A machine already in normal form (:func:`check_normal` passes) is
    returned as it is.
    """
    if m.two_way:
        raise NotNormalError("normalize supports one-way machines only")
    if m.normal_form_defect is None:
        return m
    m = _stage_pops_pushes_bottom(m)
    m = _stage_leave_left_mark(m)
    check_normal(m)
    return m


def _stage_pops_pushes_bottom(m: Machine) -> Machine:
    """The first pass: properties 1-3 in one pass over δ, into one builder.

    Rows that already comply are copied.  A pop moving right becomes a
    push moving right and two ``down`` pops through fresh ``nr`` names.
    A push of several symbols becomes a push of its deepest symbol and a
    chain of single ``down`` pushes through fresh ``np`` states; the chain
    depends only on the target and the symbols, so it is emitted once per
    (target, push).  The fresh outer bottom and its ``nz`` names come last.
    Fresh names are registered in that order, ``nr`` then ``np`` then
    ``nz``, each in δ order: the multi-symbol pushes are set aside during
    the pass and rewritten after it.
    """
    mb = MachineBuilder.like(m)
    emit, emit_any = mb.emit, mb.emit_any
    pushes: list[tuple[str, str, str, Move]] = []  # set aside to keep the name order
    for (q, a, z), mv in m.delta.stored.items():
        target, push, direction = mv
        if len(push) > 1:
            pushes.append((q, a, z, mv))
        elif push or direction != RIGHT:
            emit(q, a, z, mv)
        else:  # Pop moving right (never on ``>``): shuffle one cell right, pop down there.
            sym = mb.stack_alphabet.fresh(f"nr:{q}:{a}:{z}")
            mid1 = mb.states.fresh(f"nr1:{q}:{a}:{z}")
            mid2 = mb.states.fresh(f"nr2:{q}:{a}:{z}")
            emit(q, a, z, Move(mid1, (sym,), RIGHT))
            emit_any(mid1, sym, Move(mid2, (), DOWN))
            emit_any(mid2, z, Move(target, (), DOWN))

    chain_cache: dict[tuple[str, tuple[str, ...]], str] = {}

    def chain_state(target: str, remaining: tuple[str, ...]) -> str:
        key = (target, remaining)
        if key not in chain_cache:
            chain_cache[key] = mb.states.fresh("np:" + target + ":" + ",".join(remaining))
        return chain_cache[key]

    def emit_chain(target: str, syms: tuple[str, ...]) -> str:
        """Emit the links that push ``syms`` but the deepest; return the first state."""
        for i in range(len(syms) - 1, 0, -1):
            below = syms[i]  # symbol just pushed, inspected by the next link
            remaining = syms[:i]
            src = chain_state(target, remaining)
            nxt = target if i == 1 else chain_state(target, remaining[:-1])
            # The chain may run on the left end marker too (a down push
            # there keeps the head on it), so its links act there as well.
            link = Move(nxt, (remaining[-1],), DOWN)
            emit_any(src, below, link)
            emit(src, LEFT_MARK, below, link)
        return chain_state(target, syms[:-1])

    # Push the deepest symbol first on the original direction, then the rest
    # one by one with down moves; all land at the same origin.
    heads: dict[tuple[str, tuple[str, ...]], str] = {}  # (target, push) -> first chain state
    for q, a, z, (target, syms, direction) in pushes:  # syms[0] is the top once all are pushed
        head = heads.get((target, syms))
        if head is None:
            head = heads[target, syms] = emit_chain(target, syms)
        emit(q, a, z, Move(head, (syms[-1],), direction))

    nz = mb.stack_alphabet.fresh(NEW_BOTTOM)
    init = mb.states.fresh(_INIT)
    fin = mb.states.fresh(_FIN)
    emit(init, LEFT_MARK, nz, Move(m.initial_state, (m.bottom,), DOWN))
    to_fin = Move(fin, (), DOWN)
    for f in m.finals:
        emit(f, LEFT_MARK, nz, to_fin)
        emit_any(f, nz, to_fin)
    mb.initial_state, mb.bottom, mb.finals = init, nz, (fin,)
    return mb.build()


def _stage_leave_left_mark(m: Machine) -> Machine:
    """Simulate all work on the left end marker in finite control.

    Begin-mode states keep the head parked on cell 1 while replaying the
    machine's left-end-marker moves; symbols pushed in begin mode are
    tagged so that popping them ``up`` re-enters begin mode.  The initial
    state first skips the marker, so a run started conventionally and a
    run started directly at cell 1 coincide from the first input cell on.
    """
    # Joint fixpoint: which states can act on the left end marker, and which
    # symbols are pushed while doing so.  Begin mode propagates through
    # marker moves that keep the head there and through up pops (from either
    # mode) of symbols pushed in begin mode.
    begin_states: set[str] = {m.initial_state}
    tagged_syms: set[str] = set()
    entries = [
        (key, mv) for key, mv in m.delta.stored.items()
        if key[1] == LEFT_MARK or (not mv.push and mv.direction == UP)
    ]
    changed = True
    while changed:
        changed = False
        for (q, a, _z), mv in entries:
            if a == LEFT_MARK and q in begin_states:
                if mv.push and mv.direction == DOWN:
                    if mv.push[0] not in tagged_syms:
                        tagged_syms.add(mv.push[0])
                        changed = True
                    enter_begin = True
                elif not mv.push and mv.direction in (DOWN, UP):
                    enter_begin = True  # up pops are resolved per tag below
                else:
                    enter_begin = False  # a right move leaves the marker
            elif not mv.push and mv.direction == UP and _z in tagged_syms:
                enter_begin = True
            else:
                enter_begin = False
            if enter_begin and mv.state not in begin_states:
                begin_states.add(mv.state)
                changed = True

    mb = MachineBuilder(
        _begin(m.initial_state),
        m.bottom,
        m.input_alphabet,
        tuple(_norm(f) for f in m.finals),
        m.two_way,
        m.meta,
        stack_alphabet=list(m.stack_alphabet)
        + [_tagged(z) for z in m.stack_alphabet if z in tagged_syms],
    )
    for q in m.states:
        mb.states.add(_norm(q))
        if q in begin_states:
            mb.states.add(_begin(q))
    skip_state = mb.states.fresh(_SKIP_STATE)
    skip_sym = mb.stack_alphabet.fresh(_SKIP_SYM)

    emit = mb.emit
    norm = {q: _norm(q) for q in m.states}
    renamed: dict[Move, Move] = {}  # each distinct move, with its target renamed
    for (q, a, z), mv in m.delta.stored.items():
        if a == LEFT_MARK:
            if q not in begin_states:
                continue
            for variant in (z,) if z not in tagged_syms else (z, _tagged(z)):
                mb.emit_any(_begin(q), variant, _begin_move(mv, tagged=variant != z))
            continue
        out = renamed.get(mv)
        if out is None:
            out = renamed[mv] = Move(norm[mv.state], mv.push, mv.direction)
        emit(norm[q], a, z, out)
        if z in tagged_syms:
            if not mv.push and mv.direction == UP:
                out = Move(_begin(mv.state), (), UP)
            emit(norm[q], a, _tagged(z), out)

    init = mb.initial_state
    mb.emit(init, LEFT_MARK, m.bottom, Move(skip_state, (skip_sym,), RIGHT))
    mb.emit_any(skip_state, skip_sym, Move(init, (), DOWN))
    return mb.build()


def _begin_move(mv: Move, tagged: bool) -> Move:
    if mv.push:
        if mv.direction == DOWN:
            return Move(_begin(mv.state), (_tagged(mv.push[0]),), DOWN)
        return Move(_norm(mv.state), mv.push, DOWN)  # a right push lands on cell 1
    if mv.direction == DOWN:
        return Move(_begin(mv.state), (), DOWN)
    # Up pop of the inspected symbol: a tagged origin is the parking cell
    # (begin mode again), an untagged one is a real input cell.
    return Move(_begin(mv.state) if tagged else _norm(mv.state), (), UP)


def check_normal(m: Machine) -> None:
    """Raise unless all five normal-form properties hold structurally.

    The verdict is cached on the machine (:attr:`Machine.normal_form_defect`),
    so checking the same machine again costs nothing.
    """
    defect = m.normal_form_defect
    if defect is not None:
        raise NotNormalError(defect)
