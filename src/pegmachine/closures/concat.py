"""Left concatenation of a deterministic pushdown language with a grammar machine.

The product machine simulates the DPDA on a growing prefix.  Whenever the
DPDA passes through an accepting state, the machine suspends it: it
pushes a checkpoint symbol recording the DPDA state to resume, pushes the
grammar machine's axiom symbol, and lets the compiled grammar machinery
(whose success/failure states are read from the compiled machine's
metadata) try the remaining suffix.  Failure pops the checkpoint with an
``up`` move, teleporting the head back to the suspension cell, and the
DPDA resumes in "already tried here" mode so the same suspension never
refires.  Success drains the stack at the right end marker into the only
final state.  Prefixes are therefore tried shortest first until the DPDA
gets stuck or the end of input is passed.
"""

from __future__ import annotations

from ..errors import CompositionError
from ..pppda.machine import (
    DOWN,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
)
from ..translate import (
    META_AXIOM_SYMBOL,
    META_FAIL_STATE,
    META_KIND,
    META_KIND_COMPILED,
    META_OK_STATE,
    META_WORK_STATE,
)
from .dpda import Dpda

_BOTTOM = "cc:#"
_INIT = "cc:init"
_DRAIN = "cc:acc"


def _go(q: str) -> str:
    return "x:" + q


def _try(q: str) -> str:
    return "xt:" + q


def _xsym(z: str) -> str:
    return "xs:" + z


def _cp(q: str) -> str:
    return "cp:" + q


def left_concat_dcfl(x: Dpda, y: Machine) -> Machine:
    """Machine for ``L(x)·L(y)``; ``y`` must be a compiled grammar machine.

    The grammar behind ``y`` must have been compiled over an alphabet
    containing the DPDA's, so that its letter-quantified rules cover every
    input letter of the product.
    """
    if y.two_way:
        raise CompositionError("the grammar machine must be one-way")
    if y.meta_value(META_KIND) != META_KIND_COMPILED:
        raise CompositionError(
            "left_concat_dcfl needs a compiled grammar machine (run compile first)"
        )
    if not set(x.input_alphabet) <= set(y.input_alphabet):
        raise CompositionError(
            "the grammar machine's alphabet must contain the DPDA's; "
            "recompile the grammar with a wider @alphabet"
        )
    axiom_sym = y.meta_value(META_AXIOM_SYMBOL)
    work = y.meta_value(META_WORK_STATE)
    ok_state = y.meta_value(META_OK_STATE)
    fail_state = y.meta_value(META_FAIL_STATE)

    x_syms = [_xsym(z) for z in x.stack_alphabet]
    gamma = [_BOTTOM] + x_syms + [_cp(q) for q in x.finals] + [
        z for z in y.stack_alphabet if z != y.bottom
    ]
    mb = MachineBuilder(
        _INIT,
        _BOTTOM,
        y.input_alphabet,
        finals=(_DRAIN,),
        meta=((META_KIND, "concat-dcfl"),),
        states=[_INIT, _DRAIN],
        stack_alphabet=gamma,
    )
    emit = mb.emit
    # The grammar machine's states are registered before the first hat
    # move is expanded, so that no fresh hat name takes one of them.
    for q in x.states:
        mb.states.add(_go(q))
        if q in x.finals:
            mb.states.add(_try(q))
    for q in y.states:
        mb.states.add(q)

    def target(q: str) -> str:
        return _try(q) if q in x.finals else _go(q)

    # Import the grammar machine's rules, except those on its own bottom:
    # the checkpoint plays that role here.
    for (q, a, z), mv in y.delta.items():
        if z == y.bottom:
            continue
        emit(q, a, z, mv)

    # Start: enter the DPDA with its own bottom above ours, head on cell 1.
    emit(_INIT, LEFT_MARK, _BOTTOM, Move(target(x.initial_state), (_xsym(x.bottom),), RIGHT))

    for (q, a, z), (q2, push) in x.delta.items():
        mb.dpda_move(
            _go(q), a, _xsym(z), target(q2), tuple(_xsym(s) for s in push),
            replace=f"xr:{q2}:" + ",".join(push), below=x_syms + [_BOTTOM],
        )

    # Suspension: push the checkpoint, then the grammar axiom, and parse.
    for q in x.finals:
        for t in x_syms + [_BOTTOM]:
            mb.emit_any(_try(q), t, Move(work, (axiom_sym, _cp(q)), DOWN))
        # Resume (suffix rejected, or parsed short of the end): head returns
        # to the suspension cell.
        resume = Move(_go(q), (), UP)
        mb.emit_any(fail_state, _cp(q), resume)
        for a in y.input_alphabet:
            emit(ok_state, a, _cp(q), resume)
        # Suffix parsed to the end: drain and accept.
        emit(ok_state, RIGHT_MARK, _cp(q), Move(_DRAIN, (), DOWN))
    # A hat symbol is popped as soon as it is pushed: the drain never meets one.
    for z in gamma:
        emit(_DRAIN, RIGHT_MARK, z, Move(_DRAIN, (), DOWN))
    return mb.build()
