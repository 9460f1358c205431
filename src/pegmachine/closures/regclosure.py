"""The suspend-and-resume construction behind both closure theorems.

:func:`suspend_resume_machine` builds a pointer machine for R·L(y): R is
the regular language of a labelled DFA whose labels are bound to DPDAs (a
word is in R when it splits into blocks, each in its label's language,
whose label string the DFA accepts), and ``y`` is a compiled grammar
machine.  The machine searches the block splits depth first.  A marker
symbol ``(dfa state, label)`` records which label is being tried from
which DFA state and where the block started; the bound DPDA is simulated
above it on tagged symbols.  From a DFA state only the *live* labels are
tried, those whose successor can still reach a final state.

Whenever the DPDA passes an accepting state the block may end there: the
machine pushes a checkpoint recording the suspended simulation, then opens
the boundary in the successor DFA state ``s``.  If ``s`` is final, ``y``'s
axiom is pushed over a continuation symbol for ``s`` and ``y`` parses the
rest of the word; success on the right end marker drains the stack and
accepts.  Success short of the end, or failure, pops the continuation
symbol with an ``up`` move, back to the boundary, and the blocks from
``s`` are tried in label order.  A stuck simulation rolls back: the
DPDA's symbols are popped, the marker is popped with an ``up`` move
(teleporting the head back to the block start) and the next label is
tried, or, after the last one, the checkpoint below resumes the suspended
simulation where it stopped.  A block whose DPDA starts in an accepting
state starts in the suspending ("try") mode, so its empty block is tried
first.

:func:`reg_closure_machine` is the construction with ``y`` the compiled
one-rule grammar ``End <- ""``, since R·{ε} = R.  Its bound languages must
not contain the empty word (checked by :class:`CompositionSpec`): the
DFA-side repair for empty-word blocks is
:func:`pegmachine.closures.dfa.absorb_epsilon_labels`.
:func:`pegmachine.closures.concat.left_concat_dcfl` is the construction
for a user's grammar machine ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import CompositionError
from ..peg.ast import Empty, Grammar
from ..pppda.machine import (
    DOWN,
    HAT_DOWN,
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
    grammar_to_machine,
)
from .dfa import LabeledDfa
from .dpda import ACCEPT, Dpda, EPSILON, dpda_run


@dataclass(frozen=True)
class CompositionSpec:
    dfa: LabeledDfa
    bindings: Mapping[str, Dpda]

    def __post_init__(self) -> None:
        for label in self.dfa.labels:
            if label not in self.bindings:
                raise CompositionError(f"label {label!r} has no bound language")
        for label in self.bindings:
            if label not in self.dfa.labels:
                raise CompositionError(f"label {label!r} is bound but the DFA has no such label")
        for label, d in self.bindings.items():
            if dpda_run(d, "") == ACCEPT:
                raise CompositionError(
                    f"bound language for {label!r} contains the empty word; "
                    "repair the DFA with absorb_epsilon_labels and rebind"
                )


_BOTTOM = "rc:#"
_INIT = "rc:init"
_DRAIN = "rc:acc"
_ROLLBACK = "rc:rb"
_ROLL_UP = "rc:ru"


def _marker(q_dfa: str, label: str) -> str:
    return f"mk:{q_dfa}:{label}"


def _cp(q_dfa: str, label: str, q_dpda: str) -> str:
    return f"cp:{q_dfa}:{label}:{q_dpda}"


def _dsym(label: str, z: str) -> str:
    return f"dp:{label}:{z}"


def _cont(q_dfa: str) -> str:
    return f"cn:{q_dfa}"


def _sim(q_dfa: str, label: str, q_dpda: str, mode: str) -> str:
    return f"s{mode}:{q_dfa}:{label}:{q_dpda}"


def _target(q_dfa: str, label: str, q_dpda: str, d: Dpda) -> str:
    return _sim(q_dfa, label, q_dpda, "t" if q_dpda in d.finals else "g")


def reg_closure_machine(spec: CompositionSpec) -> Machine:
    """One-way pointer machine for the substitution language of ``spec``.

    The continuation is the empty-word grammar, compiled over the bound
    DPDAs' letters.
    """
    labels = spec.dfa.labels
    sigma = dict.fromkeys(ch for label in labels for ch in spec.bindings[label].input_alphabet)
    end = grammar_to_machine(Grammar.build([("End", Empty())], alphabet=tuple(sigma)))
    return suspend_resume_machine(spec.dfa, spec.bindings, end, "reg-closure")


def suspend_resume_machine(
    dfa: LabeledDfa, bindings: Mapping[str, Dpda], y: Machine, kind: str
) -> Machine:
    """Machine for R·L(y), R the language of ``dfa`` with ``bindings``; see the module.

    ``y`` must be a one-way compiled grammar machine whose alphabet
    contains every bound DPDA's, so that its letter-quantified rules cover
    every input letter of the result.  ``kind`` is the result's ``@meta
    kind``.
    """
    labels = dfa.labels
    if not labels:
        raise CompositionError("the DFA needs at least one label")
    if y.two_way:
        raise CompositionError("the grammar machine must be one-way")
    if y.meta_value(META_KIND) != META_KIND_COMPILED:
        raise CompositionError(
            "left_concat_dcfl needs a compiled grammar machine (run compile first)"
        )
    sigma = y.input_alphabet
    if not {ch for label in labels for ch in bindings[label].input_alphabet} <= set(sigma):
        raise CompositionError(
            "the grammar machine's alphabet must contain the DPDA's; "
            "recompile the grammar with a wider @alphabet"
        )
    axiom_sym = y.meta_value(META_AXIOM_SYMBOL)
    work = y.meta_value(META_WORK_STATE)
    ok_state = y.meta_value(META_OK_STATE)
    fail_state = y.meta_value(META_FAIL_STATE)

    live = set(dfa.finals)  # the DFA states that can still reach a final state
    while grown := {q for (q, _), q2 in dfa.delta.items() if q2 in live} - live:
        live |= grown
    tries = {q_dfa: [l for l in labels if dfa.delta[(q_dfa, l)] in live] for q_dfa in dfa.states}
    blocks = [(q_dfa, label) for q_dfa in dfa.states for label in tries[q_dfa]]

    # Stack symbol inventory; the hat symbols join it as they are expanded.
    cps = [_cp(q_dfa, label, qf) for q_dfa, label in blocks for qf in bindings[label].finals]
    gamma = [_BOTTOM] + [_marker(q_dfa, label) for q_dfa, label in blocks]
    gamma += [_dsym(label, z) for label in labels for z in bindings[label].stack_alphabet]
    gamma += cps + [_cont(q_dfa) for q_dfa in dfa.finals]
    # The grammar machine's names are registered before the first hat move
    # is expanded, so that no fresh hat name takes one of them.
    mb = MachineBuilder(
        _INIT,
        _BOTTOM,
        sigma,
        finals=(_DRAIN,),
        meta=((META_KIND, kind),),
        states=[_INIT, _DRAIN, _ROLLBACK, _ROLL_UP, *y.states],
        stack_alphabet=gamma + [z for z in y.stack_alphabet if z != y.bottom],
    )
    emit = mb.emit
    states = mb.states

    # The grammar machine's rules, except those on its own bottom: the
    # continuation symbols play that role here.
    for (q, a, z), mv in y.delta.stored.items():
        if z != y.bottom:
            emit(q, a, z, mv)

    def start(q_dfa: str, label: str) -> tuple[str, tuple[str, str]]:
        """Target state and (dpda bottom, marker) push for a fresh block."""
        d = bindings[label]
        push = (_dsym(label, d.bottom), _marker(q_dfa, label))
        return _target(q_dfa, label, d.initial_state, d), push

    def opening(q_dfa: str) -> tuple[str, tuple[str, ...]]:
        """Target state and push that open a boundary in the live state ``q_dfa``."""
        if q_dfa in dfa.finals:
            return work, (axiom_sym, _cont(q_dfa))
        return start(q_dfa, tries[q_dfa][0])

    # Initial skip of the left marker, opening the boundary on cell 1.
    if dfa.initial in live:
        target, push = opening(dfa.initial)
        emit(_INIT, LEFT_MARK, _BOTTOM, Move(target, push, RIGHT))

    # At a boundary in q_dfa the continuation (``None``, in a final state
    # only), then each live label, is tried in turn.  Giving one up moves
    # on to the next or, after the last, through the checkpoint below back
    # into the suspended simulation.
    for q_dfa in dfa.states:
        tried = ([None] if q_dfa in dfa.finals else []) + tries[q_dfa]
        for prev, nxt in zip(tried, tried[1:] + [None]):
            if nxt is None:
                give_up = Move(_ROLL_UP, (), DOWN)
            else:
                retry = states.add(f"rn:{q_dfa}:{nxt}")
                sim, push = start(q_dfa, nxt)
                for below in cps + [_BOTTOM]:
                    mb.emit_any(retry, below, Move(sim, push, DOWN))
                give_up = Move(retry, (), UP)
            if prev is None:
                cont = _cont(q_dfa)
                mb.emit_any(fail_state, cont, give_up)
                for a in sigma:
                    emit(ok_state, a, cont, give_up)
                emit(ok_state, RIGHT_MARK, cont, Move(_DRAIN, (), DOWN))
            else:
                mb.emit_any(_ROLLBACK, _marker(q_dfa, prev), give_up)

    # Simulation states and rules, per block context.
    for q_dfa, label in blocks:
        d = bindings[label]
        d_syms = [_dsym(label, z) for z in d.stack_alphabet]
        marker = _marker(q_dfa, label)
        for q in d.states:
            states.add(_sim(q_dfa, label, q, "g"))
            if q in d.finals:
                states.add(_sim(q_dfa, label, q, "t"))

        # The DPDA's own moves on tagged symbols.
        for (q, a, z), (q2, push) in d.delta.items():
            mb.dpda_move(
                _sim(q_dfa, label, q, "g"), a, _dsym(label, z),
                _target(q_dfa, label, q2, d), tuple(_dsym(label, s) for s in push),
                replace=f"sr:{q_dfa}:{label}:{q2}:" + ",".join(push),
                below=d_syms + [marker],
            )

        # Stuck simulation: pop into rollback.  Missing (letter, symbol)
        # combinations, and the exposed marker, both mean no extension of
        # the current block can match.
        for q in d.states:
            src = _sim(q_dfa, label, q, "g")
            for a in (*sigma, RIGHT_MARK):
                for z in d.stack_alphabet:
                    if (q, a, z) in d.delta or (q, EPSILON, z) in d.delta:
                        continue
                    emit(src, a, _dsym(label, z), Move(_ROLLBACK, (), DOWN))
                emit(src, a, marker, Move(_ROLLBACK, (), HAT_DOWN))

        # Suspension: the DPDA sits in an accepting state, so the block may
        # end here.  Push the checkpoint and open the next boundary; the
        # checkpoint resumes the simulation, head back on this cell.
        target, push = opening(dfa.delta[(q_dfa, label)])
        for qf in d.finals:
            cp = _cp(q_dfa, label, qf)
            descend = Move(target, push + (cp,), DOWN)
            for below in d_syms + [marker]:
                mb.emit_any(_sim(q_dfa, label, qf, "t"), below, descend)
            mb.emit_any(_ROLL_UP, cp, Move(_sim(q_dfa, label, qf, "g"), (), UP))
    # _ROLL_UP on the bottom marker stays undefined: the search is exhausted.

    for label in labels:
        for z in bindings[label].stack_alphabet:
            mb.emit_any(_ROLLBACK, _dsym(label, z), Move(_ROLLBACK, (), DOWN))
    # A hat symbol is popped as soon as it is pushed: the drain never meets one.
    for z in gamma:
        emit(_DRAIN, RIGHT_MARK, z, Move(_DRAIN, (), DOWN))
    return mb.build()


def brute_force_membership(
    spec: CompositionSpec,
    word: str,
    _cache: dict[tuple[str, str], bool] | None = None,
) -> bool:
    """Oracle: one forward pass over the positions of ``word``.

    ``reach[i]`` holds the DFA states reached after some factorization of
    ``word[:i]`` into nonempty blocks.  Each (label, block) pair is run
    once through :func:`dpda_run`, so the oracle is polynomial and shares
    no code with the machine construction.  Block acceptance may be cached
    across calls via ``_cache``.
    """
    cache = _cache if _cache is not None else {}
    dfa = spec.dfa
    n = len(word)
    reach: list[set[str]] = [set() for _ in range(n + 1)]
    reach[0].add(dfa.initial)
    for i in range(n):
        if not reach[i]:
            continue
        for end in range(i + 1, n + 1):
            block = word[i:end]
            for label in dfa.labels:
                ok = cache.get((label, block))
                if ok is None:
                    ok = cache[label, block] = dpda_run(spec.bindings[label], block) == ACCEPT
                if ok:
                    reach[end].update(dfa.delta[(q, label)] for q in reach[i])
    return not reach[n].isdisjoint(dfa.finals)
