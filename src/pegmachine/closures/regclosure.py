"""Substituting deterministic pushdown languages for the letters of a regular language.

``reg_closure_machine`` builds a pointer machine that decides membership
in the substitution language by depth-first search over block splits.  A
marker symbol ``(dfa state, label)`` records which label is being tried
from which DFA state and where the block started; the bound DPDA for that
label is simulated above it on tagged symbols.  Whenever the DPDA passes
an accepting state the search descends: a checkpoint recording the
suspended simulation is pushed, followed by the marker for the successor
DFA state and the first label.  A stuck simulation triggers rollback:
the DPDA's symbols are popped, the marker is popped with an ``up`` move
(teleporting the head back to the block start) and replaced by the next
label's marker, or, after the last label, the checkpoint resumes the
suspended simulation one cell further.  Acceptance happens when a block
ends exactly on the right end marker with the DFA in a final state.

Bound languages must not contain the empty word (checked at
construction); the DFA-side repair for empty-word blocks is
:func:`pegmachine.closures.dfa.absorb_epsilon_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import CompositionError
from ..pppda.machine import (
    DOWN,
    HAT_DOWN,
    HAT_RIGHT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT_MARK,
    UP,
)
from ..translate import META_KIND
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
        for label, d in self.bindings.items():
            if dpda_run(d, "") == ACCEPT:
                raise CompositionError(
                    f"bound language for {label!r} contains the empty word; "
                    "repair the DFA with absorb_epsilon_labels and rebind"
                )


_BOTTOM = "rc:#"
_INIT = "rc:init"
_DISPATCH = "rc:disp"
_ACCEPT_EPS = "rc:acc-eps"
_DRAIN = "rc:acc"
_ROLLBACK = "rc:rb"
_ROLL_UP = "rc:ru"


def _marker(q_dfa: str, label: str) -> str:
    return f"mk:{q_dfa}:{label}"


def _cp(q_dfa: str, label: str, q_dpda: str) -> str:
    return f"cp:{q_dfa}:{label}:{q_dpda}"


def _dsym(label: str, z: str) -> str:
    return f"dp:{label}:{z}"


def _sim(q_dfa: str, label: str, q_dpda: str, mode: str) -> str:
    return f"s{mode}:{q_dfa}:{label}:{q_dpda}"


def reg_closure_machine(spec: CompositionSpec) -> Machine:
    """One-way pointer machine for the substitution language of ``spec``."""
    dfa = spec.dfa
    labels = dfa.labels
    if not labels:
        raise CompositionError("the DFA needs at least one label")
    sigma: list[str] = []
    for label in labels:
        for ch in spec.bindings[label].input_alphabet:
            if ch not in sigma:
                sigma.append(ch)

    # Stack symbol inventory; the hat symbols join it as they are expanded.
    cps = [
        _cp(q_dfa, label, qf)
        for q_dfa in dfa.states for label in labels for qf in spec.bindings[label].finals
    ]
    gamma = [_BOTTOM] + [_marker(q_dfa, label) for q_dfa in dfa.states for label in labels]
    gamma += [_dsym(label, z) for label in labels for z in spec.bindings[label].stack_alphabet]
    gamma += cps
    mb = MachineBuilder(
        _INIT,
        _BOTTOM,
        sigma,
        finals=(_DRAIN, _ACCEPT_EPS),
        meta=((META_KIND, "reg-closure"),),
        states=[_INIT, _DISPATCH, _ACCEPT_EPS, _DRAIN, _ROLLBACK, _ROLL_UP],
        stack_alphabet=gamma,
    )
    emit = mb.emit
    states = mb.states

    def start_block(q_dfa: str, label: str) -> tuple[str, tuple[str, str]]:
        """Target state and (dpda bottom, marker) push for a fresh attempt."""
        d = spec.bindings[label]
        sim = _sim(q_dfa, label, d.initial_state, "g")
        return sim, (_dsym(label, d.bottom), _marker(q_dfa, label))

    # Initial skip of the left marker, then dispatch on cell 1.
    emit(_INIT, LEFT_MARK, _BOTTOM, Move(_DISPATCH, (), HAT_RIGHT))
    if dfa.initial in dfa.finals:
        emit(_DISPATCH, RIGHT_MARK, _BOTTOM, Move(_ACCEPT_EPS, (), DOWN))
    sim, push = start_block(dfa.initial, labels[0])
    for a in sigma:
        emit(_DISPATCH, a, _BOTTOM, Move(sim, push, DOWN))

    next_label = {labels[i]: labels[i + 1] for i in range(len(labels) - 1)}

    # Simulation states and rules, per DFA context.
    for q_dfa in dfa.states:
        for label in labels:
            d = spec.bindings[label]
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
                        if (q, a, z) in d.delta and a != EPSILON:
                            continue
                        if (q, EPSILON, z) in d.delta:
                            continue
                        emit(src, a, _dsym(label, z), Move(_ROLLBACK, (), DOWN))
                    emit(src, a, marker, Move(_ROLLBACK, (), HAT_DOWN))

            # Suspension: the DPDA sits in an accepting state.
            q_target = dfa.delta[(q_dfa, label)]
            sim0, push0 = start_block(q_target, labels[0])
            for qf in d.finals:
                src = _sim(q_dfa, label, qf, "t")
                cp = _cp(q_dfa, label, qf)
                descend = push0 + (cp,)
                for below in d_syms + [marker]:
                    for a in sigma:
                        emit(src, a, below, Move(sim0, descend, DOWN))
                    if q_target in dfa.finals:
                        emit(src, RIGHT_MARK, below, Move(_DRAIN, (), DOWN))
                    else:
                        emit(src, RIGHT_MARK, below, Move(sim0, descend, DOWN))

            # Rollback arriving at this marker: try the next label, or hand
            # control back through the checkpoint below.
            if label in next_label:
                nxt = next_label[label]
                sim2, push2 = start_block(q_dfa, nxt)
                retry = f"rn:{q_dfa}:{nxt}"
                states.note(retry)
                for below in cps + [_BOTTOM]:
                    mb.emit_any(retry, below, Move(sim2, push2, DOWN))
                mb.emit_any(_ROLLBACK, marker, Move(retry, (), UP))
            else:
                mb.emit_any(_ROLLBACK, marker, Move(_ROLL_UP, (), DOWN))

    # Generic rollback pops and checkpoint resumption.
    for label in labels:
        for z in spec.bindings[label].stack_alphabet:
            mb.emit_any(_ROLLBACK, _dsym(label, z), Move(_ROLLBACK, (), DOWN))
    for q_dfa in dfa.states:
        for label in labels:
            for qf in spec.bindings[label].finals:
                cp = _cp(q_dfa, label, qf)
                mb.emit_any(_ROLL_UP, cp, Move(_sim(q_dfa, label, qf, "g"), (), UP))
    # _ROLL_UP on the bottom marker stays undefined: the search is exhausted.

    # A hat symbol is popped as soon as it is pushed: the drain never meets one.
    for z in gamma:
        emit(_DRAIN, RIGHT_MARK, z, Move(_DRAIN, (), DOWN))
    return mb.build()


def _target(q_dfa: str, label: str, q_dpda: str, d: Dpda) -> str:
    return _sim(q_dfa, label, q_dpda, "t" if q_dpda in d.finals else "g")


def brute_force_membership(
    spec: CompositionSpec,
    word: str,
    _cache: dict[tuple[str, str], bool] | None = None,
) -> bool:
    """Oracle: try all factorizations into nonempty blocks against the DFA.

    Exponential in the word length and restricted to ten letters; block
    acceptance may be cached across calls via ``_cache``.
    """
    if len(word) > 10:
        raise ValueError("brute_force_membership is restricted to words of length <= 10")
    if word == "":
        return spec.dfa.initial in spec.dfa.finals
    cache = _cache if _cache is not None else {}

    def block_ok(label: str, block: str) -> bool:
        key = (label, block)
        if key not in cache:
            cache[key] = dpda_run(spec.bindings[label], block) == ACCEPT
        return cache[key]

    n = len(word)

    def search(pos: int, q_dfa: str) -> bool:
        if pos == n:
            return q_dfa in spec.dfa.finals
        for end in range(pos + 1, n + 1):
            block = word[pos:end]
            for label in spec.dfa.labels:
                if block_ok(label, block) and search(end, spec.dfa.delta[(q_dfa, label)]):
                    return True
        return False

    return search(0, spec.dfa.initial)
