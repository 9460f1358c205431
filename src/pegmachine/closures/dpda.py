"""Classical deterministic pushdown automata (acceptance by final state).

A move replaces the inspected top symbol with a string (top first); the
letter slot is either an input letter or epsilon, and determinism forbids
a letter move and an epsilon move on the same (state, symbol) pair.  A
word is accepted when, after consuming all of it, the run passes through
a final state.

Runs are budgeted: between two consumed letters at most
``64 * (remaining + 1)`` epsilon moves are allowed, so machines whose
epsilon behaviour loops report budget exhaustion instead of hanging;
callers treat that as non-acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import MachineInvariantError, MachineTextError
from ..peg.ast import is_letter
from ..pppda.machine import Names
from ..pppda.text import (
    LIST, REQUIRED, quoted_letter, read_header, render_header, render_push, split_push,
)

EPSILON = ""

ACCEPT, REJECT, BUDGET = "accept", "reject", "budget"

EPS_MOVE_FACTOR = 64


@dataclass(frozen=True)
class Dpda:
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    finals: tuple[str, ...]
    initial_state: str
    bottom: str
    # (state, letter or EPSILON, top) -> (state, replacement for top, top first)
    delta: Mapping[tuple[str, str, str], tuple[str, tuple[str, ...]]]

    def __post_init__(self) -> None:
        states = set(self.states)
        gamma = set(self.stack_alphabet)
        sigma = set(self.input_alphabet)
        if len(states) != len(self.states) or len(set(self.finals)) != len(self.finals):
            raise MachineInvariantError("repeated state name in DPDA description")
        if len(gamma) != len(self.stack_alphabet):
            raise MachineInvariantError("repeated stack symbol in DPDA description")
        if self.initial_state not in states or not set(self.finals) <= states:
            raise MachineInvariantError("unknown state in DPDA description")
        if self.bottom not in gamma:
            raise MachineInvariantError("unknown bottom symbol")
        for ch in self.input_alphabet:
            if not is_letter(ch):
                raise MachineInvariantError(f"bad input letter {ch!r}")
        for (q, a, z), (q2, push) in self.delta.items():
            if q not in states or q2 not in states:
                raise MachineInvariantError(f"unknown state in move at {(q, a, z)!r}")
            if z not in gamma or not set(push) <= gamma:
                raise MachineInvariantError(f"unknown stack symbol at {(q, a, z)!r}")
            if a != EPSILON and a not in sigma:
                raise MachineInvariantError(f"unknown letter {a!r}")
            if a != EPSILON and (q, EPSILON, z) in self.delta:
                raise MachineInvariantError(
                    f"letter move and epsilon move coexist on ({q!r}, {z!r})"
                )


def dpda_run(d: Dpda, word: str, step_limit: int | None = None) -> str:
    """Run ``d`` on ``word``; returns accept, reject or budget."""
    state = d.initial_state
    stack = [d.bottom]
    pos = 0
    n = len(word)
    eps_run = 0
    steps = 0
    while True:
        if pos == n and state in d.finals:
            return ACCEPT
        if not stack:
            return REJECT
        top = stack[-1]
        mv = d.delta.get((state, word[pos], top)) if pos < n else None
        if mv is not None:
            eps_run = 0
            pos += 1
        else:
            mv = d.delta.get((state, EPSILON, top))
            if mv is None:
                return REJECT
            eps_run += 1
            if eps_run > EPS_MOVE_FACTOR * (n - pos + 1):
                return BUDGET
        steps += 1
        if step_limit is not None and steps > step_limit:
            return BUDGET
        state, push = mv
        stack.pop()
        stack.extend(reversed(push))


# --- file format ---------------------------------------------------------------


DPDA_HEADER = {"@kind": ("dpda",), "@states": LIST, "@initial": REQUIRED, "@final": LIST,
               "@bottom": REQUIRED, "@alphabet": LIST}


def parse_dpda_text(text: str) -> Dpda:
    """Parse ``@kind dpda`` files: transitions ``state letter sym -> state push``.

    The header follows the rules shared by every automaton format (see
    :mod:`pegmachine.pppda.text`).  The letter is a quoted character or
    ``eps``; the push string replaces the inspected symbol, ``-`` for
    nothing, comma separation for multi-character symbol names.
    """
    head, lines = read_header(text, DPDA_HEADER)
    body = [(lineno, line.split()) for lineno, line in lines]
    initial, bottom, finals = head["@initial"], head["@bottom"], head["@final"]
    alphabet = dict.fromkeys(head["@alphabet"])
    states = Names("state name", head["@states"])
    gamma = Names("stack symbol", [bottom])
    for lineno, toks in body:
        if len(toks) != 6 or toks[3] != "->":
            raise MachineTextError(
                "transition must be: state letter stacksym -> state pushstring", lineno
            )
        gamma.note(toks[2])

    delta: dict[tuple[str, str, str], tuple[str, tuple[str, ...]]] = {}
    states.note(initial)
    for q in finals:
        states.note(q)
    for lineno, toks in body:
        q, letter_tok, z, _, q2, push_tok = toks
        if letter_tok == "eps":
            a = EPSILON
        else:
            a = quoted_letter(letter_tok, lineno)
            alphabet.setdefault(a)
        push = split_push(push_tok, gamma, lineno)
        for sym in push:
            gamma.note(sym)
        key = (q, a, z)
        if key in delta:
            raise MachineTextError(f"duplicate transition for {key!r}", lineno)
        states.note(q)
        states.note(q2)
        delta[key] = (q2, push)
    return Dpda(
        states=tuple(states),
        input_alphabet=tuple(alphabet),
        stack_alphabet=tuple(gamma),
        finals=tuple(finals),
        initial_state=initial,
        bottom=bottom,
        delta=delta,
    )


def render_dpda_text(d: Dpda) -> str:
    lines = render_header(DPDA_HEADER, {
        "@states": d.states, "@initial": d.initial_state, "@final": d.finals,
        "@bottom": d.bottom, "@alphabet": d.input_alphabet,
    })
    spos = {q: i for i, q in enumerate(d.states)}
    lpos = {a: i for i, a in enumerate(d.input_alphabet)}
    zpos = {z: i for i, z in enumerate(d.stack_alphabet)}
    declared = {d.bottom} | {z for (_, _, z) in d.delta}
    for (q, a, z), (q2, push) in sorted(
        d.delta.items(),
        key=lambda kv: (spos[kv[0][0]], -1 if kv[0][1] == EPSILON else lpos[kv[0][1]], zpos[kv[0][2]]),
    ):
        letter = "eps" if a == EPSILON else f'"{a}"'
        push_tok = render_push(push, declared)
        lines.append(f"{q} {letter} {z} -> {q2} {push_tok}")
    return "\n".join(lines) + "\n"
