"""Complete DFAs over label alphabets, with the epsilon-absorbing repair.

The labels of these automata are block names bound to pushdown languages,
not input letters.  ``absorb_epsilon_labels`` implements the repair that
justifies assuming bound languages are epsilon-free: for every label whose
language contains the empty word, a parallel silent edge is added, and the
resulting NFA is determinized over the same label alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import MachineInvariantError, MachineTextError
from ..pppda.machine import Names
from ..pppda.text import LIST, REQUIRED, read_header, render_header


@dataclass(frozen=True)
class LabeledDfa:
    states: tuple[str, ...]
    labels: tuple[str, ...]
    delta: Mapping[tuple[str, str], str]
    initial: str
    finals: tuple[str, ...]

    def __post_init__(self) -> None:
        states = set(self.states)
        if len(states) != len(self.states) or len(set(self.finals)) != len(self.finals):
            raise MachineInvariantError("repeated state name in DFA description")
        if len(set(self.labels)) != len(self.labels):
            raise MachineInvariantError("repeated label in DFA description")
        if self.initial not in states or not set(self.finals) <= states:
            raise MachineInvariantError("unknown state in DFA description")
        for q in self.states:
            for a in self.labels:
                if (q, a) not in self.delta:
                    raise MachineInvariantError(
                        f"DFA must be complete; missing transition ({q!r}, {a!r})"
                    )
        for (q, a), q2 in self.delta.items():
            if q not in states or q2 not in states or a not in self.labels:
                raise MachineInvariantError(f"bad transition ({q!r}, {a!r}) -> {q2!r}")

    def accepts_labels(self, labels: Iterable[str]) -> bool:
        q = self.initial
        for a in labels:
            q = self.delta[(q, a)]
        return q in self.finals


def absorb_epsilon_labels(dfa: LabeledDfa, eps_labels: Iterable[str]) -> LabeledDfa:
    """Close the DFA under skipping blocks whose language contains epsilon.

    Every edge labeled by a member of ``eps_labels`` is duplicated as a
    silent edge; the epsilon-closure subset construction then yields a
    complete DFA over the same labels whose language of label strings is
    the original one with those blocks optional.
    """
    eps = set(eps_labels) & set(dfa.labels)
    silent: dict[str, set[str]] = {q: set() for q in dfa.states}
    for (q, a), q2 in dfa.delta.items():
        if a in eps:
            silent[q].add(q2)

    def closure(qs: frozenset[str]) -> frozenset[str]:
        seen = set(qs)
        work = list(qs)
        while work:
            q = work.pop()
            for q2 in silent[q]:
                if q2 not in seen:
                    seen.add(q2)
                    work.append(q2)
        return frozenset(seen)

    start = closure(frozenset({dfa.initial}))
    subsets: list[frozenset[str]] = [start]
    index = {start: 0}
    delta: dict[tuple[str, str], str] = {}
    names: dict[frozenset[str], str] = {}

    def name_of(s: frozenset[str]) -> str:
        if s not in names:
            names[s] = "{" + ",".join(sorted(s)) + "}"
        return names[s]

    i = 0
    while i < len(subsets):
        cur = subsets[i]
        i += 1
        for a in dfa.labels:
            nxt = closure(frozenset(dfa.delta[(q, a)] for q in cur))
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            delta[(name_of(cur), a)] = name_of(nxt)
    finals = tuple(
        name_of(s) for s in subsets if s & set(dfa.finals)
    )
    return LabeledDfa(
        states=tuple(name_of(s) for s in subsets),
        labels=dfa.labels,
        delta=delta,
        initial=name_of(start),
        finals=finals,
    )


DFA_HEADER = {"@kind": ("dfa",), "@states": LIST, "@labels": LIST, "@initial": REQUIRED,
              "@final": LIST}


def parse_dfa_text(text: str) -> LabeledDfa:
    """Parse ``@kind dfa`` files: transitions are ``state label -> state``.

    The header follows the rules shared by every automaton format (see
    :mod:`pegmachine.pppda.text`).
    """
    head, lines = read_header(text, DFA_HEADER)
    body = [(lineno, line.split()) for lineno, line in lines]
    for lineno, toks in body:
        if len(toks) != 4 or toks[2] != "->":
            raise MachineTextError("transition must be: state label -> state", lineno)
    states = Names("state name", head["@states"])
    labels = Names("label", head["@labels"])
    delta: dict[tuple[str, str], str] = {}
    for lineno, (q, a, _, q2) in body:
        if (q, a) in delta:
            raise MachineTextError(f"duplicate transition ({q!r}, {a!r})", lineno)
        delta[(q, a)] = q2
        states.note(q)
        states.note(q2)
        labels.note(a)
    return LabeledDfa(tuple(states), tuple(labels), delta, head["@initial"], tuple(head["@final"]))


def render_dfa_text(dfa: LabeledDfa) -> str:
    lines = render_header(DFA_HEADER, {
        "@states": dfa.states, "@labels": dfa.labels, "@initial": dfa.initial,
        "@final": dfa.finals,
    })
    spos = {q: i for i, q in enumerate(dfa.states)}
    lpos = {a: i for i, a in enumerate(dfa.labels)}
    for (q, a), q2 in sorted(dfa.delta.items(), key=lambda kv: (spos[kv[0][0]], lpos[kv[0][1]])):
        lines.append(f"{q} {a} -> {q2}")
    return "\n".join(lines) + "\n"
