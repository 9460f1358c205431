"""Machine file format.

Header lines declare the parts, then one transition per line::

    @twoway no
    @states q0 q1 qf
    @initial q0
    @final qf
    @bottom Z0
    @alphabet "abc"
    q0 "<" Z0 -> q0 Y right

The letter slot is a quoted character, or bare ``<`` / ``>`` for the end
markers.  The push string is ``-`` when empty; multiple symbols are
comma-separated, and an unseparated token like ``XY`` is split into
characters when it is not itself a declared symbol but every character
is; the declared symbols are the bottom and every symbol in the stack
symbol column, so a token reads the same on every line.  Directions are
``left down up right hatleft hatdown hatright``.  ``@meta key value``
lines carry tool annotations and round-trip unchanged.
"""

from __future__ import annotations

from typing import Container

from ..errors import MachineTextError
from .machine import (
    CORE_DIRECTIONS,
    HAT_DIRECTIONS,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT_MARK,
)

_DIRS = set(CORE_DIRECTIONS) | set(HAT_DIRECTIONS)


def _parse_letter(tok: str, lineno: int) -> str:
    if tok == "<":
        return LEFT_MARK
    if tok == ">":
        return RIGHT_MARK
    if len(tok) == 3 and tok[0] == '"' and tok[2] == '"':
        return tok[1]
    raise MachineTextError(f"bad letter token {tok!r}", lineno)


def _parse_alphabet(tok: str, lineno: int) -> str:
    """The letters of an ``@alphabet`` argument, which must be quoted."""
    if not (len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"'):
        raise MachineTextError("@alphabet needs a quoted string", lineno)
    return tok[1:-1]


def _render_letter(a: str) -> str:
    return a if a in (LEFT_MARK, RIGHT_MARK) else f'"{a}"'


def _split_push(tok: str, gamma: Container[str], lineno: int) -> tuple[str, ...]:
    if tok == "-":
        return ()
    if "," in tok:
        parts = tuple(p for p in tok.split(",") if p)
        if not parts:
            raise MachineTextError(f"bad push string {tok!r}", lineno)
        return parts
    if tok in gamma:
        return (tok,)
    if len(tok) > 1 and all(ch in gamma for ch in tok):
        return tuple(tok)
    return (tok,)  # a push may introduce a new symbol


def _render_push(push: tuple[str, ...], declared: Container[str]) -> str:
    if not push:
        return "-"
    if len(push) > 1:
        return ",".join(push)
    sym = push[0]
    # A trailing comma keeps a multi-character name from being re-read as a
    # character sequence when all of its characters happen to be symbols.
    if len(sym) > 1 and sym not in declared and all(ch in declared for ch in sym):
        return sym + ","
    return sym


def parse_machine_text(text: str) -> Machine:
    """Parse and validate a machine description."""
    states: list[str] = []
    finals: list[str] = []
    initial: str | None = None
    bottom: str | None = None
    alphabet: dict[str, None] = {}
    two_way = False
    meta: list[tuple[str, str]] = []
    body: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        key = parts[0]
        if key[0] != "@":
            body.append((lineno, parts))
            continue
        if key == "@states":
            states.extend(parts[1:])
        elif key == "@final":
            finals.extend(parts[1:])
        elif key == "@initial" and len(parts) == 2:
            initial = parts[1]
        elif key == "@bottom" and len(parts) == 2:
            bottom = parts[1]
        elif key == "@alphabet" and len(parts) == 2:
            alphabet.update(dict.fromkeys(_parse_alphabet(parts[1], lineno)))
        elif key == "@twoway" and len(parts) == 2 and parts[1] in ("yes", "no"):
            two_way = parts[1] == "yes"
        elif key == "@meta" and len(parts) >= 3:
            meta.append((parts[1], " ".join(parts[2:])))
        elif key == "@kind":
            pass  # consumed by multi-format loaders
        else:
            raise MachineTextError(f"bad directive {raw.strip()!r}", lineno)

    if initial is None or bottom is None:
        raise MachineTextError("missing @initial or @bottom header", 0)
    mb = MachineBuilder(initial, bottom, finals=finals, two_way=two_way, meta=tuple(meta),
                        states=states, stack_alphabet=[bottom])
    gamma, delta = mb.stack_alphabet, mb.delta
    note_state, note_symbol = mb.states.note, gamma.note

    # First pass: collect declared stack symbols so push tokens can be split.
    # Those are the bottom and every top symbol, as for the writer, so a
    # push token reads the same on every line.
    for lineno, toks in body:
        if len(toks) != 7 or toks[3] != "->":
            raise MachineTextError(
                "transition must be: state letter stacksym -> state pushstring dir", lineno
            )
        note_symbol(toks[2])
    declared = set(gamma)

    note_state(initial)
    for q in finals:
        note_state(q)
    letters = {"<": LEFT_MARK, ">": RIGHT_MARK}  # letter tokens already read
    # One move per distinct (target, push token, direction), built on its
    # first line and shared by every later line that writes it.
    moves: dict[tuple[str, str, str], Move] = {}
    for lineno, (q, letter_tok, z, _, q2, push_tok, direction) in body:
        a = letters.get(letter_tok)
        if a is None:
            a = letters[letter_tok] = _parse_letter(letter_tok, lineno)
            if a != LEFT_MARK and a != RIGHT_MARK:  # a quoted marker reads as the marker
                alphabet.setdefault(a)
        move = moves.get((q2, push_tok, direction))
        if move is None:
            if direction not in _DIRS:
                raise MachineTextError(f"bad direction {direction!r}", lineno)
            push = _split_push(push_tok, declared, lineno)
            for sym in push:
                note_symbol(sym)
            move = moves[q2, push_tok, direction] = Move(q2, push, direction)
        key = (q, a, z)
        if key in delta:
            raise MachineTextError(f"duplicate transition for {key!r}", lineno)
        note_state(q)
        note_state(q2)
        delta[key] = move

    mb.input_alphabet = tuple(alphabet)
    return mb.build()


def render_machine_text(m: Machine) -> str:
    """Deterministic text form, reloadable by :func:`parse_machine_text`."""
    lines = [
        "@twoway " + ("yes" if m.two_way else "no"),
        "@states " + " ".join(m.states),
        "@initial " + m.initial_state,
        "@final " + " ".join(m.finals),
        "@bottom " + m.bottom,
        '@alphabet "' + "".join(m.input_alphabet) + '"',
    ]
    for k, v in m.meta:
        lines.append(f"@meta {k} {v}")
    state_pos = {q: i for i, q in enumerate(m.states)}
    letter_pos = {a: i for i, a in enumerate(m.letters)}
    sym_pos = {z: i for i, z in enumerate(m.stack_alphabet)}
    declared = {m.bottom} | {z for (_, _, z) in m.delta}
    letter_toks = {a: _render_letter(a) for a in m.letters}
    delta = m.delta
    for key in sorted(delta, key=lambda k: (state_pos[k[0]], letter_pos[k[1]], sym_pos[k[2]])):
        q, a, z = key
        target, push, direction = delta[key]
        push_tok = _render_push(push, declared)
        lines.append(f"{q} {letter_toks[a]} {z} -> {target} {push_tok} {direction}")
    return "\n".join(lines) + "\n"
