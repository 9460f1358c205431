"""Automaton file formats: the header they share, and the machine format.

Machine, DPDA and DFA files and composition specs share one header
syntax, read by :func:`read_header` and written by :func:`render_header`:
a line whose first token starts with ``@`` is a directive, any other
non-blank line a body row.  A format's table gives each directive it
admits a shape: one argument, at most once (``@initial``), perhaps from
fixed values (``@twoway yes|no``, ``@kind``); a list that later lines
extend (``@states``, and ``@alphabet``, whose one argument is a quoted
string of letters); or a key and a value, each key at most once
(``@meta``).  ``<``, ``>`` and ``"`` are reserved, as ``@alphabet``
letters and as quoted letters in rows.  Any other directive is a ``bad
directive``, and a missing required one is named in ``missing @initial
header``.  The README's "File formats" section lists every directive.

A machine file's header declares its parts, then each line is one
transition::

    @twoway no
    @states q0 q1 qf
    @initial q0
    @final qf
    @bottom Z0
    @alphabet "abc"
    q0 < Z0 -> q0 Y right

The letter slot is a quoted character, or bare ``<`` / ``>`` for the end
markers.  The push string is ``-`` when empty; multiple symbols are
comma-separated, and an unseparated token like ``XY`` is split into
characters when it is not itself a declared symbol but every character
is; the declared symbols are the bottom and every symbol in the stack
symbol column, so a token reads the same on every line.  Directions are
``left down up right``, and the hat directions ``hatleft hatdown
hatright``, which are input sugar: once every row is read, each hat row is
expanded as :meth:`MachineBuilder.emit` expands it, into ``hats:``/``hat:``
names registered after every name the file uses; so no command writes one.
A row that breaks a rule of the model (an ``up`` move that pushes, a move
off either end marker, a left move in a one-way file) is reported at its
line, hat rows included.  ``@meta key value`` lines carry tool annotations
and round-trip unchanged.

The format has one row per (state, letter, symbol).  In memory, the rows
of a (state, symbol) that give one move on every input letter and ``>``
are one stored entry (:class:`~pegmachine.pppda.machine.Delta`): the
reader folds them, and the writer expands them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Container, Mapping

from ..errors import MachineInvariantError, MachineRowError, MachineTextError
from ..peg.ast import is_letter
from .machine import (
    ANY,
    CORE_DIRECTIONS,
    HAT_DIRECTIONS,
    LEFT_MARK,
    DeltaKey,
    Machine,
    MachineBuilder,
    Move,
    RIGHT_MARK,
)

_DIRS = set(CORE_DIRECTIONS) | set(HAT_DIRECTIONS)

# Directive shapes besides a tuple, which is one argument from those values.
REQUIRED = "required"  # one argument, once, in every file
LIST = "list"  # arguments that later lines extend
KEYED = "keyed"  # a key and a value, each key at most once


def _letter(ch: str, lineno: int) -> str:
    if not is_letter(ch):
        raise MachineTextError(f"reserved letter {ch!r}", lineno)
    return ch


def quoted_letter(tok: str, lineno: int) -> str:
    """The letter of a row's quoted letter token ``"a"``."""
    if len(tok) != 3 or tok[0] != '"' or tok[2] != '"':
        raise MachineTextError(f"bad letter token {tok!r}", lineno)
    return _letter(tok[1], lineno)


def read_header(
    text: str, table: Mapping[str, Any]
) -> tuple[dict[str, Any], list[tuple[int, str]]]:
    """The header arguments of ``text`` by ``table``, and its body rows.

    Each directive of ``table`` maps to its argument (None when absent),
    its list (``@alphabet``'s holds letters) or its dict of keys.  A body
    row is its line number and its line, which the format splits.
    """
    head = {key: [] if shape == LIST else {} if shape == KEYED else None
            for key, shape in table.items()}
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        first = raw.lstrip()[:1]
        if first != "@":
            if first:
                body.append((lineno, raw))
            continue
        parts = raw.split()
        key = parts[0]
        shape, args = table.get(key), parts[1:]
        if shape == LIST and key == "@alphabet" and len(args) == 1:
            tok = args[0]
            if len(tok) < 2 or tok[0] != '"' or tok[-1] != '"':
                raise MachineTextError("@alphabet needs a quoted string", lineno)
            head[key] += [_letter(ch, lineno) for ch in tok[1:-1]]
        elif shape == LIST and key != "@alphabet":
            head[key] += args
        elif shape == KEYED and len(args) >= 2:
            if args[0] in head[key]:
                raise MachineTextError(f"repeated {key} {args[0]}", lineno)
            head[key][args[0]] = " ".join(args[1:])
        elif shape not in (None, LIST, KEYED) and len(args) == 1:
            if head[key] is not None:
                raise MachineTextError(f"repeated {key} header", lineno)
            if shape != REQUIRED and args[0] not in shape:
                raise MachineTextError(f"expected {key} " + " or ".join(shape), lineno)
            head[key] = args[0]
        else:
            raise MachineTextError(f"bad directive {raw.strip()!r}", lineno)
    missing = [key for key, shape in table.items() if shape == REQUIRED and head[key] is None]
    if missing:
        raise MachineTextError(f"missing {missing[0]} header", 0)
    return head, body


def render_header(table: Mapping[str, Any], values: Mapping[str, Any]) -> list[str]:
    """The header lines that :func:`read_header` reads back as ``values``.

    ``@kind`` comes first, from the table; the other directives follow in
    table order, each keyed one as (key, value) pairs.
    """
    lines = []
    for key in sorted(table, key="@kind".__ne__):
        shape = table[key]
        value = shape[0] if key == "@kind" else values[key]
        if shape == KEYED:
            lines += [f"{key} {k} {v}" for k, v in value]
        elif key == "@alphabet":
            lines.append(f'{key} "{"".join(value)}"')
        elif shape == LIST:
            lines.append(f"{key} " + " ".join(value))
        else:
            lines.append(f"{key} {value}")
    return lines


def split_push(tok: str, gamma: Container[str], lineno: int) -> tuple[str, ...]:
    """The symbols of push token ``tok``, given the declared symbols ``gamma``."""
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


def render_push(push: tuple[str, ...], declared: Container[str]) -> str:
    """The token that :func:`split_push` reads back as ``push``."""
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


MACHINE_HEADER = {"@twoway": ("yes", "no"), "@states": LIST, "@initial": REQUIRED, "@final": LIST,
                  "@bottom": REQUIRED, "@alphabet": LIST, "@meta": KEYED}


_ROW_SHAPE = "transition must be: state letter stacksym -> state pushstring dir"


def parse_machine_text(text: str) -> Machine:
    """Parse and validate a machine description.

    The rows are read in one pass that keeps one string object per name.
    A push token is split once every row is read, against the bottom and
    the symbols on top in any row, so that it reads the same on every
    line.  The rows of each (state, symbol) that give one move on every
    input letter and ``>`` are then folded into one entry, where the first
    of them stood.  An error names the row at fault, the first in the file
    as if each row were read and checked in turn.
    """
    head, body = read_header(text, MACHINE_HEADER)
    initial, bottom, finals = head["@initial"], head["@bottom"], head["@final"]
    alphabet = dict.fromkeys(head["@alphabet"])
    mb = MachineBuilder(initial, bottom, finals=finals, two_way=head["@twoway"] == "yes",
                        meta=tuple(head["@meta"].items()), states=head["@states"],
                        stack_alphabet=[bottom])
    gamma = mb.stack_alphabet
    note_state, note_symbol = mb.states.note, gamma.note
    note_state(initial, initial)
    for q in finals:
        note_state(q, q)

    letters = {"<": LEFT_MARK, ">": RIGHT_MARK}  # letter tokens already read
    # Each distinct (target, push token, direction), keyed by itself; its
    # push is split and its Move built after the last row.
    moves: dict[tuple[str, str, str], tuple[str, str, str]] = {}
    rows: dict[DeltaKey, Any] = {}
    hats = False
    try:
        for lineno, line in body:
            toks = line.split()
            if len(toks) != 7 or toks[3] != "->":
                raise MachineTextError(_ROW_SHAPE, lineno)
            q, letter_tok, z, _, q2, push_tok, direction = toks
            a = letters.get(letter_tok)
            if a is None:
                a = letters[letter_tok] = quoted_letter(letter_tok, lineno)
                alphabet.setdefault(a)
            q = note_state(q, q)
            mk = (q2, push_tok, direction)
            move = moves.get(mk)
            if move is None:  # its first row: check it, register its target
                if direction not in _DIRS:
                    raise MachineTextError(f"bad direction {direction!r}", lineno)
                if "," in push_tok:
                    split_push(push_tok, (), lineno)  # a bad one is named here
                hats = hats or direction in HAT_DIRECTIONS
                move = moves[mk] = (note_state(q2, q2), push_tok, direction)
            key = (q, a, note_symbol(z, z))
            count = len(rows)
            rows[key] = move
            if len(rows) == count:
                raise MachineTextError(f"duplicate transition for {key!r}", lineno)
    except MachineTextError:
        # A malformed row anywhere comes first, as when rows were checked
        # for shape before any was read.
        for lineno, line in body:
            toks = line.split()
            if len(toks) != 7 or toks[3] != "->":
                raise MachineTextError(_ROW_SHAPE, lineno) from None
        raise

    # Symbols on top are declared; push-only ones follow them, in row order.
    declared = set(gamma)
    for mk, (target, push_tok, direction) in moves.items():
        moves[mk] = move = Move(target, split_push(push_tok, declared, 0), direction)
        for sym in move.push:
            note_symbol(sym, sym)

    def resolved(table: dict) -> dict[DeltaKey, Move]:
        return dict(zip(table, map(moves.__getitem__, table.values())))

    mb.input_alphabet = tuple(alphabet)
    every = (*alphabet, RIGHT_MARK)
    try:
        if hats:
            # Emit δ in row order, so that each hat is expanded where the
            # first row using it stands, after every name the file gives.
            for key, move in resolved(rows).items():
                mb.emit(*key, move)
            unfolded = mb.delta
            mb.delta = _fold(unfolded, every)
        else:
            mb.delta = resolved(_fold(rows, every))  # fewer entries to resolve
        try:
            return mb.build()
        except MachineInvariantError:
            mb.delta = unfolded if hats else resolved(rows)  # the rows as read name the first fault
            return mb.build()
    except MachineInvariantError as exc:
        # A fault of a row, or of its hat's expansion, is named at its line.
        lines = dict(zip(rows, (lineno for lineno, _ in body)))
        if exc.key not in lines:
            raise
        raise MachineRowError(exc.detail, lines[exc.key]) from None


def _fold(rows: dict[DeltaKey, Any], every: tuple[str, ...]) -> dict[DeltaKey, Any]:
    """``rows`` with each complete group folded into one :data:`ANY` entry.

    A group is the rows of one (state, symbol) on the letters ``every``;
    it is complete when they all hold one move object.  Its entry takes
    the place of its first row.
    """
    stored: dict[DeltaKey, Any] = {}
    for key, move in rows.items():
        q, a, z = key
        if a != LEFT_MARK and a != ANY:
            group = (q, ANY, z)
            if group in stored:
                continue
            for b in every:
                if rows.get((q, b, z)) is not move:
                    break
            else:
                stored[group] = move
                continue
        stored[key] = move
    return stored


def render_machine_text(m: Machine) -> str:
    """Deterministic text form, reloadable by :func:`parse_machine_text`.

    One row per (state, letter, symbol): each stored :data:`ANY` entry is
    written on every input letter and ``>``.  Rows are sorted by state and
    letter, in the machine's orders, then by symbol in the order that the
    reader rebuilds: the bottom, then each symbol by the first row that
    has it on top, ties in the machine's order.  So a text read back is
    written again unchanged.
    """
    lines = render_header(MACHINE_HEADER, {
        "@twoway": "yes" if m.two_way else "no", "@states": m.states,
        "@initial": m.initial_state, "@final": m.finals, "@bottom": m.bottom,
        "@alphabet": m.input_alphabet, "@meta": m.meta,
    })
    stored = m.delta.stored
    # Each row's sort key is one int: state, then letter, then symbol.
    span = len(m.stack_alphabet)
    letter_pos = {a: i * span for i, a in enumerate(m.letters)}
    state_pos = {q: i * span * len(letter_pos) for i, q in enumerate(m.states)}
    letter_pos[ANY] = letter_pos[m.delta.every[0]]  # an ANY entry's first row
    first = dict.fromkeys(m.stack_alphabet, len(state_pos) * span * len(letter_pos))
    first[m.bottom] = -1  # symbol -> where it is first on top
    for q, a, z in stored:
        first[z] = min(first[z], state_pos[q] + letter_pos[a])
    sym_pos = {z: i for i, z in enumerate(sorted(m.stack_alphabet, key=first.__getitem__))}
    letter_toks = {a: a if a in (LEFT_MARK, RIGHT_MARK) else f'"{a}"' for a in m.letters}
    every = [(letter_pos[a], letter_toks[a]) for a in m.delta.every]
    declared = {m.bottom, *map(itemgetter(2), stored)}
    text_of: dict[int, str] = {}
    for (q, a, z), (target, push, direction) in stored.items():
        tail = f" {z} -> {target} {render_push(push, declared)} {direction}"
        pos = state_pos[q] + sym_pos[z]
        if a == ANY:
            for at, tok in every:
                text_of[pos + at] = f"{q} {tok}{tail}"
        else:
            text_of[pos + letter_pos[a]] = f"{q} {letter_toks[a]}{tail}"
    lines += map(text_of.__getitem__, sorted(text_of))
    return "\n".join(lines) + "\n"
