"""The pointer pushdown automaton model and its exact small-step semantics.

A machine reads ``< w >`` (left and right end markers around the word) on
positions ``0 .. len(w)+1``.  Every stack entry is a pair of a symbol and
the head position at the moment it was pushed (its *origin*).  A move
either pushes one or more symbols on top of the inspected entry or pops
it; an ``up`` pop teleports the head back to the popped entry's origin.
Hat directions (``hatleft``/``hatdown``/``hatright``) are input sugar for
a push/pop pair that changes state and moves the head without touching the
stack: :meth:`MachineBuilder.emit` and the ``.mach`` reader expand them, and
a :class:`Machine` holds only the four core directions.
Most of the paper's rules read "for every a ∈ Σ ∪ {⊣}"; δ stores each such
move once (:class:`Delta`).

A run starts in ``(initial, bottom at origin 0, head 0)`` and accepts when
the final pop empties the stack in a final state with the head on the
right end marker.

:func:`run_direct` is the direct engine: one loop on the integer-coded δ
(:class:`CodedDelta`), which reports each move to an optional callback
for ``pegmachine trace``.  :func:`step` is the same relation written out
on :class:`Configuration` values, one move at a time; it is the reference
that the tests check the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..errors import MachineInvariantError
from ..peg.ast import is_letter

LEFT_MARK = "<"
RIGHT_MARK = ">"

LEFT, DOWN, UP, RIGHT = "left", "down", "up", "right"
HAT_LEFT, HAT_DOWN, HAT_RIGHT = "hatleft", "hatdown", "hatright"
CORE_DIRECTIONS = (LEFT, DOWN, UP, RIGHT)
HAT_DIRECTIONS = (HAT_LEFT, HAT_DOWN, HAT_RIGHT)
_HAT_CORE = {HAT_LEFT: LEFT, HAT_DOWN: DOWN, HAT_RIGHT: RIGHT}
_DIRECTIONS = frozenset(CORE_DIRECTIONS)
# The letter slot of a stored move on every input letter and the right end
# marker; never a letter, since a letter is one character.
ANY = "any"
# (letter, direction) pairs that would move the head off the tape.
_OFF_THE_ENDS = frozenset([(LEFT_MARK, LEFT), (RIGHT_MARK, RIGHT), (ANY, RIGHT)])
# Columns of δ's keys (state, letter, top symbol) and of its moves.
_state_of, _letter_of, _top_of = itemgetter(0), itemgetter(1), itemgetter(2)
_direction_of = itemgetter(2)
# Head displacement of each core direction; an ``up`` pop returns to the origin instead.
_HEAD_STEP = {LEFT: -1, DOWN: 0, RIGHT: 1, UP: 0}


class Move(NamedTuple):
    """Target state, symbols pushed (top first) and direction of one transition.

    A plain tuple, so that the engines can unpack it as
    ``state, push, direction = mv`` and δ compares and hashes in C.
    """

    state: str
    push: tuple[str, ...]
    direction: str


DeltaKey = tuple[str, str, str]  # (state, letter or end marker, top symbol)


class Delta(Mapping[DeltaKey, Move]):
    """δ as a read-only mapping from (state, letter, top symbol) to :class:`Move`.

    :attr:`stored` holds the transitions in emission order, one entry per
    move, except that a move on every input letter and on the right end
    marker is one entry under the letter slot :data:`ANY`.  The mapping
    answers the expanded keys: lookups, ``len`` (the rows the ``.mach``
    writer writes) and iteration, which expands an :data:`ANY` entry where
    it stands over the input letters and then ``>``.  Code that walks δ
    reads :attr:`stored`.  A key under :data:`ANY` must not share its state
    and symbol with a row on a letter it covers: :class:`MachineBuilder`
    and the ``.mach`` reader keep that, and :func:`validate_machine` does
    not look for it.
    """

    __slots__ = ("stored", "every")

    def __init__(self, stored: Mapping[DeltaKey, Move], input_alphabet: tuple[str, ...]):
        self.stored = stored
        self.every = (*input_alphabet, RIGHT_MARK)  # the letters an ANY entry covers

    def get(self, key, default=None):
        mv = self.stored.get(key)
        if mv is None and key[1] in self.every:
            mv = self.stored.get((key[0], ANY, key[2]))
        return default if mv is None else mv

    def __getitem__(self, key: DeltaKey) -> Move:
        mv = self.get(key)
        if mv is None:
            raise KeyError(key)
        return mv

    def __len__(self) -> int:
        anys = list(map(_letter_of, self.stored)).count(ANY)
        return len(self.stored) + anys * (len(self.every) - 1)

    def __iter__(self) -> Iterator[DeltaKey]:
        for key in self.stored:
            if key[1] == ANY:
                q, _, z = key
                for a in self.every:
                    yield q, a, z
            else:
                yield key


def _first_row(key: DeltaKey, input_alphabet: tuple[str, ...]) -> DeltaKey:
    """The first row that the stored ``key`` stands for, as errors name it."""
    return (key[0], (*input_alphabet, RIGHT_MARK)[0], key[2]) if key[1] == ANY else key


@dataclass(frozen=True)
class Machine:
    """A pointer machine; δ is a :class:`Delta` over the transitions given.

    ``delta`` may be any mapping of rows, or a builder's or another
    machine's stored entries (see :class:`MachineBuilder`).
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    finals: tuple[str, ...]
    initial_state: str
    bottom: str
    delta: Mapping[DeltaKey, Move]
    two_way: bool = False
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        stored = getattr(self.delta, "stored", self.delta)
        object.__setattr__(self, "delta", Delta(stored, self.input_alphabet))
        validate_machine(self)

    @property
    def letters(self) -> tuple[str, ...]:
        """Input letters plus both end markers, in file order."""
        return self.input_alphabet + (LEFT_MARK, RIGHT_MARK)

    def meta_value(self, key: str) -> str | None:
        for k, v in self.meta:
            if k == key:
                return v
        return None

    @cached_property
    def coded_delta(self) -> CodedDelta:
        """δ on integer codes, for the engines; see :class:`CodedDelta`."""
        return CodedDelta(self)

    @cached_property
    def normal_form_defect(self) -> str | None:
        """Why the machine breaks the structural normal form, or None.

        This is the check behind :func:`pegmachine.pppda.check_normal`,
        which :func:`pegmachine.pppda.normalize` and grammar extraction
        both run; caching it walks δ once per machine.
        """
        if self.two_way:
            return "machine is two-way"
        stored = self.delta.stored
        if list(map(_letter_of, stored)).count(LEFT_MARK) > 1:
            return "left end marker is consulted beyond the initial skip"
        bottom = self.bottom
        for key, (_, push, direction) in stored.items():
            if push:
                if len(push) > 1:
                    key = _first_row(key, self.input_alphabet)
                    return f"push at {key!r} adds {len(push)} symbols"
                if bottom in push:
                    return "bottom marker occurs in a push string"
            elif direction != DOWN:
                if direction != UP:
                    return f"pop at {_first_row(key, self.input_alphabet)!r} moves {direction}"
                if key[2] == bottom:
                    return "bottom marker must be popped down"
        # Extraction reads a run as started on cell 1 in the initial state,
        # so the one left-marker row must push a symbol that every cell pops.
        skip = self.delta.get((self.initial_state, LEFT_MARK, bottom))
        back = Move(self.initial_state, (), DOWN)
        if (
            skip is None
            or len(skip.push) != 1
            or skip.direction != RIGHT
            or any(
                self.delta.get((skip.state, a, skip.push[0])) != back
                for a in self.input_alphabet + (RIGHT_MARK,)
            )
        ):
            return "the initial move is not a skip of the left end marker"
        return None


CodedMove = tuple[int, tuple[int, ...], int, bool]  # (target, push top-last, head step, is_up)


class CodedDelta(dict):
    """δ on integer codes, filled lazily: the engines' transition table.

    With ``L`` letter codes, a state's code is its index times ``|Γ| * L``,
    a stack symbol's is its index times ``L``, and a letter's is its index
    in :attr:`Machine.letters`.  One more letter code, :attr:`foreign`,
    stands for every letter outside the alphabet, end markers inside the
    word included, and no transition uses it.  So δ(q, a, Z) is keyed by
    the one int ``q + Z + a``, and a surface configuration (q, Z, head) by
    ``q + Z + head * key_space``.  A move is coded as :data:`CodedMove`;
    a missing transition as ``None``.

    Entries are coded on first use by :meth:`__missing__`, so a run pays
    for the transitions it reaches rather than for |δ|.  Each key is coded
    from :attr:`Delta.stored`: its row, or else the :data:`ANY` entry of its
    state and symbol, unless the letter is the left end marker.  Read
    entries by subscript: ``get`` would skip the coding.
    """

    def __init__(self, m: Machine):
        super().__init__()
        self._stored = m.delta.stored
        self._states = m.states
        self._symbols = m.stack_alphabet
        self._letters = m.letters
        self.foreign = len(self._letters)
        self.span = self.foreign + 1  # L
        self.symbol_span = len(m.stack_alphabet) * self.span  # |Γ| * L
        self.key_space = len(m.states) * self.symbol_span  # |Q| * |Γ| * L
        self.state_code = {q: i * self.symbol_span for i, q in enumerate(m.states)}
        self.symbol_code = {z: i * self.span for i, z in enumerate(m.stack_alphabet)}
        self._letter_code = {a: i for i, a in enumerate(m.input_alphabet)}

    def __missing__(self, key: int) -> CodedMove | None:
        rest, a = divmod(key, self.span)
        q, z = divmod(rest, len(self._symbols))
        mv = None
        if a != self.foreign:
            q, z = self._states[q], self._symbols[z]
            mv = self._stored.get((q, self._letters[a], z))
            if mv is None and a != self.foreign - 2:  # not the left end marker
                mv = self._stored.get((q, ANY, z))
        if mv is not None:
            target, push, direction = mv
            code = self.symbol_code
            mv = (
                self.state_code[target],
                tuple(code[s] for s in reversed(push)),
                _HEAD_STEP[direction],
                direction == UP,
            )
        self[key] = mv
        return mv

    def code_word(self, word: str) -> list[int]:
        """The letter codes of ``< word >``, one per head position."""
        left = self.foreign - 2
        return [left, *map(self._letter_code.get, word, repeat(self.foreign)), left + 1]

    def letter_code(self, word: str, head: int) -> int:
        """The code of cell ``head`` of ``< word >``: ``code_word(word)[head]``."""
        if head == 0:
            return self.foreign - 2
        if head > len(word):
            return self.foreign - 1
        return self._letter_code.get(word[head - 1], self.foreign)

    def surface(self, state: str, symbol: str, head: int) -> int:
        return self.state_code[state] + self.symbol_code[symbol] + head * self.key_space

    def decode_surface(self, key: int) -> tuple[str, str, int]:
        """The (state, symbol, head) that :meth:`surface` coded as ``key``."""
        head, rest = divmod(key, self.key_space)
        q, z = divmod(rest // self.span, len(self._symbols))
        return self._states[q], self._symbols[z], head

    def decode_state(self, code: int) -> str:
        return self._states[code // self.symbol_span]

    def configuration(
        self, state: int, symbols: list[int], origins: list[int], head: int
    ) -> Configuration:
        """The configuration of coded ``state`` and stack (top last), decoded."""
        span, names = self.span, self._symbols
        return Configuration(
            self.decode_state(state),
            tuple((names[z // span], o) for z, o in zip(reversed(symbols), reversed(origins))),
            head,
        )


def validate_machine(m: Machine) -> None:
    """Raise :class:`MachineInvariantError` unless ``m`` is a well-formed machine.

    δ's stored entries are checked in aggregate first: the states, letters,
    symbols and directions they use against the declared ones, and the
    directions of pushing moves and of moves on each end marker against
    the rules that bind them.  Only when one of those checks fails is δ
    walked row by row, expanded, so the error names the first offender.
    """
    states = set(m.states)
    if len(states) != len(m.states):
        raise MachineInvariantError("duplicate state name")
    gamma = set(m.stack_alphabet)
    if len(gamma) != len(m.stack_alphabet):
        raise MachineInvariantError("duplicate stack symbol")
    sigma = set(m.input_alphabet)
    for ch in m.input_alphabet:
        if not is_letter(ch):
            raise MachineInvariantError(f"bad input letter {ch!r}")
    if m.initial_state not in states:
        raise MachineInvariantError(f"unknown initial state {m.initial_state!r}")
    if not set(m.finals) <= states:
        raise MachineInvariantError("final states must be states")
    if len(set(m.finals)) != len(m.finals):
        raise MachineInvariantError("duplicate final state")
    if m.bottom not in gamma:
        raise MachineInvariantError(f"bottom symbol {m.bottom!r} not in stack alphabet")
    delta = m.delta.stored
    moves = set(delta.values())
    reads = set(zip(map(_letter_of, delta), map(_direction_of, delta.values())))
    directions = {d for _, d in reads}
    if (
        states.issuperset(map(_state_of, delta))
        and states.issuperset(mv.state for mv in moves)
        and (sigma | {LEFT_MARK, RIGHT_MARK, ANY}).issuperset(a for a, _ in reads)
        and gamma.issuperset(map(_top_of, delta))
        and gamma.issuperset(chain.from_iterable(mv.push for mv in moves))
        and _DIRECTIONS.issuperset(directions)
        and all(mv.direction != UP for mv in moves if mv.push)
        and reads.isdisjoint(_OFF_THE_ENDS)
        and (m.two_way or LEFT not in directions)
    ):
        return
    for key, mv in m.delta.items():
        q, a, z = key
        if q not in states or mv.state not in states:
            raise MachineInvariantError("unknown state", key)
        if a not in sigma and a not in (LEFT_MARK, RIGHT_MARK):
            raise MachineInvariantError("unknown letter", key)
        if z not in gamma or not set(mv.push) <= gamma:
            raise MachineInvariantError("unknown stack symbol", key)
        if mv.direction not in _DIRECTIONS:
            raise MachineInvariantError(f"bad direction {mv.direction!r}", key)
        if mv.direction == UP and mv.push:
            raise MachineInvariantError("an up move must not push", key)
        if a == LEFT_MARK and mv.direction == LEFT:
            raise MachineInvariantError("cannot move left off the left end marker", key)
        if a == RIGHT_MARK and mv.direction == RIGHT:
            raise MachineInvariantError("cannot move right off the right end marker", key)
        if not m.two_way and mv.direction == LEFT:
            raise MachineInvariantError("left moves need a two-way machine", key)


# --- building machines --------------------------------------------------------


class Names(dict):
    """Names in first-insertion order: a dict used as an ordered set."""

    def __init__(self, kind: str, names: Iterable[str] = ()):
        super().__init__()
        self.kind = kind
        for name in names:
            self.add(name)

    def add(self, name: str) -> str:
        """Register a new name; one already present is an error."""
        if name in self:
            raise MachineInvariantError(f"duplicate {self.kind}")
        self[name] = name
        return name

    # ``note(name)`` registers ``name`` unless it is already present, and
    # ``note(name, name)`` also returns the one string object registered for
    # it (``add`` maps a name to itself).  It is the C method itself:
    # readers and builders call it once per transition.
    note = dict.setdefault

    def fresh(self, base: str) -> str:
        """Register and return ``base`` primed (``'``) until it is new."""
        name = base
        while name in self:
            name += "'"
        return self.add(name)


class MachineBuilder:
    """Collects the parts of a :class:`Machine`; :meth:`build` validates them.

    Re-emitting a transition with the same move is a no-op; emitting a
    different move for a key already taken raises, so constructions that
    generate rules from several loops cannot silently overwrite each other.
    A hat move is expanded as it is emitted (see :meth:`_hat`): code that
    builds a machine writes its hat rows here, since a :class:`Machine`
    refuses them.  :attr:`delta` holds the entries that :class:`Delta`
    stores: one per :meth:`emit_any`, unless a row on one of its letters
    came first.
    """

    def __init__(
        self,
        initial_state: str,
        bottom: str,
        input_alphabet: Iterable[str] = (),
        finals: Iterable[str] = (),
        two_way: bool = False,
        meta: tuple[tuple[str, str], ...] = (),
        states: Iterable[str] = (),
        stack_alphabet: Iterable[str] = (),
    ):
        self.initial_state = initial_state
        self.bottom = bottom
        self.input_alphabet = tuple(input_alphabet)
        self.finals = tuple(finals)
        self.two_way = two_way
        self.meta = meta
        self.states = Names("state name", states)
        self.stack_alphabet = Names("stack symbol", stack_alphabet)
        self.delta: dict[DeltaKey, Move] = {}
        self._lettered: set[tuple[str, str]] = set()  # (state, symbol) of each letter row
        self._hats: dict[tuple[str, str], Move] = {}  # (target, direction) -> expansion

    @classmethod
    def like(cls, m: Machine) -> MachineBuilder:
        """A builder holding every part of ``m`` except its transitions."""
        return cls(
            m.initial_state, m.bottom, m.input_alphabet, m.finals, m.two_way, m.meta,
            m.states, m.stack_alphabet,
        )

    def emit(self, q: str, a: str, z: str, move: Move) -> None:
        """Set δ(q, a, z) to ``move``; ``a`` may be :data:`ANY` (see :meth:`emit_any`)."""
        key = (q, a, z)
        if move[2] in _HAT_CORE:
            if move.push:
                raise MachineInvariantError(
                    "hat moves carry no push string", _first_row(key, self.input_alphabet))
            move = self._hat(move.state, move.direction)
        delta = self.delta
        prev = delta.get(key)
        if prev is None:
            if a == ANY:
                if (q, z) in self._lettered:  # keep the rows already emitted
                    for a in (*self.input_alphabet, RIGHT_MARK):
                        self.emit(q, a, z, move)
                    return
            elif a != LEFT_MARK:
                prev = delta.get((q, ANY, z))
                self._lettered.add((q, z))
            if prev is None:
                delta[key] = move
                return
        if prev is not move and prev != move:
            key = _first_row(key, self.input_alphabet)
            raise MachineInvariantError(f"conflicting moves for delta{key!r}: {prev} and {move}")

    def emit_any(self, q: str, z: str, move: Move) -> None:
        """Emit ``move`` on every input letter and on the right end marker.

        The paper's "for every a in Σ ∪ {⊣}" rules, stored as one entry
        under :data:`ANY`.  The left end marker is not included: a row that
        also acts there emits it separately.  A letter row emitted before
        or after must agree with ``move``, as if each letter were emitted.
        """
        self.emit(q, ANY, z, move)

    def _hat(self, target: str, direction: str) -> Move:
        """The push that expands a hat move to ``target`` in ``direction``.

        The push moves the head in the hat's core direction onto a fresh
        symbol, which is then popped ``down`` whatever the letter, landing
        in ``target`` with the stack as it was.  That pop depends on neither
        the letter nor the symbol underneath, so the expansion is shared:
        the first call for a (target, direction) registers one fresh state
        ``hats:<target>:<direction>`` and one fresh symbol
        ``hat:<target>:<direction>`` and emits their pops; later calls
        return the same move.
        """
        push = self._hats.get((target, direction))
        if push is None:
            core = _HAT_CORE[direction]
            sym = self.stack_alphabet.fresh(f"hat:{target}:{direction}")
            mid = self.states.fresh(f"hats:{target}:{direction}")
            push = self._hats[target, direction] = Move(mid, (sym,), core)
            pop = Move(target, (), DOWN)
            self.emit_any(mid, sym, pop)
            if core != RIGHT:  # a hatdown/hatleft may pop on the marker
                self.emit(mid, LEFT_MARK, sym, pop)
        return push

    def dpda_move(
        self,
        src: str,
        letter: str,
        top: str,
        target: str,
        push: tuple[str, ...],
        replace: str,
        below: Sequence[str],
    ) -> None:
        """Emit a classical DPDA move as stack surgery on its tagged symbols.

        In ``src`` with ``top`` on the stack, the move reads ``letter`` and
        moves right, or, when ``letter`` is empty (epsilon), acts on every
        letter and stays put.  It replaces ``top`` by ``push`` (top first)
        and enters ``target``.  A push that keeps ``top`` at its bottom
        pushes only the rest or, when nothing is left, is a hat move.  Any
        other push pops ``top`` into the state ``replace``, which pushes
        ``push`` on every letter over whichever of ``below`` is exposed.
        """
        step, hat = (RIGHT, HAT_RIGHT) if letter else (DOWN, HAT_DOWN)
        if not push:
            move = Move(target, (), step)
        elif push[-1] == top:
            move = Move(target, push[:-1], step if len(push) > 1 else hat)
        else:
            self.states.note(replace)
            for z in below:
                self.emit_any(replace, z, Move(target, push, DOWN))
            move = Move(replace, (), step)
        self.emit(src, letter or ANY, top, move)

    def build(self) -> Machine:
        return Machine(
            states=tuple(self.states),
            input_alphabet=self.input_alphabet,
            stack_alphabet=tuple(self.stack_alphabet),
            finals=self.finals,
            initial_state=self.initial_state,
            bottom=self.bottom,
            delta=self.delta,
            two_way=self.two_way,
            meta=self.meta,
        )


# --- configurations and stepping ---------------------------------------------


class Configuration(NamedTuple):
    """State, stack of (symbol, origin) pairs with the top first, and head."""

    state: str
    stack: tuple[tuple[str, int], ...]
    head: int


class Halt(NamedTuple):
    reason: str  # "no-transition" or "empty-stack"


def letter_at(word: str, j: int) -> str:
    """The cell at head position ``j`` of ``< word >``.

    An end marker inside the word reads as ``""``, a letter no transition
    uses, like any other letter outside the alphabet.
    """
    if j == 0:
        return LEFT_MARK
    if j == len(word) + 1:
        return RIGHT_MARK
    a = word[j - 1]
    return "" if a == LEFT_MARK or a == RIGHT_MARK else a


def initial_configuration(m: Machine) -> Configuration:
    return Configuration(m.initial_state, ((m.bottom, 0),), 0)


def step(m: Machine, c: Configuration, word: str) -> Configuration | Halt:
    """One move of the relation; ``Halt`` when no move applies.

    Pops remove the top pair (an ``up`` pop sets the head to the popped
    origin); pushes stack the pushed symbols above the retained top, every
    new pair carrying the new head position as its origin.
    """
    if not c.stack:
        return Halt("empty-stack")
    a = letter_at(word, c.head)
    mv = m.delta.get((c.state, a, c.stack[0][0]))
    if mv is None:
        return Halt("no-transition")
    if not mv.push:
        top_origin = c.stack[0][1]
        if mv.direction == UP:
            head = top_origin
        elif mv.direction == DOWN:
            head = c.head
        elif mv.direction == RIGHT:
            head = c.head + 1
        else:
            head = c.head - 1
        return Configuration(mv.state, c.stack[1:], head)
    head = c.head + (1 if mv.direction == RIGHT else -1 if mv.direction == LEFT else 0)
    pushed = tuple((sym, head) for sym in mv.push)
    return Configuration(mv.state, pushed + c.stack, head)


# --- full runs ----------------------------------------------------------------

ACCEPT, REJECT, BUDGET = "accept", "reject", "budget"


class DirectRun(NamedTuple):
    outcome: str  # accept / reject / budget
    reason: str | None
    steps: int
    final: Configuration


def default_step_limit(m: Machine, word: str) -> int:
    return 1000 * (len(word) + 2) * len(m.states) * len(m.stack_alphabet)


def halt_reason(m: Machine, word: str, state: str, head: int, emptied: bool) -> str | None:
    """Why a run that halted in ``state`` at ``head`` rejects; None when it accepts.

    ``emptied`` says whether the halting move popped the last stack entry.
    A run accepts when it empties the stack in a final state with the head
    on the right end marker.  The direct and cook engines both end here.
    """
    at_end = state in m.finals and head == len(word) + 1
    if emptied:
        if at_end:
            return None
        return "non-final-halt" if state not in m.finals else "not-at-right-end"
    return "stack-not-empty" if at_end else "no-transition"


def run_direct(
    m: Machine,
    word: str,
    step_limit: int | None = None,
    on_event: Callable[[str, str, int, int, int | None], object] | None = None,
) -> DirectRun:
    """Iterate the move relation from the initial configuration.

    When no move applies, :func:`halt_reason` gives the verdict: accept,
    or reject with the reason recorded.  ``budget`` is returned after
    ``step_limit`` moves (default :func:`default_step_limit`).

    After each move, ``on_event`` (when given) is called with the move's
    kind (``"push"`` or ``"pop"``), the new state's name, the new head
    position and stack depth, and the popped entry's origin (``None`` for
    a push).  Nothing is kept, so a traced run takes the time and memory
    of an untraced one plus the callback's.
    """
    limit = default_step_limit(m, word) if step_limit is None else step_limit
    delta = m.coded_delta
    letters = delta.code_word(word)
    state = delta.state_code[m.initial_state]
    symbols = [delta.symbol_code[m.bottom]]  # the stack, top last
    origins = [0]  # the origin of each entry of ``symbols``
    head = steps = 0
    while symbols:
        mv = delta[state + letters[head] + symbols[-1]]
        if mv is None:
            break
        if steps >= limit:
            return DirectRun(BUDGET, None, steps, delta.configuration(state, symbols, origins, head))
        state, push, offset, up = mv
        if push:
            head += offset
            symbols += push
            origins += [head] * len(push)
        else:
            symbols.pop()
            origin = origins.pop()
            head = origin if up else head + offset
        steps += 1
        if on_event is not None:
            on_event(
                "push" if push else "pop",
                delta.decode_state(state),
                head,
                len(symbols),
                None if push else origin,
            )
    final = delta.configuration(state, symbols, origins, head)
    reason = halt_reason(m, word, final.state, head, not symbols)
    return DirectRun(REJECT if reason else ACCEPT, reason, steps, final)
