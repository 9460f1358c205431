"""Seeded inputs for the benchmark and the oracle that decides them.

Grammars are generated as the benchmark's own expression structure, a
tree of tuples, and rendered to the ``.peg`` file format.  Their expected
verdicts come from :func:`Oracle.accepts`, a small memoized recursive
outcome function written here, never from a pegmachine engine.  Word
families (``a^k b^k c^k`` and friends) are decided in closed form.  The
origin-sweep and two-way machines are written out here as ``.mach`` text.

Everything is a pure function of a ``random.Random`` stream, so the same
seed gives byte-identical files.

Expression nodes::

    ("t", ch)  ("e",)  ("any",)  ("nt", name)
    ("seq", (x, y, ...))  ("alt", (x, y, ...))
    ("not", x)  ("and", x)  ("star", x)  ("plus", x)  ("opt", x)
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

# --- grammars ------------------------------------------------------------------

_ALT, _SEQ, _PREFIX, _POSTFIX, _ATOM = range(5)


@dataclass(frozen=True)
class Grammar:
    """Ordered rules (the first is the axiom) over a declared alphabet."""

    rules: tuple[tuple[str, tuple], ...]
    alphabet: str

    @property
    def axiom(self) -> str:
        return self.rules[0][0]


def _render(e: tuple) -> tuple[int, str]:
    kind = e[0]
    if kind == "t":
        return _ATOM, '"' + e[1] + '"'
    if kind == "e":
        return _ATOM, '""'
    if kind == "any":
        return _ATOM, "."
    if kind == "nt":
        return _ATOM, e[1]
    if kind == "seq":
        return _SEQ, " ".join(_at(x, _PREFIX) for x in e[1])
    if kind == "alt":
        return _ALT, " / ".join(_at(x, _SEQ) for x in e[1])
    if kind in ("not", "and"):
        return _PREFIX, ("!" if kind == "not" else "&") + _at(e[1], _PREFIX)
    suffix = {"star": "*", "plus": "+", "opt": "?"}[kind]
    return _POSTFIX, _at(e[1], _POSTFIX) + suffix


def _at(e: tuple, level: int) -> str:
    own, text = _render(e)
    return text if own >= level else "(" + text + ")"


def render_grammar(g: Grammar) -> str:
    lines = [f'@alphabet "{g.alphabet}"']
    lines += [f"{name} <- {_render(body)[1]}" for name, body in g.rules]
    return "\n".join(lines) + "\n"


class Oracle:
    """Whole-word acceptance by the recursive outcome function.

    ``match(e, i)`` is the end of the prefix ``e`` consumes from ``i``, or
    -1 on failure.  Rule invocations are memoized per word.  Generated
    grammars only reference later rules, so recursion terminates; its depth
    follows the reference chains, so the interpreter's limit is raised
    while the oracle runs and restored afterwards.
    """

    def __init__(self, g: Grammar):
        self.rules = dict(g.rules)
        self.axiom = g.axiom

    def accepts(self, word: str) -> bool:
        memo: dict[tuple[str, int], int] = {}
        n = len(word)
        rules = self.rules

        def match(e: tuple, i: int) -> int:
            kind = e[0]
            if kind == "t":
                return i + 1 if i < n and word[i] == e[1] else -1
            if kind == "e":
                return i
            if kind == "any":
                return i + 1 if i < n else -1
            if kind == "nt":
                key = (e[1], i)
                if key not in memo:
                    memo[key] = match(rules[e[1]], i)
                return memo[key]
            if kind == "seq":
                for x in e[1]:
                    i = match(x, i)
                    if i < 0:
                        return -1
                return i
            if kind == "alt":
                for x in e[1]:
                    j = match(x, i)
                    if j >= 0:
                        return j
                return -1
            if kind == "not":
                return -1 if match(e[1], i) >= 0 else i
            if kind == "and":
                return i if match(e[1], i) >= 0 else -1
            if kind == "opt":
                j = match(e[1], i)
                return j if j >= 0 else i
            if kind == "plus":
                i = match(e[1], i)
                if i < 0:
                    return -1
            # star, and the tail of plus
            while (j := match(e[1], i)) > i:
                i = j
            return i

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 100_000))
        try:
            return match(("nt", self.axiom), 0) == n
        finally:
            sys.setrecursionlimit(limit)


class GrammarGenerator:
    """Well-formed grammars with sugar, by construction.

    Rule ``i`` references only rules ``j > i``, so no rule can re-enter
    itself, and ``*``/``+`` wrap only bodies that surely consume a letter
    when they succeed.  Rules are generated last to first so that each
    reference knows whether its target is surely non-nullable.
    """

    def __init__(self, rng: random.Random, alphabet: str, max_depth: int):
        self.rng = rng
        self.sigma = alphabet
        self.max_depth = max_depth
        self.names: list[str] = []
        self.consumes: dict[str, bool] = {}

    def grammar(self, sizes: list[int], prefix: str = "R") -> Grammar:
        count = len(sizes)
        self.names = [f"{prefix}{i}" for i in range(count)]
        self.consumes = {}
        bodies: dict[str, tuple] = {}
        for i in reversed(range(count)):
            name = self.names[i]
            later = self.names[i + 1 : i + 1 + 12]
            body = self.expr(sizes[i], self.max_depth, later)
            bodies[name] = body
            self.consumes[name] = _surely_consumes(body, self.consumes)
        return Grammar(tuple((n, bodies[n]) for n in self.names), self.sigma)

    def leaf(self, refs: list[str]) -> tuple:
        r = self.rng.random()
        if refs and r < 0.3:
            return ("nt", self.rng.choice(refs))
        if r < 0.8:
            return ("t", self.rng.choice(self.sigma))
        if r < 0.92:
            return ("any",)
        return ("e",)

    def consuming(self, size: int, depth: int, refs: list[str]) -> tuple:
        """An expression that consumes at least one letter whenever it succeeds."""
        eager = [r for r in refs if self.consumes.get(r)]
        r = self.rng.random()
        if size <= 1 or depth <= 0:
            if eager and r < 0.3:
                return ("nt", self.rng.choice(eager))
            return ("t", self.rng.choice(self.sigma)) if r < 0.85 else ("any",)
        if r < 0.6:
            head = self.consuming(1, 0, refs)
            return ("seq", (head,) + self._parts(size - 1, depth - 1, refs, 1, 3))
        k = self.rng.randint(2, 3)
        return ("alt", tuple(self.consuming(max(1, size // k), depth - 1, refs) for _ in range(k)))

    def expr(self, size: int, depth: int, refs: list[str]) -> tuple:
        if size <= 1 or depth <= 0:
            return self.leaf(refs)
        r = self.rng.random()
        if r < 0.4:
            return ("seq", self._parts(size, depth - 1, refs, 2, 6))
        if r < 0.7:
            return ("alt", self._parts(size, depth - 1, refs, 2, 4))
        op = self.rng.choice(("not", "and", "star", "plus", "opt"))
        if op in ("star", "plus"):
            return (op, self.consuming(size - 1, depth - 1, refs))
        return (op, self.expr(size - 1, depth - 1, refs))

    def _parts(self, size: int, depth: int, refs: list[str], lo: int, hi: int) -> tuple:
        k = max(1, min(self.rng.randint(lo, hi), size))
        share = max(1, size // k)
        return tuple(self.expr(share, depth, refs) for _ in range(k))

    def long_rule(self, length: int, refs: list[str]) -> tuple:
        """A flat sequence of ``length`` items, mostly letters, with some sugar."""
        items = []
        for _ in range(length):
            r = self.rng.random()
            if r < 0.85:
                items.append(("t", self.rng.choice(self.sigma)))
            elif r < 0.92:
                items.append(("opt", ("t", self.rng.choice(self.sigma))))
            elif r < 0.97:
                items.append(("any",))
            else:
                items.append(self.leaf(refs))
        return ("seq", tuple(items))


def _surely_consumes(e: tuple, consumes: dict[str, bool]) -> bool:
    kind = e[0]
    if kind in ("t", "any"):
        return True
    if kind == "nt":
        return consumes.get(e[1], False)
    if kind == "seq":
        return any(_surely_consumes(x, consumes) for x in e[1])
    if kind == "alt":
        return all(_surely_consumes(x, consumes) for x in e[1])
    if kind == "plus":
        return _surely_consumes(e[1], consumes)
    return False


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in ``[lo, hi]`` whose logarithm is uniform."""
    return min(hi, int(lo * (hi / lo) ** rng.random()))


# Compiled states per node of each kind, fitted by least squares on 40
# generated 150-rule grammars.  On 15 other grammars the estimate was
# within 3% of the state count ``compile`` gives (1.3% standard deviation),
# where the grammars' own state counts spread by 8%.  ``seq`` and ``alt``
# add their child weight once per child.
_STATE_WEIGHTS = {
    "t": 6.8, "any": 25.8, "e": 6.8, "nt": 0.9, "seq": -6.5, "alt": -2.4,
    "not": 1.3, "and": 8.0, "opt": 8.2, "star": 14.8, "plus": 27.8,
}
_CHILD_WEIGHTS = {"seq": 4.7, "alt": 1.1}


def state_estimate(g: Grammar) -> float:
    """About the number of states ``compile`` makes of ``g``."""

    def walk(e: tuple) -> float:
        kind = e[0]
        total = _STATE_WEIGHTS[kind]
        if kind in ("seq", "alt"):
            return total + sum(_CHILD_WEIGHTS[kind] + walk(x) for x in e[1])
        if kind in ("not", "and", "star", "plus", "opt"):
            return total + walk(e[1])
        return total

    return sum(walk(body) for _, body in g.rules)


def large_grammar(rng: random.Random, count: int, target: int, long_rule: int | None) -> Grammar:
    """``count`` rules of log-uniform size; optionally one long flat rule.

    Grammars are drawn until :func:`state_estimate` lies within 2% of
    ``target``, so that every chain compiles to a machine of about the same
    size: the slow items read and write those machines, and their cost grows
    faster than linearly in its size.  ``long_rule`` is the item count of the
    long rule, placed at a random rule index; it is the tail of the
    rule-length distribution.
    """
    while True:
        alphabet = "".join(rng.sample("abcd", 3))
        sizes = [log_uniform(rng, 1, 5) for _ in range(count)]
        gen = GrammarGenerator(rng, alphabet, max_depth=5)
        g = gen.grammar(sizes)
        if abs(state_estimate(g) - target) <= 0.02 * target:
            break
    if long_rule is None:
        return g
    at = rng.randrange(1, count)
    rules = list(g.rules)
    refs = [name for name, _ in rules[at + 1 : at + 13]]
    rules[at] = (rules[at][0], gen.long_rule(long_rule, refs))
    return Grammar(tuple(rules), alphabet)


def sibling_grammar(rng: random.Random, alphabet: str) -> Grammar:
    count = rng.randint(10, 30)
    sizes = [log_uniform(rng, 1, 20) for _ in range(count)]
    return GrammarGenerator(rng, alphabet, max_depth=4).grammar(sizes, prefix="T")


def small_grammar(rng: random.Random) -> Grammar:
    alphabet = "".join(rng.sample("abc", rng.randint(2, 3)))
    sizes = [log_uniform(rng, 1, 8) for _ in range(rng.randint(1, 6))]
    return GrammarGenerator(rng, alphabet, max_depth=4).grammar(sizes, prefix="N")


def random_word(rng: random.Random, alphabet: str, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def words_for(rng: random.Random, g: Grammar, oracle: Oracle, count: int, max_len: int) -> list[str]:
    """``count`` distinct short words, members first where random search finds them."""
    members, others = [], []
    for _ in range(40 * count):
        w = random_word(rng, g.alphabet, max_len)
        if w in members or w in others:
            continue
        (members if oracle.accepts(w) else others).append(w)
        if len(members) >= (count + 1) // 2 and len(members) + len(others) >= count:
            break
    half = (count + 1) // 2
    return (members[:half] + others + members[half:])[:count]


# --- word families, decided in closed form --------------------------------------


def is_anbncn(w: str) -> bool:
    k = len(w) // 3
    return k >= 1 and w == "a" * k + "b" * k + "c" * k


def is_anbncn_literal(w: str) -> bool:
    """The language of pegmachine's ``builtin_anbncn`` read literally.

    Its first pass reads a balanced a/b prefix up to the first ``c`` and
    rewinds; its second pass skips ``a`` letters outside b/c blocks and
    matches every ``b`` with a later ``c``.  So it accepts ``a^n b^n c^n``
    (n >= 1) and also words such as ``abca``.
    """
    first_c = w.find("c")
    if first_c < 0:
        return False
    depth = 0
    for ch in w[:first_c]:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    if depth:
        return False
    for ch in w:
        if ch == "a" and depth:
            return False
        if ch == "b":
            depth += 1
        elif ch == "c":
            if not depth:
                return False
            depth -= 1
    return depth == 0


def is_anbn(w: str) -> bool:
    k = len(w) // 2
    return w == "a" * k + "b" * k


def is_backtrack(w: str) -> bool:
    """``a^k t`` with ``t`` in ``{x,y}^k``: the language of ``BACKTRACK``."""
    k = len(w) - len(w.lstrip("a"))
    tail = w[k:]
    return len(tail) == k and set(tail) <= {"x", "y"}


def is_astar(w: str) -> bool:
    return set(w) <= {"a"}


def never(w: str) -> bool:
    return False


def near_miss(rng: random.Random, w: str, alphabet: str) -> str:
    """One letter changed, dropped or added in the last eighth of ``w``.

    Placing the change late makes a near miss cost about as much to
    decide as a member of the same length.
    """
    i = rng.randrange(len(w) - len(w) // 8, len(w) + 1)
    r = rng.random()
    if r < 0.4 and i < len(w):
        other = [c for c in alphabet if c != w[i]]
        return w[:i] + rng.choice(other) + w[i + 1 :]
    if r < 0.7 and i < len(w):
        return w[:i] + w[i + 1 :]
    return w[:i] + rng.choice(alphabet) + w[i:]


def blocks_word(rng: random.Random, letters: str, k: int, member: bool) -> str:
    """``letters[0]^k letters[1]^k ...``, or a near miss of it."""
    w = "".join(ch * k for ch in letters)
    return w if member else near_miss(rng, w, letters)


def backtrack_word(rng: random.Random, k: int, member: bool) -> str:
    w = "a" * k + "".join(rng.choice("xy") for _ in range(k))
    return w if member else near_miss(rng, w, "axy")


def astar_word(rng: random.Random, k: int, member: bool) -> str:
    """``a^k``, or a near miss over ``{a, b}``."""
    w = "a" * k
    return w if member else near_miss(rng, w, "ab")


def loop_word(rng: random.Random, k: int, member: bool) -> str:
    return "a" * k


# --- fixed grammars and machines -------------------------------------------------

def _t(ch: str) -> tuple:
    return ("t", ch)


def _nt(name: str) -> tuple:
    return ("nt", name)


def _seq(*items: tuple) -> tuple:
    return ("seq", items)


def _alt(*items: tuple) -> tuple:
    return ("alt", items)


# Figure 2 of the paper.
FIG2 = Grammar(
    (
        ("S", _alt(_seq(_nt("A"), _nt("B")), _seq(_nt("B"), _nt("C")))),
        ("A", _alt(_seq(_t("a"), _nt("A")), _t("a"))),
        ("B", _alt(_seq(_t("a"), _t("b"), _t("b")), _t("b"))),
        ("C", _alt(_seq(_t("c"), _nt("C")), ("e",))),
    ),
    "abc",
)

# Section 13: a^k b^k c^k through a lookahead.
SEC13_ABC = Grammar(
    (
        ("S", _seq(("and", _seq(_nt("A"), _t("c"))), _nt("B"), _nt("C"))),
        ("A", _alt(_seq(_t("a"), _nt("A"), _t("b")), ("e",))),
        ("B", _alt(_seq(_t("a"), _nt("B")), _t("a"))),
        ("C", _alt(_seq(_t("b"), _nt("C"), _t("c")), ("e",))),
    ),
    "abc",
)

# Ordered choice backtracks over a whole suffix; the compiled machine's
# direct run is exponential in the word length.
BACKTRACK = Grammar(
    (
        ("S", _nt("A")),
        ("A", _alt(_seq(_t("a"), _nt("A"), _t("x")), _seq(_t("a"), _nt("A"), _t("y")), ("e",))),
    ),
    "axy",
)

# Pushes one X per letter, then every X's up pop sweeps from its origin to
# the right end again: the direct run is quadratic by design.
ORIGIN_SWEEP_MACH = """\
@twoway no
@states q0 r f
@initial q0
@final f
@bottom Z
@alphabet "ab"
q0 < Z -> q0 X right
q0 "a" X -> q0 X right
q0 > X -> r - up
r "a" X -> r - hatright
r "a" Z -> r - hatright
r > X -> r - up
r > Z -> f - down
"""

# Sweeps right to the end marker and back before checking a^n b^n.
TWO_WAY_MACH = """\
@twoway yes
@states p1 p2 p3 p4 pf
@initial p1
@final pf
@bottom Z
@alphabet "ab"
p1 < Z -> p1 - hatright
p1 "a" Z -> p1 - hatright
p1 "b" Z -> p1 - hatright
p1 > Z -> p2 - hatleft
p2 < Z -> p3 - hatright
p2 "a" Z -> p2 - hatleft
p2 "b" Z -> p2 - hatleft
p3 "a" Z -> p3 X right
p3 "a" X -> p3 X right
p3 "b" X -> p4 - right
p3 > Z -> pf - down
p4 "b" X -> p4 - right
p4 > Z -> pf - down
"""

# --- machine files, read and run independently ------------------------------------

_MOVES = {"left": -1, "down": 0, "right": 1, "hatleft": -1, "hatdown": 0, "hatright": 1}


@dataclass(frozen=True)
class MachineText:
    initial: str
    bottom: str
    finals: frozenset[str]
    delta: dict  # (state, letter, top) -> (state, push, direction)


def read_machine(text: str) -> MachineText:
    """Read a ``.mach`` file: header lines, then ``q letter Z -> q' push dir``.

    A push token without commas is split into characters when every
    character is a stack symbol seen so far, as the file format specifies.
    """
    head: dict[str, list[str]] = {}
    body = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0].startswith("@"):
            head.setdefault(parts[0], []).extend(parts[1:])
        else:
            body.append(parts)
    bottom = head["@bottom"][0]
    gamma = {bottom} | {parts[2] for parts in body}
    delta = {}
    for q, letter, top, _, target, push_tok, direction in body:
        if push_tok == "-":
            push: tuple[str, ...] = ()
        elif "," in push_tok:
            push = tuple(p for p in push_tok.split(",") if p)
        elif push_tok not in gamma and len(push_tok) > 1 and all(c in gamma for c in push_tok):
            push = tuple(push_tok)
        else:
            push = (push_tok,)
        gamma.update(push)
        a = letter if letter in ("<", ">") else letter[1]
        delta[(q, a, top)] = (target, push, direction)
    return MachineText(head["@initial"][0], bottom, frozenset(head.get("@final", ())), delta)


def machine_accepts(m: MachineText, word: str, step_limit: int = 10**6) -> bool:
    """Small-step run of a pointer machine; hat moves leave the stack alone.

    Every stack entry keeps the head position at its push; an ``up`` pop
    returns the head there.  The run accepts when the stack empties in a
    final state on the right end marker.
    """
    tape = "<" + word + ">"
    state, head = m.initial, 0
    stack = [(m.bottom, 0)]
    for _ in range(step_limit):
        if not stack:
            return state in m.finals and head == len(tape) - 1
        move = m.delta.get((state, tape[head], stack[-1][0]))
        if move is None:
            return False
        state, push, direction = move
        if direction.startswith("hat"):
            head += _MOVES[direction]
        elif push:
            head += _MOVES[direction]
            stack.extend((sym, head) for sym in reversed(push))
        else:
            _, origin = stack.pop()
            head = origin if direction == "up" else head + _MOVES[direction]
    raise RuntimeError(f"no verdict within {step_limit} steps")


# --- classical DPDAs, DFAs and composition specs ---------------------------------


@dataclass(frozen=True)
class BlockLanguage:
    """A DPDA language in closed form: ``p^n q^n`` (n >= 1) or ``p^m q`` (m >= 0)."""

    kind: str  # "balanced" or "run"
    p: str
    q: str

    def word(self, k: int) -> str:
        """The member with ``k`` leading ``p`` letters."""
        return self.p * k + (self.q * k if self.kind == "balanced" else self.q)

    def contains(self, w: str) -> bool:
        if self.kind == "balanced":
            k = len(w) // 2
            return k >= 1 and w == self.p * k + self.q * k
        return len(w) >= 1 and w == self.p * (len(w) - 1) + self.q

    def dpda_text(self) -> str:
        p, q = self.p, self.q
        if self.kind == "balanced":
            moves = [
                f'd0 "{p}" B -> d0 X,B',
                f'd0 "{p}" X -> d0 X,X',
                f'd0 "{q}" X -> d1 -',
                f'd1 "{q}" X -> d1 -',
                "d1 eps B -> df B",
            ]
            states = "d0 d1 df"
        else:
            moves = [f'd0 "{p}" B -> d0 B', f'd0 "{q}" B -> df B']
            states = "d0 df"
        head = ["@kind dpda", f"@states {states}", "@initial d0", "@final df", "@bottom B"]
        return "\n".join(head + [f'@alphabet "{p}{q}"'] + moves) + "\n"


def block_language(rng: random.Random, alphabet: str) -> BlockLanguage:
    p, q = rng.sample(alphabet, 2)
    return BlockLanguage(rng.choice(("balanced", "run")), p, q)


def concat_member(lang: BlockLanguage, oracle: Oracle, w: str) -> bool:
    """``w`` in ``L(dpda) . L(grammar)``."""
    return any(lang.contains(w[:i]) and oracle.accepts(w[i:]) for i in range(len(w) + 1))


def dfa_text(rng: random.Random, labels: tuple[str, ...]) -> str:
    """A complete DFA over ``labels`` with two or three states."""
    states = [f"s{i}" for i in range(rng.randint(2, 3))]
    finals = [s for s in states if rng.random() < 0.5] or [states[-1]]
    lines = [
        "@kind dfa",
        "@states " + " ".join(states),
        "@labels " + " ".join(labels),
        "@initial s0",
        "@final " + " ".join(finals),
    ]
    lines += [f"{s} {a} -> {rng.choice(states)}" for s in states for a in labels]
    return "\n".join(lines) + "\n"
