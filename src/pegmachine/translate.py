"""Compilation between normal-form grammars and pointer machines.

``peg_to_dppda`` drives a machine through the recursive-descent protocol:
the main work state ``q`` starts an episode for the nonterminal on top of
the stack, signed states ``q_{A+}`` / ``q_{A-}`` report the episode's
outcome, and per-rule bookkeeping symbols are popped ``down`` on success
(keeping the parse frontier) or ``up`` on failure (teleporting the head
back to the episode's start, whose cell the bookkeeping symbol remembers).

``dppda_to_peg`` inverts a *normalized* one-way machine: a nonterminal
``[q Z p d]`` recognizes exactly the input stretches over which the
machine, started in state ``q`` with ``Z`` on top, finally pops that ``Z``
into state ``p`` with pop direction ``d``; ``bar`` variants consume up to
an ``up`` pop and ``any`` is the union of both directions.  The axiom is
the union of ``[q0 Z0 f down]`` over final states ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCnfError, NotNormalError
from .peg.ast import (
    And,
    AnyChar,
    Choice,
    CnfGrammar,
    Empty,
    Expression,
    Fail,
    Grammar,
    Nonterminal,
    Not,
    Sequence,
    Terminal,
    reachable_from,
)
from .peg.interpret import accepts
from .peg.wellformed import require_well_formed
from .pppda.machine import (
    DOWN,
    HAT_DIRECTIONS,
    HAT_DOWN,
    HAT_RIGHT,
    LEFT_MARK,
    Machine,
    MachineBuilder,
    Move,
    RIGHT,
    RIGHT_MARK,
    UP,
    run_direct,
)
from .pppda.normalize import check_normal, normalize

META_KIND = "kind"
META_KIND_COMPILED = "compiled-peg"
META_AXIOM_SYMBOL = "axiom-symbol"
META_WORK_STATE = "work-state"
META_OK_STATE = "success-state"
META_FAIL_STATE = "failure-state"


# --- state and symbol naming --------------------------------------------------

_INITIAL = "peg:q0"
_WORK = "peg:q"
_FINAL = "peg:qf"
_BOTTOM = "bot:#"


def _signed(name: str, sign: str) -> str:
    return f"peg:{name}{sign}"


def _aux(name: str, detail: str) -> str:
    return f"peg:{name}:{detail}"


def _nt_sym(name: str) -> str:
    return f"sym:{name}"


def _frame(name: str, slot: int) -> str:
    return f"frm:{name}#{slot}"


# --- grammar to machine --------------------------------------------------------


def peg_to_dppda(g: CnfGrammar | Grammar) -> Machine:
    """Compile a well-formed normal-form grammar into a one-way machine.

    The output is hat-free and deterministic by construction; it accepts a
    word exactly when the grammar does.  ``Empty`` and ``Terminal`` rules
    move by hat moves, expanded as they are emitted by
    :meth:`MachineBuilder.hat`.  Every rule's states and frame symbols are
    registered before any row is emitted, so the fresh hat names follow
    all of them, in first-use order.
    """
    if not isinstance(g, CnfGrammar):
        g = CnfGrammar(g.nonterminals, g.alphabet, g.rules, g.axiom)
    if not vars(g).get("_well_formed"):  # recorded by to_cnf, which checked its input
        require_well_formed(g)

    mb = MachineBuilder(
        _INITIAL,
        _BOTTOM,
        g.alphabet,
        finals=(_FINAL,),
        meta=(
            (META_KIND, META_KIND_COMPILED),
            (META_AXIOM_SYMBOL, _nt_sym(g.axiom)),
            (META_WORK_STATE, _WORK),
            (META_OK_STATE, _signed(g.axiom, "+")),
            (META_FAIL_STATE, _signed(g.axiom, "-")),
        ),
        states=[_INITIAL, _WORK, _FINAL],
        stack_alphabet=[_BOTTOM] + [_nt_sym(a) for a in g.nonterminals],
    )
    emit = mb.emit
    for name in g.nonterminals:
        mb.states.add(_signed(name, "+"))
        mb.states.add(_signed(name, "-"))

    # General rules: initial push of the axiom, episode-closing pops, accept.
    emit(_INITIAL, LEFT_MARK, _BOTTOM, Move(_WORK, (_nt_sym(g.axiom),), RIGHT))
    for name in g.nonterminals:
        for sign in "+-":
            q = _signed(name, sign)
            mb.emit_any(q, _nt_sym(name), Move(q, (), DOWN))
    emit(_signed(g.axiom, "+"), RIGHT_MARK, _BOTTOM, Move(_FINAL, (), DOWN))

    # (state, letter or None for every letter, top symbol, move) of every rule.
    rows: list[tuple[str, str | None, str, Move]] = []
    for name in g.nonterminals:
        body = g.rules[name]
        a_sym = _nt_sym(name)
        ok, fail = _signed(name, "+"), _signed(name, "-")
        if isinstance(body, Sequence):
            b, c = body.left.name, body.right.name
            f1, f2 = mb.stack_alphabet.add(_frame(name, 1)), mb.stack_alphabet.add(_frame(name, 2))
            q2, q2m = mb.states.add(_aux(name, "2")), mb.states.add(_aux(name, "2-"))
            rows += [
                (_WORK, None, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), None, f1, Move(_WORK, (_nt_sym(c), f2), DOWN)),
                (_signed(b, "-"), None, f1, Move(fail, (), UP)),
                (_signed(c, "+"), None, f2, Move(q2, (), DOWN)),
                (q2, None, f1, Move(ok, (), DOWN)),
                (_signed(c, "-"), None, f2, Move(q2m, (), UP)),
                (q2m, None, f1, Move(fail, (), UP)),
            ]
        elif isinstance(body, Choice):
            b, c = body.first.name, body.second.name
            f1, f2 = mb.stack_alphabet.add(_frame(name, 1)), mb.stack_alphabet.add(_frame(name, 2))
            q2 = mb.states.add(_aux(name, "2"))
            rows += [
                (_WORK, None, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), None, f1, Move(ok, (), DOWN)),
                (_signed(b, "-"), None, f1, Move(q2, (), UP)),
                # After the up pop the rule's own nonterminal is on top again.
                (q2, None, a_sym, Move(_WORK, (_nt_sym(c), f2), DOWN)),
                (_signed(c, "+"), None, f2, Move(ok, (), DOWN)),
                (_signed(c, "-"), None, f2, Move(fail, (), UP)),
            ]
        elif isinstance(body, Not):
            b = body.inner.name
            f1 = mb.stack_alphabet.add(_frame(name, 1))
            rows += [
                (_WORK, None, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), None, f1, Move(fail, (), UP)),
                (_signed(b, "-"), None, f1, Move(ok, (), UP)),
            ]
        elif isinstance(body, Empty):
            rows.append((_WORK, None, a_sym, Move(ok, (), HAT_DOWN)))
        elif isinstance(body, Terminal):
            rows.append((_WORK, body.symbol, a_sym, Move(ok, (), HAT_RIGHT)))
            mismatch = Move(fail, (), HAT_DOWN)
            rows += [
                (_WORK, a, a_sym, mismatch)
                for a in (*g.alphabet, RIGHT_MARK) if a != body.symbol
            ]
        else:  # pragma: no cover - shape checked above
            raise NotCnfError(f"unexpected body {body!r}")

    hat = mb.hat
    for q, a, z, move in rows:
        if move.direction in HAT_DIRECTIONS:
            move = hat(move.state, move.direction)
        if a is None:
            mb.emit_any(q, z, move)
        else:
            emit(q, a, z, move)
    out = mb.build()
    vars(out)["has_hat_moves"] = False  # record the verdict, so no engine walks δ for it
    return out


def grammar_to_machine(g: Grammar) -> Machine:
    """Convenience pipeline: desugar, normal-form convert, compile."""
    from .peg.transform import desugar, to_cnf

    return peg_to_dppda(to_cnf(desugar(g)))


# --- machine to grammar ---------------------------------------------------------


@dataclass(frozen=True)
class BracketName:
    """Tagged nonterminal names of extracted grammars."""

    push_state: str
    symbol: str
    pop_state: str
    tag: str  # dn up bar any

    def render(self) -> str:
        return f"[{self.push_state}.{self.symbol}.{self.pop_state}.{self.tag}]"


_AXIOM_NAME = "#S"


def dppda_to_peg(m: Machine, keep_all_states: bool = False) -> Grammar:
    """Extract an acceptance-equivalent grammar from a normalized machine.

    ``m`` must be one-way, hat-free and in the five-property normal form
    (run :func:`pegmachine.pppda.normalize` first).  Rule alternatives are
    emitted per input letter in alphabet order (the right end marker
    last); their relative order does not affect the language.  States that
    can never receive the relevant pop are skipped unless
    ``keep_all_states`` is true; nonterminals unreachable from the axiom
    are pruned.
    """
    if m.two_way:
        raise NotNormalError("extraction needs a one-way machine")
    check_normal(m)

    sigma = list(m.input_alphabet)
    letters = sigma + [RIGHT_MARK]
    # Pop targets per stack symbol: the only states an episode over that
    # symbol can ever report to.
    pop_targets: dict[str, list[str]] = {z: [] for z in m.stack_alphabet}
    pop_targets_up: dict[str, list[str]] = {z: [] for z in m.stack_alphabet}
    for (q, a, z), mv in m.delta.items():
        if not mv.push:
            if mv.state not in pop_targets[z]:
                pop_targets[z].append(mv.state)
            if mv.direction == UP and mv.state not in pop_targets_up[z]:
                pop_targets_up[z].append(mv.state)
    state_order = {q: i for i, q in enumerate(m.states)}
    for z in m.stack_alphabet:
        pop_targets[z].sort(key=state_order.get)
        pop_targets_up[z].sort(key=state_order.get)
    if keep_all_states:
        pop_targets = {z: list(m.states) for z in m.stack_alphabet}
        pop_targets_up = dict(pop_targets)

    def guard_expr(a: str) -> Expression:
        """Check the head letter without consuming; ``!.`` plays &{end}."""
        return Not(AnyChar()) if a == RIGHT_MARK else And(Terminal(a))

    def seq(*parts: Expression) -> Expression:
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Sequence(p, out)
        return out

    rules: dict[str, Expression] = {}
    order: list[str] = []
    pending: list[BracketName] = []
    named: set[str] = set()

    def ref(name: BracketName) -> Nonterminal:
        key = name.render()
        if key not in named:
            named.add(key)
            pending.append(name)
        return Nonterminal(key)

    def alternatives(name: BracketName) -> list[Expression]:
        """Per-letter alternatives for one nonterminal, merged where letters
        sharing a move cover the whole alphabet (guards then partition the
        positions, so the guard layer is an identity and is elided)."""
        q, z, p, tag = name.push_state, name.symbol, name.pop_state, name.tag
        groups: dict[object, list[str]] = {}
        for a in letters:
            mv = m.delta.get((q, a, z))
            if mv is not None:
                groups.setdefault(mv, []).append(a)
        alts: list[Expression] = []
        for mv, group in groups.items():
            full = len(group) == len(letters)
            consuming_full = mv.push and mv.direction == RIGHT and set(group) >= set(sigma)
            if mv.push:
                x = mv.push[0]
                r = mv.state
                for s in pop_targets[x]:
                    episode = ref(BracketName(r, x, s, "any"))
                    if tag == "dn":
                        rest: Expression = ref(BracketName(s, z, p, "dn"))
                    else:
                        rest = ref(BracketName(s, z, p, "bar"))
                    if mv.direction == RIGHT:
                        heads: list[Expression] = (
                            [AnyChar()] if consuming_full
                            else [Terminal(a) for a in group if a != RIGHT_MARK]
                        )
                        for head in heads:
                            inner = seq(head, episode, rest)
                            alts.append(And(inner) if tag == "up" else inner)
                    else:
                        body: Expression = (
                            And(Sequence(episode, rest)) if tag == "up"
                            else Sequence(episode, rest)
                        )
                        if full:
                            alts.append(body)
                        else:
                            alts.extend(seq(guard_expr(a), body) for a in group)
            else:
                hit = mv.state == p and (mv.direction == DOWN) == (tag == "dn")
                if hit:
                    if full:
                        alts.append(Empty())
                    else:
                        alts.extend(guard_expr(a) for a in group)
                # Mismatched pops contribute failing alternatives only; they
                # are identities of ordered choice and are dropped.
        return alts

    def fold(alts: list[Expression]) -> Expression:
        if not alts:
            return Fail()
        out = alts[-1]
        for alt in reversed(alts[:-1]):
            out = Choice(alt, out)
        return out

    axiom_alts = [
        ref(BracketName(m.initial_state, m.bottom, f, "dn"))
        for f in m.finals
        if f in pop_targets[m.bottom] or keep_all_states
    ]
    rules[_AXIOM_NAME] = fold(list(axiom_alts))
    order.append(_AXIOM_NAME)

    while pending:
        name = pending.pop(0)
        key = name.render()
        order.append(key)
        if name.tag == "any":
            rules[key] = Choice(
                ref(BracketName(name.push_state, name.symbol, name.pop_state, "dn")),
                ref(BracketName(name.push_state, name.symbol, name.pop_state, "up")),
            )
        else:
            rules[key] = fold(alternatives(name))

    rules = _drop_failing_alternatives(rules)
    keep = reachable_from(rules, _AXIOM_NAME)
    order = [name for name in order if name in keep]
    return Grammar.build([(k, rules[k]) for k in order], axiom=_AXIOM_NAME, alphabet=sigma)


def _drop_failing_alternatives(rules: dict[str, Expression]) -> dict[str, Expression]:
    """Remove choice alternatives that provably always fail.

    Failing alternatives are identities of ordered choice, so dropping them
    preserves the recognized language while shrinking the grammar.  The
    analysis propagates through sequences, choices and references only;
    negations are treated as opaque.
    """
    failing: set[str] = set()

    def fails(e: Expression) -> bool:
        if isinstance(e, Fail):
            return True
        if isinstance(e, Nonterminal):
            return e.name in failing
        if isinstance(e, Sequence):
            return fails(e.left) or fails(e.right)
        if isinstance(e, Choice):
            return fails(e.first) and fails(e.second)
        return False

    changed = True
    while changed:
        changed = False
        for name, body in rules.items():
            if name not in failing and fails(body):
                failing.add(name)
                changed = True

    def rewrite(e: Expression) -> Expression:
        if isinstance(e, Choice):
            alts: list[Expression] = []
            node: Expression = e
            while isinstance(node, Choice):
                alts.append(node.first)
                node = node.second
            alts.append(node)
            kept = [a for a in (rewrite(x) for x in alts) if not fails(a)]
            if not kept:
                return Fail()
            out = kept[-1]
            for alt in reversed(kept[:-1]):
                out = Choice(alt, out)
            return out
        if isinstance(e, Sequence):
            return Sequence(rewrite(e.left), rewrite(e.right))
        if isinstance(e, Not):
            return Not(rewrite(e.inner))
        if isinstance(e, And):
            return And(rewrite(e.inner))
        return e

    return {name: (Fail() if name in failing else rewrite(body)) for name, body in rules.items()}


# --- round trip -----------------------------------------------------------------


@dataclass(frozen=True)
class RoundtripReport:
    words_checked: int
    disagreements: tuple[tuple[str, bool, bool, bool], ...]  # word, peg, machine, extracted

    @property
    def ok(self) -> bool:
        return not self.disagreements


def roundtrip_check(g: CnfGrammar | Grammar, words) -> RoundtripReport:
    """Compile, normalize, extract, and compare all three recognizers."""
    machine = peg_to_dppda(g)
    norm = normalize(machine)
    extracted = dppda_to_peg(norm)
    bad: list[tuple[str, bool, bool, bool]] = []
    count = 0
    for w in words:
        count += 1
        a = accepts(g, w)
        b = run_direct(norm, w).outcome == "accept"
        c = accepts(extracted, w)
        if not (a == b == c):
            bad.append((w, a, b, c))
    return RoundtripReport(count, tuple(bad))
