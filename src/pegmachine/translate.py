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
the union of ``[q0 Z0 f down]`` over final states ``f``.  Which rules can
never match is decided on the lists of alternatives, before any rule is
folded into an ordered choice, so each rule is built once.
"""

from __future__ import annotations

from typing import NamedTuple

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
    ANY,
    DOWN,
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

    The output is deterministic by construction; it accepts a word exactly
    when the grammar does.  ``Empty`` and ``Terminal`` rules move by hat
    moves, which :meth:`MachineBuilder.emit` expands.  Every rule's states
    and frame symbols are registered before any row is emitted, so the
    fresh hat names follow all of them, in first-use order.
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

    # (state, letter or ANY for every letter, top symbol, move) of every rule.
    rows: list[tuple[str, str, str, Move]] = []
    for name in g.nonterminals:
        body = g.rules[name]
        a_sym = _nt_sym(name)
        ok, fail = _signed(name, "+"), _signed(name, "-")
        if isinstance(body, Sequence):
            b, c = body.left.name, body.right.name
            f1, f2 = mb.stack_alphabet.add(_frame(name, 1)), mb.stack_alphabet.add(_frame(name, 2))
            q2, q2m = mb.states.add(_aux(name, "2")), mb.states.add(_aux(name, "2-"))
            rows += [
                (_WORK, ANY, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), ANY, f1, Move(_WORK, (_nt_sym(c), f2), DOWN)),
                (_signed(b, "-"), ANY, f1, Move(fail, (), UP)),
                (_signed(c, "+"), ANY, f2, Move(q2, (), DOWN)),
                (q2, ANY, f1, Move(ok, (), DOWN)),
                (_signed(c, "-"), ANY, f2, Move(q2m, (), UP)),
                (q2m, ANY, f1, Move(fail, (), UP)),
            ]
        elif isinstance(body, Choice):
            b, c = body.first.name, body.second.name
            f1, f2 = mb.stack_alphabet.add(_frame(name, 1)), mb.stack_alphabet.add(_frame(name, 2))
            q2 = mb.states.add(_aux(name, "2"))
            rows += [
                (_WORK, ANY, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), ANY, f1, Move(ok, (), DOWN)),
                (_signed(b, "-"), ANY, f1, Move(q2, (), UP)),
                # After the up pop the rule's own nonterminal is on top again.
                (q2, ANY, a_sym, Move(_WORK, (_nt_sym(c), f2), DOWN)),
                (_signed(c, "+"), ANY, f2, Move(ok, (), DOWN)),
                (_signed(c, "-"), ANY, f2, Move(fail, (), UP)),
            ]
        elif isinstance(body, Not):
            b = body.inner.name
            f1 = mb.stack_alphabet.add(_frame(name, 1))
            rows += [
                (_WORK, ANY, a_sym, Move(_WORK, (_nt_sym(b), f1), DOWN)),
                (_signed(b, "+"), ANY, f1, Move(fail, (), UP)),
                (_signed(b, "-"), ANY, f1, Move(ok, (), UP)),
            ]
        elif isinstance(body, Empty):
            rows.append((_WORK, ANY, a_sym, Move(ok, (), HAT_DOWN)))
        elif isinstance(body, Terminal):
            rows.append((_WORK, body.symbol, a_sym, Move(ok, (), HAT_RIGHT)))
            mismatch = Move(fail, (), HAT_DOWN)
            rows += [
                (_WORK, a, a_sym, mismatch)
                for a in (*g.alphabet, RIGHT_MARK) if a != body.symbol
            ]
        else:  # pragma: no cover - shape checked above
            raise NotCnfError(f"unexpected body {body!r}")

    for row in rows:
        emit(*row)
    return mb.build()


def grammar_to_machine(g: Grammar) -> Machine:
    """Convenience pipeline: desugar, normal-form convert, compile."""
    from .peg.transform import desugar, to_cnf

    return peg_to_dppda(to_cnf(desugar(g)))


# --- machine to grammar ---------------------------------------------------------


_AXIOM_NAME = "#S"


def dppda_to_peg(m: Machine) -> Grammar:
    """Extract an acceptance-equivalent grammar from a normalized machine.

    ``m`` must be one-way and in the five-property normal form
    (run :func:`pegmachine.pppda.normalize` first).  Rule alternatives are
    emitted per input letter in alphabet order (the right end marker
    last); their relative order does not affect the language.  States that
    can never receive the relevant pop are skipped.

    Rules are named in breadth-first order from the axiom, and each is
    built once, as a list of alternatives that carry the rules whose
    failure makes them fail: a push outside ``&`` carries its episode and
    rest, an ``any`` rule's two alternatives their ``dn`` and ``up`` rules,
    and guards, ``""`` and ``&(...)`` carry none.  A rule fails when every
    one of its alternatives does; the least fixpoint of that marks the
    failing rules.  Their references are identities of ordered choice, so
    the alternatives that carry one are dropped before each rule is folded
    into a ``Choice`` chain, or into ``Fail`` when none is left.
    Nonterminals unreachable from the axiom are pruned.
    """
    if m.two_way:
        raise NotNormalError("extraction needs a one-way machine")
    check_normal(m)

    sigma = list(m.input_alphabet)
    letters = sigma + [RIGHT_MARK]
    delta = m.delta.stored
    # Pop targets per stack symbol: the only states an episode over that
    # symbol can ever report to.
    pop_targets: dict[str, list[str]] = {z: [] for z in m.stack_alphabet}
    for (q, a, z), mv in delta.items():
        if not mv.push and mv.state not in pop_targets[z]:
            pop_targets[z].append(mv.state)
    state_order = {q: i for i, q in enumerate(m.states)}
    for targets in pop_targets.values():
        targets.sort(key=state_order.get)

    def guard_expr(a: str) -> Expression:
        """Check the head letter without consuming; ``!.`` plays &{end}."""
        return Not(AnyChar()) if a == RIGHT_MARK else And(Terminal(a))

    # Rule name -> (push state, symbol, pop state, tag), tag one of dn up
    # bar any; ``order`` lists the names as they are first referenced.
    parts: dict[str, tuple[str, str, str, str]] = {}
    order: list[str] = [_AXIOM_NAME]

    def ref(q: str, z: str, p: str, tag: str) -> str:
        key = f"[{q}.{z}.{p}.{tag}]"
        if key not in parts:
            parts[key] = (q, z, p, tag)
            order.append(key)
        return key

    Alternatives = list[tuple[Expression, tuple[str, ...]]]

    def alternatives(q: str, z: str, p: str, tag: str) -> Alternatives:
        """Per-letter alternatives for one nonterminal, merged where letters
        sharing a move cover the whole alphabet (guards then partition the
        positions, so the guard layer is an identity and is elided)."""
        mv = delta.get((q, ANY, z))
        groups: dict[Move, list[str]] = {} if mv is None else {mv: letters}
        if mv is None:
            for a in letters:
                mv = delta.get((q, a, z))
                if mv is not None:
                    groups.setdefault(mv, []).append(a)
        alts: Alternatives = []
        for mv, group in groups.items():
            full = len(group) == len(letters)
            if mv.push:
                x, r = mv.push[0], mv.state
                if mv.direction == RIGHT:
                    heads: list[Expression] = (
                        [AnyChar()] if set(group) >= set(sigma)
                        else [Terminal(a) for a in group if a != RIGHT_MARK]
                    )
                for s in pop_targets[x]:
                    episode = ref(r, x, s, "any")
                    rest = ref(s, z, p, "dn" if tag == "dn" else "bar")
                    body: Expression = Sequence(Nonterminal(episode), Nonterminal(rest))
                    fails_with = () if tag == "up" else (episode, rest)
                    if mv.direction == RIGHT:
                        for head in heads:
                            inner = Sequence(head, body)
                            alts.append((And(inner) if tag == "up" else inner, fails_with))
                        continue
                    if tag == "up":
                        body = And(body)
                    if full:
                        alts.append((body, fails_with))
                    else:
                        alts.extend((Sequence(guard_expr(a), body), fails_with) for a in group)
            elif mv.state == p and (mv.direction == DOWN) == (tag == "dn"):
                if full:
                    alts.append((Empty(), ()))
                else:
                    alts.extend((guard_expr(a), ()) for a in group)
            # Mismatched pops contribute failing alternatives only; they
            # are identities of ordered choice and are dropped.
        return alts

    def either(*keys: str) -> Alternatives:
        return [(Nonterminal(k), (k,)) for k in keys]

    accepting = [
        ref(m.initial_state, m.bottom, f, "dn") for f in m.finals if f in pop_targets[m.bottom]
    ]
    rules: dict[str, Alternatives] = {_AXIOM_NAME: either(*accepting)}
    i = 1
    while i < len(order):
        key = order[i]
        i += 1
        q, z, p, tag = parts[key]
        if tag == "any":
            rules[key] = either(ref(q, z, p, "dn"), ref(q, z, p, "up"))
        else:
            rules[key] = alternatives(q, z, p, tag)

    # References point forward in breadth-first order more often than
    # not, so walking the rules backwards settles most of them in a round.
    failing: set[str] = set()
    changed = True
    while changed:
        changed = False
        for key, alts in reversed(rules.items()):
            if key not in failing and all(not failing.isdisjoint(deps) for _, deps in alts):
                failing.add(key)
                changed = True

    bodies: dict[str, Expression] = {}
    for key, alts in rules.items():
        kept = [e for e, deps in alts if failing.isdisjoint(deps)]
        body = kept[-1] if kept else Fail()
        for e in reversed(kept[:-1]):
            body = Choice(e, body)
        bodies[key] = body
    keep = reachable_from(bodies, _AXIOM_NAME)
    return Grammar.build(
        [(k, bodies[k]) for k in order if k in keep], axiom=_AXIOM_NAME, alphabet=sigma
    )


# --- round trip -----------------------------------------------------------------


class RoundtripReport(NamedTuple):
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
