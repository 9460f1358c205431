"""Differential testing across the five recognition engines.

Each case draws a random well-formed normal-form grammar (rejection
sampling until the well-formedness check passes) and a batch of random
words, then runs the word through: the budgeted naive engine, the packrat
engine, the compiled machine under the direct engine, the compiled
machine under the memoizing linear engine, and the grammar extracted from
the normalized compiled machine under packrat.  Any disagreement is
shrunk greedily (word letters first, then rule bodies) and reported.

The case stream is fully determined by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .cooksim import run_linear
from .peg.ast import (
    DIVERGED,
    Choice,
    Consumed,
    Empty,
    Expression,
    Grammar,
    Nonterminal,
    Not,
    Sequence,
    Terminal,
    reachable_from,
    render_grammar_text,
)
from .peg.interpret import DEFAULT_BUDGET, interpret_naive, interpret_packrat
from .peg.wellformed import check_well_formed
from .pppda.machine import run_direct
from .pppda.normalize import normalize
from .translate import dppda_to_peg, peg_to_dppda


class FuzzConfig(NamedTuple):
    seed: int = 1
    cases: int = 200
    max_nonterminals: int = 4
    alphabet_size: int = 2
    max_word_len: int = 8
    words_per_case: int = 12
    naive_budget: int = DEFAULT_BUDGET


class Divergence(NamedTuple):
    case_index: int
    grammar_text: str
    word: str
    verdicts: tuple[tuple[str, str], ...]  # (engine, accept/reject/diverged)


@dataclass
class FuzzReport:
    cases_run: int = 0
    divergence: Divergence | None = None
    engines: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.divergence is None


# ``alphabet_size`` takes a prefix of these letters.
ALPHABET = "abcdefgh"


def random_cnf_grammar(rng: random.Random, max_nonterminals: int, alphabet_size: int) -> Grammar:
    """A random well-formed grammar in the normal-form shapes."""
    sigma = ALPHABET[:alphabet_size]
    for _ in range(1000):
        count = rng.randint(1, max_nonterminals)
        names = [f"A{i}" for i in range(count)]
        rules = [(name, _random_cnf_body(rng, names, sigma)) for name in names]
        g = Grammar.build(rules, axiom=names[0], alphabet=sigma)
        if check_well_formed(g).well_formed:
            return g
    raise RuntimeError("could not sample a well-formed grammar")


def _random_cnf_body(rng: random.Random, names: list[str], sigma: str) -> Expression:
    # The axiom (names[0]) never occurs on a right-hand side.
    rhs = names[1:] or None
    shapes = ["terminal", "empty"]
    if rhs:
        shapes += ["seq", "choice", "not"]
    shape = rng.choice(shapes)
    if shape == "terminal":
        return Terminal(rng.choice(sigma))
    if shape == "empty":
        return Empty()
    if shape == "seq":
        return Sequence(Nonterminal(rng.choice(rhs)), Nonterminal(rng.choice(rhs)))
    if shape == "choice":
        return Choice(Nonterminal(rng.choice(rhs)), Nonterminal(rng.choice(rhs)))
    return Not(Nonterminal(rng.choice(rhs)))


def random_general_grammar(
    rng: random.Random, max_nonterminals: int, alphabet_size: int, max_depth: int = 4
) -> Grammar:
    """A random well-formed grammar over all expression forms, sugar included."""
    from .peg.ast import And, AnyChar, Option, Plus, Star
    from .peg.transform import desugar

    sigma = ALPHABET[:alphabet_size]

    def expr(depth: int, names: list[str]) -> Expression:
        leaves = ["terminal", "terminal", "empty", "any", "nt"]
        inner = ["seq", "seq", "choice", "choice", "not", "and", "star", "plus", "option"]
        kind = rng.choice(leaves if depth <= 0 else leaves + inner)
        if kind == "terminal":
            return Terminal(rng.choice(sigma))
        if kind == "empty":
            return Empty()
        if kind == "any":
            return AnyChar()
        if kind == "nt":
            return Nonterminal(rng.choice(names))
        if kind == "seq":
            return Sequence(expr(depth - 1, names), expr(depth - 1, names))
        if kind == "choice":
            return Choice(expr(depth - 1, names), expr(depth - 1, names))
        if kind == "not":
            return Not(expr(depth - 1, names))
        if kind == "and":
            return And(expr(depth - 1, names))
        if kind == "star":
            return Star(expr(depth - 1, names))
        if kind == "plus":
            return Plus(expr(depth - 1, names))
        return Option(expr(depth - 1, names))

    for _ in range(1000):
        count = rng.randint(1, max_nonterminals)
        names = [f"A{i}" for i in range(count)]
        rules = [(n, expr(rng.randint(1, max_depth), names)) for n in names]
        g = Grammar.build(rules, axiom=names[0], alphabet=sigma)
        try:
            if check_well_formed(desugar(g)).well_formed:
                return g
        except RecursionError:  # pragma: no cover - deep random towers
            continue
    raise RuntimeError("could not sample a well-formed grammar")


def random_word(rng: random.Random, sigma: str, max_len: int) -> str:
    return "".join(rng.choice(sigma) for _ in range(rng.randint(0, max_len)))


# --- engines -------------------------------------------------------------------


def _engine_verdicts(g: Grammar, words: list[str], budget: int) -> dict[str, dict[str, str]]:
    """Verdicts per engine per word; grammars must be normal-form shaped."""
    from .peg.transform import desugar

    machine = peg_to_dppda(g)
    extracted = desugar(dppda_to_peg(normalize(machine)))
    out: dict[str, dict[str, str]] = {}

    def naive(w: str) -> str:
        r = interpret_naive(g, g.rules[g.axiom], w, 0, budget)
        if r == Consumed(len(w)):
            return "accept"
        return "diverged" if r is DIVERGED else "reject"

    def packrat(w: str) -> str:
        return "accept" if interpret_packrat(g, w) == Consumed(len(w)) else "reject"

    def direct(w: str) -> str:
        r = run_direct(machine, w)
        return r.outcome if r.outcome == "accept" else ("diverged" if r.outcome == "budget" else "reject")

    def cook(w: str) -> str:
        return "accept" if run_linear(machine, w).outcome == "accept" else "reject"

    def extract_packrat(w: str) -> str:
        return "accept" if interpret_packrat(extracted, w) == Consumed(len(w)) else "reject"

    engines = {
        "naive": naive,
        "packrat": packrat,
        "direct": direct,
        "cook": cook,
        "extract": extract_packrat,
    }
    for name, fn in engines.items():
        out[name] = {w: fn(w) for w in words}
    return out


ENGINE_NAMES = ("naive", "packrat", "direct", "cook", "extract")


def _first_divergence(verdicts: dict[str, dict[str, str]], words: list[str]) -> str | None:
    for w in words:
        seen = {verdicts[name][w] for name in verdicts}
        if len(seen) > 1:
            return w
    return None


def run_fuzz(
    config: FuzzConfig,
    corrupt_engine: str | None = None,
) -> FuzzReport:
    """Run the differential campaign; ``corrupt_engine`` flips one engine's
    verdicts on words of odd length (harness self-test hook)."""
    rng = random.Random(config.seed)
    report = FuzzReport(engines=ENGINE_NAMES)
    for index in range(config.cases):
        g = random_cnf_grammar(rng, config.max_nonterminals, config.alphabet_size)
        sigma = "".join(g.alphabet)
        words = [random_word(rng, sigma, config.max_word_len) for _ in range(config.words_per_case)]
        verdicts = _apply_corruption(
            _engine_verdicts(g, words, config.naive_budget), corrupt_engine
        )
        report.cases_run += 1
        bad = _first_divergence(verdicts, words)
        if bad is not None:
            g2, w2 = _shrink(g, bad, config, corrupt_engine)
            verdicts2 = _apply_corruption(
                _engine_verdicts(g2, [w2], config.naive_budget), corrupt_engine
            )
            report.divergence = Divergence(
                case_index=index,
                grammar_text=render_grammar_text(g2),
                word=w2,
                verdicts=tuple((name, verdicts2[name][w2]) for name in ENGINE_NAMES),
            )
            return report
    return report


def _apply_corruption(
    verdicts: dict[str, dict[str, str]], corrupt_engine: str | None
) -> dict[str, dict[str, str]]:
    if corrupt_engine is None:
        return verdicts
    flipped = dict(verdicts)
    flipped[corrupt_engine] = {
        w: ("reject" if v == "accept" else "accept") if len(w) % 2 == 1 else v
        for w, v in verdicts[corrupt_engine].items()
    }
    return flipped


def _diverges(g: Grammar, word: str, config: FuzzConfig, corrupt_engine: str | None) -> bool:
    if not check_well_formed(g).well_formed:
        return False
    verdicts = _apply_corruption(_engine_verdicts(g, [word], config.naive_budget), corrupt_engine)
    return _first_divergence(verdicts, [word]) is not None


def _shrink(
    g: Grammar, word: str, config: FuzzConfig, corrupt_engine: str | None
) -> tuple[Grammar, str]:
    """Greedy shrink: drop word letters, then simplify rule bodies to empty."""
    changed = True
    while changed:
        changed = False
        for i in range(len(word)):
            cand = word[:i] + word[i + 1 :]
            if _diverges(g, cand, config, corrupt_engine):
                word = cand
                changed = True
                break
    changed = True
    while changed:
        changed = False
        for name in g.nonterminals:
            if isinstance(g.rules[name], Empty):
                continue
            rules = [(n, Empty() if n == name else g.rules[n]) for n in g.nonterminals]
            cand = Grammar.build(rules, axiom=g.axiom, alphabet=g.alphabet)
            if _diverges(cand, word, config, corrupt_engine):
                g = cand
                changed = True
                break
    keep = reachable_from(g.rules, g.axiom)
    rules = [(n, g.rules[n]) for n in g.nonterminals if n in keep]
    return Grammar.build(rules, axiom=g.axiom, alphabet=g.alphabet), word
