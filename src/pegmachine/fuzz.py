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

from .engines import recognize
from .peg.ast import (
    Choice,
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
from .peg.wellformed import check_well_formed
from .pppda.normalize import normalize
from .translate import dppda_to_peg, peg_to_dppda


class FuzzConfig(NamedTuple):
    seed: int = 1
    cases: int = 200
    max_nonterminals: int = 4
    alphabet_size: int = 2
    max_word_len: int = 8


class Divergence(NamedTuple):
    case_index: int
    grammar_text: str
    word: str
    verdicts: tuple[tuple[str, str], ...]  # (column, accept/reject/budget)


@dataclass
class FuzzReport:
    cases_run: int = 0
    divergence: Divergence | None = None

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

WORDS_PER_CASE = 12


def _engine_verdicts(g: Grammar, words: list[str]) -> dict[str, dict[str, str]]:
    """Outcome (accept/reject/budget) per column per word; ``g`` is normal-form shaped.

    Each column is an (engine, source) route: ``g`` under both grammar
    engines, its compiled machine under both machine engines, and, as
    ``extract``, packrat on the grammar extracted from the normalized machine.
    """
    from .peg.transform import desugar

    machine = peg_to_dppda(g)
    routes = {
        "naive": ("naive", g),
        "packrat": ("packrat", g),
        "direct": ("direct", machine),
        "cook": ("cook", machine),
        "extract": ("packrat", desugar(dppda_to_peg(normalize(machine)))),
    }
    return {
        column: {w: recognize(engine, source, w).outcome for w in words}
        for column, (engine, source) in routes.items()
    }


def _first_divergence(verdicts: dict[str, dict[str, str]], words: list[str]) -> str | None:
    for w in words:
        seen = {verdicts[name][w] for name in verdicts}
        if len(seen) > 1:
            return w
    return None


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the differential campaign."""
    rng = random.Random(config.seed)
    report = FuzzReport()
    for index in range(config.cases):
        g = random_cnf_grammar(rng, config.max_nonterminals, config.alphabet_size)
        sigma = "".join(g.alphabet)
        words = [random_word(rng, sigma, config.max_word_len) for _ in range(WORDS_PER_CASE)]
        verdicts = _engine_verdicts(g, words)
        report.cases_run += 1
        bad = _first_divergence(verdicts, words)
        if bad is not None:
            g2, w2 = _shrink(g, bad)
            verdicts2 = _engine_verdicts(g2, [w2])
            report.divergence = Divergence(
                case_index=index,
                grammar_text=render_grammar_text(g2),
                word=w2,
                verdicts=tuple((name, v[w2]) for name, v in verdicts2.items()),
            )
            return report
    return report


def _diverges(g: Grammar, word: str) -> bool:
    if not check_well_formed(g).well_formed:
        return False
    return _first_divergence(_engine_verdicts(g, [word]), [word]) is not None


def _shrink(g: Grammar, word: str) -> tuple[Grammar, str]:
    """Greedy shrink: drop word letters, then simplify rule bodies to empty."""
    changed = True
    while changed:
        changed = False
        for i in range(len(word)):
            cand = word[:i] + word[i + 1 :]
            if _diverges(g, cand):
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
            if _diverges(cand, word):
                g = cand
                changed = True
                break
    keep = reachable_from(g.rules, g.axiom)
    rules = [(n, g.rules[n]) for n in g.nonterminals if n in keep]
    return Grammar.build(rules, axiom=g.axiom, alphabet=g.alphabet), word
