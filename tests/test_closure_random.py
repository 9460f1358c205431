"""The closure constructions on seeded random DPDAs, DFAs and grammars.

Each construction is checked against an oracle that shares no code with
it: :func:`brute_force_membership` (a forward pass of ``dpda_run`` over
block splits) for the regular closure, and ``dpda_run`` or that oracle on
every prefix times packrat on the suffix for left concatenation.  The
Boolean combinators are checked on grammars extracted from regular
closures, against the same combination of the oracle's verdicts.
"""

import random

import pytest

from pegmachine.closures import (
    ACCEPT,
    CompositionSpec,
    Dpda,
    EPSILON,
    LabeledDfa,
    brute_force_membership,
    dpda_run,
    left_concat_dcfl,
    pel_complement,
    pel_intersection,
    pel_union,
    reg_closure_machine,
)
from pegmachine.cooksim import run_linear
from pegmachine.fuzz import random_cnf_grammar
from pegmachine.peg import accepts
from pegmachine.pppda import normalize, run_direct
from pegmachine.translate import dppda_to_peg, grammar_to_machine

from conftest import all_words

SIGMA = "ab"
WORDS = list(all_words(SIGMA, 6))
SHORT_WORDS = list(all_words(SIGMA, 5))


def random_dpda(rng: random.Random) -> Dpda:
    """A DPDA over ``SIGMA`` with a partial table, ε-moves and up to three symbols.

    An ε-move always goes to a later state, so ε-moves never loop and
    :func:`dpda_run` never exhausts its ε-budget.
    """
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    gamma = ["B", "X", "Y"][: rng.randint(1, 3)]

    def push(z: str) -> tuple[str, ...]:
        """Pop, keep, push over, or replace the top ``z``."""
        return rng.choice(((), (z,), (rng.choice(gamma), z), (rng.choice(gamma),)))

    delta = {}
    for i, q in enumerate(states):
        for z in gamma:
            if i + 1 < len(states) and rng.random() < 0.25:
                delta[q, EPSILON, z] = (rng.choice(states[i + 1:]), push(z))
                continue
            for a in SIGMA:
                if rng.random() < 0.8:
                    delta[q, a, z] = (rng.choice(states), push(z))
    finals = tuple(q for q in states if rng.random() < 0.5)
    return Dpda(tuple(states), tuple(SIGMA), tuple(gamma), finals, states[0], "B", delta)


def random_spec(rng: random.Random) -> CompositionSpec:
    """A complete DFA over one to three labels, each bound to an ε-free random DPDA."""
    labels = [f"l{i}" for i in range(rng.randint(1, 3))]
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    dfa = LabeledDfa(
        states=tuple(states),
        labels=tuple(labels),
        delta={(s, l): rng.choice(states) for s in states for l in labels},
        initial=states[0],
        finals=tuple(s for s in states if rng.random() < 0.5) or (states[-1],),
    )
    bindings = {}
    for label in labels:
        d = random_dpda(rng)
        while dpda_run(d, "") == ACCEPT:
            d = random_dpda(rng)
        bindings[label] = d
    return CompositionSpec(dfa, bindings)


def accepted(m, word: str) -> bool:
    """The verdict under cook, checked against the direct engine's."""
    verdict = run_linear(m, word).outcome
    assert run_direct(m, word).outcome == verdict, word
    return verdict == "accept"


@pytest.mark.parametrize("seed", range(150))
def test_reg_closure_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    m = reg_closure_machine(spec)
    cache: dict = {}
    for word in WORDS:
        assert accepted(m, word) == brute_force_membership(spec, word, cache), word


def test_random_specs_have_nontrivial_languages():
    """Most specs above accept some but not all of the words they are checked on."""
    mixed = 0
    for seed in range(150):
        spec, cache = random_spec(random.Random(seed)), {}
        verdicts = {brute_force_membership(spec, word, cache) for word in WORDS}
        mixed += verdicts == {True, False}
    assert mixed >= 75


@pytest.mark.parametrize("seed", range(150))
def test_concat_agrees_with_prefix_times_suffix(seed):
    """A single DPDA, which may accept the empty word, before a random grammar."""
    rng = random.Random(1000 + seed)
    x = random_dpda(rng)
    y = random_cnf_grammar(rng, 4, len(SIGMA))
    m = left_concat_dcfl(x, grammar_to_machine(y))
    for word in WORDS:
        want = any(
            dpda_run(x, word[:k]) == ACCEPT and accepts(y, word[k:]) for k in range(len(word) + 1)
        )
        assert accepted(m, word) == want, word


def test_concat_sees_epsilon_accepting_dpdas():
    """The concat seeds above include DPDAs that accept the empty word."""
    xs = [random_dpda(random.Random(1000 + seed)) for seed in range(150)]
    assert sum(dpda_run(x, "") == ACCEPT for x in xs) >= 20


@pytest.mark.parametrize("seed", range(100))
def test_spec_concat_agrees_with_prefix_times_suffix(seed):
    """A multi-label composition spec before a random grammar."""
    rng = random.Random(2000 + seed)
    spec = random_spec(rng)
    y = random_cnf_grammar(rng, 4, len(SIGMA))
    m = left_concat_dcfl(spec, grammar_to_machine(y))
    cache: dict = {}
    for word in SHORT_WORDS:
        want = any(
            brute_force_membership(spec, word[:k], cache) and accepts(y, word[k:])
            for k in range(len(word) + 1)
        )
        assert accepted(m, word) == want, word


@pytest.mark.parametrize("seed", range(10))
def test_reg_closure_extracts_to_an_agreeing_grammar(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    g = dppda_to_peg(normalize(reg_closure_machine(spec)))
    cache: dict = {}
    for word in SHORT_WORDS:
        assert accepts(g, word) == brute_force_membership(spec, word, cache), word


BOOLEAN_WORDS = list(all_words(SIGMA, 4))
BOOLEAN_OPERANDS = 12


@pytest.fixture(scope="module")
def extracted_operands() -> list[tuple]:
    """(grammar, language on ``BOOLEAN_WORDS``) for the first specs whose language there is mixed.

    Each grammar is extracted from the normalized regular-closure machine;
    the language is the oracle's.  Empty and full languages would make
    most combinations trivial, so those specs are passed over.
    """
    operands = []
    seed = 0
    while len(operands) < BOOLEAN_OPERANDS:
        spec, cache = random_spec(random.Random(seed)), {}
        seed += 1
        lang = frozenset(w for w in BOOLEAN_WORDS if brute_force_membership(spec, w, cache))
        if 0 < len(lang) < len(BOOLEAN_WORDS):
            operands.append((dppda_to_peg(normalize(reg_closure_machine(spec))), lang))
    return operands


@pytest.mark.parametrize("index", range(BOOLEAN_OPERANDS))
def test_boolean_combinations_of_extracted_grammars(index, extracted_operands):
    """Complement, and union and intersection with every operand, in both orders."""
    g, lang = extracted_operands[index]
    combos = [(pel_complement(g), frozenset(BOOLEAN_WORDS) - lang)]
    for h, other in extracted_operands:
        combos.append((pel_union(g, h), lang | other))
        combos.append((pel_intersection(g, h), lang & other))
    for combo, want in combos:
        for word in BOOLEAN_WORDS:
            assert accepts(combo, word) == (word in want), word
