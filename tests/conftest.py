"""Shared fixtures: reference grammars, machines, word enumerations and runs."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import pytest

from pegmachine.closures import Dpda, LabeledDfa
from pegmachine.peg import parse_grammar_text
from pegmachine.pppda import Configuration, Halt, Machine, initial_configuration, run_direct, step

SRC = str(Path(__file__).resolve().parent.parent / "src")


def all_words(sigma: str, max_len: int):
    """Every word over ``sigma`` up to ``max_len``, shortest first."""
    for k in range(max_len + 1):
        for t in itertools.product(sigma, repeat=k):
            yield "".join(t)


def child_env(env: dict[str, str] | None = None) -> dict[str, str]:
    """The environment, plus ``env``, for a child ``python -m pegmachine.cli``.

    The repository's ``src`` goes first on ``PYTHONPATH``, so the child
    imports the package under test without an install.
    """
    full = dict(os.environ)
    full.update(env or {})
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full.get("PYTHONPATH")]))
    return full


def configurations(m: Machine, word: str, limit: int | None = None) -> list[Configuration]:
    """The reference run: :func:`step` iterated from the initial configuration.

    Every configuration until the run halts, the initial one first, or
    those of the first ``limit`` moves.
    """
    configs = [initial_configuration(m)]
    while limit is None or len(configs) <= limit:
        after = step(m, configs[-1], word)
        if isinstance(after, Halt):
            break
        configs.append(after)
    return configs


def traced(m: Machine, word: str, step_limit: int | None = None):
    """``run_direct``'s result and the events it reported, as tuples."""
    events: list[tuple] = []
    run = run_direct(m, word, step_limit, lambda *event: events.append(event))
    return run, events


FIG2_TEXT = """\
S <- A B / B C
A <- "a" A / "a"
B <- "a" "b" "b" / "b"
C <- "c" C / ""
"""

SEC13_UNION_TEXT = """\
@alphabet "abc"
S <- A !C / B
A <- "a" A "b" / ""
B <- "a" B "c" / ""
C <- "a" / "b"
"""

SEC13_ABC_TEXT = """\
@alphabet "abc"
S <- &(A "c") B C
A <- "a" A "b" / ""
B <- "a" B / "a"
C <- "b" C "c" / ""
"""


@pytest.fixture(scope="session")
def fig2():
    return parse_grammar_text(FIG2_TEXT)


@pytest.fixture(scope="session")
def sec13_union():
    return parse_grammar_text(SEC13_UNION_TEXT)


@pytest.fixture(scope="session")
def sec13_abc():
    return parse_grammar_text(SEC13_ABC_TEXT)


def dpda_anbn() -> Dpda:
    """{a^n b^n : n >= 1}, acceptance by final state at the end."""
    return Dpda(
        states=("p0", "p1", "pf"),
        input_alphabet=("a", "b"),
        stack_alphabet=("B", "X"),
        finals=("pf",),
        initial_state="p0",
        bottom="B",
        delta={
            ("p0", "a", "B"): ("p0", ("X", "B")),
            ("p0", "a", "X"): ("p0", ("X", "X")),
            ("p0", "b", "X"): ("p1", ()),
            ("p1", "b", "X"): ("p1", ()),
            ("p1", "", "B"): ("pf", ("B",)),
        },
    )


def dpda_cmd() -> Dpda:
    """{c^m d : m >= 0}."""
    return Dpda(
        states=("r0", "rf"),
        input_alphabet=("c", "d"),
        stack_alphabet=("B",),
        finals=("rf",),
        initial_state="r0",
        bottom="B",
        delta={
            ("r0", "c", "B"): ("r0", ("B",)),
            ("r0", "d", "B"): ("rf", ("B",)),
        },
    )


def dpda_single(letter: str) -> Dpda:
    """The one-word language {letter}."""
    return Dpda(
        states=("s0", "sf"),
        input_alphabet=(letter,),
        stack_alphabet=("B",),
        finals=("sf",),
        initial_state="s0",
        bottom="B",
        delta={("s0", letter, "B"): ("sf", ("B",))},
    )


def dfa_pairs() -> LabeledDfa:
    """(l1 l2)* over two labels."""
    return LabeledDfa(
        states=("s0", "s1", "sink"),
        labels=("l1", "l2"),
        delta={
            ("s0", "l1"): "s1",
            ("s0", "l2"): "sink",
            ("s1", "l2"): "s0",
            ("s1", "l1"): "sink",
            ("sink", "l1"): "sink",
            ("sink", "l2"): "sink",
        },
        initial="s0",
        finals=("s0",),
    )
