"""One verdict path for the four recognition engines: :func:`recognize`.

Each engine is called by its module-global name, so that code which
replaces the name (a tracer, a test's fault injection) is seen here too.
"""

from __future__ import annotations

from typing import NamedTuple

from .cooksim import run_linear
from .peg.ast import DIVERGED, Consumed
from .peg.interpret import DEFAULT_BUDGET, interpret_naive, interpret_packrat
from .pppda.machine import ACCEPT, BUDGET, REJECT, run_direct

GRAMMAR_ENGINES = ("naive", "packrat")


class RunReport(NamedTuple):
    engine: str
    outcome: str  # accept / reject / budget
    counters: dict[str, int]  # packrat: computed, lookups; direct: steps; cook: ops


def recognize(
    engine: str, source, word: str, budget: int | None = None, on_event=None
) -> RunReport:
    """Run ``word`` through ``engine`` on ``source``: a core grammar for the
    naive and packrat engines, a machine for the direct and cook engines.

    ``budget`` bounds the naive engine's clause applications (default
    :data:`DEFAULT_BUDGET`) and the direct engine's moves (default
    :func:`default_step_limit`); ``on_event`` goes to :func:`run_direct`.
    """
    if engine == "naive":
        limit = DEFAULT_BUDGET if budget is None else budget
        out = interpret_naive(source, source.rules[source.axiom], word, 0, limit)
        return RunReport(engine, BUDGET if out is DIVERGED else _whole(out, word), {})
    if engine == "packrat":
        stats: dict[str, int] = {}
        return RunReport(engine, _whole(interpret_packrat(source, word, stats), word), stats)
    if engine == "direct":
        run = run_direct(source, word, budget, on_event)
        return RunReport(engine, run.outcome, {"steps": run.steps})
    if engine == "cook":
        run = run_linear(source, word)
        return RunReport(engine, run.outcome, {"ops": run.ops})
    raise ValueError(f"unknown engine {engine!r}")


def _whole(outcome, word: str) -> str:
    return ACCEPT if outcome == Consumed(len(word)) else REJECT
