"""Reference recognizers for core grammars.

Both engines implement the same recursive outcome function over
expressions and input positions:

* empty succeeds in place; a letter consumes itself or fails;
* a nonterminal behaves as its rule body;
* a sequence runs its right part on the left part's leftover, failing if
  either part fails;
* an ordered choice runs its second alternative only when the first fails;
* a negation succeeds consuming nothing when its inner expression fails,
  and fails when it succeeds.

The word is accepted exactly when the axiom consumes all of it.  The
naive engine applies the clauses under a step budget and reports
``Diverged`` when the budget is exhausted, so ill-formed grammars can be
probed safely.  The packrat engine memoizes rule invocations by
``(rule, position)``, computing each entry at most once; evaluation is
iterative (explicit task stack), so deep grammars cannot overflow the
host stack.
"""

from __future__ import annotations

from ..errors import NotCoreError, ToolkitError
from .ast import (
    Choice,
    Consumed,
    DIVERGED,
    Empty,
    Expression,
    FAILURE,
    Grammar,
    Nonterminal,
    Not,
    ParseOutcome,
    Sequence,
    Terminal,
)

DEFAULT_BUDGET = 10**6

# Internal outcome encoding: resume offset >= 0, or one of these.
_FAIL = -1

# Task opcodes for the explicit evaluation stack.
_EVAL, _SEQ2, _ALT2, _NOT2, _SET = 0, 1, 2, 3, 4

_IN_PROGRESS = object()


class LeftRecursionError(ToolkitError):
    """The memoized engine re-entered an entry it was computing.

    Only possible on ill-formed grammars, which violate the engine's
    precondition; raised instead of looping forever.
    """


def _run(
    g: Grammar,
    root: Expression,
    word: str,
    pos: int,
    budget: int | None,
    memo: dict[int, object] | None,
    stats: dict[str, int] | None,
) -> int:
    rules = g.rules
    n = len(word)
    stride = n + 2
    rule_index = {name: i for i, name in enumerate(g.nonterminals)} if memo is not None else None
    lookups = 0
    computed = 0
    tasks: list[tuple] = [(_EVAL, root, pos)]
    val = _FAIL
    while tasks:
        task = tasks.pop()
        op = task[0]
        if op == _EVAL:
            e, p = task[1], task[2]
            if budget is not None:
                budget -= 1
                if budget < 0:
                    return -2
            t = e.__class__
            if t is Terminal:
                val = p + 1 if p < n and word[p] == e.symbol else _FAIL
            elif t is Empty:
                val = p
            elif t is Nonterminal:
                # Only rule invocations are memoized, keyed by rule so that
                # every reference site shares the entry; structural nodes
                # are cheaper to recompute than to table.
                if memo is not None:
                    key = rule_index[e.name] * stride + p
                    lookups += 1
                    hit = memo.get(key)
                    if hit is not None:
                        if hit is _IN_PROGRESS:
                            raise LeftRecursionError(
                                f"left recursion at {e.name!r} position {p}"
                            )
                        val = hit  # type: ignore[assignment]
                        continue
                    memo[key] = _IN_PROGRESS
                    tasks.append((_SET, key))
                tasks.append((_EVAL, rules[e.name], p))
            elif t is Sequence:
                tasks.append((_SEQ2, e.right))
                tasks.append((_EVAL, e.left, p))
            elif t is Choice:
                tasks.append((_ALT2, e.second, p))
                tasks.append((_EVAL, e.first, p))
            elif t is Not:
                tasks.append((_NOT2, p))
                tasks.append((_EVAL, e.inner, p))
            else:
                raise NotCoreError(f"interpreter needs a core-only grammar, saw {e!r}")
        elif op == _SEQ2:
            if val != _FAIL:
                tasks.append((_EVAL, task[1], val))
        elif op == _ALT2:
            if val == _FAIL:
                tasks.append((_EVAL, task[1], task[2]))
        elif op == _NOT2:
            val = task[1] if val == _FAIL else _FAIL
        else:  # _SET
            memo[task[1]] = val  # type: ignore[index]
            computed += 1
    if stats is not None:
        stats["lookups"] = lookups
        stats["computed"] = computed
        if budget is not None:
            stats["budget_used"] = budget
    return val


def _wrap(raw: int) -> ParseOutcome:
    if raw == -2:
        return DIVERGED
    if raw == _FAIL:
        return FAILURE
    return Consumed(raw)


def interpret_naive(
    g: Grammar,
    e: Expression,
    word: str,
    pos: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ParseOutcome:
    """Budgeted clause-by-clause evaluation of ``e`` at ``pos``.

    Returns ``Diverged`` once ``budget`` clause applications are spent;
    this is a value, not an error, so left-recursive grammars can be run.
    """
    return _wrap(_run(g, e, word, pos, budget, None, None))


def interpret_packrat(
    g: Grammar,
    word: str,
    stats: dict[str, int] | None = None,
) -> ParseOutcome:
    """Memoized recognition of ``word`` starting at the axiom.

    Requires a well-formed core grammar.  The memo table is per-invocation;
    at most ``len(nonterminals) * (len(word) + 1)`` entries are ever
    computed, each exactly once.  Pass a ``stats`` dict to receive
    ``computed`` and ``lookups`` counters.
    """
    memo: dict[int, object] = {}
    return _wrap(_run(g, g.rules[g.axiom], word, 0, None, memo, stats))


def accepts(g: Grammar, word: str) -> bool:
    """Whole-input acceptance: the axiom must consume every letter.

    Sugar is expanded on the fly; the grammar must be well-formed after
    desugaring.
    """
    if not g.is_core:
        g = _desugared(g)
    return interpret_packrat(g, word) == Consumed(len(word))


def _desugared(g: Grammar) -> Grammar:
    cached = g.__dict__.get("_desugared_cache")
    if cached is None:
        from .transform import desugar

        cached = desugar(g)
        g.__dict__["_desugared_cache"] = cached
    return cached
