"""Spans around pegmachine's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every pegmachine
module that holds it, including modules that bound it with
``from ... import``, and puts the originals back when it is switched off.
Nothing under ``src/`` is edited.  A span records its name, start, end,
parent span and item; counts are read from the function's arguments and
return value after it returns, inside a ``(trace)`` span of their own so
that the cost of counting stays out of every layer's self time.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

TRACE_SPAN = "(trace)"


def _positions(bound: inspect.BoundArguments) -> int:
    """Cells an engine reads: the word plus both end markers."""
    return len(bound.arguments["word"]) + 2


def _count_packrat(bound, result) -> dict:
    stats = bound.arguments["stats"]
    return {"positions": _positions(bound), "computed": stats["computed"], "lookups": stats["lookups"]}


def _count_naive(bound, result) -> dict:
    # interpret_naive returns only the outcome; the step count comes from
    # re-running its evaluator with a stats dict, inside the (trace) span.
    from pegmachine.peg import interpret

    a = bound.arguments
    stats: dict[str, int] = {}
    raw = interpret._run(a["g"], a["e"], a["word"], a["pos"], a["budget"], None, stats)
    return {"steps": a["budget"] if raw == -2 else a["budget"] - stats["budget_used"]}


def _count_machine(result) -> dict:
    return {
        "states": len(result.states),
        "stack_symbols": len(result.stack_alphabet),
        "transitions": len(result.delta),
    }


# (module, function, layer, count(bound arguments, result) or None)
TRACED: list[tuple[str, str, str, Callable | None]] = [
    ("pegmachine.cli", "main", "cli", None),
    ("pegmachine.peg.parser", "parse_grammar_text", "peg.parser",
     lambda b, r: {"chars": len(b.arguments["text"])}),
    ("pegmachine.pppda.text", "parse_machine_text", "pppda.text",
     lambda b, r: {"transitions": len(r.delta)}),
    ("pegmachine.pppda.text", "render_machine_text", "pppda.text",
     lambda b, r: {"transitions": len(b.arguments["m"].delta)}),
    ("pegmachine.peg.ast", "render_grammar_text", "peg.ast", None),
    ("pegmachine.peg.transform", "desugar", "peg.transform", None),
    ("pegmachine.peg.transform", "to_cnf", "peg.transform",
     lambda b, r: {"rules": len(r.nonterminals)}),
    ("pegmachine.peg.wellformed", "check_well_formed", "peg.wellformed", None),
    ("pegmachine.translate", "peg_to_dppda", "translate", lambda b, r: _count_machine(r)),
    ("pegmachine.translate", "dppda_to_peg", "translate",
     lambda b, r: {"rules": len(r.nonterminals), "nodes": r.node_count}),
    ("pegmachine.pppda.normalize", "normalize", "pppda.normalize", lambda b, r: _count_machine(r)),
    ("pegmachine.pppda.normalize", "desugar_hat_moves", "pppda.normalize", None),
    ("pegmachine.peg.interpret", "interpret_packrat", "peg.interpret", _count_packrat),
    ("pegmachine.peg.interpret", "interpret_naive", "peg.interpret", _count_naive),
    ("pegmachine.pppda.machine", "run_direct", "pppda.machine",
     lambda b, r: {"positions": _positions(b), "steps": r.steps}),
    ("pegmachine.cooksim", "run_linear", "cooksim",
     lambda b, r: {"positions": _positions(b), "ops": r.ops, "table_size": r.table_size}),
    ("pegmachine.closures.boolean", "pel_complement", "closures", None),
    ("pegmachine.closures.boolean", "pel_union", "closures", None),
    ("pegmachine.closures.boolean", "pel_intersection", "closures", None),
    ("pegmachine.closures.concat", "left_concat_dcfl", "closures", lambda b, r: _count_machine(r)),
    ("pegmachine.closures.regclosure", "reg_closure_machine", "closures", lambda b, r: _count_machine(r)),
    ("pegmachine.fuzz", "run_fuzz", "fuzz", lambda b, r: {"cases": r.cases_run}),
]

LAYER_OF = {fn: layer for _, fn, layer, _ in TRACED}

PER_LAYER_UNITS = {
    "cli.self_ms.p50": "ms",
    "peg.parser.self_ms": "ms",
    "peg.parser.chars_per_ms": "chars/ms",
    "pppda.text.parse_self_ms": "ms",
    "pppda.text.render_self_ms": "ms",
    "pppda.text.transitions": "count",
    "peg.transform.desugar_self_ms": "ms",
    "peg.transform.cnf_self_ms": "ms",
    "peg.transform.cnf_rules": "count",
    "peg.wellformed.self_ms": "ms",
    "translate.compile_self_ms": "ms",
    "translate.extract_self_ms": "ms",
    "translate.compile_states": "count",
    "translate.compile_stack_symbols": "count",
    "translate.compile_transitions": "count",
    "translate.extract_rules": "count",
    "translate.extract_nodes": "count",
    "pppda.normalize.self_ms": "ms",
    "pppda.normalize.hat_desugar_self_ms": "ms",
    "pppda.normalize.transitions": "count",
    "peg.interpret.packrat_us_per_char": "us/char",
    "peg.interpret.packrat_memo_computed": "count",
    "peg.interpret.packrat_hit_ratio": "ratio",
    "peg.interpret.naive_steps": "count",
    "pppda.machine.direct_us_per_char": "us/char",
    "pppda.machine.direct_steps_per_char": "steps/char",
    "cooksim.us_per_char": "us/char",
    "cooksim.ops_per_char": "ops/char",
    "cooksim.entries_per_char": "entries/char",
    "cooksim.us_per_op": "us/op",
    "closures.self_ms": "ms",
    "closures.output_transitions": "count",
    "fuzz.cases_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


class Tracer:
    """Keeps spans in memory as ``[id, parent, item, name, start, end, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.item = -1
        self.patches: list[tuple[Any, str, Callable, Callable]] = []
        for module_name, fn_name, _, count in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(fn_name, original, count)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "pegmachine" or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn)
        packrat = name == "interpret_packrat"

        def wrapper(*args, **kwargs):
            # The CLI passes packrat a stats dict; other callers pass none and
            # get one here, so that every call's counters can be read.
            if packrat and len(args) < 3 and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            parent = stack[-1] if stack else -1
            span = [len(spans), parent, self.item, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if count is not None:
                counting = [len(spans), parent, self.item, TRACE_SPAN, perf_counter(), 0.0, None]
                spans.append(counting)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = count(bound, result)
                counting[5] = perf_counter()
            return result

        return wrapper

    def begin(self, item: int) -> None:
        self.item = item
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def end(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)
        self.item = -1

    def write(self, path: Path, env: dict) -> None:
        """One JSON object per line: the environment, then every span."""
        keys = ("id", "parent", "item", "name", "start", "end", "counts")
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"env": env}) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- per-layer metrics --------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def _median_per_item(spans, own, names: set[str]) -> float:
    """Median, over the items that call any of ``names``, of their self ms there."""
    per_item: dict[int, float] = {}
    for s, t in zip(spans, own):
        if s[3] in names:
            per_item[s[2]] = per_item.get(s[2], 0.0) + t
    return statistics.median(per_item.values()) * 1e3 if per_item else 0.0


def _sum(spans, own, name: str, key: str | None = None) -> tuple[float, float, int]:
    """(self seconds, total of count ``key``, calls) over the calls of ``name``.

    With a ``key``, only calls that returned, and so have counts, take part.
    """
    secs = total = 0.0
    calls = 0
    for s, t in zip(spans, own):
        if s[3] != name or (key is not None and s[6] is None):
            continue
        secs += t
        calls += 1
        if key is not None:
            total += s[6][key]
    return secs, total, calls


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    own = self_times(spans)
    med = lambda *names: _median_per_item(spans, own, set(names))  # noqa: E731

    def mean(name: str, key: str) -> float:
        _, total, calls = _sum(spans, own, name, key)
        return _ratio(total, calls)

    m: dict[str, float] = {}
    m["cli.self_ms.p50"] = med("main")

    secs, chars, _ = _sum(spans, own, "parse_grammar_text", "chars")
    m["peg.parser.self_ms"] = med("parse_grammar_text")
    m["peg.parser.chars_per_ms"] = _ratio(chars, secs * 1e3)

    m["pppda.text.parse_self_ms"] = med("parse_machine_text")
    m["pppda.text.render_self_ms"] = med("render_machine_text")
    _, parsed, n_parsed = _sum(spans, own, "parse_machine_text", "transitions")
    _, rendered, n_rendered = _sum(spans, own, "render_machine_text", "transitions")
    m["pppda.text.transitions"] = _ratio(parsed + rendered, n_parsed + n_rendered)

    m["peg.transform.desugar_self_ms"] = med("desugar")
    m["peg.transform.cnf_self_ms"] = med("to_cnf")
    m["peg.transform.cnf_rules"] = mean("to_cnf", "rules")

    m["peg.wellformed.self_ms"] = med("check_well_formed")

    m["translate.compile_self_ms"] = med("peg_to_dppda")
    m["translate.extract_self_ms"] = med("dppda_to_peg")
    m["translate.compile_states"] = mean("peg_to_dppda", "states")
    m["translate.compile_stack_symbols"] = mean("peg_to_dppda", "stack_symbols")
    m["translate.compile_transitions"] = mean("peg_to_dppda", "transitions")
    m["translate.extract_rules"] = mean("dppda_to_peg", "rules")
    m["translate.extract_nodes"] = mean("dppda_to_peg", "nodes")

    m["pppda.normalize.self_ms"] = med("normalize")
    m["pppda.normalize.hat_desugar_self_ms"] = med("desugar_hat_moves")
    m["pppda.normalize.transitions"] = mean("normalize", "transitions")

    secs, positions, _ = _sum(spans, own, "interpret_packrat", "positions")
    _, computed, calls = _sum(spans, own, "interpret_packrat", "computed")
    _, lookups, _ = _sum(spans, own, "interpret_packrat", "lookups")
    m["peg.interpret.packrat_us_per_char"] = _ratio(secs * 1e6, positions)
    m["peg.interpret.packrat_memo_computed"] = _ratio(computed, calls)
    m["peg.interpret.packrat_hit_ratio"] = 1.0 - computed / lookups if lookups else 0.0
    m["peg.interpret.naive_steps"] = mean("interpret_naive", "steps")

    secs, positions, _ = _sum(spans, own, "run_direct", "positions")
    _, steps, _ = _sum(spans, own, "run_direct", "steps")
    m["pppda.machine.direct_us_per_char"] = _ratio(secs * 1e6, positions)
    m["pppda.machine.direct_steps_per_char"] = _ratio(steps, positions)

    secs, positions, _ = _sum(spans, own, "run_linear", "positions")
    _, ops, _ = _sum(spans, own, "run_linear", "ops")
    _, entries, _ = _sum(spans, own, "run_linear", "table_size")
    m["cooksim.us_per_char"] = _ratio(secs * 1e6, positions)
    m["cooksim.ops_per_char"] = _ratio(ops, positions)
    m["cooksim.entries_per_char"] = _ratio(entries, positions)
    m["cooksim.us_per_op"] = _ratio(secs * 1e6, ops)

    builders = [fn for _, fn, layer, _ in TRACED if layer == "closures"]
    m["closures.self_ms"] = med(*builders)
    built = [_sum(spans, own, fn, "transitions") for fn in ("left_concat_dcfl", "reg_closure_machine")]
    m["closures.output_transitions"] = _ratio(sum(b[1] for b in built), sum(b[2] for b in built))

    fuzz_secs = sum(s[5] - s[4] for s in spans if s[3] == "run_fuzz")
    _, cases, _ = _sum(spans, own, "run_fuzz", "cases")
    m["fuzz.cases_per_s"] = _ratio(cases, fuzz_secs)
    return m


def layer_shares(spans: list[list[Any]], item_seconds: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced items' total time."""
    own = self_times(spans)
    shares: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = LAYER_OF.get(s[3], s[3])
        shares[layer] = shares.get(layer, 0.0) + t
    traced = sum(shares.values())
    shares["(harness)"] = item_seconds - traced
    return {k: _ratio(v, item_seconds) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
