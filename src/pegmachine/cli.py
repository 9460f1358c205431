"""Command-line front end.

Commands: check, desugar, cnf, normalize, compile, extract, run, trace,
bench, fuzz, compose; ``pegmachine <command> -h`` lists a command's
options.  Exit codes: 0 accept/success, 1 reject/ill-formed, 2 invalid
input (a bad option value included), 3 budget exhausted, 4 internal
divergence or an internal error.  The environment variable
``PEGMACHINE_STEP_LIMIT`` overrides the direct engine's default step limit.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from functools import cache, partial
from pathlib import Path

from .closures import (
    CompositionSpec,
    Dpda,
    left_concat_dcfl,
    parse_dfa_text,
    parse_dpda_text,
    pel_complement,
    pel_intersection,
    pel_union,
    reg_closure_machine,
)
from .cooksim import work_bound
from .engines import GRAMMAR_ENGINES, recognize
from .errors import MachineTextError, ToolkitError
from .fuzz import ALPHABET as FUZZ_ALPHABET
from .fuzz import FuzzConfig, run_fuzz
from .peg.ast import Grammar, render_grammar_text
from .peg.parser import parse_grammar_text
from .peg.transform import desugar, to_cnf
from .peg.wellformed import check_well_formed
from .pppda.machine import Machine
from .pppda.normalize import normalize
from .pppda.text import KEYED, REQUIRED, parse_machine_text, read_header, render_machine_text
from .translate import dppda_to_peg, grammar_to_machine

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_DIVERGENCE = 4
_EXIT_OF = {"accept": EXIT_ACCEPT, "reject": EXIT_REJECT, "budget": EXIT_BUDGET}


class _Invalid(Exception):
    def __init__(self, message: str):
        self.message = message


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Invalid(f"cannot read {path}: {exc}") from exc


def _load_any(path: str, parse=None):
    """Grammar, machine, DPDA, DFA or spec: read by ``parse``, else by content sniffing."""
    text = _read(path)
    if parse is None:
        heads = [ln.split() for ln in text.splitlines() if ln.lstrip()[:1] == "@"]
        kind = next((parts[1:] for parts in heads if parts[0] == "@kind"), None)
        keys = {parts[0] for parts in heads}
        if kind == ["dpda"]:
            parse = parse_dpda_text
        elif kind == ["dfa"]:
            parse = parse_dfa_text
        elif keys & {"@dfa", "@bind"}:
            parse = partial(_load_spec, Path(path).parent)
        elif keys & {"@states", "@initial"}:
            parse = parse_machine_text
        else:
            parse = parse_grammar_text
    try:
        return parse(text)
    except ToolkitError as exc:
        raise _Invalid(f"{path}: {exc}") from exc


def _load_spec(base: Path, text: str) -> CompositionSpec:
    """A composition spec, naming files relative to ``base``; ``#`` lines are comments."""
    head, body = read_header(text, {"@dfa": REQUIRED, "@bind": KEYED})
    for lineno, line in body:
        if line.lstrip()[0] != "#":
            raise MachineTextError(f"bad spec line {' '.join(line.split())!r}", lineno)
    dfa = _load_any(str(base / head["@dfa"]), parse_dfa_text)
    bindings = {label: _load_any(str(base / file), parse_dpda_text)
                for label, file in head["@bind"].items()}
    return CompositionSpec(dfa, bindings)


def _word_from(args) -> str:
    if args.input_file is not None:
        return _read(args.input_file).rstrip("\n")
    if args.word is None:
        raise _Invalid("need a WORD argument or --input-file")
    return args.word


def _check_word(word: str, alphabet, what: str = "word") -> None:
    bad = sorted(set(word) - set(alphabet))
    if bad:
        raise _Invalid(f"{what} contains letters outside the alphabet: {bad}")


def _write_out(args, text: str) -> None:
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")


def _step_limit(args) -> int | None:
    if args.step_limit is not None:
        return args.step_limit
    env = os.environ.get("PEGMACHINE_STEP_LIMIT")
    if not env:
        return None
    try:
        return _NON_NEGATIVE(env)
    except argparse.ArgumentTypeError as exc:
        raise _Invalid(f"PEGMACHINE_STEP_LIMIT: {exc}") from None


# --- commands ------------------------------------------------------------------


def cmd_check(args) -> int:
    obj = _load_any(args.path)
    if isinstance(obj, Grammar):
        report = check_well_formed(desugar(obj))
        if report.well_formed:
            print("well-formed")
            for name in obj.nonterminals:
                null = report.nullable.get(name)
                fail = report.can_fail.get(name)
                print(f"  {name}: nullable={null} can_fail={fail}")
            return EXIT_ACCEPT
        print("ill-formed; left-recursive cycle: " + " -> ".join(report.offending_cycle))
        return EXIT_REJECT
    print(f"valid {type(obj).__name__}")
    return EXIT_ACCEPT


def cmd_run(args) -> int:
    if args.trace and args.engine not in (None, "direct"):
        raise _Invalid("--trace needs the direct engine")
    obj = _load_any(args.path)
    word = _word_from(args)
    if isinstance(obj, Grammar):
        _check_word(word, obj.alphabet)
        # A traced grammar is compiled, since only the direct engine traces.
        engine = args.engine or ("direct" if args.trace else "packrat")
        source = desugar(obj) if engine in GRAMMAR_ENGINES else grammar_to_machine(obj)
    elif not isinstance(obj, Machine):
        raise _Invalid("run needs a grammar or machine file")
    elif args.engine in GRAMMAR_ENGINES:
        raise _Invalid("the packrat/naive engines need a grammar; extract one explicitly first")
    else:
        _check_word(word, obj.input_alphabet)
        engine, source = args.engine or "direct", obj
    # --budget bounds the naive engine, --step-limit the direct one.
    budget = args.budget if engine == "naive" else _step_limit(args) if engine == "direct" else None
    report = recognize(engine, source, word, budget, _trace_printer() if args.trace else None)
    print(report.outcome)
    if args.stats and report.counters:
        print("---")
        for key in sorted(report.counters):
            print(f"{engine}.{key}={report.counters[key]}")
    return _EXIT_OF[report.outcome]


def _trace_printer():
    """A ``run_direct`` event callback printing one numbered line per move.

    The columns are the callback's arguments: move number, kind, new state,
    new head, new stack depth and the popped entry's origin (``-`` for a
    push).
    """
    count = itertools.count()

    def print_event(kind: str, state: str, head: int, depth: int, origin: int | None) -> None:
        popped = "-" if origin is None else origin
        print(f"{next(count)}\t{kind}\t{state}\t{head}\t{depth}\t{popped}")

    return print_event


def cmd_desugar(args) -> int:
    g = _load_any(args.path)
    if not isinstance(g, Grammar):
        raise _Invalid("desugar needs a grammar file")
    _write_out(args, render_grammar_text(desugar(g)))
    return EXIT_ACCEPT


def cmd_cnf(args) -> int:
    g = _load_any(args.path)
    if not isinstance(g, Grammar):
        raise _Invalid("cnf needs a grammar file")
    _write_out(args, render_grammar_text(to_cnf(desugar(g))))
    return EXIT_ACCEPT


def cmd_normalize(args) -> int:
    m = _load_any(args.path)
    if not isinstance(m, Machine):
        raise _Invalid("normalize needs a machine file")
    _write_out(args, render_machine_text(normalize(m)))
    return EXIT_ACCEPT


def cmd_compile(args) -> int:
    g = _load_any(args.path)
    if not isinstance(g, Grammar):
        raise _Invalid("compile needs a grammar file")
    _write_out(args, render_machine_text(grammar_to_machine(g)))
    return EXIT_ACCEPT


def cmd_extract(args) -> int:
    m = _load_any(args.path)
    if not isinstance(m, Machine):
        raise _Invalid("extract needs a machine file")
    _write_out(args, render_grammar_text(dppda_to_peg(normalize(m))))
    return EXIT_ACCEPT


def cmd_bench(args) -> int:
    m = _load_any(args.path)
    if not isinstance(m, Machine):
        raise _Invalid("bench needs a machine file")
    if not args.family:
        raise _Invalid("--family needs at least one letter")
    _check_word(args.family, m.input_alphabet, "--family")
    blocks = list(args.family)
    rows = []
    print("n\tcook.ops\tdirect.steps")
    for n in args.sizes:
        word = "".join(ch * n for ch in blocks)
        ops = recognize("cook", m, word).counters["ops"]
        steps = recognize("direct", m, word, _step_limit(args)).counters["steps"]
        rows.append((n, ops, steps))
        print(f"{n}\t{ops}\t{steps}")
        bound = work_bound(m, len(word))
        if ops > bound:
            print(f"work bound exceeded at n={n}: {ops} > {bound}")
            return EXIT_DIVERGENCE
    if args.assert_linear:
        by_n = {n: ops for n, ops, _ in rows}
        for n in args.sizes:
            if 2 * n in by_n:
                ratio = by_n[2 * n] / by_n[n] if by_n[n] else float("inf")
                print(f"ratio {2*n}/{n} = {ratio:.3f}")
                if ratio > 2.2:  # a constant or affine cost reads below 2
                    print("linearity assertion failed")
                    return EXIT_DIVERGENCE
    return EXIT_ACCEPT


def cmd_fuzz(args) -> int:
    config = FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        max_nonterminals=args.max_nonterminals,
        alphabet_size=args.alphabet_size,
        max_word_len=args.max_word_len,
    )
    report = run_fuzz(config)
    print(f"cases={report.cases_run}")
    if report.ok:
        print("no divergence")
        return EXIT_ACCEPT
    div = report.divergence
    print(f"divergence in case {div.case_index} on word {div.word!r}:")
    for engine, verdict in div.verdicts:
        print(f"  {engine}: {verdict}")
    print("shrunk grammar:")
    sys.stdout.write(div.grammar_text)
    return EXIT_DIVERGENCE


def cmd_compose(args) -> int:
    op = args.operation
    files = 1 if op in ("complement", "reg-closure") else 2
    if len(args.paths) != files:
        wanted = "one file" if files == 1 else "two files"
        raise _Invalid(f"{op} takes {wanted}, not {len(args.paths)}")
    if op == "complement":
        g = _require_grammar(args.paths[0])
        _write_out(args, render_grammar_text(pel_complement(g)))
    elif op in ("union", "intersect"):
        g1, g2 = _require_grammar(args.paths[0]), _require_grammar(args.paths[1])
        out = pel_union(g1, g2) if op == "union" else pel_intersection(g1, g2)
        _write_out(args, render_grammar_text(out))
    elif op == "concat-dcfl":
        x = _load_any(args.paths[0])
        if isinstance(x, Dpda):
            dpdas = [x]
        elif isinstance(x, CompositionSpec):
            dpdas = [x.bindings[label] for label in x.dfa.labels]
        else:
            raise _Invalid(
                f"{args.paths[0]}: concat-dcfl needs a DPDA file or a composition spec first"
            )
        y = _load_any(args.paths[1])
        if not isinstance(y, (Grammar, Machine)):
            raise _Invalid(f"{args.paths[1]}: concat-dcfl needs a grammar or machine file second")
        if isinstance(y, Grammar):
            sigma = dict.fromkeys(y.alphabet)
            for d in dpdas:
                sigma.update(dict.fromkeys(d.input_alphabet))
            y = grammar_to_machine(
                Grammar.build(
                    [(n, y.rules[n]) for n in y.nonterminals], axiom=y.axiom, alphabet=tuple(sigma)
                )
            )
        _write_out(args, render_machine_text(left_concat_dcfl(x, y)))
    elif op == "reg-closure":
        spec = _load_any(args.paths[0])
        if not isinstance(spec, CompositionSpec):
            raise _Invalid("reg-closure needs a composition spec file")
        _write_out(args, render_machine_text(reg_closure_machine(spec)))
    else:  # pragma: no cover - argparse forbids
        raise _Invalid(f"unknown compose operation {op!r}")
    return EXIT_ACCEPT


def _require_grammar(path: str) -> Grammar:
    g = _load_any(path)
    if not isinstance(g, Grammar):
        raise _Invalid(f"{path}: expected a grammar file")
    return g


# --- argument parsing ------------------------------------------------------------


def _int_in(low: int, high: int | None = None):
    """An argparse ``type`` for integers from ``low`` to ``high`` (no upper bound if None)."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {value}")
        return value

    return convert


_NON_NEGATIVE = _int_in(0)


def _sizes(text: str) -> list[int]:
    sizes = [_NON_NEGATIVE(s) for s in text.split(",") if s]
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one size")
    return sizes


def _add_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)


def _add_path_output(p: argparse.ArgumentParser, fn) -> None:
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=fn)


def _add_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("word", nargs="?", default=None, metavar="WORD")
    p.add_argument("--input-file", default=None)
    p.add_argument("--engine", choices=["naive", "packrat", "direct", "cook"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--step-limit", type=_NON_NEGATIVE, default=None)
    p.add_argument("--budget", type=_NON_NEGATIVE, default=None)
    p.set_defaults(fn=cmd_run)


def _add_trace(p: argparse.ArgumentParser) -> None:
    _add_run(p)
    p.set_defaults(trace=True)


def _add_bench(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--family", required=True, help="letters; each is repeated n times")
    p.add_argument("--sizes", required=True, type=_sizes, help="comma-separated n values")
    p.add_argument(
        "--assert-linear", action="store_true",
        help="exit 4 if cook's ops grow more than 2.2x from n to 2n",
    )
    p.add_argument("--step-limit", type=_NON_NEGATIVE, default=None)
    p.set_defaults(fn=cmd_bench)


def _add_fuzz(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=_NON_NEGATIVE, default=200)
    p.add_argument("--max-nonterminals", type=_int_in(1), default=4)
    p.add_argument("--alphabet-size", type=_int_in(1, len(FUZZ_ALPHABET)), default=2)
    p.add_argument("--max-word-len", type=_NON_NEGATIVE, default=8)
    p.set_defaults(fn=cmd_fuzz)


def _add_compose(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "operation",
        choices=["complement", "union", "intersect", "concat-dcfl", "reg-closure"],
    )
    p.add_argument("paths", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_compose)


# Each command's help line and the function that adds its arguments, in the
# order the top-level help lists them.
COMMANDS = {
    "check": ("validate a file; well-formedness for grammars", _add_check),
    "desugar": ("desugar and print/write the result", partial(_add_path_output, fn=cmd_desugar)),
    "cnf": ("cnf and print/write the result", partial(_add_path_output, fn=cmd_cnf)),
    "normalize": (
        "normalize and print/write the result",
        partial(_add_path_output, fn=cmd_normalize),
    ),
    "compile": ("compile and print/write the result", partial(_add_path_output, fn=cmd_compile)),
    "extract": ("extract and print/write the result", partial(_add_path_output, fn=cmd_extract)),
    "run": ("run a word against a grammar or machine", _add_run),
    "trace": ("run with a move-by-move trace", _add_trace),
    "bench": ("table of engine costs over a word family", _add_bench),
    "fuzz": ("differential test of all engines", _add_fuzz),
    "compose": ("closure constructions", _add_compose),
}


@cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``command``, or the full parser for None; built on first use.

    Parsing keeps no state in a parser, so one is shared by every call.
    """
    if command is None:
        top = argparse.ArgumentParser(prog="pegmachine", description=__doc__)
        sub = top.add_subparsers(dest="command", required=True)
        for name, (help_, add_arguments) in COMMANDS.items():
            add_arguments(sub.add_parser(name, help=help_))
        return top
    parser = argparse.ArgumentParser(prog=f"pegmachine {command}")
    COMMANDS[command][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's parser alone; the full parser otherwise.

    Each parser is built once per process, on first use (:func:`_parser`).
    The full parser, which lists every command in its usage line, is used
    only for top-level help, a missing or unknown command and unrecognized
    arguments.
    """
    if not argv or argv[0] not in COMMANDS:
        return _parser(None).parse_args(argv)
    args, extra = _parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        _parser(None).parse_args(argv)  # exits with the top-level usage error
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except _Invalid as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_INVALID
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a fault of the toolkit, never a verdict
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
