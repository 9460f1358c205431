#!/usr/bin/env python3
"""pegmachine benchmark: time from files on disk to a verdict, through the CLI.

Usage, from the repository root::

    python3 benchmarks/run.py --workload long-words --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``long-words``: the engines on words of thousands of letters;
* ``large-grammars``: the toolchain (check, desugar, cnf, compile,
  normalize, extract, compose) on generated grammars of 150 rules;
* ``many-small``: the same layers on tiny grammars and words, where each
  command's fixed costs dominate.

A run takes a fixed number of rounds of items, about ``--seconds`` long on
the machine the rounds were timed on (see ``workloads.py``), so its items
are the same in number and kind whatever the seed.

Load model: closed loop, one client, one process pinned to one CPU, no
threads.  An item is
one in-process call of ``pegmachine.cli.main(argv)`` with its output
captured; the harness sends the next item only after the previous one
returns.  Exceptions are caught per item.  Between items, outside the
timed region, the harness generates the next inputs, checks the item's
verdict or artifact against the oracle, and calls ``gc.collect()``.

Set-up (imports, fixed files, set-up compiles, one warm-up item) runs nine
times, each time in a fresh directory with pegmachine imported afresh, and
``setup_s`` is the median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces a seeded
half of the items and prints the per-layer metrics; the spans are written
to ``benchmarks/_work/spans-<workload>-seed<seed>.jsonl``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
item printed a wrong verdict or wrote a wrong artifact; ``failed`` also
counts items that raised or exited with an unexpected code.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, layer_shares
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUPS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Result:
    label: str
    round: int
    seconds: float
    cause: str | None  # None when the item is ok
    traced: bool


def import_pegmachine() -> SimpleNamespace:
    """Import pegmachine from this checkout's ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pegmachine"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pegmachine.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pegmachine was imported from {cli.__file__}, not from {SRC}")
    peg = importlib.import_module("pegmachine.peg")
    pppda = importlib.import_module("pegmachine.pppda")
    closures = importlib.import_module("pegmachine.closures")
    return SimpleNamespace(
        cli=cli,
        parse_grammar_text=peg.parse_grammar_text,
        accepts=peg.accepts,
        render_machine_text=pppda.render_machine_text,
        builtin_anbncn=pppda.builtin_anbncn,
        builtin_loop=pppda.builtin_loop,
        CompositionSpec=closures.CompositionSpec,
        parse_dfa_text=closures.parse_dfa_text,
        parse_dpda_text=closures.parse_dpda_text,
        brute_force_membership=closures.brute_force_membership,
    )


def call(cli, argv: list[str]) -> tuple[int | None, str, BaseException | None, float]:
    """Run one command in-process: (exit code, stdout, exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None = None
    exc: BaseException | None = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as stop:  # argparse rejects a command line
            rc = stop.code if isinstance(stop.code, int) else 2
        except Exception as error:  # counted as a failed item, with its type
            exc = error
        seconds = perf_counter() - start
    return rc, out.getvalue(), exc, seconds


def classify(item, rc: int | None, stdout: str, exc: BaseException | None) -> str | None:
    if exc is not None:
        return f"exception {type(exc).__name__}"
    if rc != item.expect:
        if rc in (0, 1) and item.expect in (0, 1):
            return "wrong verdict"
        return f"unexpected exit code {rc}"
    if item.check is not None:
        try:
            problem = item.check(stdout)
        except Exception as error:  # an unreadable artifact is a wrong output
            problem = f"artifact check raised {type(error).__name__}: {error}"
        if problem:
            return f"wrong output: {problem}"
    return None


def set_up(workload_cls, seed: int, run_dir: Path):
    """Run the set-up ``SETUPS`` times; return the last workload and all times."""
    times = []
    for i in range(SETUPS):
        gc.collect()
        start = perf_counter()
        pm = import_pegmachine()
        root = run_dir / f"setup{i}"
        root.mkdir(parents=True)
        workload = workload_cls(root, random.Random(seed), pm)
        warm = workload.setup(lambda argv: call(pm.cli, argv)[0])
        rc, stdout, exc, _ = call(pm.cli, warm.argv)
        if classify(warm, rc, stdout, exc) is not None:
            raise RuntimeError(f"warm-up item failed: {' '.join(warm.argv)}")
        times.append(perf_counter() - start)
    return workload, pm, times


def run_items(workload, pm, rounds: int, tracer, coin: random.Random) -> tuple[list[Result], int]:
    """Closed loop over the items of the workload's first ``rounds`` rounds."""
    results: list[Result] = []
    seen: set[tuple[str, ...]] = set()
    skipped = 0
    for index, round_ in enumerate(itertools.islice(workload.rounds(), rounds)):
        for item in round_:
            key = tuple(item.argv)
            if key in seen or (item.needs is not None and not item.needs.exists()):
                skipped += 1  # a repeat, or an earlier item failed to write the input
                continue
            seen.add(key)
            traced = tracer is not None and coin.random() < 0.5
            gc.collect()
            if traced:
                tracer.begin(len(results))
            rc, stdout, exc, elapsed = call(pm.cli, item.argv)
            if traced:
                tracer.end()
            cause = classify(item, rc, stdout, exc)
            results.append(Result(item.label, index, elapsed, cause, traced))
    return results, skipped


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def pin_to_one_cpu() -> int:
    """Keep this process on the first CPU it may use; return that CPU.

    The benchmark is one thread.  On a shared host the CPUs of a small VM
    run at different speeds from minute to minute, as their neighbours
    load them; a process that the scheduler moves between them takes on
    every difference.  Pinned, runs of long-words spread about a third as
    much: IQR/median of items_per_s 0.07 pinned and 0.23 unpinned, five
    seeds each, run in alternation on a 2-vCPU VM.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        try:
            workload, pm, setup_times = set_up(WORKLOADS[args.workload], args.seed, run_dir)
        except ImportError as error:
            print(f"error: cannot import pegmachine from {SRC}: {error}", file=sys.stderr)
            return 2
        setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = Tracer() if args.trace else None
        rounds = max(1, round(args.seconds / workload.ROUND_SECONDS))
        start = perf_counter()
        results, skipped = run_items(workload, pm, rounds, tracer, random.Random(args.seed))
        measured = perf_counter() - start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not results:
        print("error: no item ran", file=sys.stderr)
        return 3

    print(f"# pegmachine benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "cpu": cpu,
        "commit": commit(),
        "seed": args.seed,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {rounds} rounds of {workload.ROUND_SECONDS:g} s nominal took {measured:.1f} s")
    by_round = [0.0] * rounds
    for r in results:
        by_round[r.round] += r.seconds
    print(f"# peak RSS after set-up: {setup_rss:.1f} MiB")
    print("# item seconds by round: " + " ".join(f"{t:.2f}" for t in by_round))

    failed = [r for r in results if r.cause is not None]
    ok = [r for r in results if r.cause is None]
    correct = not any(r.cause.startswith(("wrong verdict", "wrong output")) for r in failed)
    failed_ratio = len(failed) / len(results)
    print(f"# items: {len(results)} attempted, {len(ok)} ok, {len(failed)} failed, "
          f"{skipped} skipped")
    for i, r in enumerate(results):
        if r.cause is not None:
            print(f"#   failed item {i}: {r.label}: {r.cause}")

    if args.trace:
        metrics = trace_report(tracer, results, failed_ratio, args, env)
    else:
        metrics = end_to_end_report(results, setup_times, failed_ratio)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end_report(results, setup_times, failed_ratio) -> dict[str, tuple[float, str]]:
    times_ms = [r.seconds * 1e3 for r in results if r.cause is None] or [0.0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "item_ms.p50": statistics.median(times_ms),
        "item_ms.p90": p90(times_ms),
        "items_per_s": sum(r.cause is None for r in results) / sum(r.seconds for r in results),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for t in times_ms if t > metrics["item_ms.p90"])
    print(f"# item times over {len(times_ms)} ok items; {beyond} lie beyond p90")
    print(f"# setup_s over {len(setup_times)} set-ups: "
          + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"{'failed_ratio':<22} {failed_ratio:>14.6f} ratio")
    out = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    for name, (value, unit) in out.items():
        print(f"{name:<22} {value:>14.6f} {unit}")
    return out


def overhead_ratio(results: list[Result]) -> float:
    """Median, over kinds of item, of traced over untraced median item time.

    Items of one kind (command and target, less the per-chain or per-group
    number) cost alike, so comparing within a kind keeps the coin that
    picks the traced items from comparing cheap items with dear ones.
    """
    times: dict[tuple[str, bool], list[float]] = {}
    for r in results:
        if r.cause is None:
            times.setdefault((re.sub(r"\d+", "#", r.label), r.traced), []).append(r.seconds)
    ratios = [
        statistics.median(times[kind, True]) / statistics.median(times[kind, False])
        for kind, traced in times
        if traced and (kind, False) in times
    ]
    return statistics.median(ratios) if ratios else 0.0


def trace_report(tracer, results, failed_ratio, args, env) -> dict[str, tuple[float, str]]:
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", env)
    values = layer_metrics(tracer.spans)
    values["trace.overhead_ratio"] = overhead_ratio(results)
    values["failed_ratio"] = failed_ratio
    print(f"# traced {sum(r.traced for r in results)} of {len(results)} items; "
          f"{len(tracer.spans)} spans")
    print("# share of traced item time, by layer (self time):")
    traced_seconds = sum(r.seconds for r in results if r.traced)
    for layer, share in layer_shares(tracer.spans, traced_seconds).items():
        print(f"#   {layer:<20} {share:8.2%}")
    out = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    for name, (value, unit) in out.items():
        print(f"{name:<40} {value:>14.6f} {unit}")
    return out


if __name__ == "__main__":
    sys.exit(main())
