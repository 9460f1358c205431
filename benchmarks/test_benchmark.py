"""Tests of the benchmark itself: oracle, generators, machine reader, report.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs as I
import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def all_words(sigma: str, max_len: int):
    for k in range(max_len + 1):
        for letters in itertools.product(sigma, repeat=k):
            yield "".join(letters)


# --- oracle ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "grammar, accepted, rejected",
    [
        (
            I.FIG2,
            ["ab", "aab", "aaab", "b", "bc", "bcc"],
            ["", "a", "c", "abb", "abbc", "aabb", "ba", "bca"],
        ),
        (
            I.SEC13_ABC,
            ["abc", "aabbcc", "aaabbbccc"],
            ["", "a", "ab", "abcc", "aabbc", "aabcc", "abbcc", "aabbccc", "cba", "acb"],
        ),
        (
            I.BACKTRACK,
            ["", "ax", "ay", "aaxy", "aayy", "aaayxy"],
            ["a", "x", "axx", "aax", "axa", "aaxyy", "xa"],
        ),
    ],
    ids=["fig2", "sec13-abc", "backtrack"],
)
def test_oracle_hand_written_verdicts(grammar, accepted, rejected):
    oracle = I.Oracle(grammar)
    for word in accepted:
        assert oracle.accepts(word), word
    for word in rejected:
        assert not oracle.accepts(word), word


def test_oracle_covers_every_operator():
    g = I.Grammar(
        (
            ("S", ("seq", (("not", ("t", "b")), ("plus", ("nt", "P")), ("opt", ("t", "b")), ("nt", "Q")))),
            ("P", ("alt", (("t", "a"), ("seq", (("t", "c"), ("any",)))))),
            ("Q", ("seq", (("and", ("star", ("t", "a"))), ("star", ("any",))))),
        ),
        "abc",
    )
    oracle = I.Oracle(g)
    assert oracle.accepts("a")
    assert oracle.accepts("cbb")  # c. then b? then .* swallows the rest
    assert oracle.accepts("acab")
    assert not oracle.accepts("")  # + needs one P
    assert not oracle.accepts("ba")  # !"b" fails


@pytest.mark.parametrize(
    "member, accepted, rejected",
    [
        (I.is_anbncn, ["abc", "aabbcc"], ["", "ab", "aabbc", "abcabc", "acb"]),
        (I.is_anbncn_literal, ["abc", "aabbcc", "abca", "aabbcca", "abcbc"], ["", "aabcc", "acb", "abcc"]),
        (I.is_anbn, ["", "ab", "aabb"], ["a", "ba", "aab", "abab"]),
        (I.is_backtrack, ["", "ax", "aayx"], ["a", "xa", "axy", "aax"]),
        (I.is_astar, ["", "a", "aaa"], ["b", "ab", "aab"]),
        (I.never, [], ["", "a", "aaaa"]),
    ],
    ids=["anbncn", "anbncn-literal", "anbn", "backtrack", "astar", "never"],
)
def test_word_families_hand_written(member, accepted, rejected):
    assert all(member(w) for w in accepted)
    assert not any(member(w) for w in rejected)


@pytest.mark.parametrize(
    "grammar, member, sigma",
    [(I.SEC13_ABC, I.is_anbncn, "abc"), (I.BACKTRACK, I.is_backtrack, "axy")],
    ids=["sec13-abc", "backtrack"],
)
def test_closed_forms_match_the_oracle(grammar, member, sigma):
    oracle = I.Oracle(grammar)
    for word in all_words(sigma, 6):
        assert oracle.accepts(word) == member(word), word


def _fixed_machines():
    pm = run.import_pegmachine()
    return [
        (pm.render_machine_text(pm.builtin_anbncn()), I.is_anbncn_literal, "abc"),
        (I.ORIGIN_SWEEP_MACH, I.is_astar, "ab"),
        (I.TWO_WAY_MACH, I.is_anbn, "ab"),
        (pm.render_machine_text(pm.builtin_loop()), I.never, "a"),
    ]


@pytest.mark.parametrize(
    "text, member, sigma", _fixed_machines(), ids=["anbncn", "origin-sweep", "two-way", "loop"]
)
def test_machine_reader_runs_the_fixed_machines(text, member, sigma):
    m = I.read_machine(text)
    for word in all_words(sigma, 7):
        if member is I.never:
            with pytest.raises(RuntimeError):
                I.machine_accepts(m, word, step_limit=1000)
        else:
            assert I.machine_accepts(m, word) == member(word), word


def test_generated_grammars_round_trip_through_pegmachine():
    pm = run.import_pegmachine()
    rng = random.Random(3)
    for g in [I.small_grammar(rng) for _ in range(20)] + [I.large_grammar(rng, 150, 2550, None)]:
        oracle = I.Oracle(g)
        parsed = pm.parse_grammar_text(I.render_grammar(g))
        assert len(parsed.nonterminals) == len(g.rules)
        for word in [I.random_word(rng, g.alphabet, 8) for _ in range(20)]:
            assert pm.accepts(parsed, word) == oracle.accepts(word), (I.render_grammar(g), word)


def test_state_estimate_tracks_compile(tmp_path):
    pm = run.import_pegmachine()
    g = I.large_grammar(random.Random(5), 150, 2550, None)
    src, out = tmp_path / "g.peg", tmp_path / "g.mach"
    src.write_text(I.render_grammar(g), encoding="utf-8")
    assert run.call(pm.cli, ["compile", str(src), "-o", str(out)])[0] == 0
    delta = I.read_machine(out.read_text(encoding="utf-8")).delta
    states = {q for q, _, _ in delta} | {q for q, _, _ in delta.values()}
    assert abs(len(states) - I.state_estimate(g)) <= 0.05 * len(states)


# --- seeded inputs -----------------------------------------------------------------------


def _inputs(name: str, seed: int, root: Path, items: int) -> tuple[list[list[str]], dict[str, bytes]]:
    pm = run.import_pegmachine()
    workload = WORKLOADS[name](root, random.Random(seed), pm)
    workload.setup(lambda argv: run.call(pm.cli, argv)[0])
    argvs = [
        [a.replace(str(root), "ROOT") for a in item.argv]
        for item in itertools.islice(itertools.chain.from_iterable(workload.rounds()), items)
    ]
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return argvs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    roots = [tmp_path / d for d in ("a", "b", "c")]
    for root in roots:
        root.mkdir()
    first = _inputs(name, 11, roots[0], 40)
    assert first == _inputs(name, 11, roots[1], 40)
    assert first != _inputs(name, 12, roots[2], 40)


@pytest.mark.parametrize("name, rounds", [("long-words", 4), ("large-grammars", 6), ("many-small", 4)])
def test_rounds_hold_the_same_items_whatever_the_seed(name, rounds, tmp_path):
    pm = run.import_pegmachine()
    labels = []
    for seed in (1, 2):
        root = tmp_path / str(seed)
        root.mkdir()
        workload = WORKLOADS[name](root, random.Random(seed), pm)
        workload.setup(lambda argv: run.call(pm.cli, argv)[0])
        first = itertools.islice(workload.rounds(), rounds)
        labels.append([sorted(item.label for item in r) for r in first])
    assert labels[0] == labels[1]


def test_no_command_line_repeats_within_a_stream(tmp_path):
    pm = run.import_pegmachine()
    workload = WORKLOADS["long-words"](tmp_path, random.Random(1), pm)
    workload.setup(lambda argv: run.call(pm.cli, argv)[0])
    argvs = [tuple(item.argv) for item in itertools.islice(itertools.chain.from_iterable(workload.rounds()), 300)]
    assert len(set(argvs)) == len(argvs)


# --- report ------------------------------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == ["long-words", "large-grammars", "many-small"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    text = {tuple(line.split()[::2]) for line in lines[:-1] if not line.startswith("#")}
    shown = wanted + ([] if trace else [{"name": "failed_ratio", "unit": "ratio"}])
    for metric in shown:
        assert (metric["name"], metric["unit"]) in text, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "many-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
