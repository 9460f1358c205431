"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion is exact (no tolerances beyond the stated work
ratio window).
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from pegmachine.closures import (
    CompositionSpec,
    LabeledDfa,
    brute_force_membership,
    dpda_run,
    left_concat_dcfl,
    pel_complement,
    pel_intersection,
    pel_union,
    reg_closure_machine,
)
from pegmachine.cooksim import run_linear, work_bound_check
from pegmachine.fuzz import FuzzConfig, random_cnf_grammar, random_general_grammar, run_fuzz
from pegmachine.peg import (
    Consumed,
    accepts,
    desugar,
    interpret_naive,
    interpret_packrat,
    parse_grammar_text,
    to_cnf,
)
from pegmachine.pppda import (
    Configuration,
    builtin_anbncn,
    builtin_loop,
    normalize,
    run_direct,
)
from pegmachine.translate import dppda_to_peg, grammar_to_machine, peg_to_dppda

from conftest import (
    FIG2_TEXT,
    SEC13_ABC_TEXT,
    SEC13_UNION_TEXT,
    all_words,
    child_env,
    configurations,
    dfa_pairs,
    dpda_anbn,
    dpda_cmd,
    dpda_single,
    traced,
)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{mark}] {name}{suffix}")
    assert ok, name


# --- criterion 1: worked-run trace replay ------------------------------------------


RUN_CHECKPOINTS = [
    ("q0", (("Z0", 0),), 0),
    ("q0", (("Y", 1), ("Z0", 0)), 1),
    ("q0", (("X", 2), ("Y", 1), ("Z0", 0)), 2),
    ("q0", (("X", 4), ("X", 3), ("X", 2), ("Y", 1), ("Z0", 0)), 4),
    ("q0", (("X", 3), ("X", 2), ("Y", 1), ("Z0", 0)), 5),
    ("q0", (("Y", 1), ("Z0", 0)), 7),
    ("q1", (("Z0", 0),), 1),
    ("q1", (("Z0", 0),), 4),
    ("q1", (("X", 5), ("Z0", 0)), 5),
    ("q1", (("X", 7), ("X", 6), ("X", 5), ("Z0", 0)), 7),
    ("q1", (("X", 6), ("X", 5), ("Z0", 0)), 8),
    ("q1", (("Z0", 0),), 10),
    ("qf", (), 10),
]


def test_criterion_1_trace_replay():
    start = time.time()
    md = builtin_anbncn()
    run, events = traced(md, "aaabbbccc")
    configs = configurations(md, "aaabbbccc")
    ok = run.outcome == "accept"
    # The engine's events replay the reference run move by move.
    ok = ok and [ev[1:4] for ev in events] == [(c.state, c.head, len(c.stack)) for c in configs[1:]]
    expected = [Configuration(*c) for c in RUN_CHECKPOINTS]
    it = iter(configs)
    for want in expected:
        if not any(got == want for got in it):
            ok = False
            break
    ok = ok and configs[0] == expected[0] and configs[-1] == expected[-1]
    elapsed = time.time() - start
    _verdict("criterion 1: trace replay on aaabbbccc", ok and elapsed < 1.0, f"{elapsed:.2f}s")


# --- criterion 2: worked example acceptance ------------------------------------------


def test_criterion_2_paper_examples():
    start = time.time()
    fig2 = parse_grammar_text(FIG2_TEXT)
    machine = grammar_to_machine(fig2)
    core = desugar(fig2)
    ok = True
    for word, want in (("aab", True), ("abbc", False)):
        naive = interpret_naive(core, core.rules[core.axiom], word, 0) == Consumed(len(word))
        packrat = accepts(fig2, word)
        direct = run_direct(machine, word).outcome == "accept"
        cook = run_linear(machine, word).outcome == "accept"
        ok = ok and naive == packrat == direct == cook == want

    union = parse_grammar_text(SEC13_UNION_TEXT)
    for word in all_words("abc", 9):
        half = len(word) // 2
        want = len(word) % 2 == 0 and word in (
            "a" * half + "b" * half,
            "a" * half + "c" * half,
        )
        if accepts(union, word) != want:
            ok = False
            break

    abc = parse_grammar_text(SEC13_ABC_TEXT)
    for word in all_words("abc", 9):
        third = len(word) // 3
        want = word != "" and len(word) % 3 == 0 and word == "a" * third + "b" * third + "c" * third
        if accepts(abc, word) != want:
            ok = False
            break
    elapsed = time.time() - start
    _verdict("criterion 2: worked-example acceptance", ok and elapsed < 10, f"{elapsed:.1f}s")


# --- criteria 3 and 4: translation equivalences ----------------------------------------


def _cnf_corpus(count: int, seed: int = 1):
    rng = random.Random(seed)
    return [random_cnf_grammar(rng, 6, 2) for _ in range(count)]


WORDS6 = None


def _words6():
    global WORDS6
    if WORDS6 is None:
        WORDS6 = list(all_words("ab", 6))
    return WORDS6


def test_criterion_3_compile_equivalence():
    start = time.time()
    mismatches = 0
    for g in _cnf_corpus(500):
        machine = peg_to_dppda(g)
        for word in _words6():
            want = interpret_packrat(g, word) == Consumed(len(word))
            got = run_direct(machine, word).outcome == "accept"
            if want != got:
                mismatches += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 3: grammar-to-machine equivalence (500 grammars, |w|<=6)",
        mismatches == 0 and elapsed < 300,
        f"{elapsed:.0f}s, {mismatches} mismatches",
    )


def test_criterion_4_extract_equivalence():
    start = time.time()
    mismatches = 0
    for g in _cnf_corpus(500):
        machine = peg_to_dppda(g)
        extracted = desugar(dppda_to_peg(normalize(machine)))
        for word in _words6():
            want = run_direct(machine, word).outcome == "accept"
            got = interpret_packrat(extracted, word) == Consumed(len(word))
            if want != got:
                mismatches += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 4: machine-to-grammar equivalence (500 grammars, |w|<=6)",
        mismatches == 0 and elapsed < 600,
        f"{elapsed:.0f}s, {mismatches} mismatches",
    )


# --- criterion 5: linear-time simulation ----------------------------------------------


def test_criterion_5_linearity_and_loops():
    start = time.time()
    md = builtin_anbncn()
    ops = {}
    ok = True
    for n in (50, 100, 200, 400):
        word = "a" * n + "b" * n + "c" * n
        report = work_bound_check(md, word)
        ok = ok and report.ok
        ops[n] = report.ops
    ratios = [ops[2 * n] / ops[n] for n in (50, 100, 200)]
    ok = ok and all(1.8 <= r <= 2.2 for r in ratios)

    loop = builtin_loop()
    for n in list(range(65)) + [100, 1000, 5000, 10_000]:
        word = "a" * n
        t0 = time.time()
        lin = run_linear(loop, word)
        ok = ok and (lin.outcome, lin.reason) == ("reject", "loop")
        ok = ok and (time.time() - t0) < 0.01
    elapsed = time.time() - start
    _verdict(
        "criterion 5: linear work growth and constant-time loop rejection",
        ok and elapsed < 30,
        f"ratios={['%.2f' % r for r in ratios]}, {elapsed:.1f}s",
    )


# --- criterion 6: normal-form conversion preserves acceptance ----------------------------


def test_criterion_6_cnf_preservation():
    start = time.time()
    rng = random.Random(6)
    mismatches = 0
    for _ in range(200):
        g = random_general_grammar(rng, 4, 2)
        cnf = to_cnf(desugar(g))
        for word in _words6():
            if accepts(g, word) != accepts(cnf, word):
                mismatches += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 6: normal-form conversion preserves acceptance (200 grammars)",
        mismatches == 0 and elapsed < 120,
        f"{elapsed:.0f}s, {mismatches} mismatches",
    )


# --- criterion 7: Boolean closure --------------------------------------------------------


def test_criterion_7_boolean_closure():
    start = time.time()
    rng = random.Random(7)
    mismatches = 0
    for _ in range(50):
        g1 = random_general_grammar(rng, 3, 2)
        g2 = random_general_grammar(rng, 3, 2)
        comp = pel_complement(g1)
        union = pel_union(g1, g2)
        inter = pel_intersection(g1, g2)
        for word in _words6():
            a = accepts(g1, word)
            b = accepts(g2, word)
            if accepts(comp, word) != (not a):
                mismatches += 1
            if accepts(union, word) != (a or b):
                mismatches += 1
            if accepts(inter, word) != (a and b):
                mismatches += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 7: Boolean combinators match the truth tables (50 pairs)",
        mismatches == 0 and elapsed < 120,
        f"{elapsed:.0f}s, {mismatches} mismatches",
    )


# --- criterion 8: concatenation and regular closure ----------------------------------------


def test_criterion_8_composition_oracles():
    start = time.time()
    ok = True

    # Left concatenation: {a^n b^n} . {c^m}.
    x = dpda_anbn()
    y_grammar = parse_grammar_text('@alphabet "abc"\nS <- "c" S / ""')
    concat = left_concat_dcfl(x, grammar_to_machine(y_grammar))
    for word in all_words("abc", 8):
        want = any(
            dpda_run(x, word[:k]) == "accept" and accepts(y_grammar, word[k:])
            for k in range(len(word) + 1)
        )
        if (run_linear(concat, word).outcome == "accept") != want:
            ok = False
            break

    specs = [
        CompositionSpec(dfa_pairs(), {"l1": dpda_anbn(), "l2": dpda_cmd()}),
        CompositionSpec(
            LabeledDfa(
                states=("t0", "t1"),
                labels=("l1",),
                delta={("t0", "l1"): "t1", ("t1", "l1"): "t1"},
                initial="t0",
                finals=("t1",),
            ),
            {"l1": dpda_anbn()},
        ),
        CompositionSpec(
            LabeledDfa(
                states=("u0", "u1"),
                labels=("l1", "l2"),
                delta={
                    ("u0", "l1"): "u1",
                    ("u0", "l2"): "u1",
                    ("u1", "l1"): "u1",
                    ("u1", "l2"): "u1",
                },
                initial="u0",
                finals=("u1",),
            ),
            {"l1": dpda_single("a"), "l2": dpda_single("b")},
        ),
    ]
    alphabets = ["abcd", "ab", "ab"]
    for spec, sigma in zip(specs, alphabets):
        machine = reg_closure_machine(spec)
        cache: dict = {}
        for word in all_words(sigma, 8):
            want = brute_force_membership(spec, word, cache)
            if (run_linear(machine, word).outcome == "accept") != want:
                ok = False
                break
    elapsed = time.time() - start
    _verdict(
        "criterion 8: compositions agree with the factorization oracle (3 specs)",
        ok and elapsed < 120,
        f"{elapsed:.0f}s",
    )


# --- criterion 9: cross-engine fuzz -----------------------------------------------------


def test_criterion_9_fuzz():
    start = time.time()
    report = run_fuzz(FuzzConfig(seed=1, cases=200))
    elapsed = time.time() - start
    _verdict(
        "criterion 9: five-engine differential fuzz (seed 1, 200 cases)",
        report.ok and elapsed < 300,
        f"{elapsed:.0f}s",
    )


def test_criterion_9_cli_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "pegmachine.cli", "fuzz", "--seed", "1", "--cases", "200"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=child_env(),
    )
    _verdict("criterion 9: fuzz CLI exits 0", proc.returncode == 0)
