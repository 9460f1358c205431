import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIG2_TEXT, child_env, dfa_pairs, dpda_anbn, dpda_cmd, dpda_single
from pegmachine import cli, engines
from pegmachine.closures import render_dfa_text, render_dpda_text
from pegmachine.pppda import builtin_anbncn, builtin_loop, builtin_sweep, render_machine_text

PKG_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pegmachine.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
        env=child_env(env),
    )


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "fig2.peg"
    path.write_text(FIG2_TEXT)
    return str(path)


def test_check_well_formed(fig2_file):
    proc = run_cli("check", fig2_file)
    assert proc.returncode == 0
    assert "well-formed" in proc.stdout


def test_check_left_recursive(tmp_path):
    path = tmp_path / "bad.peg"
    path.write_text('A <- A "a" / "a"\n')
    proc = run_cli("check", str(path))
    assert proc.returncode == 1
    assert "A" in proc.stdout


def test_check_syntax_error(tmp_path):
    path = tmp_path / "syn.peg"
    path.write_text('A <- "ab\n')
    proc = run_cli("check", str(path))
    assert proc.returncode == 2


def test_run_exit_codes(fig2_file):
    assert run_cli("run", fig2_file, "aab", "--engine", "packrat").returncode == 0
    assert run_cli("run", fig2_file, "abbc", "--engine", "packrat").returncode == 1
    assert run_cli("run", fig2_file, "xyz").returncode == 2


def test_run_first_line_is_verdict(fig2_file):
    proc = run_cli("run", fig2_file, "aab", "--engine", "cook", "--stats")
    lines = proc.stdout.splitlines()
    assert lines[0] == "accept"
    assert "---" in lines
    assert any(line.startswith("cook.ops=") for line in lines)


def test_run_all_engines_agree(fig2_file):
    for engine in ("naive", "packrat", "direct", "cook"):
        assert run_cli("run", fig2_file, "aab", "--engine", engine).returncode == 0
        assert run_cli("run", fig2_file, "abbc", "--engine", engine).returncode == 1


def test_stats_print_each_engines_counters(fig2_file, capsys):
    for engine in ("naive", "packrat", "direct", "cook"):
        assert cli.main(["run", fig2_file, "aab", "--engine", engine, "--stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "accept"
        if engine == "naive":  # the naive engine counts nothing
            assert lines == ["accept"]
            continue
        assert lines[1] == "---" and len(lines) > 2
        for line in lines[2:]:
            assert re.fullmatch(rf"{engine}\.[a-z_]+=\d+", line), line


def test_run_reaches_the_engine_by_its_module_global_name(fig2_file, monkeypatch, capsys):
    """A replaced ``pegmachine.engines.run_linear`` decides ``run --engine cook``."""
    real = engines.run_linear
    words = []

    def flipped(m, word):
        words.append(word)
        return real(m, word)._replace(outcome="reject")

    monkeypatch.setattr(engines, "run_linear", flipped)
    assert cli.main(["run", fig2_file, "aab", "--engine", "cook"]) == 1
    assert capsys.readouterr().out == "reject\n"
    assert words == ["aab"]


def test_empty_word_against_empty_rule(tmp_path):
    path = tmp_path / "eps.peg"
    path.write_text('S <- ""\n')
    proc = run_cli("run", str(path), "--input-file", os.devnull)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "accept"


def test_compile_run_and_determinism(fig2_file, tmp_path):
    out1 = tmp_path / "m1.mach"
    out2 = tmp_path / "m2.mach"
    assert run_cli("compile", fig2_file, "-o", str(out1)).returncode == 0
    assert run_cli("compile", fig2_file, "-o", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run_cli("run", str(out1), "aab").returncode == 0
    assert run_cli("run", str(out1), "abbc").returncode == 1
    assert run_cli("run", str(out1), "aab", "--engine", "cook").returncode == 0


def test_machine_needs_explicit_extraction(fig2_file, tmp_path):
    out = tmp_path / "m.mach"
    run_cli("compile", fig2_file, "-o", str(out))
    proc = run_cli("run", str(out), "aab", "--engine", "packrat")
    assert proc.returncode == 2


def test_extract_pipeline(fig2_file, tmp_path):
    mach = tmp_path / "m.mach"
    peg = tmp_path / "x.peg"
    assert run_cli("compile", fig2_file, "-o", str(mach)).returncode == 0
    assert run_cli("extract", str(mach), "-o", str(peg)).returncode == 0
    assert run_cli("run", str(peg), "aab", "--engine", "packrat").returncode == 0
    assert run_cli("run", str(peg), "abbc", "--engine", "packrat").returncode == 1


ANBNCN_SOURCE = """\
@twoway no
@states q0 q1 qf
@initial q0
@final qf
@bottom Z0
@alphabet "abc"
q0 < Z0 -> q0 Y right
q0 "a" Y -> q0 X right
q0 "a" X -> q0 X right
q0 "b" X -> q0 - right
q0 "c" Y -> q1 - up
q1 "a" Z0 -> q1 - hatright
q1 "b" Z0 -> q1 X right
q1 "b" X -> q1 X right
q1 "c" X -> q1 - right
q1 > Z0 -> qf - down
"""


def test_normalize_extract_machine_pipeline(tmp_path):
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    norm = tmp_path / "norm.mach"
    peg = tmp_path / "anbncn.peg"
    assert run_cli("normalize", str(mach), "-o", str(norm)).returncode == 0
    assert run_cli("extract", str(norm), "-o", str(peg)).returncode == 0
    assert run_cli("run", str(peg), "aabbcc", "--engine", "packrat").returncode == 0
    assert run_cli("run", str(peg), "aabbc", "--engine", "packrat").returncode == 1
    # The machine itself agrees, under both machine engines.
    assert run_cli("run", str(mach), "aabbcc").returncode == 0
    assert run_cli("run", str(mach), "aabbcc", "--engine", "cook").returncode == 0


def test_concat_accepts_prebuilt_machine_file(tmp_path):
    """Compiled-machine metadata survives the file round trip."""
    dpda_file = tmp_path / "a.dpda"
    dpda_file.write_text(render_dpda_text(dpda_single("a")))
    grammar = tmp_path / "b.peg"
    grammar.write_text('@alphabet "ab"\nS <- "b"\n')
    mach = tmp_path / "b.mach"
    assert run_cli("compile", str(grammar), "-o", str(mach)).returncode == 0
    out = tmp_path / "ab.mach"
    assert run_cli(
        "compose", "concat-dcfl", str(dpda_file), str(mach), "-o", str(out)
    ).returncode == 0
    assert run_cli("run", str(out), "ab").returncode == 0
    assert run_cli("run", str(out), "a").returncode == 1
    assert run_cli("run", str(out), "ba").returncode == 1


def test_cnf_of_cnf_is_stable(tmp_path):
    src = tmp_path / "g.peg"
    src.write_text('@start S\n@alphabet "ab"\nS <- A B\nA <- "a"\nB <- "b"\n')
    once = run_cli("cnf", str(src))
    assert once.returncode == 0
    assert once.stdout == src.read_text()


def test_trace_output_format(fig2_file, tmp_path):
    mach = tmp_path / "m.mach"
    run_cli("compile", fig2_file, "-o", str(mach))
    proc = run_cli("trace", str(mach), "aab")
    rows = [line.split("\t") for line in proc.stdout.splitlines() if "\t" in line]
    assert rows, proc.stdout
    for row in rows:
        assert len(row) == 6
        assert row[1] in ("push", "pop")


def test_trace_of_a_pushing_loop_streams_its_events(tmp_path, capsys):
    """A traced run keeps nothing per event: each line is printed as the move is made."""
    import tracemalloc

    from pegmachine.cli import EXIT_BUDGET, main

    path = tmp_path / "push.mach"
    path.write_text('@initial q\n@final q\n@bottom Z\n@alphabet "a"\nq < Z -> q Z down\n')
    tracemalloc.start()
    try:
        code = main(["trace", str(path), "a", "--step-limit", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_BUDGET
    assert lines[-1] == "budget" and len(lines) == 20001
    assert lines[-2] == "19999\tpush\tq\t0\t20001\t-"
    assert peak < 20 * 2**20, peak


def test_step_limit_env_var(fig2_file, tmp_path):
    mach = tmp_path / "m.mach"
    run_cli("compile", fig2_file, "-o", str(mach))
    proc = run_cli("run", str(mach), "aab", env={"PEGMACHINE_STEP_LIMIT": "1"})
    assert proc.returncode == 3
    assert proc.stdout.splitlines()[0] == "budget"


def test_compose_union_runs(tmp_path):
    g1 = tmp_path / "anbn.peg"
    g1.write_text('@alphabet "abc"\nS <- A !.\nA <- "a" A "b" / ""\n')
    g2 = tmp_path / "ancn.peg"
    g2.write_text('@alphabet "abc"\nS <- A !.\nA <- "a" A "c" / ""\n')
    out = tmp_path / "u.peg"
    assert run_cli("compose", "union", str(g1), str(g2), "-o", str(out)).returncode == 0
    assert run_cli("run", str(out), "aabb", "--engine", "packrat").returncode == 0
    assert run_cli("run", str(out), "aacc", "--engine", "packrat").returncode == 0
    assert run_cli("run", str(out), "aabc", "--engine", "packrat").returncode == 1


def test_compose_complement_twice(tmp_path, fig2_file):
    c1 = tmp_path / "c1.peg"
    c2 = tmp_path / "c2.peg"
    assert run_cli("compose", "complement", fig2_file, "-o", str(c1)).returncode == 0
    assert run_cli("compose", "complement", str(c1), "-o", str(c2)).returncode == 0
    for word, code in (("aab", 0), ("abbc", 1)):
        assert run_cli("run", str(c2), word, "--engine", "packrat").returncode == code


def test_compose_concat_and_reg_closure(tmp_path):
    dpda_file = tmp_path / "anbn.dpda"
    dpda_file.write_text(render_dpda_text(dpda_anbn()))
    cstar = tmp_path / "cstar.peg"
    cstar.write_text('@alphabet "abc"\nS <- "c" S / ""\n')
    out = tmp_path / "cc.mach"
    assert run_cli(
        "compose", "concat-dcfl", str(dpda_file), str(cstar), "-o", str(out)
    ).returncode == 0
    assert run_cli("run", str(out), "aabbcc").returncode == 0
    assert run_cli("run", str(out), "aabc").returncode == 1

    spec = _reg_closure_spec(tmp_path)
    rc = tmp_path / "rc.mach"
    assert run_cli("compose", "reg-closure", str(spec), "-o", str(rc)).returncode == 0
    assert run_cli("run", str(rc), "abcd").returncode == 0
    assert run_cli("run", str(rc), "abab").returncode == 1
    assert run_cli("run", str(rc), "abcd", "--engine", "cook").returncode == 0


def test_compose_concat_takes_a_spec_first(tmp_path):
    """(l1 l2)* over a^n b^n and c^m d, then e*: the grammar's alphabet is widened."""
    spec = _reg_closure_spec(tmp_path)
    estar = tmp_path / "estar.peg"
    estar.write_text('S <- "e" S / ""\n')
    out = tmp_path / "sc.mach"
    assert run_cli(
        "compose", "concat-dcfl", str(spec), str(estar), "-o", str(out)
    ).returncode == 0
    for word, code in (("abcdee", 0), ("", 0), ("e", 0), ("aabbccd", 0), ("abe", 1), ("eab", 1)):
        assert run_cli("run", str(out), word, "--engine", "cook").returncode == code, word


def _reg_closure_spec(tmp_path):
    """A composition spec over the pairs DFA, binding a^n b^n and c^m d^m."""
    for name, text in (
        ("anbn.dpda", render_dpda_text(dpda_anbn())),
        ("pairs.dfa", render_dfa_text(dfa_pairs())),
        ("cmd.dpda", render_dpda_text(dpda_cmd())),
        ("spec.txt", "@dfa pairs.dfa\n@bind l1 anbn.dpda\n@bind l2 cmd.dpda\n"),
    ):
        (tmp_path / name).write_text(text)
    return tmp_path / "spec.txt"


def test_spec_refuses_a_binding_for_a_label_the_dfa_lacks(tmp_path, capsys):
    spec = _reg_closure_spec(tmp_path)
    spec.write_text(spec.read_text() + "@bind l9 cmd.dpda\n")
    out = tmp_path / "rc.mach"
    assert cli.main(["compose", "reg-closure", str(spec), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec}: label 'l9' is bound but the DFA has no such label\n"
    assert not out.exists()


@pytest.mark.parametrize("op", ["complement", "reg-closure"])
def test_compose_refuses_extra_files(op, tmp_path, fig2_file, capsys):
    """A one-file operation given two files exits 2; it does not use the first alone."""
    path = fig2_file if op == "complement" else str(_reg_closure_spec(tmp_path))
    out = tmp_path / "out.txt"
    assert cli.main(["compose", op, path, path, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {op} takes one file, not 2\n"
    assert not out.exists()
    assert cli.main(["compose", op, path, "-o", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("op", ["union", "intersect", "concat-dcfl"])
def test_compose_two_file_operations_refuse_one(op, fig2_file, capsys):
    assert cli.main(["compose", op, fig2_file]) == 2
    assert capsys.readouterr().err == f"error: {op} takes two files, not 1\n"


def test_bench_asserts_linear(tmp_path):
    src = tmp_path / "astar.peg"
    src.write_text('S <- "a" S / ""\n')
    mach = tmp_path / "astar.mach"
    run_cli("compile", str(src), "-o", str(mach))
    proc = run_cli(
        "bench", str(mach), "--family", "a", "--sizes", "50,100,200", "--assert-linear"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n\tcook.ops\tdirect.steps"
    rows = [ln for ln in proc.stdout.splitlines()[1:] if ln and ln[0].isdigit()]
    assert len(rows) == 3


def test_bench_origin_sweep_is_linear(tmp_path):
    """Up pops that return to many origins keep cook's work linear."""
    mach = tmp_path / "sweep.mach"
    mach.write_text(render_machine_text(builtin_sweep()))
    proc = run_cli(
        "bench", str(mach), "--family", "a", "--sizes", "50,100,200", "--assert-linear"
    )
    assert proc.returncode == 0, proc.stdout


def test_bench_triple_block_family(tmp_path):
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    proc = run_cli(
        "bench", str(mach), "--family", "abc", "--sizes", "50,100,200", "--assert-linear"
    )
    assert proc.returncode == 0
    rows = [ln.split("\t") for ln in proc.stdout.splitlines()[1:] if ln and ln[0].isdigit()]
    assert [int(r[0]) for r in rows] == [50, 100, 200]
    assert all(int(r[1]) > 0 and int(r[2]) > 0 for r in rows)
    # n = 0 row is present and finite when requested.
    proc0 = run_cli("bench", str(mach), "--family", "abc", "--sizes", "0")
    assert proc0.returncode == 0
    assert proc0.stdout.splitlines()[1].startswith("0\t")


@pytest.mark.parametrize("builtin", [builtin_anbncn, builtin_loop])
def test_bench_assert_linear_passes_linear_or_better_cost(builtin, tmp_path, capsys):
    """An affine cost at small n, or a detected loop's constant cost, is not divergence."""
    mach = tmp_path / "m.mach"
    mach.write_text(render_machine_text(builtin()))
    argv = ["bench", str(mach), "--family", "a", "--sizes", "5,10,20", "--assert-linear"]
    assert exit_code(argv) == 0
    out = capsys.readouterr().out
    assert "ratio 10/5" in out and "linearity assertion failed" not in out


def test_bench_assert_linear_fails_superlinear_cost(tmp_path, monkeypatch, capsys):
    import pegmachine.engines as engines

    real = engines.run_linear
    monkeypatch.setattr(engines, "run_linear", lambda m, w: real(m, w)._replace(ops=len(w) ** 2))
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    argv = ["bench", str(mach), "--family", "a", "--sizes", "5,10", "--assert-linear"]
    assert exit_code(argv) == 4
    out = capsys.readouterr().out
    assert "ratio 10/5 = 4.000" in out and "linearity assertion failed" in out


def test_fuzz_reproducible():
    a = run_cli("fuzz", "--cases", "10", "--seed", "42")
    b = run_cli("fuzz", "--cases", "10", "--seed", "42")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_fuzz_zero_cases_vacuous():
    proc = run_cli("fuzz", "--cases", "0")
    assert proc.returncode == 0


def test_compose_concat_needs_a_dpda_first(tmp_path):
    g = tmp_path / "g.peg"
    g.write_text('S <- "a"\n')
    proc = run_cli("compose", "concat-dcfl", str(g), str(g))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    dpda_file = tmp_path / "a.dpda"
    dpda_file.write_text(render_dpda_text(dpda_single("a")))
    proc = run_cli("compose", "concat-dcfl", str(dpda_file), str(dpda_file))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_dpda_alphabet_needs_closing_quote(tmp_path):
    path = tmp_path / "bad.dpda"
    path.write_text(render_dpda_text(dpda_single("a")).replace('@alphabet "a"', '@alphabet "ab'))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "@alphabet needs a quoted string" in proc.stderr


def test_internal_error_exits_4_without_traceback(tmp_path):
    path = tmp_path / "long.peg"
    path.write_text("S <- " + " ".join(['"a"'] * 1000) + "\n")
    proc = run_cli("run", str(path), "aaa")
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: internal: ") and len(proc.stderr.splitlines()) == 1


# --- in-process: argument parsing ----------------------------------------------


def exit_code(argv):
    """``cli.main``'s exit code, whether returned or raised by argparse."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def built_parsers(monkeypatch):
    """The ``prog`` of every parser built while the test runs, from an empty cache."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()  # drop the parsers built by the counting __init__


def test_one_command_builds_one_parser(fig2_file, capsys, built_parsers):
    assert cli.main(["check", fig2_file]) == 0
    assert built_parsers == ["pegmachine check"]
    assert capsys.readouterr().out.startswith("well-formed")
    # Later calls, of this command or another, reuse what is built.
    for _ in range(2):
        assert cli.main(["check", fig2_file]) == 0
        assert cli.main(["run", fig2_file, "aab"]) == 0
    assert built_parsers == ["pegmachine check", "pegmachine run"]
    for _ in range(2):
        assert exit_code(["check", fig2_file, "--seed", "1"]) == 2
    assert built_parsers[2] == "pegmachine" and built_parsers.count("pegmachine") == 1
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(a) or init(*a, **k)\n"
        "import pegmachine.cli as cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_a_shared_parser_keeps_no_state_between_calls(fig2_file, tmp_path, capsys):
    """Options of one call do not carry over to the next call of the same parser."""
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    assert cli.main(["run", fig2_file, "aab", "--stats"]) == 0
    assert "---" in capsys.readouterr().out
    assert cli.main(["run", fig2_file, "aab"]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert cli.main(["trace", str(mach), "abc"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 1
    assert cli.main(["run", str(mach), "abc"]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert cli.main(["run", fig2_file, "aab", "--budget", "5"]) == 0
    capsys.readouterr()
    assert exit_code(["run", fig2_file, "aab", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: pegmachine run ")
    assert cli._parser("run") is cli._parser("run")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_help_is_the_full_parsers(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "-h"])
    assert exc.value.code == 0
    routed = capsys.readouterr().out
    assert routed.startswith(f"usage: pegmachine {name} [-h]")
    with pytest.raises(SystemExit):
        cli._parser(None).parse_args([name, "-h"])
    assert capsys.readouterr().out == routed


@pytest.mark.parametrize(
    "argv, last_line",
    [
        ([], "pegmachine: error: the following arguments are required: command"),
        (["bogus"], "pegmachine: error: argument command: invalid choice: 'bogus'"),
        (["check"], "pegmachine check: error: the following arguments are required: path"),
        (["check", "{p}", "--seed", "1"], "pegmachine: error: unrecognized arguments: --seed 1"),
    ],
)
def test_usage_errors_exit_2(argv, last_line, fig2_file, capsys):
    assert exit_code([a.replace("{p}", fig2_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pegmachine")
    assert captured.err.splitlines()[-1].startswith(last_line)


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--alphabet-size", "0"],
        ["fuzz", "--alphabet-size", "40"],
        ["fuzz", "--max-nonterminals", "0"],
        ["fuzz", "--max-word-len", "-1"],
        ["fuzz", "--cases", "-3"],
        ["bench", "{m}", "--family", "abc", "--sizes", "1,x"],
        ["bench", "{m}", "--family", "abc", "--sizes", ",,"],
        ["bench", "{m}", "--family", "abc", "--sizes", "-2"],
        ["bench", "{m}", "--family", "z", "--sizes", "5"],
        ["bench", "{m}", "--family", "", "--sizes", "5,10", "--assert-linear"],
        ["run", "{m}", "abc", "--step-limit", "-5"],
        ["run", "{g}", "aab", "--engine", "naive", "--budget", "-1"],
        ["PEGMACHINE_STEP_LIMIT=abc", "run", "{m}", "abc"],
        ["PEGMACHINE_STEP_LIMIT=-5", "run", "{m}", "abc"],
    ],
)
def test_bad_option_values_exit_2(argv, fig2_file, tmp_path, monkeypatch, capsys):
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    if "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("="))
    argv = [a.replace("{m}", str(mach)).replace("{g}", fig2_file) for a in argv]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal" not in err
    assert err.startswith("usage: ") or (
        err.startswith(("error: PEGMACHINE_STEP_LIMIT: ", "error: --family "))
        and len(err.splitlines()) == 1
    )


def test_trace_of_a_grammar_compiles_it(fig2_file, capsys):
    assert cli.main(["trace", fig2_file, "aab"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "accept"
    assert len(lines) > 1 and all(len(ln.split("\t")) == 6 for ln in lines[:-1])
    assert cli.main(["run", fig2_file, "aab", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "{g}", "aab", "--engine", "packrat"],
        ["trace", "{g}", "aab", "--engine", "naive"],
        ["trace", "{m}", "abc", "--engine", "cook"],
        ["run", "{m}", "abc", "--trace", "--engine", "cook"],
    ],
)
def test_trace_needs_the_direct_engine(argv, fig2_file, tmp_path, capsys):
    mach = tmp_path / "anbncn.mach"
    mach.write_text(ANBNCN_SOURCE)
    argv = [a.replace("{m}", str(mach)).replace("{g}", fig2_file) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace needs the direct engine\n"


# --- repeated names in machine, DPDA and DFA files ------------------------------------


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("mach", "@final qf", "@final qf qf"),
        ("dpda", "@final rf", "@final rf rf"),
        ("dfa", "@states s0 s1 sink", "@states s0 s1 s0 sink"),
        ("dfa", "@labels l1 l2", "@labels l1 l2 l1"),
        ("dfa", "@final s0", "@final s0 s0"),
    ],
)
def test_repeated_names_in_files_exit_2(kind, old, new, tmp_path, capsys):
    text = {
        "mach": ANBNCN_SOURCE,
        "dpda": render_dpda_text(dpda_cmd()),
        "dfa": render_dfa_text(dfa_pairs()),
    }[kind]
    assert old + "\n" in text
    path = tmp_path / f"dup.{kind}"
    path.write_text(text.replace(old + "\n", new + "\n"))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
