"""Malformed files: seeded mutants of valid inputs never reach an internal error.

Each mutant of a grammar, machine, DPDA, DFA or composition spec goes
through the CLI commands that read its kind.  Whatever the mutation did,
the command must end in a documented exit code (0 to 3) with at most an
``error:`` line, never in ``error: internal`` (exit 4).
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import FIG2_TEXT, SEC13_ABC_TEXT, SEC13_UNION_TEXT, dfa_pairs, dpda_anbn, dpda_cmd
from pegmachine import cli
from pegmachine.closures import render_dfa_text, render_dpda_text
from pegmachine.peg import parse_grammar_text
from pegmachine.pppda import builtin_anbncn, builtin_loop, builtin_sweep, render_machine_text
from pegmachine.translate import grammar_to_machine

SPEC_TEXT = "@dfa pairs.dfa\n@bind l1 anbn.dpda\n@bind l2 cmd.dpda\n"

# Tokens that mean something in one of the formats, spliced into mutants.
JUNK = [
    "@states", "@final", "@labels", "@initial", "@bottom", "@alphabet", "@kind", "@twoway",
    "@dfa", "@bind", "->", "<-", "-", '"', '"a"', '"ab', "<", ">", "eps", "up", "down",
    "right", "left", "hatdown", "hatleft", "hatright", "yes", "(", ")", "/", "!", "&", "*",
    ".", "''", "S", "Z0", "q0", "s0", "l1", "dpda", "dfa", "B,X",
]


def _seeds() -> dict[str, str]:
    fig2 = parse_grammar_text(FIG2_TEXT)
    return {
        "fig2.peg": FIG2_TEXT,
        "union.peg": SEC13_UNION_TEXT,
        "abc.peg": SEC13_ABC_TEXT,
        "fig2.mach": render_machine_text(grammar_to_machine(fig2)),
        "anbncn.mach": render_machine_text(builtin_anbncn()),
        "loop.mach": render_machine_text(builtin_loop()),
        "sweep.mach": render_machine_text(builtin_sweep()),
        "anbn.dpda": render_dpda_text(dpda_anbn()),
        "cmd.dpda": render_dpda_text(dpda_cmd()),
        "pairs.dfa": render_dfa_text(dfa_pairs()),
        "rc.spec": SPEC_TEXT,
    }


# A word over each grammar's or machine's alphabet, for ``run``.
WORDS = {"fig2": "aab", "union": "aabb", "abc": "abc", "anbncn": "abc", "loop": "aa", "sweep": "ab"}


def mutate(text: str, r: random.Random) -> str:
    """One or two seeded line or token edits of ``text``."""
    lines = text.splitlines()
    for _ in range(r.randint(1, 2)):
        if not lines:
            lines = [r.choice(JUNK)]
        i = r.randrange(len(lines))
        kind = r.randrange(8)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            j = r.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3:
            lines[i] = lines[i][: r.randrange(len(lines[i]) + 1)]
        else:
            toks = lines[i].split() or [""]
            k = r.randrange(len(toks))
            if kind == 4:
                del toks[k]
            elif kind == 5:
                toks.insert(k, toks[k])
            elif kind == 6:
                toks[k] = r.choice(JUNK)
            else:
                toks[k] = r.choice(r.choice(lines).split() or JUNK)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def commands(name: str, path: str, d) -> list[list[str]]:
    """The command lines that read a mutant of the seed file ``name`` at ``path``."""
    kind = name.rsplit(".", 1)[1]
    if kind in ("peg", "mach"):
        word = WORDS[name.split(".")[0]]
        runs = [
            ["run", path, word, "--engine", "direct", "--step-limit", "5000"],
            ["run", path, word, "--engine", "cook"],
        ]
        concat = ["compose", "concat-dcfl", str(d / "anbn.dpda"), path]
        if kind == "peg":
            compiled = d / "compiled.mach"
            compiled.unlink(missing_ok=True)  # extract reads this mutant's machine, or none
            return [
                ["check", path], *runs, ["compile", path, "-o", str(compiled)],
                ["extract", str(compiled)], concat,
            ]
        return [["check", path], *runs, ["normalize", path], ["extract", path], concat]
    if kind == "dpda":
        (d / "anbn.dpda").write_text(Path(path).read_text())
        return [
            ["check", path],
            ["compose", "concat-dcfl", path, str(d / "fig2.peg")],
            ["compose", "reg-closure", str(d / "rc.spec")],
        ]
    if kind == "dfa":
        (d / "pairs.dfa").write_text(Path(path).read_text())
        return [["check", path], ["compose", "reg-closure", str(d / "rc.spec")]]
    return [["check", path], ["compose", "reg-closure", path]]


def call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("seed", range(4))
def test_malformed_files_end_in_documented_exit_codes(seed, tmp_path):
    seeds = _seeds()
    r = random.Random(seed)
    failures = []
    for _ in range(80):
        for name, text in seeds.items():  # valid copies for the mutant's companions
            (tmp_path / name).write_text(text)
        name = r.choice(sorted(seeds))
        mutant = mutate(seeds[name], r)
        path = tmp_path / ("mutant." + name)
        path.write_text(mutant)
        for argv in commands(name, str(path), tmp_path):
            rc, err = call(argv)
            if rc not in (0, 1, 2, 3) or "error: internal" in err or len(err.splitlines()) > 1:
                failures.append((argv[0], name, rc, err.strip(), mutant))
    assert not failures, failures[:3]
