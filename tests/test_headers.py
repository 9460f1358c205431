"""The header shared by the automaton file formats: one reader, one writer.

Machine, DPDA and DFA files and composition specs read their ``@``
directives with one reader, so a header defect gets one message and one
line number in every format that admits the directive.  Each writer puts
back what the reader read.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import (
    FIG2_TEXT,
    SEC13_ABC_TEXT,
    SEC13_UNION_TEXT,
    dfa_pairs,
    dpda_anbn,
    dpda_cmd,
    dpda_single,
)
from pegmachine import cli
from pegmachine.closures import parse_dfa_text, parse_dpda_text, render_dfa_text, render_dpda_text
from pegmachine.errors import MachineTextError
from pegmachine.peg import parse_grammar_text
from pegmachine.pppda import (
    builtin_anbncn,
    builtin_loop,
    builtin_sweep,
    parse_machine_text,
    render_machine_text,
)
from pegmachine.translate import grammar_to_machine

SPEC_TEXT = "@dfa pairs.dfa\n@bind l1 anbn.dpda\n@bind l2 cmd.dpda\n"


def _files() -> dict[str, str]:
    """A valid file of each format, and the files the spec names."""
    return {
        "m.mach": render_machine_text(builtin_anbncn()),
        "anbn.dpda": render_dpda_text(dpda_anbn()),
        "cmd.dpda": render_dpda_text(dpda_cmd()),
        "pairs.dfa": render_dfa_text(dfa_pairs()),
        "rc.spec": SPEC_TEXT,
    }


def check(tmp_path, name: str, text: str) -> tuple[int, str]:
    """``pegmachine check`` on ``text`` saved as ``name`` beside valid companions.

    Returns the exit code and the error message, without its ``error:
    <path>:`` prefix.
    """
    for companion, valid in _files().items():
        (tmp_path / companion).write_text(valid)
    path = tmp_path / ("x." + name.rsplit(".", 1)[1])
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["check", str(path)])
    return code, err.getvalue().strip().removeprefix(f"error: {path}: ")


def _insert(*new: str, at: int = 1):
    def edit(lines: list[str]) -> list[str]:
        return lines[:at] + list(new) + lines[at:]

    return edit


def _repeat_initial(lines: list[str]) -> list[str]:
    initial = next(ln for ln in lines if ln.startswith("@initial"))
    return _insert(initial, initial)(lines)


def _drop_initial(lines: list[str]) -> list[str]:
    return [ln for ln in lines if not ln.startswith("@initial")]


def _wrong_kind(lines: list[str]) -> list[str]:
    assert lines[0].startswith("@kind ")
    return ["@kind zzz"] + lines[1:]


# defect: (edit of the file's lines, the message, the formats that admit the directive)
DEFECTS = {
    "missing-initial": (
        _drop_initial, "missing @initial header", ["m.mach", "anbn.dpda", "pairs.dfa"]
    ),
    "unknown-directive": (
        _insert("@frob x"), "line 2: bad directive '@frob x'",
        ["m.mach", "anbn.dpda", "pairs.dfa", "rc.spec"],
    ),
    "unquoted-alphabet": (
        _insert("@alphabet ab"), "line 2: @alphabet needs a quoted string", ["m.mach", "anbn.dpda"]
    ),
    "reserved-letter": (
        _insert('@alphabet "a<"'), "line 2: reserved letter '<'", ["m.mach", "anbn.dpda"]
    ),
    "repeated-initial": (
        _repeat_initial, "line 3: repeated @initial header", ["m.mach", "anbn.dpda", "pairs.dfa"]
    ),
    "wrong-kind": (_wrong_kind, "line 1: bad directive '@kind zzz'", ["anbn.dpda", "pairs.dfa"]),
}


@pytest.mark.parametrize(
    "defect, name", [(defect, name) for defect, (_, _, names) in DEFECTS.items() for name in names]
)
def test_one_header_defect_gives_one_message_in_every_format(defect, name, tmp_path):
    edit, message, _ = DEFECTS[defect]
    text = "\n".join(edit(_files()[name].splitlines())) + "\n"
    assert check(tmp_path, name, text) == (2, message)


def _fixtures():
    grammars = [parse_grammar_text(t) for t in (FIG2_TEXT, SEC13_UNION_TEXT, SEC13_ABC_TEXT)]
    machines = [grammar_to_machine(g) for g in grammars]
    machines += [builtin_anbncn(), builtin_loop(), builtin_sweep()]
    yield from ((render_machine_text, parse_machine_text, m) for m in machines)
    for d in (dpda_anbn(), dpda_cmd(), dpda_single("a")):
        yield render_dpda_text, parse_dpda_text, d
    yield render_dfa_text, parse_dfa_text, dfa_pairs()


@pytest.mark.parametrize("render, parse, obj", list(_fixtures()))
def test_render_parse_render_is_the_identity(render, parse, obj):
    text = render(obj)
    assert render(parse(text)) == text


# --- reserved letters ------------------------------------------------------------


@pytest.mark.parametrize(
    "old, new, line, letter",
    [('@alphabet "a"', '@alphabet "<"', 6, "<"), ('@alphabet "a"', '@alphabet """', 6, '"'),
     ('s0 "a" B', 's0 "<" B', 7, "<"), ('s0 "a" B', 's0 ">" B', 7, ">")],
)
def test_dpda_file_refuses_reserved_letters(old, new, line, letter, tmp_path):
    text = render_dpda_text(dpda_single("a")).replace(old, new)
    with pytest.raises(MachineTextError, match="reserved letter") as err:
        parse_dpda_text(text)
    assert err.value.line == line
    assert check(tmp_path, "x.dpda", text) == (2, f"line {line}: reserved letter {letter!r}")


@pytest.mark.parametrize(
    "old, new, line, letter",
    [('@alphabet "abc"', '@alphabet "abc<"', 6, "<"), ('q0 "a" Y', 'q0 """ Y', 7, '"'),
     ('q0 < Z0', 'q0 "<" Z0', 11, "<")],
)
def test_machine_file_refuses_reserved_letters(old, new, line, letter, tmp_path):
    text = render_machine_text(builtin_anbncn()).replace(old, new)
    with pytest.raises(MachineTextError, match="reserved letter") as err:
        parse_machine_text(text)
    assert err.value.line == line
    assert check(tmp_path, "x.mach", text) == (2, f"line {line}: reserved letter {letter!r}")


def test_concat_dcfl_names_the_file_and_line_of_a_reserved_letter(tmp_path):
    dpda = tmp_path / "x.dpda"
    dpda.write_text(render_dpda_text(dpda_single("a")).replace('@alphabet "a"', '@alphabet "<"'))
    grammar = tmp_path / "g.peg"
    grammar.write_text('S <- "a"\n')
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["compose", "concat-dcfl", str(dpda), str(grammar)])
    assert (code, err.getvalue()) == (2, f"error: {dpda}: line 6: reserved letter '<'\n")


# --- one-argument directives are given once ------------------------------------------


@pytest.mark.parametrize(
    "name, directive",
    [("m.mach", "@initial q1"), ("m.mach", "@bottom Z1"), ("m.mach", "@twoway yes"),
     ("anbn.dpda", "@kind dpda"), ("anbn.dpda", "@bottom X"), ("pairs.dfa", "@kind dfa"),
     ("pairs.dfa", "@initial s1")],
)
def test_a_repeated_one_argument_directive_is_refused(name, directive, tmp_path):
    key = directive.split()[0]
    lines = _files()[name].splitlines()
    line = next(i for i, ln in enumerate(lines, start=1) if ln.split()[0] == key) + 1
    lines.insert(line - 1, directive)
    message = f"line {line}: repeated {key} header"
    assert check(tmp_path, name, "\n".join(lines) + "\n") == (2, message)


def test_a_spec_binds_each_label_once_and_names_one_dfa(tmp_path):
    code, message = check(tmp_path, "rc.spec", SPEC_TEXT + "@bind l1 cmd.dpda\n")
    assert (code, message) == (2, "line 4: repeated @bind l1")
    code, message = check(tmp_path, "rc.spec", "@dfa pairs.dfa\n" + SPEC_TEXT)
    assert (code, message) == (2, "line 2: repeated @dfa header")


def test_list_directives_accumulate():
    text = render_dfa_text(dfa_pairs()).replace("@labels l1 l2", "@labels l1\n@labels l2")
    assert parse_dfa_text(text) == dfa_pairs()


# --- @kind ---------------------------------------------------------------------------


def test_machine_file_refuses_kind(tmp_path):
    text = "@kind zzz\n" + render_machine_text(builtin_anbncn())
    with pytest.raises(MachineTextError, match="bad directive '@kind zzz'"):
        parse_machine_text(text)
    assert check(tmp_path, "m.mach", text) == (2, "line 1: bad directive '@kind zzz'")


def test_kind_is_sniffed_by_tokens(tmp_path):
    text = render_dpda_text(dpda_anbn()).replace("@kind dpda", "@kind\tdpda")
    out = io.StringIO()
    with redirect_stdout(out):
        path = tmp_path / "tab.dpda"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 0
    assert out.getvalue() == "valid Dpda\n"


def test_a_reader_names_its_own_kind():
    with pytest.raises(MachineTextError, match="line 1: expected @kind dpda"):
        parse_dpda_text(render_dfa_text(dfa_pairs()))
    with pytest.raises(MachineTextError, match="line 1: expected @kind dfa"):
        parse_dfa_text(render_dpda_text(dpda_anbn()))
