"""Golden outputs: SHA-256 digests of what the constructions print.

Each case runs one command through ``cli.main`` on files written to a
temporary directory and pins the digest of its standard output: the
desugared grammar, its normal-form grammar, the compiled machine, its
normal form and the grammar extracted from it for the reference
grammars, and the normal form of each built-in machine.  The desugared
and normal-form grammars name their fresh rules after the pre-order
position of a node in the input grammar (``#k``, ``#c<k>``), so they pin
the rewrites' numbering too; one more digest pins the desugared and
normal-form text of a seeded corpus of random grammars, sugar included,
and another the grammars extracted from the normal forms of a seeded
corpus of machines: compiled random grammars and random one-way machines.
The ``trace`` lines of the direct engine are pinned too, on the reference
grammars and the built-in machines, one run ending in ``budget``.
The machine commands read the compiled ``.mach`` text, so the file reader
and writer are pinned along with the constructions.

A change that is meant to alter a construction's output (a new state
name, another transition order) updates the digests here and says so,
with the reason, in ``CHANGES.md``.  Any other change must leave them
as they are.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import FIG2_TEXT, SEC13_ABC_TEXT, SEC13_UNION_TEXT
from pegmachine import cli
from pegmachine.fuzz import random_general_grammar
from pegmachine.peg import desugar, render_grammar_text, to_cnf
from pegmachine.pppda import (
    builtin_anbncn,
    builtin_loop,
    builtin_sweep,
    normalize,
    parse_machine_text,
    render_machine_text,
)
from pegmachine.translate import dppda_to_peg, grammar_to_machine
from test_machine_fuzz import random_machine, random_sweep_machine

GRAMMARS = {"fig2": FIG2_TEXT, "sec13_union": SEC13_UNION_TEXT, "sec13_abc": SEC13_ABC_TEXT}
BUILTINS = {"anbncn": builtin_anbncn, "loop": builtin_loop, "sweep": builtin_sweep}

GRAMMAR_DIGESTS = {
    ("fig2", "desugar"): (
        "03ac681b0c1dcc9cd76b5806f8985ad0fa331b797e9567befdf2fd3ce199b796"
    ),
    ("fig2", "cnf"): (
        "72b0d054a44cf0cf1b78225783d5bf1e1f07d744e5d38e6755b6c1b29127f80d"
    ),
    ("fig2", "compile"): (
        "2ca93a1157ad8fde69bc52fd16ef6b249588e0ac6d45b933ff81b74ea9ca9805"
    ),
    ("fig2", "normalize"): (
        "548c1b2e3722820cce91d21ce9cf31400deb96aaef09eaafe7946a524e576153"
    ),
    ("fig2", "extract"): (
        "244eb3e299f40a661bea92f2634ab1a44bc8e1580ff9e40c96b3f4be206e4a7c"
    ),
    ("sec13_union", "desugar"): (
        "5566d24c9a806dfaa484507c8160a3b4f2234d2e58b4c8288630207b0d41d991"
    ),
    ("sec13_union", "cnf"): (
        "619c663f861e138989f4a8b9a99ea2c9e3f676915f99b8f8da280b78d94de875"
    ),
    ("sec13_union", "compile"): (
        "64dc9d3cd5c0bb9ef937a63f1a26a8e5e8b8cb26ec208ff1b09aba9d0d5cfcfb"
    ),
    ("sec13_union", "normalize"): (
        "d11050f29c998cfbbd1340cf867241a54d67ddd9ba87f0f171b3aa74c55abd80"
    ),
    ("sec13_union", "extract"): (
        "f894c72488ce5a0a358750a434b0f127c8b4fa0301fb5bb4c10a279ff7dfbbbc"
    ),
    ("sec13_abc", "desugar"): (
        "86d37bb8d84ad173138e14054c418f3f40ab5e320a4c5a8a22d11629e92976bf"
    ),
    ("sec13_abc", "cnf"): (
        "d3d4689aeed796175549888fce1a11483b1425d8f66b772cd35572509554cd82"
    ),
    ("sec13_abc", "compile"): (
        "b1ff1275e4e1d0318e02f546926d1c0c1303d6c717fc342a85b0a202d63b1c2c"
    ),
    ("sec13_abc", "normalize"): (
        "cca92e256b8d7c01192239c5420812628ab7602216c528baaab7bb23978aa206"
    ),
    ("sec13_abc", "extract"): (
        "1faaed7e0292c0383de80e5d9317dfaeaa9ca69c6d1d38168d5994212fc7a345"
    ),
}

BUILTIN_DIGESTS = {
    "anbncn": "ff52787d36ebdd09a9e61755962c3126b51b5b5cb4830a2bcf0cb3ea13ec8f6a",
    "loop": "99352b5fea9257f7b2be3b40ae656618fdedaf8f7d513a18954f849c54d7914a",  # builtin_loop is already normal
    "sweep": "f31c292782823a2bb4c2948e62a11e57ba8bc31440f07bddf21ff28823fd115b",
}

CORPUS_DIGEST = "73814b2773118a61999b06b6b009c36c2f9a1129602c109d0c535a32ae580b6c"
EXTRACT_CORPUS_DIGEST = "142a81abcc5134078e44a827eed0e32b2a65b055ac8776ced9562bfc2245cf4b"
TRACE_WORDS = ("", "ab", "abc", "aabbcc", "aaab")
TRACE_DIGEST = "13568a29c50bd695577aca48ba8768f6041614f4e72d2a904dcb022a3f92d7fb"


def _output(capsys, *argv: str) -> str:
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(GRAMMARS))
def test_grammar_outputs_are_pinned(name, tmp_path, capsys):
    peg = tmp_path / f"{name}.peg"
    peg.write_text(GRAMMARS[name])
    mach = tmp_path / f"{name}.mach"
    mach.write_text(_output(capsys, "compile", str(peg)))
    outputs = {
        "desugar": _output(capsys, "desugar", str(peg)),
        "cnf": _output(capsys, "cnf", str(peg)),
        "compile": mach.read_text(),
        "normalize": _output(capsys, "normalize", str(mach)),
        "extract": _output(capsys, "extract", str(mach)),
    }
    got = {command: _digest(text) for command, text in outputs.items()}
    assert got == {command: GRAMMAR_DIGESTS[name, command] for command in outputs}


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_normal_forms_are_pinned(name, tmp_path, capsys):
    mach = tmp_path / f"{name}.mach"
    mach.write_text(render_machine_text(BUILTINS[name]()))
    assert _digest(_output(capsys, "normalize", str(mach))) == BUILTIN_DIGESTS[name]


def test_written_machine_texts_read_back_unchanged(tmp_path, capsys):
    """Each machine text the CLI writes is written again unchanged once read."""
    texts = {}
    for name, text in GRAMMARS.items():
        peg = tmp_path / f"{name}.peg"
        peg.write_text(text)
        texts[name, "compile"] = _output(capsys, "compile", str(peg))
    for name, build in BUILTINS.items():
        texts[name, "builtin"] = render_machine_text(build())
    for (name, _), text in list(texts.items()):
        mach = tmp_path / f"{name}.mach"
        mach.write_text(text)
        texts[name, "normalize"] = _output(capsys, "normalize", str(mach))
    for key, text in texts.items():
        assert render_machine_text(parse_machine_text(text)) == text, key


def test_random_corpus_rewrites_are_pinned():
    rng = random.Random(1100)
    parts = []
    for _ in range(100):
        core = desugar(random_general_grammar(rng, 5, 3))
        parts += [render_grammar_text(core), render_grammar_text(to_cnf(core))]
    assert _digest("".join(parts)) == CORPUS_DIGEST


def test_random_machine_extractions_are_pinned():
    rng = random.Random(1700)
    machines = [grammar_to_machine(random_general_grammar(rng, 5, 3)) for _ in range(60)]
    rng = random.Random(1701)
    for _ in range(40):
        machines += [random_machine(rng), random_sweep_machine(rng)]
    texts = [render_grammar_text(dppda_to_peg(normalize(m))) for m in machines]
    assert _digest("".join(texts)) == EXTRACT_CORPUS_DIGEST


def test_trace_output_is_pinned(tmp_path, capsys):
    files = {}
    for name, text in GRAMMARS.items():
        files[name] = tmp_path / f"{name}.peg"
        files[name].write_text(text)
    for name in ("anbncn", "sweep", "loop"):
        files[name] = tmp_path / f"{name}.mach"
        files[name].write_text(render_machine_text(BUILTINS[name]()))
    runs = [(name, word) for name in files if name != "loop" for word in TRACE_WORDS]
    runs.append(("loop", "a", "--step-limit", "500"))  # pushes and pops forever
    parts = []
    for name, *args in runs:
        capsys.readouterr()
        code = cli.main(["trace", str(files[name]), *args])
        parts.append(f"{name} {args} exit {code}\n{capsys.readouterr().out}")
    assert _digest("".join(parts)) == TRACE_DIGEST
