"""The three workloads: fixed files, set-up compiles and seeded item streams.

An item is one ``pegmachine`` command line, run in-process through
``pegmachine.cli.main``.  Each item carries the exit code the oracle
expects and, for commands that print a verdict or write an artifact, a
check of that output.  Checks run after the item, outside its timing: they
run the artifact on a few short words and compare its verdicts with the
oracle's.  Machine artifacts run on the benchmark's own reader and
simulator; grammar artifacts on pegmachine's parser and packrat engine.

Items come in rounds: a long-words round is one rung of the word-length
ladder, a large-grammars round the chain of items on one grammar, a
many-small round the items on four small grammars.  A run takes a fixed
number of rounds, set from ``--seconds`` and the workload's
``ROUND_SECONDS``, so every run of a workload holds the same mix and count
of items whatever the seed or the load of the machine, and the items that
fail at a given commit fail in every run.  A stream never yields the same
command line twice, so no item can profit from a cache that a one-shot
command would not have.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import inputs as I

# A check takes the item's standard output and returns a problem, or None.
Check = Callable[[str], "str | None"]


@dataclass
class Item:
    label: str  # command and target, for reports: "run/cook sweep.mach"
    argv: list[str]
    expect: int  # exit code the oracle expects
    check: Check | None = None
    needs: Path | None = None  # an artifact an earlier item writes


def _first_line_check(want: str) -> Check:
    def check(stdout: str) -> str | None:
        first = stdout.splitlines()[0] if stdout else ""
        return None if first == want else f"printed {first!r}, expected {want!r}"

    return check


def run_item(path: Path, word: str, engine: str, accept: bool, extra: tuple[str, ...] = ()) -> Item:
    return Item(
        f"run/{engine} {path.name}",
        ["run", str(path), word, "--engine", engine, *extra],
        0 if accept else 1,
        _first_line_check("accept" if accept else "reject"),
    )


def grammar_artifact_check(pm: SimpleNamespace, path: Path, cases: list[tuple[str, bool]]) -> Check:
    def check(stdout: str) -> str | None:
        g = pm.parse_grammar_text(path.read_text(encoding="utf-8"))
        for word, want in cases:
            if pm.accepts(g, word) != want:
                return f"{path.name} {'rejects' if want else 'accepts'} {word!r}"
        return None

    return check


def machine_artifact_check(path: Path, cases: list[tuple[str, bool]]) -> Check:
    def check(stdout: str) -> str | None:
        m = I.read_machine(path.read_text(encoding="utf-8"))
        for word, want in cases:
            if I.machine_accepts(m, word) != want:
                return f"{path.name} {'rejects' if want else 'accepts'} {word!r}"
        return None

    return check


# --- long-words ---------------------------------------------------------------------


class LongWords:
    """Engines on words of thousands of letters.

    Word lengths are set per target so that items cost tens to hundreds of
    milliseconds.  The origin-sweep machine runs on hundreds of letters: its
    direct run is quadratic by design.  Direct on the backtracking machine
    runs only on 8 to 12 letters per block, since its run is exponential.
    """

    name = "long-words"
    ROUND_SECONDS = 3.75  # measured on a 2-vCPU x86-64 VM, Python 3.11

    def __init__(self, root: Path, rng: random.Random, pm: SimpleNamespace):
        self.root = root
        self.rng = rng
        self.pm = pm

    def setup(self, cli: Callable[[list[str]], int]) -> Item:
        pm = self.pm
        files = {
            "abc.peg": I.render_grammar(I.SEC13_ABC),
            "backtrack.peg": I.render_grammar(I.BACKTRACK),
            "anbncn.mach": pm.render_machine_text(pm.builtin_anbncn()),
            "sweep.mach": I.ORIGIN_SWEEP_MACH,
            "twoway.mach": I.TWO_WAY_MACH,
            "loop.mach": pm.render_machine_text(pm.builtin_loop()),
        }
        for name, text in files.items():
            (self.root / name).write_text(text, encoding="utf-8")
        for stem in ("abc", "backtrack"):
            argv = ["compile", str(self.root / f"{stem}.peg"), "-o", str(self.root / f"{stem}.mach")]
            if cli(argv) != 0:
                raise RuntimeError(f"set-up compile failed: {' '.join(argv)}")
        return run_item(self.root / "abc.peg", "abc", "packrat", True)

    # Lengths come from a ladder of RUNGS values spread over each target's
    # range.  A round takes one rung, from the top down: each target once
    # as a near miss and once as a member at that rung's length.  The seed
    # picks a small jitter of each length and the words' letters.  So a run
    # holds the same mix of sizes whatever the seed.
    RUNGS = 4

    def rounds(self) -> Iterator[list[Item]]:
        p = self.root.joinpath
        targets = [
            (p("abc.peg"), "packrat", 2000, 8000, partial(I.blocks_word, letters="abc"), I.is_anbncn),
            (p("abc.mach"), "direct", 1000, 4000, partial(I.blocks_word, letters="abc"), I.is_anbncn),
            (p("abc.mach"), "cook", 200, 800, partial(I.blocks_word, letters="abc"), I.is_anbncn),
            (p("anbncn.mach"), "direct", 3000, 12000, partial(I.blocks_word, letters="abc"), I.is_anbncn_literal),
            (p("anbncn.mach"), "cook", 2000, 6000, partial(I.blocks_word, letters="abc"), I.is_anbncn_literal),
            (p("backtrack.peg"), "packrat", 2000, 8000, I.backtrack_word, I.is_backtrack),
            (p("backtrack.mach"), "direct", 8, 12, I.backtrack_word, I.is_backtrack),
            (p("backtrack.mach"), "cook", 1000, 3000, I.backtrack_word, I.is_backtrack),
            (p("sweep.mach"), "direct", 300, 700, I.astar_word, I.is_astar),
            (p("sweep.mach"), "cook", 150, 400, I.astar_word, I.is_astar),
            (p("twoway.mach"), "direct", 3000, 10000, partial(I.blocks_word, letters="ab"), I.is_anbn),
            (p("twoway.mach"), "cook", 1000, 4000, partial(I.blocks_word, letters="ab"), I.is_anbn),
            (p("loop.mach"), "cook", 1000, 10000, I.loop_word, I.never),
        ]
        r = self.rng
        seen: set[tuple[str, str, str]] = set()
        for rung in itertools.cycle(reversed(range(self.RUNGS))):
            round_ = []
            for want in (False, True):
                for path, engine, lo, hi, make, member in targets:
                    step = (hi - lo) / self.RUNGS
                    while True:
                        k = round(lo + step * (rung + 0.5 + r.uniform(-0.1, 0.1)))
                        word = make(r, k=k, member=want)
                        if (str(path), word, engine) not in seen:
                            break
                    seen.add((str(path), word, engine))
                    round_.append(run_item(path, word, engine, member(word)))
            yield round_


# --- large-grammars ------------------------------------------------------------------


class LargeGrammars:
    """The toolchain on generated grammars of a hundred and fifty rules.

    Each chain of items works on one grammar.  Every fourth grammar
    carries one flat rule of 1200 to 3000 items: the tail of the rule-length
    distribution, which the parser and the tree walkers must survive.
    """

    name = "large-grammars"
    ROUND_SECONDS = 3.8  # measured on a 2-vCPU x86-64 VM, Python 3.11
    RULES = 150
    STATES = 2550  # about the median state_estimate of 150-rule grammars
    LONG_EVERY = 4
    WORDS = 8  # six run under packrat, two under cook

    def __init__(self, root: Path, rng: random.Random, pm: SimpleNamespace):
        self.root = root
        self.rng = rng
        self.pm = pm

    def setup(self, cli: Callable[[list[str]], int]) -> Item:
        warm = self.root / "warm.peg"
        warm.write_text(I.render_grammar(I.sibling_grammar(self.rng, "ab")), encoding="utf-8")
        return Item("check warm.peg", ["check", str(warm)], 0, _first_line_check("well-formed"))

    def rounds(self) -> Iterator[list[Item]]:
        for index in itertools.count():
            yield list(self.chain(index))

    def chain(self, index: int) -> Iterator[Item]:
        r, pm = self.rng, self.pm
        long_rule = r.randint(1200, 3000) if index % self.LONG_EVERY == 1 else None
        g = I.large_grammar(r, self.RULES, self.STATES, long_rule)
        sib = I.sibling_grammar(r, g.alphabet)
        oracle, sib_oracle = I.Oracle(g), I.Oracle(sib)
        words = I.words_for(r, g, oracle, self.WORDS, 8)
        cases = [(w, oracle.accepts(w)) for w in words]

        def f(kind: str, ext: str) -> Path:
            return self.root / f"g{index}-{kind}.{ext}"

        src, other = f("src", "peg"), f("sib", "peg")
        src.write_text(I.render_grammar(g), encoding="utf-8")
        other.write_text(I.render_grammar(sib), encoding="utf-8")
        mach = f("compiled", "mach")

        def artifact(cmd: str, out: Path, cases, *args: str, needs: Path | None = None) -> Item:
            if out.suffix == ".peg":
                check = grammar_artifact_check(pm, out, cases)
            else:
                check = machine_artifact_check(out, cases)
            return Item(f"{cmd} {Path(args[0]).name}", [*cmd.split(), *args, "-o", str(out)], 0, check, needs)

        def check(path: Path, first_line: str, needs: Path | None = None) -> Item:
            return Item(f"check {path.name}", ["check", str(path)], 0, _first_line_check(first_line), needs)

        # The checks of the compiled and normalized machines read large
        # machine files; with normalize and extract they are the chain's
        # slow items, about a fifth of it, so its 90th percentile falls
        # inside that group rather than at its edge.
        norm = f("norm", "mach")
        yield check(src, "well-formed")
        yield artifact("desugar", f("desugar", "peg"), cases, str(src))
        yield artifact("cnf", f("cnf", "peg"), cases, str(src))
        yield artifact("compile", mach, cases, str(src))
        yield check(mach, "valid Machine", mach)
        yield artifact("normalize", norm, cases, str(mach), needs=mach)
        yield check(norm, "valid Machine", norm)
        yield artifact("extract", f("extract", "peg"), cases, str(mach), needs=mach)

        union = [(w, a or sib_oracle.accepts(w)) for w, a in cases]
        inter = [(w, a and sib_oracle.accepts(w)) for w, a in cases]
        compl = [(w, not a) for w, a in cases]
        yield artifact("compose union", f("union", "peg"), union, str(src), str(other))
        yield artifact("compose intersect", f("inter", "peg"), inter, str(src), str(other))
        yield artifact("compose complement", f("compl", "peg"), compl, str(src))

        for word, accept in cases[:6]:
            yield run_item(src, word, "packrat", accept)
        for word, accept in cases[6:]:
            yield run_item(src, word, "cook", accept)

        lang = I.block_language(r, g.alphabet)
        dpda = f("left", "dpda")
        dpda.write_text(lang.dpda_text(), encoding="utf-8")
        concat_words = [lang.word(r.randint(1, 3)) + v for v in words[:3]] + words[:3]
        concat = [(w, I.concat_member(lang, oracle, w)) for w in concat_words]
        yield artifact("compose concat-dcfl", f("concat", "mach"), concat, str(dpda), str(src))
        yield self._reg_closure(index)

    def _reg_closure(self, index: int) -> Item:
        r, pm = self.rng, self.pm
        langs = {label: I.block_language(r, "abcd") for label in ("l1", "l2")}
        dfa = self.root / f"g{index}-rc.dfa"
        dfa.write_text(I.dfa_text(r, tuple(langs)), encoding="utf-8")
        spec_lines = [f"@dfa {dfa.name}"]
        for label, lang in langs.items():
            path = self.root / f"g{index}-rc-{label}.dpda"
            path.write_text(lang.dpda_text(), encoding="utf-8")
            spec_lines.append(f"@bind {label} {path.name}")
        spec = self.root / f"g{index}-rc.spec"
        spec.write_text("\n".join(spec_lines) + "\n", encoding="utf-8")

        spec_obj = pm.CompositionSpec(
            pm.parse_dfa_text(dfa.read_text(encoding="utf-8")),
            {label: pm.parse_dpda_text(lang.dpda_text()) for label, lang in langs.items()},
        )
        letters = "".join(sorted({c for lang in langs.values() for c in (lang.p, lang.q)}))
        words = []
        for _ in range(4):
            labels = [r.choice(tuple(langs)) for _ in range(r.randint(1, 2))]
            words.append("".join(langs[label].word(r.randint(1, 3)) for label in labels)[:8])
        words += [I.random_word(r, letters, 6) for _ in range(2)]
        cases = [(w, pm.brute_force_membership(spec_obj, w)) for w in words]
        out = self.root / f"g{index}-rc.mach"
        return Item(
            f"compose reg-closure {spec.name}",
            ["compose", "reg-closure", str(spec), "-o", str(out)],
            0,
            machine_artifact_check(out, cases),
        )


# --- many-small ----------------------------------------------------------------------


class ManySmall:
    """Tiny grammars and words, where each command's fixed costs dominate."""

    name = "many-small"
    ROUND_SECONDS = 0.18  # measured on a 2-vCPU x86-64 VM, Python 3.11
    FUZZ_EVERY = 4
    BUDGET = "1000000"

    def __init__(self, root: Path, rng: random.Random, pm: SimpleNamespace):
        self.root = root
        self.rng = rng
        self.pm = pm

    def setup(self, cli: Callable[[list[str]], int]) -> Item:
        warm = self.root / "warm.peg"
        warm.write_text(I.render_grammar(I.FIG2), encoding="utf-8")
        return run_item(warm, "aab", "packrat", True)

    def rounds(self) -> Iterator[list[Item]]:
        """Rounds of ``FUZZ_EVERY`` groups; the first group of each ends with a fuzz item."""
        groups = itertools.count()
        while True:
            round_ = []
            for i in range(self.FUZZ_EVERY):
                round_ += self.group(next(groups), fuzz=i == 0)
            yield round_

    def group(self, index: int, fuzz: bool) -> list[Item]:
        r = self.rng
        g = I.small_grammar(r)
        oracle = I.Oracle(g)
        path = self.root / f"s{index}.peg"
        path.write_text(I.render_grammar(g), encoding="utf-8")
        words = I.words_for(r, g, oracle, 4, 12)
        while len(words) < 4:  # tiny languages: pad with distinct longer words
            w = I.random_word(r, g.alphabet, 12)
            if w not in words:
                words.append(w)
        engines = ["naive", "packrat", "direct", "cook"]
        r.shuffle(engines)
        items = []
        for engine, word in zip(engines, words):
            extra = ("--budget", self.BUDGET) if engine == "naive" else ()
            items.append(run_item(path, word, engine, oracle.accepts(word), extra))
        items.append(Item(f"check {path.name}", ["check", str(path)], 0, _first_line_check("well-formed")))
        if fuzz:
            seed = r.randrange(1, 2**31)
            items.append(Item(
                "fuzz --cases 1",
                ["fuzz", "--cases", "1", "--seed", str(seed)],
                0,
                _first_line_check("cases=1"),
            ))
        return items

WORKLOADS = {w.name: w for w in (LongWords, LargeGrammars, ManySmall)}
