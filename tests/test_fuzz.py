import random

from pegmachine import engines
from pegmachine.fuzz import (
    FuzzConfig,
    random_cnf_grammar,
    random_general_grammar,
    run_fuzz,
)
from pegmachine.peg import cnf_body_shape_ok, check_well_formed, desugar


def test_generated_grammars_are_cnf_and_well_formed():
    rng = random.Random(2)
    for _ in range(50):
        g = random_cnf_grammar(rng, 5, 2)
        assert check_well_formed(g).well_formed
        for name in g.nonterminals:
            assert cnf_body_shape_ok(g.rules[name])


def test_general_generator_well_formed_after_desugar():
    rng = random.Random(3)
    for _ in range(20):
        g = random_general_grammar(rng, 3, 2)
        assert check_well_formed(desugar(g)).well_formed


def test_seeded_run_is_reproducible():
    a = run_fuzz(FuzzConfig(seed=9, cases=15))
    b = run_fuzz(FuzzConfig(seed=9, cases=15))
    assert a.ok and b.ok
    assert a.cases_run == b.cases_run == 15


def test_clean_run_has_no_divergence():
    report = run_fuzz(FuzzConfig(seed=1, cases=40))
    assert report.ok


def test_corrupted_engine_is_caught_and_shrunk(monkeypatch):
    # Every engine is reached through pegmachine.engines.recognize, so a
    # fault put there shows in the fuzzer's cook column.
    real = engines.run_linear

    def corrupted(m, word):
        run = real(m, word)
        if len(word) % 2 == 1:
            return run._replace(outcome="reject" if run.outcome == "accept" else "accept")
        return run

    monkeypatch.setattr(engines, "run_linear", corrupted)
    report = run_fuzz(FuzzConfig(seed=7, cases=40))
    assert not report.ok
    div = report.divergence
    verdicts = dict(div.verdicts)
    assert len(set(verdicts.values())) > 1
    assert div.grammar_text
    # Shrinking keeps the divergence alive on a witness no longer than found.
    assert len(div.word) <= 9
