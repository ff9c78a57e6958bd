"""Bounded search oracle and random generators."""

from hashlib import sha256

import pytest

from minarith import (BOT, Derivable, FALSITY, GenConfig, Imp,
                      NameSupply, Or, TheoryId, TRUTH, Unknown,
                      alpha_eq_formula, bounded_derivable, classify,
                      formula_size, gen_formula, gen_proof, imp, in_Q,
                      in_language, neg, print_formula, print_proof,
                      prove_case_distinction, recheck)
from minarith.errors import LanguageError

from conftest import unlabel


class TestBoundedDerivable:
    def test_identity_implication(self):
        v = bounded_derivable(Imp(FALSITY, FALSITY), TheoryId.NA, 3)
        assert isinstance(v, Derivable)
        assert alpha_eq_formula(v.witness.conclusion, Imp(FALSITY, FALSITY))
        recheck(v.witness)

    def test_falsity_unknown(self):
        v = bounded_derivable(FALSITY, TheoryId.NA, 6)
        assert v == Unknown(6)

    def test_unknown_says_which_limit_ran_out(self):
        # FALSITY expands one node; Imp(F, F) needs two.
        assert bounded_derivable(FALSITY, TheoryId.NA, 6, node_cap=1) == \
            Unknown(6)
        v = bounded_derivable(FALSITY, TheoryId.NA, 6, node_cap=0)
        assert v == Unknown(6, True) and v.node_cap_hit
        assert not bounded_derivable(FALSITY, TheoryId.NA, 6).node_cap_hit
        goal = Imp(FALSITY, FALSITY)
        assert bounded_derivable(goal, TheoryId.NA, 3, node_cap=1) == \
            Unknown(depth_exhausted=3, node_cap_hit=True)
        assert isinstance(bounded_derivable(goal, TheoryId.NA, 3, node_cap=2),
                          Derivable)

    def test_disjunction_via_left_intro(self):
        goal = Or(TRUTH, neg(TRUTH))
        v = bounded_derivable(goal, TheoryId.HA, 4)
        assert isinstance(v, Derivable)
        assert alpha_eq_formula(v.witness.conclusion, goal)
        recheck(v.witness)

    def test_lem_in_pa(self):
        goal = Or(FALSITY, neg(FALSITY))
        v = bounded_derivable(goal, TheoryId.PA, 2)
        assert isinstance(v, Derivable)

    def test_language_guard(self):
        with pytest.raises(LanguageError):
            bounded_derivable(BOT, TheoryId.NA, 3)

    def test_bot_via_botplus_needs_falsity(self):
        # bot alone stays unknown; bot under an F assumption is found
        assert isinstance(bounded_derivable(BOT, TheoryId.MA, 6), Unknown)
        v = bounded_derivable(Imp(FALSITY, BOT), TheoryId.MA, 4)
        assert isinstance(v, Derivable)
        recheck(v.witness)

    def test_consistency_all_theories(self):
        for th in TheoryId:
            for depth in (2, 5, 8):
                assert isinstance(bounded_derivable(FALSITY, th, depth),
                                  Unknown)

    def test_cross_validation_case_distinction(self):
        # the S = Falsity instance of Lemma 3.2 is within search reach for
        # small Q-formulas, and the synthesizer always delivers regardless
        found = 0
        seed = 0
        while found < 25 and seed < 2000:
            a = gen_formula(GenConfig(seed=seed, max_size=3,
                                      language=TheoryId.NA))
            seed += 1
            if not in_Q(a):
                continue
            found += 1
            goal = imp(Imp(a, FALSITY), Imp(neg(a), FALSITY), FALSITY)
            v = bounded_derivable(goal, TheoryId.NA, 12)
            assert isinstance(v, Derivable)
            recheck(v.witness)
            p = prove_case_distinction(a, FALSITY, TheoryId.NA)
            recheck(p)
        assert found == 25


class TestGenFormula:
    def test_deterministic(self):
        cfg = GenConfig(seed=42, max_size=10, language=TheoryId.MA)
        assert gen_formula(cfg) == gen_formula(cfg)

    def test_size_one(self):
        for seed in range(40):
            a = gen_formula(GenConfig(seed=seed, max_size=1,
                                      language=TheoryId.MA))
            assert formula_size(a) == 1

    def test_language_and_size_respected(self):
        for lang in (TheoryId.NA, TheoryId.MA, TheoryId.HA):
            for seed in range(200):
                a = gen_formula(GenConfig(seed=seed, max_size=12,
                                          language=lang))
                assert in_language(a, lang)
                assert formula_size(a) <= 12

    def test_class_coverage(self):
        hits = {"D": 0, "G": 0, "R": 0, "I": 0}
        for seed in range(1000):
            a = gen_formula(GenConfig(seed=seed, max_size=12,
                                      language=TheoryId.MA))
            r = classify(a)
            hits["D"] += r.in_D
            hits["G"] += r.in_G
            hits["R"] += r.in_R
            hits["I"] += r.in_I
        assert all(v >= 1 for v in hits.values()), hits


def test_generated_text_is_fixed():
    # The benchmark's inputs come from these generators: a change to them
    # must keep every seed's formula and proof.
    h = sha256()
    for lang in TheoryId:
        for size in (4, 9, 12, 15):
            for seed in range(1500):
                cfg = GenConfig(seed, size, lang)
                h.update(print_formula(gen_formula(cfg)).encode())
    # The proofs also go into a second digest with the labels on forms
    # other than proofs written out: the text of the generators' proofs
    # before those labels existed.
    old = h.copy()
    for seed in range(300):
        text = print_proof(gen_proof(seed))
        h.update(text.encode())
        old.update(unlabel(text).encode())
    assert h.hexdigest() == \
        "48cfcb504524ad42fdefa1b097fc496179d008996cc7cb84a61f91e4a9e84d40"
    assert old.hexdigest() == \
        "0feffa3e1fd157340985b8ba22d528730096ff08ccb4881ce9b8ecabb9c3e9f3"


class TestGenProof:
    def test_deterministic(self):
        a = gen_proof(7, 12, NameSupply(10_000))
        b = gen_proof(7, 12, NameSupply(10_000))
        assert alpha_eq_formula(a.conclusion, b.conclusion)

    def test_outputs_recheck(self):
        for seed in range(100):
            m = gen_proof(seed, 12, NameSupply(10_000))
            recheck(m)

    def test_bot_occurs_often(self):
        from minarith.formula import TheoryId as T

        with_bot = sum(
            gen_proof(seed, 12, NameSupply(10_000)).min_theory == T.MA
            for seed in range(100))
        assert with_bot >= 40
