"""The refined A-translation pipeline."""

import pytest

from minarith import (BOT, ClassId, Ex, FALSITY, GenConfig, Imp,
                      NameSupply, ObjVar, TheoryId, TRUTH, TT, Truth, Var,
                      ZERO, All, Atom, TranslationInput,
                      a_translate_classified, all_elim, all_intro, assume,
                      axiom, alpha_eq_formula, certify, classify,
                      fresh_assumption, gen_formula, imp_elim, imp_intros,
                      pack_premises, parse_proof, print_proof, recheck,
                      refined_a_translate, subst_bot_falsity, theory_leq)
from minarith.errors import (CertificateError, ClassError, EmptyGoalError,
                             ShapeError)
from minarith.formula import And
from minarith.syntax import BOOL, NAT

from conftest import remark_st_formula


def tiny_premise(d, g, x, witness, supply):
    """Premise proof of d -> (forall x (g -> bot)) -> bot that instantiates
    the quantifier at the given witness term; works when g holds outright."""
    u = fresh_assumption("u", d, supply)
    v = fresh_assumption("v", All(x, Imp(g, BOT)), supply)
    inner = imp_elim(all_elim(assume(v), witness),
                     axiom(Truth(), TheoryId.MA))
    return imp_intros(inner, u, v)


class TestTheorem:
    def test_premise_indices_may_coincide_with_the_certificates(self):
        # The premise draws u 0 and v 1, and so does the goal certificate,
        # whose v 1 has another formula; each proof is closed, so the two
        # bindings coexist in the output.
        x = ObjVar("n", 0, NAT)
        prem = tiny_premise(TRUTH, TRUTH, x, ZERO, NameSupply(0))
        out = a_translate_classified(TRUTH, TRUTH, x, prem, NameSupply(0))
        assert not out.free_assumptions
        recheck(out)
        text = print_proof(out)
        assert print_proof(parse_proof(text, TheoryId.HA)) == text

    def test_truth_truth_nat(self, supply):
        x = ObjVar("n", supply.draw(), NAT)
        prem = tiny_premise(TRUTH, TRUTH, x, ZERO, supply)
        out = a_translate_classified(TRUTH, TRUTH, x, prem, supply)
        assert not out.free_assumptions
        assert theory_leq(out.min_theory, TheoryId.HA)
        assert alpha_eq_formula(out.conclusion, Imp(TRUTH, Ex(x, TRUTH)))
        recheck(out)

    def test_truth_atomvar_bool(self, supply):
        b = ObjVar("b", supply.draw(), BOOL)
        g = Atom(Var(b))
        u = fresh_assumption("u", TRUTH, supply)
        v = fresh_assumption("v", All(b, Imp(g, BOT)), supply)
        prem = imp_intros(imp_elim(all_elim(assume(v), TT),
                                   axiom(Truth(), TheoryId.MA)), u, v)
        out = a_translate_classified(TRUTH, g, b, prem, supply)
        assert alpha_eq_formula(out.conclusion, Imp(TRUTH, Ex(b, g)))
        recheck(out)

    def test_bot_bot(self, supply):
        y = ObjVar("n", supply.draw(), NAT)
        u = fresh_assumption("u", BOT, supply)
        v = fresh_assumption("v", All(y, Imp(BOT, BOT)), supply)
        prem = imp_intros(imp_elim(all_elim(assume(v), ZERO),
                                   assume(u)), u, v)
        out = a_translate_classified(BOT, BOT, y, prem, supply)
        assert alpha_eq_formula(out.conclusion,
                                Imp(FALSITY, Ex(y, FALSITY)))
        recheck(out)

    def test_bad_premise_shape(self, supply):
        prem = axiom(Truth(), TheoryId.MA)
        x = ObjVar("n", supply.draw(), NAT)
        with pytest.raises(ShapeError):
            a_translate_classified(TRUTH, TRUTH, x, prem, supply)

    def test_open_premise_rejected(self, supply):
        x = ObjVar("n", supply.draw(), NAT)
        spine = Imp(TRUTH, Imp(All(x, Imp(TRUTH, BOT)), BOT))
        u = fresh_assumption("u", spine, supply)
        with pytest.raises(ShapeError):
            a_translate_classified(TRUTH, TRUTH, x, assume(u), supply)

    def test_certificate_mismatch(self, supply):
        x = ObjVar("n", supply.draw(), NAT)
        prem = tiny_premise(TRUTH, TRUTH, x, ZERO, supply)
        bogus = axiom(Truth(), TheoryId.MA)
        cert_g = all_intro(x, certify(TRUTH, ClassId.GOAL, supply))
        inp = TranslationInput(prem, TRUTH, TRUTH, x, bogus, cert_g)
        with pytest.raises(CertificateError):
            refined_a_translate(inp, supply)

    def test_stated_formulas_must_match(self, supply):
        x = ObjVar("n", supply.draw(), NAT)
        prem = tiny_premise(TRUTH, TRUTH, x, ZERO, supply)
        cert_d = certify(TRUTH, ClassId.DEFINITE, supply)
        cert_g = all_intro(x, certify(TRUTH, ClassId.GOAL, supply))
        inp = TranslationInput(prem, FALSITY, TRUTH, x, cert_d, cert_g)
        with pytest.raises(ShapeError):
            refined_a_translate(inp, supply)

    def test_class_guard(self, supply):
        st, x, _ = remark_st_formula()
        prem = tiny_premise(st, TRUTH, x, ZERO, supply)
        with pytest.raises(ClassError):
            a_translate_classified(st, TRUTH, x, prem, supply)

    def test_equivalence_of_modes(self, supply):
        x = ObjVar("n", supply.draw(), NAT)
        prem = tiny_premise(TRUTH, TRUTH, x, ZERO, supply)
        out1 = a_translate_classified(TRUTH, TRUTH, x, prem, supply)
        cert_d = certify(TRUTH, ClassId.DEFINITE, supply)
        cert_g = all_intro(x, certify(TRUTH, ClassId.GOAL, supply))
        inp = TranslationInput(prem, TRUTH, TRUTH, x, cert_d, cert_g)
        out2 = refined_a_translate(inp, supply)
        assert alpha_eq_formula(out1.conclusion, out2.conclusion)


class TestGeneratedInstances:
    def test_arbitrary_definite_with_trivial_goal(self):
        # family 1: any definite d, goal T, premise instantiates at zero
        ran = 0
        seed = 0
        supply = NameSupply(500_000)
        while ran < 10 and seed < 4000:
            d = gen_formula(GenConfig(seed=seed, max_size=8,
                                      language=TheoryId.MA))
            seed += 1
            if not classify(d).in_D:
                continue
            ran += 1
            x = ObjVar("n", supply.draw(), NAT)
            prem = tiny_premise(d, TRUTH, x, ZERO, supply)
            out = a_translate_classified(d, TRUTH, x, prem, supply)
            df = subst_bot_falsity(d)
            assert alpha_eq_formula(out.conclusion, Imp(df, Ex(x, TRUTH)))
            assert theory_leq(out.min_theory, TheoryId.HA)
            recheck(out)
        assert ran == 10

    def test_arbitrary_goal_with_weak_existence_premise(self):
        # family 2: any suitable goal g over a boolean x, with the definite
        # formula d := (forall x (g -> bot)) -> bot, whose premise proof is
        # the identity application
        ran = 0
        seed = 0
        supply = NameSupply(900_000)
        while ran < 10 and seed < 6000:
            x = ObjVar("b", 999_990, BOOL)
            g = gen_formula(GenConfig(seed=seed, max_size=7,
                                      language=TheoryId.MA))
            seed += 1
            rg = classify(g)
            if not (rg.in_G and (rg.in_R or (rg.in_D and rg.in_QF))):
                continue
            d = Imp(All(x, Imp(g, BOT)), BOT)
            if not classify(d).in_D:
                continue
            ran += 1
            u = fresh_assumption("u", d, supply)
            v = fresh_assumption("v", All(x, Imp(g, BOT)), supply)
            prem = imp_intros(imp_elim(assume(u), assume(v)), u, v)
            out = a_translate_classified(d, g, x, prem, supply)
            df = subst_bot_falsity(d)
            gf = subst_bot_falsity(g)
            assert alpha_eq_formula(out.conclusion, Imp(df, Ex(x, gf)))
            assert theory_leq(out.min_theory, TheoryId.HA)
            recheck(out)
        assert ran == 10


class TestPacking:
    def test_empty_definites_give_truth(self):
        d, g = pack_premises([], [FALSITY])
        assert d == TRUTH and g == FALSITY

    def test_pairs_fold_right(self):
        d0, d1, g0, g1 = TRUTH, FALSITY, BOT, TRUTH
        d, g = pack_premises([d0, d1], [g0, g1])
        assert d == And(d0, d1)
        assert g == And(g0, g1)

    def test_singletons(self):
        assert pack_premises([TRUTH], [BOT]) == (TRUTH, BOT)

    def test_empty_goals_rejected(self):
        with pytest.raises(EmptyGoalError):
            pack_premises([TRUTH], [])
