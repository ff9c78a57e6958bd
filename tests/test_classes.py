"""Definition 3.5 classifiers and certificate synthesis."""

import sys
import time
from collections import Counter

import pytest

from minarith import (BOT, BotPlus, ClassId, Const, FALSITY, FF, GenConfig,
                      Imp, NameSupply, ObjVar, TheoryId, TRUTH, TT, Var,
                      alpha_eq_formula, certify, classify, format_report,
                      formula_size, gen_formula, imp, in_Q, in_QF, neg,
                      recheck, subst_bot_falsity, subst_formula_var,
                      theory_leq)
from minarith import classes
from minarith.errors import LanguageError
from minarith.formula import All, And, Atom
from minarith.syntax import BOOL, NAT

from conftest import remark_st_formula, remark_st_proof

x_bool = ObjVar("x", 0, BOOL)
n_nat = ObjVar("n", 1, NAT)


class TestQ:
    def test_atoms_in_q(self):
        assert in_Q(Atom(TT))

    def test_bot_not_in_q(self):
        assert not in_Q(BOT)

    def test_nat_quantifier_not_in_q(self):
        assert not in_Q(All(n_nat, Atom(TT)))

    def test_bool_quantifier_in_q(self):
        assert in_Q(All(x_bool, Atom(Var(x_bool))))

    def test_qf_unfolds_bot(self):
        assert in_QF(Imp(BOT, BOT))
        assert not in_Q(Imp(BOT, BOT))

    def test_qf_language_guard(self):
        from minarith.formula import Or
        with pytest.raises(LanguageError):
            in_QF(Or(TRUTH, TRUTH))

    def test_agrees_with_definition_by_instances(self):
        def by_instances(a):
            # The definition: forall x B is in Q when both instances are.
            match a:
                case Atom():
                    return True
                case Imp(p, c) | And(p, c):
                    return by_instances(p) and by_instances(c)
                case All(x, b) if x.ty == BOOL:
                    return all(by_instances(subst_formula_var(b, x, c))
                               for c in (TT, FF))
            return False

        members = 0
        for lang in (TheoryId.MA, TheoryId.HA):
            for seed in range(300):
                a = gen_formula(GenConfig(seed=seed, max_size=12,
                                          language=lang))
                assert in_Q(a) == by_instances(a)
                members += in_Q(a) and "bound=" in repr(a)  # quantified
        assert members > 20

    # forall x_i (bot -> A) over an atom, and forall x_i (x_i -> A) over
    # bottom, whose goal flag needs both instances of every body.
    @pytest.mark.parametrize("irrelevant_bodies", [True, False])
    def test_nested_bool_quantifiers_are_linear(self, irrelevant_bodies):
        a = Atom(Var(ObjVar("x", 0, BOOL))) if irrelevant_bodies else BOT
        for i in range(40):
            x = ObjVar("x", i, BOOL)
            a = All(x, Imp(BOT if irrelevant_bodies else Atom(Var(x)), a))
        start = time.process_time()
        report = classify(a)
        assert time.process_time() - start < 1.0
        assert report.in_QF and not report.in_Q and report.in_G
        start = time.process_time()
        cert = certify(a, ClassId.GOAL)
        assert time.process_time() - start < 1.0
        assert alpha_eq_formula(
            cert.conclusion,
            Imp(a, Imp(Imp(subst_bot_falsity(a), BOT), BOT)))

    @pytest.mark.parametrize("irrelevant_bodies", [True, False])
    def test_certify_computes_falsity_instance_once_per_node(
            self, irrelevant_bodies, monkeypatch):
        a = Atom(Var(ObjVar("x", 0, BOOL))) if irrelevant_bodies else BOT
        for i in range(40):
            x = ObjVar("x", i, BOOL)
            a = All(x, Imp(BOT if irrelevant_bodies else Atom(Var(x)), a))
        calls = Counter()

        def counted(b):
            calls[b] += 1
            return subst_bot_falsity(b)

        monkeypatch.setattr(classes, "subst_bot_falsity", counted)
        assert certify(a, ClassId.GOAL) is not None
        assert calls and max(calls.values()) == 1


class TestClassification:
    def test_bot_flags(self):
        r = classify(BOT)
        assert r.in_D and r.in_G and r.in_R and not r.in_I
        assert not r.in_Q and r.in_QF

    def test_truth_flags(self):
        r = classify(TRUTH)
        assert r.in_D and r.in_G and r.in_I and r.in_R

    def test_falsity_not_relevant(self):
        assert not classify(FALSITY).in_R
        assert classify(FALSITY).in_D

    def test_subset_laws_random(self):
        for seed in range(500):
            a = gen_formula(GenConfig(seed=seed, max_size=12,
                                      language=TheoryId.MA))
            r = classify(a)
            assert not r.in_R or r.in_D
            assert not r.in_I or r.in_G
            assert r.in_QF == in_Q(subst_bot_falsity(a))

    def test_classify_keeps_no_reference(self):
        a = gen_formula(GenConfig(seed=7, max_size=12, language=TheoryId.MA))
        before = sys.getrefcount(a)
        classify(a)
        assert sys.getrefcount(a) == before

    def test_remark_boundary_not_definite(self):
        st, _, _ = remark_st_formula()
        assert not classify(st).in_D

    def test_language_guard(self):
        from minarith.formula import Ex
        with pytest.raises(LanguageError):
            classify(Ex(x_bool, TRUTH))

    def test_report_format(self):
        out = format_report(classify(BOT))
        assert "D=yes" in out and "G=yes" in out
        assert "R=yes" in out and "I=no" in out and "Q=no" in out


class TestCertificates:
    def test_bot_definite_is_botplus(self):
        p = certify(BOT, ClassId.DEFINITE)
        assert p.rule == "axiom" and p.params[0] == BotPlus()

    def test_atom_tt_relevant_via_truth(self):
        p = certify(Atom(TT), ClassId.RELEVANT)
        want = Imp(Imp(neg(TRUTH), BOT), TRUTH)
        assert alpha_eq_formula(p.conclusion, want)
        tags = set()

        def walk(m):
            if m.rule == "axiom":
                tags.add(type(m.params[0]).__name__)
            for c in m.children:
                walk(c)

        walk(p)
        assert "Truth" in tags

    def test_subcase_goal_to_relevant(self):
        # Imp(G0, R0) with G0 goal-only-ish and R0 relevant
        g0 = Imp(BOT, FALSITY)
        r0 = Atom(TT)
        a = Imp(g0, r0)
        assert classify(a).in_D
        p = certify(a, ClassId.DEFINITE, NameSupply(1000))
        want = Imp(subst_bot_falsity(a), a)
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_absent_when_not_member(self):
        assert certify(BOT, ClassId.IRRELEVANT) is None
        assert certify(BOT, ClassId.Q) is None

    def test_q_certificate_is_case_distinction(self):
        a = Atom(TT)
        p = certify(a, ClassId.Q, NameSupply(1000))
        want = imp(Imp(a, BOT), Imp(neg(a), BOT), BOT)
        assert alpha_eq_formula(p.conclusion, want)

    def test_agreement_random(self):
        targets = {
            ClassId.DEFINITE: lambda a, af: Imp(af, a),
            ClassId.GOAL: lambda a, af: Imp(a, Imp(Imp(af, BOT), BOT)),
            ClassId.RELEVANT: lambda a, af: Imp(Imp(neg(af), BOT), a),
            ClassId.IRRELEVANT: lambda a, af: Imp(a, af),
        }
        for seed in range(250):
            a = gen_formula(GenConfig(seed=seed, max_size=10,
                                      language=TheoryId.MA))
            report = classify(a)
            af = subst_bot_falsity(a)
            for cid, target in targets.items():
                cert = certify(a, cid, NameSupply(100_000))
                assert (cert is not None) == report.flag(cid)
                if cert is not None:
                    assert not cert.free_assumptions
                    assert theory_leq(cert.min_theory, TheoryId.MA)
                    assert alpha_eq_formula(cert.conclusion, target(a, af))
                    recheck(cert)

    def test_classify_with_certificates(self):
        r = classify(Atom(TT), with_certificates=True)
        assert set(r.certificates) == {c for c in ClassId if r.flag(c)}


class TestTermination:
    def test_bool_instances_never_grow(self):
        for seed in range(200):
            a = gen_formula(GenConfig(seed=seed, max_size=10,
                                      language=TheoryId.MA))
            _check_instances_bounded(a)


def _check_instances_bounded(a):
    from minarith.formula import subst_formula_var

    match a:
        case All(x, b) if x.ty == BOOL:
            for t in (Const("tt"), Const("ff")):
                inst = subst_formula_var(b, x, t)
                assert formula_size(inst) <= formula_size(b)
                _check_instances_bounded(inst)
        case All(_, b):
            _check_instances_bounded(b)
        case Imp(p, c):
            _check_instances_bounded(p)
            _check_instances_bounded(c)
        case And(l, r):
            _check_instances_bounded(l)
            _check_instances_bounded(r)
        case _:
            pass


class TestRemarkFixture:
    def test_hand_proof_checks(self):
        proof, st = remark_st_proof()
        assert not proof.free_assumptions
        assert proof.min_theory == TheoryId.MA
        want = Imp(subst_bot_falsity(st), st)
        assert alpha_eq_formula(proof.conclusion, want)
        recheck(proof)
