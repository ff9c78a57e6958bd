"""Synthesized lemmas: ex-falso, bottom substitution, negative-translation
equivalence, and case distinction."""

import gc
import random
import sys
from hashlib import sha256

import pytest

from minarith import (BOT, FALSITY, TRUTH, All, And, Atom, BotPlus, Const,
                      GenConfig, Imp, IndList, ListType, NameSupply, ObjVar,
                      TheoryId, TT, FF, Var, all_intro, alpha_eq_formula,
                      and_intro, app, arrow, assume, axiom, formula_free_vars,
                      fresh_assumption, gen_formula, gen_proof, gg_translate,
                      imp, imp_intro, in_Q, min_language, neg, print_proof,
                      prove_case_distinction, prove_efq, prove_gg_equiv,
                      recheck, subst_bot, subst_bot_proof, subst_formula_var,
                      subst_objvar_proof, theory_leq, ClassId, certify,
                      classify)
from minarith.errors import ClassError, LanguageError
from minarith.kernel import AssumptionVar, BoolCases, Truth, all_elim
from minarith.syntax import BOOL, NAT, fold

from conftest import nameless, unlabel


class TestExFalso:
    def test_bot_case_is_botplus(self):
        p = prove_efq(BOT, TheoryId.MA)
        assert p.rule == "axiom"
        assert p.params[0] == BotPlus()

    def test_atom_case_uses_boolcases(self):
        p = prove_efq(Atom(TT), TheoryId.NA)
        assert alpha_eq_formula(p.conclusion, Imp(FALSITY, TRUTH))
        tags = set()

        def walk(m):
            if m.rule == "axiom":
                tags.add(type(m.params[0]).__name__)
            for c in m.children:
                walk(c)

        walk(p)
        assert {"BoolCases", "Truth"} <= tags

    def test_conjunction_case(self):
        a = And(TRUTH, FALSITY)
        p = prove_efq(a, TheoryId.NA)
        assert alpha_eq_formula(p.conclusion, Imp(FALSITY, a))
        recheck(p)

    def test_language_guard(self):
        with pytest.raises(LanguageError):
            prove_efq(BOT, TheoryId.NA)

    @pytest.mark.parametrize("th", list(TheoryId))
    def test_random_formulas(self, th):
        lang = th if th != TheoryId.PA else TheoryId.HA
        for seed in range(100):
            a = gen_formula(GenConfig(seed=seed, max_size=10, language=lang))
            p = prove_efq(a, th)
            assert not p.free_assumptions
            assert alpha_eq_formula(p.conclusion, Imp(FALSITY, a))
            assert theory_leq(p.min_theory, th)
            recheck(p)


class TestSubstObjvarProof:
    def test_instantiates_conclusion(self):
        sp = NameSupply()
        x = ObjVar("x", sp.draw(), BOOL)
        u = fresh_assumption("u", Atom(Var(x)), sp)
        p = imp_intro(u, assume(u))
        q = subst_objvar_proof(p, x, TT, sp)
        assert q.conclusion == Imp(Atom(TT), Atom(TT))
        recheck(q)

    def test_indlist_element_variable_renamed(self):
        # y := x, where x is the axiom's element variable: x is renamed.
        p = ObjVar("p", 0, arrow(NAT, ListType(NAT), BOOL))
        l = ObjVar("l", 1, ListType(NAT))
        x = ObjVar("x", 2, NAT)
        y = ObjVar("y", 3, NAT)
        m = axiom(IndList(l, x, Atom(app(Var(p), Var(y), Var(l)))),
                  TheoryId.NA)
        q = subst_objvar_proof(m, y, Var(x), NameSupply(100))
        want = subst_formula_var(m.conclusion, y, Var(x))
        assert alpha_eq_formula(q.conclusion, want)
        assert x in formula_free_vars(q.conclusion)
        assert alpha_eq_formula(recheck(q).conclusion, want)

    def test_shared_subproof_under_capturing_binder(self):
        # N is used both under "all y" and outside it; x := y must rename
        # the binder in the first use only.
        sp = NameSupply()
        x = ObjVar("x", sp.draw(), BOOL)
        y = ObjVar("y", sp.draw(), BOOL)
        v = fresh_assumption("v", Imp(Atom(Var(x)), Atom(Var(y))), sp)
        n = imp_intro(v, assume(v))
        m = and_intro(all_intro(y, n), n)
        q = subst_objvar_proof(m, x, Var(y), sp)
        assert alpha_eq_formula(q.conclusion,
                                subst_formula_var(m.conclusion, x, Var(y)))
        assert q.conclusion.right == Imp(Imp(Atom(Var(y)), Atom(Var(y))),
                                         Imp(Atom(Var(y)), Atom(Var(y))))
        recheck(q)

    def test_binder_over_x_shields(self):
        sp = NameSupply()
        x = ObjVar("x", sp.draw(), BOOL)
        v = fresh_assumption("v", Atom(Var(x)), sp)
        m = all_intro(x, imp_intro(v, assume(v)))
        q = subst_objvar_proof(m, x, TT, sp)
        assert q.conclusion == m.conclusion
        assert q.children[0] is m.children[0]


class TestSubstBotProof:
    def test_botplus_becomes_efq(self):
        sp = NameSupply()
        p = subst_bot_proof(axiom(BotPlus(), TheoryId.MA), TRUTH, sp)
        assert alpha_eq_formula(p.conclusion, Imp(FALSITY, TRUTH))
        assert theory_leq(p.min_theory, TheoryId.NA)

    def test_assumption_renamed(self):
        sp = NameSupply()
        u = fresh_assumption("u", BOT, sp)
        q = subst_bot_proof(assume(u), TRUTH, sp)
        assert q.conclusion == TRUTH
        (v,) = q.free_assumptions
        assert v.name == u.name
        assert v.formula == TRUTH

    def test_rejects_ha_proofs(self):
        from minarith import OrIntroL
        p = axiom(OrIntroL(TRUTH, TRUTH), TheoryId.HA)
        with pytest.raises(LanguageError):
            subst_bot_proof(p, TRUTH)

    def test_conclusion_commutes_on_random_proofs(self):
        for seed in range(150):
            m = gen_proof(seed, 10, NameSupply(10_000))
            for s in (TRUTH, FALSITY, Imp(TRUTH, BOT)):
                n = subst_bot_proof(m, s, NameSupply(60_000))
                assert alpha_eq_formula(n.conclusion,
                                        subst_bot(m.conclusion, s))
                recheck(n)
                # the free assumptions are the substituted originals, with
                # their names and indices
                key = lambda triple: (*triple[:2], repr(triple[2]))
                want = sorted(((u.name, u.index, nameless(
                    subst_bot(u.formula, s))) for u in m.free_assumptions),
                    key=key)
                got = sorted(((u.name, u.index, nameless(u.formula))
                              for u in n.free_assumptions), key=key)
                assert want == got

    def test_binder_over_substituent_variable_renamed(self):
        sp = NameSupply()
        y = ObjVar("y", sp.draw(), BOOL)
        v = fresh_assumption("v", Imp(Atom(Var(y)), BOT), sp)
        m = all_intro(y, imp_intro(v, assume(v)))
        s = Atom(Var(y))
        q = subst_bot_proof(m, s, sp)
        assert q.conclusion.bound != y
        assert alpha_eq_formula(q.conclusion, subst_bot(m.conclusion, s))
        recheck(q)

    def test_discharge_across_renamed_binder(self):
        # The binder over y is renamed because y is free in s; the
        # assumption used below it must still be the one discharged above.
        sp = NameSupply()
        y = ObjVar("y", sp.draw(), BOOL)
        v = fresh_assumption("v", BOT, sp)
        m = imp_intro(v, all_intro(y, assume(v)))
        assert m.free_assumptions == frozenset()
        s = Atom(Var(y))
        q = subst_bot_proof(m, s, sp)
        assert q.free_assumptions == frozenset()
        assert alpha_eq_formula(q.conclusion, subst_bot(m.conclusion, s))
        recheck(q)

    def test_na_subproof_is_kept(self):
        sp = NameSupply()
        u = fresh_assumption("u", TRUTH, sp)
        na = and_intro(assume(u), axiom(Truth(), TheoryId.NA))
        assert na.min_theory is TheoryId.NA
        m = and_intro(na, axiom(BotPlus(), TheoryId.MA))
        q = subst_bot_proof(m, TRUTH, sp)
        assert q.children[0] is na
        assert q.free_assumptions == frozenset({u})

    def test_draws_no_index_without_botplus(self):
        sp = NameSupply()
        u = fresh_assumption("u", BOT, sp)
        v = fresh_assumption("v", Imp(BOT, TRUTH), sp)
        m = imp_intro(u, and_intro(assume(u), assume(v)))
        start = sp.next_index
        q = subst_bot_proof(m, Imp(TRUTH, TRUTH), sp)
        assert sp.next_index == start
        (w,) = q.free_assumptions
        assert (w.name, w.index) == (v.name, v.index)
        recheck(q)

    def test_bottom_free_assumption_across_renamed_binder(self):
        # u is bottom-free, so its image is u itself above the binder over
        # y, where the substitution is empty, and below it, where y is
        # renamed; the NA part below the binder mentions y, so it must be
        # rewritten there, not kept.
        sp = NameSupply()
        y = ObjVar("y", sp.draw(), BOOL)
        b = ObjVar("b", sp.draw(), BOOL)
        u = fresh_assumption("u", TRUTH, sp)
        cases = axiom(BoolCases(b, Imp(Atom(Var(b)), Atom(Var(b)))),
                      TheoryId.NA)
        na = and_intro(assume(u), all_elim(cases, Var(y)))
        assert na.min_theory is TheoryId.NA and y in na.conclusion.fv
        m = imp_intro(u, all_intro(y, and_intro(
            na, axiom(BotPlus(), TheoryId.MA))))
        assert m.free_assumptions == frozenset()
        s = Atom(Var(y))
        q = subst_bot_proof(m, s, sp)
        assert q.free_assumptions == frozenset()
        assert q.conclusion.prem is TRUTH
        assert alpha_eq_formula(q.conclusion, subst_bot(m.conclusion, s))
        recheck(q)

    def test_twins_with_one_image_become_one_variable(self):
        # u and w share a name and index; (bot)^S is w's formula, so the
        # image of u's imp_intro discharges w as well.
        u = AssumptionVar("u", 0, BOT)
        w = AssumptionVar("u", 0, TRUTH)
        m = imp_intro(u, assume(w))
        assert m.free_assumptions == frozenset({w})
        q = subst_bot_proof(m, TRUTH)
        assert q.conclusion == Imp(TRUTH, TRUTH)
        assert q.free_assumptions == frozenset()
        recheck(q)

    def test_small_indices_on_both_sides(self):
        # Input and substitution draw from supplies that both start at 0.
        for seed in range(150):
            m = gen_proof(seed, 10, NameSupply(0))
            for s in (TRUTH, FALSITY, Imp(TRUTH, BOT)):
                n = subst_bot_proof(m, s, NameSupply(0))
                recheck(n)
                assert alpha_eq_formula(n.conclusion,
                                        subst_bot(m.conclusion, s))
                assert n.free_assumptions == frozenset(
                    AssumptionVar(u.name, u.index, subst_bot(u.formula, s))
                    for u in m.free_assumptions)

    def test_truth_substitution_lands_in_na(self):
        for seed in range(100):
            m = gen_proof(seed, 10, NameSupply(10_000))
            n = subst_bot_proof(m, TRUTH, NameSupply(60_000))
            assert theory_leq(n.min_theory, TheoryId.NA)


class TestGGEquiv:
    def test_falsity_case(self):
        p = prove_gg_equiv(FALSITY)
        want = And(Imp(FALSITY, FALSITY), Imp(FALSITY, FALSITY))
        assert alpha_eq_formula(p.conclusion, want)

    def test_atom_case(self):
        p = prove_gg_equiv(Atom(TT))
        want = And(Imp(TRUTH, neg(neg(TRUTH))), Imp(neg(neg(TRUTH)), TRUTH))
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_quantified_atom(self):
        x = ObjVar("x", 0, NAT)
        a = All(x, Atom(TT))
        p = prove_gg_equiv(a)
        want = And(Imp(a, gg_translate(a)), Imp(gg_translate(a), a))
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_language_guard(self):
        with pytest.raises(LanguageError):
            prove_gg_equiv(BOT)

    def test_random_na_formulas(self):
        for seed in range(100):
            a = gen_formula(GenConfig(seed=seed, max_size=10,
                                      language=TheoryId.NA))
            p = prove_gg_equiv(a)
            assert not p.free_assumptions
            assert p.min_theory == TheoryId.NA
            want = And(Imp(a, gg_translate(a)), Imp(gg_translate(a), a))
            assert alpha_eq_formula(p.conclusion, want)
            recheck(p)


class TestCaseDistinction:
    def test_atom_with_falsity(self):
        p = prove_case_distinction(Atom(TT), FALSITY, TheoryId.NA)
        want = imp(Imp(TRUTH, FALSITY), Imp(neg(TRUTH), FALSITY), FALSITY)
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_implication_case(self):
        a = Imp(Atom(TT), Atom(Const("ff")))
        p = prove_case_distinction(a, BOT, TheoryId.MA)
        want = imp(Imp(a, BOT), Imp(neg(a), BOT), BOT)
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_forall_bool_case(self):
        x = ObjVar("x", 0, BOOL)
        a = All(x, Atom(Var(x)))
        p = prove_case_distinction(a, FALSITY, TheoryId.NA)
        want = imp(Imp(a, FALSITY), Imp(neg(a), FALSITY), FALSITY)
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_bot_rejected(self):
        with pytest.raises(ClassError):
            prove_case_distinction(BOT, FALSITY, TheoryId.MA)

    def test_pa_rejected(self):
        with pytest.raises(LanguageError):
            prove_case_distinction(Atom(TT), FALSITY, TheoryId.PA)

    def test_nat_quantifier_inside_is_class_error(self):
        x, n = ObjVar("x", 0, BOOL), ObjVar("n", 0, NAT)
        a = All(x, Imp(Atom(Var(x)), All(n, Atom(TT))))
        with pytest.raises(ClassError):
            prove_case_distinction(a, FALSITY, TheoryId.NA)

    def test_random_q_formulas(self):
        found = 0
        seed = 0
        while found < 50 and seed < 3000:
            a = gen_formula(GenConfig(seed=seed, max_size=8,
                                      language=TheoryId.NA))
            seed += 1
            if not in_Q(a):
                continue
            found += 1
            for s in (FALSITY, BOT):
                th = TheoryId.MA if min_language(s) == TheoryId.MA \
                    else TheoryId.NA
                p = prove_case_distinction(a, s, th)
                assert not p.free_assumptions
                want = imp(Imp(a, s), Imp(neg(a), s), s)
                assert alpha_eq_formula(p.conclusion, want)
                recheck(p)
        assert found == 50


# Boolean binders drawn from two indices clash and shadow; free Var atoms
# and targets over the same variables make many quantifier cases meet a
# target in which the bound variable is free, so that it must be renamed.
_BINDERS = (ObjVar("x", 0, BOOL), ObjVar("x", 1, BOOL))
_LEAVES = tuple(Atom(t) for t in (TT, FF, Var(ObjVar("y", 0, BOOL)),
                                  *(Var(x) for x in _BINDERS)))


def _random_formula(rng, size, leaves):
    if size <= 1:
        return rng.choice(leaves)
    if size == 2 or rng.random() < 0.3:
        return All(rng.choice(_BINDERS),
                   _random_formula(rng, size - 1, leaves))
    left = rng.randint(1, size - 2)
    return rng.choice((Imp, And))(
        _random_formula(rng, left, leaves),
        _random_formula(rng, size - 1 - left, leaves))


def test_case_distinction_fuzz_with_clashing_binders():
    rng = random.Random(0)
    clashes = 0
    for _ in range(3000):
        a = _random_formula(rng, rng.randint(1, 10), _LEAVES)
        s = _random_formula(rng, rng.randint(1, 5), _LEAVES + (BOT,))
        assert in_Q(a)
        clashes += bool(s.fv & set(_BINDERS)) and "bound=" in repr(a)
        th = TheoryId.MA if min_language(s) == TheoryId.MA else TheoryId.NA
        p = prove_case_distinction(a, s, th)
        assert not p.free_assumptions
        recheck(p)
        assert alpha_eq_formula(p.conclusion,
                                imp(Imp(a, s), Imp(neg(a), s), s))
    assert clashes >= 500


def _tt_chain(n):
    a = TRUTH
    for _ in range(n):
        a = Imp(TRUTH, a)
    return a


def _least_eigenvariable(m):
    """The eigenvariable of least index of an all_intro in ``m``, or None."""
    ys = []
    fold(m, lambda n, kids: n.rule == "all_intro" and ys.append(n.params[0]))
    return min(ys, key=lambda y: y.index, default=None)


class TestDeepInput:
    """Synthesis keeps waiting goals on an explicit stack, so input deeper
    than the recursion limit is proved.  ``==`` is identity on interned
    nodes, so comparing the conclusions does not recurse."""

    a = _tt_chain(1500)

    def test_deeper_than_the_recursion_limit(self):
        assert sys.getrecursionlimit() < 1500

    @pytest.mark.parametrize("th", [TheoryId.NA, TheoryId.MA])
    def test_efq(self, th):
        assert prove_efq(self.a, th).conclusion == Imp(FALSITY, self.a)

    def test_case_distinction(self):
        p = prove_case_distinction(self.a, BOT, TheoryId.MA)
        assert p.conclusion == imp(Imp(self.a, BOT), Imp(neg(self.a), BOT),
                                   BOT)

    def test_gg_equiv(self):
        gg = gg_translate(self.a)
        assert prove_gg_equiv(self.a).conclusion == \
            And(Imp(self.a, gg), Imp(gg, self.a))


def test_synthesis_leaves_no_cyclic_garbage():
    # Every proof and every lemma run is freed by reference counting,
    # without waiting for a collection; also when a lemma raises.
    x = ObjVar("x", 0, BOOL)
    a = All(x, Imp(Atom(Var(x)), And(TRUTH, Imp(BOT, TRUTH))))
    m = gen_proof(3, 10, NameSupply(10_000))
    y = _least_eigenvariable(m)
    runs = [
        lambda: prove_efq(a, TheoryId.MA),
        lambda: prove_gg_equiv(subst_bot(a, FALSITY)),
        lambda: prove_case_distinction(a.body.prem, a, TheoryId.MA),
        lambda: certify(a, ClassId.GOAL),
        lambda: classify(a, with_certificates=True),
        lambda: subst_bot_proof(m, Imp(Atom(Var(y)), BOT)),
        lambda: subst_objvar_proof(m, y, Var(ObjVar("z", 0, BOOL))),
    ]
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            assert run() is not None
            assert gc.collect() == 0
        with pytest.raises(ClassError):
            prove_case_distinction(Imp(TRUTH, Imp(TRUTH, All(
                ObjVar("n", 0, NAT), TRUTH))), BOT, TheoryId.MA)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitution_and_equivalence_text_is_fixed():
    # Bottom substitution, which renames an eigenvariable in 1,033 of these
    # seeds, and the negative-translation equivalence.  The second digest
    # is of the text as printed before both ran on one synthesis engine,
    # which labelled only subproofs: writing the other labels out again
    # gives it byte for byte.
    h, old = sha256(), sha256()
    for seed in range(2000):
        m = gen_proof(seed, 10, NameSupply(10_000))
        if m.min_theory is not TheoryId.MA:
            continue
        targets = [TRUTH, FALSITY, Imp(TRUTH, BOT)]
        y = _least_eigenvariable(m)
        if y is not None:
            targets.append(Imp(Atom(Var(y)), BOT))
        for s in targets:
            text = print_proof(subst_bot_proof(m, s, NameSupply(80_000)))
            h.update(text.encode())
            old.update(unlabel(text).encode())
    for seed in range(300):
        a = gen_formula(GenConfig(seed=seed, max_size=12,
                                  language=TheoryId.NA))
        text = print_proof(prove_gg_equiv(a))
        h.update(text.encode())
        old.update(unlabel(text).encode())
    assert h.hexdigest() == \
        "347c196cc30cc0094b86bf4cf04759ec715b30ecbac122f18f2fb4c239e3104f"
    assert old.hexdigest() == \
        "35b925a19c9d5b52da32f3a313ec7c95ba1e988f53e21da42f7185d886e68c5f"


def test_synthesized_text_does_not_depend_on_the_supply():
    # Each lemma draws from a supply of its own, so a caller's supply,
    # which the synthesizers ignore, changes no byte of their output.
    for seed in range(100):
        a = gen_formula(GenConfig(seed=seed, max_size=9,
                                  language=TheoryId.MA))
        na = subst_bot(a, FALSITY)
        runs = [lambda sp: prove_efq(a, TheoryId.MA, sp),
                lambda sp: prove_gg_equiv(na, sp),
                *(lambda sp, c=c: certify(a, c, sp) for c in ClassId)]
        if classify(a).in_Q:
            runs.append(lambda sp: prove_case_distinction(a, BOT,
                                                          TheoryId.MA, sp))
        for run in runs:
            low, high = run(NameSupply(0)), run(NameSupply(10 ** 6))
            assert (low is None) == (high is None)
            if low is not None:
                assert print_proof(low) == print_proof(high)


def test_ex_falso_and_equivalence_share_their_case_axioms():
    p, q = (Atom(Var(ObjVar(n, 0, BOOL))) for n in "pq")
    a = And(p, Imp(q, p))

    def case_axioms(m):
        return fold(m, lambda n, kids: set().union(*kids) | (
            {n.params[0]} if n.rule == "axiom"
            and isinstance(n.params[0], BoolCases) else set()))

    assert len(case_axioms(prove_efq(a, TheoryId.MA))) == 1
    assert len(case_axioms(prove_gg_equiv(a))) == 1
