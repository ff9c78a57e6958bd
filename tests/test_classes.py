"""Definition 3.5 classifiers and certificate synthesis."""

import random
import sys
import time
from collections import Counter
from itertools import product

import pytest

from minarith import (BOT, BoolCases, BotPlus, ClassId, Const, FALSITY, FF,
                      GenConfig, Imp, NameSupply, ObjVar, TheoryId, TRUTH, TT,
                      Var, all_elim, alpha_eq_formula, assume, certify,
                      classify, format_report, formula_size, fresh_assumption,
                      gen_formula, imp, imp_intro, in_Q, in_QF, neg, app,
                      parse_proof, print_proof, prove_case_distinction,
                      recheck, subst_bot_falsity, subst_formula_var,
                      theory_leq)
from minarith import classes
from minarith.errors import LanguageError
from minarith.formula import All, And, Atom, Bot
from minarith.syntax import fold
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

    def test_q_and_qf_certificates_share_their_case_axiom(self):
        # The case variable is the least one free in neither term nor
        # target, so both certificates of an atom split on one
        # BoolCases node, whatever supply the caller passes.
        a = Atom(Var(x_bool))

        def case_axioms(m):
            return fold(m, lambda n, kids: set().union(*kids) | (
                {n.params[0]} if n.rule == "axiom"
                and isinstance(n.params[0], BoolCases) else set()))

        q, = case_axioms(certify(a, ClassId.Q, NameSupply(1000)))
        qf, = case_axioms(certify(a, ClassId.QF, NameSupply(2000)))
        assert q is qf

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

    # forall x_i (x_i -> A): case distinction splits each Boolean
    # quantifier once, so the Q and QF certificates no longer double per
    # level.  The ex-falso proof that the implication case needs of its
    # conclusion is a goal of the same synthesis, built once and shared
    # with the level above: 3,571 nodes (89 per level) at depth 40.
    @pytest.mark.parametrize("base", [Atom(TT), BOT])
    def test_nested_bool_case_distinction_does_not_double(self, base):
        a = base
        for i in range(40):
            x = ObjVar("x", i, BOOL)
            a = All(x, Imp(Atom(Var(x)), a))
        classes_in = [ClassId.QF] + ([ClassId.Q] if base != BOT else [])
        for c in classes_in:
            start = time.process_time()
            cert = certify(a, c)
            assert time.process_time() - start < 1.0
            visited = []
            fold(cert, lambda m, kids: visited.append(m))
            assert len(visited) <= 200 * 40
            s = subst_bot_falsity(a) if c == ClassId.QF else a
            assert alpha_eq_formula(
                cert.conclusion, imp(Imp(s, BOT), Imp(neg(s), BOT), BOT))

    def test_bool_chain_q_certificate_is_linear(self):
        a = Atom(TT)
        for i in range(80):
            x = ObjVar("x", i, BOOL)
            a = All(x, Imp(Atom(Var(x)), a))
        visited = []
        fold(certify(a, ClassId.Q), lambda m, kids: visited.append(m))
        assert len(visited) <= 200 * 80

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


# The definition by instances, written apart from ``classes``: a Boolean
# forall x B is a goal formula when B is irrelevant or both B[x := tt] and
# B[x := ff] are goal formulas, and A is in QF when A^F is in Q.


def _ref_in_q(a):
    match a:
        case Atom():
            return True
        case Imp(p, c) | And(p, c):
            return _ref_in_q(p) and _ref_in_q(c)
        case All(x, b):
            return x.ty == BOOL and _ref_in_q(b)
    return False


def _ref_flags(a, memo):
    """(Q, QF, D, G, R, I) of ``a``, memoized on the node."""
    hit = memo.get(a)
    if hit is not None:
        return hit
    match a:
        case Bot():
            d, g, r, i = True, True, True, False
        case Atom(t):
            d, g, r, i = True, True, t == TT, True
        case Imp(p, c):
            pd, pg, pr, pi = _ref_flags(p, memo)[2:]
            cd, cg, cr, ci = _ref_flags(c, memo)[2:]
            pqf = _ref_in_q(subst_bot_falsity(p))
            d = (pi and cd) or (pg and cr)
            g = ((pr or (pd and pqf)) and cg) or (pd and ci)
            r, i = pg and cr, pd and ci
        case And(left, right):
            d, g, r, i = (x and y for x, y in zip(_ref_flags(left, memo)[2:],
                                                  _ref_flags(right, memo)[2:]))
        case All(x, b):
            bd, _, br, bi = _ref_flags(b, memo)[2:]
            g = bi or (x.ty == BOOL and all(
                _ref_flags(subst_formula_var(b, x, t), memo)[3]
                for t in (TT, FF)))
            d, r, i = bd or br, br, bi
    out = memo[a] = (_ref_in_q(a), _ref_in_q(subst_bot_falsity(a)),
                     d, g, r, i)
    return out


CASES = Const("cases", (BOOL,))


def _random_ma(rng, size):
    """An MA formula whose binders draw from two indices, so they clash."""
    if size <= 1:
        k = rng.random()
        x = ObjVar("x", rng.randrange(2), BOOL)
        if k < 0.35:
            return BOT
        if k < 0.75:
            return Atom(Var(x))
        if k < 0.85:
            return Atom(app(CASES, Var(x), TT, FF))
        return Atom(rng.choice((TT, FF)))
    if size < 3 or rng.random() < 0.35:
        ty = NAT if rng.random() < 0.2 else BOOL
        return All(ObjVar("x", rng.randrange(2), ty), _random_ma(rng, size - 1))
    split = rng.randint(1, size - 2)
    op = Imp if rng.random() < 0.9 else And
    return op(_random_ma(rng, split), _random_ma(rng, size - 1 - split))


def _bool_quantifiers(a):
    match a:
        case Imp(p, c) | And(p, c):
            yield from _bool_quantifiers(p)
            yield from _bool_quantifiers(c)
        case All(x, b):
            if x.ty == BOOL:
                yield a
            yield from _bool_quantifiers(b)


class TestDefinitionByInstances:
    def test_flags_agree_and_goal_certificates_check(self):
        rng = random.Random(0)
        flips = certified = 0
        for _ in range(5000):
            a = _random_ma(rng, rng.randint(1, 24))
            memo = {}
            want = _ref_flags(a, memo)
            r = classify(a)
            assert (r.in_Q, r.in_QF, r.in_D, r.in_G, r.in_R, r.in_I) == want
            assert (in_Q(a), in_QF(a)) == want[:2]
            # quantifier nodes where the tt instance adds the goal flag
            flipped = sum(
                _ref_flags(subst_formula_var(q.body, q.bound, TT), memo)[3]
                != _ref_flags(q.body, memo)[3] for q in _bool_quantifiers(a))
            flips += flipped
            if flipped and r.in_G:
                cert = certify(a, ClassId.GOAL)
                assert not cert.free_assumptions
                assert alpha_eq_formula(
                    recheck(cert).conclusion,
                    Imp(a, Imp(Imp(subst_bot_falsity(a), BOT), BOT)))
                certified += 1
        assert flips >= 100
        assert certified >= 20


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
        p = certify(a, ClassId.DEFINITE)
        want = Imp(subst_bot_falsity(a), a)
        assert alpha_eq_formula(p.conclusion, want)
        recheck(p)

    def test_absent_when_not_member(self):
        assert certify(BOT, ClassId.IRRELEVANT) is None
        assert certify(BOT, ClassId.Q) is None

    def test_q_certificate_is_case_distinction(self):
        a = Atom(TT)
        p = certify(a, ClassId.Q)
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
                cert = certify(a, cid)
                assert (cert is not None) == report.flag(cid)
                if cert is not None:
                    assert not cert.free_assumptions
                    assert theory_leq(cert.min_theory, TheoryId.MA)
                    assert alpha_eq_formula(cert.conclusion, target(a, af))
                    recheck(cert)

    def test_classify_with_certificates(self):
        r = classify(Atom(TT), with_certificates=True)
        assert set(r.certificates) == {c for c in ClassId if r.flag(c)}

    def test_classes_share_the_premise_certificate(self):
        # The D and R certificates of an implication both contain the
        # GOAL certificate of its premise; classify builds it once.
        goal_bot = Imp(BOT, Imp(Imp(FALSITY, BOT), BOT))
        certs = classify(Imp(BOT, TRUTH), with_certificates=True).certificates

        def goal_certificates(m):
            found = set()
            fold(m, lambda n, kids: found.add(n) if (
                n.conclusion == goal_bot and not n.free_assumptions) else None)
            return found

        assert goal_certificates(certs[ClassId.DEFINITE]) & \
            goal_certificates(certs[ClassId.RELEVANT])


# The class property that each certificate concludes, from A and A^F.
_TARGETS = {
    ClassId.Q: lambda a, af: imp(Imp(a, BOT), Imp(neg(a), BOT), BOT),
    ClassId.QF: lambda a, af: imp(Imp(af, BOT), Imp(neg(af), BOT), BOT),
    ClassId.DEFINITE: lambda a, af: Imp(af, a),
    ClassId.GOAL: lambda a, af: Imp(a, Imp(Imp(af, BOT), BOT)),
    ClassId.RELEVANT: lambda a, af: Imp(Imp(neg(af), BOT), a),
    ClassId.IRRELEVANT: lambda a, af: Imp(a, af),
}


def _tt_chain(n):
    a = TRUTH
    for _ in range(n):
        a = Imp(TRUTH, a)
    return a


def test_deep_chain_certifies_at_the_default_recursion_limit():
    # Synthesis keeps waiting goals on an explicit stack.  ``==`` is
    # identity on interned nodes, so the comparison does not recurse.
    a = _tt_chain(1500)
    assert sys.getrecursionlimit() < 1500
    af = subst_bot_falsity(a)
    want = {c: target(a, af) for c, target in _TARGETS.items()}
    for c in ClassId:
        assert certify(a, c).conclusion == want[c]
    certs = classify(a, with_certificates=True).certificates
    assert {c: m.conclusion for c, m in certs.items()} == want


def test_deep_quantifier_body_is_instantiated_at_the_default_limit():
    # forall x (tt -> ... -> atom x): Q and QF certify through its boolean
    # instances, which substitute on an explicit stack, and so does the
    # kernel's all_elim when a proof of it is read and rechecked.  It has no
    # bottom, so it is its own A^F.
    x = ObjVar("x", 0, BOOL)
    a = All(x, imp(*[TRUTH] * 1500, Atom(Var(x))))
    assert sys.getrecursionlimit() < 1500
    for c in (ClassId.Q, ClassId.QF):
        assert certify(a, c).conclusion == _TARGETS[c](a, a)
    p = prove_case_distinction(a, BOT, TheoryId.MA)
    assert p.conclusion == imp(Imp(a, BOT), Imp(neg(a), BOT), BOT)
    u = fresh_assumption("u", a, NameSupply())
    m = imp_intro(u, all_elim(assume(u), TT))
    text = print_proof(m)
    assert recheck(parse_proof(text, TheoryId.NA)).conclusion is \
        Imp(a, imp(*[TRUTH] * 1501))


def test_six_classes_of_a_400_deep_chain_certify_in_linear_time():
    a = _tt_chain(400)
    start = time.process_time()
    for c in ClassId:
        assert certify(a, c) is not None
    assert time.process_time() - start < 2.0


def _bot_chain(n):
    # bot -> ... -> bot -> tt: in QF, D, G, R and I, and with bottom at every
    # level, so no certificate of it is the bottom-free identity at its root
    a = TRUTH
    for _ in range(n):
        a = Imp(BOT, a)
    return a


def test_deep_bot_chain_certifies_at_the_default_recursion_limit():
    a = _bot_chain(1500)
    assert sys.getrecursionlimit() < 1500
    af = subst_bot_falsity(a)
    want = {c: _TARGETS[c](a, af) for c in ClassId if c != ClassId.Q}
    for c in ClassId:
        m = certify(a, c)
        assert (m is None) if c == ClassId.Q else m.conclusion == want[c]
    certs = classify(a, with_certificates=True).certificates
    assert {c: m.conclusion for c, m in certs.items()} == want


def test_five_classes_of_a_400_deep_bot_chain_certify_in_linear_time():
    a = _bot_chain(400)
    start = time.process_time()
    for c in ClassId:
        assert (certify(a, c) is None) == (c == ClassId.Q)
    assert time.process_time() - start < 2.0


def _dag_nodes(m):
    seen = []
    fold(m, lambda n, kids: seen.append(n))
    return len(seen)


class TestBottomFreeShortcut:
    """Without bottom A^F is A: D and I certify by the identity, G by
    ``λu λv. v u``, whatever the size of A."""

    def test_bottom_free_members_have_constant_certificates(self):
        for size, seed in product((9, 12, 15), range(400)):
            a = gen_formula(GenConfig(seed=seed, max_size=size,
                                      language=TheoryId.MA))
            if a.has_bot:
                continue
            report = classify(a)
            for c, nodes in ((ClassId.DEFINITE, 2), (ClassId.IRRELEVANT, 2),
                             (ClassId.GOAL, 5)):
                if report.flag(c):
                    m = certify(a, c)
                    assert _dag_nodes(m) == nodes
                    assert m.min_theory == (TheoryId.NA if nodes == 2
                                            else TheoryId.MA)
                    assert m.conclusion == _TARGETS[c](a, a)
                    recheck(m)

    def test_sub_certificate_of_a_bottom_free_premise_is_the_identity(self):
        x, y = ObjVar("x", 0, BOOL), ObjVar("y", 1, BOOL)
        p = Imp(Atom(Var(x)), Atom(Var(y)))
        m = certify(Imp(p, BOT), ClassId.DEFINITE)
        recheck(m)
        # the premise's IRRELEVANT certificate, p -> p^F, is p -> p
        found = []
        fold(m, lambda n, kids: found.append(n) if (
            n.conclusion == Imp(p, p) and not n.free_assumptions) else None)
        assert found and all(_dag_nodes(n) == 2 for n in found)


def test_certificate_sizes_of_400_formulas_are_pinned():
    # The pins count every certificate of all six classes of MA seeds 0-399
    # at size 12.  Before the bottom-free shortcut the totals were 141,872
    # DAG nodes and 2,439,390 printed bytes; Q and QF are unchanged by it.
    nodes = printed = 0
    for seed in range(400):
        a = gen_formula(GenConfig(seed=seed, max_size=12,
                                  language=TheoryId.MA))
        af = subst_bot_falsity(a)
        for c, m in classify(a, with_certificates=True).certificates.items():
            assert not m.free_assumptions
            assert theory_leq(m.min_theory, TheoryId.MA)
            assert recheck(m).conclusion == _TARGETS[c](a, af)
            nodes += _dag_nodes(m)
            printed += len(print_proof(m).encode())
    assert (nodes, printed) == (107_664, 1_944_073)


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
