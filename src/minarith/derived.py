"""Proof-synthesizing derived lemmas.

Each synthesizer emits kernel constructions directly, one code path per case
of the underlying induction: ex-falso-quodlibet, bottom substitution inside
proofs, the negative-translation equivalence, and case distinction for the
class Q, which checks Q by structure and proves the body of a Boolean
quantifier once for both instances (``bool_instances``, ``bool_generalize``).
Each induction is a lemma run by ``synthesize``, which keeps the goals that
wait on a subgoal on an explicit stack, not on Python's.
"""

from __future__ import annotations

from .errors import ClassError, LanguageError
from .formula import (FALSITY, All, And, Atom, Bot, Ex, Formula, Imp, Or,
                      TheoryId, brief_repr, imp, in_language, min_language,
                      neg, subst, theory_leq)
from .kernel import (AssumptionVar, BoolCases, BotPlus, ExIntro, OrIntroL,
                     Proof, Truth, all_elim, all_intro, and_intro, assume,
                     axiom, build, fresh_assumption, imp_elim, imp_elims,
                     imp_intro, imp_intros, proj)
from .syntax import (BOOL, FF, NO_VARS, TT, Const, NameSupply, ObjVar, Term,
                     Var)


def synthesize(goal: tuple, memo: dict | None = None) -> Proof:
    """Prove ``goal``, a tuple ``(lemma, *args)``.

    A lemma is a generator ``lemma(supply, *args)``: it yields each subgoal
    it needs, is sent that subgoal's proof, and returns its own proof.
    Goals waiting on a subgoal sit on a stack.  Each lemma call gets a
    ``NameSupply()`` of its own, so the proof of a goal depends on the goal
    alone and a ``memo`` may prove each goal once.
    """
    waiting = []
    while True:
        proof = None if memo is None else memo.get(goal)
        if proof is None:
            waiting.append((goal, goal[0](NameSupply(), *goal[1:])))
        while waiting:
            top, lemma = waiting[-1]
            try:
                goal = lemma.send(proof)
                break
            except StopIteration as done:
                proof = done.value
            waiting.pop()
            if memo is not None:
                memo[top] = proof
        else:
            return proof


def _fresh_bool_var(supply: NameSupply, avoid) -> ObjVar:
    return supply.fresh_avoiding(ObjVar("b", 0, BOOL), avoid)


def bool_instances(x: ObjVar, m: Proof) -> tuple[Proof, Proof]:
    """The instances at tt and at ff of ``all_intro(x, m)``."""
    gen = all_intro(x, m)
    return all_elim(gen, TT), all_elim(gen, FF)


def bool_generalize(x: ObjVar, b: Formula, m_tt: Proof, m_ff: Proof,
                    th: TheoryId) -> Proof:
    """forall x B from proofs of B[tt] and B[ff], by ``BoolCases(x, B)``."""
    cases = all_elim(axiom(BoolCases(x, b), th), Var(x))
    return all_intro(x, imp_elims(cases, m_tt, m_ff))


# ---------------------------------------------------------------------------
# Ex falso quodlibet


def prove_efq(a: Formula, th: TheoryId, supply=None) -> Proof:
    """Closed proof of F -> A in the given theory; ``supply`` is ignored."""
    if not in_language(a, th):
        raise LanguageError(f"formula is not in the language of {th.value}")
    return synthesize((_efq, a, th))


def _efq(supply: NameSupply, a: Formula, th: TheoryId):
    match a:
        case Bot():
            return axiom(BotPlus(), th)
        case Atom(t):
            b = _fresh_bool_var(supply, t.fv)
            cases = axiom(BoolCases(b, Atom(Var(b))), th)
            inst = all_elim(cases, t)  # T -> F -> atom t
            return imp_elim(inst, axiom(Truth(), th))
        case Imp(p, c):
            u = fresh_assumption("u", FALSITY, supply)
            v = fresh_assumption("v", p, supply)
            m = yield (_efq, c, th)
            return imp_intro(u, imp_intro(v, imp_elim(m, assume(u))))
        case And(l, r):
            u = fresh_assumption("u", FALSITY, supply)
            m_l = yield (_efq, l, th)
            m_r = yield (_efq, r, th)
            return imp_intro(u, and_intro(imp_elim(m_l, assume(u)),
                                          imp_elim(m_r, assume(u))))
        case All(x, b):
            u = fresh_assumption("u", FALSITY, supply)
            m = yield (_efq, b, th)
            return imp_intro(u, all_intro(x, imp_elim(m, assume(u))))
        case Or(l, r):
            u = fresh_assumption("u", FALSITY, supply)
            intro = axiom(OrIntroL(l, r), th)
            m = yield (_efq, l, th)
            return imp_intro(u, imp_elim(intro, imp_elim(m, assume(u))))
        case Ex(x, b):
            u = fresh_assumption("u", FALSITY, supply)
            intro = axiom(ExIntro(b, x, Var(x)), th)  # B -> exists x B
            m = yield (_efq, b, th)
            return imp_intro(u, imp_elim(intro, imp_elim(m, assume(u))))
    raise ValueError(f"unexpected formula {a!r}")


# ---------------------------------------------------------------------------
# Substitution through proofs


def subst_objvar_proof(m: Proof, x: ObjVar, t: Term,
                       supply: NameSupply | None = None) -> Proof:
    """Substitute the object variable ``x`` by ``t`` throughout a proof.

    Assumption variables keep their identity; their formulas are rewritten
    uniformly.  Binders over ``x`` shield their subtrees, binders over free
    variables of ``t`` are alpha-renamed first.  ``supply`` is ignored.
    """
    if t.ty != x.ty:
        raise TypeError(f"cannot substitute term of type {t.ty} for {x}")
    return _subst_proof(m, ((x, t),), None, None)


def subst_bot_proof(m: Proof, s: Formula,
                    supply: NameSupply | None = None) -> Proof:
    """Rewrite an MA proof of A into a proof of A^S.

    A free assumption (u_i : A_i) turns into (u_i : A_i^S), with the same
    name and index; every bottom-introduction axiom becomes one shared
    ex-falso proof of F -> S, which is closed.  A subproof in NA has no
    bottom, so it comes back as it is.  ``supply`` is ignored.
    """
    if not theory_leq(m.min_theory, TheoryId.MA):
        raise LanguageError("bottom substitution applies to NA/MA proofs only")
    s_lang = min_language(s)  # rejects mixed-language substituents
    th_out = s_lang if s_lang != TheoryId.PA else TheoryId.HA
    return _subst_proof(m, (), s, th_out)


def _subst_proof(m: Proof, sigma, s: Formula | None,
                 th: TheoryId | None) -> Proof:
    """The walk shared by both proof substitutions, over (node, sigma) goals.

    sigma is the simultaneous variable substitution in force at the node, as
    a tuple of (y, r) pairs.  A binder over y (an ``all_intro`` eigenvariable
    or an axiom's ``ObjVar`` field) drops y from sigma, and renames y to its
    least free index if sigma or ``s`` would insert a free y, so the image
    of a node depends on the node, sigma and ``s`` alone.  ``s``, if given,
    replaces bottom.  Rebuilt axioms live in ``th``, or in their own theory
    if it is None.

    Where sigma is empty, a node that ``s`` cannot reach (every node if
    ``s`` is None, else one whose least theory is NA, so that none of its
    formulas has a bottom) is its own image, and its subtree is not entered.
    An assumption keeps its name and index; only its formula is rewritten.
    """
    fv_s = NO_VARS if s is None else s.fv
    memos = {}  # the memo of ``subst`` for each sigma

    def enter(y: ObjVar, sigma, formulas):
        """Eigenvariable and substitution below a binder over ``y``."""
        sigma = tuple(p for p in sigma if p[0] != y)
        inserted = fv_s.union(*(r.fv for _, r in sigma))
        if y not in inserted:
            return y, sigma
        avoid = inserted.union({y}, (v for v, _ in sigma),
                               *(f.fv for f in formulas))
        renamed = NameSupply().fresh_avoiding(y, avoid)
        return renamed, ((y, Var(renamed)),) + sigma

    def rewrite(a: Formula | Term, sigma) -> Formula | Term:
        return subst(a, dict(sigma), s, memo=memos.setdefault(sigma, {}))

    def assumption(u: AssumptionVar, sigma) -> AssumptionVar:
        # A binder renaming its eigenvariable changes sigma, but not the
        # part of it free in the formula of an assumption used across it,
        # where the eigenvariable is not free.  A formula's image depends
        # on that part alone, so its assume and imp_intro get one image.
        # An input never has two variables of one name and index free
        # together, so no image has; two whose formulas have one image
        # become one, so an image may have fewer free assumptions than the
        # input, never more.
        # Interning makes the images of ``u`` under one sigma one variable,
        # and an image with an unchanged formula ``u`` itself.
        return AssumptionVar(u.name, u.index, rewrite(u.formula, sigma))

    def subst_axiom(ax, th_m: TheoryId, sigma) -> Proof:
        # ObjVar fields bind every Formula field; Term fields lie outside.
        values = ax._args(ax)
        bodies = [v for v in values if isinstance(v, Formula)]
        inner, renamed = sigma, {}
        for v in values:
            if isinstance(v, ObjVar):
                renamed[v], inner = enter(v, inner, bodies)
        new = [renamed[v] if isinstance(v, ObjVar)
               else rewrite(v, inner if isinstance(v, Formula) else sigma)
               for v in values]
        return axiom(type(ax)(*new), th or th_m)

    def walk(_, m: Proof, sigma):
        if not sigma and (s is None or m.min_theory is TheoryId.NA):
            return m
        match m.rule:
            case "assume":
                return assume(assumption(m.params[0], sigma))
            case "axiom":
                if s is not None and isinstance(m.params[0], BotPlus):
                    # one closed proof of F -> s replaces each BotPlus
                    return (yield (_efq, s, th))
                return subst_axiom(m.params[0], m.min_theory, sigma)
            case "all_intro":
                child = m.children[0]
                fvs = [m.conclusion,
                       *(u.formula for u in child.free_assumptions)]
                y, inner = enter(m.params[0], sigma, fvs)
                return all_intro(y, (yield (walk, child, inner)))
        kids = []
        for child in m.children:
            kids.append((yield (walk, child, sigma)))
        match m.rule:
            case "imp_intro":
                return imp_intro(assumption(m.params[0], sigma), kids[0])
            case "all_elim":
                return all_elim(kids[0], rewrite(m.params[0], sigma))
        return build(m.rule, kids, m.params)

    try:
        return synthesize((walk, m, sigma), {})
    finally:
        walk = None  # walk refers to itself: break the cycle, so no GC pass


# ---------------------------------------------------------------------------
# Negative-translation equivalence over NA


def prove_gg_equiv(a: Formula, supply=None) -> Proof:
    """Closed NA proof of (A -> A~~) and (A~~ -> A), as a conjunction.

    ``supply`` is ignored.
    """
    if not in_language(a, TheoryId.NA):
        raise LanguageError("the equivalence lemma is stated for NA formulas")
    return synthesize((_gg_equiv, a))


def _gg_equiv(supply: NameSupply, a: Formula):
    na = TheoryId.NA
    match a:
        case Atom(t):
            u = fresh_assumption("u", a, supply)
            if t == Const("ff"):
                ident = imp_intro(u, assume(u))
                return and_intro(ident, ident)
            # direction A -> ~~A
            v = fresh_assumption("v", neg(a), supply)
            fwd = imp_intro(u, imp_intro(v, imp_elim(assume(v), assume(u))))
            # direction ~~A -> A via case distinction on the payload
            b = _fresh_bool_var(supply, t.fv)
            atom_b = Atom(Var(b))
            body = Imp(neg(neg(atom_b)), atom_b)
            inst = all_elim(axiom(BoolCases(b, body), na), t)
            w = fresh_assumption("w", neg(neg(Atom(Const("tt")))), supply)
            case_tt = imp_intro(w, axiom(Truth(), na))
            v2 = fresh_assumption("v", neg(neg(FALSITY)), supply)
            u2 = fresh_assumption("u", FALSITY, supply)
            case_ff = imp_intro(v2, imp_elim(assume(v2),
                                             imp_intro(u2, assume(u2))))
            bwd = imp_elims(inst, case_tt, case_ff)
            return and_intro(fwd, bwd)
        case Imp(p, c):
            e_p = yield (_gg_equiv, p)
            e_c = yield (_gg_equiv, c)
            pn = _gg_of(e_p)
            u = fresh_assumption("u", a, supply)
            v = fresh_assumption("v", pn, supply)
            fwd = imp_intro(u, imp_intro(v, imp_elim(
                proj(0, e_c),
                imp_elim(assume(u), imp_elim(proj(1, e_p), assume(v))))))
            u2 = fresh_assumption("u", Imp(pn, _gg_of(e_c)), supply)
            v2 = fresh_assumption("v", p, supply)
            bwd = imp_intro(u2, imp_intro(v2, imp_elim(
                proj(1, e_c),
                imp_elim(assume(u2), imp_elim(proj(0, e_p), assume(v2))))))
            return and_intro(fwd, bwd)
        case And(l, r):
            e_l = yield (_gg_equiv, l)
            e_r = yield (_gg_equiv, r)
            u = fresh_assumption("u", a, supply)
            fwd = imp_intro(u, and_intro(
                imp_elim(proj(0, e_l), proj(0, assume(u))),
                imp_elim(proj(0, e_r), proj(1, assume(u)))))
            u2 = fresh_assumption("u", And(_gg_of(e_l), _gg_of(e_r)), supply)
            bwd = imp_intro(u2, and_intro(
                imp_elim(proj(1, e_l), proj(0, assume(u2))),
                imp_elim(proj(1, e_r), proj(1, assume(u2)))))
            return and_intro(fwd, bwd)
        case All(x, b):
            e_b = yield (_gg_equiv, b)
            u = fresh_assumption("u", a, supply)
            fwd = imp_intro(u, all_intro(x, imp_elim(
                proj(0, e_b), all_elim(assume(u), Var(x)))))
            u2 = fresh_assumption("u", All(x, _gg_of(e_b)), supply)
            bwd = imp_intro(u2, all_intro(x, imp_elim(
                proj(1, e_b), all_elim(assume(u2), Var(x)))))
            return and_intro(fwd, bwd)
    raise ValueError(f"unexpected formula {a!r}")


def _gg_of(equiv: Proof) -> Formula:
    # equiv concludes (A -> A~~) /\ (A~~ -> A); read off A~~.
    return equiv.conclusion.left.concl


# ---------------------------------------------------------------------------
# Case distinction for the class Q


def prove_case_distinction(a: Formula, s: Formula, th: TheoryId,
                           supply=None) -> Proof:
    """Closed proof of (A -> S) -> (not A -> S) -> S; ClassError outside Q.

    ``supply`` is ignored.
    """
    if th == TheoryId.PA:
        raise LanguageError("case distinction is synthesized for NA/MA/HA")
    if not in_language(s, th):
        raise LanguageError(f"target formula is not in the language of {th.value}")
    return synthesize((_cd, a, s, th), {})


def _cd(supply: NameSupply, a: Formula, s: Formula, th: TheoryId):
    match a:
        case Atom(t):
            b = _fresh_bool_var(supply, t.fv | s.fv)
            atom_b = Atom(Var(b))
            body = imp(Imp(atom_b, s), Imp(neg(atom_b), s), s)
            inst = all_elim(axiom(BoolCases(b, body), th), t)
            # (T -> S) -> (not T -> S) -> S
            u1 = fresh_assumption("u", Imp(Atom(Const("tt")), s), supply)
            u2 = fresh_assumption("v", Imp(neg(Atom(Const("tt"))), s), supply)
            case_tt = imp_intros(
                imp_elim(assume(u1), axiom(Truth(), th)), u1, u2)
            # (F -> S) -> (not F -> S) -> S
            w1 = fresh_assumption("u", Imp(FALSITY, s), supply)
            w2 = fresh_assumption("v", Imp(neg(FALSITY), s), supply)
            wf = fresh_assumption("w", FALSITY, supply)
            case_ff = imp_intros(
                imp_elim(assume(w2), imp_intro(wf, assume(wf))), w1, w2)
            return imp_elims(inst, case_tt, case_ff)
        case Imp(b, c):
            ih_b = yield (_cd, b, imp(neg(c), s), th)
            ih_c = yield (_cd, c, s, th)
            u1 = fresh_assumption("u", Imp(a, s), supply)
            u2 = fresh_assumption("v", Imp(neg(a), s), supply)
            # C -> S: from C the implication B -> C is immediate
            cc = fresh_assumption("c", c, supply)
            bb = fresh_assumption("b", b, supply)
            c_to_s = imp_intro(cc, imp_elim(
                assume(u1), imp_intro(bb, assume(cc))))
            # B -> not C -> S: refute B -> C against the second premise
            b2 = fresh_assumption("b", b, supply)
            nc = fresh_assumption("nc", neg(c), supply)
            v = fresh_assumption("f", a, supply)
            b_nc_s = imp_intro(b2, imp_intro(nc, imp_elim(
                assume(u2),
                imp_intro(v, imp_elim(assume(nc),
                                      imp_elim(assume(v), assume(b2)))))))
            # not B -> not C -> S: B -> C holds ex falso
            nb = fresh_assumption("nb", neg(b), supply)
            nc2 = fresh_assumption("nc", neg(c), supply)
            b3 = fresh_assumption("b", b, supply)
            efq = yield (_efq, c, th)
            nb_nc_s = imp_intro(nb, imp_intro(nc2, imp_elim(
                assume(u1),
                imp_intro(b3, imp_elim(efq, imp_elim(assume(nb),
                                                     assume(b3)))))))
            nc_to_s = imp_elims(ih_b, b_nc_s, nb_nc_s)
            return imp_intros(imp_elims(ih_c, c_to_s, nc_to_s), u1, u2)
        case And(b, c):
            ih_b = yield (_cd, b, imp(c, s), th)
            ih_c = yield (_cd, c, s, th)
            u1 = fresh_assumption("u", Imp(a, s), supply)
            u2 = fresh_assumption("v", Imp(neg(a), s), supply)
            # not C -> S
            nc = fresh_assumption("nc", neg(c), supply)
            p1 = fresh_assumption("p", a, supply)
            nc_to_s = imp_intro(nc, imp_elim(
                assume(u2),
                imp_intro(p1, imp_elim(assume(nc), proj(1, assume(p1))))))
            # B -> C -> S
            b1 = fresh_assumption("b", b, supply)
            c1 = fresh_assumption("c", c, supply)
            b_c_s = imp_intro(b1, imp_intro(c1, imp_elim(
                assume(u1), and_intro(assume(b1), assume(c1)))))
            # not B -> C -> S
            nb = fresh_assumption("nb", neg(b), supply)
            c2 = fresh_assumption("c", c, supply)
            p2 = fresh_assumption("p", a, supply)
            nb_c_s = imp_intro(nb, imp_intro(c2, imp_elim(
                assume(u2),
                imp_intro(p2, imp_elim(assume(nb), proj(0, assume(p2)))))))
            c_to_s = imp_elims(ih_b, b_c_s, nb_c_s)
            return imp_intros(imp_elims(ih_c, c_to_s, nc_to_s), u1, u2)
        case All(x, b) if x.ty == BOOL:
            # one case distinction on B, instantiated at tt and ff; x is
            # renamed in B first where the instances would rewrite S
            y, body = x, b
            if x in s.fv:
                y = supply.fresh_avoiding(x, b.fv | s.fv)
                body = subst(b, {x: Var(y)})
            at_tt, at_ff = bool_instances(y, (yield (_cd, body, s, th)))
            u1 = fresh_assumption("u", Imp(a, s), supply)
            u2 = fresh_assumption("v", Imp(neg(a), s), supply)
            w = fresh_assumption("w", a, supply)

            def refute(i, t):  # not B[t] -> S: forall x B would give B[t]
                n = fresh_assumption("n", i.conclusion.concl.prem.prem, supply)
                return imp_intro(n, imp_elim(assume(u2), imp_intro(
                    w, imp_elim(assume(n), all_elim(assume(w), t)))))

            # B[tt] -> S: split B[ff] too, and BoolCases gives forall x B
            p_tt = fresh_assumption("p", at_tt.conclusion.prem.prem, supply)
            p_ff = fresh_assumption("p", at_ff.conclusion.prem.prem, supply)
            both = imp_elim(assume(u1), bool_generalize(
                x, b, assume(p_tt), assume(p_ff), th))
            tt_s = imp_intro(p_tt, imp_elims(at_ff, imp_intro(p_ff, both),
                                             refute(at_ff, FF)))
            return imp_intros(imp_elims(at_tt, tt_s, refute(at_tt, TT)),
                              u1, u2)
    raise ClassError(
        f"formula {brief_repr(a)} is outside the case-distinction class")
