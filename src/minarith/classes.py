"""Definite / goal / relevant / irrelevant formula classes with certificates.

Membership is decided by structural recursion; for every member a closed MA
proof of the class's characteristic property can be synthesized:

    definite    D:  D^F -> D
    goal        G:  G -> (G^F -> bot) -> bot
    relevant    R:  (not R^F -> bot) -> R
    irrelevant  I:  I -> I^F

The classes are deliberate under-approximations; no recursive procedure can
capture all formulas with these properties.
"""

from __future__ import annotations

import enum

from .errors import LanguageError
from .formula import (BOT, FALSITY, All, And, Atom, Bot, Formula, Imp,
                      TheoryId, Or, Ex, in_language, neg,
                      subst_bot_falsity, subst_formula_var)
from .kernel import (BoolCases, BotPlus, Proof, Truth, all_elim, all_intro,
                     and_intro, assume, axiom, fresh_assumption, imp_elim,
                     imp_elims, imp_intro, proj)
from .syntax import BOOL, Const, NameSupply, Node, Var
from .derived import prove_case_distinction, prove_efq


class ClassId(enum.Enum):
    Q = "Q"
    QF = "QF"
    DEFINITE = "D"
    GOAL = "G"
    RELEVANT = "R"
    IRRELEVANT = "I"


class ClassReport:
    """Class flags of one formula, and certificates by class if made."""

    __slots__ = __match_args__ = ("in_Q", "in_QF", "in_D", "in_G", "in_R",
                                  "in_I", "certificates")
    __repr__ = Node.__repr__

    def __init__(self, in_Q: bool, in_QF: bool, in_D: bool, in_G: bool,
                 in_R: bool, in_I: bool,
                 certificates: dict[ClassId, Proof] | None = None):
        self.in_Q, self.in_QF, self.in_D = in_Q, in_QF, in_D
        self.in_G, self.in_R, self.in_I = in_G, in_R, in_I
        self.certificates = {} if certificates is None else certificates

    def __eq__(self, other) -> bool:
        return type(other) is ClassReport and all(
            getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def flag(self, c: ClassId) -> bool:
        return getattr(self, f"in_{c.value}")


# ---------------------------------------------------------------------------
# Membership


def in_Q(a: Formula) -> bool:
    """Atoms closed under implication, conjunction, and booleans quantifiers.

    ``forall x B`` is in Q when ``B[x := tt]`` and ``B[x := ff]`` are, which
    holds exactly when ``B`` is: putting a constant in for ``x`` changes
    atom payloads only.
    """
    match a:
        case Atom():
            return True
        case Bot():
            return False
        case Imp(p, c):
            return in_Q(p) and in_Q(c)
        case And(l, r):
            return in_Q(l) and in_Q(r)
        case All(x, b):
            return x.ty == BOOL and in_Q(b)
        case Or() | Ex():
            return False
    raise ValueError(f"unexpected formula {a!r}")


def in_QF(a: Formula) -> bool:
    if not in_language(a, TheoryId.MA):
        raise LanguageError("class membership is defined on MA formulas")
    return in_Q(subst_bot_falsity(a))


def _falsity(a: Formula, memo: dict) -> Formula:
    """A^F, kept under (a, "F") in the memo of one classify or certify call."""
    key = (a, "F")
    af = memo.get(key)
    if af is None:
        af = memo[key] = subst_bot_falsity(a)
    return af


def _flags(a: Formula, memo: dict) -> tuple[bool, bool, bool, bool]:
    """(definite, goal, relevant, irrelevant) per the mutual recursion.

    ``memo`` lives for one ``classify`` or ``certify`` call and is keyed on
    the node.  It matters at Bool quantifiers, whose goal flag needs
    both instances of the body: an instance shares the untouched
    subformulas of the body, so each is classified once rather than once
    per enclosing quantifier.
    """
    hit = memo.get(a)
    if hit is not None:
        return hit
    match a:
        case Bot():
            out = (True, True, True, False)
        case Atom(t):
            out = (True, True, t == Const("tt"), True)
        case Imp(p, c):
            pd, pg, pr, pi = _flags(p, memo)
            cd, cg, cr, ci = _flags(c, memo)
            d = (pi and cd) or (pg and cr)
            g = (((pr or (pd and in_Q(_falsity(p, memo)))) and cg)
                 or (pd and ci))
            r = pg and cr
            i = pd and ci
            out = (d, g, r, i)
        case And(l, r_):
            fl = _flags(l, memo)
            fr = _flags(r_, memo)
            out = tuple(x and y for x, y in zip(fl, fr))
        case All(x, b):
            bd, bg, br, bi = _flags(b, memo)
            g = bi
            if not g and x.ty == BOOL:
                g = _flags(subst_formula_var(b, x, Const("tt")), memo)[1] \
                    and _flags(subst_formula_var(b, x, Const("ff")), memo)[1]
            out = (bd or br, g, br, bi)
        case _:
            raise ValueError(f"unexpected formula {a!r}")
    memo[a] = out
    return out


def classify(a: Formula, with_certificates: bool = False) -> ClassReport:
    if not in_language(a, TheoryId.MA):
        raise LanguageError("class membership is defined on MA formulas")
    d, g, r, i = _flags(a, {})
    report = ClassReport(in_Q=in_Q(a), in_QF=in_QF(a), in_D=d, in_G=g,
                         in_R=r, in_I=i)
    if with_certificates:
        for c in ClassId:
            cert = certify(a, c)
            if cert is not None:
                report.certificates[c] = cert
    return report


# ---------------------------------------------------------------------------
# Certificate synthesis


def certify(a: Formula, c: ClassId,
            supply: NameSupply | None = None) -> Proof | None:
    """Closed MA proof of the class property of ``a``, if ``a`` is in ``c``."""
    if not in_language(a, TheoryId.MA):
        raise LanguageError("class membership is defined on MA formulas")
    if supply is None:
        supply = NameSupply()
    if c == ClassId.Q:
        if not in_Q(a):
            return None
        return prove_case_distinction(a, BOT, TheoryId.MA, supply)
    if c == ClassId.QF:
        af = subst_bot_falsity(a)
        if not in_Q(af):
            return None
        return prove_case_distinction(af, BOT, TheoryId.MA, supply)
    index = {ClassId.DEFINITE: 0, ClassId.GOAL: 1, ClassId.RELEVANT: 2,
             ClassId.IRRELEVANT: 3}[c]
    # certificates under (formula, class), A^F under (formula, "F"), flags
    # under the formula
    memo: dict = {}
    if not _flags(a, memo)[index]:
        return None
    return _cert(a, c, supply, memo)


_MA = TheoryId.MA


def _cert(a: Formula, c: ClassId, supply: NameSupply, memo) -> Proof:
    key = (a, c)
    if key not in memo:
        memo[key] = _cert_build(a, c, supply, memo)
    return memo[key]


def _cert_build(a: Formula, c: ClassId, supply: NameSupply, memo) -> Proof:
    af = _falsity(a, memo)
    match a:
        case Bot():
            return _cert_bot(c, supply)
        case Atom():
            return _cert_atom(a, c, supply)
        case Imp(p, q):
            return _cert_imp(a, p, q, af, c, supply, memo)
        case And(l, r):
            return _cert_and(a, l, r, af, c, supply, memo)
        case All(x, b):
            return _cert_all(a, x, b, af, c, supply, memo)
    raise ValueError(f"unexpected formula {a!r}")


def _cert_bot(c: ClassId, supply: NameSupply) -> Proof:
    if c == ClassId.DEFINITE:
        return axiom(BotPlus(), _MA)
    if c == ClassId.GOAL:
        u = fresh_assumption("u", BOT, supply)
        v = fresh_assumption("v", Imp(FALSITY, BOT), supply)
        return imp_intro(u, imp_intro(v, assume(u)))
    if c == ClassId.RELEVANT:
        # ((F -> F) -> bot) -> bot
        v = fresh_assumption("v", Imp(neg(FALSITY), BOT), supply)
        w = fresh_assumption("w", FALSITY, supply)
        return imp_intro(v, imp_elim(assume(v), imp_intro(w, assume(w))))
    raise ValueError(f"bottom carries no {c.value} certificate")


def _cert_atom(a: Formula, c: ClassId, supply: NameSupply) -> Proof:
    if c in (ClassId.DEFINITE, ClassId.IRRELEVANT):
        u = fresh_assumption("u", a, supply)
        return imp_intro(u, assume(u))
    if c == ClassId.GOAL:
        u = fresh_assumption("u", a, supply)
        v = fresh_assumption("v", Imp(a, BOT), supply)
        return imp_intro(u, imp_intro(v, imp_elim(assume(v), assume(u))))
    if c == ClassId.RELEVANT:
        v = fresh_assumption("v", Imp(neg(a), BOT), supply)
        return imp_intro(v, axiom(Truth(), _MA))
    raise ValueError(f"atoms carry no {c.value} certificate")


def _cert_imp(a, p, q, af, c, supply, memo) -> Proof:
    pd, pg, pr, pi = _flags(p, memo)
    qd, qg, qr, qi = _flags(q, memo)
    pf = _falsity(p, memo)
    qf = _falsity(q, memo)

    if c == ClassId.DEFINITE:
        u = fresh_assumption("u", af, supply)
        v = fresh_assumption("v", p, supply)
        if pi and qd:
            # premise irrelevant, conclusion definite
            ih_p = _cert(p, ClassId.IRRELEVANT, supply, memo)
            ih_q = _cert(q, ClassId.DEFINITE, supply, memo)
            body = imp_elim(ih_q, imp_elim(assume(u),
                                           imp_elim(ih_p, assume(v))))
            return imp_intro(u, imp_intro(v, body))
        # premise goal, conclusion relevant
        ih_p = _cert(p, ClassId.GOAL, supply, memo)
        ih_q = _cert(q, ClassId.RELEVANT, supply, memo)
        w = fresh_assumption("w", neg(qf), supply)
        z = fresh_assumption("z", pf, supply)
        inner = imp_elim(axiom(BotPlus(), _MA),
                         imp_elim(assume(w), imp_elim(assume(u), assume(z))))
        refute_pf = imp_intro(z, inner)                  # p^F -> bot
        get_bot = imp_elim(imp_elim(ih_p, assume(v)), refute_pf)
        body = imp_elim(ih_q, imp_intro(w, get_bot))
        return imp_intro(u, imp_intro(v, body))

    if c == ClassId.GOAL:
        u = fresh_assumption("u", a, supply)
        v = fresh_assumption("v", Imp(af, BOT), supply)
        if pr and qg:
            efq_qf = prove_efq(qf, _MA, supply)
            ih_p = _cert(p, ClassId.RELEVANT, supply, memo)
            ih_q = _cert(q, ClassId.GOAL, supply, memo)
            nb = fresh_assumption("nb", neg(pf), supply)
            z = fresh_assumption("z", pf, supply)
            # not p^F -> bot: ex falso turns p^F -> F into p^F -> q^F
            refute = imp_intro(nb, imp_elim(
                assume(v),
                imp_intro(z, imp_elim(efq_qf, imp_elim(assume(nb),
                                                       assume(z))))))
            have_p = imp_elim(ih_p, refute)
            y = fresh_assumption("y", qf, supply)
            z2 = fresh_assumption("z", pf, supply)
            qf_bot = imp_intro(y, imp_elim(assume(v),
                                           imp_intro(z2, assume(y))))
            body = imp_elim(imp_elim(ih_q, imp_elim(assume(u), have_p)),
                            qf_bot)
            return imp_intro(u, imp_intro(v, body))
        if pd and in_Q(pf) and qg:
            efq_qf = prove_efq(qf, _MA, supply)
            ih_p = _cert(p, ClassId.DEFINITE, supply, memo)
            ih_q = _cert(q, ClassId.GOAL, supply, memo)
            cd = prove_case_distinction(pf, BOT, _MA, supply)
            z = fresh_assumption("z", pf, supply)
            y = fresh_assumption("y", qf, supply)
            z2 = fresh_assumption("z", pf, supply)
            qf_bot = imp_intro(y, imp_elim(assume(v),
                                           imp_intro(z2, assume(y))))
            have_q = imp_elim(assume(u), imp_elim(ih_p, assume(z)))
            arg1 = imp_intro(z, imp_elim(imp_elim(ih_q, have_q), qf_bot))
            nb = fresh_assumption("nb", neg(pf), supply)
            z3 = fresh_assumption("z", pf, supply)
            arg2 = imp_intro(nb, imp_elim(
                assume(v),
                imp_intro(z3, imp_elim(efq_qf, imp_elim(assume(nb),
                                                        assume(z3))))))
            return imp_intro(u, imp_intro(v, imp_elims(cd, arg1, arg2)))
        # premise definite, conclusion irrelevant
        ih_p = _cert(p, ClassId.DEFINITE, supply, memo)
        ih_q = _cert(q, ClassId.IRRELEVANT, supply, memo)
        z = fresh_assumption("z", pf, supply)
        impl_f = imp_intro(z, imp_elim(
            ih_q, imp_elim(assume(u), imp_elim(ih_p, assume(z)))))
        return imp_intro(u, imp_intro(v, imp_elim(assume(v), impl_f)))

    if c == ClassId.RELEVANT:
        ih_p = _cert(p, ClassId.GOAL, supply, memo)
        ih_q = _cert(q, ClassId.RELEVANT, supply, memo)
        u = fresh_assumption("u", Imp(neg(af), BOT), supply)
        v = fresh_assumption("v", p, supply)
        nc = fresh_assumption("nc", neg(qf), supply)
        z = fresh_assumption("z", pf, supply)
        w = fresh_assumption("w", af, supply)
        refute_impl = imp_intro(w, imp_elim(assume(nc),
                                            imp_elim(assume(w), assume(z))))
        pf_bot = imp_intro(z, imp_elim(assume(u), refute_impl))
        get_bot = imp_elim(imp_elim(ih_p, assume(v)), pf_bot)
        body = imp_elim(ih_q, imp_intro(nc, get_bot))
        return imp_intro(u, imp_intro(v, body))

    if c == ClassId.IRRELEVANT:
        ih_p = _cert(p, ClassId.DEFINITE, supply, memo)
        ih_q = _cert(q, ClassId.IRRELEVANT, supply, memo)
        u = fresh_assumption("u", a, supply)
        z = fresh_assumption("z", pf, supply)
        body = imp_elim(ih_q, imp_elim(assume(u), imp_elim(ih_p, assume(z))))
        return imp_intro(u, imp_intro(z, body))

    raise ValueError(f"unexpected class {c!r}")


def _cert_and(a, l, r, af, c, supply, memo) -> Proof:
    lf = _falsity(l, memo)
    rf = _falsity(r, memo)
    if c in (ClassId.DEFINITE, ClassId.IRRELEVANT):
        # componentwise along A^F /\ B^F -> A /\ B (or its converse)
        ih_l = _cert(l, c, supply, memo)
        ih_r = _cert(r, c, supply, memo)
        source = af if c == ClassId.DEFINITE else a
        u = fresh_assumption("u", source, supply)
        body = and_intro(imp_elim(ih_l, proj(0, assume(u))),
                         imp_elim(ih_r, proj(1, assume(u))))
        return imp_intro(u, body)
    if c == ClassId.GOAL:
        ih_l = _cert(l, ClassId.GOAL, supply, memo)
        ih_r = _cert(r, ClassId.GOAL, supply, memo)
        u = fresh_assumption("u", a, supply)
        v = fresh_assumption("v", Imp(af, BOT), supply)
        z = fresh_assumption("z", lf, supply)
        y = fresh_assumption("y", rf, supply)
        inner = imp_elim(assume(v), and_intro(assume(z), assume(y)))
        rf_bot = imp_intro(y, inner)
        lf_bot = imp_intro(z, imp_elim(imp_elim(ih_r, proj(1, assume(u))),
                                       rf_bot))
        body = imp_elim(imp_elim(ih_l, proj(0, assume(u))), lf_bot)
        return imp_intro(u, imp_intro(v, body))
    if c == ClassId.RELEVANT:
        ih_l = _cert(l, ClassId.RELEVANT, supply, memo)
        ih_r = _cert(r, ClassId.RELEVANT, supply, memo)
        v = fresh_assumption("v", Imp(neg(af), BOT), supply)
        nl = fresh_assumption("nl", neg(lf), supply)
        nr = fresh_assumption("nr", neg(rf), supply)
        p1 = fresh_assumption("p", af, supply)
        p2 = fresh_assumption("p", af, supply)
        left = imp_elim(ih_l, imp_intro(nl, imp_elim(
            assume(v), imp_intro(p1, imp_elim(assume(nl),
                                              proj(0, assume(p1)))))))
        right = imp_elim(ih_r, imp_intro(nr, imp_elim(
            assume(v), imp_intro(p2, imp_elim(assume(nr),
                                              proj(1, assume(p2)))))))
        return imp_intro(v, and_intro(left, right))
    raise ValueError(f"unexpected class {c!r}")


def _cert_all(a, x, b, af, c, supply, memo) -> Proof:
    bf = _falsity(b, memo)
    if c == ClassId.DEFINITE:
        # relevant bodies are definite as well, so one subcase suffices
        ih = _cert(b, ClassId.DEFINITE, supply, memo)
        u = fresh_assumption("u", af, supply)
        body = all_intro(x, imp_elim(ih, all_elim(assume(u), Var(x), supply)))
        return imp_intro(u, body)
    if c == ClassId.GOAL:
        if _flags(b, memo)[3]:
            # body irrelevant
            ih = _cert(b, ClassId.IRRELEVANT, supply, memo)
            u = fresh_assumption("u", a, supply)
            v = fresh_assumption("v", Imp(af, BOT), supply)
            gen = all_intro(x, imp_elim(ih, all_elim(assume(u), Var(x),
                                                     supply)))
            return imp_intro(u, imp_intro(v, imp_elim(assume(v), gen)))
        # boolean quantifier: reduce to the conjunction of both instances
        b_tt = subst_formula_var(b, x, Const("tt"), supply)
        b_ff = subst_formula_var(b, x, Const("ff"), supply)
        conj = And(b_tt, b_ff)
        conjf = _falsity(conj, memo)
        cert_conj = _cert(conj, ClassId.GOAL, supply, memo)
        u = fresh_assumption("u", a, supply)
        v = fresh_assumption("v", Imp(af, BOT), supply)
        e1 = and_intro(all_elim(assume(u), Const("tt"), supply),
                       all_elim(assume(u), Const("ff"), supply))
        p = fresh_assumption("p", conjf, supply)
        cases_f = axiom(BoolCases(x, bf), _MA, supply)
        gen_f = all_intro(x, imp_elims(all_elim(cases_f, Var(x), supply),
                                       proj(0, assume(p)),
                                       proj(1, assume(p))))
        conjf_bot = imp_intro(p, imp_elim(assume(v), gen_f))
        body = imp_elim(imp_elim(cert_conj, e1), conjf_bot)
        return imp_intro(u, imp_intro(v, body))
    if c == ClassId.RELEVANT:
        ih = _cert(b, ClassId.RELEVANT, supply, memo)
        v = fresh_assumption("v", Imp(neg(af), BOT), supply)
        nb = fresh_assumption("nb", neg(bf), supply)
        w = fresh_assumption("w", af, supply)
        refute = imp_intro(w, imp_elim(assume(nb),
                                       all_elim(assume(w), Var(x), supply)))
        inner = imp_elim(ih, imp_intro(nb, imp_elim(assume(v), refute)))
        return imp_intro(v, all_intro(x, inner))
    if c == ClassId.IRRELEVANT:
        ih = _cert(b, ClassId.IRRELEVANT, supply, memo)
        u = fresh_assumption("u", a, supply)
        body = all_intro(x, imp_elim(ih, all_elim(assume(u), Var(x), supply)))
        return imp_intro(u, body)
    raise ValueError(f"unexpected class {c!r}")


# ---------------------------------------------------------------------------
# Report serialization


def format_report(report: ClassReport) -> str:
    lines = []
    for c in ClassId:
        lines.append(f"{c.value}={'yes' if report.flag(c) else 'no'}")
    return "\n".join(lines)
