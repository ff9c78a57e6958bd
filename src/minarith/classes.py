"""Definite / goal / relevant / irrelevant formula classes with certificates.

Membership is decided by one structural fold, whose flags are kept on each
formula node, as A^F is; for every member a closed MA proof of the class's
characteristic property can be synthesized:

    definite    D:  D^F -> D
    goal        G:  G -> (G^F -> bot) -> bot
    relevant    R:  (not R^F -> bot) -> R
    irrelevant  I:  I -> I^F

Q is the atoms closed under implication, conjunction and Boolean
quantifiers; a formula is in QF when its A^F is in Q, that is, when bottom
counts as an atom.

``forall x B`` is a goal formula when ``B`` is irrelevant, or when ``x`` is
boolean and ``B`` is a goal formula.  The definition asks instead that both
instances ``B[x := tt]`` and ``B[x := ff]`` be goal formulas, and the two
agree: every flag is a positive combination of which atoms are literally
``tt``, so putting ``ff`` for ``x`` keeps the flags of ``B`` and putting
``tt`` for ``x`` can only add to them.

A formula without bottom is its own A^F, so for it the D and I properties
are A -> A and the G property is A -> (A -> bot) -> bot.  Its certificates
in those classes are the identity and ``λu λv. v u``, built at once, and so
are those of every bottom-free subformula inside a larger certificate.

The classes are deliberate under-approximations; no recursive procedure can
capture all formulas with these properties.
"""

from __future__ import annotations

import enum
from itertools import product

from .errors import LanguageError
from .formula import (BOT, FALSITY, All, And, Atom, Bot, Formula, Imp,
                      TheoryId, in_language, neg, subformulas,
                      subst_bot_falsity)
from .kernel import (BotPlus, Proof, Truth, all_elim, all_intro, and_intro,
                     assume, axiom, fresh_assumption, imp_elim, imp_elims,
                     imp_intro, proj)
from .syntax import BOOL, FF, TT, NameSupply, Node, Var, fold
from .derived import _cd, _efq, bool_generalize, bool_instances, synthesize


class ClassId(enum.Enum):
    Q = "Q"
    QF = "QF"
    DEFINITE = "D"
    GOAL = "G"
    RELEVANT = "R"
    IRRELEVANT = "I"

    __hash__ = object.__hash__  # Enum's hashes the name, in Python


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


_MA = TheoryId.MA


def _flag_rule(a: Formula, kids) -> tuple[bool, ...]:
    """The flags of ``a`` from those of its immediate subformulas."""
    match a:
        case Bot():
            return (False, True, True, True, True, False)
        case Atom(t):
            return (True, True, True, True, t == TT, True)
        case Imp():
            (pq, pqf, pd, pg, pr, pi), (cq, cqf, cd, cg, cr, ci) = kids
            return (pq and cq, pqf and cqf, (pi and cd) or (pg and cr),
                    ((pr or (pd and pqf)) and cg) or (pd and ci),
                    pg and cr, pd and ci)
        case And():
            return tuple(x and y for x, y in zip(*kids))
        case All(x, _):
            (bq, bqf, bd, bg, br, bi), = kids
            boolean = x.ty == BOOL
            return (boolean and bq, boolean and bqf, bd or br,
                    bi or (boolean and bg), br, bi)
    return (False,) * 6  # or / exists: outside MA, so in no class


# One tuple for each combination of flags: the tuple a node keeps is shared.
_FLAG_TUPLES = {t: t for t in product((False, True), repeat=6)}


def _flags(a: Formula) -> tuple[bool, ...]:
    """The six flags of ``a`` in ``ClassId`` order, by a post-order fold.

    The flags are a fact of the node, kept on it in ``_flags``, so the fold
    enters only subformulas that have none yet.
    """
    hit = getattr(a, "_flags", None)
    if hit is None:
        hit = fold(a, _flag_visit, _unflagged)
    return hit


def _unflagged(a: Formula) -> tuple[Formula, ...]:
    return subformulas(a) if getattr(a, "_flags", None) is None else ()


def _flag_visit(a: Formula, kids) -> tuple[bool, ...]:
    out = getattr(a, "_flags", None)
    if out is None:
        out = _FLAG_TUPLES[_flag_rule(a, kids)]
        object.__setattr__(a, "_flags", out)
    return out


def in_Q(a: Formula) -> bool:
    """Atoms closed under implication, conjunction and Boolean quantifiers."""
    return _flags(a)[0]


def _ma_flags(a: Formula) -> tuple[bool, ...]:
    """The flags of ``a``, which must be an MA formula."""
    if not in_language(a, _MA):
        raise LanguageError("class membership is defined on MA formulas")
    return _flags(a)


def in_QF(a: Formula) -> bool:
    return _ma_flags(a)[1]


def classify(a: Formula, with_certificates: bool = False) -> ClassReport:
    report = ClassReport(*_ma_flags(a))
    if with_certificates:
        # one memo: a certificate within two classes' certificates, such
        # as the GOAL certificate of a premise, is built once
        memo = {}
        for c in ClassId:
            if report.flag(c):
                report.certificates[c] = synthesize((_cert, a, c), memo)
    return report


# ---------------------------------------------------------------------------
# Certificate synthesis


def certify(a: Formula, c: ClassId, supply=None) -> Proof | None:
    """Closed MA proof of the class property of ``a``, if ``a`` is in ``c``.

    ``supply`` is ignored.
    """
    if not ClassReport(*_ma_flags(a)).flag(c):
        return None
    return synthesize((_cert, a, c), {})


def _cert(supply: NameSupply, a: Formula, c: ClassId):
    """The certificate of ``a`` in ``c``, as a lemma of ``synthesize``.

    A formula without bottom is its own A^F, so its D and I properties are
    A -> A and its G property is A -> (A -> bot) -> bot: those certificates
    are the identity and ``λu λv. v u`` at once, not a walk over ``a``.
    """
    af = subst_bot_falsity(a)
    if c in (ClassId.Q, ClassId.QF):
        return (yield (_cd, a if c == ClassId.Q else af, BOT, _MA))
    if not a.has_bot and c != ClassId.RELEVANT:
        return _cert_bot_free(a, c, supply)
    match a:
        case Bot():
            return _cert_bot(c, supply)
        case Atom():  # has no bottom, so only RELEVANT reaches here
            v = fresh_assumption("v", Imp(neg(a), BOT), supply)
            return imp_intro(v, axiom(Truth(), _MA))
        case Imp(p, q):
            return (yield from _cert_imp(a, p, q, af, c, supply))
        case And(l, r):
            return (yield from _cert_and(a, l, r, af, c, supply))
        case All(x, b):
            return (yield from _cert_all(a, x, b, af, c, supply))
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


def _cert_bot_free(a: Formula, c: ClassId, supply: NameSupply) -> Proof:
    """D, I or G certificate of ``a`` without bottom, where A^F is A."""
    u = fresh_assumption("u", a, supply)
    if c != ClassId.GOAL:
        return imp_intro(u, assume(u))  # an NA proof
    v = fresh_assumption("v", Imp(a, BOT), supply)
    return imp_intro(u, imp_intro(v, imp_elim(assume(v), assume(u))))


def _cert_imp(a, p, q, af, c, supply):
    _, pqf, pd, pg, pr, pi = _flags(p)
    _, _, qd, qg, qr, qi = _flags(q)
    pf, qf = af.prem, af.concl  # A^F of an implication is pf -> qf

    if c == ClassId.IRRELEVANT or (c == ClassId.DEFINITE and pi and qd):
        # along p -> p^F and q^F -> q to A^F -> A, for a definite A with an
        # irrelevant premise; along the converses to A -> A^F otherwise
        definite = c == ClassId.DEFINITE
        ih_p = yield (_cert, p,
                      ClassId.IRRELEVANT if definite else ClassId.DEFINITE)
        ih_q = yield (_cert, q, c)
        u = fresh_assumption("u", af if definite else a, supply)
        z = fresh_assumption("z", p if definite else pf, supply)
        body = imp_elim(ih_q, imp_elim(assume(u), imp_elim(ih_p, assume(z))))
        return imp_intro(u, imp_intro(z, body))

    if c == ClassId.DEFINITE:
        # premise goal, conclusion relevant
        u = fresh_assumption("u", af, supply)
        v = fresh_assumption("v", p, supply)
        ih_p = yield (_cert, p, ClassId.GOAL)
        ih_q = yield (_cert, q, ClassId.RELEVANT)
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
        if qg and (pr or (pd and pqf)):
            ih_q = yield (_cert, q, ClassId.GOAL)
            y = fresh_assumption("y", qf, supply)
            z = fresh_assumption("z", pf, supply)
            qf_bot = imp_intro(y, imp_elim(assume(v), imp_intro(z, assume(y))))
            # not p^F -> bot: ex falso turns p^F -> F into p^F -> q^F
            nb = fresh_assumption("nb", neg(pf), supply)
            efq = yield (_efq, qf, _MA)
            refute = imp_intro(nb, imp_elim(assume(v), imp_intro(z, imp_elim(
                efq, imp_elim(assume(nb), assume(z))))))
            if pr:
                ih_p = yield (_cert, p, ClassId.RELEVANT)
                have_q = imp_elim(assume(u), imp_elim(ih_p, refute))
                return imp_intro(u, imp_intro(v, imp_elims(ih_q, have_q,
                                                           qf_bot)))
            # definite QF premise: split on p^F
            ih_p = yield (_cert, p, ClassId.DEFINITE)
            have_q = imp_elim(assume(u), imp_elim(ih_p, assume(z)))
            arg1 = imp_intro(z, imp_elims(ih_q, have_q, qf_bot))
            cd = yield (_cd, pf, BOT, _MA)
            return imp_intro(u, imp_intro(v, imp_elims(cd, arg1, refute)))
        # premise definite, conclusion irrelevant
        ih_p = yield (_cert, p, ClassId.DEFINITE)
        ih_q = yield (_cert, q, ClassId.IRRELEVANT)
        z = fresh_assumption("z", pf, supply)
        impl_f = imp_intro(z, imp_elim(
            ih_q, imp_elim(assume(u), imp_elim(ih_p, assume(z)))))
        return imp_intro(u, imp_intro(v, imp_elim(assume(v), impl_f)))

    if c == ClassId.RELEVANT:
        ih_p = yield (_cert, p, ClassId.GOAL)
        ih_q = yield (_cert, q, ClassId.RELEVANT)
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

    raise ValueError(f"unexpected class {c!r}")


def _cert_and(a, l, r, af, c, supply):
    lf, rf = af.left, af.right
    if c in (ClassId.DEFINITE, ClassId.IRRELEVANT):
        # componentwise along A^F /\ B^F -> A /\ B (or its converse)
        ih_l = yield (_cert, l, c)
        ih_r = yield (_cert, r, c)
        source = af if c == ClassId.DEFINITE else a
        u = fresh_assumption("u", source, supply)
        body = and_intro(imp_elim(ih_l, proj(0, assume(u))),
                         imp_elim(ih_r, proj(1, assume(u))))
        return imp_intro(u, body)
    if c == ClassId.GOAL:
        ih_l = yield (_cert, l, ClassId.GOAL)
        ih_r = yield (_cert, r, ClassId.GOAL)
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
        ih_l = yield (_cert, l, ClassId.RELEVANT)
        ih_r = yield (_cert, r, ClassId.RELEVANT)
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


def _cert_all(a, x, b, af, c, supply):
    bf = af.body
    if c in (ClassId.DEFINITE, ClassId.IRRELEVANT):
        # along forall x B^F -> forall x B (or its converse); relevant
        # bodies are definite as well, so one subcase suffices
        ih = yield (_cert, b, c)
        u = fresh_assumption("u", af if c == ClassId.DEFINITE else a, supply)
        body = all_intro(x, imp_elim(ih, all_elim(assume(u), Var(x))))
        return imp_intro(u, body)
    if c == ClassId.GOAL:
        if _flags(b)[5]:
            # body irrelevant
            ih = yield (_cert, b, ClassId.IRRELEVANT)
            u = fresh_assumption("u", a, supply)
            v = fresh_assumption("v", Imp(af, BOT), supply)
            gen = all_intro(x, imp_elim(ih, all_elim(assume(u), Var(x))))
            return imp_intro(u, imp_intro(v, imp_elim(assume(v), gen)))
        # boolean quantifier, goal body: each instance of the body's
        # certificate, B[t] -> (B^F[t] -> bot) -> bot, refutes B^F[t] -> bot
        at_tt, at_ff = bool_instances(x, (yield (_cert, b, ClassId.GOAL)))
        u = fresh_assumption("u", a, supply)
        v = fresh_assumption("v", Imp(af, BOT), supply)
        p_tt = fresh_assumption("p", at_tt.conclusion.concl.prem.prem, supply)
        p_ff = fresh_assumption("p", at_ff.conclusion.concl.prem.prem, supply)
        gen_f = bool_generalize(x, bf, assume(p_tt), assume(p_ff), _MA)
        ff_bot = imp_intro(p_ff, imp_elim(assume(v), gen_f))
        tt_bot = imp_intro(p_tt, imp_elims(
            at_ff, all_elim(assume(u), FF), ff_bot))
        body = imp_elims(at_tt, all_elim(assume(u), TT), tt_bot)
        return imp_intro(u, imp_intro(v, body))
    if c == ClassId.RELEVANT:
        ih = yield (_cert, b, ClassId.RELEVANT)
        v = fresh_assumption("v", Imp(neg(af), BOT), supply)
        nb = fresh_assumption("nb", neg(bf), supply)
        w = fresh_assumption("w", af, supply)
        refute = imp_intro(w, imp_elim(assume(nb),
                                       all_elim(assume(w), Var(x))))
        inner = imp_elim(ih, imp_intro(nb, imp_elim(assume(v), refute)))
        return imp_intro(v, all_intro(x, inner))
    raise ValueError(f"unexpected class {c!r}")


# ---------------------------------------------------------------------------
# Report serialization


def format_report(report: ClassReport) -> str:
    lines = []
    for c in ClassId:
        lines.append(f"{c.value}={'yes' if report.flag(c) else 'no'}")
    return "\n".join(lines)
