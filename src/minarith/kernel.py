"""LCF-style natural deduction kernel for the four arithmetics.

``Proof`` values can only be created through the checked constructors in this
module; every value therefore satisfies its rule's side conditions and caches
its conclusion, free assumptions, and minimal theory.  Downstream code never
re-verifies proofs.

The kernel draws no names from its callers.  The schema of an axiom value
(``axiom_schema``) and the instance of a universal formula at a term
(``formula.instance``, for ``all_elim``) depend on their arguments alone,
as ``formula.subst`` does.  So they are kept on the node, and a kept result
is the node a fresh computation gives.
``recheck`` still calls the checked constructor of every rule and so tests
every side condition again; it only stops recomputing such pure results.
"""

from __future__ import annotations

from .errors import EigenvariableError, ShapeError, TheoryError
from .formula import (BOT, FALSITY, TRUTH, All, And, Ex, Formula, Imp,
                      Or, TheoryId, alpha_eq_formula, brief_repr, imp,
                      instance, min_language, neg, subst, theory_join,
                      theory_leq)
from .syntax import (BOOL, FF, NAT, SUCC, TT, ZERO, App, Const, ListType,
                     NO_VARS, NameSupply, Node, ObjVar, Term, Var, app, bind,
                     fold, kept_or_make, node, union)


@node
class AssumptionVar(Node):
    name: str
    index: int
    formula: Formula


def fresh_assumption(name: str, formula: Formula,
                     supply: NameSupply) -> AssumptionVar:
    return AssumptionVar(name, supply.draw(), formula)


# ---------------------------------------------------------------------------
# Axioms


class AxiomId(Node):
    """Base class of the closed set of axiom schemes."""

    __slots__ = ("_schema",)  # kept by ``axiom_schema``


@node
class Truth(AxiomId):
    pass


@node
class BoolCases(AxiomId):
    var: ObjVar
    body: Formula


@node
class IndNat(AxiomId):
    var: ObjVar
    body: Formula


@node
class IndList(AxiomId):
    var: ObjVar
    elem_var: ObjVar
    body: Formula


@node
class BotPlus(AxiomId):
    pass


@node
class OrIntroL(AxiomId):
    left: Formula
    right: Formula


@node
class OrIntroR(AxiomId):
    left: Formula
    right: Formula


@node
class OrElim(AxiomId):
    left: Formula
    right: Formula
    concl: Formula


@node
class ExIntro(AxiomId):
    body: Formula
    var: ObjVar
    witness: Term


@node
class ExElim(AxiomId):
    body: Formula
    var: ObjVar
    concl: Formula


@node
class Lem(AxiomId):
    formula: Formula


_BASE_THEORIES = frozenset(TheoryId)
_AXIOM_AVAILABILITY = {
    Truth: (_BASE_THEORIES, TheoryId.NA),
    BoolCases: (_BASE_THEORIES, TheoryId.NA),
    IndNat: (_BASE_THEORIES, TheoryId.NA),
    IndList: (_BASE_THEORIES, TheoryId.NA),
    BotPlus: (frozenset({TheoryId.MA}), TheoryId.MA),
    OrIntroL: (frozenset({TheoryId.HA, TheoryId.PA}), TheoryId.HA),
    OrIntroR: (frozenset({TheoryId.HA, TheoryId.PA}), TheoryId.HA),
    OrElim: (frozenset({TheoryId.HA, TheoryId.PA}), TheoryId.HA),
    ExIntro: (frozenset({TheoryId.HA, TheoryId.PA}), TheoryId.HA),
    ExElim: (frozenset({TheoryId.HA, TheoryId.PA}), TheoryId.HA),
    Lem: (frozenset({TheoryId.PA}), TheoryId.PA),
}


def axiom_schema(ax: AxiomId) -> Formula:
    """The concluding formula of an axiom scheme instance, kept on ``ax``
    (weakly)."""
    return kept_or_make(ax, "_schema", lambda: _schema(ax))


def _schema(ax: AxiomId) -> Formula:
    match ax:
        case Truth():
            return TRUTH
        case BoolCases(b, a):
            if b.ty != BOOL:
                raise TypeError("case-distinction axiom needs a boolean variable")
            a_tt = subst(a, {b: TT})
            a_ff = subst(a, {b: FF})
            return All(b, imp(a_tt, a_ff, a))
        case IndNat(n, a):
            if n.ty != NAT:
                raise TypeError("nat induction needs a variable of type nat")
            a_zero = subst(a, {n: ZERO})
            a_succ = subst(a, {n: App(SUCC, Var(n))})
            return All(n, imp(a_zero, All(n, Imp(a, a_succ)), a))
        case IndList(l, x, a):
            if not isinstance(l.ty, ListType):
                raise TypeError("list induction needs a variable of list type")
            if x.ty != l.ty.elem:
                raise TypeError("element variable type must match the list type")
            if x in a.fv:
                raise EigenvariableError(
                    "list induction element variable is free in the body")
            elem = l.ty.elem
            a_nil = subst(a, {l: Const("nil", (elem,))})
            a_cons = subst(a, {l: app(Const("cons", (elem,)), Var(x), Var(l))})
            return All(l, imp(a_nil, All(x, All(l, Imp(a, a_cons))), a))
        case BotPlus():
            return Imp(FALSITY, BOT)
        case OrIntroL(a, b):
            return Imp(a, Or(a, b))
        case OrIntroR(a, b):
            return Imp(b, Or(a, b))
        case OrElim(a, b, c):
            return imp(Or(a, b), Imp(a, c), Imp(b, c), c)
        case ExIntro(a, x, t):
            if t.ty != x.ty:
                raise TypeError("existence witness type must match the variable")
            return Imp(subst(a, {x: t}), Ex(x, a))
        case ExElim(a, x, c):
            if x in c.fv:
                raise EigenvariableError(
                    "existence elimination variable is free in the conclusion")
            return imp(Ex(x, a), All(x, Imp(a, c)), c)
        case Lem(a):
            return Or(a, neg(a))
    raise ValueError(f"unexpected axiom {ax!r}")


# ---------------------------------------------------------------------------
# Proofs


_TOKEN = object()


class Proof:
    """Checked natural-deduction proof term.

    ``rule`` is one of assume / axiom / and_intro / proj / imp_elim /
    imp_intro / all_elim / all_intro; ``children`` are sub-proofs and
    ``params`` the rule parameters (assumption variables, terms, ...).
    """

    __slots__ = ("rule", "children", "params", "conclusion",
                 "free_assumptions", "min_theory")

    def __init__(self, token, rule, children, params, conclusion,
                 free_assumptions, min_theory):
        if token is not _TOKEN:
            raise TypeError("proofs can only be built via the kernel constructors")
        self.rule = rule
        self.children = children
        self.params = params
        self.conclusion = conclusion
        self.free_assumptions = free_assumptions
        self.min_theory = min_theory

    def __repr__(self):
        return (f"<Proof {self.rule} |- {self.conclusion!r} "
                f"[{self.min_theory.value}]>")


@node
class Judgement(Node):
    theory: TheoryId
    assumptions: frozenset[tuple[AssumptionVar, Formula]]
    conclusion: Formula


def inspect(m: Proof) -> Judgement:
    return Judgement(
        theory=m.min_theory,
        assumptions=frozenset((u, u.formula) for u in m.free_assumptions),
        conclusion=m.conclusion,
    )


def _merge_assumptions(a: frozenset, b: frozenset) -> frozenset:
    merged = union(a, b)
    # Kernel-built sets are clash-free, so a side that contains the other,
    # which union returns as it is, needs no scan.
    if merged is not a and merged is not b:
        seen: dict[tuple[str, int], AssumptionVar] = {}
        for u in merged:
            if seen.setdefault((u.name, u.index), u) != u:
                raise ShapeError(
                    f"assumption variable {u.name}_{u.index} reused at a "
                    "different formula")
    return merged


def assume(u: AssumptionVar) -> Proof:
    return Proof(_TOKEN, "assume", (), (u,), u.formula, frozenset((u,)),
                 min_language(u.formula))


def axiom(ax: AxiomId, th: TheoryId) -> Proof:
    available, home = _AXIOM_AVAILABILITY[type(ax)]
    if th not in available:
        raise TheoryError(
            f"axiom {type(ax).__name__} is not available in {th.value}")
    concl = axiom_schema(ax)
    min_theory = theory_join(home, min_language(concl))
    if not theory_leq(min_theory, th):
        raise TheoryError(
            f"axiom instance forces theory {min_theory.value}, "
            f"requested {th.value}")
    return Proof(_TOKEN, "axiom", (), (ax,), concl, NO_VARS, min_theory)


def and_intro(m: Proof, n: Proof) -> Proof:
    free = _merge_assumptions(m.free_assumptions, n.free_assumptions)
    return Proof(_TOKEN, "and_intro", (m, n), (),
                 And(m.conclusion, n.conclusion), free,
                 theory_join(m.min_theory, n.min_theory))


def proj(side: int, m: Proof) -> Proof:
    if side not in (0, 1):
        raise ShapeError("projection side must be 0 or 1")
    if not isinstance(m.conclusion, And):
        raise ShapeError("projection needs a conjunction, got "
                         f"{brief_repr(m.conclusion)}")
    concl = m.conclusion.left if side == 0 else m.conclusion.right
    return Proof(_TOKEN, "proj", (m,), (side,), concl, m.free_assumptions,
                 m.min_theory)


def imp_elim(m: Proof, n: Proof) -> Proof:
    if not isinstance(m.conclusion, Imp):
        raise ShapeError("modus ponens needs an implication, got "
                         f"{brief_repr(m.conclusion)}")
    if not alpha_eq_formula(m.conclusion.prem, n.conclusion):
        raise ShapeError(
            f"premise mismatch: expected {brief_repr(m.conclusion.prem)}, "
            f"got {brief_repr(n.conclusion)}")
    free = _merge_assumptions(m.free_assumptions, n.free_assumptions)
    return Proof(_TOKEN, "imp_elim", (m, n), (), m.conclusion.concl, free,
                 theory_join(m.min_theory, n.min_theory))


def imp_elims(m: Proof, *args: Proof) -> Proof:
    for n in args:
        m = imp_elim(m, n)
    return m


def imp_intro(u: AssumptionVar, m: Proof) -> Proof:
    free = bind(u, m.free_assumptions)  # the same set if u is not in it
    if free is not m.free_assumptions:
        # Share an equal set that a subproof holds, as the M of
        # imp_intro(u, imp_elim(M, assume(u))) does, rather than a copy.
        for c in m.children:
            if c.free_assumptions == free:
                free = c.free_assumptions
                break
    min_theory = theory_join(m.min_theory, min_language(u.formula))
    return Proof(_TOKEN, "imp_intro", (m,), (u,), Imp(u.formula, m.conclusion),
                 free, min_theory)


def imp_intros(m: Proof, *us: AssumptionVar) -> Proof:
    for u in reversed(us):
        m = imp_intro(u, m)
    return m


# The third parameter is ignored: an instance draws no names from its
# caller, but callers that pass a supply there keep working.
def all_elim(m: Proof, t: Term, _supply=None) -> Proof:
    if not isinstance(m.conclusion, All):
        raise ShapeError(
            "instantiation needs a universal formula, got "
            f"{brief_repr(m.conclusion)}")
    x = m.conclusion.bound
    if t.ty != x.ty:
        raise TypeError(f"instantiating term type {t.ty} does not match {x.ty}")
    concl = instance(m.conclusion, t)
    return Proof(_TOKEN, "all_elim", (m,), (t,), concl, m.free_assumptions,
                 m.min_theory)


def all_intro(x: ObjVar, m: Proof) -> Proof:
    for u in m.free_assumptions:
        if x in u.formula.fv:
            raise EigenvariableError(
                f"variable {x.name}_{x.index} is free in open assumption "
                f"{u.name}_{u.index}")
    return Proof(_TOKEN, "all_intro", (m,), (x,), All(x, m.conclusion),
                 m.free_assumptions, m.min_theory)


# ---------------------------------------------------------------------------
# Generic builder and re-checking


# Each rule's checked constructor, called with (premises, params).
_RULES = {
    "assume": lambda ps, params: assume(*params),
    "axiom": lambda ps, params: axiom(*params),
    "and_intro": lambda ps, params: and_intro(*ps),
    "proj": lambda ps, params: proj(params[0], *ps),
    "imp_elim": lambda ps, params: imp_elim(*ps),
    "imp_intro": lambda ps, params: imp_intro(params[0], *ps),
    "all_elim": lambda ps, params: all_elim(*ps, params[0]),
    "all_intro": lambda ps, params: all_intro(params[0], *ps),
}


def build(rule: str, premises, params=()) -> Proof:
    """Dispatch to the checked constructor named by ``rule``."""
    make = _RULES.get(rule)
    if make is None:
        raise ShapeError(f"unknown rule {rule!r}")
    return make(premises, params)


def recheck(m: Proof) -> Proof:
    """Rebuild a proof bottom-up through the constructors.

    Used to confirm that the cached judgement of a stored or deserialized
    proof really is derivable.  Shared subproofs are rebuilt once.
    """
    return fold(m, _rebuild)


def _rebuild(m: Proof, premises) -> Proof:
    if m.rule == "axiom":
        return axiom(m.params[0], m.min_theory)
    return _RULES[m.rule](premises, m.params)
