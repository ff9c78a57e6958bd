"""Formula ASTs for the four arithmetics and the operations on them.

One ``Formula`` type covers every theory; ``in_language`` decides which
theory's language a formula belongs to.  ``NA`` has atoms, implication,
conjunction, and universal quantification.  ``MA`` adds the propositional
symbol bottom, ``HA``/``PA`` instead add strong disjunction and existence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import LanguageError, TheoryError
from .syntax import (FF, TT, BOOL, App, Lam, NameSupply, ObjVar, Term, Var,
                     canonical_term, free_term_vars, subst_term)


class Formula:
    """Base class of the closed set of formula variants."""

    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    term: Term

    def __post_init__(self):
        if self.term.ty != BOOL:
            raise TypeError(f"atom payload must be boolean, got {self.term.ty}")


@dataclass(frozen=True)
class Imp(Formula):
    prem: Formula
    concl: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class All(Formula):
    bound: ObjVar
    body: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Ex(Formula):
    bound: ObjVar
    body: Formula


BOT = Bot()
TRUTH = Atom(TT)
FALSITY = Atom(FF)


def neg(a: Formula) -> Formula:
    return Imp(a, FALSITY)


def imp(*formulas: Formula) -> Formula:
    """Right-nested implication ``A1 -> A2 -> ... -> An``."""
    if not formulas:
        raise ValueError("imp needs at least one formula")
    result = formulas[-1]
    for f in reversed(formulas[:-1]):
        result = Imp(f, result)
    return result


# ---------------------------------------------------------------------------
# Theories


class TheoryId(enum.Enum):
    NA = "NA"
    MA = "MA"
    HA = "HA"
    PA = "PA"


def theory_leq(a: TheoryId, b: TheoryId) -> bool:
    """Partial order NA <= MA and NA <= HA <= PA; MA and HA incomparable."""
    if a == b or a == TheoryId.NA:
        return True
    if a == TheoryId.HA and b == TheoryId.PA:
        return True
    return False


def theory_join(a: TheoryId, b: TheoryId) -> TheoryId:
    if theory_leq(a, b):
        return b
    if theory_leq(b, a):
        return a
    raise TheoryError(f"no theory contains both {a.value} and {b.value}")


def in_language(a: Formula, th: TheoryId) -> bool:
    match a:
        case Bot():
            return th == TheoryId.MA
        case Atom():
            return True
        case Imp(p, c):
            return in_language(p, th) and in_language(c, th)
        case And(l, r):
            return in_language(l, th) and in_language(r, th)
        case Or(l, r):
            return th in (TheoryId.HA, TheoryId.PA) and \
                in_language(l, th) and in_language(r, th)
        case All(_, b):
            return in_language(b, th)
        case Ex(_, b):
            return th in (TheoryId.HA, TheoryId.PA) and in_language(b, th)
    raise ValueError(f"unexpected formula {a!r}")


def min_language(a: Formula) -> TheoryId:
    """Least theory whose language contains ``a``.

    Raises ``LanguageError`` when the formula mixes bottom with strong
    disjunction or existence, since no theory has both.
    """
    has_bot = _contains_bot(a)
    has_strong = _contains_or_ex(a)
    if has_bot and has_strong:
        raise LanguageError("formula mixes bottom with strong or/exists")
    if has_bot:
        return TheoryId.MA
    if has_strong:
        return TheoryId.HA
    return TheoryId.NA


def _contains_bot(a: Formula) -> bool:
    match a:
        case Bot():
            return True
        case Atom():
            return False
        case Imp(p, c):
            return _contains_bot(p) or _contains_bot(c)
        case And(l, r) | Or(l, r):
            return _contains_bot(l) or _contains_bot(r)
        case All(_, b) | Ex(_, b):
            return _contains_bot(b)
    raise ValueError(f"unexpected formula {a!r}")


def _contains_or_ex(a: Formula) -> bool:
    match a:
        case Bot() | Atom():
            return False
        case Or() | Ex():
            return True
        case Imp(p, c):
            return _contains_or_ex(p) or _contains_or_ex(c)
        case And(l, r):
            return _contains_or_ex(l) or _contains_or_ex(r)
        case All(_, b):
            return _contains_or_ex(b)
    raise ValueError(f"unexpected formula {a!r}")


# ---------------------------------------------------------------------------
# Free variables, alpha-equality, substitution


def formula_free_vars(a: Formula) -> frozenset[ObjVar]:
    match a:
        case Bot():
            return frozenset()
        case Atom(t):
            return free_term_vars(t)
        case Imp(p, c):
            return formula_free_vars(p) | formula_free_vars(c)
        case And(l, r) | Or(l, r):
            return formula_free_vars(l) | formula_free_vars(r)
        case All(x, b) | Ex(x, b):
            return formula_free_vars(b) - {x}
    raise ValueError(f"unexpected formula {a!r}")


def canonical_formula(a: Formula, env: dict[ObjVar, int] | None = None,
                      depth: int = 0):
    env = env or {}

    def go(a: Formula, env: dict[ObjVar, int], depth: int):
        match a:
            case Bot():
                return ("bot",)
            case Atom(t):
                return ("atom", canonical_term(t, env, depth))
            case Imp(p, c):
                return ("imp", go(p, env, depth), go(c, env, depth))
            case And(l, r):
                return ("and", go(l, env, depth), go(r, env, depth))
            case Or(l, r):
                return ("or", go(l, env, depth), go(r, env, depth))
            case All(x, b) | Ex(x, b):
                tag = "all" if isinstance(a, All) else "ex"
                inner = dict(env)
                inner[x] = depth
                return (tag, x.ty, go(b, inner, depth + 1))
        raise ValueError(f"unexpected formula {a!r}")

    return go(a, env, depth)


def alpha_eq_formula(a: Formula, b: Formula) -> bool:
    return canonical_formula(a) == canonical_formula(b)


def subst_formula_var(a: Formula, x: ObjVar, t: Term,
                      supply: NameSupply | None = None) -> Formula:
    """Capture-avoiding substitution of ``x`` by ``t`` in ``a``."""
    if t.ty != x.ty:
        raise TypeError(f"cannot substitute term of type {t.ty} for {x}")
    if supply is None:
        supply = NameSupply()
    fv_t = free_term_vars(t)

    def go(a: Formula) -> Formula:
        match a:
            case Bot():
                return a
            case Atom(payload):
                return Atom(subst_term(payload, x, t, supply))
            case Imp(p, c):
                return Imp(go(p), go(c))
            case And(l, r):
                return And(go(l), go(r))
            case Or(l, r):
                return Or(go(l), go(r))
            case All(y, b) | Ex(y, b):
                cls = All if isinstance(a, All) else Ex
                if y == x:
                    return a
                if y in fv_t and x in formula_free_vars(b):
                    avoid = fv_t | formula_free_vars(b) | {x}
                    renamed = supply.fresh_avoiding(y, avoid)
                    b = subst_formula_var(b, y, Var(renamed), supply)
                    return cls(renamed, go(b))
                return cls(y, go(b))
        raise ValueError(f"unexpected formula {a!r}")

    return go(a)


# ---------------------------------------------------------------------------
# Bottom substitution and the negative translation


def subst_bot(a: Formula, s: Formula,
              supply: NameSupply | None = None) -> Formula:
    """Replace every bottom in ``a`` by ``s`` (the substitution A^S)."""
    if _contains_or_ex(a):
        raise LanguageError("bottom substitution needs a formula without or/exists")
    if supply is None:
        supply = NameSupply()
    fv_s = formula_free_vars(s)

    def go(a: Formula) -> Formula:
        match a:
            case Bot():
                return s
            case Atom():
                return a
            case Imp(p, c):
                return Imp(go(p), go(c))
            case And(l, r):
                return And(go(l), go(r))
            case All(x, b):
                # Renaming is only needed when s really gets inserted below
                # the binder and would have its free x captured.
                if x in fv_s and _contains_bot(b):
                    avoid = fv_s | formula_free_vars(b) | {x}
                    renamed = supply.fresh_avoiding(x, avoid)
                    b = subst_formula_var(b, x, Var(renamed), supply)
                    return All(renamed, go(b))
                return All(x, go(b))
        raise ValueError(f"unexpected formula {a!r}")

    return go(a)


def subst_bot_falsity(a: Formula) -> Formula:
    """The instance A^F used throughout the formula classes."""
    return subst_bot(a, FALSITY)


def gg_translate(a: Formula) -> Formula:
    """Goedel-Gentzen negative translation into the NA language."""
    if _contains_bot(a):
        raise LanguageError("negative translation is defined on HA/PA formulas")

    match a:
        case Atom(t):
            if t == FF:
                return a
            return neg(neg(a))
        case Imp(p, c):
            return Imp(gg_translate(p), gg_translate(c))
        case And(l, r):
            return And(gg_translate(l), gg_translate(r))
        case All(x, b):
            return All(x, gg_translate(b))
        case Or(l, r):
            return neg(And(neg(gg_translate(l)), neg(gg_translate(r))))
        case Ex(x, b):
            return neg(All(x, neg(gg_translate(b))))
    raise ValueError(f"unexpected formula {a!r}")


def formula_size(a: Formula) -> int:
    """Number of formula nodes; atoms and bottom count one."""
    match a:
        case Bot() | Atom():
            return 1
        case Imp(p, c):
            return 1 + formula_size(p) + formula_size(c)
        case And(l, r) | Or(l, r):
            return 1 + formula_size(l) + formula_size(r)
        case All(_, b) | Ex(_, b):
            return 1 + formula_size(b)
    raise ValueError(f"unexpected formula {a!r}")


def written_size(a: Formula | Term, sizes: dict[int, int]) -> int:
    """Nodes of a formula or term written out as a tree, terms included.

    ``sizes`` memoizes by node identity, so a node shared in a DAG is
    measured once; it must not outlive the nodes it measured.
    """
    n = sizes.get(id(a))
    if n is None:
        match a:
            case Atom(t):
                below = (t,)
            case Imp(l, r) | And(l, r) | Or(l, r) | App(l, r):
                below = (l, r)
            case All(_, b) | Ex(_, b) | Lam(_, b):
                below = (b,)
            case _:
                below = ()
        n = sizes[id(a)] = 1 + sum(written_size(b, sizes) for b in below)
    return n


def brief_repr(a: Formula, limit: int = 100) -> str:
    """``repr(a)`` for an error message, or only its connective and size.

    A formula that shares subformulas can be far larger written out than in
    memory, so one with more than ``limit`` nodes is not written out.
    """
    n = written_size(a, {})
    return repr(a) if n <= limit else f"<{type(a).__name__} of {n} nodes>"


# ---------------------------------------------------------------------------
# Weak connectives


def weak_or(a: Formula, b: Formula) -> Formula:
    return neg(And(neg(a), neg(b)))


def weak_exists(x: ObjVar, a: Formula) -> Formula:
    return neg(All(x, neg(a)))


def weak_and(a: Formula, b: Formula) -> Formula:
    return neg(Imp(a, neg(b)))
