"""Formula ASTs for the four arithmetics and the operations on them.

One ``Formula`` type covers every theory; ``in_language`` decides which
theory's language a formula belongs to.  ``NA`` has atoms, implication,
conjunction, and universal quantification.  ``MA`` adds the propositional
symbol bottom, ``HA``/``PA`` instead add strong disjunction and existence.

Like terms, formulas are interned and carry facts set at construction:
their free variables ``fv``, and whether they contain bottom (``has_bot``)
or strong disjunction or existence (``has_strong``).  ``subst`` is the one
substitution over terms and formulas, a ``syntax.fold``; ``alpha_eq`` walks
a stack of pairs of nodes.  Neither is limited by depth, but ``subst``
rebuilds each binder that it renames by a call of its own, so binders it
renames inside one another do take Python's stack.  As an interned node
stands for its value, a formula also keeps, once asked, its A^F, its
instances and its class flags; A^F and instances by weak reference, to keep
no node alive.  Each is a pure function of its node: where an instance
renames a binder, it draws from a supply of its own, as ``subst`` does when
given none, so a kept fact is the node that computing it again gives.
"""

from __future__ import annotations

import enum

from .errors import LanguageError, TheoryError
from .syntax import (FF, TT, BOOL, NO_VARS, App, Const, Expr, Lam,
                     NameSupply, ObjVar, Term, Var, bind, fold, keep, kept,
                     kept_or_make, node, union)


class Formula(Expr):
    """Base class of the closed set of formula variants."""

    # _af and _flags: facts kept once asked (see the module docstring)
    __slots__ = ("has_bot", "has_strong", "_af", "_flags")

    def _facts(self, fv, has_bot, has_strong):
        object.__setattr__(self, "fv", fv)
        object.__setattr__(self, "has_bot", has_bot)
        object.__setattr__(self, "has_strong", has_strong)

    def _join(self, l, r, strong=False):
        self._facts(union(l.fv, r.fv), l.has_bot or r.has_bot,
                    strong or l.has_strong or r.has_strong)


@node
class Bot(Formula):
    def __post_init__(self):
        self._facts(NO_VARS, True, False)


@node
class Atom(Formula):
    term: Term

    def __post_init__(self):
        if self.term.ty != BOOL:
            raise TypeError(f"atom payload must be boolean, got {self.term.ty}")
        self._facts(self.term.fv, False, False)


@node
class Imp(Formula):
    prem: Formula
    concl: Formula

    def __post_init__(self):
        self._join(self.prem, self.concl)


@node
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        self._join(self.left, self.right)


@node
class All(Formula):
    bound: ObjVar
    body: Formula
    _inst: dict  # kept instances, see ``instance``

    def __post_init__(self):
        b = self.body
        self._facts(bind(self.bound, b.fv), b.has_bot, b.has_strong)


@node
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        self._join(self.left, self.right, strong=True)


@node
class Ex(Formula):
    bound: ObjVar
    body: Formula

    def __post_init__(self):
        self._facts(bind(self.bound, self.body.fv), self.body.has_bot, True)


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

    __hash__ = object.__hash__  # Enum's hashes the name, in Python


# The theories that contain each theory: NA <= MA and NA <= HA <= PA.
_ABOVE = {TheoryId.NA: frozenset(TheoryId),
          TheoryId.MA: frozenset({TheoryId.MA}),
          TheoryId.HA: frozenset({TheoryId.HA, TheoryId.PA}),
          TheoryId.PA: frozenset({TheoryId.PA})}
# a: {b: the least theory containing a and b}, for each b that has one
_JOIN = {a: {b: b if b in up else a for b in TheoryId
             if b in up or a in _ABOVE[b]} for a, up in _ABOVE.items()}


def theory_leq(a: TheoryId, b: TheoryId) -> bool:
    """Partial order NA <= MA and NA <= HA <= PA; MA and HA incomparable."""
    return b in _ABOVE[a]


def theory_join(a: TheoryId, b: TheoryId) -> TheoryId:
    j = a if a is b else _JOIN[a].get(b)
    if j is None:
        raise TheoryError(f"no theory contains both {a.value} and {b.value}")
    return j


def in_language(a: Formula, th: TheoryId) -> bool:
    return ((th == TheoryId.MA or not a.has_bot) and
            (th in (TheoryId.HA, TheoryId.PA) or not a.has_strong))


def min_language(a: Formula) -> TheoryId:
    """Least theory whose language contains ``a``.

    Raises ``LanguageError`` when the formula mixes bottom with strong
    disjunction or existence, since no theory has both.
    """
    if a.has_bot and a.has_strong:
        raise LanguageError("formula mixes bottom with strong or/exists")
    if a.has_bot:
        return TheoryId.MA
    if a.has_strong:
        return TheoryId.HA
    return TheoryId.NA


# ---------------------------------------------------------------------------
# Free variables, alpha-equality, substitution


def formula_free_vars(a: Formula) -> frozenset[ObjVar]:
    return a.fv


def alpha_eq(a: Formula | Term, b: Formula | Term) -> bool:
    """Equality of two formulas, or two terms, up to bound variable names.
    Two distinct leaves differ, as nodes are interned, so a walk over pairs
    of nodes works only at binders: it renames the second body to the
    first's variable, which is not free in it once the ``fv`` agree."""
    if a is b:
        return True
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b) or a.fv != b.fv or t is Var or t is Const:
            return False
        if t is All or t is Lam or t is Ex:
            x, y = a.bound, b.bound
            if x.ty is not y.ty:
                return False
            stack.append((a.body, b.body if x is y
                          else subst(b.body, {y: Var(x)})))
        else:
            stack += zip(a._args(a), b._args(b))
    return True


alpha_eq_formula = alpha_eq


def subst(a: Formula | Term, sigma, bot: Formula | None = None,
          supply: NameSupply | None = None,
          memo: dict | None = None) -> Formula | Term:
    """Simultaneous capture-avoiding substitution in a formula or term.

    Replaces each free variable ``x`` of ``a`` in the mapping ``sigma`` by
    the term ``sigma[x]`` and, if ``bot`` is given, each bottom by ``bot``.
    A binder whose variable is free in what would be inserted below it is
    renamed, with an index drawn from ``supply``.  A node with nothing to
    replace comes back as it is, and each node is rebuilt at most once
    (memoized on identity), so the result shares what ``a`` shares.  Calls
    with one ``sigma``, ``bot`` and ``supply`` may share one ``memo``.
    The walk is a ``fold``; only a binder that drops its variable from
    ``sigma`` or renames it is rebuilt by a call of its own, on the stack.
    """
    keys = frozenset(sigma)  # a set's isdisjoint reuses the stored hashes
    if keys.isdisjoint(a.fv) and (bot is None or isinstance(a, Term)
                                  or not a.has_bot):
        return a
    if supply is None:
        supply = NameSupply()
    memo = {} if memo is None else memo
    for x, t in sigma.items():  # the leaves' images: fold enters no leaf
        memo[Var(x)] = t
    if bot is not None:
        memo[BOT] = bot
    below = {}  # binder -> its variable and the substitution below it

    def children(n):
        # The children of n that change.  A binder whose substitution
        # changes below it has none: visit rebuilds it, and its fresh name
        # is drawn here, in pre-order.
        t = type(n)
        if t is All or t is Lam or t is Ex:
            x, b = n.bound, n.body
            inner = sigma
            if x in sigma:
                inner = {y: r for y, r in sigma.items() if y != x}
            inserted = [r.fv for y, r in inner.items() if y in b.fv]
            if bot is not None and t is not Lam and b.has_bot:
                inserted.append(bot.fv)
            if any(x in fv for fv in inserted):
                fresh = supply.fresh_avoiding(x, b.fv.union(*inserted))
                inner, x = {**inner, x: Var(fresh)}, fresh
            if inner is not sigma:
                below[n] = x, inner
                return ()
            kids = (b,)
        else:
            kids = n._args(n)
        if bot is None or t is Atom or t is App or t is Lam:  # term kids
            return [c for c in kids if not keys.isdisjoint(c.fv)]
        return [c for c in kids if c.has_bot or not keys.isdisjoint(c.fv)]

    def visit(n, _):
        if n in below:
            x, inner = below.pop(n)
            return type(n)(x, subst(n.body, inner, bot, supply))
        return type(n)(*[memo.get(c, c) for c in n._args(n)])

    return fold(a, visit, children, memo)


def instance(a: All, t: Term) -> Formula:
    """``B[x := t]`` for ``a`` = ``forall x B``, kept on ``a`` (weakly, under
    ``t``: the instance holds ``t``, so the key keeps nothing alive longer).
    A binder that would capture a variable of ``t`` is renamed from a supply
    of the call's own, as ``subst`` does, so the instance depends on ``a``
    and ``t`` alone."""
    x, b = a.bound, a.body
    if x not in b.fv or (type(t) is Var and t.var is x):
        return b
    return kept_or_make(a, "_inst", lambda: subst(b, {x: t}), t)


def subst_formula_var(a: Formula | Term, x: ObjVar, t: Term,
                      supply: NameSupply | None = None) -> Formula | Term:
    """Capture-avoiding substitution of ``x`` by ``t`` in ``a``."""
    if t.ty != x.ty:
        raise TypeError(f"cannot substitute term of type {t.ty} for {x}")
    return subst(a, {x: t}, supply=supply)


subst_term = subst_formula_var


# ---------------------------------------------------------------------------
# Bottom substitution and the negative translation


def subst_bot(a: Formula, s: Formula,
              supply: NameSupply | None = None) -> Formula:
    """Replace every bottom in ``a`` by ``s`` (the substitution A^S)."""
    if a.has_strong:
        raise LanguageError("bottom substitution needs a formula without or/exists")
    return subst(a, {}, s, supply)


def subst_bot_falsity(a: Formula) -> Formula:
    """A^F, ``subst_bot(a, FALSITY)``, kept on each node with bottom.  It
    renames no binder, as ``FALSITY`` is closed."""
    if a.has_strong:
        raise LanguageError("bottom substitution needs a formula without or/exists")
    af = kept(a, "_af") if a.has_bot else a
    if af is not None:
        return af
    # The walk enters no node whose A^F is known (it has no bottom, or a
    # kept A^F).  It holds each such A^F in ``images`` until it ends, so
    # one freed meanwhile cannot leave a node without its children's images.
    images = {}

    def children(n: Formula):
        af = kept(n, "_af") if n.has_bot else n
        if af is None:
            return subformulas(n)
        images[n] = af
        return ()

    def visit(n: Formula, kids) -> Formula:
        af = images.get(n)
        if af is None:
            match n:
                case Bot():
                    af = FALSITY
                case All(x, _):
                    af = All(x, *kids)
                case _:
                    af = type(n)(*kids)
            keep(n, "_af", af)
        return af

    return fold(a, visit, children, images)


def subformulas(a: Formula) -> list[Formula]:
    """The immediate subformulas of ``a``."""
    return [c for c in a._args(a) if isinstance(c, Formula)]


def gg_translate(a: Formula) -> Formula:
    """Goedel-Gentzen negative translation into the NA language."""
    if a.has_bot:
        raise LanguageError("negative translation is defined on HA/PA formulas")
    return fold(a, _gg, subformulas)


def _gg(a: Formula, kids) -> Formula:
    match a:
        case Atom(t):
            return a if t == FF else neg(neg(a))
        case Imp() | And():
            return type(a)(*kids)
        case All(x, _):
            return All(x, *kids)
        case Or():
            return neg(And(*map(neg, kids)))
        case Ex(x, _):
            return neg(All(x, neg(*kids)))


def _tree_size(_, kids) -> int:
    return 1 + sum(kids)


def formula_size(a: Formula) -> int:
    """Number of formula nodes written out as a tree; atoms and bottom count
    one.  A subformula shared in a DAG is measured once."""
    return fold(a, _tree_size, subformulas)


def written_size(a: Formula | Term, sizes: dict) -> int:
    """Nodes of a formula or term written out as a tree, terms included.

    ``sizes`` memoizes by node, so a node shared in a DAG is measured once.
    """
    return fold(a, _tree_size, images=sizes)


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
