"""Simple types, object variables, and typed lambda terms.

Terms are immutable and well-typed by construction: ``App`` rejects argument
type mismatches with ``TypeError`` at creation time, so ``type_of`` is total.
Types, variables and terms are interned: equal values are one object (see
``node``).  Each term carries its free variables, set at construction from
its children's.  Substitution and alpha-equality walk terms and formulas
together, in ``formula``; ``fold`` is the one post-order walk over DAGs of
nodes and proofs.
"""

from __future__ import annotations

from operator import attrgetter
from weakref import ref


# ---------------------------------------------------------------------------
# Interned value classes


class _Ref(ref):
    # A weak reference to a node that knows the node's key in its table.
    __slots__ = ("key",)


# The hash-consing tables, one per class that ``node`` makes: constructor
# arguments -> weak reference to the one live node with them.  Arguments
# that are nodes compare by identity; strings, numbers and other values by
# value.  An entry goes when its node is freed.  With one table per class a
# key is the argument tuple itself, and a table that outgrows its size is
# copied alone rather than with every other class's nodes.
_TABLES: list[dict[tuple, _Ref]] = []


def live_nodes() -> int:
    """The number of interned nodes alive now."""
    return sum(map(len, _TABLES))


def _new_table():
    table: dict[tuple, _Ref] = {}

    def forget(r: _Ref) -> None:
        if table.get(r.key) is r:  # not an entry made since r's node died
            del table[r.key]

    _TABLES.append(table)
    return table, forget


class Node:
    """Base of the immutable, interned value classes that ``node`` makes."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs or len(args) != len(names):
            # Keywords and defaults, put in field order.
            given = {**dict(zip(names, args)), **kwargs}
            values = {**cls._defaults, **given}
            if len(given) < len(args) + len(kwargs) or \
                    values.keys() != set(names):
                raise TypeError(f"{cls.__name__}() takes the arguments "
                                f"({', '.join(names)})")
            args = tuple(map(values.__getitem__, names))
        table = cls._table
        r = table.get(args)
        if r is None or (n := r()) is None:
            n = object.__new__(cls)
            for set_field, a in zip(cls._setters, args):
                set_field(n, a)
            if (post := cls._post_init) is not None:
                post(n)
            r = table[args] = _Ref(n, cls._forget)
            r.key = args
        return n

    def __post_init__(self):
        pass  # a variant's checks, facts and private slots are set here

    def __reduce__(self):
        # Copying and unpickling go through __new__, so they intern too.
        return type(self), self._args(self)

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: "
                             f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}"
                         for n in self.__match_args__)
        return f"{type(self).__qualname__}({args})"


def node(cls):
    """Remake ``cls``, a ``Node`` subclass, as an interned value class.

    Its fields are the names annotated in its body, in order; a value given
    there is the default.  An annotated name that starts with ``_`` is a
    slot set by ``__post_init__``, not a field.  No code is generated.
    """
    ns = {k: v for k, v in vars(cls).items() if k != "__dict__"}
    ns["__slots__"] = slots = tuple(ns.get("__annotations__", ()))
    ns["__match_args__"] = fields = tuple(n for n in slots if n[0] != "_")
    ns["_defaults"] = {n: ns.pop(n) for n in fields if n in ns}
    cls = type(cls.__name__, cls.__bases__, ns)
    cls._setters = tuple(vars(cls)[n].__set__ for n in fields)
    get = attrgetter(*fields) if fields else None
    cls._args = staticmethod(  # _args(n): the tuple of n's field values
        get if len(fields) > 1 else lambda n: (get(n),) if get else ())
    post = cls.__post_init__  # None when it is the no-op: not called
    cls._post_init = None if post is Node.__post_init__ else post
    cls._table, cls._forget = _new_table()
    return cls


def fold(root, visit, children=attrgetter("children"), images=None):
    """Post-order fold over a DAG of immutable nodes, with an explicit stack.

    ``visit(node, kids)`` returns a node's image from the list of its
    children's images.  Each distinct node is visited once, memoized in
    ``images`` on the node, so a walk keeps a DAG's sharing and its depth is
    not limited.  ``children`` gives a node's children: proofs', terms' and
    formulas' own by default, or, say, only the subformulas of a formula.
    A caller may pass ``images`` to share images between walks; the fold
    returns at once when ``root`` is already in it.
    """
    if images is None:
        images = {}
    elif root in images:
        return images[root]
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            images[node] = visit(
                node, [images[k] for k in kids] if kids else kids)
        elif node not in images:
            kids = children(node)
            stack.append((node, kids))
            for k in reversed(kids):
                if k not in images:
                    stack.append((k, None))
    return images[root]


class _Fact(ref):
    # A weak reference to a fact kept on a node, under a slot and, if the
    # slot holds a dict, a key.  When the fact is freed, the callback takes
    # the reference off the node, so a freed fact leaves nothing behind.
    __slots__ = ("owner", "slot", "key")


def kept(n: Node, slot: str, key=None):
    """The fact that ``keep`` put on ``n``, or None if none is kept."""
    r = getattr(n, slot, None)
    if key is not None and r is not None:
        r = r.get(key)
    return None if r is None else r()


def keep(n: Node, slot: str, fact, key=None) -> None:
    """Keep ``fact``, a pure result about ``n``, in ``slot`` of ``n`` (in a
    dict under ``key`` if one is given) for as long as ``fact`` lives."""
    r = _Fact(fact, _unkeep)
    r.owner, r.slot, r.key = ref(n), slot, key
    if key is None:
        object.__setattr__(n, slot, r)
        return
    facts = getattr(n, slot, None)
    if facts is None:
        object.__setattr__(n, slot, facts := {})
    facts[key] = r


def kept_or_make(n: Node, slot: str, make, key=None):
    """The fact ``make()``, a pure result about ``n``, kept on ``n`` as
    ``keep`` does, so that asking again gives the node made first."""
    out = kept(n, slot, key)
    if out is None:
        out = make()
        keep(n, slot, out, key)
    return out


def _unkeep(r: _Fact) -> None:
    n = r.owner()
    facts = None if n is None else getattr(n, r.slot, None)
    if r.key is None:
        if facts is r:
            object.__setattr__(n, r.slot, None)
    elif facts is not None and facts.get(r.key) is r:
        del facts[r.key]
        if not facts:
            object.__setattr__(n, r.slot, None)


# ---------------------------------------------------------------------------
# Types


class ObjType(Node):
    """Base class of the closed set of type variants."""

    __slots__ = ()


@node
class TypeVar(ObjType):
    name: str


@node
class BoolType(ObjType):
    pass


@node
class NatType(ObjType):
    pass


@node
class ListType(ObjType):
    elem: ObjType


@node
class Arrow(ObjType):
    dom: ObjType
    cod: ObjType


@node
class Prod(ObjType):
    left: ObjType
    right: ObjType


BOOL = BoolType()
NAT = NatType()


def arrow(*types: ObjType) -> ObjType:
    """Right-nested function type ``t1 -> t2 -> ... -> tn``."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = Arrow(ty, result)
    return result


# ---------------------------------------------------------------------------
# Variables and freshness


@node
class ObjVar(Node):
    """Named object variable; the index disambiguates renamed copies."""

    name: str
    index: int
    ty: ObjType


class NameSupply:
    """Strictly increasing index source for fresh variable names.

    A supply is deliberately mutable and explicitly passed: whatever draws
    from one owns it, as each lemma of ``derived.synthesize`` owns its own.
    """

    __slots__ = ("next_index",)

    def __init__(self, start: int = 0):
        self.next_index = start

    def draw(self) -> int:
        index = self.next_index
        self.next_index += 1
        return index

    def fresh(self, var: ObjVar) -> ObjVar:
        return ObjVar(var.name, self.draw(), var.ty)

    def fresh_avoiding(self, var: ObjVar, avoid) -> ObjVar:
        """Fresh copy of ``var`` whose (name, index, ty) is not in ``avoid``."""
        candidate = self.fresh(var)
        while candidate in avoid:
            candidate = self.fresh(var)
        return candidate


# ---------------------------------------------------------------------------
# Nodes of terms and formulas


# One shared empty set: on 3.11 each frozenset() call makes a new object.
NO_VARS: frozenset[ObjVar] = frozenset()


class Expr(Node):
    """Base of terms and formulas, which carry their free variables."""

    __slots__ = ("fv",)

    @property
    def children(self) -> list[Expr]:
        """The terms and formulas among the constructor arguments."""
        return [c for c in self._args(self) if isinstance(c, Expr)]


def union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing ``a`` or ``b`` when one contains the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def bind(x, fv: frozenset) -> frozenset:
    """The free variables ``fv`` of a body, seen from outside a binder on ``x``."""
    if x not in fv:
        return fv
    return fv - {x} if len(fv) > 1 else NO_VARS


# ---------------------------------------------------------------------------
# Terms

# tag -> (number of type parameters, type builder)
_CONST_SPECS = {
    "pair": (2, lambda t, r: arrow(t, r, Prod(t, r))),
    "tt": (0, lambda: BOOL),
    "ff": (0, lambda: BOOL),
    "zero": (0, lambda: NAT),
    "succ": (0, lambda: Arrow(NAT, NAT)),
    "nil": (1, lambda t: ListType(t)),
    "cons": (1, lambda t: arrow(t, ListType(t), ListType(t))),
    "split": (3, lambda r, s, t: arrow(Prod(r, s), arrow(r, s, t), t)),
    "cases": (1, lambda t: arrow(BOOL, t, t, t)),
    "recnat": (1, lambda t: arrow(NAT, t, arrow(NAT, t, t), t)),
    "reclist": (2, lambda r, t: arrow(
        ListType(r), t, arrow(r, ListType(r), t, t), t)),
}


class Term(Expr):
    """Base class of the closed set of term variants."""

    __slots__ = ()

    @property
    def ty(self) -> ObjType:
        return self._ty  # set by each variant


@node
class Var(Term):
    var: ObjVar

    def __post_init__(self):
        object.__setattr__(self, "fv", frozenset((self.var,)))

    @property
    def ty(self) -> ObjType:
        return self.var.ty


@node
class Const(Term):
    tag: str
    params: tuple[ObjType, ...] = ()
    _ty: ObjType

    def __post_init__(self):
        object.__setattr__(self, "fv", NO_VARS)
        spec = _CONST_SPECS.get(self.tag)
        if spec is None:
            raise ValueError(f"unknown constant tag {self.tag!r}")
        arity, build = spec
        if len(self.params) != arity:
            raise TypeError(
                f"constant {self.tag!r} takes {arity} type parameters, "
                f"got {len(self.params)}")
        object.__setattr__(self, "_ty", build(*self.params))


@node
class App(Term):
    fun: Term
    arg: Term
    _ty: ObjType

    def __post_init__(self):
        object.__setattr__(self, "fv", union(self.fun.fv, self.arg.fv))
        fun_ty = self.fun.ty
        if not isinstance(fun_ty, Arrow):
            raise TypeError(f"applied term has non-arrow type {fun_ty}")
        if fun_ty.dom != self.arg.ty:
            raise TypeError(
                f"argument type {self.arg.ty} does not match domain {fun_ty.dom}")
        object.__setattr__(self, "_ty", fun_ty.cod)


@node
class Lam(Term):
    bound: ObjVar
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "fv", bind(self.bound, self.body.fv))

    @property
    def ty(self) -> ObjType:
        return Arrow(self.bound.ty, self.body.ty)


TT = Const("tt")
FF = Const("ff")
ZERO = Const("zero")
SUCC = Const("succ")


def app(fun: Term, *args: Term) -> Term:
    for arg in args:
        fun = App(fun, arg)
    return fun


def type_of(t: Term) -> ObjType:
    return t.ty


def free_term_vars(t: Term) -> frozenset[ObjVar]:
    return t.fv

