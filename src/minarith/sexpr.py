"""S-expression reading and printing for types, terms, formulas, and proofs.

One grammar shared between the test fixtures and the CLI.  Parsing a proof
goes straight through the kernel constructors, so a proof that parses has
already been checked.
"""

from __future__ import annotations

import re
from dataclasses import fields

from .errors import ParseError
from .formula import (BOT, All, And, Atom, Bot, Ex, Formula, Imp, Or,
                      TheoryId)
from .kernel import (AssumptionVar, AxiomId, BoolCases, BotPlus, ExElim,
                     ExIntro, IndList, IndNat, Lem, OrElim, OrIntroL,
                     OrIntroR, Proof, Truth, assume, axiom, build, map_proof)
from .syntax import (App, Arrow, BoolType, Const, Lam, ListType, NameSupply,
                     NatType, ObjType, ObjVar, Prod, Term, TypeVar, Var,
                     _CONST_SPECS)


# ---------------------------------------------------------------------------
# Reader


def _tokenize(text: str) -> list[str]:
    # Parentheses and maximal symbols; a comment runs from ';' to the line end.
    return re.findall(r"[()]|[^\s();]+", re.sub(r";[^\n]*", "", text))


def read_sexpr(text: str):
    """Parse one toplevel form into nested lists of symbol strings."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    stack: list[list] = []  # lists still open, innermost last
    for i, tok in enumerate(tokens, 1):
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected closing parenthesis")
            tok = stack.pop()
        if stack:
            stack[-1].append(tok)
        elif i < len(tokens):
            raise ParseError("trailing input after the toplevel form")
        else:
            return tok
    raise ParseError("unbalanced parenthesis")


def _expect_list(form, what: str) -> list:
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a {what} form, got {form!r}")
    return form


def _int(tok, what: str) -> int:
    try:
        return int(tok)
    except (TypeError, ValueError):
        raise ParseError(f"expected an integer {what}, got {tok!r}") from None


# ---------------------------------------------------------------------------
# Types


def type_from_tree(form) -> ObjType:
    form = _expect_list(form, "type")
    match form:
        case ["bool"]:
            return BoolType()
        case ["nat"]:
            return NatType()
        case ["tvar", name] if isinstance(name, str):
            return TypeVar(name)
        case ["list", t]:
            return ListType(type_from_tree(t))
        case ["arrow", t, r]:
            return Arrow(type_from_tree(t), type_from_tree(r))
        case ["prod", t, r]:
            return Prod(type_from_tree(t), type_from_tree(r))
    raise ParseError(f"unrecognized type form {form!r}")


def print_type(ty: ObjType) -> str:
    match ty:
        case BoolType():
            return "(bool)"
        case NatType():
            return "(nat)"
        case TypeVar(name):
            return f"(tvar {name})"
        case ListType(t):
            return f"(list {print_type(t)})"
        case Arrow(t, r):
            return f"(arrow {print_type(t)} {print_type(r)})"
        case Prod(t, r):
            return f"(prod {print_type(t)} {print_type(r)})"
    raise ValueError(f"unexpected type {ty!r}")


def parse_type(text: str) -> ObjType:
    return type_from_tree(read_sexpr(text))


# ---------------------------------------------------------------------------
# Terms


def var_from_tree(form) -> ObjVar:
    form = _expect_list(form, "variable")
    match form:
        case ["var", name, idx, ty] if isinstance(name, str):
            return ObjVar(name, _int(idx, "variable index"),
                          type_from_tree(ty))
    raise ParseError(f"unrecognized variable form {form!r}")


def term_from_tree(form) -> Term:
    form = _expect_list(form, "term")
    head = form[0]
    if head == "var":
        return Var(var_from_tree(form))
    if head == "app":
        if len(form) != 3:
            raise ParseError("app takes exactly two subterms")
        try:
            return App(term_from_tree(form[1]), term_from_tree(form[2]))
        except TypeError as e:
            raise ParseError(f"ill-typed application: {e}") from None
    if head == "lam":
        if len(form) != 3:
            raise ParseError("lam takes a variable and a body")
        return Lam(var_from_tree(form[1]), term_from_tree(form[2]))
    if isinstance(head, str) and head in _CONST_SPECS:
        arity = _CONST_SPECS[head][0]
        if len(form) != 1 + arity:
            raise ParseError(
                f"constant {head} takes {arity} type parameters")
        return Const(head, tuple(type_from_tree(p) for p in form[1:]))
    raise ParseError(f"unrecognized term form {form!r}")


def print_var(v: ObjVar) -> str:
    return f"(var {v.name} {v.index} {print_type(v.ty)})"


def print_term(t: Term) -> str:
    match t:
        case Var(v):
            return print_var(v)
        case Const(tag, params):
            if not params:
                return f"({tag})"
            inner = " ".join(print_type(p) for p in params)
            return f"({tag} {inner})"
        case App(fun, arg):
            return f"(app {print_term(fun)} {print_term(arg)})"
        case Lam(bound, body):
            return f"(lam {print_var(bound)} {print_term(body)})"
    raise ValueError(f"unexpected term {t!r}")


def parse_term(text: str) -> Term:
    return term_from_tree(read_sexpr(text))


# ---------------------------------------------------------------------------
# Formulas


def formula_from_tree(form) -> Formula:
    form = _expect_list(form, "formula")
    match form:
        case ["bot"]:
            return BOT
        case ["atom", t]:
            try:
                return Atom(term_from_tree(t))
            except TypeError as e:
                raise ParseError(f"non-boolean atom payload: {e}") from None
        case ["imp", a, b]:
            return Imp(formula_from_tree(a), formula_from_tree(b))
        case ["and", a, b]:
            return And(formula_from_tree(a), formula_from_tree(b))
        case ["or", a, b]:
            return Or(formula_from_tree(a), formula_from_tree(b))
        case ["all", v, a]:
            return All(var_from_tree(v), formula_from_tree(a))
        case ["ex", v, a]:
            return Ex(var_from_tree(v), formula_from_tree(a))
    raise ParseError(f"unrecognized formula form {form!r}")


def print_formula(a: Formula) -> str:
    match a:
        case Bot():
            return "(bot)"
        case Atom(t):
            return f"(atom {print_term(t)})"
        case Imp(p, c):
            return f"(imp {print_formula(p)} {print_formula(c)})"
        case And(l, r):
            return f"(and {print_formula(l)} {print_formula(r)})"
        case Or(l, r):
            return f"(or {print_formula(l)} {print_formula(r)})"
        case All(x, b):
            return f"(all {print_var(x)} {print_formula(b)})"
        case Ex(x, b):
            return f"(ex {print_var(x)} {print_formula(b)})"
    raise ValueError(f"unexpected formula {a!r}")


def parse_formula(text: str) -> Formula:
    return formula_from_tree(read_sexpr(text))


# ---------------------------------------------------------------------------
# Axiom identifiers


_AXIOM_TAGS = {
    Truth: "truth",
    BoolCases: "boolcases",
    IndNat: "indnat",
    IndList: "indlist",
    BotPlus: "botplus",
    OrIntroL: "or-intro-l",
    OrIntroR: "or-intro-r",
    OrElim: "or-elim",
    ExIntro: "ex-intro",
    ExElim: "ex-elim",
    Lem: "lem",
}


_AXIOM_CLASSES = {tag: cls for cls, tag in _AXIOM_TAGS.items()}
# Axiom arguments are the dataclass fields in order, handled by declared type.
_FIELD_READERS = {"ObjVar": var_from_tree, "Formula": formula_from_tree,
                  "Term": term_from_tree}
_FIELD_PRINTERS = {"ObjVar": print_var, "Formula": print_formula,
                   "Term": print_term}


def axiom_from_tree(form) -> AxiomId:
    form = _expect_list(form, "axiom")
    match form:
        case ["axiom", str(tag), *args] if tag in _AXIOM_CLASSES:
            cls = _AXIOM_CLASSES[tag]
            kinds = [f.type for f in fields(cls)]
            if len(args) == len(kinds):
                return cls(*(_FIELD_READERS[k](a) for k, a in zip(kinds, args)))
    raise ParseError(f"unrecognized axiom form {form!r}")


def print_axiom(ax: AxiomId) -> str:
    args = [_FIELD_PRINTERS[f.type](getattr(ax, f.name)) for f in fields(ax)]
    return " ".join(["(axiom", _AXIOM_TAGS[type(ax)], *args]) + ")"


# ---------------------------------------------------------------------------
# Proofs


def _assumption_from_tree(form) -> AssumptionVar:
    form = _expect_list(form, "assumption")
    match form:
        case ["assume", name, idx, a] if isinstance(name, str):
            return AssumptionVar(name, _int(idx, "assumption index"),
                                 formula_from_tree(a))
    raise ParseError(f"unrecognized assumption form {form!r}")


# Inner proof forms by head symbol.  A form is the head, arguments read by
# ``before``, ``n`` subproofs, then arguments read by ``after``; it builds
# ``rule`` with parameters ``fixed`` and then the read arguments.  Arguments
# before the subproofs are read on the way down and the rest on the way up,
# so errors are reported in textual order.
_PROOF_FORMS = {  # tag: (rule, fixed, before, n, after)
    "pair-pf": ("and_intro", (), (), 2, ()),
    "proj0": ("proj", (0,), (), 1, ()),
    "proj1": ("proj", (1,), (), 1, ()),
    "app-pf": ("imp_elim", (), (), 2, ()),
    "lam-pf": ("imp_intro", (), (_assumption_from_tree,), 1, ()),
    "inst": ("all_elim", (), (), 1, (term_from_tree,)),
    "gen": ("all_intro", (), (var_from_tree,), 1, ()),
}
_NO_FORM = (None, (), (), -1, ())  # matches no form length


def proof_from_tree(form, th: TheoryId,
                    supply: NameSupply | None = None) -> Proof:
    """Build the proof through the kernel; kernel errors propagate."""
    if supply is None:
        supply = NameSupply()
    early = {}  # arguments read on the way down, by id of their form

    def children(form) -> list:
        form = _expect_list(form, "proof")
        tag = form[0]
        if tag in ("assume", "axiom"):
            return []
        _, _, before, n, after = _PROOF_FORMS.get(
            tag if isinstance(tag, str) else None, _NO_FORM)
        if len(form) != 1 + len(before) + n + len(after):
            raise ParseError(f"unrecognized proof form {form!r}")
        if before:
            early[id(form)] = tuple(r(a) for r, a in zip(before, form[1:]))
        return form[1 + len(before):1 + len(before) + n]

    def construct(form, kids) -> Proof:
        match form[0]:
            case "assume":
                return assume(_assumption_from_tree(form))
            case "axiom":
                return axiom(axiom_from_tree(form), th, supply)
        rule, params, before, _, after = _PROOF_FORMS[form[0]]
        if before:
            params += early.pop(id(form))
        if after:
            params += tuple(r(a) for r, a in zip(after, form[-len(after):]))
        return build(rule, kids, params, supply)

    return map_proof(form, construct, children)


def parse_proof(text: str, th: TheoryId,
                supply: NameSupply | None = None) -> Proof:
    return proof_from_tree(read_sexpr(text), th, supply)


def _print_assumption(u: AssumptionVar) -> str:
    return f"(assume {u.name} {u.index} {print_formula(u.formula)})"


def print_proof(m: Proof) -> str:
    """Print a proof as a tree; a shared node's own text is built once.

    The image of a node is its text, or a tuple of its own text and the
    images of its children; nodes do not keep their whole text, because
    shared subproofs would repeat it.
    """
    def parts(m: Proof, kids) -> str | tuple:
        match m.rule:
            case "assume":
                return _print_assumption(m.params[0])
            case "axiom":
                return print_axiom(m.params[0])
            case "and_intro":
                return ("(pair-pf ", kids[0], " ", kids[1], ")")
            case "proj":
                return (f"(proj{m.params[0]} ", kids[0], ")")
            case "imp_elim":
                return ("(app-pf ", kids[0], " ", kids[1], ")")
            case "imp_intro":
                return (f"(lam-pf {_print_assumption(m.params[0])} ", kids[0],
                        ")")
            case "all_elim":
                return ("(inst ", kids[0], f" {print_term(m.params[0])})")
            case "all_intro":
                return (f"(gen {print_var(m.params[0])} ", kids[0], ")")
        raise ValueError(f"unexpected rule {m.rule!r}")

    # Expand the shared parts into the tree, again with an explicit stack.
    out: list[str] = []
    stack = [map_proof(m, parts)]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            stack += reversed(part)
    return "".join(out)
