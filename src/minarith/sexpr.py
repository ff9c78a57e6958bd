"""S-expression reading and printing for types, terms, formulas, and proofs.

One grammar shared between the test fixtures and the CLI.  Parsing a proof
goes straight through the kernel constructors, so a proof that parses has
already been checked.

A proof form may carry a label in the style of the Common Lisp reader
(CLHS 2.4.8.15-16): ``#n=(form)`` defines label n and a later ``#n#``
stands for the same form, so a shared subproof is written and checked once.
"""

from __future__ import annotations

import re
from dataclasses import fields

from .errors import ParseError
from .formula import (BOT, All, And, Atom, Bot, Ex, Formula, Imp, Or,
                      TheoryId, written_size)
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


_LABEL = r"#(\d+)([=#])"  # #n= defines label n, #n# uses it


def read_sexpr(text: str):
    """Parse one toplevel form into nested lists of symbol strings.

    Every use of a label is the very list object it labels.  A label may
    only name a proof form, and only once; a use must come after the end
    of the form, so the result has no cycle.
    """
    return _read(_tokenize(text))[0]


def _read(tokens: list[str]) -> tuple[object, bool]:
    """The form of ``read_sexpr`` and whether its text defines a label."""
    if not tokens:
        raise ParseError("empty input")
    stack: list[list] = []  # lists still open, innermost last
    labels: dict[int, list | None] = {}  # None while the form is open
    opening: dict[int, int] = {}  # depth of an open labelled list: label
    for i, tok in enumerate(tokens, 1):
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected closing parenthesis")
            if opening and len(stack) in opening:
                n = opening.pop(len(stack))
                head = stack[-1][0] if stack[-1] else None
                if not (isinstance(head, str) and head in _LABELLED_FORMS):
                    raise ParseError(f"label #{n}= is on {_show(stack[-1])}; "
                                     "only proof forms other than assume "
                                     "take labels")
                labels[n] = stack[-1]
            tok = stack.pop()
        elif tok[0] == "#" and (m := re.fullmatch(_LABEL, tok)):
            n = int(m[1])
            if m[2] == "=":
                if n in labels:
                    raise ParseError(f"label #{n}= is defined twice")
                if tokens[i:i + 1] != ["("]:
                    raise ParseError(f"label #{n}= is not followed by a list")
                labels[n] = None
                opening[len(stack) + 1] = n
                continue
            tok = labels.get(n)
            if tok is None:
                raise ParseError(f"#{n}# refers to a label that is "
                                 "undefined or whose form is not complete")
        if stack:
            stack[-1].append(tok)
        elif i < len(tokens):
            raise ParseError("trailing input after the toplevel form")
        else:
            return tok, bool(labels)
    raise ParseError("unbalanced parenthesis")


def _show(form, limit: int = 60) -> str:
    """The text of a read form, cut off after about ``limit`` characters.

    Through labels a form can stand for a tree exponentially larger than
    its text, so an error message never writes one out in full.
    """
    out: list[str] = []
    n, stack = 0, [form]
    while stack and n <= limit:
        f = stack.pop()
        if isinstance(f, list):
            stack += [")", *reversed(f)]
            f = "("
        if out and out[-1] != "(" and f != ")":
            out.append(" ")
        out.append(f)
        n += len(f) + 1
    return "".join(out) + (" ..." if stack else "")


def _expect_list(form, what: str) -> list:
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a {what} form, got {_show(form)}")
    return form


def _int(tok, what: str) -> int:
    try:
        return int(tok)
    except (TypeError, ValueError):
        raise ParseError(
            f"expected an integer {what}, got {_show(tok)}") from None


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
    raise ParseError(f"unrecognized type form {_show(form)}")


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
    raise ParseError(f"unrecognized variable form {_show(form)}")


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
    raise ParseError(f"unrecognized term form {_show(form)}")


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
    raise ParseError(f"unrecognized formula form {_show(form)}")


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
    raise ParseError(f"unrecognized axiom form {_show(form)}")


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
    raise ParseError(f"unrecognized assumption form {_show(form)}")


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
# Only these forms take labels, so the readers of formulas, terms, types and
# assumptions, which do not memoize, never look below the head of a shared
# list.
_LABELLED_FORMS = {*_PROOF_FORMS, "axiom"}


def proof_from_tree(form, th: TheoryId, supply: NameSupply | None = None,
                    max_size: int | None = None) -> Proof:
    """Build the proof through the kernel; kernel errors propagate.

    A form used through labels is built once.  With ``max_size``, a
    conclusion that has more nodes, written out with its terms, is refused.
    """
    if supply is None:
        supply = NameSupply()
    early = {}  # arguments read on the way down, by id of their form
    sizes = {}  # written-out size of each formula and term node met

    def children(form) -> list:
        form = _expect_list(form, "proof")
        tag = form[0]
        if tag in ("assume", "axiom"):
            return []
        _, _, before, n, after = _PROOF_FORMS.get(
            tag if isinstance(tag, str) else None, _NO_FORM)
        if len(form) != 1 + len(before) + n + len(after):
            raise ParseError(f"unrecognized proof form {_show(form)}")
        if before:
            early[id(form)] = tuple(r(a) for r, a in zip(before, form[1:]))
        return form[1 + len(before):1 + len(before) + n]

    def construct(form, kids) -> Proof:
        match form[0]:
            case "assume":
                m = assume(_assumption_from_tree(form))
            case "axiom":
                m = axiom(axiom_from_tree(form), th, supply)
            case tag:
                rule, params, before, _, after = _PROOF_FORMS[tag]
                if before:
                    params += early.pop(id(form))
                if after:
                    params += tuple(
                        r(a) for r, a in zip(after, form[-len(after):]))
                m = build(rule, kids, params, supply)
        # Recurses only into nodes not measured yet, which the recursive
        # readers or substitution have just built: no deeper than they went.
        if max_size is not None and \
                (n := written_size(m.conclusion, sizes)) > max_size:
            raise ParseError(f"the {form[0]} form's conclusion has {n} "
                             f"nodes written out, more than {max_size}")
        return m

    return map_proof(form, construct, children)


def parse_proof(text: str, th: TheoryId,
                supply: NameSupply | None = None) -> Proof:
    """Read and build a proof.

    Through labels a few lines of text can double a conclusion on each
    line, so a labelled text may not have a conclusion with more nodes than
    the square of its token count.  Tree-form text is not bounded.
    """
    tokens = _tokenize(text)
    form, labelled = _read(tokens)
    return proof_from_tree(form, th, supply,
                           len(tokens) ** 2 if labelled else None)


def _print_assumption(u: AssumptionVar) -> str:
    return f"(assume {u.name} {u.index} {print_formula(u.formula)})"


def print_proof(m: Proof) -> str:
    """Print a proof, writing each shared subproof once.

    A node with more than one use, other than an ``assume`` leaf, is written
    ``#n=<form>`` at its first place and ``#n#`` at the others, with labels
    numbered from 0 in print order.  A proof without such a node prints as
    a plain tree.
    """
    uses: dict[int, int] = {}

    # The image of a node is a new tuple of its own text and the images of
    # its children, so below it stands for the node; the image of an assume
    # leaf, which is never labelled, is its text.
    def parts(m: Proof, kids) -> str | tuple:
        for k in kids:
            uses[id(k)] = uses.get(id(k), 0) + 1
        match m.rule:
            case "assume":
                return _print_assumption(m.params[0])
            case "axiom":
                return (print_axiom(m.params[0]),)
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

    stack = [map_proof(m, parts)]
    # Label of each shared image, None until it is first printed.
    labels = dict.fromkeys(i for i, n in uses.items() if n > 1)
    out: list[str] = []
    count = 0
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            out.append(part)
        elif id(part) not in labels:
            stack += reversed(part)
        elif labels[id(part)] is None:
            labels[id(part)] = count
            out.append(f"#{count}=")
            count += 1
            stack += reversed(part)
        else:
            out.append(f"#{labels[id(part)]}#")
    return "".join(out)
