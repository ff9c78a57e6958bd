"""S-expression reading and printing for types, terms, formulas, and proofs.

One grammar, shared between the test fixtures and the CLI, is declared once.
``_GRAMMAR`` maps each head symbol of a type, variable, term, formula, axiom
or assumption to the class its form builds, whose fields give the arguments;
``_PROOF_FORMS`` declares the proof forms.  One reader (``_parse``) and one
printer (``_print``) serve all of them, each with an explicit stack, so the
depth of a text is not limited by Python's recursion limit.  The reader
builds each form when its closing parenthesis arrives, a proof through the
kernel constructors, so a proof that parses has already been checked.

Any list form may carry a label in the style of the Common Lisp reader
(CLHS 2.4.8.15-16): ``#n=(form)`` defines label n and a later ``#n#``
stands for the same form.  ``print_proof`` labels every form that a proof
uses more than once, so the text of each is written and read once.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
from operator import attrgetter

from .errors import ParseError
from .formula import (All, And, Atom, Bot, Ex, Formula, Imp, Or, TheoryId,
                      written_size)
from .kernel import (AssumptionVar, BoolCases, BotPlus, ExElim, ExIntro,
                     IndList, IndNat, Lem, OrElim, OrIntroL, OrIntroR, Proof,
                     Truth, assume, axiom, build)
from .syntax import (App, Arrow, BoolType, Const, Lam, ListType, NatType,
                     ObjType, ObjVar, Prod, Term, TypeVar, Var, _CONST_SPECS,
                     fold)


# ---------------------------------------------------------------------------
# Tokens and labels


_STEP = {"(": 1, ")": -1}  # the change of parenthesis depth at a token


def _tokenize(text: str) -> list[str]:
    # Parentheses and maximal symbols; a comment runs from ';' to the line end.
    if ";" in text:
        text = re.sub(r";[^\n]*", "", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _label(tok: str) -> tuple[int, str] | None:
    """``(n, "=")`` for ``#n=``, which defines label n, and ``(n, "#")`` for
    ``#n#``, which uses it."""
    if tok[0] == "#" and tok[-1] in "=#" and tok[1:-1].isdecimal():
        return int(tok[1:-1]), tok[-1]
    return None


def _depths(tokens: list[str]) -> list[int]:
    """The parenthesis depth after each token; ``ParseError`` unless the
    tokens are exactly one form."""
    if not tokens:
        raise ParseError("empty input")
    if tokens[0] == ")":
        raise ParseError("unexpected closing parenthesis")
    depth = list(accumulate(map(_STEP.get, tokens, repeat(0))))
    try:  # the form ends where the depth is 0 again, after a label on it
        end = depth.index(0, 1 if tokens[0][-1] == "=" and _label(tokens[0])
                          else 0)
    except ValueError:
        raise ParseError("unbalanced parenthesis") from None
    if end != len(tokens) - 1:
        raise ParseError("trailing input after the toplevel form")
    return depth


def _define(n: int, tokens: list[str], i: int, labels: dict,
            starts: dict) -> None:
    """Open label n, defined by ``tokens[i]``, on the list that follows."""
    if n in labels:
        raise ParseError(f"label #{n}= is defined twice")
    if tokens[i + 1:i + 2] != ["("]:
        raise ParseError(f"label #{n}= is not followed by a list")
    labels[n] = None  # until the form is complete
    starts[n] = i + 1


def _use(n: int, labels: dict):
    x = labels.get(n)
    if x is None:
        raise ParseError(f"#{n}# refers to a label that is "
                         "undefined or whose form is not complete")
    return x


def _show(tokens: list[str], i: int, starts: dict, limit: int = 60) -> str:
    """The text of the form at ``tokens[i]``, cut off after about ``limit``
    characters, with each label use written out as the form it stands for.

    ``starts`` gives the index of each label's form.  Through labels a form
    can stand for a tree exponentially larger than its text, so an error
    message never writes one out in full.
    """
    out: list[str] = []
    size = depth = 0
    back = []  # (index, depth) to go on from when a label's form is written
    while size <= limit and i < len(tokens):
        tok = tokens[i]
        i += 1
        m = _label(tok)
        if m and m[1] == "=":
            if tokens[i:i + 1] == ["("]:  # so each jump writes a token
                starts.setdefault(m[0], i)
            continue
        if m and m[0] in starts:
            back.append((i, depth))
            i = starts[m[0]]
            continue
        if out and out[-1] != "(" and tok != ")":
            out.append(" ")
        out.append(tok)
        size += len(tok) + 1
        depth += _STEP.get(tok, 0)
        while back and back[-1][1] == depth:
            i = back.pop()[0]
        if depth == 0 and not back:
            return "".join(out)
    return "".join(out) + " ..."


def _brief(ty: ObjType, limit: int = 40) -> str:
    """The text of a type cut off after ``limit`` characters, or its size."""
    if (n := _type_size(ty, {})) > limit:  # labels can make it exponential
        return f"<{type(ty).__name__} of {n} nodes>"
    text = print_form(ty)
    return text if len(text) <= limit else text[:limit] + " ..."


def _type_size(ty: ObjType, sizes: dict) -> int:
    """Nodes of a type written out as a tree; ``sizes`` memoizes by node."""
    return fold(ty, lambda _, kids: 1 + sum(kids), lambda t: [
        a for a in _shape(t)[1] if isinstance(a, ObjType)], sizes)


def read_sexpr(text: str):
    """Parse one toplevel form into nested lists of symbol strings.

    Every use of a label is the very list object it labels.  A label names
    a list, and is defined once; a use must come after the end of the
    form, so the result has no cycle.
    """
    tokens = _tokenize(text)
    _depths(tokens)
    stack: list[list] = [[]]  # lists still open, innermost last
    labels: dict[int, list | None] = {}
    starts: dict[int, int] = {}
    opening: dict[int, int] = {}  # depth of an open labelled list: label
    for i, tok in enumerate(tokens):
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            tok = stack.pop()
            if len(stack) in opening:
                labels[opening.pop(len(stack))] = tok
        elif tok[0] == "#" and (m := _label(tok)):
            if m[1] == "=":
                _define(m[0], tokens, i, labels, starts)
                opening[len(stack)] = m[0]
                continue
            tok = _use(m[0], labels)
        stack[-1].append(tok)
    return stack[0][0]


# ---------------------------------------------------------------------------
# Types, variables, terms, formulas, axioms and assumptions


# The grammar: each category's head symbols and the class each one builds.
# A form is its head, then one argument per constructor field in order,
# read and written by the field's declared type: a symbol for ``str``, an
# integer for ``int``, a form of the category for the others.  Two
# exceptions: a constant's head is its tag, followed by its type parameters
# (``_CONST_SPECS`` gives the tags and their numbers), and a term variable
# is written as its ``ObjVar``.
_GRAMMAR = {
    "type": {"bool": BoolType, "nat": NatType, "tvar": TypeVar,
             "list": ListType, "arrow": Arrow, "prod": Prod},
    "variable": {"var": ObjVar},
    "term": {"app": App, "lam": Lam},
    "formula": {"bot": Bot, "atom": Atom, "imp": Imp, "and": And, "or": Or,
                "all": All, "ex": Ex},
    "axiom": {"axiom truth": Truth, "axiom boolcases": BoolCases,
              "axiom indnat": IndNat, "axiom indlist": IndList,
              "axiom botplus": BotPlus, "axiom or-intro-l": OrIntroL,
              "axiom or-intro-r": OrIntroR, "axiom or-elim": OrElim,
              "axiom ex-intro": ExIntro, "axiom ex-elim": ExElim,
              "axiom lem": Lem},
    "assumption": {"assume": AssumptionVar},
}
_CATEGORIES = {"ObjType": "type", "ObjVar": "variable", "Term": "term",
               "Formula": "formula"}  # by declared field type


def _kinds(cls) -> tuple[str, ...]:
    types = cls.__annotations__
    return tuple(_CATEGORIES.get(types[n], types[n])
                 for n in cls.__match_args__)


_HEADS = {cls: head for heads in _GRAMMAR.values()
          for head, cls in heads.items()}
# (category, head): (class, kind of each argument), where a kind is a
# category, "str" or "int".
_READERS = {(c, head): (cls, _kinds(cls))
            for c, heads in _GRAMMAR.items() for head, cls in heads.items()}
_READERS["term", _HEADS[ObjVar]] = (Var, _kinds(ObjVar))
_READERS.update((("term", tag), (Const, ("type",) * arity))
                for tag, (arity, _) in _CONST_SPECS.items())


# ---------------------------------------------------------------------------
# Proofs


# Inner proof forms by head symbol.  A form is the head, arguments of the
# kinds ``before``, ``n`` subproofs, then arguments of the kinds ``after``;
# it builds ``rule`` with parameters ``fixed`` and then the arguments.
# ``print_proof`` writes the same forms.
_PROOF_FORMS = {  # tag: (rule, fixed, before, n, after)
    "pair-pf": ("and_intro", (), (), 2, ()),
    "proj0": ("proj", (0,), (), 1, ()),
    "proj1": ("proj", (1,), (), 1, ()),
    "app-pf": ("imp_elim", (), (), 2, ()),
    "lam-pf": ("imp_intro", (), ("assumption",), 1, ()),
    "inst": ("all_elim", (), (), 1, ("term",)),
    "gen": ("all_intro", (), ("variable",), 1, ()),
}
# The head of each rule's form, and whether its parameters (an assumption
# or variable) are written before its subproofs; a projection's side is in
# its head.
_PROOF_HEADS = {(rule, fixed): (tag, bool(before))
                for tag, (rule, fixed, before, _, _) in _PROOF_FORMS.items()}


# ---------------------------------------------------------------------------
# The reader


# Every form the reader builds: (category, head): (class or proof tag, kind
# of each argument).  Where a proof stands, an assume or axiom form is read
# as an assumption or axiom and made a leaf of the proof.
_FORMS = {**_READERS, **{
    ("proof", tag): (tag, (*before, *("proof",) * n, *after))
    for tag, (_, _, before, n, after) in _PROOF_FORMS.items()}}
_LEAVES = {"assume": "assumption", "axiom": "axiom"}
# The value of each form without arguments, which the reader takes as it is.
_NULLARY = {(c, head): Const(head, ()) if cls is Const else cls()
            for (c, head), (cls, kinds) in _READERS.items() if not kinds}
_WHAT = {"str": "a symbol", "int": "an integer"}
_PART_OF_PREMISE = {"imp_elim", "proj"}


class _Open:
    """A form that the reader has opened and not yet closed."""

    __slots__ = ("kind", "head", "cls", "kinds", "start", "proof", "label",
                 "args")

    def __init__(self, kind, head, row, start, proof, label):
        self.kind = kind  # its category
        self.head = head  # its head, two symbols for an axiom
        self.cls, self.kinds = row  # its row of _FORMS
        self.start = start  # index of its opening parenthesis
        self.proof = proof  # whether it stands where a proof stands
        self.label = label  # the label it defines, if any
        self.args: list = []


def _parse(text: str, category: str, th: TheoryId | None = None):
    """Build the value of ``category`` that ``text`` writes, in one pass.

    Proofs go through the kernel constructors; kernel errors propagate.  A
    labelled form is built once; a use stands for it, a variable's also for
    its term, a term variable's for its variable and an assumption's for its
    ``assume`` leaf.  In a text that defines a label no type, conclusion, or
    formula or term read as the whole text may have more nodes, written out
    with its terms, than the square of the token count: through labels each
    line of text can double a form.  Tree-form text is not bounded.
    """
    tokens = _tokenize(text)
    _depths(tokens)
    bound = len(tokens) ** 2 if "#" in text and any(
        t[-1] == "=" and _label(t) for t in tokens) else None
    sizes: dict = {}  # written-out size of each type, formula and term met
    labels: dict[int, tuple[str, object] | None] = {}  # (category, value)
    starts: dict[int, int] = {}  # index of each label's form, for quotes
    label = None  # the label defined just before the next list
    root = _Open(category, None, (None, (category,)), 0, False, None)
    stack = [root]  # forms still open, innermost last

    def unrecognized(kind: str, start: int) -> ParseError:
        return ParseError(f"unrecognized {kind} form "
                          f"{_show(tokens, start, starts)}")

    def wrong(f: _Open, want: str, i: int) -> ParseError:
        got = _show(tokens, i, starts)
        if want not in _WHAT:
            return ParseError(f"{want} form expected, got {got}")
        return ParseError(f"expected {_WHAT[want]} in the {f.kind} form "
                          f"{_show(tokens, f.start, starts)}, got {got}")

    def too_large(what: str, n: int) -> ParseError:
        return ParseError(f"the {what} has {n} nodes written out, "
                          f"more than {bound}")

    def proved(x, tag: str, label: int | None) -> Proof:
        # The proof of a form whose head is tag, checked and labelled.
        if type(x) is AssumptionVar:
            if label is not None:
                labels[label] = ("assumption", x)
                label = None
            x = assume(x)
        elif not isinstance(x, Proof):
            x = axiom(x, th)
        # The conclusion of modus ponens or a projection is part of its
        # premise's, which has been measured.
        if bound is not None and x.rule not in _PART_OF_PREMISE and \
                (n := written_size(x.conclusion, sizes)) > bound:
            raise too_large(f"{tag} form's conclusion", n)
        if label is not None:
            labels[label] = ("proof", x)
        return x

    i, count = 0, len(tokens)
    while i < count:
        tok = tokens[i]
        i += 1
        f = stack[-1]
        args = f.args
        if tok == ")":
            if len(args) != len(f.kinds):
                raise unrecognized(f.kind, f.start)
            stack.pop()
            cls = f.cls
            if f.kind == "proof":
                rule, fixed, before, n, _ = _PROOF_FORMS[cls]
                b = len(before)
                x = build(rule, args[b:b + n],
                          (*fixed, *args[:b], *args[b + n:]))
            else:
                try:
                    if cls is Const:
                        x = Const(f.head, tuple(args))
                    else:
                        x = Var(ObjVar(*args)) if cls is Var else cls(*args)
                except TypeError:  # App and Atom check the types of terms
                    types = ", ".join(_brief(t.ty) for t in args
                                      if isinstance(t, Term))
                    raise ParseError(
                        f"ill-typed {f.kind} form "
                        f"{_show(tokens, f.start, starts)}: its terms have "
                        f"types {types}") from None
                if f.kind == "type" and bound is not None and \
                        (n := _type_size(x, sizes)) > bound:
                    raise too_large("type", n)
            if f.proof:
                x = proved(x, tokens[f.start + 1], f.label)
            elif f.label is not None:
                labels[f.label] = (f.kind, x)
            stack[-1].args.append(x)
            continue
        try:
            want = f.kinds[len(args)]
        except IndexError:
            raise unrecognized(f.kind, f.start) from None
        if tok == "(":
            start = i - 1
            at_proof = want == "proof"
            if at_proof:
                want = _LEAVES.get(tokens[i], want)
            elif want in _WHAT:
                raise wrong(f, want, start)
            head = tokens[i]
            if head == "axiom":  # an axiom's head is two symbols
                head = f"axiom {tokens[i + 1]}"
            row = _FORMS.get((want, head))
            if row is None:
                raise unrecognized(want, start)
            i += 2 if tokens[i] == "axiom" else 1
            if tokens[i] == ")" and \
                    (x := _NULLARY.get((want, head))) is not None:
                if at_proof:
                    x = proved(x, tokens[start + 1], label)
                elif label is not None:
                    labels[label] = (want, x)
                args.append(x)
                label = None
                i += 1
                continue
            stack.append(_Open(want, head, row, start, at_proof, label))
            label = None
        elif tok[0] == "#" and (m := _label(tok)):
            if m[1] == "=":
                label = m[0]
                _define(label, tokens, i - 1, labels, starts)
                continue
            kind, x = _use(m[0], labels)
            if kind == "assumption" and want == "proof":
                kind, x = want, proved(x, "assume", None)
            elif (kind, want) == ("variable", "term"):
                kind, x = want, Var(x)
            elif (kind, want) == ("term", "variable") and type(x) is Var:
                kind, x = want, x.var
            if kind != want:
                raise wrong(f, want, i - 1)
            args.append(x)
        elif want == "str":
            args.append(tok)
        elif want != "int":
            raise wrong(f, want, i - 1)
        else:
            try:
                args.append(int(tok))
            except ValueError:
                raise wrong(f, want, i - 1) from None
    x = root.args[0]
    if bound is not None and category in ("formula", "term") and \
            (n := written_size(x, sizes)) > bound:
        raise too_large(category, n)
    return x


def parse_type(text: str) -> ObjType:
    return _parse(text, "type")


def parse_term(text: str) -> Term:
    return _parse(text, "term")


def parse_formula(text: str) -> Formula:
    return _parse(text, "formula")


def parse_proof(text: str, th: TheoryId) -> Proof:
    """Read and build a proof; see ``_parse``."""
    return _parse(text, "proof", th)


# ---------------------------------------------------------------------------
# Printer


# The arguments of each class of _HEADS: one value, or a tuple of them.
_FIELDS = {cls: attrgetter(*cls.__match_args__) if cls.__match_args__
           else lambda x: () for cls in _HEADS}
# The text of each form without arguments, which is never labelled.
_ATOMS = {x: f" ({head})" for (_, head), x in _NULLARY.items()}


def _shape(x) -> tuple[str, tuple]:
    """The head of the form that writes ``x`` and its arguments, in order;
    ``x`` is neither a term variable nor an ``assume`` leaf."""
    if type(x) is Proof:
        rule, params = x.rule, x.params
        if rule == "proj":
            return _PROOF_HEADS[rule, params][0], x.children
        if rule != "axiom":
            tag, first = _PROOF_HEADS[rule, ()]
            return tag, params + x.children if first else x.children + params
        x = params[0]
    cls = type(x)
    if cls is Const:
        return x.tag, x.params
    args = _FIELDS[cls](x)
    return _HEADS[cls], args if type(args) is tuple else (args,)


def _shared(root) -> set:
    """The forms with arguments that ``root`` uses more than once, a term
    variable counted as its variable, an ``assume`` leaf as its assumption."""
    seen: set = set()
    shared: set = set()
    stack = [(root,)]  # argument tuples still to be counted
    while stack:
        for a in stack.pop():
            t = type(a)
            if t is str or t is int or a in _ATOMS:
                continue
            if t is Var:
                a = a.var
            elif t is Proof and a.rule == "assume":
                a = a.params[0]
            if a in seen:
                shared.add(a)
            else:
                seen.add(a)
                stack.append(_shape(a)[1])
    return shared


def _print(root, shared=frozenset()) -> str:
    """The text of ``root``, written in pre-order, each form in ``shared``
    as ``#n=<form>`` where it first occurs and as ``#n#`` after that."""
    out: list[str] = []  # each form's text starts with a space
    labels: dict = {}
    stack = [root]
    push, write = stack.append, out.append
    while stack:
        x = stack.pop()
        text = x if type(x) is str else _ATOMS.get(x)
        if text is not None:
            write(text)
            continue
        t = type(x)
        if t is Var:
            x = x.var
        elif t is Proof and x.rule == "assume":
            x = x.params[0]
        text = " ("
        if x in shared:
            if (n := labels.get(x)) is not None:
                write(f" #{n}#")
                continue
            n = labels[x] = len(labels)
            text = f" #{n}=("
        head, args = _shape(x)
        write(text + head)
        push(")")
        for a in reversed(args):
            t = type(a)
            push(" " + a if t is str else f" {a}" if t is int else a)
    return "".join(out)[1:]


def print_form(x) -> str:
    """Print a type, variable, term, formula, axiom or assumption as a tree."""
    return _print(x)


# One printer serves every category.
print_type = print_term = print_formula = print_form


def print_proof(m: Proof) -> str:
    """Print a proof, writing each form that it uses more than once once.

    A subproof, assumption, formula, term, variable or type with arguments
    and more than one use is written ``#n=<form>`` at its first place and
    ``#n#`` at the others, with labels numbered from 0 in print order.
    """
    return _print(m, _shared(m))
