"""S-expression reading and printing for types, terms, formulas, and proofs.

One grammar, shared between the test fixtures and the CLI, is declared once.
``_GRAMMAR`` maps each head symbol of a type, variable, term, formula, axiom
or assumption to the class its form builds, whose fields give the arguments;
one reader (``_from_tree``) and one printer (``_write``) serve all of them.
``_PROOF_FORMS`` declares the proof forms, which ``proof_from_tree`` reads
and ``print_proof`` writes.  Parsing a proof goes straight through the
kernel constructors, so a proof that parses has already been checked.  The
printer memoizes on identity for one call, so a proof writes out the text
of each distinct formula, term and type once, however often it is used.

A proof form may carry a label in the style of the Common Lisp reader
(CLHS 2.4.8.15-16): ``#n=(form)`` defines label n and a later ``#n#``
stands for the same form, so a shared subproof is written and checked once.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .formula import (All, And, Atom, Bot, Ex, Formula, Imp, Or, TheoryId,
                      written_size)
from .kernel import (AssumptionVar, BoolCases, BotPlus, ExElim, ExIntro,
                     IndList, IndNat, Lem, OrElim, OrIntroL, OrIntroR, Proof,
                     Truth, assume, axiom, build, map_proof)
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


def _brief(x, limit: int = 40) -> str:
    """The printed text of ``x``, cut off after ``limit`` characters."""
    text = print_form(x)
    return text if len(text) <= limit else text[:limit] + " ..."


def _expect_list(form, what: str) -> list:
    if not isinstance(form, list) or not form:
        raise ParseError(f"{what} form expected, got {_show(form)}")
    return form


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


def _from_tree(form, category: str):
    """Build the value of ``category`` that a read form writes.

    One frame per level of the form: the arguments are read in a plain
    loop, since a generator per node would double the frames.
    """
    form = _expect_list(form, category)
    head, n = form[0], 1
    if head == "axiom" and len(form) > 1 and isinstance(form[1], str):
        head, n = f"axiom {form[1]}", 2  # an axiom's head is two symbols
    row = _READERS.get((category, head)) if isinstance(head, str) else None
    if row is None or len(form) != n + len(row[1]):
        raise ParseError(f"unrecognized {category} form {_show(form)}")
    cls, kinds = row
    args = []
    for a, kind in zip(form[n:], kinds):
        if kind == "int":
            try:
                a = int(a)
            except (TypeError, ValueError):
                raise ParseError(f"expected an integer in the {category} "
                                 f"form {_show(form)}, got {_show(a)}") \
                    from None
        elif kind != "str":
            a = _from_tree(a, kind)
        elif not isinstance(a, str):
            raise ParseError(f"expected a symbol in the {category} form "
                             f"{_show(form)}, got {_show(a)}")
        args.append(a)
    try:
        if cls is Const:
            return Const(head, tuple(args))
        return Var(ObjVar(*args)) if cls is Var else cls(*args)
    except TypeError:  # App and Atom check the types of their terms
        types = ", ".join(_brief(t.ty) for t in args if isinstance(t, Term))
        raise ParseError(f"ill-typed {category} form {_show(form)}: its "
                         f"terms have types {types}") from None


def _write(x, memo: dict) -> str:
    """The text of ``x``, which ``memo`` (texts by ``id``) does not hold.

    Like ``_from_tree``, one frame per level; callers look in the memo
    first, so a node already written costs no frame.  The memo lives for
    one top-level call, so each distinct node is written once.
    """
    key = id(x)
    if type(x) is Var:
        x = x.var  # a term variable is written as its ObjVar
    if type(x) is Const:
        parts, args = [x.tag], x.params
    else:
        parts = [_HEADS[type(x)]]
        args = map(x.__getattribute__, x.__match_args__)
    for a in args:
        if type(a) is str:
            parts.append(a)
        elif type(a) is int:
            parts.append(str(a))
        else:
            parts.append(memo.get(id(a)) or _write(a, memo))
    text = memo[key] = f"({' '.join(parts)})"
    return text


def print_form(x) -> str:
    """Print a type, variable, term, formula, axiom or assumption."""
    return _write(x, {})


# One printer serves every category.
print_type = print_term = print_formula = print_form


def parse_type(text: str) -> ObjType:
    return _from_tree(read_sexpr(text), "type")


def parse_term(text: str) -> Term:
    return _from_tree(read_sexpr(text), "term")


def parse_formula(text: str) -> Formula:
    return _from_tree(read_sexpr(text), "formula")


# ---------------------------------------------------------------------------
# Proofs


# Inner proof forms by head symbol.  A form is the head, arguments of the
# kinds ``before``, ``n`` subproofs, then arguments of the kinds ``after``;
# it builds ``rule`` with parameters ``fixed`` and then the arguments.
# Arguments before the subproofs are read on the way down and the rest on
# the way up, so errors are reported in textual order.  ``print_proof``
# writes the same forms.
_PROOF_FORMS = {  # tag: (rule, fixed, before, n, after)
    "pair-pf": ("and_intro", (), (), 2, ()),
    "proj0": ("proj", (0,), (), 1, ()),
    "proj1": ("proj", (1,), (), 1, ()),
    "app-pf": ("imp_elim", (), (), 2, ()),
    "lam-pf": ("imp_intro", (), ("assumption",), 1, ()),
    "inst": ("all_elim", (), (), 1, ("term",)),
    "gen": ("all_intro", (), ("variable",), 1, ()),
}
_NO_FORM = (None, (), (), -1, ())  # matches no form length
_PROOF_TAGS = {(rule, fixed): tag
               for tag, (rule, fixed, *_) in _PROOF_FORMS.items()}
# Only these forms take labels, so the reader of formulas, terms, types and
# assumptions, which does not memoize, never looks below the head of a
# shared list.
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
    assumed = {}  # (name, index): the last assume form read and its value

    def read(form, category: str):
        # A proof repeats an assumption's formula at every use, so an assume
        # form equal to the last one read under its name and index is not
        # read again.
        if category != "assumption" or not (
                isinstance(form, list) and len(form) == 4
                and isinstance(form[1], str) and isinstance(form[2], str)):
            return _from_tree(form, category)
        last = assumed.get((form[1], form[2]))
        if last is None or last[0] != form:
            last = assumed[form[1], form[2]] = \
                form, _from_tree(form, category)
        return last[1]

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
            early[id(form)] = tuple(
                read(a, k) for k, a in zip(before, form[1:]))
        return form[1 + len(before):1 + len(before) + n]

    def construct(form, kids) -> Proof:
        match form[0]:
            case "assume":
                m = assume(read(form, "assumption"))
            case "axiom":
                m = axiom(read(form, "axiom"), th, supply)
            case tag:
                rule, params, before, _, after = _PROOF_FORMS[tag]
                if before:
                    params += early.pop(id(form))
                if after:
                    params += tuple(
                        read(a, k) for k, a in zip(after, form[-len(after):]))
                m = build(rule, kids, params, supply)
        # Recurses only into nodes not measured yet, which the recursive
        # reader or substitution has just built: no deeper than it went.
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


def print_proof(m: Proof) -> str:
    """Print a proof, writing each shared subproof once.

    A node with more than one use, other than an ``assume`` leaf, is written
    ``#n=<form>`` at its first place and ``#n#`` at the others, with labels
    numbered from 0 in print order.  A proof without such a node prints as
    a plain tree.  The text of each distinct formula, term and type is made
    once and reused wherever the proof uses it.
    """
    uses: dict[int, int] = {}
    memo: dict[int, str] = {}  # of _write, for the whole proof

    def write(x) -> str:
        return memo.get(id(x)) or _write(x, memo)

    # The image of a node is a new tuple of its own text and the images of
    # its children, so below it stands for the node; the image of an assume
    # leaf, which is never labelled, is its text.
    def parts(m: Proof, kids) -> str | tuple:
        for k in kids:
            uses[id(k)] = uses.get(id(k), 0) + 1
        if m.rule == "assume":
            return write(m.params[0])
        if m.rule == "axiom":
            return (write(m.params[0]),)
        tag = _PROOF_TAGS.get((m.rule, ())) or \
            _PROOF_TAGS[m.rule, m.params[:1]]
        _, fixed, before, _, _ = _PROOF_FORMS[tag]
        args = m.params[len(fixed):]
        text, image = f"({tag}", []
        for x in args[:len(before)]:
            text += " " + write(x)
        for k in kids:
            image += (text + " ", k)
            text = ""
        for x in args[len(before):]:
            text += " " + write(x)
        image.append(text + ")")
        return tuple(image)

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
