"""S-expression reading and printing for types, terms, formulas, and proofs.

One grammar, shared between the test fixtures and the CLI, is declared once.
``_GRAMMAR`` maps each head symbol of a type, variable, term, formula, axiom
or assumption to the class its form builds, whose fields give the arguments;
``_PROOF_FORMS`` declares the proof forms.  One reader (``_parse``) and one
printer (``_write``, ``print_proof``) serve all of them.

The reader makes one pass over the tokens with an explicit stack of open
forms, so the depth of the text is not limited by Python's recursion limit.
Each form is built when its closing parenthesis arrives: types, terms and
formulas by their constructors, proofs through the kernel constructors, so
a proof that parses has already been checked.  A proof writes the text of a
formula out at every use, so the reader keeps a memo, for one call, of the
values read from the arguments of proof, ``axiom`` and ``assume`` forms and
of the lists up to two levels below them, keyed on their category and text:
a text met again is not read again.  Deeper lists are not looked up, so
each token is joined into a key at most four times and reading stays linear.
The printer memoizes on identity for one call, so a proof writes out the
text of each distinct formula, term and type once, however often it is used.

A proof form may carry a label in the style of the Common Lisp reader
(CLHS 2.4.8.15-16): ``#n=(form)`` defines label n and a later ``#n#``
stands for the same form, so a shared subproof is written and checked once.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat

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
    """The parenthesis depth after each token of a text of one form.

    Raises ``ParseError`` unless the tokens are exactly one form.
    """
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


def _define(n: int, tokens: list[str], i: int, labels: dict, starts: dict,
            proof: bool = True) -> None:
    """Open label n, defined by ``tokens[i]``, on the list that follows.

    Only proof forms other than ``assume`` take labels, so a label where no
    proof can stand (``proof`` false) is refused too.
    """
    if n in labels:
        raise ParseError(f"label #{n}= is defined twice")
    if tokens[i + 1:i + 2] != ["("]:
        raise ParseError(f"label #{n}= is not followed by a list")
    if not proof or tokens[i + 2] not in _LABELLED_FORMS:
        raise ParseError(f"label #{n}= is on {_show(tokens, i + 1, starts)}; "
                         "only proof forms other than assume take labels")
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


def _brief(x, limit: int = 40) -> str:
    """The printed text of ``x``, cut off after ``limit`` characters."""
    text = print_form(x)
    return text if len(text) <= limit else text[:limit] + " ..."


def read_sexpr(text: str):
    """Parse one toplevel form into nested lists of symbol strings.

    Every use of a label is the very list object it labels.  A label may
    only name a proof form, and only once; a use must come after the end
    of the form, so the result has no cycle.
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


def _write(x, memo: dict) -> str:
    """The text of ``x``, which ``memo`` (texts by ``id``) does not hold.

    One frame per level; callers look in the memo first, so a node already
    written costs no frame.  The memo lives for one top-level call, so each
    distinct node is written once.
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
_PROOF_TAGS = {(rule, fixed): tag
               for tag, (rule, fixed, *_) in _PROOF_FORMS.items()}
# Only these forms take labels: a label names a shared subproof.
_LABELLED_FORMS = {*_PROOF_FORMS, "axiom"}


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
_MEMO_LEVELS = 3  # an argument and the lists one and two levels below it
# The lists in these forms are arguments of a proof, axiom or assume form.
_RESTART = {"proof", "assumption", "axiom"}


class _Open:
    """A form that the reader has opened and not yet closed."""

    __slots__ = ("kind", "head", "cls", "kinds", "start", "key", "proof",
                 "label", "level", "args")

    def __init__(self, kind, head, row, start, key, proof, label, level):
        self.kind = kind  # its category
        self.head = head  # its head, two symbols for an axiom
        self.cls, self.kinds = row  # its row of _FORMS
        self.start = start  # index of its opening parenthesis
        self.key = key  # its memo key, if its value is to be kept
        self.proof = proof  # whether it stands where a proof stands
        self.label = label  # the label it defines, if any
        self.level = level  # memo level of the lists in it
        self.args: list = []


def _parse(text: str, category: str, th: TheoryId | None = None):
    """Build the value of ``category`` that ``text`` writes, in one pass.

    Proofs go through the kernel constructors; kernel errors propagate.  A
    form used through labels is built once.  Through labels a few lines of
    text can double a conclusion on each line, so a labelled text may not
    have a conclusion with more nodes, written out with its terms, than the
    square of its token count.  Tree-form text is not bounded.
    """
    tokens = _tokenize(text)
    depth = _depths(tokens)
    bound = len(tokens) ** 2 if "#" in text and any(
        t[-1] == "=" and _label(t) for t in tokens) else None
    sizes: dict = {}  # written-out size of each formula and term node met
    memo: dict = {}  # value by category and text, of the texts looked up
    labels: dict[int, Proof | None] = {}
    starts: dict[int, int] = {}  # index of each label's form, for quotes
    label = None  # the label defined just before the next list
    root = _Open(category, None, (None, (category,)), 0, None, False, None, 0)
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

    def proved(x, tag: str, label: int | None) -> Proof:
        # The proof of a form whose head is tag, checked and labelled.
        if type(x) is AssumptionVar:
            x = assume(x)
        elif not isinstance(x, Proof):
            x = axiom(x, th)
        # The conclusion of modus ponens or a projection is part of its
        # premise's, which has been measured.
        if bound is not None and x.rule not in _PART_OF_PREMISE and \
                (n := written_size(x.conclusion, sizes)) > bound:
            raise ParseError(f"the {tag} form's conclusion has {n} nodes "
                             f"written out, more than {bound}")
        if label is not None:
            labels[label] = x
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
                if f.key is not None:
                    memo[f.key] = x
            if f.proof:
                x = proved(x, tokens[f.start + 1], f.label)
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
                    label = None
                args.append(x)
                i += 1
                continue
            key = None
            if label is None and want != "proof" and f.level < _MEMO_LEVELS:
                end = depth.index(depth[start] - 1, i)
                key = want + " ".join(tokens[start:end + 1])
                if "#" in key:
                    key = None
                elif (x := memo.get(key)) is not None:
                    if at_proof:
                        x = proved(x, tokens[start + 1], None)
                    args.append(x)
                    i = end + 1
                    continue
            stack.append(_Open(want, head, row, start, key, at_proof, label,
                               0 if want in _RESTART else f.level + 1))
            label = None
        elif tok[0] == "#" and (m := _label(tok)):
            if m[1] == "=":
                label = m[0]
                _define(label, tokens, i - 1, labels, starts, want == "proof")
                continue
            x = _use(m[0], labels)
            if want != "proof":
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
    return root.args[0]


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

    stack = [fold(m, parts)]
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
