"""Shared fixtures and helpers for the test suite."""

import json
import re
from pathlib import Path

import pytest

from minarith import (All, And, App, Arrow, Atom, BOOL, BOT, Bot, Const, Ex,
                      Imp, Lam, NAT, NameSupply, ObjVar, Or, TheoryId, Var,
                      all_elim, all_intro, assume, fresh_assumption, imp_elim,
                      imp_intro, imp_intros, neg, parse_proof,
                      subst_bot_falsity, theory_leq)
from minarith.errors import TheoryError

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_manifest():
    entries = json.loads((FIXTURE_DIR / "fixtures.json").read_text())
    for e in entries:
        e["text"] = (FIXTURE_DIR / e["file"]).read_text()
    return entries


# The heads of the proof forms, whose labels name shared subproofs.
PROOF_HEADS = {"pair-pf", "proj0", "proj1", "app-pf", "lam-pf", "inst", "gen",
               "axiom"}


def unlabel(text: str) -> str:
    """Printed proof text as it was before labels went on other forms.

    Every label on a form that is not a proof form (an assumption, formula,
    term, variable or type) is written out at each of its uses, and the
    labels left, on proof forms, are numbered from 0 again in print order.
    This shares no code with ``minarith.sexpr``.
    """
    written = {}  # label of a form that is not a proof form: its text
    numbers = {}  # label of a proof form: its new number
    stack = [[None, []]]  # for each open list: its label and its parts
    label = None
    for tok in re.findall(r"[()]|[^\s()]+", text):
        parts = stack[-1][1]
        if tok == "(":
            stack.append([label, ["("]])
            label = None
        elif tok == ")":
            n, parts = stack.pop()
            form = "(" + " ".join(parts[1:]) + ")"
            if n in numbers:
                form = f"#{numbers[n]}={form}"
            elif n is not None:
                written[n] = form
            stack[-1][1].append(form)
        elif m := re.fullmatch(r"#(\d+)([=#])", tok):
            n = int(m[1])
            if m[2] == "=":
                label = n
            else:
                parts.append(written.get(n) or f"#{numbers[n]}#")
        else:
            if parts == ["("] and stack[-1][0] is not None \
                    and tok in PROOF_HEADS:
                numbers[stack[-1][0]] = len(numbers)
            parts.append(tok)
    return stack[0][1][0]


def nameless(a, bound=()):
    """A form of a formula or term without bound variable names: two
    formulas, or two terms, are alpha-equal exactly when their forms are
    equal.  A bound variable is written as the number of binders between it
    and its own (de Bruijn).  This shares no code with ``minarith.formula``.
    """
    match a:
        case Var(v):
            return ("bound", bound.index(v)) if v in bound else ("free", v)
        case Const() | Bot():
            return a
        case Atom(t):
            return ("atom", nameless(t, bound))
        case App(l, r) | Imp(l, r) | And(l, r) | Or(l, r):
            return (type(a).__name__, nameless(l, bound),
                    nameless(r, bound))
        case Lam(x, b) | All(x, b) | Ex(x, b):
            return (type(a).__name__, x.ty, nameless(b, (x, *bound)))
    raise ValueError(f"unexpected node {a!r}")


def check_fixture_proof(text: str, th: TheoryId):
    """Parse and check a proof the way the CLI check command does."""
    proof = parse_proof(text, th)
    if not theory_leq(proof.min_theory, th):
        raise TheoryError(
            f"proof needs {proof.min_theory.value}, requested {th.value}")
    return proof


def remark_st_formula():
    """The S -> T boundary formula of the strict-containment fixture.

    S = forall x (not not A -> A) and T = (forall x A -> bot) -> bot with
    A = atom(p x) for a nat variable x, so that S -> T escapes the definite
    class while (S -> T)^F -> (S -> T) is still derivable.
    """
    p = ObjVar("p", 0, Arrow(NAT, BOOL))
    x = ObjVar("x", 1, NAT)
    a = Atom(App(Var(p), Var(x)))
    s = All(x, Imp(neg(neg(a)), a))
    t = Imp(Imp(All(x, a), BOT), BOT)
    return Imp(s, t), x, a


def remark_st_proof():
    """Hand-built MA proof of (S -> T)^F -> (S -> T)."""
    st, x, a = remark_st_formula()
    s_part, t_part = st.prem, st.concl
    sp = NameSupply(100)
    stf = subst_bot_falsity(st)
    h = fresh_assumption("h", stf, sp)
    s = fresh_assumption("s", s_part, sp)
    w = fresh_assumption("w", t_part.prem, sp)
    na = fresh_assumption("na", neg(a), sp)
    u = fresh_assumption("u", All(x, a), sp)
    refute = imp_intro(u, imp_elim(assume(na),
                                   all_elim(assume(u), Var(x))))
    nn_a = imp_intro(na, imp_elim(imp_elim(assume(h), assume(s)), refute))
    get_a = imp_elim(all_elim(assume(s), Var(x)), nn_a)
    proof = imp_intros(imp_elim(assume(w), all_intro(x, get_a)), h, s, w)
    return proof, st


@pytest.fixture
def supply():
    return NameSupply(10_000)
