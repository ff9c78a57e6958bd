"""Results kept on interned nodes: A^F, instances, axiom schemas, flags.

Each kept result is checked against oracles that share no code with it,
on nodes that have none kept yet and again on nodes that have, and the
facts are checked to keep no node alive.
"""

import gc
import itertools
import random

from minarith import (FALSITY, ClassId, GenConfig, NameSupply, TheoryId,
                      alpha_eq, certify, classify, gen_formula, recheck,
                      subst_bot_falsity)
from minarith import formula, kernel, syntax
from minarith.formula import All, And, Atom, Bot, Imp, imp, instance, subst
from minarith.kernel import BoolCases, IndNat, axiom_schema
from minarith.syntax import (BOOL, FF, NAT, SUCC, TT, ZERO, App, Const, Lam,
                             ObjVar, Var, app)

from test_classes import _random_ma, _ref_flags
from test_formula import naive_subst

CASES = Const("cases", (BOOL,))


def plain_subst(a, sigma, bot=None):
    """Tree substitution that renames no binder: exact when nothing that
    it inserts has a free variable that a binder of ``a`` would capture."""
    match a:
        case Var(v):
            return sigma.get(v, a)
        case Const():
            return a
        case Bot():
            return a if bot is None else bot
        case Atom(t):
            return Atom(plain_subst(t, sigma, bot))
        case App(l, r) | Imp(l, r) | And(l, r):
            return type(a)(plain_subst(l, sigma, bot),
                           plain_subst(r, sigma, bot))
        case Lam(x, b) | All(x, b):
            inner = {y: t for y, t in sigma.items() if y != x}
            return type(a)(x, plain_subst(b, inner, bot))
    raise ValueError(f"unexpected node {a!r}")


def universals(a):
    match a:
        case Imp(l, r) | And(l, r):
            yield from universals(l)
            yield from universals(r)
        case All(_, b):
            yield a
            yield from universals(b)


def terms_at(x):
    """Closed terms of the type of ``x``, ``x`` itself, and a term whose
    free variable binders of the random formulas capture."""
    other = Var(ObjVar(x.name, 1 - x.index, x.ty))
    if x.ty == BOOL:
        return (TT, FF, app(CASES, FF, TT, FF), Var(x), other), 3
    return (ZERO, App(SUCC, ZERO), Var(x), other), 2


def expected_facts(a, fresh):
    """Each fact of ``a`` and of its universal subformulas but the flags, by
    the oracles: (the call that reads it, its value, whether computing it
    renames a binder)."""
    af = plain_subst(a, {}, FALSITY)
    assert alpha_eq(af, naive_subst(a, {}, FALSITY, fresh))
    out = [(lambda: subst_bot_falsity(a), af, False)]
    for q in universals(a):
        x, b = q.bound, q.body
        ts, closed = terms_at(x)
        for i, t in enumerate(ts):
            # Where a binder is renamed, the fresh computation is subst with
            # a supply of its own; naive_subst fixes it up to renaming.
            want = subst(b, {x: t})
            assert alpha_eq(want, naive_subst(b, {x: t}, None, fresh))
            plain = plain_subst(b, {x: t})
            if i < closed or t is Var(x):
                assert want is plain
            out.append((lambda q=q, t=t: instance(q, t), want,
                        want is not plain))
        if x.ty == BOOL:
            ax = BoolCases(x, b)
            want = All(x, imp(plain_subst(b, {x: TT}),
                              plain_subst(b, {x: FF}), b))
        else:
            ax = IndNat(x, b)
            succ = plain_subst(b, {x: App(SUCC, Var(x))})
            want = All(x, imp(plain_subst(b, {x: ZERO}),
                              All(x, Imp(b, succ)), b))
        out.append((lambda ax=ax: axiom_schema(ax), want, False))
    return out


class TestKeptFactsAgreeWithFreshComputation:
    def test_random_ma_formulas(self, monkeypatch):
        draws = 0
        draw = NameSupply.draw

        def counted(supply):
            nonlocal draws
            draws += 1
            return draw(supply)

        monkeypatch.setattr(NameSupply, "draw", counted)
        rng = random.Random(14)
        fresh = itertools.count(10_000)
        cold = renamed = 0
        for _ in range(2000):
            a = _random_ma(rng, rng.randint(1, 24))
            cold += getattr(a, "_flags", None) is None
            facts = expected_facts(a, fresh)
            renamed += sum(renames for _, _, renames in facts)
            flags = None
            for warm in (False, True):
                for read, want, renames in facts:
                    before = draws
                    assert read() is want
                    # a renaming fact is kept too: read warm, it draws nothing
                    assert renames and not warm or draws == before
                # _ref_flags reads A^F, so it runs after A^F was read cold
                flags = flags or _ref_flags(a, {})
                report = classify(a)
                assert tuple(map(report.flag, ClassId)) == flags
        assert cold >= 1000
        assert renamed >= 50  # the facts that rename a binder are read too


def test_certify_and_recheck_keep_no_node_alive():
    formulas = [gen_formula(GenConfig(seed=s, max_size=12,
                                      language=TheoryId.MA))
                for s in range(300)]
    gc.collect()
    before = syntax.live_nodes()
    for a in formulas:
        for c in ClassId:
            m = certify(a, c)
            if m is not None:
                recheck(m)
    del a, m
    gc.collect()
    # The formulas are alive, so this counts what their kept facts hold.
    assert syntax.live_nodes() == before
    # A freed fact is taken off its node, so it costs the node nothing.
    stack = list(formulas)
    while stack:
        n = stack.pop()
        r = getattr(n, "_af", None)
        assert r is None or r() is not None
        assert all(r() is not None
                   for r in (getattr(n, "_inst", None) or {}).values())
        stack += [c for c in n.children if isinstance(c, formula.Formula)]


def test_recheck_of_certificates_does_not_substitute_again(monkeypatch):
    certs = [m for s in range(100) for c in ClassId
             if (m := certify(gen_formula(GenConfig(
                 seed=s, max_size=12, language=TheoryId.MA)), c)) is not None]
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return subst(*args, **kwargs)

    monkeypatch.setattr(formula, "subst", counted)
    monkeypatch.setattr(kernel, "subst", counted)
    for m in certs:
        assert recheck(m).conclusion is m.conclusion
    # Before the facts were kept, this recheck made 3,902 calls.
    assert len(certs) == 263 and calls <= 0.3 * 3902
