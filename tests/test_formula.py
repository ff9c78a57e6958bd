"""Formula language membership, substitutions, and the negative translation."""

import copy
import gc
import itertools
import pickle
import random
import sys
import time

import pytest

from minarith import (BOOL, BOT, FALSITY, FF, NAT, TRUTH, All, And, App,
                      Atom, Bot, Const, Ex, GenConfig, Imp, Lam, NameSupply,
                      ObjVar, Or, TheoryId, TT, Var, alpha_eq,
                      alpha_eq_formula, formula_free_vars, formula_size,
                      gen_formula, gg_translate, imp, in_language,
                      min_language, neg, print_formula, subst, subst_bot,
                      subst_bot_falsity, subst_formula_var, theory_join,
                      theory_leq, weak_and, weak_exists, weak_or)
from minarith import syntax
from minarith.errors import LanguageError, TheoryError
from minarith.formula import instance

from conftest import nameless

x_bool = ObjVar("x", 0, BOOL)
n_nat = ObjVar("n", 1, NAT)


class TestLanguage:
    def test_bot_not_in_na(self):
        assert not in_language(BOT, TheoryId.NA)

    def test_bot_in_ma(self):
        assert in_language(BOT, TheoryId.MA)

    def test_ex_not_in_ma(self):
        assert not in_language(Ex(x_bool, TRUTH), TheoryId.MA)

    def test_or_only_ha_pa(self):
        a = Or(TRUTH, FALSITY)
        assert not in_language(a, TheoryId.NA)
        assert in_language(a, TheoryId.HA)
        assert in_language(a, TheoryId.PA)

    def test_min_language(self):
        assert min_language(Imp(TRUTH, FALSITY)) == TheoryId.NA
        assert min_language(BOT) == TheoryId.MA
        assert min_language(Ex(n_nat, TRUTH)) == TheoryId.HA
        with pytest.raises(LanguageError):
            min_language(And(BOT, Or(TRUTH, TRUTH)))

    def test_theory_order(self):
        assert theory_leq(TheoryId.NA, TheoryId.MA)
        assert theory_leq(TheoryId.HA, TheoryId.PA)
        assert not theory_leq(TheoryId.MA, TheoryId.HA)
        assert theory_join(TheoryId.NA, TheoryId.HA) == TheoryId.HA
        with pytest.raises(TheoryError):
            theory_join(TheoryId.MA, TheoryId.HA)

    def test_atom_payload_must_be_bool(self):
        with pytest.raises(TypeError):
            Atom(Const("zero"))


class TestSubstFormulaVar:
    def test_bound_occurrence_shielded(self):
        a = All(x_bool, Atom(Var(x_bool)))
        assert subst_formula_var(a, x_bool, TT) == a

    def test_direct_hit(self):
        assert subst_formula_var(Atom(Var(x_bool)), x_bool, TT) == Atom(TT)

    def test_capture_avoided(self):
        y = ObjVar("y", 5, BOOL)
        a = All(y, Atom(Var(x_bool)))
        out = subst_formula_var(a, x_bool, Var(y), NameSupply(100))
        assert isinstance(out, All)
        assert out.bound != y
        assert out.body == Atom(Var(y))
        assert y in formula_free_vars(out)


class TestSubstBot:
    def test_bot_becomes_s(self):
        assert subst_bot(BOT, TRUTH) == TRUTH

    def test_atom_unchanged(self):
        assert subst_bot(Atom(TT), FALSITY) == Atom(TT)

    def test_binder_renamed_against_capture(self):
        s = Atom(Var(x_bool))
        a = All(x_bool, BOT)
        out = subst_bot(a, s, NameSupply(100))
        assert isinstance(out, All)
        assert out.bound != x_bool
        assert out.body == s
        assert x_bool in formula_free_vars(out)

    def test_rejects_or_exists(self):
        with pytest.raises(LanguageError):
            subst_bot(Or(TRUTH, TRUTH), FALSITY)

    def test_na_idempotence(self):
        for seed in range(100):
            a = gen_formula(GenConfig(seed=seed, max_size=9,
                                      language=TheoryId.NA))
            assert subst_bot(a, Imp(TRUTH, FALSITY)) == a

    def test_falsity_instance_is_bot_free(self):
        for seed in range(100):
            a = gen_formula(GenConfig(seed=seed, max_size=9,
                                      language=TheoryId.MA))
            af = subst_bot_falsity(a)
            assert min_language(af) == TheoryId.NA

    def test_free_variable_bound(self):
        s = Atom(Var(x_bool))
        a = All(n_nat, Imp(BOT, Atom(TT)))
        out = subst_bot(a, s, NameSupply(100))
        assert formula_free_vars(out) <= formula_free_vars(a) | {x_bool}


class TestGGTranslate:
    def test_falsity_fixed(self):
        assert gg_translate(FALSITY) == FALSITY

    def test_atom_double_negated(self):
        assert gg_translate(Atom(TT)) == neg(neg(Atom(TT)))

    def test_exists_clause(self):
        a = Ex(x_bool, Atom(Var(x_bool)))
        want = neg(All(x_bool, neg(neg(neg(Atom(Var(x_bool)))))))
        assert gg_translate(a) == want

    def test_or_clause(self):
        a = Or(FALSITY, FALSITY)
        assert gg_translate(a) == neg(And(neg(FALSITY), neg(FALSITY)))

    def test_rejects_bot(self):
        with pytest.raises(LanguageError):
            gg_translate(BOT)

    def test_always_lands_in_na(self):
        for seed in range(300):
            a = gen_formula(GenConfig(seed=seed, max_size=10,
                                      language=TheoryId.HA))
            assert in_language(gg_translate(a), TheoryId.NA)


class TestWeakConnectives:
    def test_weak_or(self):
        assert weak_or(TRUTH, FALSITY) == neg(And(neg(TRUTH), neg(FALSITY)))

    def test_weak_exists(self):
        a = Atom(Var(x_bool))
        assert weak_exists(x_bool, a) == neg(All(x_bool, neg(a)))

    def test_weak_and(self):
        assert weak_and(TRUTH, FALSITY) == neg(Imp(TRUTH, neg(FALSITY)))


class TestAlphaEquality:
    def test_renamed_quantifier(self):
        y = ObjVar("y", 7, BOOL)
        assert alpha_eq_formula(All(x_bool, Atom(Var(x_bool))),
                                All(y, Atom(Var(y))))

    def test_connective_rigid(self):
        assert not alpha_eq_formula(Imp(TRUTH, TRUTH), And(TRUTH, TRUTH))


def test_formula_size():
    assert formula_size(BOT) == 1
    assert formula_size(imp(TRUTH, TRUTH, TRUTH)) == 5
    assert formula_size(All(n_nat, And(TRUTH, FALSITY))) == 4


def test_formula_walks_are_not_limited_by_depth():
    # leaf -> (leaf -> ... bottom), 100k deep; interning makes ``is``
    # compare the expected chain in O(1).
    def chain(leaf, bottom=None):
        a = leaf if bottom is None else bottom
        for _ in range(100_000):
            a = Imp(leaf, a)
        return a

    assert sys.getrecursionlimit() < 100_000
    assert formula_size(chain(TRUTH)) == 200_001
    assert gg_translate(chain(TRUTH)) is chain(neg(neg(TRUTH)))
    assert subst_bot_falsity(chain(BOT)) is chain(FALSITY)
    x, y = x_bool, ObjVar("y", 0, BOOL)
    over_x = All(x, chain(TRUTH, Atom(Var(x))))
    assert subst(over_x.body, {x: TT}) is chain(TRUTH)
    assert instance(over_x, FF) is chain(TRUTH, FALSITY)
    assert alpha_eq(over_x, All(y, chain(TRUTH, Atom(Var(y)))))
    assert not alpha_eq(over_x, All(y, over_x.body))  # x is left unbound
    not_x = Atom(App(App(App(CASES, Var(x)), FF), TT))
    assert not alpha_eq(over_x, All(x, chain(TRUTH, not_x)))


def test_formula_walks_visit_a_shared_node_once():
    def ladder(leaf):  # 40 levels of And(a, a): 2**41 - 1 nodes as a tree
        for _ in range(40):
            leaf = And(leaf, leaf)
        return leaf

    start = time.process_time()
    assert formula_size(ladder(TRUTH)) == 2 ** 41 - 1
    assert gg_translate(ladder(TRUTH)) is ladder(neg(neg(TRUTH)))
    assert time.process_time() - start < 1.0


# ---------------------------------------------------------------------------
# Oracles for the per-node facts and for ``subst``, sharing no code with them

POOL = [ObjVar(name, 0, BOOL) for name in "xyz"]
CASES = Const("cases", (BOOL,))


def random_term(rng, size):
    """A boolean term over the variables of POOL, lambdas included."""
    if size <= 1:
        return rng.choice([TT, FF] + [Var(v) for v in POOL])
    if rng.random() < 0.3:
        x = rng.choice(POOL)
        return App(Lam(x, random_term(rng, size - 2)), random_term(rng, 1))
    parts = [random_term(rng, size // 3) for _ in range(3)]
    return App(App(App(CASES, parts[0]), parts[1]), parts[2])


def random_formula(rng, size):
    """Any connective, binders over POOL, so that capture is frequent."""
    if size <= 1:
        return BOT if rng.random() < 0.2 else Atom(random_term(rng, 3))
    kind = rng.choice([Imp, And, Or, All, Ex])
    if kind in (All, Ex):
        return kind(rng.choice(POOL), random_formula(rng, size - 1))
    return kind(random_formula(rng, size // 2), random_formula(rng, size // 2))


def naive_kinds(a):
    """The node classes occurring in ``a``, terms left out."""
    match a:
        case Imp(l, r) | And(l, r) | Or(l, r):
            return {type(a)} | naive_kinds(l) | naive_kinds(r)
        case All(_, b) | Ex(_, b):
            return {type(a)} | naive_kinds(b)
    return {type(a)}


def naive_fv(a):
    match a:
        case Var(v):
            return {v}
        case Const() | Bot():
            return set()
        case Atom(t):
            return naive_fv(t)
        case App(l, r) | Imp(l, r) | And(l, r) | Or(l, r):
            return naive_fv(l) | naive_fv(r)
        case Lam(x, b) | All(x, b) | Ex(x, b):
            return naive_fv(b) - {x}


def naive_subst(a, sigma, bot, fresh):
    """Tree substitution that renames every binder to a fresh variable."""
    match a:
        case Var(v):
            return sigma.get(v, a)
        case Const():
            return a
        case Bot():
            return a if bot is None else bot
        case Atom(t):
            return Atom(naive_subst(t, sigma, bot, fresh))
        case App(l, r) | Imp(l, r) | And(l, r) | Or(l, r):
            return type(a)(naive_subst(l, sigma, bot, fresh),
                           naive_subst(r, sigma, bot, fresh))
        case Lam(x, b) | All(x, b) | Ex(x, b):
            y = ObjVar(x.name, next(fresh), x.ty)
            inner = {**sigma, x: Var(y)}
            return type(a)(y, naive_subst(b, inner, bot, fresh))


class TestNodeFacts:
    def test_facts_agree_with_recursion(self):
        rng = random.Random(1)
        for _ in range(300):
            a = random_formula(rng, rng.randint(1, 14))
            kinds = naive_kinds(a)
            assert a.fv == naive_fv(a)
            assert a.has_bot == (Bot in kinds)
            assert a.has_strong == bool(kinds & {Or, Ex})

    def test_facts_left_out_of_eq_hash_repr(self):
        a = All(POOL[0], Imp(Atom(Var(POOL[0])), BOT))
        assert "fv" not in repr(a) and "has_bot" not in repr(a)
        b = All(POOL[0], Imp(Atom(Var(POOL[0])), BOT))
        assert a == b and hash(a) == hash(b) and a is b


def imp_chain(n: int, atom: Atom = TRUTH) -> Imp:
    """Right-nested implication ``atom -> ... -> atom`` of ``n`` atoms."""
    a = atom
    for _ in range(n - 1):
        a = Imp(atom, a)
    return a


class TestInterning:
    def test_default_arguments_normalised(self):
        assert Const("tt") is Const("tt", ()) is Const(tag="tt") is TT

    def test_deep_chain_is_one_object_hashes_and_frees(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        a, b = imp_chain(100_000), imp_chain(100_000)
        assert a is b and a == b
        assert {a: 1}[b] == 1
        del a, b
        assert unraisable == []

    def test_copies_are_the_node(self):
        x = Var(POOL[0])
        a = All(POOL[0], Imp(Atom(x), Atom(App(App(App(CASES, x), TT), FF))))
        for f in (copy.copy, copy.deepcopy,
                  lambda a: pickle.loads(pickle.dumps(a))):
            assert f(a) is a

    def test_table_is_weak(self):
        before = syntax.live_nodes()
        a = imp_chain(10_001, FALSITY)
        assert syntax.live_nodes() >= before + 10_000
        del a
        assert syntax.live_nodes() == before

    def test_renamed_twins_stay_distinct(self):
        x, y = ObjVar("x", 0, BOOL), ObjVar("y", 0, BOOL)
        a = All(x, Imp(Atom(Var(x)), BOT))
        b = All(y, Imp(Atom(Var(y)), BOT))
        assert a is not b and a != b and alpha_eq(a, b)
        assert print_formula(a) == \
            "(all (var x 0 (bool)) (imp (atom (var x 0 (bool))) (bot)))"
        assert print_formula(b) == \
            "(all (var y 0 (bool)) (imp (atom (var y 0 (bool))) (bot)))"


def renamed_binders(a, rng, env=None):
    """``a`` with the variable of each binder, and the occurrences that it
    binds, replaced by a random one of the same type.  The new variable may
    capture an occurrence, and the copy is then not alpha-equal to ``a``."""
    env = env or {}
    match a:
        case Var(v):
            return Var(env.get(v, v))
        case Const() | Bot():
            return a
        case Atom(t):
            return Atom(renamed_binders(t, rng, env))
        case App(l, r) | Imp(l, r) | And(l, r) | Or(l, r):
            return type(a)(renamed_binders(l, rng, env),
                           renamed_binders(r, rng, env))
        case Lam(x, b) | All(x, b) | Ex(x, b):
            y = ObjVar(rng.choice("xy"), rng.randrange(3), x.ty)
            return type(a)(y, renamed_binders(b, rng, {**env, x: y}))


def test_alpha_eq_agrees_with_nameless_forms():
    rng = random.Random(4)
    formulas = [gen_formula(GenConfig(seed=seed, max_size=12, language=th))
                for th in (TheoryId.MA, TheoryId.HA) for seed in range(1000)]
    terms = [random_term(rng, rng.randint(1, 12)) for _ in range(600)]
    pairs = []
    for items in (formulas, terms):
        for a, other in zip(items, items[1:]):
            copy = renamed_binders(a, rng)
            pairs += [(a, copy), (copy, renamed_binders(a, rng)), (a, other)]
    verdicts = []
    for a, b in pairs:
        want = nameless(a) == nameless(b)
        assert alpha_eq(a, b) is alpha_eq(b, a) is want, (a, b)
        verdicts.append(want and a is not b)
    assert len(pairs) >= 5_000
    assert 1_000 < sum(verdicts) < len(pairs) - 1_000


class TestSubstOracle:
    def test_agrees_with_naive_substitution(self):
        rng = random.Random(2)
        fresh = itertools.count(1000)
        captures = 0
        for _ in range(400):
            a = random_formula(rng, rng.randint(1, 14))
            keys = rng.sample(POOL, rng.randint(0, 2))
            sigma = {v: random_term(rng, 4) for v in keys}
            bot = rng.choice([None, BOT, Atom(Var(rng.choice(POOL))),
                              random_formula(rng, 3)])
            supply = NameSupply(500)
            got = subst(a, sigma, bot, supply)
            want = naive_subst(a, sigma, bot, fresh)
            assert alpha_eq_formula(got, want)
            assert got.fv == naive_fv(want)
            captures += supply.next_index > 500  # a binder was renamed
        assert captures > 20

    def test_terms_agree_with_naive_substitution(self):
        rng = random.Random(3)
        fresh = itertools.count(1000)
        for _ in range(300):
            t = random_term(rng, rng.randint(1, 12))
            sigma = {v: random_term(rng, 4) for v in rng.sample(POOL, 2)}
            got = subst(t, sigma, supply=NameSupply(500))
            assert alpha_eq(got, naive_subst(t, sigma, None, fresh))

    def test_untouched_node_comes_back_as_is(self):
        x, y, _ = POOL
        closed = All(y, Imp(Atom(Var(y)), BOT))
        a = And(closed, Atom(Var(x)))
        out = subst(a, {x: TT})
        assert out.left is closed
        assert subst(a, {y: TT}) is a
        assert subst(closed, {}, FALSITY).body.concl is FALSITY

    def test_shared_node_rebuilt_once(self):
        # 40 levels of And(a, Imp(a, bot)): 2^40 atoms written out, two new
        # nodes a level in memory.
        x = POOL[0]
        a = Atom(Var(x))
        for _ in range(40):
            a = And(a, Imp(a, BOT))
        out = subst(a, {x: TT}, FALSITY)
        for _ in range(40):
            assert out.left is out.right.prem
            assert out.right.concl is FALSITY
            out = out.left
        assert out == Atom(TT)

    def test_leaves_no_cyclic_garbage(self):
        # Every node a substitution or a comparison makes is freed by
        # reference counting, without waiting for a collection.
        x, y, z = POOL
        a = All(y, Imp(Atom(Var(x)), Imp(BOT, Atom(Var(y)))))
        twin = All(z, Imp(Atom(Var(x)), Imp(BOT, Atom(Var(z)))))
        gc.collect()
        gc.disable()
        try:
            assert subst_formula_var(a, x, Var(y)) is not a
            # two nested binders renamed, each by a call of its own
            both = And(Atom(Var(x)), Atom(Var(y)))
            assert subst(All(x, a), {}, both).body.bound is not y
            assert subst_bot_falsity(a) is not a
            assert alpha_eq(a, All(x, a.body)) is False
            assert alpha_eq(a, twin) is True
            assert gc.collect() == 0
        finally:
            gc.enable()
