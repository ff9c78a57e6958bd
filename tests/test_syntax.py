"""Types, terms, substitution, alpha-equivalence, and the value classes."""

import copy
import pickle

import pytest

from minarith import (BOOL, BOT, NAT, TRUTH, All, App, Arrow,
                      AssumptionVar, Atom, BoolCases, BotPlus, ClassReport,
                      Const, GenConfig, Imp, Judgement, Lam, Lem, ListType,
                      NameSupply, ObjVar, Prod, SUCC, TT, TheoryId, Truth,
                      TypeVar, Var, ZERO, alpha_eq, app, arrow, assume,
                      free_term_vars, inspect, subst_term, type_of)
from minarith import sexpr

x_nat = ObjVar("x", 0, NAT)
y_nat = ObjVar("y", 1, NAT)
f_var = ObjVar("f", 2, Arrow(NAT, NAT))


class TestTyping:
    def test_tt_is_bool(self):
        assert type_of(TT) == BOOL

    def test_lambda_identity(self):
        assert type_of(Lam(x_nat, Var(x_nat))) == Arrow(NAT, NAT)

    def test_succ_zero(self):
        assert type_of(App(SUCC, ZERO)) == NAT

    def test_app_rejects_mismatch(self):
        with pytest.raises(TypeError):
            App(SUCC, TT)

    def test_app_rejects_non_arrow(self):
        with pytest.raises(TypeError):
            App(ZERO, ZERO)

    def test_constant_types(self):
        assert type_of(Const("cases", (NAT,))) == arrow(BOOL, NAT, NAT, NAT)
        assert type_of(Const("nil", (BOOL,))) == ListType(BOOL)
        assert type_of(Const("pair", (NAT, BOOL))) == \
            arrow(NAT, BOOL, Prod(NAT, BOOL))
        assert type_of(Const("recnat", (BOOL,))) == \
            arrow(NAT, BOOL, arrow(NAT, BOOL, BOOL), BOOL)

    def test_constant_arity_checked(self):
        with pytest.raises(TypeError):
            Const("nil")
        with pytest.raises(ValueError):
            Const("bogus")


class TestSubstitution:
    def test_direct_hit(self):
        assert subst_term(Var(x_nat), x_nat, ZERO) == ZERO

    def test_shadowed_binder(self):
        t = Lam(x_nat, Var(x_nat))
        assert subst_term(t, x_nat, ZERO) == t

    def test_capture_avoided(self):
        # (lam y. x)[x := y] must rename the binder
        t = Lam(y_nat, Var(x_nat))
        out = subst_term(t, x_nat, Var(y_nat), NameSupply(100))
        assert isinstance(out, Lam)
        assert out.bound != y_nat
        assert out.body == Var(y_nat)
        assert y_nat in free_term_vars(out)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            subst_term(Var(x_nat), x_nat, TT)

    def test_identity_substitution(self):
        t = App(SUCC, App(Var(f_var), Var(x_nat)))
        assert alpha_eq(subst_term(t, x_nat, Var(x_nat)), t)

    def test_type_preservation(self):
        t = Lam(y_nat, App(Var(f_var), Var(x_nat)))
        out = subst_term(t, x_nat, App(SUCC, ZERO), NameSupply(100))
        assert type_of(out) == type_of(t)


class TestAlphaEq:
    def test_renamed_identity(self):
        assert alpha_eq(Lam(x_nat, Var(x_nat)), Lam(y_nat, Var(y_nat)))

    def test_different_bodies(self):
        assert not alpha_eq(Lam(x_nat, Var(x_nat)), Lam(x_nat, ZERO))

    def test_reflexive_app(self):
        t = App(Var(f_var), Var(x_nat))
        assert alpha_eq(t, t)

    def test_free_variables_rigid(self):
        assert not alpha_eq(Var(x_nat), Var(y_nat))

    def test_binder_type_matters(self):
        b = ObjVar("x", 0, BOOL)
        assert not alpha_eq(Lam(x_nat, ZERO), Lam(b, ZERO))


class TestNameSupply:
    def test_draws_strictly_increase(self):
        sp = NameSupply()
        draws = [sp.draw() for _ in range(50)]
        assert draws == sorted(set(draws))

    def test_fresh_avoiding_skips(self):
        sp = NameSupply()
        taken = {ObjVar("x", i, NAT) for i in range(5)}
        got = sp.fresh_avoiding(x_nat, taken)
        assert got not in taken


def test_typevar_distinct_names():
    assert TypeVar("a") != TypeVar("b")
    assert TypeVar("a") == TypeVar("a")


class TestValueClasses:
    """The contract the value classes kept from frozen dataclasses."""

    def test_repr_is_the_dataclass_repr(self):
        x = ObjVar("x", 0, BOOL)
        assert repr(x) == "ObjVar(name='x', index=0, ty=BoolType())"
        assert repr(ObjVar("f", 1, arrow(NAT, ListType(BOOL),
                                          Prod(TypeVar("a"), NAT)))) == (
            "ObjVar(name='f', index=1, ty=Arrow(dom=NatType(), "
            "cod=Arrow(dom=ListType(elem=BoolType()), "
            "cod=Prod(left=TypeVar(name='a'), right=NatType()))))")
        assert repr(Const("nil", (NAT,))) == \
            "Const(tag='nil', params=(NatType(),))"
        assert repr(App(SUCC, ZERO)) == (
            "App(fun=Const(tag='succ', params=()), "
            "arg=Const(tag='zero', params=()))")
        assert repr(All(x, Imp(Atom(Var(x)), BOT))) == (
            "All(bound=ObjVar(name='x', index=0, ty=BoolType()), "
            "body=Imp(prem=Atom(term=Var(var=ObjVar(name='x', index=0, "
            "ty=BoolType()))), concl=Bot()))")
        assert repr(GenConfig(seed=5)) == (
            "GenConfig(seed=5, max_size=8, language=<TheoryId.MA: 'MA'>, "
            "atom_pool=(Const(tag='tt', params=()), "
            "Const(tag='ff', params=())))")
        assert repr(AssumptionVar("u", 3, TRUTH)) == (
            "AssumptionVar(name='u', index=3, "
            "formula=Atom(term=Const(tag='tt', params=())))")
        assert repr(BoolCases(x, Atom(Var(x)))) == (
            "BoolCases(var=ObjVar(name='x', index=0, ty=BoolType()), "
            "body=Atom(term=Var(var=ObjVar(name='x', index=0, "
            "ty=BoolType()))))")
        assert repr(Truth()) == "Truth()"

    @pytest.mark.parametrize("value, name", [
        (ObjVar("x", 0, NAT), "index"), (Arrow(NAT, BOOL), "dom"),
        (Const("nil", (NAT,)), "params"), (App(SUCC, ZERO), "fv"),
        (GenConfig(seed=1), "seed"), (NAT, "anything"),
        (AssumptionVar("u", 0, TRUTH), "formula"), (Lem(BOT), "formula"),
        (BotPlus(), "anything"),
        (Judgement(TheoryId.NA, frozenset(), TRUTH), "theory")])
    def test_fields_cannot_be_set_or_deleted(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert not hasattr(value, "__dict__")

    def test_equal_values_are_one_object(self):
        assert ObjVar("x", 0, NAT) is ObjVar("x", 0, NAT)
        assert Arrow(NAT, Arrow(BOOL, NAT)) is arrow(NAT, BOOL, NAT)
        assert ListType(Prod(NAT, BOOL)) is ListType(Prod(NAT, BOOL))
        assert GenConfig(3, max_size=4) is GenConfig(seed=3, max_size=4)
        assert ObjVar("x", 0, NAT) is not ObjVar("x", 1, NAT)
        u = AssumptionVar(name="u", index=0, formula=TRUTH)
        assert u is AssumptionVar("u", 0, TRUTH)
        assert BoolCases(ObjVar("b", 0, BOOL), TRUTH) is \
            BoolCases(var=ObjVar("b", 0, BOOL), body=TRUTH)
        assert inspect(assume(u)) is Judgement(
            theory=TheoryId.NA, conclusion=TRUTH,
            assumptions=frozenset({(u, TRUTH)}))

    @pytest.mark.parametrize("value", [
        ObjVar("x", 0, NAT), Arrow(NAT, ListType(TypeVar("a"))),
        Const("pair", (NAT, BOOL)), GenConfig(seed=2),
        AssumptionVar("u", 0, TRUTH), Lem(BOT), BotPlus(),
        Judgement(TheoryId.NA, frozenset(), TRUTH)])
    def test_copies_are_the_value(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value

    def test_defaults_and_keywords(self):
        assert Const(tag="tt") is Const("tt", ()) is TT
        assert GenConfig(seed=1).atom_pool == (TT, Const("ff"))

    @pytest.mark.parametrize("make", [
        lambda: ObjVar("x", 0), lambda: ObjVar("x", 0, NAT, 1),
        lambda: ObjVar("x", 0, ty=NAT, kind=1),
        lambda: ObjVar("x", 0, NAT, name="y"), lambda: GenConfig(),
        lambda: Arrow(NAT), lambda: Const(),
        lambda: AssumptionVar("u", 0),
        lambda: AssumptionVar("u", 0, TRUTH, formula=TRUTH),
        lambda: Truth(1), lambda: Lem(formula=TRUTH, body=BOT)])
    def test_missing_or_unknown_argument_raises(self, make):
        with pytest.raises(TypeError):
            make()

    def test_class_report_compares_by_value(self):
        a = ClassReport(True, True, False, True, False, True)
        b = ClassReport(True, True, False, True, False, True, {})
        assert a == b and a is not b
        assert a != ClassReport(True, True, True, True, False, True)
        assert repr(a) == ("ClassReport(in_Q=True, in_QF=True, in_D=False, "
                           "in_G=True, in_R=False, in_I=True, "
                           "certificates={})")
        a.certificates["x"] = None
        assert a != b
        with pytest.raises(TypeError):
            hash(a)


# Each head's class and argument kinds, pinned from the dataclass version.
READERS = {
    ("type", "bool"): ("BoolType", ()),
    ("type", "nat"): ("NatType", ()),
    ("type", "tvar"): ("TypeVar", ("str",)),
    ("type", "list"): ("ListType", ("type",)),
    ("type", "arrow"): ("Arrow", ("type", "type")),
    ("type", "prod"): ("Prod", ("type", "type")),
    ("variable", "var"): ("ObjVar", ("str", "int", "type")),
    ("term", "app"): ("App", ("term", "term")),
    ("term", "lam"): ("Lam", ("variable", "term")),
    ("formula", "bot"): ("Bot", ()),
    ("formula", "atom"): ("Atom", ("term",)),
    ("formula", "imp"): ("Imp", ("formula", "formula")),
    ("formula", "and"): ("And", ("formula", "formula")),
    ("formula", "or"): ("Or", ("formula", "formula")),
    ("formula", "all"): ("All", ("variable", "formula")),
    ("formula", "ex"): ("Ex", ("variable", "formula")),
    ("axiom", "axiom truth"): ("Truth", ()),
    ("axiom", "axiom boolcases"): ("BoolCases", ("variable", "formula")),
    ("axiom", "axiom indnat"): ("IndNat", ("variable", "formula")),
    ("axiom", "axiom indlist"): ("IndList",
                                 ("variable", "variable", "formula")),
    ("axiom", "axiom botplus"): ("BotPlus", ()),
    ("axiom", "axiom or-intro-l"): ("OrIntroL", ("formula", "formula")),
    ("axiom", "axiom or-intro-r"): ("OrIntroR", ("formula", "formula")),
    ("axiom", "axiom or-elim"): ("OrElim",
                                 ("formula", "formula", "formula")),
    ("axiom", "axiom ex-intro"): ("ExIntro",
                                  ("formula", "variable", "term")),
    ("axiom", "axiom ex-elim"): ("ExElim",
                                 ("formula", "variable", "formula")),
    ("axiom", "axiom lem"): ("Lem", ("formula",)),
    ("assumption", "assume"): ("AssumptionVar", ("str", "int", "formula")),
    ("term", "var"): ("Var", ("str", "int", "type")),
    ("term", "pair"): ("Const", ("type", "type")),
    ("term", "tt"): ("Const", ()),
    ("term", "ff"): ("Const", ()),
    ("term", "zero"): ("Const", ()),
    ("term", "succ"): ("Const", ()),
    ("term", "nil"): ("Const", ("type",)),
    ("term", "cons"): ("Const", ("type",)),
    ("term", "split"): ("Const", ("type", "type", "type")),
    ("term", "cases"): ("Const", ("type",)),
    ("term", "recnat"): ("Const", ("type",)),
    ("term", "reclist"): ("Const", ("type", "type")),
}


def test_reader_table_is_unchanged():
    assert {key: (cls.__name__, kinds)
            for key, (cls, kinds) in sexpr._READERS.items()} == READERS
