"""Kernel constructors, axiom schemes, and the fixture corpus."""

import pytest

from minarith import (BOT, AssumptionVar, BoolCases, BotPlus, Imp, Lem,
                      NameSupply, ObjVar, OrIntroL, Proof, TheoryId, TRUTH,
                      Truth, alpha_eq_formula, all_elim, and_intro, assume,
                      axiom, axiom_schema, build, fresh_assumption, imp_elim,
                      imp_intro, inspect, parse_formula, recheck)
from minarith.errors import (EigenvariableError, ShapeError, TheoryError)
from minarith.formula import FALSITY, Atom, BOOL
from minarith.syntax import Var

from conftest import check_fixture_proof, load_manifest

MANIFEST = load_manifest()


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[f"{e['file']}:{e['theory']}" for e in MANIFEST])
def test_fixture(entry):
    th = TheoryId(entry["theory"])
    if entry["expect"] == "ok":
        proof = check_fixture_proof(entry["text"], th)
        want = parse_formula(entry["conclusion"])
        assert alpha_eq_formula(proof.conclusion, want)
        rebuilt = recheck(proof)
        assert alpha_eq_formula(rebuilt.conclusion, proof.conclusion)
    else:
        expected = {
            "theory-error": TheoryError,
            "shape-error": ShapeError,
            "eigenvariable-error": EigenvariableError,
            "type-error": TypeError,
        }[entry["expect"]]
        with pytest.raises(expected):
            check_fixture_proof(entry["text"], th)


class TestConstruction:
    def test_proofs_not_directly_constructible(self):
        with pytest.raises(TypeError):
            Proof(object(), "assume", (), (), TRUTH, frozenset(),
                  TheoryId.NA)

    def test_truth_axiom(self):
        p = axiom(Truth(), TheoryId.NA)
        j = inspect(p)
        assert j.conclusion == TRUTH
        assert not j.assumptions
        assert j.theory == TheoryId.NA

    def test_botplus_refused_outside_ma(self):
        for th in (TheoryId.NA, TheoryId.HA, TheoryId.PA):
            with pytest.raises(TheoryError):
                axiom(BotPlus(), th)

    def test_lem_only_pa(self):
        with pytest.raises(TheoryError):
            axiom(Lem(TRUTH), TheoryId.HA)
        p = axiom(Lem(TRUTH), TheoryId.PA)
        assert p.min_theory == TheoryId.PA

    def test_or_axiom_min_theory(self):
        p = axiom(OrIntroL(TRUTH, FALSITY), TheoryId.PA)
        assert p.min_theory == TheoryId.HA

    def test_assume_bot_forces_ma(self):
        u = fresh_assumption("u", BOT, NameSupply())
        assert assume(u).min_theory == TheoryId.MA

    def test_discharge_removes_assumption(self):
        sp = NameSupply()
        u = fresh_assumption("u", TRUTH, sp)
        p = imp_intro(u, assume(u))
        assert not p.free_assumptions
        assert p.conclusion == Imp(TRUTH, TRUTH)

    def test_discharge_of_absent_assumption_keeps_the_set(self):
        sp = NameSupply()
        u = fresh_assumption("u", TRUTH, sp)
        v = fresh_assumption("v", FALSITY, sp)
        m = assume(u)
        assert imp_intro(v, m).free_assumptions is m.free_assumptions

    def test_merge_keeps_a_side_containing_the_other(self):
        sp = NameSupply()
        u = fresh_assumption("u", TRUTH, sp)
        v = fresh_assumption("v", FALSITY, sp)
        m = and_intro(assume(u), assume(v))
        for n in (assume(u), axiom(Truth(), TheoryId.NA), m):
            assert and_intro(m, n).free_assumptions is m.free_assumptions
            assert and_intro(n, m).free_assumptions is m.free_assumptions

    @pytest.mark.parametrize("swap", [False, True])
    def test_assumption_clash_refused_in_either_order(self, swap):
        u = AssumptionVar("u", 0, TRUTH)
        clash = AssumptionVar("u", 0, FALSITY)
        v = AssumptionVar("v", 1, TRUTH)
        m, n = and_intro(assume(u), assume(v)), assume(clash)
        if swap:
            m, n = n, m
        with pytest.raises(ShapeError, match="u_0 reused"):
            and_intro(m, n)

    def test_vacuous_discharge(self):
        sp = NameSupply()
        u = fresh_assumption("u", FALSITY, sp)
        p = imp_intro(u, axiom(Truth(), TheoryId.NA))
        assert p.conclusion == Imp(FALSITY, TRUTH)
        assert not p.free_assumptions

    def test_theory_monotone(self):
        sp = NameSupply()
        u = fresh_assumption("u", BOT, sp)
        p = and_intro(assume(u), axiom(Truth(), TheoryId.NA))
        assert p.min_theory == TheoryId.MA

    def test_imp_elim_alpha_tolerant(self):
        sp = NameSupply()
        x = ObjVar("x", sp.draw(), BOOL)
        y = ObjVar("y", sp.draw(), BOOL)
        from minarith.formula import All
        f = All(x, Atom(Var(x)))
        g = All(y, Atom(Var(y)))
        u = fresh_assumption("u", Imp(f, TRUTH), sp)
        v = fresh_assumption("v", g, sp)
        p = imp_elim(assume(u), assume(v))
        assert p.conclusion == TRUTH


class TestBuildDispatch:
    def test_imp_elim_by_tag(self):
        sp = NameSupply()
        u = fresh_assumption("u", TRUTH, sp)
        ident = imp_intro(u, assume(u))
        p = build("imp_elim", [ident, axiom(Truth(), TheoryId.NA)])
        assert p.conclusion == TRUTH

    def test_unknown_rule(self):
        with pytest.raises(ShapeError):
            build("frobnicate", [])

    def test_errors_name_large_conclusions_briefly(self):
        # A conclusion that shares subformulas, 3,071 nodes written out, is
        # named in an error by its connective and size, not written out.
        p = axiom(Truth(), TheoryId.NA)
        for _ in range(10):
            p = and_intro(p, p)
        u = fresh_assumption("u", TRUTH, NameSupply())
        x = Var(ObjVar("x", 0, BOOL))
        for bad in (lambda: imp_elim(p, p),
                    lambda: imp_elim(imp_intro(u, assume(u)), p),
                    lambda: all_elim(p, x)):
            with pytest.raises(ShapeError, match="<And of 3071 nodes>") as e:
                bad()
            assert len(str(e.value)) < 200


class TestAxiomSchema:
    def test_boolcases_shape(self):
        b = ObjVar("b", 0, BOOL)
        concl = axiom_schema(BoolCases(b, Atom(Var(b))))
        want = parse_formula(
            "(all (var b 0 (bool)) (imp (atom (tt))"
            " (imp (atom (ff)) (atom (var b 0 (bool))))))")
        assert alpha_eq_formula(concl, want)

    def test_boolcases_needs_bool_var(self):
        from minarith.syntax import NAT
        n = ObjVar("n", 0, NAT)
        with pytest.raises(TypeError):
            axiom_schema(BoolCases(n, TRUTH))

    def test_indlist_element_variable_must_not_occur_in_body(self):
        # With p read as "every element of l equals x", this instance is
        # false in the standard model: the step binds the free x again.
        from minarith import IndList, ListType, app, arrow
        from minarith.syntax import NAT
        p = ObjVar("p", 0, arrow(NAT, ListType(NAT), BOOL))
        l = ObjVar("l", 1, ListType(NAT))
        x = ObjVar("x", 2, NAT)
        ax = IndList(l, x, Atom(app(Var(p), Var(x), Var(l))))
        with pytest.raises(EigenvariableError):
            axiom_schema(ax)
        with pytest.raises(EigenvariableError):
            axiom(ax, TheoryId.NA)


def test_renamed_instance_does_not_depend_on_the_supply():
    # Instantiating x at y in forall x forall y (atom (f x y)) renames the
    # inner binder.  The kernel renames it from a supply of its own, so
    # rechecking and reading the proof give the very conclusion node.
    from minarith import All, app, arrow, parse_proof, print_proof
    from minarith.syntax import NAT
    f = ObjVar("f", 0, arrow(NAT, NAT, BOOL))
    x, y = ObjVar("x", 0, NAT), ObjVar("y", 0, NAT)
    a = All(x, All(y, Atom(app(Var(f), Var(x), Var(y)))))
    u = fresh_assumption("u", a, NameSupply())
    m = all_elim(assume(u), Var(y), NameSupply(1000))
    assert m.conclusion.bound != y
    assert recheck(m).conclusion is m.conclusion
    assert parse_proof(print_proof(m), TheoryId.NA).conclusion is m.conclusion


def test_recheck_random_proofs():
    from minarith import gen_proof

    for seed in range(200):
        m = gen_proof(seed, 10, NameSupply(10_000))
        r = recheck(m)
        assert alpha_eq_formula(r.conclusion, m.conclusion)
        assert r.min_theory == m.min_theory
        assert {(u.name, u.index) for u in r.free_assumptions} == \
            {(u.name, u.index) for u in m.free_assumptions}
