"""Round-trips and error reporting for the S-expression layer."""

import re
import sys
import time
import tracemalloc
from contextlib import contextmanager
from hashlib import sha256

import pytest

from minarith import (Arrow, BOOL, Const, GenConfig, Imp, NAT, NameSupply,
                      ObjVar, TheoryId, TRUTH, Truth, alpha_eq_formula,
                      and_intro, assume, axiom, fresh_assumption, gen_formula,
                      gen_proof, imp_elim, imp_intro, parse_formula,
                      parse_proof, parse_term, parse_type, print_formula,
                      print_proof, print_term, print_type, prove_efq,
                      read_sexpr, recheck)
from minarith import sexpr
from minarith.cli import main
from minarith.errors import ParseError, ShapeError
from minarith.formula import (BOT, All, And, Atom, Bot, Ex, Or, imp,
                              written_size)
from minarith.syntax import (SUCC, TT, ZERO, App, BoolType, Lam, ListType,
                             NatType, Prod, TypeVar, Var, _CONST_SPECS, fold)

from conftest import PROOF_HEADS, load_manifest, unlabel


class TestReader:
    def test_nested_lists(self):
        assert read_sexpr("(a (b c) d)") == ["a", ["b", "c"], "d"]

    def test_comments_skipped(self):
        assert read_sexpr("(bool) ; trailing words\n") == ["bool"]

    def test_empty_input(self):
        with pytest.raises(ParseError):
            read_sexpr("   ; nothing here\n")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            read_sexpr("(imp (bot)")

    def test_trailing_form(self):
        with pytest.raises(ParseError):
            read_sexpr("(bot) (bot)")

    def test_stray_close(self):
        with pytest.raises(ParseError):
            read_sexpr(")")


class TestTypeRoundTrip:
    @pytest.mark.parametrize("ty", [
        BOOL, NAT, TypeVar("a"), ListType(NAT),
        Arrow(NAT, BOOL), Prod(Arrow(BOOL, BOOL), ListType(TypeVar("b"))),
    ])
    def test_round_trip(self, ty):
        assert parse_type(print_type(ty)) == ty

    def test_bad_type(self):
        with pytest.raises(ParseError):
            parse_type("(float)")


class TestTermRoundTrip:
    def test_constants_and_apps(self):
        x = ObjVar("x", 3, NAT)
        t = App(Lam(x, Var(x)), Const("zero"))
        assert parse_term(print_term(t)) == t

    def test_parameterized_constant(self):
        t = Const("nil", (NAT,))
        assert parse_term(print_term(t)) == t

    def test_ill_typed_app_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_term("(app (tt) (ff))")

    def test_unknown_constant(self):
        with pytest.raises(ParseError):
            parse_term("(frob)")

    def test_wrong_param_count(self):
        with pytest.raises(ParseError):
            parse_term("(nil)")


class TestFormulaRoundTrip:
    def test_random_formulas(self):
        for seed in range(150):
            for lang in (TheoryId.NA, TheoryId.MA, TheoryId.HA):
                a = gen_formula(GenConfig(seed=seed, max_size=10,
                                          language=lang))
                assert parse_formula(print_formula(a)) == a

    def test_non_boolean_atom(self):
        with pytest.raises(ParseError):
            parse_formula("(atom (zero))")

    def test_bad_head(self):
        with pytest.raises(ParseError):
            parse_formula("(iff (bot) (bot))")


class TestProofRoundTrip:
    def test_random_proofs(self):
        for seed in range(120):
            m = gen_proof(seed, 12, NameSupply(10_000))
            n = parse_proof(print_proof(m), m.min_theory)
            assert alpha_eq_formula(n.conclusion, m.conclusion)
            assert n.min_theory == m.min_theory
            assert {(u.name, u.index) for u in n.free_assumptions} == \
                {(u.name, u.index) for u in m.free_assumptions}
            recheck(n)

    def test_parse_checks_through_kernel(self):
        # an ill-shaped application must surface as a kernel error,
        # not slip through as data
        from minarith.errors import ShapeError
        text = "(app-pf (axiom truth) (axiom truth))"
        with pytest.raises(ShapeError):
            parse_proof(text, TheoryId.NA)

    def test_bad_proof_form(self):
        with pytest.raises(ParseError):
            parse_proof("(qed)", TheoryId.NA)

    def test_identity_round_trip(self):
        text = "(lam-pf (assume u 0 (atom (tt))) (assume u 0 (atom (tt))))"
        p = parse_proof(text, TheoryId.NA)
        assert alpha_eq_formula(p.conclusion, Imp(TRUTH, TRUTH))
        q = parse_proof(print_proof(p), TheoryId.NA)
        assert alpha_eq_formula(q.conclusion, p.conclusion)


def digest_proofs():
    """The proofs whose printed text the digest test fixes."""
    for seed in range(300):
        yield gen_proof(seed, 12, NameSupply(10_000))
    for th in TheoryId:
        lang = th if th != TheoryId.PA else TheoryId.HA
        for seed in range(50):
            a = gen_formula(GenConfig(seed=seed, max_size=12, language=lang))
            yield prove_efq(a, th)
    for e in load_manifest():
        if e["expect"] == "ok":
            yield parse_proof(e["text"], TheoryId(e["theory"]))


class TestSharedForm:
    def test_shared_nodes_are_labelled_in_print_order(self):
        t = axiom(Truth(), TheoryId.NA)
        u = fresh_assumption("u", TRUTH, NameSupply(0))
        ident = imp_intro(u, assume(u))
        p = and_intro(and_intro(t, imp_elim(ident, t)), ident)
        assert print_proof(p) == (
            "(pair-pf (pair-pf #0=(axiom truth) (app-pf "
            "#1=(lam-pf #2=(assume u 0 (atom (tt))) #2#) #0#)) #1#)")

    def test_labelled_text_builds_each_form_once(self):
        text = "(pair-pf #0=(pair-pf #1=(axiom truth) #1#) #0#)"
        p = parse_proof(text, TheoryId.NA)
        assert p.children[0] is p.children[1]
        inner = p.children[0]
        assert inner.children[0] is inner.children[1]
        assert print_proof(p) == text

    def test_reader_returns_the_same_list_for_each_use(self):
        form = read_sexpr("(a #7=(axiom c) (#7#))")
        assert form == ["a", ["axiom", "c"], [["axiom", "c"]]]
        assert form[2][0] is form[1]

    def test_random_dags_round_trip(self):
        for seed in range(60):
            m = gen_proof(seed, 8, NameSupply(10_000))
            p = and_intro(m, and_intro(m, m))
            text = print_proof(p)
            assert text.count("#0#") == 2
            q = parse_proof(text, p.min_theory)
            assert print_proof(q) == text
            assert q.children[0] is q.children[1].children[0]

    # One case per kind of malformed label, and per kind of use of a
    # label where its category cannot stand.
    @pytest.mark.parametrize("text", [
        "(pair-pf #0# (axiom truth))",
        "#1=(pair-pf #1# #1#)",
        "(pair-pf #0=(axiom truth) #0=(axiom truth))",
        "(pair-pf #0= truth #0#)",
        "(pair-pf (assume u 0 #0=(atom (tt))) "
        "(inst (gen (var x 0 (bool)) (axiom truth)) #0#))",
        "(pair-pf (inst (gen (var x 0 (bool)) (axiom truth)) #0=(tt)) #0#)",
        "(lam-pf #0=(assume u 0 (atom (tt))) (assume u 0 #0#))",
    ], ids=["undefined", "not-complete", "defined-twice", "not-a-list",
            "formula-as-term", "term-as-proof", "assumption-as-formula"])
    def test_malformed_labels_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_proof(text, TheoryId.NA)

    # A label on each category of form, each read as the text without it.
    @pytest.mark.parametrize("text, plain", [
        ("(lam-pf (assume u 0 (atom (tt))) #0=(assume u 0 (atom (tt))))",
         "(lam-pf (assume u 0 (atom (tt))) (assume u 0 (atom (tt))))"),
        ("(lam-pf (assume u 0 #0=(atom (tt))) (assume u 0 #0#))",
         "(lam-pf (assume u 0 (atom (tt))) (assume u 0 (atom (tt))))"),
        ("(inst (gen (var x 0 (bool)) (axiom truth)) #0=(tt))",
         "(inst (gen (var x 0 (bool)) (axiom truth)) (tt))"),
        ("(gen (var x 0 #0=(bool)) (axiom truth))",
         "(gen (var x 0 (bool)) (axiom truth))"),
        ("(lam-pf #0=(assume u 0 (atom (tt))) #0#)",
         "(lam-pf (assume u 0 (atom (tt))) (assume u 0 (atom (tt))))"),
        ("(inst (gen #0=(var x 0 (bool)) (axiom truth)) #0#)",
         "(inst (gen (var x 0 (bool)) (axiom truth)) (var x 0 (bool)))"),
        ("(pair-pf (inst (gen (var y 0 (bool)) (axiom truth)) "
         "#0=(var x 0 (bool))) (gen #0# (axiom truth)))",
         "(pair-pf (inst (gen (var y 0 (bool)) (axiom truth)) "
         "(var x 0 (bool))) (gen (var x 0 (bool)) (axiom truth)))"),
    ], ids=["on-assume", "on-formula", "on-term", "on-type",
            "assumption-as-proof", "variable-as-term", "term-as-variable"])
    def test_labels_on_any_form_read_as_the_plain_text(self, text, plain):
        p = parse_proof(text, TheoryId.NA)
        q = parse_proof(plain, TheoryId.NA)
        assert p.conclusion is q.conclusion
        assert p.free_assumptions == q.free_assumptions
        assert print_proof(p) == print_proof(q)

    def test_unshared_proofs_print_as_plain_trees(self):
        # Printed before labels went on forms other than proofs, these
        # proofs gave the old digest; with the labels on other forms
        # written out again, the text is the same byte for byte.
        texts = list(map(print_proof, digest_proofs()))
        assert len(texts) == 522
        assert sha256("\n".join(texts).encode()).hexdigest() == \
            "153bd1968eebcad32f0485b10c3ce55b887b6a60beb203dca7b59a6809608978"
        assert sha256("\n".join(map(unlabel, texts)).encode()).hexdigest() \
            == "969385b654ff968c2afec5cb567f327e82699f1b580b05bd1dbeaf09b672d6f5"

    def test_proofs_built_again_over_kept_facts_print_the_same(self):
        # The second build finds the instances, schemas and A^F that the
        # first one kept on nodes that it still holds alive.
        first = list(digest_proofs())
        second = list(digest_proofs())
        assert list(map(print_proof, second)) == \
            list(map(print_proof, first))

    def test_conclusion_bound_applies_to_labelled_text_only(self):
        # At k = 10, 354,293 nodes from 565 tokens.  Tree-form text builds
        # it; with a label the same text is held to 565^2 nodes.
        text = inst_chain(10)
        parse_proof(text, TheoryId.NA)
        with pytest.raises(ParseError, match="conclusion"):
            parse_proof("#0=" + text, TheoryId.NA)

    def test_reprinted_inst_chain_is_held_to_the_bound(self):
        # Printed, the chain labels its variable and so is held to the
        # bound, which its conclusion exceeds: it does not read back.
        text = print_proof(parse_proof(inst_chain(12), TheoryId.NA))
        assert "#0=" in text
        with pytest.raises(ParseError, match="conclusion"):
            parse_proof(text, TheoryId.NA)

    def test_tree_form_inst_chain_builds_shared_conclusion(self):
        # Substitution shares what it inserts, so the conclusion is built
        # and rebuilt in memory linear in k, although written out it has
        # more than 3^40 nodes.
        start = time.process_time()
        q = recheck(parse_proof(inst_chain(40), TheoryId.NA))
        assert time.process_time() - start < 1.0
        assert written_size(q.conclusion, {}) > 3 ** 40

    def test_separate_parses_give_one_conclusion(self):
        # Written out, each conclusion has 3^12 atoms; interned, the two
        # parses build the same object, so == does not walk them.
        a = parse_proof(inst_chain(12), TheoryId.NA).conclusion
        b = parse_proof(inst_chain(12), TheoryId.NA).conclusion
        start = time.perf_counter()
        assert a == b
        assert time.perf_counter() - start < 1e-3
        assert a is b


def inst_chain(k: int) -> str:
    # Each level instantiates x with a term that mentions x three times, so
    # the conclusion grows as 3^k while the text grows linearly.
    x = "(var x 0 (bool))"
    t = f"(app (app (app (cases (bool)) {x}) {x}) {x})"
    text = f"(lam-pf (assume u 0 (atom {x})) (assume u 0 (atom {x})))"
    for _ in range(k):
        text = f"(inst (gen {x} {text}) {t})"
    return text


def axiom_chain(k: int) -> str:
    # Each level labels an axiom form and uses it again, so at k = 40 the
    # 660 bytes, written out, are a tree with 2^39 leaves.
    text = "#0=(axiom truth)"
    for j in range(1, k):
        text = f"#{j}=(axiom {text} #{j - 1}#)"
    return text


AXIOM_CHAIN = axiom_chain(40)


@pytest.mark.parametrize("parse, text", [
    (parse_type, AXIOM_CHAIN),
    (parse_term, AXIOM_CHAIN),
    (parse_formula, AXIOM_CHAIN),
    (parse_proof, AXIOM_CHAIN),
    (parse_proof, f"(proj0 {AXIOM_CHAIN} (axiom truth))"),
    (parse_proof, f"(gen (var x {AXIOM_CHAIN} (bool)) (axiom truth))"),
    (parse_proof, f"#40=({AXIOM_CHAIN})"),
], ids=["type", "term", "formula", "axiom", "arity", "index", "label"])
def test_errors_quote_shared_forms_briefly(parse, text):
    args = (TheoryId.NA,) if parse is parse_proof else ()
    with pytest.raises(ParseError) as e:
        parse(text, *args)
    assert "(axiom (axiom" in str(e.value) and len(str(e.value)) < 200


# ---------------------------------------------------------------------------
# An independent printer, written from the grammar in the README.  It shares
# no code with minarith.sexpr, which reads and prints every category from
# one table.


def oracle(x) -> str:
    match x:
        case BoolType():
            return "(bool)"
        case NatType():
            return "(nat)"
        case TypeVar(name):
            return f"(tvar {name})"
        case ListType(t):
            return f"(list {oracle(t)})"
        case Arrow(t, r):
            return f"(arrow {oracle(t)} {oracle(r)})"
        case Prod(t, r):
            return f"(prod {oracle(t)} {oracle(r)})"
        case ObjVar(name, index, ty):
            return f"(var {name} {index} {oracle(ty)})"
        case Var(v):
            return oracle(v)
        case Const(tag, params):
            return "(" + " ".join([tag, *map(oracle, params)]) + ")"
        case App(f, a):
            return f"(app {oracle(f)} {oracle(a)})"
        case Lam(v, b):
            return f"(lam {oracle(v)} {oracle(b)})"
        case Bot():
            return "(bot)"
        case Atom(t):
            return f"(atom {oracle(t)})"
        case Imp(p, c):
            return f"(imp {oracle(p)} {oracle(c)})"
        case And(a, b):
            return f"(and {oracle(a)} {oracle(b)})"
        case Or(a, b):
            return f"(or {oracle(a)} {oracle(b)})"
        case All(v, b):
            return f"(all {oracle(v)} {oracle(b)})"
        case Ex(v, b):
            return f"(ex {oracle(v)} {oracle(b)})"
    raise ValueError(f"no grammar rule for {x!r}")


X = ObjVar("x", 3, NAT)
B = ObjVar("b", 0, BOOL)
TYPES = [BOOL, NAT, TypeVar("a"), ListType(NAT), Arrow(NAT, BOOL),
         Prod(Arrow(BOOL, BOOL), ListType(TypeVar("b")))]
# Each constant tag with type parameters of its number, from the README.
CONSTANTS = {"tt": (), "ff": (), "zero": (), "succ": (), "nil": (NAT,),
             "cons": (BOOL,), "cases": (NAT,), "recnat": (BOOL,),
             "pair": (NAT, BOOL), "reclist": (BOOL, NAT),
             "split": (NAT, BOOL, ListType(NAT))}
TERMS = [Var(X), Lam(X, Var(X)), App(SUCC, ZERO),
         *(Const(tag, params) for tag, params in CONSTANTS.items())]
FORMULAS = [BOT, Atom(TT), Imp(BOT, Atom(Var(B))), And(BOT, BOT),
            Or(Atom(TT), BOT), All(X, Atom(App(Lam(X, TT), Var(X)))),
            Ex(B, Atom(Var(B)))]


class TestGrammarOracle:
    def test_constants_cover_every_tag(self):
        assert set(CONSTANTS) == set(_CONST_SPECS)

    @pytest.mark.parametrize("ty", TYPES, ids=oracle)
    def test_every_type_head(self, ty):
        assert print_type(ty) == oracle(ty)
        # Types are not interned: the round trip gives an equal value.
        assert parse_type(print_type(ty)) == ty

    @pytest.mark.parametrize("t", TERMS, ids=oracle)
    def test_every_term_head(self, t):
        assert print_term(t) == oracle(t)
        assert parse_term(print_term(t)) is t

    @pytest.mark.parametrize("a", FORMULAS, ids=oracle)
    def test_every_formula_head(self, a):
        assert print_formula(a) == oracle(a)
        assert parse_formula(print_formula(a)) is a

    def test_random_formulas(self):
        for seed in range(150):
            for lang in (TheoryId.NA, TheoryId.MA, TheoryId.HA):
                a = gen_formula(GenConfig(seed=seed, max_size=12,
                                          language=lang))
                assert print_formula(a) == oracle(a)
                assert parse_formula(print_formula(a)) is a


def written_forms(text: str) -> list[str]:
    # The text of every list in ``text``, as it stands there.
    opened, forms = [], []
    for i, c in enumerate(text):
        if c == "(":
            opened.append(i)
        elif c == ")":
            forms.append(text[opened.pop():i + 1])
    return forms


def test_print_proof_writes_each_distinct_node_once():
    # Each assumption of these proofs is used at its lam-pf and at one or
    # more assume leaves, and their formulas share subformulas, but no
    # form other than a proof or a form without arguments is written out
    # twice, and each distinct proof node other than a leaf is written once.
    for seed in range(30):
        a = gen_formula(GenConfig(seed=seed, max_size=12,
                                  language=TheoryId.MA))
        m = prove_efq(a, TheoryId.MA)
        forms = written_forms(print_proof(m))
        others = [f for f in forms if f.split()[0][1:] not in PROOF_HEADS]
        repeated = {f for f in others if others.count(f) > 1}
        assert all(" " not in f for f in repeated), repeated
        nodes: dict = {}
        fold(m, lambda n, kids: n.rule != "assume", images=nodes)
        assert len(forms) - len(others) == sum(nodes.values())


class TestAssumeForms:
    def test_equal_forms_give_one_variable(self):
        p = parse_proof("(pair-pf (assume u 0 (atom (tt))) "
                        "(assume u 0 (atom (tt))))", TheoryId.NA)
        assert p.children[0].params[0] is p.children[1].params[0]

    def test_same_name_and_index_at_another_formula_is_refused(self):
        with pytest.raises(ShapeError, match="u_0 reused"):
            parse_proof("(pair-pf (assume u 0 (atom (tt))) "
                        "(assume u 0 (bot)))", TheoryId.MA)


def test_deep_chain_prints_and_parses_at_default_recursion_limit():
    # The printer and the reader walk with explicit stacks.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a = imp(*[TRUTH] * 900)
        assert parse_formula(print_formula(a)) is a
        a = imp(*[TRUTH] * 100_001)
        assert parse_formula(print_formula(a)) is a
        m = prove_efq(a, TheoryId.NA)
        p = parse_proof(print_proof(m), TheoryId.NA)
        assert p.conclusion is m.conclusion and not p.free_assumptions
    finally:
        sys.setrecursionlimit(limit)


def test_printing_a_deep_chain_takes_memory_linear_in_its_text():
    # A printer that keeps the text of every node it has written holds
    # 900 ever longer texts here: 7.6 MB at its peak.
    a = imp(*[TRUTH] * 901)
    tracemalloc.start()
    try:
        text = print_formula(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 900 * 18 + 11 and peak < 1_000_000


def labelled_doubling(k: int, base: str, step: str) -> str:
    # The form of label j is ``step`` with label j - 1 in both holes,
    # defined in the first, and label 0 is ``base``: written out, k levels
    # have 2^k copies of base.
    text = f"#0={base}"
    for j in range(1, k + 1):
        text = f"#{j}=" + step.format(text, f"#{j - 1}#")
    return text


DOUBLINGS = {
    "formula": labelled_doubling(40, "(atom (tt))", "(and {} {})"),
    "term": labelled_doubling(
        40, "(tt)", "(app (app (app (cases (bool)) (tt)) {}) {})"),
    "type": labelled_doubling(40, "(bool)", "(arrow {} {})"),
}


@pytest.mark.parametrize("parse, text", [
    (parse_formula, DOUBLINGS["formula"]),
    (parse_term, DOUBLINGS["term"]),
    (parse_type, DOUBLINGS["type"]),
    (parse_formula, f"(all (var x 0 {DOUBLINGS['type']}) (bot))"),
    (parse_term, f"(nil {DOUBLINGS['type']})"),
    (parse_proof, f"(gen (var x 0 {DOUBLINGS['type']}) (axiom truth))"),
], ids=["formula", "term", "type", "type-in-formula", "type-in-term",
        "type-in-proof"])
def test_labelled_text_is_bounded_in_every_category(parse, text):
    args = (TheoryId.NA,) if parse is parse_proof else ()
    start = time.process_time()
    with pytest.raises(ParseError, match="nodes written out"):
        parse(text, *args)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("command", ["gg", "classify"])
def test_labelled_doubling_formula_exits_2(command, tmp_path, capsys):
    # Without the bound, gg would write out a formula of 2^40 atoms.
    src = tmp_path / "f.fml"
    src.write_text(DOUBLINGS["formula"], encoding="utf-8")
    assert main([command, str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse-error") and captured.out == ""


def test_ill_typed_form_quotes_a_labelled_type_briefly():
    # 11 levels of labels, within the bound, give a type of 4,095 nodes.
    ty = labelled_doubling(11, "(bool)", "(arrow {} {})")
    with pytest.raises(ParseError, match="<ListType of 4096 nodes>") as e:
        parse_term(f"(app (lam (var x 0 (bool)) (tt)) (nil {ty}))")
    assert len(str(e.value)) < 200


def _parse_in(category: str):
    # The public reader that reaches forms of the category.
    return {"type": parse_type, "term": parse_term, "formula": parse_formula,
            "variable": parse_formula}.get(
        category, lambda text: parse_proof(text, TheoryId.MA))


# One case per kind of malformed form, in each category where it can occur.
@pytest.mark.parametrize("category, text", [
    ("type", "(float)"),
    ("type", "(list (nat) (nat))"),
    ("type", "bool"),
    ("type", "(tvar (a))"),
    ("variable", "(all (vr x 0 (nat)) (bot))"),
    ("variable", "(all (var x 0) (bot))"),
    ("variable", "(all x (bot))"),
    ("variable", "(all (var (x) 0 (nat)) (bot))"),
    ("variable", "(all (var x y (nat)) (bot))"),
    ("term", "(frob)"),
    ("term", "(app (tt))"),
    ("term", "tt"),
    ("term", "(app (tt) (ff))"),
    ("term", "(app (lam (var x 0 (arrow (list (prod (nat) (bool))) (arrow "
             "(list (nat)) (prod (bool) (list (nat)))))) (tt)) (zero))"),
    ("term", "(nil)"),
    ("term", "(pair (nat))"),
    ("formula", "(iff (bot) (bot))"),
    ("formula", "(imp (bot))"),
    ("formula", "(imp bot (bot))"),
    ("formula", "(atom (zero))"),
    ("axiom", "(axiom frob)"),
    ("axiom", "(axiom lem)"),
    ("axiom", "(axiom truth (bot))"),
    ("assumption", "(assume u 0)"),
    ("assumption", "(lam-pf u (axiom truth))"),
    ("assumption", "(assume (u) 0 (bot))"),
    ("assumption", "(assume u x (bot))"),
], ids=["type-head", "type-arity", "type-non-list", "type-name",
        "variable-head", "variable-arity", "variable-non-list",
        "variable-name", "variable-index", "term-head", "term-arity",
        "term-non-list", "term-ill-typed-app", "term-ill-typed-nested-type",
        "term-constant-params", "term-constant-params-2", "formula-head",
        "formula-arity", "formula-non-list", "formula-non-boolean-atom",
        "axiom-head", "axiom-arity", "axiom-arity-2", "assumption-arity",
        "assumption-non-list", "assumption-name", "assumption-index"])
def test_malformed_forms_name_their_category(category, text):
    with pytest.raises(ParseError) as e:
        _parse_in(category)(text)
    message = str(e.value)
    assert category in message
    assert "\n" not in message and len(message) < 200


def test_malformed_formula_file_exits_2(tmp_path, capsys):
    src = tmp_path / "f.fml"
    src.write_text("(atom (zero))", encoding="utf-8")
    assert main(["classify", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse-error") and "formula" in err


# ---------------------------------------------------------------------------
# The one-pass reader


def regex_tokens(text: str) -> list[str]:
    # The regular-expression tokenizer the reader used before, as an oracle.
    return re.findall(r"[()]|[^\s();]+", re.sub(r";[^\n]*", "", text))


def test_tokenizer_matches_regex_oracle():
    texts = [e["text"] for e in load_manifest()]
    texts += [print_proof(gen_proof(seed, 12, NameSupply(10_000)))
              for seed in range(100)]
    texts += ["(a ; a comment (with parens\n b)", "; only a comment",
              "(a;b\n)c", "(x) ; (y)\r\n", "(a\t(b\r\nc)\x0bd\x0c)",
              "((a)(b))", "( a b\x1c)", "(a #0=(b) #0#)", "",
              "(p\r(q\t\tr))\r\n;;\n"]
    for text in texts:
        assert sexpr._tokenize(text) == regex_tokens(text)


@contextmanager
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def chain_text(depth: int) -> str:
    # A right-nested implication of depth + 1 atoms, written out.
    return "(imp (atom (tt)) " * depth + "(atom (tt))" + ")" * depth


def test_parse_formula_reads_a_100k_deep_chain():
    text = chain_text(100_000)
    with default_recursion_limit():
        a = parse_formula(text)
    assert a is imp(*[TRUTH] * 100_001)


def test_20k_deep_assumption_parses_and_rechecks():
    f = chain_text(20_000)
    text = f"(lam-pf (assume u 0 {f}) (assume u 0 {f}))"
    with default_recursion_limit():
        p = parse_proof(text, TheoryId.NA)
        recheck(p)
        # Each chain: 20,001 atoms over (tt) and 20,000 implications.
        assert written_size(p.conclusion, {}) == 120_005
        with pytest.raises(ShapeError, match="<Imp of 120005 nodes>"):
            parse_proof(f"(proj0 {text})", TheoryId.NA)
    a = imp(*[TRUTH] * 20_001)
    assert p.conclusion is Imp(a, a)


def test_deep_argument_is_read_in_linear_time():
    # Each token is looked at once, so a deep formula is read in time
    # linear in its text.
    text = f"(assume u 0 {chain_text(50_000)})"
    start = time.process_time()
    p = parse_proof(text, TheoryId.NA)
    assert time.process_time() - start < 1.0
    assert p.conclusion is imp(*[TRUTH] * 50_001)


def test_one_text_is_read_by_its_category():
    x = "(var x 0 (bool))"
    p = parse_proof(f"(inst (gen {x} (axiom truth)) {x})", TheoryId.NA)
    v, = p.children[0].params
    t, = p.params
    assert type(v) is ObjVar and type(t) is Var and t.var is v


def test_repeated_argument_text_is_read_once(monkeypatch):
    opened = []

    class Counting(sexpr._Open):
        __slots__ = ()

        def __init__(self, kind, *args):
            opened.append(kind)
            super().__init__(kind, *args)

    monkeypatch.setattr(sexpr, "_Open", Counting)
    a = "(assume u 0 (imp (atom (var x 0 (bool))) (and (bot) (bot))))"
    plain = f"(lam-pf {a} (pair-pf {a} {a}))"
    text = print_proof(parse_proof(plain, TheoryId.MA))
    assert text == "(lam-pf #0=(assume u 0 (imp (atom (var x 0 (bool))) " \
        "(and (bot) (bot)))) (pair-pf #0# #0#))"
    opened.clear()
    p = parse_proof(text, TheoryId.MA)
    # The root, lam-pf, the assumption and its formulas, pair-pf: each
    # form once; (bool) and (bot) are found in a table.
    assert opened == ["proof", "proof", "assumption", "formula", "formula",
                      "term", "formula", "proof"]
    u, = p.params
    assert all(leaf.params == (u,) for leaf in p.children[0].children)
    # Written out at each use, the assumption is read three times, and
    # gives one variable.
    q = parse_proof(plain, TheoryId.MA)
    u, = q.params
    assert all(leaf.params == (u,) for leaf in q.children[0].children)


@pytest.mark.parametrize("parse, text", [
    (parse_formula, "(frob #0= #0#)"),
    (parse_formula, "(frob #0=(bot) #0# #0#)"),
    (parse_proof, "(qed #1=(pair-pf #1# #1#))"),
    (parse_proof, "(proj0 #1=(pair-pf #1# #1#) (axiom truth))"),
], ids=["not-a-list", "on-formula", "cycle", "cycle-in-arity"])
def test_error_quotes_of_malformed_labels_are_brief(parse, text):
    # The quote writes a label's form out where it is used, so a label on
    # no list, or used inside its own form, must not make it run on.
    args = (TheoryId.NA,) if parse is parse_proof else ()
    with pytest.raises(ParseError) as e:
        parse(text, *args)
    assert len(str(e.value)) < 200
