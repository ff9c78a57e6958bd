"""Exit codes and output of the command line front end."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from minarith import (All, Atom, BOOL, BOT, ClassId, FALSITY, Imp, NAT,
                      NameSupply, ObjVar, TheoryId, TRUTH, Var, ZERO,
                      all_intro, alpha_eq_formula, and_intro, assume, axiom,
                      certify, fresh_assumption, gg_translate, imp_elim,
                      all_elim, And, imp_intros, parse_formula, parse_proof,
                      print_formula, print_proof, prove_efq, prove_gg_equiv,
                      recheck, Truth)
from minarith.cli import main

from conftest import load_manifest

MANIFEST = load_manifest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[f"{e['file']}:{e['theory']}" for e in MANIFEST])
def test_check_fixture(entry, tmp_path, capsys):
    src = tmp_path / "p.prf"
    src.write_text(entry["text"], encoding="utf-8")
    code, out, _ = run(capsys, "check", str(src), "--theory", entry["theory"])
    if entry["expect"] == "ok":
        assert code == 0
        last = out.strip().splitlines()[-1]
        head, _, concl = last.partition(" ⊢ ")
        assert head == entry["theory"]
        assert alpha_eq_formula(parse_formula(concl),
                                parse_formula(entry["conclusion"]))
    else:
        assert code == 1
        assert out.startswith(entry["expect"])


class TestCheck:
    def test_open_proof_lists_assumptions(self, tmp_path, capsys):
        src = tmp_path / "p.prf"
        src.write_text("(assume u 0 (atom (tt)))", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(src), "--theory", "NA")
        assert code == 0
        assert out.splitlines()[0] == "(assume u 0 (atom (tt)))"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        src = tmp_path / "p.prf"
        src.write_text("(axiom truth)", encoding="utf-8")
        dst = tmp_path / "result.txt"
        code, out, _ = run(capsys, "check", str(src), "--theory", "NA",
                           "--out", str(dst))
        assert code == 0 and out == ""
        assert dst.read_text(encoding="utf-8").endswith("(atom (tt))\n")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        src = tmp_path / "p.prf"
        src.write_text("(axiom truth", encoding="utf-8")
        code, _, err = run(capsys, "check", str(src), "--theory", "NA")
        assert code == 2
        assert "parse-error" in err

    # A malformed argument and a kernel error inside a subproof: the one
    # that comes first in the text is reported.
    @pytest.mark.parametrize("text, code, reason", [
        ("(lam-pf (oops) (app-pf (axiom truth) (axiom truth)))", 2,
         "parse-error"),
        ("(gen (oops) (app-pf (axiom truth) (axiom truth)))", 2,
         "parse-error"),
        ("(inst (app-pf (axiom truth) (axiom truth)) (oops))", 1,
         "shape-error"),
    ])
    def test_errors_reported_in_textual_order(self, text, code, reason,
                                              tmp_path, capsys):
        src = tmp_path / "p.prf"
        src.write_text(text, encoding="utf-8")
        got, out, err = run(capsys, "check", str(src), "--theory", "NA")
        assert got == code
        assert (out + err).startswith(reason)

    def test_self_referent_label_exits_2(self, tmp_path, capsys):
        src = tmp_path / "p.prf"
        src.write_text("#1=(pair-pf #1# #1#)", encoding="utf-8")
        code, _, err = run(capsys, "check", str(src), "--theory", "NA")
        assert code == 2
        assert err.startswith("parse-error")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "no.prf"),
                           "--theory", "NA")
        assert code == 2
        assert "io-error" in err

    def test_theory_mismatch_exits_1(self, tmp_path, capsys):
        # an MA proof checked against HA: incomparable theories
        src = tmp_path / "p.prf"
        src.write_text("(axiom botplus)", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(src), "--theory", "HA")
        assert code == 1
        assert out.startswith("theory-error")


# 753 bytes whose conclusion, written out, has 2^40 conjuncts.
@pytest.mark.parametrize("argv", [["check", "--theory", "NA"],
                                  ["translate"]])
def test_doubling_chain_exits_2_quickly(argv, tmp_path, capsys):
    p = axiom(Truth(), TheoryId.NA)
    for _ in range(40):
        p = and_intro(p, p)
    src = tmp_path / "chain.prf"
    src.write_text(print_proof(p), encoding="utf-8")
    start = time.process_time()
    code, _, err = run(capsys, argv[0], str(src), *argv[1:])
    assert time.process_time() - start < 1.0
    assert code == 2
    assert err.startswith("parse-error")


# forall x_i (bot -> A) over an atom, and forall x_i (x_i -> A) over bottom,
# whose goal flag needs both instances of every body.
@pytest.mark.parametrize("irrelevant_bodies", [True, False])
def test_classify_nested_bool_quantifiers_quickly(irrelevant_bodies,
                                                  tmp_path, capsys):
    a = Atom(Var(ObjVar("x", 0, BOOL))) if irrelevant_bodies else BOT
    for i in range(40):
        x = ObjVar("x", i, BOOL)
        a = All(x, Imp(BOT if irrelevant_bodies else Atom(Var(x)), a))
    src = tmp_path / "f.fml"
    src.write_text(print_formula(a), encoding="utf-8")
    start = time.process_time()
    code, out, _ = run(capsys, "classify", str(src))
    assert time.process_time() - start < 1.0
    assert code == 0
    assert "Q=no" in out and "QF=yes" in out and "G=yes" in out


# 660 bytes that, written out, are a tree with 2^39 leaves.
@pytest.mark.parametrize("argv", [["check", "--theory", "NA"],
                                  ["classify"]])
def test_shared_malformed_form_exits_2_quickly(argv, tmp_path, capsys):
    text = "#0=(axiom truth)"
    for j in range(1, 40):
        text = f"#{j}=(axiom {text} #{j - 1}#)"
    src = tmp_path / "chain.txt"
    src.write_text(text, encoding="utf-8")
    start = time.process_time()
    code, _, err = run(capsys, argv[0], str(src), *argv[1:])
    assert time.process_time() - start < 1.0
    assert code == 2
    assert err.startswith("parse-error") and len(err) < 200


class TestOutput:
    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(bot)", encoding="utf-8")
        code, out, err = run(capsys, "classify", str(src),
                             "--out", str(tmp_path / "missing" / "x"))
        assert code == 2 and out == ""
        assert err.startswith("io-error") and len(err.splitlines()) == 1

    # Both the result and a failure's reason line go to stdout.
    @pytest.mark.parametrize("formula", ["(bot)", "(or (bot) (bot))"])
    def test_closed_stdout_exits_2(self, formula, tmp_path):
        src = tmp_path / "f.fml"
        src.write_text(formula, encoding="utf-8")
        src_dir = Path(__file__).parent.parent / "src"
        child = subprocess.Popen(
            [sys.executable, "-m", "minarith.cli", "classify", str(src)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src_dir)})
        child.stdout.close()  # the reader goes away before any output
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2
        assert err.startswith("io-error") and len(err.splitlines()) == 1


class TestClassify:
    def test_report_lines(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(bot)", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(src))
        assert code == 0
        flags = dict(line.split("=") for line in out.split())
        assert flags == {"Q": "no", "QF": "yes", "D": "yes", "G": "yes",
                         "R": "yes", "I": "no"}

    def test_language_violation_exits_1(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(or (bot) (bot))", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(src))
        assert code == 1
        assert out.startswith("language-error")


def _write_premise(tmp_path):
    """A premise file for T -> (forall n (T -> bot)) -> bot."""
    sp = NameSupply()
    x = ObjVar("n", sp.draw(), NAT)
    u = fresh_assumption("u", TRUTH, sp)
    v = fresh_assumption("v", All(x, Imp(TRUTH, BOT)), sp)
    prem = imp_intros(imp_elim(all_elim(assume(v), ZERO),
                               axiom(Truth(), TheoryId.MA)), u, v)
    src = tmp_path / "prem.prf"
    src.write_text(print_proof(prem), encoding="utf-8")
    return src, x


def _checked_conclusion(capsys, tmp_path, text: str, theory: str) -> str:
    src = tmp_path / "out.prf"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(src), "--theory", theory)
    assert (code, err) == (0, "")
    head, _, concl = out.splitlines()[-1].partition(" ⊢ ")
    assert head == theory
    return concl


def test_printed_proofs_pass_check_with_their_conclusions(tmp_path, capsys):
    # Every proof the commands print labels the forms it uses twice, and
    # check reads it back to the conclusion the command proved.
    p, q = (Atom(Var(ObjVar(n, 0, BOOL))) for n in "pq")
    a = Imp(And(p, Imp(q, p)), Imp(q, p))
    src = tmp_path / "f.fml"
    src.write_text(print_formula(a), encoding="utf-8")
    g = gg_translate(a)
    runs = [(["efq", "--theory", "MA"], "MA", -1,
             prove_efq(a, TheoryId.MA).conclusion),
            (["gg"], "NA", 1, And(Imp(a, g), Imp(g, a))),
            (["search", "--theory", "NA"], "NA", 1, a)]
    for argv, theory, line, want in runs:
        code, out, err = run(capsys, argv[0], str(src), *argv[1:])
        assert (code, err) == (0, "")
        text = out.splitlines()[line]
        assert "#0=" in text
        assert _checked_conclusion(capsys, tmp_path, text, theory) == \
            print_formula(want)
    prem, _ = _write_premise(tmp_path)
    assert "#0=" in prem.read_text(encoding="utf-8")  # a labelled premise
    code, out, err = run(capsys, "translate", str(prem))
    assert (code, err) == (0, "")
    assert _checked_conclusion(capsys, tmp_path, out.strip(), "HA") == \
        "(imp (atom (tt)) (ex (var n 0 (nat)) (atom (tt))))"


class TestTranslate:
    def test_classified_mode(self, tmp_path, capsys):
        src, x = _write_premise(tmp_path)
        code, out, _ = run(capsys, "translate", str(src))
        assert code == 0
        result = parse_proof(out.strip(), TheoryId.HA)
        want = parse_formula(
            "(imp (atom (tt)) (ex (var n 0 (nat)) (atom (tt))))")
        assert alpha_eq_formula(result.conclusion, want)

    def test_certified_mode(self, tmp_path, capsys):
        src, x = _write_premise(tmp_path)
        cert_d = tmp_path / "d.prf"
        cert_d.write_text(print_proof(certify(TRUTH, ClassId.DEFINITE)),
                          encoding="utf-8")
        cert_g = tmp_path / "g.prf"
        cert_g.write_text(
            print_proof(all_intro(x, certify(TRUTH, ClassId.GOAL))),
            encoding="utf-8")
        code, out, _ = run(capsys, "translate", str(src),
                           "--mode", "certified",
                           "--cert-d", str(cert_d), "--cert-g", str(cert_g))
        assert code == 0
        result = parse_proof(out.strip(), TheoryId.HA)
        want = parse_formula(
            "(imp (atom (tt)) (ex (var n 0 (nat)) (atom (tt))))")
        assert alpha_eq_formula(result.conclusion, want)

    def test_certified_without_certs_exits_1(self, tmp_path, capsys):
        src, _ = _write_premise(tmp_path)
        code, out, _ = run(capsys, "translate", str(src),
                           "--mode", "certified")
        assert code == 1
        assert out.startswith("certificate-error")

    def test_bad_shape_exits_1(self, tmp_path, capsys):
        src = tmp_path / "prem.prf"
        src.write_text("(axiom truth)", encoding="utf-8")
        code, out, _ = run(capsys, "translate", str(src))
        assert code == 1
        assert out.startswith("shape-error")


class TestGG:
    def test_na_formula_comes_with_proof(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(atom (tt))", encoding="utf-8")
        code, out, _ = run(capsys, "gg", str(src))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        want = parse_formula(
            "(imp (imp (atom (tt)) (atom (ff))) (atom (ff)))")
        assert alpha_eq_formula(parse_formula(lines[0]), want)
        p = parse_proof(lines[1], TheoryId.NA)
        assert not p.free_assumptions

    def test_bot_formula_exits_1(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(bot)", encoding="utf-8")
        code, out, _ = run(capsys, "gg", str(src))
        assert code == 1
        assert out.startswith("language-error")

    def test_ha_formula_gets_translation_alone(self, tmp_path, capsys):
        a = "(or (atom (tt)) (atom (ff)))"
        src = tmp_path / "f.fml"
        src.write_text(a, encoding="utf-8")
        code, out, _ = run(capsys, "gg", str(src))
        assert code == 0
        (line,) = out.strip().splitlines()
        assert parse_formula(line) == gg_translate(parse_formula(a))


class TestEfq:
    def test_atom_in_na(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(atom (ff))", encoding="utf-8")
        code, out, _ = run(capsys, "efq", str(src), "--theory", "NA")
        assert code == 0
        p = parse_proof(out.strip(), TheoryId.NA)
        assert not p.free_assumptions

    def test_language_mismatch_exits_1(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(bot)", encoding="utf-8")
        code, out, _ = run(capsys, "efq", str(src), "--theory", "NA")
        assert code == 1
        assert out.startswith("language-error")


class TestSearch:
    def test_derivable_prints_witness(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(imp (atom (ff)) (atom (ff)))", encoding="utf-8")
        code, out, _ = run(capsys, "search", str(src), "--theory", "NA",
                           "--depth", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "derivable"
        p = parse_proof(lines[1], TheoryId.NA)
        assert alpha_eq_formula(
            p.conclusion,
            parse_formula("(imp (atom (ff)) (atom (ff)))"))

    def test_unknown_reports_depth(self, tmp_path, capsys):
        src = tmp_path / "f.fml"
        src.write_text("(atom (ff))", encoding="utf-8")
        code, out, _ = run(capsys, "search", str(src), "--theory", "NA",
                           "--depth", "5")
        assert code == 0
        assert out.strip() == "unknown 5"

    def test_unknown_reports_node_cap(self, tmp_path, capsys,
                                      monkeypatch):
        # The cap (20000 expansions) is reached only by large searches.
        import minarith.search
        monkeypatch.setattr(minarith.search, "bounded_derivable",
                            lambda *args: minarith.search.Unknown(3, True))
        src = tmp_path / "f.fml"
        src.write_text("(atom (ff))", encoding="utf-8")
        code, out, _ = run(capsys, "search", str(src), "--theory", "NA")
        assert (code, out.strip()) == (0, "unknown 3 node-cap")


def _tt_chain(n: int) -> str:
    return "(imp (atom (tt)) " * n + "(atom (tt))" + ")" * n


@pytest.mark.parametrize("depth", [1500, 100_000])
def test_classify_handles_deep_input(depth, tmp_path, capsys):
    src = tmp_path / "deep.frm"
    src.write_text(_tt_chain(depth), encoding="utf-8")
    code, out, err = run(capsys, "classify", str(src))
    assert code == 0 and err == ""
    assert out.split() == [f"{c}=yes" for c in ("Q", "QF", "D", "G", "R", "I")]


def test_deep_instance_checks(tmp_path, capsys):
    # Instantiating a quantifier substitutes into its body, on an explicit
    # stack, so the check does not meet the recursion limit.
    x = "(var x 0 (bool))"
    body = "(imp (atom (tt)) " * 1500 + f"(atom {x})" + ")" * 1500
    src = tmp_path / "deep.prf"
    src.write_text(f"(inst (gen {x} (lam-pf (assume u 0 {body}) "
                   f"(assume u 0 {body}))) (tt))", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src), "--theory", "NA")
    assert (code, err) == (0, "")
    theory, concl = out.strip().split(" ⊢ ")
    b = parse_formula(_tt_chain(1500))
    assert (theory, parse_formula(concl)) == ("NA", Imp(b, b))


def test_deep_input_exits_with_depth_error(tmp_path, capsys):
    # Putting x for y under 1,500 binders over x renames each of them, and
    # each renamed binder's body is substituted by a call of its own.
    x, y = "(var x 0 (bool))", "(var y 0 (bool))"
    body = f"(all {x} " * 1500 + f"(atom {y})" + ")" * 1500
    src = tmp_path / "deep.prf"
    src.write_text(f"(inst (gen {y} (lam-pf (assume u 0 {body}) "
                   f"(assume u 0 {body}))) {x})", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src), "--theory", "NA")
    assert code == 1
    assert out.startswith("depth-error: ")
    assert len(out.splitlines()) == 1
    assert err == ""


def test_gg_prints_deep_input(tmp_path, capsys):
    # The printer walks with an explicit stack, so gg prints the
    # translation of a deep formula and its equivalence proof.
    text = _tt_chain(1500)
    src = tmp_path / "deep.frm"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "gg", str(src))
    assert (code, err) == (0, "")
    g, proof = out.splitlines()
    a = parse_formula(text)
    assert parse_formula(g) is gg_translate(a)
    p = parse_proof(proof, TheoryId.NA)
    assert p.conclusion is prove_gg_equiv(a).conclusion
    assert not p.free_assumptions


@pytest.mark.parametrize("theory", ["HA", "NA"])
def test_deep_efq_prints_a_proof_that_rechecks(theory, tmp_path, capsys):
    # The synthesizers keep their goals on an explicit stack, and proofs
    # are printed, read and rechecked by walks that do not recurse.
    text = _tt_chain(1500)
    src = tmp_path / "deep.frm"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "efq", str(src), "--theory", theory)
    assert (code, err) == (0, "")
    p = recheck(parse_proof(out.strip(), TheoryId(theory)))
    assert p.conclusion == Imp(FALSITY, parse_formula(text))
    assert not p.free_assumptions
