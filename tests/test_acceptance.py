"""Acceptance criteria for the release.

Each test covers one numbered criterion and emits a single PASS/FAIL line on
the real terminal, bypassing capture, so a plain pytest run shows the
scorecard.
"""

import time

from minarith import (All, Atom, BOOL, BOT, ClassId, Derivable, FALSITY,
                      GenConfig, Imp, NAT, NameSupply, ObjVar, TheoryId,
                      TRUTH, TT, Truth, Unknown, Var, ZERO, all_elim,
                      alpha_eq_formula, assume, axiom,
                      bounded_derivable, certify, classify,
                      fresh_assumption, gen_formula, gen_proof, gg_translate,
                      imp_elim, imp_intros, in_language, in_Q, neg,
                      a_translate_classified, parse_formula, parse_proof,
                      print_proof, prove_case_distinction, prove_efq,
                      prove_gg_equiv, recheck, subst_bot, subst_bot_falsity,
                      subst_bot_proof, theory_leq)
from minarith.cli import main as cli_main
from minarith.errors import (EigenvariableError, ShapeError, TheoryError)
from minarith.formula import Ex

from conftest import (check_fixture_proof, load_manifest, nameless,
                      remark_st_formula, remark_st_proof)

MANIFEST = load_manifest()


def report(capsys, number, title, failures, started):
    elapsed = time.monotonic() - started
    ok = not failures
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {number:2d}] {verdict} "
              f"({elapsed:5.1f}s) {title}")
    assert ok, failures[:5]


def test_criterion_01_kernel_fixture_corpus(capsys):
    t0 = time.monotonic()
    failures = []
    expected_errors = {
        "theory-error": TheoryError,
        "shape-error": ShapeError,
        "eigenvariable-error": EigenvariableError,
        "type-error": TypeError,
    }
    for entry in MANIFEST:
        th = TheoryId(entry["theory"])
        label = f"{entry['file']}:{entry['theory']}"
        try:
            proof = check_fixture_proof(entry["text"], th)
        except Exception as exc:
            if entry["expect"] == "ok":
                failures.append(f"{label}: unexpected {exc!r}")
            elif not isinstance(exc, expected_errors[entry["expect"]]):
                failures.append(f"{label}: wrong error {exc!r}")
            continue
        if entry["expect"] != "ok":
            failures.append(f"{label}: expected {entry['expect']}, checked")
        elif not alpha_eq_formula(proof.conclusion,
                                  parse_formula(entry["conclusion"])):
            failures.append(f"{label}: wrong conclusion")
    report(capsys, 1,
           f"kernel fixture corpus ({len(MANIFEST)} annotated proofs)",
           failures, t0)


def test_criterion_02_ex_falso(capsys):
    t0 = time.monotonic()
    failures = []
    for th in TheoryId:
        lang = th if th != TheoryId.PA else TheoryId.HA
        for seed in range(500):
            a = gen_formula(GenConfig(seed=seed, max_size=12, language=lang))
            p = prove_efq(a, th)
            if (p.free_assumptions
                    or not alpha_eq_formula(p.conclusion, Imp(FALSITY, a))
                    or not theory_leq(p.min_theory, th)):
                failures.append(f"{th.value}/{seed}")
                continue
            recheck(p)
    report(capsys, 2, "ex-falso on 500 formulas per theory", failures, t0)


def test_criterion_03_bot_substitution(capsys):
    t0 = time.monotonic()
    failures = []
    done = 0
    seed = 0
    while done < 500 and seed < 5000:
        m = gen_proof(seed, 10, NameSupply(10_000))
        seed += 1
        if m.min_theory != TheoryId.MA:
            continue
        done += 1
        for s in (TRUTH, FALSITY, Imp(TRUTH, BOT)):
            n = subst_bot_proof(m, s, NameSupply(80_000))
            recheck(n)
            if not alpha_eq_formula(n.conclusion,
                                    subst_bot(m.conclusion, s)):
                failures.append(f"seed {seed}: conclusion")
                continue
            key = lambda pair: (pair[0], repr(pair[1]))
            want = sorted(((u.name, nameless(subst_bot(u.formula, s)))
                           for u in m.free_assumptions), key=key)
            got = sorted(((u.name, nameless(u.formula))
                          for u in n.free_assumptions), key=key)
            if want != got:
                failures.append(f"seed {seed}: assumption images")
    if done < 500:
        failures.append(f"only {done} MA proofs generated")
    report(capsys, 3, "bottom substitution through 500 MA proofs",
           failures, t0)


def test_criterion_04_goedel_gentzen(capsys):
    t0 = time.monotonic()
    failures = []
    for seed in range(300):
        a = gen_formula(GenConfig(seed=seed, max_size=12,
                                  language=TheoryId.NA))
        p = prove_gg_equiv(a)
        recheck(p)
        if p.free_assumptions or not in_language(gg_translate(a),
                                                 TheoryId.NA):
            failures.append(f"seed {seed}")
    report(capsys, 4, "negative-translation equivalence on 300 NA formulas",
           failures, t0)


def test_criterion_05_class_certificate_agreement(capsys):
    t0 = time.monotonic()
    failures = []
    targets = {
        ClassId.DEFINITE: lambda a, af: Imp(af, a),
        ClassId.GOAL: lambda a, af: Imp(a, Imp(Imp(af, BOT), BOT)),
        ClassId.RELEVANT: lambda a, af: Imp(Imp(neg(af), BOT), a),
        ClassId.IRRELEVANT: lambda a, af: Imp(a, af),
    }
    for seed in range(1000):
        a = gen_formula(GenConfig(seed=seed, max_size=12,
                                  language=TheoryId.MA))
        r = classify(a)
        if (r.in_R and not r.in_D) or (r.in_I and not r.in_G):
            failures.append(f"seed {seed}: subset law")
            continue
        af = subst_bot_falsity(a)
        for cid, target in targets.items():
            cert = certify(a, cid)
            if (cert is not None) != r.flag(cid):
                failures.append(f"seed {seed}: {cid.name} disagreement")
                continue
            if cert is not None:
                recheck(cert)
                if (cert.free_assumptions
                        or not theory_leq(cert.min_theory, TheoryId.MA)
                        or not alpha_eq_formula(cert.conclusion,
                                                target(a, af))):
                    failures.append(f"seed {seed}: {cid.name} certificate")
    report(capsys, 5, "class/certificate agreement on 1000 MA formulas",
           failures, t0)


def test_criterion_06_case_distinction(capsys):
    t0 = time.monotonic()
    failures = []
    found = 0
    seed = 0
    targets = (FALSITY, BOT, TRUTH)
    while found < 200 and seed < 20_000:
        a = gen_formula(GenConfig(seed=seed, max_size=6,
                                  language=TheoryId.NA))
        seed += 1
        if not in_Q(a):
            continue
        found += 1
        for s in targets:
            th = TheoryId.MA if s == BOT else TheoryId.NA
            p = prove_case_distinction(a, s, th)
            recheck(p)
            from minarith import imp
            want = imp(Imp(a, s), Imp(neg(a), s), s)
            if p.free_assumptions or not alpha_eq_formula(p.conclusion, want):
                failures.append(f"seed {seed}, target {s}")
    if found < 200:
        failures.append(f"only {found} Q-formulas found")
    report(capsys, 6,
           "case distinction for 200 Q-formulas, 3 targets each",
           failures, t0)


def test_criterion_07_boundary_fixture(capsys):
    t0 = time.monotonic()
    failures = []
    st, _, _ = remark_st_formula()
    if classify(st).in_D:
        failures.append("classifier accepted the boundary formula")
    proof, st2 = remark_st_proof()
    recheck(proof)
    if proof.free_assumptions or proof.min_theory != TheoryId.MA:
        failures.append("hand proof is not a closed MA proof")
    want = Imp(subst_bot_falsity(st2), st2)
    if not alpha_eq_formula(proof.conclusion, want):
        failures.append("hand proof concludes the wrong formula")
    report(capsys, 7,
           "boundary fixture: not definite, yet provably recoverable",
           failures, t0)


def _translate_and_verify(d, g, x, prem, supply, failures, label):
    out = a_translate_classified(d, g, x, prem, supply)
    recheck(out)
    want = Imp(subst_bot_falsity(d), Ex(x, subst_bot_falsity(g)))
    if (out.free_assumptions
            or not theory_leq(out.min_theory, TheoryId.HA)
            or not alpha_eq_formula(out.conclusion, want)):
        failures.append(label)


def test_criterion_08_a_translation(capsys):
    t0 = time.monotonic()
    failures = []

    def tiny_premise(d, g, x, witness, supply):
        u = fresh_assumption("u", d, supply)
        v = fresh_assumption("v", All(x, Imp(g, BOT)), supply)
        inner = imp_elim(all_elim(assume(v), witness),
                         axiom(Truth(), TheoryId.MA))
        return imp_intros(inner, u, v)

    supply = NameSupply(1_000_000)

    # instance 1: trivial data over a numeric witness
    x = ObjVar("n", supply.draw(), NAT)
    prem = tiny_premise(TRUTH, TRUTH, x, ZERO, supply)
    _translate_and_verify(TRUTH, TRUTH, x, prem, supply, failures,
                          "instance 1")

    # instance 2: boolean witness with a variable goal
    b = ObjVar("b", supply.draw(), BOOL)
    g = Atom(Var(b))
    u = fresh_assumption("u", TRUTH, supply)
    v = fresh_assumption("v", All(b, Imp(g, BOT)), supply)
    prem = imp_intros(imp_elim(all_elim(assume(v), TT),
                               axiom(Truth(), TheoryId.MA)), u, v)
    _translate_and_verify(TRUTH, g, b, prem, supply, failures, "instance 2")

    # 10 generated definite premises with a trivial goal
    ran = 0
    seed = 0
    while ran < 10 and seed < 4000:
        d = gen_formula(GenConfig(seed=seed, max_size=8,
                                  language=TheoryId.MA))
        seed += 1
        if not classify(d).in_D:
            continue
        ran += 1
        x = ObjVar("n", supply.draw(), NAT)
        prem = tiny_premise(d, TRUTH, x, ZERO, supply)
        _translate_and_verify(d, TRUTH, x, prem, supply, failures,
                              f"family 1 seed {seed}")

    # 10 generated goals with a weak-existence definite premise
    ran2 = 0
    seed = 0
    while ran2 < 10 and seed < 6000:
        x = ObjVar("b", 999_990, BOOL)
        g = gen_formula(GenConfig(seed=seed, max_size=7,
                                  language=TheoryId.MA))
        seed += 1
        rg = classify(g)
        if not (rg.in_G and (rg.in_R or (rg.in_D and rg.in_QF))):
            continue
        d = Imp(All(x, Imp(g, BOT)), BOT)
        if not classify(d).in_D:
            continue
        ran2 += 1
        u = fresh_assumption("u", d, supply)
        v = fresh_assumption("v", All(x, Imp(g, BOT)), supply)
        prem = imp_intros(imp_elim(assume(u), assume(v)), u, v)
        _translate_and_verify(d, g, x, prem, supply, failures,
                              f"family 2 seed {seed}")

    if ran < 10 or ran2 < 10:
        failures.append(f"only {ran}+{ran2} generated instances ran")
    report(capsys, 8,
           "refined A-translation: 2 fixed + 20 generated instances",
           failures, t0)


def test_criterion_09_oracle_consistency(capsys):
    t0 = time.monotonic()
    failures = []
    for th in TheoryId:
        v = bounded_derivable(FALSITY, th, 8)
        if not isinstance(v, Unknown):
            failures.append(f"falsity claimed derivable in {th.value}")
    derivable = 0
    for seed in range(200):
        a = gen_formula(GenConfig(seed=seed, max_size=6,
                                  language=TheoryId.MA))
        goal = Imp(a, a)
        v = bounded_derivable(goal, TheoryId.MA, 6)
        if isinstance(v, Derivable):
            derivable += 1
            recheck(v.witness)
            if v.witness.free_assumptions or not alpha_eq_formula(
                    v.witness.conclusion, goal):
                failures.append(f"seed {seed}: bad witness")
    if derivable < 150:
        failures.append(f"only {derivable}/200 identities found")
    report(capsys, 9,
           "search oracle: falsity stays unknown, witnesses recheck",
           failures, t0)


def test_criterion_10_cli_round_trip(capsys, tmp_path):
    t0 = time.monotonic()
    failures = []
    for entry in MANIFEST:
        label = f"{entry['file']}:{entry['theory']}"
        src = tmp_path / "p.prf"
        src.write_text(entry["text"], encoding="utf-8")
        code = cli_main(["check", str(src), "--theory", entry["theory"],
                         "--out", str(tmp_path / "out.txt")])
        capsys.readouterr()
        want = 0 if entry["expect"] == "ok" else 1
        if code != want:
            failures.append(f"{label}: exit {code}, wanted {want}")
            continue
        if entry["expect"] == "ok":
            th = TheoryId(entry["theory"])
            p = parse_proof(entry["text"], th)
            q = parse_proof(print_proof(p), th)
            if not alpha_eq_formula(p.conclusion, q.conclusion):
                failures.append(f"{label}: round trip changed conclusion")
    report(capsys, 10, "CLI exit codes and serialization round trip",
           failures, t0)
