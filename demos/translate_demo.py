"""End-to-end refined A-translation on a tiny hand-built premise.

The premise proves  T -> (forall n (T -> bot)) -> bot  by instantiating the
quantifier at zero.  The pipeline turns it into a closed HA proof of
T -> exists n T.

Run with: python3 demos/translate_demo.py
"""

from minarith import (All, BOT, Imp, NAT, NameSupply, ObjVar, TheoryId,
                      TRUTH, Truth, ZERO, a_translate_classified, all_elim,
                      assume, axiom, fresh_assumption, imp_elim, imp_intros,
                      print_formula, print_proof, recheck)


def main() -> None:
    supply = NameSupply()
    x = ObjVar("n", supply.draw(), NAT)
    u = fresh_assumption("u", TRUTH, supply)
    v = fresh_assumption("v", All(x, Imp(TRUTH, BOT)), supply)
    premise = imp_intros(
        imp_elim(all_elim(assume(v), ZERO),
                 axiom(Truth(), TheoryId.MA)),
        u, v)
    print("premise conclusion:")
    print(" ", print_formula(premise.conclusion))

    result = a_translate_classified(TRUTH, TRUTH, x, premise)
    recheck(result)
    print("translated conclusion (closed, theory", result.min_theory.value,
          "or below):")
    print(" ", print_formula(result.conclusion))
    print("proof term:")
    print(" ", print_proof(result))


if __name__ == "__main__":
    main()
