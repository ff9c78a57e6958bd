"""Classify a handful of formulas and show their certificates.

Run with: python3 demos/classify_demo.py
"""

from minarith import (BOOL, BOT, ClassId, FALSITY, Imp, ObjVar,
                      TRUTH, All, Atom, Var, certify, classify, format_report,
                      print_formula, print_proof)

x = ObjVar("x", 0, BOOL)

SAMPLES = [
    BOT,
    TRUTH,
    FALSITY,
    Imp(BOT, FALSITY),
    All(x, Atom(Var(x))),
    Imp(All(x, Imp(Atom(Var(x)), BOT)), BOT),
]


def main() -> None:
    for a in SAMPLES:
        print(print_formula(a))
        print(format_report(classify(a)))
        cert = certify(a, ClassId.DEFINITE)
        if cert is not None:
            print("definiteness certificate:")
            print(" ", print_proof(cert))
        print()


if __name__ == "__main__":
    main()
