"""Batch command line interface.

Each invocation reads one S-expression file, runs one operation, and prints
the result.  Exit status 0 means success, 1 a domain failure (reported as a
one-line reason code), 2 a parse or usage error.  All checking is done by
the kernel; the CLI adds none of its own.  Subcommands import the modules
they use, so ``check`` loads only the reader and the kernel.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import (CertificateError, ClassError, EigenvariableError,
                     EmptyGoalError, KernelError, LanguageError, ParseError,
                     ShapeError, TheoryError)
from .formula import TheoryId, gg_translate, in_language, theory_leq
from .kernel import inspect
from .sexpr import (parse_formula, parse_proof, print_form,
                    print_formula, print_proof)

_REASONS = {
    TheoryError: "theory-error",
    LanguageError: "language-error",
    EigenvariableError: "eigenvariable-error",
    ShapeError: "shape-error",
    ClassError: "class-error",
    CertificateError: "certificate-error",
    EmptyGoalError: "empty-goal-error",
    TypeError: "type-error",
    RecursionError: "depth-error",
    MemoryError: "memory-error",
}


def _reason(exc: Exception) -> str:
    for cls, code in _REASONS.items():
        if isinstance(exc, cls):
            return code
    return "kernel-error"


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        Path(out).write_text(text + "\n", encoding="utf-8")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at the null device, so that
        # the flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _cmd_check(args) -> str:
    proof = parse_proof(Path(args.path).read_text(encoding="utf-8"),
                        TheoryId(args.theory))
    if not theory_leq(proof.min_theory, TheoryId(args.theory)):
        raise TheoryError(
            f"proof needs {proof.min_theory.value}, requested {args.theory}")
    j = inspect(proof)
    lines = [print_form(u) for u, _ in
             sorted(j.assumptions, key=lambda p: (p[0].name, p[0].index))]
    lines.append(f"{args.theory} ⊢ {print_formula(j.conclusion)}")
    return "\n".join(lines)


def _cmd_classify(args) -> str:
    from .classes import classify, format_report
    a = parse_formula(Path(args.path).read_text(encoding="utf-8"))
    return format_report(classify(a))


def _cmd_translate(args) -> str:
    from .atrans import (TranslationInput, _premise_shape,
                         a_translate_classified, refined_a_translate)
    text = Path(args.premise).read_text(encoding="utf-8")
    premise = parse_proof(text, TheoryId.MA)
    d, g, x = _premise_shape(premise)
    if args.mode == "classified":
        result = a_translate_classified(d, g, x, premise)
    else:
        if not (args.cert_d and args.cert_g):
            raise CertificateError(
                "certified mode needs --cert-d and --cert-g")
        cert_d = parse_proof(Path(args.cert_d).read_text(encoding="utf-8"),
                             TheoryId.MA)
        cert_g = parse_proof(Path(args.cert_g).read_text(encoding="utf-8"),
                             TheoryId.MA)
        inp = TranslationInput(premise, d, g, x, cert_d, cert_g)
        result = refined_a_translate(inp)
    return print_proof(result)


def _cmd_gg(args) -> str:
    from .derived import prove_gg_equiv
    a = parse_formula(Path(args.path).read_text(encoding="utf-8"))
    lines = [print_formula(gg_translate(a))]
    if in_language(a, TheoryId.NA):  # the equivalence is proved over NA
        lines.append(print_proof(prove_gg_equiv(a)))
    return "\n".join(lines)


def _cmd_efq(args) -> str:
    from .derived import prove_efq
    a = parse_formula(Path(args.path).read_text(encoding="utf-8"))
    return print_proof(prove_efq(a, TheoryId(args.theory)))


def _cmd_search(args) -> str:
    from .search import Derivable, Unknown, bounded_derivable
    a = parse_formula(Path(args.path).read_text(encoding="utf-8"))
    verdict = bounded_derivable(a, TheoryId(args.theory), args.depth)
    match verdict:
        case Derivable(witness):
            return f"derivable\n{print_proof(witness)}"
        case Unknown(depth, node_cap_hit):
            return f"unknown {depth}" + (" node-cap" if node_cap_hit else "")
    raise AssertionError("unreachable")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minarith",
        description="proof checking and translation over S-expression files")
    sub = parser.add_subparsers(dest="command", required=True)
    theories = [t.value for t in TheoryId]

    p = sub.add_parser("check", help="re-derive and print a judgement")
    p.add_argument("path")
    p.add_argument("--theory", choices=theories, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="print a class report for a formula")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("translate", help="run the refined A-translation")
    p.add_argument("premise")
    p.add_argument("--mode", choices=["classified", "certified"],
                   default="classified")
    p.add_argument("--cert-d")
    p.add_argument("--cert-g")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("gg", help="negative translation, plus equivalence on NA")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gg)

    p = sub.add_parser("efq", help="synthesize an ex-falso proof")
    p.add_argument("path")
    p.add_argument("--theory", choices=theories, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_efq)

    p = sub.add_parser("search", help="bounded proof search")
    p.add_argument("path")
    p.add_argument("--theory", choices=theories, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        try:
            _emit(args.func(args), args.out)
        except (KernelError, TypeError, RecursionError, MemoryError) as e:
            _emit(f"{_reason(e)}: {str(e) or type(e).__name__}", None)
            return 1
    except ParseError as e:
        print(f"parse-error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io-error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
