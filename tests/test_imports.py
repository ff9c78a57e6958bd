"""What importing the package and running the CLI load.

Each check runs in a fresh interpreter and compares sets of module names,
so it does not depend on timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = {"minarith.derived", "minarith.classes", "minarith.atrans",
        "minarith.search"}

# Every name the package exported before its submodules became lazy.
EXPORTED = """
CertificateError ClassError EigenvariableError EmptyGoalError KernelError
LanguageError ParseError ShapeError TheoryError BOOL FF NAT SUCC TT ZERO App
Arrow BoolType Const Lam ListType NameSupply NatType ObjType ObjVar Prod Term
TypeVar Var app arrow free_term_vars type_of BOT FALSITY TRUTH All And Atom
Bot Ex Formula Imp Or TheoryId alpha_eq alpha_eq_formula formula_free_vars
formula_size gg_translate imp in_language min_language neg subst subst_bot
subst_bot_falsity subst_formula_var subst_term theory_join theory_leq
weak_and weak_exists weak_or AssumptionVar AxiomId BoolCases BotPlus ExElim
ExIntro IndList IndNat Judgement Lem OrElim OrIntroL OrIntroR Proof Truth
all_elim all_intro and_intro assume axiom axiom_schema build fresh_assumption
imp_elim imp_elims imp_intro imp_intros inspect proj recheck
prove_case_distinction prove_efq prove_gg_equiv subst_bot_proof
subst_objvar_proof ClassId ClassReport certify classify format_report in_Q
in_QF TranslationInput a_translate_classified pack_premises
refined_a_translate Derivable GenConfig SearchVerdict Unknown
bounded_derivable gen_formula gen_proof parse_formula parse_proof parse_term
parse_type print_formula print_proof print_term print_type read_sexpr
""".split()


def run(code: str) -> list[str]:
    """The lines a fresh interpreter prints running ``code``."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    return done.stdout.splitlines()


def modules_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    return set(run(code + "\nimport sys\nprint(*sys.modules)")[-1].split())


def test_cli_import_loads_no_dataclasses_and_no_lazy_submodule():
    loaded = modules_after("import minarith.cli")
    assert not loaded & {"dataclasses", "inspect", *LAZY}
    assert {"minarith.kernel", "minarith.sexpr"} <= loaded


def test_check_loads_no_lazy_submodule(tmp_path):
    proof = tmp_path / "p.prf"
    proof.write_text("(axiom truth)", encoding="utf-8")
    loaded = modules_after(
        "from minarith.cli import main\n"
        f"assert main(['check', {str(proof)!r}, '--theory', 'NA']) == 0")
    assert not loaded & LAZY


def test_subcommands_load_what_they_use(tmp_path):
    formula = tmp_path / "f.fml"
    formula.write_text("(atom (tt))", encoding="utf-8")
    loaded = modules_after(
        "from minarith.cli import main\n"
        f"assert main(['classify', {str(formula)!r}]) == 0")
    assert loaded & LAZY == {"minarith.classes", "minarith.derived"}


def test_submodule_and_name_resolve_on_first_use():
    assert run("import minarith\n"
               "print(minarith.kernel.recheck.__module__)\n"
               "print(minarith.prove_efq.__module__)") == \
        ["minarith.kernel", "minarith.derived"]


def test_star_import_binds_every_exported_name():
    lines = run("from minarith import *\n"
                "import importlib, minarith\n"
                "for n in minarith.__all__:\n"
                "    m = importlib.import_module("
                "'minarith.' + minarith._MODULE_OF[n])\n"
                "    assert globals()[n] is getattr(m, n), n\n"
                "print(*minarith.__all__)")
    assert sorted(lines[-1].split()) == sorted(EXPORTED)


def test_dir_lists_exports_and_unknown_names_raise():
    import minarith
    assert set(EXPORTED) <= set(dir(minarith))
    with pytest.raises(AttributeError, match="no_such_name"):
        minarith.no_such_name
