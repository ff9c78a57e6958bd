"""Proof kernel and refined A-translation for NA/MA/HA/PA in finite types.

Exported names are imported from their submodules on first use (PEP 562).
"""

import importlib

# Each submodule and the names it exports, up to the next ";".
_EXPORTS = """
errors: CertificateError ClassError EigenvariableError EmptyGoalError
    KernelError LanguageError ParseError ShapeError TheoryError;
syntax: BOOL FF NAT SUCC TT ZERO App Arrow BoolType Const Lam ListType
    NameSupply NatType ObjType ObjVar Prod Term TypeVar Var app arrow
    free_term_vars type_of;
formula: BOT FALSITY TRUTH All And Atom Bot Ex Formula Imp Or TheoryId
    alpha_eq alpha_eq_formula formula_free_vars formula_size gg_translate imp
    in_language min_language neg subst subst_bot subst_bot_falsity
    subst_formula_var subst_term theory_join theory_leq weak_and weak_exists
    weak_or;
kernel: AssumptionVar AxiomId BoolCases BotPlus ExElim ExIntro IndList IndNat
    Judgement Lem OrElim OrIntroL OrIntroR Proof Truth all_elim all_intro
    and_intro assume axiom axiom_schema build fresh_assumption imp_elim
    imp_elims imp_intro imp_intros inspect proj recheck;
derived: prove_case_distinction prove_efq prove_gg_equiv subst_bot_proof
    subst_objvar_proof;
classes: ClassId ClassReport certify classify format_report in_Q in_QF;
atrans: TranslationInput a_translate_classified pack_premises
    refined_a_translate;
search: Derivable GenConfig SearchVerdict Unknown bounded_derivable
    gen_formula gen_proof;
sexpr: parse_formula parse_proof parse_term parse_type print_formula
    print_proof print_term print_type read_sexpr
"""
_MODULE_OF = {name: module.rstrip(":") for module, *names
              in map(str.split, _EXPORTS.split(";")) for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)  # a submodule is its own module
    if module != "cli" and module not in _MODULE_OF.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
