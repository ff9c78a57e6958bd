"""Proof kernel and refined A-translation for NA/MA/HA/PA in finite types."""

from .errors import (CertificateError, ClassError, EigenvariableError,
                     EmptyGoalError, KernelError, LanguageError, ParseError,
                     ShapeError, TheoryError)
from .syntax import (BOOL, FF, NAT, SUCC, TT, ZERO, App, Arrow, BoolType,
                     Const, Lam, ListType, NameSupply, NatType, ObjType,
                     ObjVar, Prod, Term, TypeVar, Var, app, arrow,
                     free_term_vars, type_of)
from .formula import (BOT, FALSITY, TRUTH, All, And, Atom, Bot, Ex, Formula,
                      Imp, Or, TheoryId, alpha_eq, alpha_eq_formula,
                      formula_free_vars, formula_size, gg_translate, imp,
                      in_language, min_language, neg, subst, subst_bot,
                      subst_bot_falsity, subst_formula_var, subst_term,
                      theory_join, theory_leq, weak_and, weak_exists, weak_or)
from .kernel import (AssumptionVar, AxiomId, BoolCases, BotPlus, ExElim,
                     ExIntro, IndList, IndNat, Judgement, Lem, OrElim,
                     OrIntroL, OrIntroR, Proof, Truth, all_elim, all_intro,
                     and_intro, assume, axiom, axiom_schema, build,
                     fresh_assumption, imp_elim, imp_elims, imp_intro,
                     imp_intros, inspect, proj, recheck)
from .derived import (prove_case_distinction, prove_efq, prove_gg_equiv,
                      subst_bot_proof, subst_objvar_proof)
from .classes import (ClassId, ClassReport, certify, classify, format_report,
                      in_Q, in_QF)
from .atrans import (TranslationInput, a_translate_classified, pack_premises,
                     refined_a_translate)
from .search import (Derivable, GenConfig, SearchVerdict, Unknown,
                     bounded_derivable, gen_formula, gen_proof)
from .sexpr import (parse_formula, parse_proof, parse_term, parse_type,
                    print_formula, print_proof, print_term, print_type,
                    read_sexpr)

__version__ = "0.1.0"
