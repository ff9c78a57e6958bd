"""The refined A-translation pipeline.

From an MA proof of ``D -> forall x (G -> bot) -> bot`` together with
certificates for ``D`` and ``G`` the pipeline produces an HA proof of the
strong existence ``D^F -> exists x G^F``.  The certificates are inputs; the
classified entry point synthesizes them from the formula classes.
"""

from __future__ import annotations

from .errors import CertificateError, ClassError, EmptyGoalError, ShapeError
from .formula import (BOT, TRUTH, All, And, Bot, Ex, Formula, Imp, TheoryId,
                      alpha_eq_formula, brief_repr, subst_bot_falsity,
                      theory_leq)
from .kernel import (ExIntro, Proof, all_elim, all_intro, assume, axiom,
                     fresh_assumption, imp_elim, imp_elims, imp_intro)
from .syntax import NameSupply, Node, ObjVar, Var, node
from .derived import subst_bot_proof
from .classes import ClassId, certify


@node
class TranslationInput(Node):
    """Premise proof plus the two class certificates of Theorem 4.1."""

    premise_proof: Proof
    D: Formula
    G: Formula
    x: ObjVar
    cert_D: Proof
    cert_G: Proof


def _premise_shape(m: Proof) -> tuple[Formula, Formula, ObjVar]:
    """Read D, G, x off a conclusion of the form D -> (forall x (G -> bot) -> bot)."""
    match m.conclusion:
        case Imp(d, Imp(All(x, Imp(g, Bot())), Bot())):
            return d, g, x
    raise ShapeError(
        "premise conclusion must have the shape D -> (forall x (G -> bot)) -> bot")


def _validate(inp: TranslationInput) -> tuple[Formula, Formula]:
    """Check the input; return D^F and G^F."""
    if inp.premise_proof.free_assumptions:
        raise ShapeError("the premise proof must be closed")
    if not theory_leq(inp.premise_proof.min_theory, TheoryId.MA):
        raise ShapeError("the premise proof must live in NA or MA")
    d, g, x = _premise_shape(inp.premise_proof)
    if not (alpha_eq_formula(d, inp.D) and alpha_eq_formula(g, inp.G)
            and x == inp.x):
        raise ShapeError("stated D, G, x disagree with the premise conclusion")
    if inp.cert_D.free_assumptions or inp.cert_G.free_assumptions:
        raise CertificateError("certificates must be closed proofs")
    df = subst_bot_falsity(inp.D)
    gf = subst_bot_falsity(inp.G)
    want_d = Imp(df, inp.D)
    want_g = All(inp.x, Imp(inp.G, Imp(Imp(gf, BOT), BOT)))
    if not alpha_eq_formula(inp.cert_D.conclusion, want_d):
        raise CertificateError(
            f"definite certificate must conclude {brief_repr(want_d)}")
    if not alpha_eq_formula(inp.cert_G.conclusion, want_g):
        raise CertificateError(
            f"goal certificate must conclude {brief_repr(want_g)}")
    return df, gf


def refined_a_translate(inp: TranslationInput,
                        supply: NameSupply | None = None) -> Proof:
    """Closed HA proof of D^F -> exists x G^F; ``supply`` is ignored."""
    supply = NameSupply()  # the four assumptions' indices
    df, gf = _validate(inp)
    g, x = inp.G, inp.x

    # Step 1: the MA proof of (4.1), D^F -> (forall x (G^F -> bot)) -> bot.
    u = fresh_assumption("u", df, supply)
    v = fresh_assumption("v", All(x, Imp(gf, BOT)), supply)
    w = fresh_assumption("w", g, supply)
    refute_g = imp_intro(w, imp_elims(
        all_elim(inp.cert_G, Var(x)),
        assume(w),
        all_elim(assume(v), Var(x))))
    body = imp_elims(
        inp.premise_proof,
        imp_elim(inp.cert_D, assume(u)),
        all_intro(x, refute_g))
    step1 = imp_intro(u, imp_intro(v, body))

    # Step 2: substitute the strong existence for bot.
    goal = Ex(x, gf)
    step2 = subst_bot_proof(step1, goal)

    # Step 3: discharge forall x (G^F -> exists x G^F) via the intro axiom.
    intro = axiom(ExIntro(gf, x, Var(x)), TheoryId.HA)
    p_ex = all_intro(x, intro)
    u2 = fresh_assumption("u", df, supply)
    return imp_intro(u2, imp_elims(step2, assume(u2), p_ex))


def a_translate_classified(d: Formula, g: Formula, x: ObjVar,
                           premise_proof: Proof,
                           supply: NameSupply | None = None) -> Proof:
    """Run the pipeline with certificates synthesized from the classes;
    ``supply`` is ignored."""
    cert_d = certify(d, ClassId.DEFINITE)
    if cert_d is None:
        raise ClassError("the premise formula is not definite")
    cert_g = certify(g, ClassId.GOAL)
    if cert_g is None:
        raise ClassError("the goal formula is not a goal formula")
    # The synthesized certificate is closed, so it generalizes over x.
    cert_g = all_intro(x, cert_g)
    inp = TranslationInput(premise_proof, d, g, x, cert_d, cert_g)
    return refined_a_translate(inp)


def pack_premises(ds, gs) -> tuple[Formula, Formula]:
    """Fold premise lists into the single-premise form of the Theorem."""
    ds = tuple(ds)
    gs = tuple(gs)
    if not gs:
        raise EmptyGoalError("at least one goal formula is required")

    def conj(formulas: tuple[Formula, ...]) -> Formula:
        result = formulas[-1]
        for f in reversed(formulas[:-1]):
            result = And(f, result)
        return result

    d = TRUTH if not ds else conj(ds)
    return d, conj(gs)
