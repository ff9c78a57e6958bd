"""Bounded proof search and random generation, used as test oracles.

The searcher is goal-directed, sound, and deliberately incomplete: every
positive verdict carries a kernel-checked witness, and a negative verdict
only reports which limit ran out, the depth or the node cap, never
non-derivability.  Induction axioms are excluded; instantiation terms come
from a finite pool.
"""

from __future__ import annotations

import random
from itertools import count

from .errors import LanguageError
from .formula import (BOT, FALSITY, All, And, Atom, Bot, Ex, Formula,
                      Imp, Or, TheoryId, alpha_eq_formula, formula_size,
                      in_language, neg, subst_formula_var)
from .kernel import (BotPlus, ExIntro, Lem, OrIntroL, OrIntroR,
                     Proof, Truth, all_elim, all_intro, and_intro, assume,
                     axiom, fresh_assumption, imp_elim, imp_intro, proj)
from .syntax import (BOOL, FF, NAT, TT, ZERO, NameSupply, Node,
                     ObjType, ObjVar, Term, Var, fold, node)


# ---------------------------------------------------------------------------
# Verdicts


class SearchVerdict(Node):
    """Base class of the two search outcomes."""

    __slots__ = ()


@node
class Derivable(SearchVerdict):
    witness: Proof


@node
class Unknown(SearchVerdict):
    """No proof within the depth; ``node_cap_hit`` if the cap cut it short."""

    depth_exhausted: int
    node_cap_hit: bool = False


# ---------------------------------------------------------------------------
# Term pool


def _term_pool(a: Formula) -> tuple[Term, ...]:
    acc: set[Term] = {TT, FF, ZERO}

    def visit(n, _):
        if isinstance(n, Term):
            acc.add(n)

    fold(a, visit)
    return tuple(sorted(acc, key=repr))


# ---------------------------------------------------------------------------
# Backward search


class _Budget:
    def __init__(self, cap: int):
        self.left = cap

    def spend(self) -> bool:
        """Take one node; once the cap is spent, refuse and go negative."""
        self.left -= 1
        return self.left >= 0


def bounded_derivable(a: Formula, th: TheoryId, depth: int,
                      node_cap: int = 20000) -> SearchVerdict:
    """Search for a closed proof of ``a`` in ``th`` up to the given depth."""
    if not in_language(a, th):
        raise LanguageError(f"formula is not in the language of {th.value}")
    supply = NameSupply()
    pool = _term_pool(a)
    budget = _Budget(node_cap)
    witness = _prove((), a, th, depth, pool, supply, budget)
    if witness is None:
        return Unknown(depth, budget.left < 0)
    return Derivable(witness)


def _pool_of_type(pool: tuple[Term, ...], ty: ObjType) -> tuple[Term, ...]:
    return tuple(t for t in pool if t.ty == ty)


def _prove(ctx, goal: Formula, th: TheoryId, depth: int, pool, supply,
           budget) -> Proof | None:
    if depth <= 0 or not budget.spend():
        return None
    for u in ctx:
        if alpha_eq_formula(u.formula, goal):
            return assume(u)

    match goal:
        case Atom(t) if t == TT:
            return axiom(Truth(), th)
        case Imp(p, c):
            u = fresh_assumption("h", p, supply)
            sub = _prove(ctx + (u,), c, th, depth - 1, pool, supply, budget)
            if sub is not None:
                return imp_intro(u, sub)
        case And(l, r):
            left = _prove(ctx, l, th, depth - 1, pool, supply, budget)
            if left is not None:
                right = _prove(ctx, r, th, depth - 1, pool, supply, budget)
                if right is not None:
                    return and_intro(left, right)
        case All(x, b):
            avoid = goal.fv.union(*(u.formula.fv for u in ctx))
            fresh = supply.fresh_avoiding(x, avoid)
            body = subst_formula_var(b, x, Var(fresh), supply)
            sub = _prove(ctx, body, th, depth - 1, pool, supply, budget)
            if sub is not None:
                return all_intro(fresh, sub)
        case Bot() if th == TheoryId.MA:
            sub = _prove(ctx, FALSITY, th, depth - 1, pool, supply, budget)
            if sub is not None:
                return imp_elim(axiom(BotPlus(), th), sub)
        case Or(l, r):
            if th == TheoryId.PA and alpha_eq_formula(goal, Or(l, neg(l))):
                return axiom(Lem(l), th)
            left = _prove(ctx, l, th, depth - 1, pool, supply, budget)
            if left is not None:
                return imp_elim(axiom(OrIntroL(l, r), th), left)
            right = _prove(ctx, r, th, depth - 1, pool, supply, budget)
            if right is not None:
                return imp_elim(axiom(OrIntroR(l, r), th), right)
        case Ex(x, b):
            for t in _pool_of_type(pool, x.ty):
                inst = subst_formula_var(b, x, t, supply)
                sub = _prove(ctx, inst, th, depth - 1, pool, supply, budget)
                if sub is not None:
                    return imp_elim(axiom(ExIntro(b, x, t), th), sub)
        case _:
            pass

    for u in ctx:
        found = _focus(assume(u), ctx, goal, th, depth - 1, pool, supply,
                       budget)
        if found is not None:
            return found
    return None


def _focus(p: Proof, ctx, goal: Formula, th: TheoryId, depth: int, pool,
           supply, budget) -> Proof | None:
    """Left rules: decompose a hypothesis towards the goal."""
    if alpha_eq_formula(p.conclusion, goal):
        return p
    if depth <= 0 or not budget.spend():
        return None
    match p.conclusion:
        case And(_, _):
            for side in (0, 1):
                found = _focus(proj(side, p), ctx, goal, th, depth - 1, pool,
                               supply, budget)
                if found is not None:
                    return found
        case Imp(prem, _):
            sub = _prove(ctx, prem, th, depth - 1, pool, supply, budget)
            if sub is not None:
                return _focus(imp_elim(p, sub), ctx, goal, th, depth - 1,
                              pool, supply, budget)
        case All(x, _):
            for t in _pool_of_type(pool, x.ty):
                found = _focus(all_elim(p, t), ctx, goal, th,
                               depth - 1, pool, supply, budget)
                if found is not None:
                    return found
        case _:
            pass
    return None


# ---------------------------------------------------------------------------
# Random formula generation


_DEFAULT_ATOMS = (TT, FF)


@node
class GenConfig(Node):
    seed: int
    max_size: int = 8
    language: TheoryId = TheoryId.MA
    atom_pool: tuple[Term, ...] = _DEFAULT_ATOMS


def gen_formula(cfg: GenConfig) -> Formula:
    """Deterministic-in-seed random formula within the configured language."""
    rng = random.Random(cfg.seed)
    out = _gen(rng, max(cfg.max_size, 1), cfg, (), count())
    assert in_language(out, cfg.language)
    assert formula_size(out) <= max(cfg.max_size, 1)
    return out


def _gen(rng, size: int, cfg: GenConfig, bound_bools, names) -> Formula:
    lang = cfg.language
    if size <= 1:
        if lang == TheoryId.MA and rng.random() < 0.25:
            return BOT
        choices = list(cfg.atom_pool)
        # bound boolean variables keep the forall-over-Bool clauses honest
        if bound_bools and rng.random() < 0.6:
            return Atom(Var(rng.choice(bound_bools)))
        return Atom(rng.choice(choices))

    # The order of this list fixes which connective each seed draws.
    strong = lang in (TheoryId.HA, TheoryId.PA)
    connectives = [All]
    if size >= 3:
        connectives += [Imp, Imp, And]
        if strong:
            connectives.append(Or)
    if strong:
        connectives.append(Ex)
    cls = rng.choice(connectives)
    if cls in (All, Ex):
        ty = BOOL if rng.random() < 0.7 else NAT
        x = ObjVar("x", next(names), ty)
        inner = bound_bools + (x,) if ty == BOOL else bound_bools
        return cls(x, _gen(rng, size - 1, cfg, inner, names))
    split = rng.randint(1, size - 2)
    return cls(_gen(rng, split, cfg, bound_bools, names),
               _gen(rng, size - 1 - split, cfg, bound_bools, names))


# ---------------------------------------------------------------------------
# Random proof generation (MA)


def gen_proof(seed: int, size: int = 12,
              supply: NameSupply | None = None) -> Proof:
    """Random MA proof built forward through the kernel constructors.

    Deterministic in the seed.  Biased so that bottom occurs somewhere in
    most outputs, which is what the bottom-substitution tests need.
    """
    rng = random.Random(seed)
    if supply is None:
        supply = NameSupply()
    return _gen_proof(rng, size, supply)


def _gen_proof(rng, size: int, supply: NameSupply) -> Proof:
    if size <= 1:
        match rng.randrange(4):
            case 0:
                return axiom(Truth(), TheoryId.MA)
            case 1:
                return axiom(BotPlus(), TheoryId.MA)
            case _:
                cfg = GenConfig(seed=rng.randrange(1 << 30), max_size=4)
                u = fresh_assumption("u", gen_formula(cfg), supply)
                return assume(u)

    match rng.randrange(6):
        case 0:  # discharge one open assumption, or a vacuous fresh one
            child = _gen_proof(rng, size - 1, supply)
            frees = sorted(child.free_assumptions,
                           key=lambda u: (u.name, u.index))
            if frees and rng.random() < 0.8:
                u = rng.choice(frees)
            else:
                cfg = GenConfig(seed=rng.randrange(1 << 30), max_size=3)
                u = fresh_assumption("v", gen_formula(cfg), supply)
            return imp_intro(u, child)
        case 1:
            half = max(size // 2, 1)
            return and_intro(_gen_proof(rng, half, supply),
                             _gen_proof(rng, size - 1 - half, supply))
        case 2:
            child = _gen_proof(rng, size - 1, supply)
            if isinstance(child.conclusion, And):
                return proj(rng.randrange(2), child)
            return child
        case 3:  # modus ponens against a freshly introduced implication
            half = max(size // 2, 1)
            arg = _gen_proof(rng, half, supply)
            body = _gen_proof(rng, size - 1 - half, supply)
            u = fresh_assumption("w", arg.conclusion, supply)
            return imp_elim(imp_intro(u, body), arg)
        case 4:  # vacuous generalization, sometimes instantiated again
            child = _gen_proof(rng, size - 1, supply)
            x = ObjVar("y", supply.draw(), BOOL)
            gen = all_intro(x, child)
            if rng.random() < 0.5:
                return all_elim(gen, rng.choice((TT, FF)))
            return gen
        case 5:
            child = _gen_proof(rng, size - 1, supply)
            u = fresh_assumption("u", BOT, supply)
            return imp_intro(u, child)
    raise AssertionError("unreachable")
