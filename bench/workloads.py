"""Seeded inputs, timed items and independent checks of the four workloads.

Each workload has three parts:

- ``inputs(seed, warmup)`` yields inputs made from the seed alone.  Timed
  and warm-up inputs come from disjoint generator seeds (even and odd), so
  the warm-up never fills a cache with a timed input.
- ``run(x, tr)`` is one timed item.  It calls the library only through the
  public names of ``minarith`` (the CLI only as a subprocess) and wraps each
  call in ``tr.call`` so that the traced run can time it.
- ``check(x, out, tr, counts)`` runs outside the timed region.  It checks the
  item's output against a target the benchmark builds itself, raises
  ``CheckFailed`` when it is wrong, and returns the printed bytes of the
  item.  When ``counts`` is a dict it also adds the exact size counts.

The library workloads take their timed inputs in stratified order (see
``stratified``): each chunk of generated inputs is sorted by a cost proxy
that the benchmark computes from the input alone, and emitted so that every
prefix samples the chunk's ranks evenly.  No input is dropped; the stream is
only reordered.  A run therefore sees nearly the same mix of cheap and
expensive inputs whatever its seed, which keeps these heavy-tailed workloads
steady at a few hundred items per run.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from minarith import (BOOL, BOT, FALSITY, FF, NAT, TRUTH, ZERO, All, And, Atom,
                      Bot, ClassId, Ex, GenConfig, Imp, NameSupply, ObjVar,
                      TheoryId, TranslationInput, Truth, all_elim, all_intro,
                      alpha_eq_formula, assume, axiom, certify, classify,
                      format_report, formula_size, fresh_assumption,
                      gen_formula, gg_translate, imp, imp_elim, imp_intros,
                      neg, parse_formula, parse_proof, print_formula,
                      print_proof, prove_gg_equiv, read_sexpr, recheck,
                      refined_a_translate, subst_bot_falsity, theory_leq)

NA, MA, HA = TheoryId.NA, TheoryId.MA, TheoryId.HA
# Generated variables are numbered from 0; these offsets keep the names the
# benchmark draws clear of them, as the acceptance tests do.
SUPPLY_START = 1_000_000
WITNESS_VAR_INDEX = 999_990


class CheckFailed(Exception):
    """An item's output failed the benchmark's independent check."""


def formula_seeds(tag: str, seed: int, warmup: bool):
    """Endless generator seeds: even for timed inputs, odd for warm-up."""
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield 2 * rng.getrandbits(40) + int(warmup)


def stratified(inputs, keys, chunk_bits: int, rng: random.Random):
    """Reorder an endless stream so that every prefix spreads over cost ranks.

    Each chunk of ``2**chunk_bits`` inputs is sorted by ``keys(chunk)``, a
    cost proxy per input, and cut into pairs of neighbouring ranks.  The
    pairs are emitted in bit-reversed order, each pair in random order.  The
    first k inputs of a chunk are then a systematic sample of its ranks, at
    the same quantiles whatever the seed, so a run sees nearly the same mix
    of cheap and expensive inputs whatever its seed and length.  Items 2j
    and 2j+1 are matched in cost, which the traced run uses to compare
    traced with untraced items.
    """
    pair_bits = chunk_bits - 1
    inputs = iter(inputs)
    while True:
        chunk = list(itertools.islice(inputs, 2 << pair_bits))
        key = keys(chunk)
        chunk = [chunk[j] for j in sorted(range(len(chunk)),
                                          key=key.__getitem__)]
        for i in range(1 << pair_bits):
            r = int(format(i, f"0{pair_bits}b")[::-1], 2)
            pair = chunk[2 * r:2 * r + 2]
            rng.shuffle(pair)
            yield from pair


def ordered(inputs, keys, chunk_bits: int, tag: str, seed: int,
            warmup: bool):
    """Timed inputs in stratified order; warm-up inputs as generated."""
    if warmup:
        return inputs
    return stratified(inputs, keys, chunk_bits,
                      random.Random(f"order:{tag}:{seed}"))


def class_sets(seeds: list[int], size: int) -> list[set]:
    """The ``ClassId``s that ``classify`` gives ``gen(seed, size, MA)``.

    Runs in a child interpreter, so that classifying inputs leaves no entry
    in the library's caches for the timed items.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, __file__, "classify", str(size)],
        input="\n".join(map(str, seeds)), capture_output=True, text=True,
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    lines = done.stdout.split("\n")[:len(seeds)]
    return [{ClassId(v) for v in line.split(",") if v} for line in lines]


def gg_weight(a) -> int:
    """Cost proxy for the GG round trip: expanded size of the GG proof.

    Each connective's equivalence proof uses each immediate subproof twice,
    so a node at depth k occurs 2**k times in the proof tree.  An atom other
    than ff needs about three times the proof of a connective or of ff.
    """
    total = 0
    stack = [(a, 0)]
    while stack:
        match stack.pop():
            case (Imp(p, c) | And(p, c)), depth:
                stack += ((p, depth + 1), (c, depth + 1))
                total += 2 ** depth
            case All(_, b), depth:
                stack.append((b, depth + 1))
                total += 2 ** depth
            case Atom(t), depth:
                total += 2 ** depth * (1 if t == FF else 3)
    return total


def case_split_weight(a) -> int:
    """Cost proxy for certificates that split on bool quantifiers.

    A leaf under k bool quantifiers is proved 2**k times.  The Q and QF
    certificates exist only for formulas without nat quantifiers, and Q only
    for formulas without bot.
    """
    total, has_nat, has_bot = 0, False, False
    stack = [(a, 0)]
    while stack:
        match stack.pop():
            case (Imp(p, c) | And(p, c)), splits:
                stack += ((p, splits), (c, splits))
            case All(x, b), splits:
                has_nat |= x.ty != BOOL
                stack.append((b, splits + (x.ty == BOOL)))
            case leaf, splits:
                has_bot |= isinstance(leaf, Bot)
                total += 2 ** splits
    return 0 if has_nat else total * (1 if has_bot else 2)


def case_distinction_weight(a, target: int = 1) -> int:
    """Cost proxy for a case distinction on a nat-free formula.

    It follows the recursion of the synthesized proof: an implication or a
    conjunction recurses into both sides, the left one with a target grown
    by the right side; a bool quantifier recurses into the conjunction of
    its two instances.  Each step weighs the formulas it writes down.
    """
    match a:
        case Imp(b, c):
            return (case_distinction_weight(b, target + size(c) + 2)
                    + case_distinction_weight(c, target)
                    + 12 * (size(a) + target) + 3 * size(c))
        case And(b, c):
            return (case_distinction_weight(b, target + size(c) + 1)
                    + case_distinction_weight(c, target)
                    + 12 * (size(a) + target))
        case All(_, b):
            return (case_distinction_weight(And(b, b), target)
                    + 12 * (size(a) + target))
    return 10 * (1 + target)


def size(a) -> int:
    match a:
        case Imp(b, c) | And(b, c):
            return 1 + size(b) + size(c)
        case All(_, b):
            return 1 + size(b)
    return 1


def certify_keys(chunk) -> list[tuple[int, int]]:
    """Cost proxies of (seed, formula) pairs for the certify workload.

    The Q and QF certificates are case distinctions, which carry most of
    the cost where they exist; the number of certificates sets the cost of
    the other formulas.
    """
    keys = []
    for (_, a), classes in zip(chunk, class_sets([s for s, _ in chunk], 12)):
        splits = 0
        if ClassId.QF in classes:
            splits = case_distinction_weight(a) * (
                2 if ClassId.Q in classes else 1)
        keys.append((splits, len(classes)))
    return keys


def proof_size(m) -> tuple[int, int]:
    """(DAG nodes, tree nodes) of a proof.

    DAG nodes are the distinct ``Proof`` objects reachable from ``m``; tree
    nodes count a shared subproof at every use.  Memoized and iterative.
    """
    tree: dict[int, int] = {}
    stack = [m]
    while stack:
        node = stack[-1]
        if id(node) in tree:
            stack.pop()
            continue
        pending = [c for c in node.children if id(c) not in tree]
        if pending:
            stack += pending
            continue
        stack.pop()
        tree[id(node)] = 1 + sum(tree[id(c)] for c in node.children)
    return len(tree), tree[id(m)]


def add_counts(counts, **values) -> None:
    if counts is not None:
        for key, value in values.items():
            counts[key] = counts.get(key, 0) + value


def count_recheck(counts, *proofs) -> None:
    if counts is None:
        return
    for m in proofs:
        dag, tree = proof_size(m)
        add_counts(counts, recheck_dag=dag, recheck_tree=tree)


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def require_closed(m, th: TheoryId, what: str) -> None:
    require(not m.free_assumptions, f"{what} has free assumptions")
    require(theory_leq(m.min_theory, th),
            f"{what} needs {m.min_theory.value}, above {th.value}")


def require_concludes(tr, m, want, what: str) -> None:
    same = tr.call("check/formula.alpha_eq_formula", alpha_eq_formula,
                   m.conclusion, want)
    require(same, f"{what} concludes the wrong formula")


def gen(seed: int, size: int, lang: TheoryId):
    return gen_formula(GenConfig(seed=seed, max_size=size, language=lang))


def trivial_goal_premise(d, x, supply):
    """MA proof of d -> (forall x (tt -> bot)) -> bot, refuting at 0."""
    u = fresh_assumption("u", d, supply)
    v = fresh_assumption("v", All(x, Imp(TRUTH, BOT)), supply)
    inner = imp_elim(all_elim(assume(v), ZERO, supply),
                     axiom(Truth(), MA))
    return imp_intros(inner, u, v)


def weak_existence_premise(d, g, x, supply):
    """MA proof of d -> (forall x (g -> bot)) -> bot for d = that premise."""
    u = fresh_assumption("u", d, supply)
    v = fresh_assumption("v", All(x, Imp(g, BOT)), supply)
    return imp_intros(imp_elim(assume(u), assume(v)), u, v)


# Class certificates conclude these formulas (criteria 5 and 6 of the
# acceptance tests); ``af`` is ``a`` with bot replaced by F.
CERTIFICATE_TARGETS = {
    ClassId.Q: lambda a, af: imp(Imp(a, BOT), Imp(neg(a), BOT), BOT),
    ClassId.QF: lambda a, af: imp(Imp(af, BOT), Imp(neg(af), BOT), BOT),
    ClassId.DEFINITE: lambda a, af: Imp(af, a),
    ClassId.GOAL: lambda a, af: Imp(a, Imp(Imp(af, BOT), BOT)),
    ClassId.RELEVANT: lambda a, af: Imp(Imp(neg(af), BOT), a),
    ClassId.IRRELEVANT: lambda a, af: Imp(a, af),
}


class Workload:
    """Seeded inputs, one timed item, and its check; see the module doc."""

    name = ""
    # The traced run alternates traced and untraced runs of this many items.
    trace_period = 1
    # Whose peak RSS counts: this process, or (for the CLI) its children.
    items_run_in = resource.RUSAGE_SELF

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch


class Certify(Workload):
    """MA formulas of size 12: classify, certify every class, recheck."""

    name = "certify"

    def inputs(self, seed: int, warmup: bool):
        seeded = ((s, gen(s, 12, MA))
                  for s in formula_seeds(self.name, seed, warmup))
        return (a for _, a in ordered(seeded, certify_keys, 13, self.name,
                                      seed, warmup))

    def run(self, a, tr):
        report = tr.call("classes.classify", classify, a)
        certs = {}
        for cid in ClassId:
            cert = tr.call("classes.certify", certify, a, cid,
                           NameSupply(SUPPLY_START))
            if cert is not None:
                certs[cid] = cert
        for cert in certs.values():
            tr.call("kernel.recheck", recheck, cert)
        return report, certs

    def check(self, a, out, tr, counts) -> int:
        report, certs = out
        require(not (report.in_R and not report.in_D)
                and not (report.in_I and not report.in_G),
                "classify breaks the subset laws R <= D and I <= G")
        af = tr.call("check/formula.subst_bot_falsity", subst_bot_falsity, a)
        printed = 0
        for cid, target in CERTIFICATE_TARGETS.items():
            cert = certs.get(cid)
            require((cert is not None) == report.flag(cid),
                    f"{cid.name}: certify disagrees with classify")
            if cert is None:
                continue
            require_closed(cert, MA, f"{cid.name} certificate")
            require_concludes(tr, cert, target(a, af),
                              f"{cid.name} certificate")
            printed += len(tr.call("check/sexpr.print_proof", print_proof,
                                   cert).encode())
        add_counts(counts, input_size=formula_size(a),
                   certify_calls=len(ClassId), certify_yield=len(certs),
                   printed=printed)
        count_recheck(counts, *certs.values())
        return printed


class GGRoundTrip(Workload):
    """NA formulas of size 12: GG equivalence, print, parse, recheck."""

    name = "gg_roundtrip"

    def inputs(self, seed: int, warmup: bool):
        formulas = (gen(s, 12, NA)
                    for s in formula_seeds(self.name, seed, warmup))
        return ordered(formulas, lambda chunk: list(map(gg_weight, chunk)),
                       12, self.name, seed, warmup)

    def run(self, a, tr):
        p = tr.call("derived.prove_gg_equiv", prove_gg_equiv, a,
                    NameSupply(SUPPLY_START))
        text = tr.call("sexpr.print_proof", print_proof, p)
        q = tr.call("sexpr.parse_proof", parse_proof, text, NA)
        # The built proof shares subproofs; the parsed one, today, does not.
        tr.call("kernel.recheck", recheck, p)
        return p, text, q

    def check(self, a, out, tr, counts) -> int:
        p, text, q = out
        again = tr.call("check/sexpr.print_proof", print_proof, q)
        require(again == text, "print(parse(print(p))) differs from print(p)")
        require_closed(q, NA, "parsed proof")
        require_concludes(tr, q, p.conclusion, "parsed proof")
        g = tr.call("check/formula.gg_translate", gg_translate, a)
        require_concludes(tr, p, And(Imp(a, g), Imp(g, a)), "GG proof")
        if tr.active:
            # The reader alone; parse_proof minus this is the kernel rebuild.
            tr.call("check/sexpr.read_sexpr", read_sexpr, text)
        printed = len(text.encode())
        if counts is not None:
            add_counts(counts, input_size=formula_size(a), printed=printed,
                       gg_dag=proof_size(p)[0])
            count_recheck(counts, p)
        return printed


@dataclass
class TranslateInput:
    family: int
    d: object
    g: object
    x: ObjVar
    premise: object
    supply: NameSupply


FAMILY_SIZE = {1: 10, 2: 9}
# Family 2 carries nearly all the cost and has the heavier tail, so it is
# sorted in larger chunks.
FAMILY_CHUNK_BITS = {1: 9, 2: 11}


def translate_input(family: int, seed: int) -> TranslateInput:
    supply = NameSupply(SUPPLY_START)
    if family == 1:
        d = gen(seed, FAMILY_SIZE[1], MA)
        x = ObjVar("n", WITNESS_VAR_INDEX, NAT)
        return TranslateInput(1, d, TRUTH, x,
                              trivial_goal_premise(d, x, supply), supply)
    g = gen(seed, FAMILY_SIZE[2], MA)
    x = ObjVar("b", WITNESS_VAR_INDEX, BOOL)
    d = Imp(All(x, Imp(g, BOT)), BOT)
    return TranslateInput(2, d, g, x,
                          weak_existence_premise(d, g, x, supply), supply)


def family_member(family: int, classes: set) -> bool:
    """The class conditions of criterion 8 on the generated formula.

    Family 1 needs D definite.  Family 2 needs G in G, and in R or in D and
    QF; then D = (forall x (G -> bot)) -> bot is definite too, because x does
    not occur in G.  An instance that broke this would fail its item.
    """
    if family == 1:
        return ClassId.DEFINITE in classes
    return ClassId.GOAL in classes and (
        ClassId.RELEVANT in classes
        or {ClassId.DEFINITE, ClassId.QF} <= classes)


def translate_key(x: TranslateInput, classes: set):
    """Cost proxy of an instance.

    Family 1 is cheap and nearly uniform.  In family 2, a goal formula in R
    gets its certificates from the R class, at a cost that grows with its
    case splits; any other needs a case distinction on G, which carries
    three quarters of the family's cost.
    """
    if x.family == 2 and ClassId.RELEVANT not in classes:
        return 1, case_distinction_weight(x.g)
    return 0, case_split_weight(x.g if x.family == 2 else x.d)


class Translate(Workload):
    """Criterion 8 families, 2:1: certify D and G, translate, print."""

    name = "translate"

    def family(self, family: int, seed: int, warmup: bool):
        candidates = formula_seeds(f"{self.name}{family}", seed, warmup)
        # Enough candidates for a chunk in one child call: at least 43 % of
        # them are members.
        batch = 64 if warmup else 3 << FAMILY_CHUNK_BITS[family]
        while True:
            seeds = list(itertools.islice(candidates, batch))
            classes_of = class_sets(seeds, FAMILY_SIZE[family])
            for s, classes in zip(seeds, classes_of):
                if family_member(family, classes):
                    yield translate_input(family, s), classes

    def inputs(self, seed: int, warmup: bool):
        streams = [
            (x for x, _ in ordered(
                self.family(family, seed, warmup),
                lambda chunk: [translate_key(*c) for c in chunk],
                FAMILY_CHUNK_BITS[family], f"{self.name}{family}", seed,
                warmup))
            for family in (1, 2)]
        # Two family-1 items per family-2 item keep the median latency
        # inside family 1 rather than on the gap between the families.
        first, second = streams
        for triple in zip(first, first, second):
            yield from triple

    def run(self, x: TranslateInput, tr):
        cert_d = tr.call("classes.certify", certify, x.d, ClassId.DEFINITE,
                         x.supply)
        cert_g = tr.call("classes.certify", certify, x.g, ClassId.GOAL,
                         x.supply)
        cert_g = tr.call("kernel.all_intro", all_intro, x.x, cert_g)
        inp = TranslationInput(x.premise, x.d, x.g, x.x, cert_d, cert_g)
        out = tr.call("atrans.refined_a_translate", refined_a_translate, inp,
                      x.supply)
        tr.call("kernel.recheck", recheck, out)
        text = tr.call("sexpr.print_proof", print_proof, out)
        return out, text

    def check(self, x: TranslateInput, out, tr, counts) -> int:
        m, text = out
        df = tr.call("check/formula.subst_bot_falsity", subst_bot_falsity,
                     x.d)
        gf = tr.call("check/formula.subst_bot_falsity", subst_bot_falsity,
                     x.g)
        require_closed(m, HA, "translation")
        require_concludes(tr, m, Imp(df, Ex(x.x, gf)), "translation")
        printed = len(text.encode())
        if counts is not None:
            add_counts(counts, input_size=formula_size(x.d) +
                       formula_size(x.g), certify_calls=2, certify_yield=2,
                       printed=printed, atrans_tree=proof_size(m)[1])
            count_recheck(counts, m)
        return printed


@dataclass
class CliInput:
    sub: str
    argv: list[str]
    expect: str       # "ok" or the reason code the call must print
    data: tuple = ()  # what the parent needs to check the output
    files: tuple = ()


class Cli(Workload):
    """A fixed mix of ``python -m minarith.cli`` calls, one at a time."""

    name = "cli"
    MIX = ("check", "classify", "check", "efq", "check", "gg", "check",
           "search", "check", "translate")
    trace_period = len(MIX)
    items_run_in = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, scratch: Path):
        super().__init__(root, scratch)
        fixtures = root / "tests" / "fixtures"
        self.fixtures = fixtures
        self.manifest = json.loads((fixtures / "fixtures.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.serial = itertools.count()

    def write(self, text: str) -> str:
        path = self.scratch / f"in{next(self.serial)}.sexp"
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def inputs(self, seed: int, warmup: bool):
        seeds = formula_seeds(self.name, seed, warmup)
        # The gg outputs carry most of the printed bytes and vary the most.
        gg_inputs = ordered((gen(s, 8, NA) for s in seeds),
                            lambda chunk: list(map(gg_weight, chunk)), 7,
                            self.name, seed, warmup)
        entries = itertools.cycle(self.manifest)
        skip = random.Random(f"order:{self.name}:{seed}").randrange(
            len(self.manifest))
        entries = itertools.islice(entries, skip, None)
        for sub in itertools.cycle(self.MIX):
            yield self.make(sub, seeds, entries, gg_inputs)

    def make(self, sub: str, seeds, entries, gg_inputs) -> CliInput:
        if sub == "check":
            e = next(entries)
            path = str(self.fixtures / e["file"])
            return CliInput(sub, [sub, path, "--theory", e["theory"]],
                            e["expect"], (e.get("conclusion"),))
        if sub == "translate":
            for s in seeds:
                d = gen(s, 8, MA)
                if classify(d).in_D:
                    break
            x = ObjVar("n", WITNESS_VAR_INDEX, NAT)
            premise = trivial_goal_premise(d, x, NameSupply(SUPPLY_START))
            path = self.write(print_proof(premise))
            return CliInput(sub, [sub, path], "ok", (d, x), (path,))
        if sub == "gg":
            a = next(gg_inputs)
            path = self.write(print_formula(a))
            return CliInput(sub, [sub, path], "ok", (a,), (path,))
        size, theory = {"classify": (12, None), "efq": (10, "MA"),
                        "search": (6, "MA")}[sub]
        a = gen(next(seeds), size, MA)
        if sub == "search":
            a = Imp(a, a)
        path = self.write(print_formula(a))
        argv = [sub, path] + (["--theory", theory] if theory else [])
        if sub == "search":
            argv += ["--depth", "6"]
        return CliInput(sub, argv, "ok", (a,), (path,))

    def run(self, x: CliInput, tr):
        argv = [sys.executable, "-m", "minarith.cli", *x.argv]
        return tr.call(f"cli.{x.sub}", subprocess.run, argv,
                       capture_output=True, env=self.env, cwd=self.root,
                       timeout=120)

    def check(self, x: CliInput, done, tr, counts) -> int:
        try:
            self.check_output(x, done, tr)
        finally:
            for path in x.files:
                os.unlink(path)
        if counts is not None and x.sub != "check":
            add_counts(counts, input_size=formula_size(x.data[0]))
        return len(done.stdout)

    def check_output(self, x: CliInput, done, tr) -> None:
        err = done.stderr.decode(errors="replace")
        require("Traceback" not in err, f"{x.sub} raised: {err[-200:]}")
        out = done.stdout.decode()
        want_code = 0 if x.expect == "ok" else 1
        require(done.returncode == want_code,
                f"{x.sub} exited {done.returncode}, wanted {want_code}")
        if x.expect != "ok":
            require(out.startswith(x.expect + ":"),
                    f"{x.sub} printed {out[:60]!r}, wanted {x.expect}")
            return
        lines = out.strip().split("\n")
        match x.sub:
            case "check":
                _, _, concl = lines[-1].partition(" ⊢ ")
                require(tr.call("check/formula.alpha_eq_formula",
                                alpha_eq_formula, parse_formula(concl),
                                parse_formula(x.data[0])),
                        "check printed the wrong conclusion")
            case "classify":
                require(out.strip() == format_report(classify(x.data[0])),
                        "classify printed a different report")
            case "efq":
                m = parse_proof(out, MA)
                require_closed(m, MA, "efq proof")
                require_concludes(tr, m, Imp(FALSITY, x.data[0]), "efq proof")
            case "gg":
                a = x.data[0]
                g = parse_formula(lines[0])
                require(alpha_eq_formula(g, gg_translate(a)),
                        "gg printed the wrong translation")
                m = parse_proof(lines[1], NA)
                require_closed(m, NA, "gg proof")
                require_concludes(tr, m, And(Imp(a, g), Imp(g, a)),
                                  "gg proof")
            case "search":
                if lines[0] == "derivable":
                    m = parse_proof("\n".join(lines[1:]), MA)
                    require_closed(m, MA, "search witness")
                    require_concludes(tr, m, x.data[0], "search witness")
                else:
                    require(lines[0].startswith("unknown"),
                            f"search printed {lines[0][:60]!r}")
            case "translate":
                d, v = x.data
                m = parse_proof(out, HA)
                require_closed(m, HA, "translation")
                require_concludes(tr, m, Imp(subst_bot_falsity(d),
                                             Ex(v, TRUTH)), "translation")


WORKLOADS = {w.name: w for w in (Certify, GGRoundTrip, Translate, Cli)}


if __name__ == "__main__" and sys.argv[1:2] == ["classify"]:
    for line in sys.stdin.read().split():
        report = classify(gen(int(line), int(sys.argv[2]), MA))
        print(",".join(c.value for c in ClassId if report.flag(c)))
