"""Proof walks: deep proofs at the default recursion limit, and shared DAGs
visited once per distinct node."""

from minarith import (TRUTH, Imp, TheoryId, parse_proof,
                      print_formula, print_proof, prove_efq, prove_gg_equiv,
                      read_sexpr, recheck, subst_bot_proof)
from minarith.syntax import fold

from conftest import unlabel


def distinct_nodes(m) -> int:
    seen, stack = set(), [m]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def ladder(depth: int):
    """GG proof of ((...((tt -> tt) -> tt) ...) -> tt), depth implications."""
    a = TRUTH
    for _ in range(depth):
        a = Imp(a, TRUTH)
    return prove_gg_equiv(a)


def test_deep_chain_round_trip():
    # tt -> (tt -> ... tt), 600 deep: every walk here used to overflow
    # the default recursion limit somewhere between 164 and 330 levels.
    a = TRUTH
    for _ in range(600):
        a = Imp(TRUTH, a)
    p = prove_efq(a, TheoryId.NA)
    text = print_proof(p)
    q = parse_proof(text, TheoryId.NA)
    assert print_proof(q) == text
    # Dataclass equality recurses too deep here; compare printed forms.
    want = print_formula(p.conclusion)
    assert print_formula(recheck(q).conclusion) == want
    assert print_formula(subst_bot_proof(q, TRUTH).conclusion) == want


def test_ladder_walks_keep_sharing():
    p = ladder(10)
    assert distinct_nodes(p) == 377
    assert distinct_nodes(recheck(p)) <= 377
    assert distinct_nodes(subst_bot_proof(p, TRUTH)) <= 377
    text = print_proof(p)
    assert len(text.encode()) == 5_155
    # 26,040 bytes with only the shared subproofs labelled.
    assert len(unlabel(text).encode()) == 26_040


def test_ladder_round_trip_keeps_sharing():
    text = print_proof(ladder(10))
    q = parse_proof(text, TheoryId.NA)
    assert distinct_nodes(q) == 377
    assert distinct_nodes(recheck(q)) == 377
    assert print_proof(q) == text


def test_map_proof_visits_each_distinct_node_once():
    p = ladder(6)
    visits = []
    fold(p, lambda node, kids: visits.append(node))
    assert len(visits) == len({id(v) for v in visits}) == distinct_nodes(p)


def test_reader_is_not_limited_by_nesting():
    form = read_sexpr("(" * 20_000 + "x" + ")" * 20_000)
    for _ in range(20_000):
        (form,) = form
    assert form == "x"
