"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from minarith import ClassId, print_formula  # noqa: E402


@pytest.fixture
def small_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_ITEMS", 6)
    monkeypatch.setattr(run, "COUNT_ITEMS", 6)
    monkeypatch.setattr(run, "WARMUP_SECONDS", 0.0)


class WrongCertificates(workloads.Certify):
    """Returns, for every class, a certificate of some other formula."""

    def run(self, a, tr):
        report, certs = super().run(a, tr)
        other = workloads.gen(7, 12, workloads.MA)
        wrong = workloads.certify(other, ClassId.DEFINITE,
                                  workloads.NameSupply(0))
        return report, {cid: wrong for cid in certs}


def test_wrong_conclusion_is_a_failed_item(small_runs, tmp_path):
    good = run.run_items(workloads.Certify(ROOT, tmp_path), 3, 0.0, False)
    assert good["failures"] == []
    bad = run.run_items(WrongCertificates(ROOT, tmp_path), 3, 0.0, False)
    n = len(bad["latency"])
    # Items whose formula is in no class return no certificate to get wrong.
    assert len(bad["failures"]) >= n // 2
    assert all("concludes the wrong formula" in f or "disagrees" in f
               for f in bad["failures"])


def test_raising_item_is_a_failed_item(small_runs, tmp_path):
    class Raises(workloads.GGRoundTrip):
        def run(self, a, tr):
            raise RuntimeError("boom")

    rec = run.run_items(Raises(ROOT, tmp_path), 0, 0.0, False)
    assert len(rec["failures"]) == len(rec["latency"]) == 6


def test_inputs_depend_on_seed_alone(tmp_path):
    def first(seed, warmup=False):
        wl = workloads.GGRoundTrip(ROOT, tmp_path)
        return [print_formula(a) for a in
                itertools.islice(wl.inputs(seed, warmup), 20)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    # timed and warm-up inputs come from disjoint generator seeds
    timed = itertools.islice(workloads.formula_seeds("x", 5, False), 100)
    warm = itertools.islice(workloads.formula_seeds("x", 5, True), 100)
    assert {s % 2 for s in timed} == {0} and {s % 2 for s in warm} == {1}


def test_stratified_order_is_a_permutation_of_each_chunk():
    import random
    source = list(range(64 * 3))
    out = list(itertools.islice(
        workloads.stratified(iter(source), lambda c: [-v for v in c], 6,
                             random.Random(1)), 64 * 3))
    for k in range(3):
        assert sorted(out[64 * k:64 * (k + 1)]) == source[64 * k:64 * (k + 1)]
    # a prefix of 8 holds two neighbouring ranks from each quarter
    ranks = sorted(sorted(out[:64]).index(v) for v in out[:8])
    assert [r // 16 for r in ranks] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert all(ranks[k + 1] == ranks[k] + 1 for k in range(0, 8, 2))


def test_trace_counts_repeat_exactly(small_runs, tmp_path):
    def counts():
        rec = run.run_items(workloads.GGRoundTrip(ROOT, tmp_path), 11, 0.0,
                            True)
        assert rec["failures"] == []
        return rec["counts"]

    first = counts()
    assert first["recheck_tree"] > 5 * first["recheck_dag"] > 0
    assert counts() == first


def test_ladder_counts_repeat_across_processes():
    outs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--ladder"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        outs.append([json.loads(line) for line in done.stdout.split("\n")
                     if line])
    assert outs[0] == outs[1]
    assert [r["depth"] for r in outs[0]] == [6, 8, 10]


def test_proof_size_counts_shared_nodes_once():
    from minarith import TheoryId, Truth, and_intro, axiom
    leaf = axiom(Truth(), TheoryId.NA)
    pair = and_intro(leaf, leaf)
    assert workloads.proof_size(and_intro(pair, pair)) == (3, 7)


def test_exits_nonzero_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in ("run.py", "workloads.py"):
        (copy / f).write_text((BENCH / f).read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload, trace, section", [
    ("certify", 0, "end_to_end"), ("gg_roundtrip", 1, "per_layer")])
def test_result_line_names_the_declared_metrics(small_runs, monkeypatch,
                                                 capsys, workload, trace,
                                                 section):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds",
                     "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values()
               if section == "end_to_end")
