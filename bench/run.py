"""Seeded benchmark of minarith: certify, GG round trip, A-translation, CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --ladder

Each run measures one workload as a closed loop with one client: an item
starts when the previous one has finished.  Inputs come from ``--seed``
alone.  Items run until ``--seconds`` of item time have passed and at least
MIN_ITEMS items are done.  Every output is checked outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are written to ``bench/out/``.  ``--ladder`` prints
the exact proof sizes of a fixed ladder of GG proofs.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_ITEMS = 100
WARMUP_SECONDS = 1.5
WALL_LIMIT_SECONDS = 140
COUNT_ITEMS = 40
SETUP_REPEATS = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import minarith.cli; "
                "print(time.perf_counter() - t)")

# Per-layer metric -> span whose mean duration per call it reports.
SPAN_METRICS = {
    "classes.classify.ms": "classes.classify",
    "classes.certify.ms": "classes.certify",
    "formula.alpha_eq_formula.ms": "check/formula.alpha_eq_formula",
    "formula.subst_bot_falsity.ms": "check/formula.subst_bot_falsity",
    "kernel.recheck.ms": "kernel.recheck",
    "derived.prove_gg_equiv.ms": "derived.prove_gg_equiv",
    "sexpr.print_proof.ms": "sexpr.print_proof",
    "sexpr.read_sexpr.ms": "check/sexpr.read_sexpr",
    "atrans.refined_a_translate.ms": "atrans.refined_a_translate",
    "cli.check.ms": "cli.check",
    "cli.classify.ms": "cli.classify",
    "cli.efq.ms": "cli.efq",
    "cli.gg.ms": "cli.gg",
    "cli.search.ms": "cli.search",
    "cli.translate.ms": "cli.translate",
}


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    Items are timed in CPU time, not wall time: the virtual machines this
    runs on lose a varying share of wall time to the host, which moved wall
    figures of the same run by up to 15 %.  Items do no I/O other than the
    CLI children, whose CPU time is included.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class NullTracer:
    active = False
    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory: [name, start, end, parent, item], CPU time."""

    active = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, cpu_clock(), None, parent, self.item])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = cpu_clock()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        with path.open("w", encoding="utf-8") as f:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                    "self": end - start - child_time[i]}) + "\n")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_seconds(repeats: int) -> list[float]:
    """`import minarith.cli` timed inside fresh interpreters."""
    out = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              capture_output=True, text=True, check=True,
                              env=child_env(), cwd=ROOT, timeout=60)
        out.append(float(done.stdout))
    return out


def interpreter_seconds(repeats: int) -> list[float]:
    """Wall time of a bare `python -c pass`."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=child_env(), cwd=ROOT, timeout=60)
        out.append(time.perf_counter() - t0)
    return out


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_items(workload, seed: int, seconds: float, trace: bool):
    """Warm up, then run the timed closed loop.  Returns the run record."""
    null = NullTracer()
    busy = 0.0
    started = time.perf_counter()
    for x in workload.inputs(seed, warmup=True):
        t0 = cpu_clock()
        try:
            workload.check(x, workload.run(x, null), null, None)
        except Exception:  # the timed items count and report failures
            pass
        busy += cpu_clock() - t0
        if busy >= WARMUP_SECONDS or time.perf_counter() - started > 30:
            break
    gc.collect()

    tracer = Tracer() if trace else null
    rec = {"latency": [], "failures": [], "printed": 0, "counts": {},
           "busy": 0.0, "wall": 0.0, "tracer": tracer}
    started = time.perf_counter()
    for i, x in enumerate(workload.inputs(seed, warmup=False)):
        if ((rec["busy"] >= seconds and i >= MIN_ITEMS)
                or time.perf_counter() - started > WALL_LIMIT_SECONDS):
            break
        # Traced and untraced runs of trace_period items alternate; the
        # untraced ones are the baseline of trace.overhead_ratio.
        traced = trace and (i // workload.trace_period) % 2 == 1
        tr = tracer if traced else null
        tr.item = i
        wall0, t0 = time.perf_counter(), cpu_clock()
        try:
            out = tr.call("item", workload.run, x, tr)
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        dt = cpu_clock() - t0
        rec["wall"] += time.perf_counter() - wall0
        rec["busy"] += dt
        rec["latency"].append(dt)
        counts = rec["counts"] if trace and i < COUNT_ITEMS else None
        try:
            if isinstance(out, Exception):
                raise out
            rec["printed"] += tr.call("check", workload.check, x, out, tr,
                                      counts)
        except Exception as exc:
            rec["failures"].append(f"item {i}: {type(exc).__name__}: {exc}")
    return rec


def end_to_end(rec, setup: list[float], rss_mb: float) -> dict:
    lat = rec["latency"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (len(lat) / rec["busy"], "1/s"),
        "item_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "item_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "output_bytes_per_item": (rec["printed"] / len(lat), "bytes"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def overhead_ratio(latency: list[float], period: int) -> float:
    """Median, over blocks of an untraced and a traced run of ``period``
    items, of untraced item time over traced item time."""
    ratios = []
    for start in range(0, len(latency) - 2 * period + 1, 2 * period):
        untraced = sum(latency[start:start + period])
        traced = sum(latency[start + period:start + 2 * period])
        ratios.append(untraced / traced)
    return statistics.median(ratios)


def per_layer(rec, workload, setup: list[float], interp: list[float]) -> dict:
    tr = rec["tracer"]
    c = rec["counts"]
    ms = {name: mean(tr.durations(span)) * 1e3
          for name, span in SPAN_METRICS.items()}
    parse_ms = mean(tr.durations("sexpr.parse_proof")) * 1e3
    dag, tree = c.get("recheck_dag", 0), c.get("recheck_tree", 0)
    n = min(COUNT_ITEMS, len(rec["latency"]))
    values = {
        **{k: (v, "ms") for k, v in ms.items()},
        "classes.certify.yield": (
            c.get("certify_yield", 0) / max(c.get("certify_calls", 0), 1),
            "ratio"),
        "formula.input_size": (c.get("input_size", 0) / n, "count"),
        "kernel.recheck.dag_nodes": (dag / n, "count"),
        "kernel.recheck.tree_nodes": (tree / n, "count"),
        "kernel.recheck.sharing": (tree / dag if dag else 0.0, "ratio"),
        "derived.prove_gg_equiv.dag_nodes": (c.get("gg_dag", 0) / n,
                                             "count"),
        "sexpr.print_proof.bytes": (c.get("printed", 0) / n, "bytes"),
        "sexpr.proof_from_tree.ms": (
            max(parse_ms - ms["sexpr.read_sexpr.ms"], 0.0)
            if parse_ms else 0.0, "ms"),
        "atrans.output.tree_nodes": (c.get("atrans_tree", 0) / n, "count"),
        "cli.import_ms": (statistics.median(setup) * 1e3, "ms"),
        "cli.interpreter_ms": (statistics.median(interp) * 1e3, "ms"),
        "trace.overhead_ratio": (
            overhead_ratio(rec["latency"], workload.trace_period), "ratio"),
    }
    return values


def ladder() -> list[dict]:
    """GG proofs of ((...((tt -> tt) -> tt) ...) -> tt) with d implications."""
    from minarith import TRUTH, Imp, NameSupply, print_proof, prove_gg_equiv
    from workloads import proof_size

    rows = []
    for depth in (6, 8, 10):
        a = TRUTH
        for _ in range(depth):
            a = Imp(a, TRUTH)
        p = prove_gg_equiv(a, NameSupply(0))
        dag, tree = proof_size(p)
        rows.append({"depth": depth, "dag_nodes": dag, "tree_nodes": tree,
                     "printed_bytes": len(print_proof(p).encode())})
    return rows


def report(workload: str, seed: int, rec, metrics: dict) -> None:
    n = len(rec["latency"])
    failed = len(rec["failures"])
    print(f"workload {workload}, seed {seed}: {n} items, "
          f"{rec['busy']:.2f} s of item CPU time, {rec['wall']:.2f} s wall")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    print(f"  {'fail_ratio':34s} {failed / n:14.4f} ratio")
    for line in rec["failures"][:10]:
        print(f"  failed {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minarith" / "__init__.py").is_file():
        print(f"error: no minarith sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.ladder:
        for row in ladder():
            print(json.dumps(row))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = import_seconds(SETUP_REPEATS)
        interp = interpreter_seconds(SETUP_REPEATS) if args.trace else []
        workload = WORKLOADS[args.workload](ROOT, scratch)
        rec = run_items(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        rec["tracer"].write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(rec, workload, setup, interp)
    else:
        usage = resource.getrusage(workload.items_run_in)
        rss_mb = usage.ru_maxrss / 1024
        metrics = end_to_end(rec, setup, rss_mb)
    report(args.workload, args.seed, rec, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
