"""One workload process of the pemsim benchmark (started by run.py).

The process imports pemsim from the checkout's ``src/``, builds the
workload's inputs, runs one untimed warm-up item and prints ``READY``; the
time from its start to that line is one ``setup_s`` sample.  With
``--setup-only`` it stops there.  Otherwise it runs passes over the item
list, one item at a time, for about ``--seconds`` seconds and prints one
``RESULT`` line of JSON.  With ``--trace 1`` untraced and traced passes
alternate, so that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_pemsim():
    sys.path.insert(0, str(SRC))
    import pemsim

    if Path(pemsim.__file__).resolve().parent != SRC / "pemsim":
        raise ImportError(f"pemsim imported from {pemsim.__file__}, not {SRC}")
    return pemsim


def run_item(item, tracer=None) -> tuple[dict, object]:
    """Run one item; returns its record and outcome."""
    if tracer is not None:
        tracer.item = item.id
        before = tracer.counts()
    start = time.perf_counter()
    try:
        outcome = item.run()
    except Exception as exc:  # an item that raises counts as failed
        from workloads import Outcome
        traceback.print_exc()
        outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}",
                          claim=False)
    record = {"id": item.id, "seconds": time.perf_counter() - start,
              "correct": bool(outcome.correct), "claim": bool(outcome.claim),
              "detail": outcome.detail}
    if tracer is not None:
        after = tracer.counts()
        record["counts"] = {k: v - before.get(k, 0) for k, v in after.items()
                            if v != before.get(k, 0)}
    return record, outcome


def run_pass(workload, order: list, tracer=None) -> dict:
    """Run the items in the given order, which holds every item at least
    once; returns the pass record."""
    items = []
    outcomes = {}
    start = time.perf_counter()
    for item in order:
        record, outcomes[item.id] = run_item(item, tracer)
        items.append(record)
    wall = time.perf_counter() - start
    failures = workload.check_pass(outcomes)
    if failures:
        for record in items:
            record["correct"] = False
            record["detail"] += " PASS CHECK FAILED: " + "; ".join(failures)
    rates = [o.final_rate for o in outcomes.values() if o.final_rate is not None]
    return {"kind": "pass", "wall": wall, "items": items,
            "final_rate": max(rates, default=0.0)}


def plan_repeats(workload, typical: dict[str, float], budget: float,
                 longest: float, rng: random.Random) -> list:
    """Repeats of the items of at most ``longest`` seconds that fill
    ``budget`` seconds: whole rounds of every such item, then the ones of a
    last shuffled round that still fit.

    The repeats add samples to the per-item times when the run has time
    left that a whole pass would overrun.  Long items are left out: one
    repeat of a long item would take the time of many samples of the short
    ones.
    """
    short = [item for item in workload.items if typical[item.id] <= longest]
    round_s = sum(typical[item.id] for item in short)
    if not short or round_s <= 0.0:
        return []
    rounds = int(budget // round_s)
    repeats = short * rounds
    left = budget - rounds * round_s
    for item in rng.sample(short, len(short)):
        if typical[item.id] <= left:
            repeats.append(item)
            left -= typical[item.id]
    return repeats


def _report(record: dict, label: str) -> None:
    for item in record["items"]:
        counts = item.get("counts", {})
        shown = {"steps": counts.get("solve_banded.transport", 0) // 2,
                 "wp_solves": counts.get("solve_banded.wp", 0)}
        extra = "".join(f" {k}={v}" for k, v in shown.items() if v)
        verdict = ("ok" if item["correct"] and item["claim"]
                   else "WRONG" if not item["correct"] else "CLAIM-MISSED")
        print(f"{label} item {item['id']} {item['seconds']:.4f} s {verdict}"
              f"{extra} {item['detail']}", flush=True)


def measure(workload, seconds: float, seed: int, tracer=None) -> list[dict]:
    """Whole passes and repeats of the short items for about ``seconds``.

    Every pass runs the items in a new order drawn from ``seed``, so alike
    items are spread over the whole run rather than packed into one stretch
    of each pass: their median time then averages the machine's speed over
    the run and not over a few seconds of it.  The first pass gives each
    item's typical time.  It fixes how many further passes fit, and the
    repeats that fill the time those leave; the repeats are dealt at random
    into the further passes.  With a tracer, untraced and traced passes
    alternate (at least one of each) and nothing is repeated.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    if tracer is not None:
        return measure_traced(workload, start + seconds, rng, tracer)
    passes = [run_pass(workload, rng.sample(workload.items, len(workload.items)))]
    _report(passes[0], "pass 1")
    typical = {item["id"]: item["seconds"] for item in passes[0]["items"]}
    left = start + seconds - time.perf_counter()
    more = max(0, int(left // passes[0]["wall"]))
    repeats = plan_repeats(workload, typical, left - more * passes[0]["wall"],
                           0.2 * seconds, rng)
    if more:
        shares: list[list] = [[] for _ in range(more)]
        for item in repeats:
            shares[rng.randrange(more)].append(item)
        for share in shares:
            order = workload.items + share
            passes.append(run_pass(workload, rng.sample(order, len(order))))
            _report(passes[-1], f"pass {len(passes)}")
    else:
        passes.append({"kind": "repeats",
                       "items": [run_item(item)[0] for item in repeats]})
        _report(passes[-1], "repeat")
    for record in passes:
        record["traced"] = False
    return passes


def measure_traced(workload, deadline: float, rng: random.Random,
                   tracer) -> list[dict]:
    """Untraced and traced passes in turn until the next one would overrun
    ``deadline`` (at least one of each)."""
    from tracing import layer_metrics

    passes = []
    while True:
        traced = len(passes) % 2 == 1
        order = rng.sample(workload.items, len(workload.items))
        if traced:
            tracer.reset_stats()
            tracer.install()
            try:
                record = run_pass(workload, order, tracer)
            finally:
                tracer.uninstall()
            record["layers"] = layer_metrics(tracer.stats, tracer.sizes,
                                             record["final_rate"])
            record["stats"] = {k: list(v) for k, v in tracer.stats.items()}
            record["sizes"] = dict(tracer.sizes)
        else:
            record = run_pass(workload, order)
        record["traced"] = traced
        passes.append(record)
        _report(record, f"pass {len(passes)}{' traced' if traced else ''}")
        if len(passes) < 2:
            continue
        wall = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() + wall > deadline:
            break
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_pemsim()
    import numpy
    import scipy
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, args.smoke)
    try:
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        passes = measure(workload, args.seconds, args.seed, tracer)
        probes = {}
        if args.trace and args.workload == "cli":
            probes = workloads.cli_probes()
    finally:
        workload.close()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "passes": passes,
        "probes": probes,
        "peak_rss_mb": peak_kb / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas_name(numpy)},
    }
    if tracer is not None:
        workloads.OUT.mkdir(exist_ok=True)
        trace_file = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "span_fields": ["id", "parent", "item", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "passes": [{"traced": p["traced"], "stats": p.get("stats")}
                       for p in passes]}))
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
