#!/usr/bin/env python3
"""The pemsim benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout (see benchmarks/README.md):

    python3 benchmarks/run.py --workload annulus --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in turn and prints a table instead.

Load is closed-loop: one worker process runs one item at a time.  The
worker is started ``SETUP_SAMPLES`` times; each start is timed up to its
``READY`` line and ``setup_s`` is the median, and only the last start goes
on to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("annulus", "circle", "oracle", "cli")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
                    "pass_frac": "ratio", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "blas_threads": threads,
            "commit": commit, "seed": seed}


def _worker_cmd(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _start(cmd: list[str], procs: list) -> float:
    """Start a worker and time it up to its READY line."""
    start = time.perf_counter()
    procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT))
    line = procs[-1].stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
    return time.perf_counter() - start


def _timeout(signum, frame):
    raise TimeoutError(f"run took longer than {RUN_TIMEOUT_S} s")


def run_worker(args) -> tuple[list[float], dict]:
    """Time SETUP_SAMPLES worker starts; the last one measures."""
    setups = []
    procs: list[subprocess.Popen] = []
    result = None
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_start(_worker_cmd(args, setup_only=True), procs))
            procs[-1].communicate()
            if procs[-1].returncode != 0:
                raise RuntimeError(f"set-up worker exited with "
                                   f"{procs[-1].returncode}")
        setups.append(_start(_worker_cmd(args, setup_only=False), procs))
        for line in procs[-1].stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
        procs[-1].wait()
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if procs[-1].returncode != 0 or result is None:
        raise RuntimeError(f"worker exited with {procs[-1].returncode}")
    return setups, result


def summarise(args, setups: list[float], result: dict) -> dict:
    records = result["passes"]
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    items = [item for r in records for item in r["items"]]
    plain_items = [item for r in plain for item in r["items"]]
    by_id: dict[str, list[float]] = {}
    passed: dict[str, bool] = {}
    for item in plain_items:
        by_id.setdefault(item["id"], []).append(item["seconds"])
        passed[item["id"]] = (passed.get(item["id"], True) and item["correct"]
                              and item["claim"])
    medians = [statistics.median(times) for times in by_id.values()]
    failed = sum(not item["correct"] for item in items)
    end_to_end = {
        "setup_s": statistics.median(setups),
        # Passes hold repeats as well, so a pass's own wall time is not the
        # time of the item list; the items' medians add up to it.
        "wall_s": sum(medians),
        "item_p50_s": statistics.median(medians),
        "pass_frac": sum(passed.values()) / len(passed),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        units = layer_units()
        values = {name: statistics.median(p["layers"].get(name, 0.0)
                                          for p in traced)
                  for name in units}
        for name in units:
            if name.startswith("cli.command_s."):
                command = name[len("cli.command_s."):]
                times = [i["seconds"] for p in traced for i in p["items"]
                         if i["id"] == command]
                values[name] = statistics.median(times) if times else 0.0
        for name in ("cli.interpreter_s", "cli.import_s", "cli.import_scipy_s"):
            values[name] = result["probes"].get(name, 0.0)
        values["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - end_to_end["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    return {"correct": failed == 0, "attempted": len(items), "failed": failed,
            "metrics": metrics, "end_to_end": end_to_end}


def run_one(args) -> int:
    if not (ROOT / "src" / "pemsim" / "__init__.py").is_file():
        print(f"error: no pemsim sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a pemsim checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json missing at the checkout root",
              file=sys.stderr)
        return 2
    env = machine_record(args.seed)
    try:
        setups, result = run_worker(args)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(result["versions"])
    summary = summarise(args, setups, result)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup samples: {' '.join(f'{s:.4f}' for s in setups)} s")
    for name, value in summary["end_to_end"].items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        for name, metric in summary["metrics"].items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"trace written to {result['trace_file']}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "setup_samples": setups,
                                  "summary": summary,
                                  "passes": result["passes"]}, indent=1))
    print(json.dumps({k: summary[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own benchmark process."""
    rows = []
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=2 * RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        rows.append((workload, json.loads(lines[-1])))
    names = sorted({name for _, r in rows for name in r["metrics"]})
    print(f"{'metric':42s} {'unit':6s} " + " ".join(f"{w:>12s}" for w, _ in rows))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for _, r in rows
                    if name in r["metrics"])
        cells = " ".join(f"{r['metrics'][name]['value']:12.6g}"
                         if name in r["metrics"] else f"{'-':>12s}"
                         for _, r in rows)
        print(f"{name:42s} {unit:6s} {cells}")
    verdicts = (f"{r['correct']} ({r['failed']}/{r['attempted']})" for _, r in rows)
    print(f"{'correct (failed/attempted)':50s}"
          + " ".join(f"{v:>12s}" for v in verdicts))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the self-test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
