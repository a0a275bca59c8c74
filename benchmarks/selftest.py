#!/usr/bin/env python3
"""Self-test of the pemsim benchmark, on reduced problem sizes.

    python3 benchmarks/selftest.py

For every workload it checks that a smoke run with ``--trace 0`` emits
exactly the end-to-end metrics of BENCHMARK.json and one with ``--trace 1``
exactly the per-layer metrics, each with its declared unit; that every
result is correct; that two traced runs give the same counts; and that
the seeded workloads pass their checks on a second seed too.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDED = ("oracle", "cli")


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: not correct"
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: " \
                        f"missing {sorted(set(want) - set(got))}, " \
                        f"extra {sorted(set(got) - set(want))}, " \
                        f"units {[n for n in want if got.get(n, want[n]) != want[n]]}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            check_result(smoke(workload, 0), spec["end_to_end"],
                         f"{workload} trace 0")
            first, second = smoke(workload, 1), smoke(workload, 1)
            check_result(first, spec["per_layer"], f"{workload} trace 1")
            differ = [name for name in counts if first["metrics"][name]
                      != second["metrics"][name]]
            assert not differ, f"{workload}: traced counts differ: {differ}"
            if workload in SEEDED:
                check_result(smoke(workload, 0, seed=2), spec["end_to_end"],
                             f"{workload} seed 2")
        except AssertionError as exc:
            print(f"FAIL {exc}")
            return 1
        print(f"ok {workload}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
