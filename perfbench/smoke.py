#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny input sizes.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--scale tiny``
and checks that each run is correct and emits exactly the metrics
BENCHMARK.json lists, each a finite number with the listed unit. Takes
well under a minute; it is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SEED = 1
SECONDS = "1"


def check(run: dict, declared: list[dict]) -> list[str]:
    problems = []
    if not run["correct"] or run["failed"] or run["attempted"] < 1:
        problems.append(f"correct={run['correct']} failed={run['failed']} attempted={run['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = run["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']!r}, declared {want[name]!r}")
    return problems


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(SEED), "--seconds", SECONDS, "--trace", trace, "--scale", "tiny"],
                capture_output=True, text=True, timeout=180,
            )
            try:
                problems = check(json.loads(proc.stdout.strip().splitlines()[-1]), declared)
            except (ValueError, IndexError, KeyError) as exc:
                problems = [f"no result line ({exc!r}); exit {proc.returncode}: {proc.stderr[-500:]}"]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
