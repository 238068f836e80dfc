"""Smoke and determinism check for the benchmark itself.

Run from the repository root:

    python3 perfbench/check.py

For each workload at its minimum size it runs ``--trace 0`` and ``--trace 1``
and confirms that the run is correct and that every metric BENCHMARK.json
names prints with its unit. It then repeats the traced run with the same seed
and confirms that call counts, propagated samples, link bytes, the present
ratio, the quality metrics and the transcript digest repeat exactly. Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
MIN_SECONDS = "1"
# Per-layer metrics that count work rather than time it: identical for equal seeds.
DETERMINISTIC_UNITS = ("count", "bytes", "ratio")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", MIN_SECONDS,
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def _metric_problems(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} [{metric['unit']}] missing or malformed: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def _fingerprint(info: dict, result: dict) -> dict:
    counts = {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] in DETERMINISTIC_UNITS and name != "trace.overhead_frac"
    }
    return {"counts": counts, "quality": info["quality"], "digest": info["transcript_sha256"]}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        _, plain = _run(workload, 0)
        problems += _metric_problems(plain, spec["end_to_end"], f"{workload} --trace 0")
        first = _run(workload, 1)
        second = _run(workload, 1)
        problems += _metric_problems(first[1], spec["per_layer"], f"{workload} --trace 1")
        if _fingerprint(*first) != _fingerprint(*second):
            problems.append(f"{workload}: two traced runs with seed {SEED} differ: {_fingerprint(*first)} vs {_fingerprint(*second)}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
