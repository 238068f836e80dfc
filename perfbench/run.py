"""Campaign benchmark for sonicauth.

Run from the repository root:

    python3 perfbench/run.py --workload office_ranging --seed 1 --seconds 25 --trace 0

``--workload`` is one of the names in ``workloads.WORKLOADS`` or ``all``
(each workload in turn, in its own process). The load is a closed loop with
one client: one process runs campaign sessions one after another. Every
session is timed from outside by a wrapper at the ``run_authentication`` name
``sonicauth.evaluation`` calls.

``--trace 0`` prints the end-to-end metrics: session latency p50/p95,
throughput, peak RSS, and ``setup_s``, the median over several fresh
interpreters of importing sonicauth and running the workload's first
session. ``--trace 1`` runs the campaign twice, once with only the session
wrapper and once with spans around every layer's public functions, and prints
per-layer metrics per session plus the tracing overhead; the spans are
written to ``perfbench/out/``. Times are scaled by the host's speed as a
reference kernel measures it around each session (see ``measure.py``).

``--seconds`` sizes the run: the number of trials is fixed by the seed and
``--seconds`` at each workload's nominal rate, so the same arguments always
run the same sessions. A run fails (``correct`` false) when a session raises,
breaks its workload's invariant or has a verdict that its own transcript does
not reproduce, and in a traced run when a layer's call count per session is
not the expected one.

The line before the last holds the quality metrics (``failed_frac``,
``false_accept_frac``, ``not_present_frac``, ``mean_abs_error_m``), the SHA-256
of the concatenated session transcripts, the unscaled times and the
environment; the last line is the result object ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

# Pinned before numpy is imported so the load stays single-threaded.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
COLD_START_TIMEOUT_S = 120


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "sonicauth", "__init__.py")):
        sys.exit(f"perfbench: no sonicauth sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import sonicauth

    if not os.path.abspath(sonicauth.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported sonicauth from {sonicauth.__file__}, not from {SRC}")


def _cold_start_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--cold-start"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=COLD_START_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _run_all(args, names) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.cold_start:
        workload.first_session(args.seed)
        return 0

    import measure

    cold_start = lambda: _cold_start_seconds(workload.name, args.seed)
    return measure.run(workload, args.seed, args.seconds, bool(args.trace), cold_start, BLAS_THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
