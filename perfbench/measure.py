"""One benchmark run: cold starts, warm-up, measured passes, checks, metrics.

Host speed. On a shared host the same session's time drifts by about 15%
either way over minutes as neighbouring load comes and goes, in CPU time as
much as in wall time. So a fixed reference kernel (numpy FFTs plus an
interpreter loop, the program's own mix of work) is timed after every
session and after every cold start. Each session and cold start is scaled by
the host slowdown measured around it, the median kernel time nearby over
``REFERENCE_KERNEL_MS``, so that every time metric reads as on a host where
the kernel takes that long. The kernel is never part of a timed session or
pass. The unscaled figures and the median slowdowns are printed on the line
before the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

import sonicauth.protocol as proto

from tracing import CAMPAIGN, KERNEL, SESSION, Tracer, layer_counts, self_times
from workloads import ERROR_LIMIT_M, EXPECTED_CALLS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# Tolerance when recomputing a transcript's distance from its four locations.
DISTANCE_TOL_M = 1e-9
COLD_STARTS = 3
KERNEL_RUNS_PER_COLD_START = 5
REFERENCE_KERNEL_MS = 3.0
# A session is scaled by the median of the kernel runs from this many
# sessions before it to this many after: drifts of a second or more show.
KERNEL_HALF_WINDOW = 4
_KERNEL_INPUT = np.random.default_rng(0).standard_normal((32, 4096))


def reference_kernel() -> None:
    for _ in range(3):
        np.fft.rfft(_KERNEL_INPUT, axis=1)
    total = 0
    for i in range(15_000):
        total += i * i


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _warm_kernel_seconds(runs: int) -> list[float]:
    """Times of ``runs`` kernel runs after an untimed one, so that the kernel
    never pays for caches that the work before it left cold."""
    reference_kernel()
    return [_timed(reference_kernel) for _ in range(runs)]


def _slowdown(kernel_seconds) -> float:
    """How much slower than the reference host this host ran the kernel."""
    return float(np.median(kernel_seconds)) * 1e3 / REFERENCE_KERNEL_MS


def _cold_starts(cold_start) -> tuple[list[float], list[float]]:
    """Wall seconds of each cold start and the host slowdown right after it."""
    setup, slowdowns = [], []
    for _ in range(COLD_STARTS):
        setup.append(cold_start())
        slowdowns.append(_slowdown(_warm_kernel_seconds(KERNEL_RUNS_PER_COLD_START)))
    return setup, slowdowns


@dataclass
class Pass:
    """One closed-loop pass over a workload."""

    tracer: Tracer
    wall: float  # seconds, kernel runs excluded
    slowdowns: list[float]  # host slowdown around each session, in order
    error: str | None  # traceback of an exception that ended the pass early

    @property
    def typical_slowdown(self) -> float:
        return float(np.median(self.slowdowns))

    def slowdown_of(self, session: int) -> float:
        """Host slowdown around a session; the pass's median outside them."""
        return self.slowdowns[session] if session >= 0 else self.typical_slowdown

    def scaled(self, span: list) -> float:
        """A span's seconds scaled by the host slowdown around it."""
        name, start, end, parent, session, value = span
        return (end - start) / self.slowdown_of(session)

    def session_spans(self) -> list[list]:
        return [self.tracer.spans[s["span"]] for s in self.tracer.sessions if s["transcript"]]

    def scaled_wall(self) -> float:
        sessions = self.session_spans()
        rest = self.wall - sum(end - start for _, start, end, *_ in sessions)
        return sum(self.scaled(span) for span in sessions) + rest / self.typical_slowdown


def _pass(workload, seed: int, trials: int, layers: bool) -> Pass:
    kernel = []
    tracer = Tracer(layers, lambda: kernel.extend(_warm_kernel_seconds(1)))
    error = None
    with tracer.installed():
        start = time.perf_counter()
        try:
            workload.run(seed, trials, tracer)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    wall -= sum(end - start for name, start, end, *_ in tracer.spans if name == KERNEL)
    h = KERNEL_HALF_WINDOW
    slowdowns = [_slowdown(kernel[max(0, i - h) : i + h + 1]) for i in range(len(kernel))]
    return Pass(tracer, wall, slowdowns, error)


def _consistent(decision, transcript) -> bool:
    """The verdict follows from the transcript's own locations and policy."""
    raw = None
    if transcript.signal_present:
        raw = proto.estimate_distance(proto.measurements_from_transcript(transcript))
        if abs(raw - transcript.raw_distance_m) > DISTANCE_TOL_M:
            return False
    policy = proto.AuthPolicy(threshold_m=transcript.threshold_m)
    recomputed = proto.decide(raw, transcript.signal_present, transcript.paired_link_ok, policy)
    verdict = "accept" if decision.accepted else "reject"
    return transcript.verdict == verdict and recomputed.accepted == decision.accepted


def _assess(workload, tracer: Tracer, planned: int) -> tuple[int, dict, str, list[str]]:
    """Failed session count, quality metrics, transcript digest and problems
    found across the run."""
    failed = planned
    false_accepts = not_present = 0
    errors_by_distance: dict[float, list[float]] = defaultdict(list)
    digest = hashlib.sha256()
    for s in tracer.sessions:
        decision, t = s["decision"], s["transcript"]
        if t is None:
            continue
        digest.update(t.to_json().encode())
        if workload.invariant(decision, t) and _consistent(decision, t):
            failed -= 1
        if decision.accepted and t.true_distance_m > t.threshold_m + ERROR_LIMIT_M:
            false_accepts += 1
        if not t.signal_present:
            not_present += 1
        else:
            errors_by_distance[t.true_distance_m].append(abs(t.raw_distance_m - t.true_distance_m))
    errors = [e for group in errors_by_distance.values() for e in group]
    quality = {
        "failed_frac": {"value": failed / planned, "unit": "ratio"},
        "false_accept_frac": {"value": false_accepts / planned, "unit": "ratio"},
        "not_present_frac": {"value": not_present / planned, "unit": "ratio"},
        "mean_abs_error_m": {"value": float(np.mean(errors)) if errors else None, "unit": "m"},
    }
    problems = []
    if workload.checks_mean_error:
        for distance, group in sorted(errors_by_distance.items()):
            if np.mean(group) > ERROR_LIMIT_M:
                problems.append(f"mean |error| {np.mean(group):.3f} m at {distance} m exceeds {ERROR_LIMIT_M} m")
    return failed, quality, digest.hexdigest(), problems


def _end_to_end(p: Pass, setup: list[float], setup_slowdowns: list[float]):
    """Scaled metrics, and the unscaled figures behind them."""
    sessions = p.session_spans()
    raw_ms = [1e3 * (end - start) for _, start, end, *_ in sessions]
    scaled_ms = [1e3 * p.scaled(span) for span in sessions]
    raw = {
        "session_p50_ms": float(np.percentile(raw_ms, 50)),
        "session_p95_ms": float(np.percentile(raw_ms, 95)),
        "sessions_per_s": len(sessions) / p.wall,
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "session_p50_ms": (float(np.percentile(scaled_ms, 50)), "ms"),
        "session_p95_ms": (float(np.percentile(scaled_ms, 95)), "ms"),
        "sessions_per_s": (len(sessions) / p.scaled_wall(), "1/s"),
        "setup_s": (statistics.median(s / f for s, f in zip(setup, setup_slowdowns)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, raw


LAYER_NAMES = (
    "spectrum.detect_pair",
    "signal.synthesize",
    "signal.sample_spec",
    "signal.link_codec",
    "channel.record",
    "channel.propagate",
    "adversary.build_emissions",
    "adversary.all_frequency_signal",
)
COUNTED_LAYERS = ("spectrum.detect_pair", "signal.synthesize", "channel.record", "channel.propagate")


def _per_layer(p: Pass, overhead_frac: float) -> dict:
    """Per-session calls, counts and scaled busy time of each layer."""
    tracer = p.tracer
    spans = tracer.spans
    n = len(tracer.sessions)
    busy = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    values = dict.fromkeys(LAYER_NAMES, 0)
    for span in spans:
        name, start, end, parent, session, value = span
        if session >= 0 and name in busy:
            busy[name] += p.scaled(span)
            calls[name] += 1
            values[name] += value or 0
    selfs = [t / p.slowdown_of(span[4]) for t, span in zip(self_times(spans), spans)]
    session_self = sum(t for t, span in zip(selfs, spans) if span[0] == SESSION)
    campaign_self = sum(t for t, span in zip(selfs, spans) if span[0] == CAMPAIGN)
    link_bytes = sum(sum(entry["bytes"] for entry in s["transcript"].link_log) for s in tracer.sessions)
    out = {}
    for name in LAYER_NAMES:
        if name in COUNTED_LAYERS:
            out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.ms_per_session"] = (busy[name] * 1e3 / n, "ms")
    out["spectrum.present_ratio"] = (values["spectrum.detect_pair"] / (2 * calls["spectrum.detect_pair"]), "ratio")
    out["channel.propagate.samples"] = (values["channel.propagate"] / n, "count")
    out["protocol.session.self_ms"] = (session_self * 1e3 / n, "ms")
    out["protocol.link_bytes"] = (link_bytes / n, "bytes")
    out["evaluation.campaign.self_s"] = (campaign_self, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def _call_count_errors(workload, tracer: Tracer) -> list[str]:
    counts = layer_counts(tracer.spans)
    errors = []
    for i, s in enumerate(tracer.sessions):
        for name, expected in EXPECTED_CALLS[s["kind"]].items():
            if counts.get((i, name), 0) != expected:
                errors.append(f"session {i} ({s['kind']}): {counts.get((i, name), 0)} x {name}, expected {expected}")
    outside = counts.get((-1, "signal.synthesize"), 0)
    if outside != workload.outside_synthesize:
        errors.append(f"{outside} x signal.synthesize outside sessions, expected {workload.outside_synthesize}")
    return errors


def _environment(blas_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
    }


def run(workload, seed: int, seconds: float, trace: bool, cold_start, blas_vars) -> int:
    """Measure one workload and print the info line and the result line.

    ``cold_start`` runs the workload's first session in a fresh interpreter
    and returns its wall seconds."""
    info = {"workload": workload.name, "seed": seed}
    if not trace:
        setup, setup_slowdowns = _cold_starts(cold_start)
    # Warm-up outside any timed pass: imports, FFT plans, lazy set-up.
    workload.first_session(seed)
    trials = workload.trials_for(seconds / 2 if trace else seconds)
    planned = trials * workload.sessions_per_trial

    p = _pass(workload, seed, trials, layers=False)
    failed, quality, digest, problems = _assess(workload, p.tracer, planned)
    problems += [p.error] if p.error else []
    if not p.session_spans():
        print("\n".join(problems + ["no session completed"]), file=sys.stderr)
        return 1
    if trace:
        untraced, untraced_digest = p, digest
        p = _pass(workload, seed, trials, layers=True)
        failed, quality, digest, traced_problems = _assess(workload, p.tracer, planned)
        problems += traced_problems + ([p.error] if p.error else [])
        if digest != untraced_digest:
            problems.append("tracing changed the session transcripts")
        problems += _call_count_errors(workload, p.tracer)
        metrics = _per_layer(p, p.scaled_wall() / untraced.scaled_wall() - 1.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        p.tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))
    else:
        metrics, info["unscaled"] = _end_to_end(p, setup, setup_slowdowns)
        info["host_slowdown_cold_starts"] = statistics.median(setup_slowdowns)
        info["setup_runs_s"] = setup
    info["host_slowdown"] = p.typical_slowdown

    for problem in problems:
        print(problem, file=sys.stderr)
    info.update(
        trials=trials,
        sessions=len(p.tracer.sessions),
        quality=quality,
        transcript_sha256=digest,
        environment=_environment(blas_vars),
    )
    print(json.dumps(info))
    result = {
        "correct": not problems and failed == 0,
        "attempted": planned,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
