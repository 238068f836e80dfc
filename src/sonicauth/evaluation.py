"""Experiment harness: ranging-error campaigns, the analytic FRR/FAR model,
attack campaigns, detector comparison and multi-user interference runs.

Every campaign that runs sessions runs them through ``_sessions``, the one
place trials are seeded and run. It derives one random stream per trial from
``SeedSequence([campaign_seed, cell_index, trial_index])`` so trials are
independent, reproducible, and order-insensitive (parallel execution would
produce the identical report).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from . import adversary as adv
from . import channel as ch
from . import spectrum
from .protocol import (
    PAIRING_RANGE_M,
    PLAYBACK_GAP_SAMPLES,
    AuthPolicy,
    Endpoint,
    SessionTranscript,
    one_way_ranging,
    run_authentication,
)
from .signal import CANDIDATES, _finite_positive

DEFAULT_MIN_TRIALS = 10

# The analytic model's detection range: the default channel stops carrying a
# reference signal between 2 and 3 metres.
DETECTION_RANGE_M = 2.5


# ---------------------------------------------------------------------------
# Analytic FRR/FAR model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorModel:
    """Estimated distance ~ Normal(true distance, sigma), constant sigma.

    ``detect_range_m`` is the distance beyond which signals are undetectable
    (rejection is then certain); ``pairing_range_m`` bounds the distances an
    attacker can even attempt from (the paired-link range)."""

    sigma_m: float
    detect_range_m: float = DETECTION_RANGE_M
    pairing_range_m: float = PAIRING_RANGE_M

    def __post_init__(self) -> None:
        if not _finite_positive(self.sigma_m):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma_m}")
        if not 0 < self.detect_range_m < self.pairing_range_m:
            raise ValueError("need 0 < detect_range < pairing_range")


def _normal_cdf_integral(u: float) -> float:
    """``G(u) = u*Phi(u) + phi(u)``, the antiderivative of the standard normal CDF."""
    return u * 0.5 * math.erfc(-u / math.sqrt(2.0)) + math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def frr_far_model(tau_m: float, model: ErrorModel) -> tuple[float, float]:
    """False rejection and false acceptance rates at threshold ``tau_m``.

    FRR averages Pr[estimate > tau] over legitimate distances (0, tau];
    FAR averages Pr[estimate <= tau] over illegitimate distances
    (tau, pairing range], where the acceptance probability is zero beyond the
    detect range (the signal is simply not present). Both integrals of the
    normal CDF are exact, through its antiderivative ``G``.
    """
    if not 0 < tau_m < model.detect_range_m:
        raise ValueError("threshold must lie in (0, detect_range)")
    sigma = model.sigma_m
    g0 = _normal_cdf_integral(0.0)
    frr = sigma / tau_m * (g0 - _normal_cdf_integral(-tau_m / sigma))
    far = sigma * (g0 - _normal_cdf_integral((tau_m - model.detect_range_m) / sigma)) / (model.pairing_range_m - tau_m)
    return frr, far


def fit_sigma(frr_target: float, tau_m: float, detect_range_m: float = DETECTION_RANGE_M) -> float:
    """Invert the model: sigma such that FRR(tau) hits ``frr_target``.

    Bisection to 1e-6 over sigma in (1e-4, 1), in which the FRR rises;
    raises when no sigma in the bracket reaches the target (the model's FRR
    stays below 0.5)."""

    def frr(sigma: float) -> float:
        return frr_far_model(tau_m, ErrorModel(sigma, detect_range_m))[0]

    lo, hi = 1e-4, 1.0
    if not frr(lo) <= frr_target <= frr(hi):
        raise ValueError("no sigma in (1e-4, 1) reaches the requested FRR")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if frr(mid) < frr_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def frr_far_table(taus: tuple[float, ...], model: ErrorModel) -> "ExperimentReport":
    rows = []
    for tau in taus:
        frr, far = frr_far_model(tau, model)
        rows.append({"tau_m": tau, "frr": frr, "far": far})
    return ExperimentReport(rows=rows, meta={"sigma_m": model.sigma_m, "detect_range_m": model.detect_range_m})


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    rows: list[dict]
    meta: dict = field(default_factory=dict)
    transcripts: list[SessionTranscript] = field(default_factory=list)

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.rows[0].keys()))
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "rows": self.rows}, default=float)


def _trial_rng(seed: int, cell: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, cell, trial]))


def _sessions(
    separations: tuple[float, ...],
    trials: int,
    seed: int,
    cfg: ch.ChannelConfig,
    policy: AuthPolicy,
    **session,
) -> list[tuple[int, SessionTranscript]]:
    """Run ``trials`` seeded sessions per cell, cell by cell, with the devices
    at (0, 0) and (``separations[cell]``, 0); return (cell, transcript) per
    session. ``session`` holds the keyword options of
    ``run_authentication``, which is looked up here at call time. Raises
    ``ValueError`` before any session when ``trials < 1`` or a separation is
    not a finite, non-negative distance; a separation beyond the pairing
    range is legal and is rejected as not paired."""
    if trials < 1:
        raise ValueError(f"need at least one trial per cell, got trials={trials}")
    for d in separations:
        if not (math.isfinite(d) and d >= 0):
            raise ValueError(f"separation must be a finite, non-negative distance in metres, got {d}")
    results = []
    for cell, d in enumerate(separations):
        for trial in range(trials):
            auth = Endpoint("auth", (0.0, 0.0))
            vouch = Endpoint("vouch", (d, 0.0))
            rng = _trial_rng(seed, cell, trial)
            _, transcript = run_authentication(auth, vouch, policy, rng, cfg, **session)
            results.append((cell, transcript))
    return results


def _signed_errors(
    results: Iterable[tuple[int, SessionTranscript]], separations: tuple[float, ...]
) -> list[list[float]]:
    """Per cell, the estimated minus the true distance of every session that
    produced an estimate."""
    per_cell: list[list[float]] = [[] for _ in separations]
    for cell, t in results:
        if t.raw_distance_m is not None:
            per_cell[cell].append(t.raw_distance_m - separations[cell])
    return per_cell


def _nan_if_empty(stat, values: list[float]) -> float:
    return float(stat(values)) if values else float("nan")


def _cfg_for(environment: str, channel_cfg: ch.ChannelConfig | None) -> ch.ChannelConfig:
    cfg = channel_cfg if channel_cfg is not None else ch.ChannelConfig()
    return replace(cfg, environment=environment)


# ---------------------------------------------------------------------------
# Ranging campaigns
# ---------------------------------------------------------------------------


# The interferers' timeline: their sessions start at random over 1.5 s, the
# recordings' length before they were cut to what a session needs, so that
# other users keep their rate per second. A pair that starts after the
# recording ends is not heard.
INTERFERER_TIMELINE_SAMPLES = 66_150


def _interferer_emissions(ctx, rng: np.random.Generator, pairs: int) -> list[ch.Emission]:
    """Extra device pairs running their own sessions nearby: each pair plays
    two fresh reference signals, synthesized and staggered like the
    legitimate session's, at random times over ``INTERFERER_TIMELINE_SAMPLES``
    and at random positions around that pair."""
    # Imported at call time, so that a wrapper installed on
    # ``sonicauth.signal`` (as perfbench's tracer does) sees and counts them.
    from .signal import sample_spec, synthesize

    emissions = []
    mid = tuple((a + v) / 2 for a, v in zip(ctx.auth_position, ctx.vouch_position))
    for u in range(pairs):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(2.5, 4.0)
        center = (mid[0] + radius * np.cos(angle), mid[1] + radius * np.sin(angle))
        half_gap = rng.uniform(0.2, 0.5)
        pos_1 = (center[0] - half_gap, center[1])
        pos_2 = (center[0] + half_gap, center[1])
        sig_1 = synthesize(sample_spec(rng))
        sig_2 = synthesize(sample_spec(rng))
        gap = PLAYBACK_GAP_SAMPLES
        start = int(rng.integers(0, INTERFERER_TIMELINE_SAMPLES - sig_2.samples.shape[0] - gap - 1))
        emissions.append(ch.Emission(f"user{u}_a", sig_1.samples, start, pos_1))
        emissions.append(ch.Emission(f"user{u}_b", sig_2.samples, start + gap, pos_2))
    return emissions


def distance_error_campaign(
    environment: str,
    distances: tuple[float, ...],
    trials: int,
    seed: int,
    *,
    channel_cfg: ch.ChannelConfig | None = None,
    min_trials: int = DEFAULT_MIN_TRIALS,
) -> ExperimentReport:
    """Absolute ranging error statistics per distance; the decision threshold
    plays no role (estimates are logged regardless of the verdict)."""
    return multiuser_campaign(
        1, distances, trials, seed, channel_cfg=channel_cfg, environment=environment, min_trials=min_trials
    )


def multiuser_campaign(
    pairs: int,
    distances: tuple[float, ...],
    trials: int,
    seed: int,
    *,
    channel_cfg: ch.ChannelConfig | None = None,
    environment: str = "office",
    min_trials: int = DEFAULT_MIN_TRIALS,
) -> ExperimentReport:
    """Ranging with ``pairs`` total device pairs active at once (1 = no
    interference, identical to ``distance_error_campaign``)."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if trials < min_trials:
        raise ValueError(f"need at least {min_trials} trials per distance (got {trials})")
    distances = tuple(distances)
    cfg = _cfg_for(environment, channel_cfg)
    intruder = None
    if pairs > 1:
        intruder = lambda ctx, r: _interferer_emissions(ctx, r, pairs - 1)
    results = _sessions(distances, trials, seed, cfg, AuthPolicy(threshold_m=1.0), intruder=intruder)
    rows = []
    for d, signed in zip(distances, _signed_errors(results, distances)):
        errors = [abs(e) for e in signed]
        rows.append(
            {
                "environment": environment,
                "distance_m": d,
                "trials": trials,
                "measured": len(errors),
                "not_present": trials - len(errors),
                "mean_abs_error_m": _nan_if_empty(np.mean, errors),
                "std_abs_error_m": _nan_if_empty(np.std, errors),
                "mean_signed_error_m": _nan_if_empty(np.mean, signed),
            }
        )
    meta = {
        "environment": environment,
        "seed": seed,
        "interferer_pairs": pairs - 1,
        "not_present_total": sum(row["not_present"] for row in rows),
    }
    return ExperimentReport(rows=rows, meta=meta, transcripts=[t for _, t in results])


# ---------------------------------------------------------------------------
# Attack campaigns
# ---------------------------------------------------------------------------


@dataclass
class AttackReport:
    scenario: str
    trials: int
    accepts: int
    reject_reasons: dict
    transcripts: list[SessionTranscript] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "trials": self.trials,
                "accepts": self.accepts,
                "reject_reasons": self.reject_reasons,
            }
        )


def attack_campaign(
    scenario: adv.AttackScenario,
    trials: int,
    seed: int,
    *,
    separation_m: float = 3.0,
    environment: str = "office",
    channel_cfg: ch.ChannelConfig | None = None,
) -> AttackReport:
    """Run full sessions with the attacker injected and count acceptances
    under the 1 m threshold.

    The legitimate devices sit ``separation_m`` apart (default beyond the
    detect range: the attacker tries while the user is away)."""
    cfg = _cfg_for(environment, channel_cfg)
    intruder = lambda ctx, r: adv.build_emissions(scenario, ctx, r)
    results = _sessions((separation_m,), trials, seed, cfg, AuthPolicy(threshold_m=1.0), intruder=intruder)
    transcripts = [t for _, t in results]
    return AttackReport(
        scenario=type(scenario).__name__,
        trials=trials,
        accepts=sum(t.verdict == "accept" for t in transcripts),
        reject_reasons=dict(Counter(t.reason for t in transcripts if t.verdict != "accept")),
        transcripts=transcripts,
    )


# The sweep's reference signal: the first half of the candidate tones.
_SWEEP_REFERENCE_TONES = 15


def all_frequency_power_sweep(count: int = 6) -> tuple[float, ...]:
    """Log-spaced emitted per-tone powers spanning from well below the
    out-of-set threshold to the largest feasible level (which crosses the
    received-power thresholds at close range)."""
    # Imported at call time, like ``_interferer_emissions``'s: a wrapper
    # installed on ``sonicauth.signal`` sees and counts it.
    from .signal import SignalSpec, synthesize

    ref = synthesize(SignalSpec(frequencies=CANDIDATES[:_SWEEP_REFERENCE_TONES]))
    r_f = ref.total_power / _SWEEP_REFERENCE_TONES
    lo = spectrum.beta(ref.total_power, _SWEEP_REFERENCE_TONES) / 4.0
    hi = 4.0 * spectrum.ALPHA * r_f
    # keep the top of the sweep feasible for a 30-tone sum in 16-bit range
    for _ in range(40):
        try:
            adv.all_frequency_signal(hi, 8192)
            break
        except ValueError:
            hi *= 0.8
    return tuple(np.geomspace(lo, hi, count))


# ---------------------------------------------------------------------------
# Detector comparison
# ---------------------------------------------------------------------------


# The echo baseline's mean processing delay, the largest jitter it accepts
# (its recording, and the memory it takes, grow with the drawn delay) and its
# calibration rounds.
_ECHO_MU_PROC_S = 0.15
_ECHO_MAX_SIGMA_PROC_S = 1.0
_ECHO_CALIBRATION_TRIALS = 10


def detector_comparison(
    distances: tuple[float, ...],
    trials: int,
    seed: int,
    *,
    environment: str = "office",
    sigma_proc_s: float = 0.02,
    channel_cfg: ch.ChannelConfig | None = None,
) -> ExperimentReport:
    """Mean absolute ranging error for three methods:

    * ``two_way_freq``  - the full protocol with the frequency detector;
    * ``two_way_xcorr`` - the same protocol with the raw cross-correlation
      baseline detector;
    * ``one_way_echo``  - one-way ranging against a processing delay,
      calibrated over ``_ECHO_CALIBRATION_TRIALS`` rounds at 5 cm, whose
      per-trial jitter is Normal(``_ECHO_MU_PROC_S``, ``sigma_proc_s``),
      clipped at zero; ``sigma_proc_s`` must lie in [0, 1] s.
    """
    if not 0 <= sigma_proc_s <= _ECHO_MAX_SIGMA_PROC_S:  # False for nan
        raise ValueError(f"sigma_proc_s must be in [0, {_ECHO_MAX_SIGMA_PROC_S}] seconds, got {sigma_proc_s}")
    cfg = _cfg_for(environment, channel_cfg)
    distances = tuple(distances)
    auth = Endpoint("auth", (0.0, 0.0))

    def echo(vouch: Endpoint, rng: np.random.Generator) -> float | None:
        delay = max(_ECHO_MU_PROC_S + sigma_proc_s * rng.standard_normal(), 0.0)
        return one_way_ranging(auth, vouch, rng, cfg, processing_delay_s=delay)

    errors: dict[str, list[list[float]]] = {}
    for method, detector in (("two_way_freq", "freq"), ("two_way_xcorr", "xcorr")):
        results = _sessions(distances, trials, seed, cfg, AuthPolicy(threshold_m=1.0), detector=detector)
        errors[method] = [[abs(e) for e in signed] for signed in _signed_errors(results, distances)]

    # Calibrate the echo baseline's processing delay at near-zero distance.
    cal_rng = _trial_rng(seed, 99, 0)
    elapsed_cal = [echo(Endpoint("vouch", (0.05, 0.0)), cal_rng) for _ in range(_ECHO_CALIBRATION_TRIALS)]
    elapsed_cal = [elapsed for elapsed in elapsed_cal if elapsed is not None]
    mu_hat = float(np.mean(elapsed_cal)) if elapsed_cal else _ECHO_MU_PROC_S
    errors["one_way_echo"] = []
    for cell, d in enumerate(distances):
        vouch = Endpoint("vouch", (d, 0.0))
        elapsed = (echo(vouch, _trial_rng(seed, cell + 1000, trial)) for trial in range(trials))
        errors["one_way_echo"].append([abs(cfg.speed_of_sound * (e - mu_hat) - d) for e in elapsed if e is not None])
    rows = [
        {
            "method": method,
            "distance_m": d,
            "trials": trials,
            "measured": len(per_cell[cell]),
            "mean_abs_error_m": _nan_if_empty(np.mean, per_cell[cell]),
        }
        for cell, d in enumerate(distances)
        for method, per_cell in errors.items()
    ]
    return ExperimentReport(rows=rows, meta={"seed": seed, "sigma_proc_s": sigma_proc_s, "mu_proc_hat_s": mu_hat})
