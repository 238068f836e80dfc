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
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from . import adversary as adv
from . import channel as ch
from . import signal as sg  # read at call time, so a wrapper installed on a signal function sees every call
from . import spectrum
from .protocol import (
    PAIRING_RANGE_M,
    PLAYBACK_GAP_SAMPLES,
    AuthPolicy,
    Endpoint,
    IntruderFactory,
    RejectReason,
    SessionMeasurements,
    SessionTranscript,
    estimate_distance,
    replay_session,
    run_authentication,
)

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
        if not sg._finite_positive(self.sigma_m):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma_m}")
        ranges = (self.detect_range_m, self.pairing_range_m)
        if not (all(map(sg._finite_positive, ranges)) and self.detect_range_m < self.pairing_range_m):
            raise ValueError(
                f"need 0 < detect_range < pairing_range < inf, got {self.detect_range_m} and {self.pairing_range_m}"
            )


def _normal_cdf_integral_gap(x: float) -> float:
    """``G(0) - G(-x)`` for ``x >= 0``, where ``G(u) = u*Phi(u) + phi(u)`` is
    the antiderivative of the standard normal CDF: ``phi(0)*(1 - exp(-x*x/2))
    + x*Phi(-x)``. ``expm1`` keeps the first term exact where ``x`` is small,
    so no two nearly equal terms are subtracted."""
    if math.isinf(x):  # a subnormal sigma: the limit, not inf * erfc(inf)
        return 1.0 / math.sqrt(2.0 * math.pi)
    return -math.expm1(-0.5 * x * x) / math.sqrt(2.0 * math.pi) + x * 0.5 * math.erfc(x / math.sqrt(2.0))


def frr_far_model(tau_m: float, model: ErrorModel) -> tuple[float, float]:
    """False rejection and false acceptance rates at threshold ``tau_m``.

    FRR averages Pr[estimate > tau] over legitimate distances (0, tau];
    FAR averages Pr[estimate <= tau] over illegitimate distances
    (tau, pairing range], where the acceptance probability is zero beyond the
    detect range (the signal is simply not present). Both integrals of the
    normal CDF are exact, through its antiderivative ``G``, and free of
    cancellation at any sigma.
    """
    if not (sg._is_real(tau_m) and 0 < tau_m < model.detect_range_m):
        raise ValueError(f"threshold tau_m must lie in (0, detect_range), got {tau_m!r}")
    sigma = model.sigma_m
    # The FRR tends to 1/2 as tau/sigma -> 0; min holds it there where the product rounds past 1/2, is inf or is nan.
    frr = min(0.5, sigma / tau_m * _normal_cdf_integral_gap(tau_m / sigma))
    far = sigma * _normal_cdf_integral_gap((model.detect_range_m - tau_m) / sigma) / (model.pairing_range_m - tau_m)
    return frr, far


def fit_sigma(frr_target: float, tau_m: float) -> float:
    """Invert the model: sigma such that FRR(tau) hits ``frr_target``.

    Bisection to 1e-6 over sigma in (1e-4, 1), in which the FRR rises;
    raises when no sigma in the bracket reaches the target (the model's FRR
    stays below 0.5)."""

    def frr(sigma: float) -> float:
        return frr_far_model(tau_m, ErrorModel(sigma))[0]

    if not sg._is_real(frr_target):
        raise ValueError(f"frr_target must be a real number, got {frr_target!r}")
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
    meta: dict
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
        # A numpy scalar, a count or a power passed in by the caller, as the Python number it holds.
        return json.dumps({"meta": self.meta, "rows": self.rows}, default=lambda value: value.item())


def _trial_rng(seed: int, cell: int, trial: int) -> np.random.Generator:
    """The stream of one trial, or of another seeded draw, of a campaign;
    ``ValueError`` when ``seed`` is not a non-negative integer."""
    if not (sg._is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got seed={seed!r}")
    return np.random.default_rng(np.random.SeedSequence([seed, cell, trial]))


def _check_count(name: str, value) -> None:
    if not sg._is_integer(value):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")


def _check_separations(separations: tuple[float, ...]) -> None:
    """``ValueError`` when there is no separation or a separation is not a
    finite, non-negative distance (a bool is not a distance)."""
    if not separations:
        raise ValueError("need at least one distance, got none")
    for d in separations:
        if not sg._is_real(d):
            raise ValueError(f"separation must be a real number of metres, got {d!r}")
        if not (sg._finite_real(d) and d >= 0):
            raise ValueError(f"separation must be a finite, non-negative distance in metres, got {d}")


def _sessions(
    separations: tuple[float, ...],
    trials: int,
    seed: int,
    cfg: ch.ChannelConfig,
    intruder: IntruderFactory | None,
) -> list[tuple[int, SessionTranscript]]:
    """Run ``trials`` seeded sessions per cell, cell by cell, with the devices
    at (0, 0) and (``separations[cell]``, 0), ``intruder`` adding its
    emissions, under the default ``AuthPolicy``; return (cell, transcript)
    per session. ``run_authentication`` is looked up here at call time.
    Raises ``ValueError`` before any session when ``trials`` is not an
    integer of at least 1 or a separation is not a finite, non-negative
    distance; a separation beyond the pairing range is legal and is rejected
    as not paired."""
    _check_count("trials", trials)
    if trials < 1:
        raise ValueError(f"need at least one trial per cell, got trials={trials}")
    _check_separations(separations)
    policy = AuthPolicy()
    results = []
    for cell, d in enumerate(separations):
        for trial in range(trials):
            auth = Endpoint("auth", (0.0, 0.0))
            vouch = Endpoint("vouch", (d, 0.0))
            rng = _trial_rng(seed, cell, trial)
            _, transcript = run_authentication(auth, vouch, policy, rng, cfg, intruder=intruder)
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
    """The campaign's channel: ``channel_cfg``, or the default channel in
    ``environment``. A ``channel_cfg`` in another environment is refused."""
    if channel_cfg is None:
        return ch.ChannelConfig(environment=environment)
    if not isinstance(channel_cfg, ch.ChannelConfig):
        raise ValueError(f"channel_cfg must be a ChannelConfig or None, got {channel_cfg!r}")
    if channel_cfg.environment != environment:
        raise ValueError(
            f"channel_cfg's environment {channel_cfg.environment!r} disagrees with environment={environment!r}"
        )
    return channel_cfg


# ---------------------------------------------------------------------------
# Ranging campaigns
# ---------------------------------------------------------------------------


# The interferers' timeline: their sessions start at random over 1.5 s, the
# recordings' length before they were cut to what a session needs, so that
# other users keep their rate per second. A pair that starts after the
# recording ends is not heard.
INTERFERER_TIMELINE_SAMPLES = 66_150


def _interferer_emissions(
    auth: Endpoint, vouch: Endpoint, rng: np.random.Generator, pairs: int
) -> list[ch.Emission]:
    """Extra device pairs running their own sessions near the session's two
    devices: each pair plays two fresh reference signals, synthesized and
    staggered like the legitimate session's, at random times over
    ``INTERFERER_TIMELINE_SAMPLES`` and at random positions around the
    midpoint of ``auth.position`` and ``vouch.position``."""
    emissions = []
    mid = tuple((a + v) / 2 for a, v in zip(auth.position, vouch.position))
    for u in range(pairs):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(2.5, 4.0)
        center = (mid[0] + radius * np.cos(angle), mid[1] + radius * np.sin(angle))
        half_gap = rng.uniform(0.2, 0.5)
        pos_1 = (center[0] - half_gap, center[1])
        pos_2 = (center[0] + half_gap, center[1])
        sig_1 = sg.synthesize(sg.sample_spec(rng))
        sig_2 = sg.synthesize(sg.sample_spec(rng))
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
    min_trials: int = DEFAULT_MIN_TRIALS,
) -> ExperimentReport:
    """Absolute ranging error statistics per distance on the default channel;
    the decision threshold plays no role (estimates are logged regardless of
    the verdict)."""
    return multiuser_campaign(1, distances, trials, seed, environment=environment, min_trials=min_trials)


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
    for name, count in (("pairs", pairs), ("trials", trials), ("min_trials", min_trials)):
        _check_count(name, count)
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    if trials < min_trials:
        raise ValueError(f"need at least {min_trials} trials per distance (got {trials})")
    distances = tuple(distances)
    cfg = _cfg_for(environment, channel_cfg)
    intruder = None
    if pairs > 1:
        intruder = lambda auth, vouch, r: _interferer_emissions(auth, vouch, r, pairs - 1)
    results = _sessions(distances, trials, seed, cfg, intruder)
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


def attack_campaign(
    scenario: adv.AttackScenario,
    trials: int,
    seed: int,
    *,
    separation_m: float = 3.0,
    environment: str = "office",
    channel_cfg: ch.ChannelConfig | None = None,
) -> ExperimentReport:
    """Run full sessions with the attacker injected and count acceptances
    under the default ``AuthPolicy`` threshold, 1 m.

    The legitimate devices sit ``separation_m`` apart (default beyond the
    detect range: the attacker tries while the user is away). The report's
    one row holds the scenario's name and fields, the trials, the accepts
    and one count per ``RejectReason``. A ``scenario`` that is not an
    ``AttackScenario`` raises ``ValueError`` before any session."""
    if not isinstance(scenario, adv.AttackScenario):
        raise ValueError(f"scenario must be a ZeroEffort, GuessingReplay or AllFrequency, got {scenario!r}")
    cfg = _cfg_for(environment, channel_cfg)
    intruder = lambda auth, vouch, r: adv.build_emissions(scenario, auth, vouch, r)
    results = _sessions((separation_m,), trials, seed, cfg, intruder)
    transcripts = [t for _, t in results]
    reasons = Counter(t.reason for t in transcripts)
    row = {
        "scenario": type(scenario).__name__,
        **asdict(scenario),
        "trials": trials,
        "accepts": sum(t.verdict == "accept" for t in transcripts),
        **{reason.value: reasons[reason.value] for reason in RejectReason},
    }
    meta = {"environment": environment, "seed": seed, "separation_m": separation_m}
    return ExperimentReport(rows=[row], meta=meta, transcripts=transcripts)


# The sweep's reference signal: the first half of the candidate tones.
_SWEEP_REFERENCE_TONES = 15


def all_frequency_power_sweep(count: int) -> tuple[float, ...]:
    """``count`` log-spaced emitted per-tone powers spanning from well below
    the out-of-set threshold to the largest feasible level (which crosses the
    received-power thresholds at close range). Raises ``ValueError`` when
    ``count`` is not an integer of at least 1."""
    _check_count("count", count)
    if count < 1:
        raise ValueError(f"need at least one power, got count={count}")
    ref = sg.synthesize(sg.SignalSpec(frequencies=sg.CANDIDATES[:_SWEEP_REFERENCE_TONES]))
    r_f = ref.total_power / _SWEEP_REFERENCE_TONES
    lo = spectrum.beta(ref.total_power, _SWEEP_REFERENCE_TONES) / 4.0
    hi = 4.0 * spectrum.ALPHA * r_f
    # keep the top of the sweep feasible for a 30-tone sum in 16-bit range
    for _ in range(40):
        try:
            adv.all_frequency_amplitudes(hi)
            break
        except ValueError:
            hi *= 0.8
    return tuple(np.geomspace(lo, hi, count))


# ---------------------------------------------------------------------------
# Detector comparison
# ---------------------------------------------------------------------------


# The echo baseline's mean processing delay, the largest jitter it accepts (a
# second of jitter already spans 340 m, far past the pairing range) and its
# calibration rounds.
_ECHO_MU_PROC_S = 0.15
_ECHO_MAX_SIGMA_PROC_S = 1.0
_ECHO_CALIBRATION_TRIALS = 10


def _xcorr_distance(t: SessionTranscript, cfg: ch.ChannelConfig) -> float:
    """The raw cross-correlation baseline's distance for a played session:
    each signal located in the session's replayed recordings at the argmax of
    its raw cross-correlation."""
    sig_a, sig_v, rec_a, rec_v = replay_session(t, cfg)
    locations = (spectrum.cross_correlate_detect(rec, sig) for rec in (rec_a, rec_v) for sig in (sig_a, sig_v))
    m = SessionMeasurements(*locations, f_a=t.sample_rates["auth"], f_v=t.sample_rates["vouch"])
    return estimate_distance(m, cfg.speed_of_sound)


def detector_comparison(
    distances: tuple[float, ...],
    trials: int,
    seed: int,
    *,
    environment: str = "office",
    sigma_proc_s: float = 0.02,
    channel_cfg: ch.ChannelConfig | None = None,
) -> ExperimentReport:
    """Mean absolute ranging error for three methods, all scored on the same
    sessions:

    * ``two_way_freq``  - the full protocol with the frequency detector;
    * ``two_way_xcorr`` - the raw cross-correlation baseline detector on the
      sessions' recordings, replayed from their transcripts;
    * ``one_way_echo``  - one-way ranging from the vouching signal's arrival
      at the authenticating device (``l_av``) less its scheduled playback,
      plus a processing delay the authenticating device cannot see, drawn
      per trial from Normal(``_ECHO_MU_PROC_S``, ``sigma_proc_s``) clipped at
      zero, less the mean of ``_ECHO_CALIBRATION_TRIALS`` calibration draws;
      ``sigma_proc_s`` must lie in [0, 1] s. A session whose ``l_av`` was not
      found is not measured.

    A distance beyond the pairing range, where no paired link serves any
    method, raises ``ValueError`` before any session.
    """
    if not (sg._is_real(sigma_proc_s) and 0 <= sigma_proc_s <= _ECHO_MAX_SIGMA_PROC_S):  # False for nan
        raise ValueError(f"sigma_proc_s must be in [0, {_ECHO_MAX_SIGMA_PROC_S}] seconds, got {sigma_proc_s}")
    cfg = _cfg_for(environment, channel_cfg)
    distances = tuple(distances)
    _check_separations(distances)
    for d in distances:
        if d > PAIRING_RANGE_M:
            raise ValueError(f"distance {d} m is beyond the {PAIRING_RANGE_M} m pairing range")

    def delay(rng: np.random.Generator) -> float:
        return max(_ECHO_MU_PROC_S + sigma_proc_s * rng.standard_normal(), 0.0)

    # The echo baseline's calibration: the mean of delays drawn on a stream of their own.
    cal_rng = _trial_rng(seed, 99, 0)
    mu_hat = float(np.mean([delay(cal_rng) for _ in range(_ECHO_CALIBRATION_TRIALS)]))
    results = _sessions(distances, trials, seed, cfg, None)
    errors = {"two_way_freq": [[abs(e) for e in signed] for signed in _signed_errors(results, distances)]}
    errors["two_way_xcorr"] = [[] for _ in distances]
    errors["one_way_echo"] = [[] for _ in distances]
    # The sessions run cell by cell, trial by trial: result i is trial i % trials.
    for i, (cell, t) in enumerate(results):
        errors["two_way_xcorr"][cell].append(abs(_xcorr_distance(t, cfg) - distances[cell]))
        l_av = t.locations["l_av"]
        if l_av is not None:
            played = (t.playback_start + t.playback_gap) / ch.BASE_SAMPLE_RATE
            elapsed = l_av / t.sample_rates["auth"] - played + delay(_trial_rng(seed, cell + 1000, i % trials))
            errors["one_way_echo"][cell].append(abs(cfg.speed_of_sound * (elapsed - mu_hat) - distances[cell]))
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
