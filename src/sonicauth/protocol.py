"""Two-party ranging session and the proximity authentication decision.

One session: the authenticating device draws two randomized reference
signals, ships both to the vouching device over the paired link, both devices
play their assigned signal (staggered by a playback gap) while recording,
each locates both signals in its own recording, the vouching device returns
only its local location difference, and the authenticating device turns the
two differences into a distance:

    d = s/2 * ((l_va - l_vv) / f_v + (l_av - l_aa) / f_a)

which cancels the unknown clock offset between the devices. Access is granted
iff the distance is within the policy threshold; the transcript keeps the
estimate and the estimate clamped at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import channel as ch
from . import spectrum
from .signal import (
    SIGNAL_LENGTH,
    ReferenceSignal,
    SignalSpec,
    _finite_positive,
    _is_integer,
    _is_real,
    sample_spec,
    synthesize,
)


@dataclass(frozen=True)
class SessionMeasurements:
    """The four detected locations plus each device's sample rate."""

    l_aa: int
    l_av: int
    l_va: int
    l_vv: int
    f_a: float
    f_v: float

    def __post_init__(self) -> None:
        if not (_finite_positive(self.f_a) and _finite_positive(self.f_v)):
            raise ValueError(f"sample rates must be finite and positive, got {self.f_a} and {self.f_v}")
        for name in ("l_aa", "l_av", "l_va", "l_vv"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer sample index, got {value!r}")


def estimate_distance(m: SessionMeasurements, speed_of_sound: float = 340.0) -> float:
    """Two-way distance estimate in metres; may be negative on noisy input
    (callers clamp for decisions and keep the raw value for logging). A
    ``speed_of_sound`` that is not finite and positive raises a ValueError
    naming it."""
    if not _finite_positive(speed_of_sound):
        raise ValueError(f"speed_of_sound must be finite and positive, got {speed_of_sound!r}")
    return 0.5 * speed_of_sound * ((m.l_va - m.l_vv) / m.f_v + (m.l_av - m.l_aa) / m.f_a)


# Range of the paired short-range link: no session runs beyond it.
PAIRING_RANGE_M = 10.0


@dataclass(frozen=True)
class AuthPolicy:
    threshold_m: float = 1.0

    def __post_init__(self) -> None:
        if not (_is_real(self.threshold_m) and 0 < self.threshold_m < PAIRING_RANGE_M):
            raise ValueError(
                f"threshold_m must be a number with 0 < threshold_m < pairing range ({PAIRING_RANGE_M} m), "
                f"got {self.threshold_m!r}"
            )


class RejectReason(str, Enum):
    NOT_PAIRED = "not_paired"
    SIGNAL_NOT_PRESENT = "signal_not_present"
    DISTANCE_EXCEEDED = "distance_exceeded"


@dataclass(frozen=True)
class AuthDecision:
    """The verdict alone; a session's transcript holds the distances."""

    accepted: bool
    reason: RejectReason | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.reason is not None:
            raise ValueError("accepted decisions carry no reject reason")
        if not self.accepted and self.reason is None:
            raise ValueError("rejections must carry a reason")


def decide(raw_distance: float | None, signal_present: bool, paired: bool, policy: AuthPolicy) -> AuthDecision:
    """Pure decision function; reusable to recompute a verdict offline. The
    raw estimate is compared with the threshold as it is: the threshold is
    above 0, so a negative estimate is accepted as its clamp at 0 would be."""
    if not paired:
        return AuthDecision(accepted=False, reason=RejectReason.NOT_PAIRED)
    if not signal_present or raw_distance is None:
        return AuthDecision(accepted=False, reason=RejectReason.SIGNAL_NOT_PRESENT)
    if raw_distance <= policy.threshold_m:
        return AuthDecision(accepted=True)
    return AuthDecision(accepted=False, reason=RejectReason.DISTANCE_EXCEEDED)


# A device in a session is described as the channel records it: an id, a
# position and a clock rate.
Endpoint = ch.Recorder


def _to_samples(seconds: float) -> int:
    return int(round(seconds * ch.BASE_SAMPLE_RATE))


# Session timing. The playback gap keeps the two signals from overlapping in
# time (overlap would trip the out-of-set power check when the tone sets
# intersect). The start jitter stands in for a device's unknown output
# latency: a device knows when it scheduled its own signal but not the drawn
# jitter, so it searches that signal over every start the jitter allows
# (``_own_span``).
# - The lead-in only has to cover the jitter: the earliest start is
#   2205 - 200 = 2005 samples.
# - The gap must keep the two bursts apart at both devices at the pairing
#   range: there the first burst ends at the far device the travel delay
#   (1298 samples at 10 m), the signal length (4096) and the default kernel's
#   tail (8) after it is played, so the gap needs at least 5402 samples
#   (0.12 s).
# - The gap is 0.2 s (8820 samples), not 0.15 s: with the shorter gap, more
#   crowded sessions lose a signal to an interfering pair's bursts.
PLAYBACK_GAP_S = 0.2
PLAYBACK_START_S = 0.05
START_JITTER_SAMPLES = 200
PLAYBACK_GAP_SAMPLES = _to_samples(PLAYBACK_GAP_S)
# Each device searches for its partner's signal only at the lags from its own
# signal that the schedule allows (``_partner_lags``), and for its own signal
# only at the starts its schedule allows (``_own_span``), each widened by this
# many samples either side. Over 1000 single-pair sessions (office at seed
# 8101, street at seeds 99 and 8103, silent at 8103) a located lag fell at
# most 39.4 samples before its true lag and 40.6 after it, but for one lock
# onto the wrong burst; 40 is the smallest width that keeps every such
# location inside the window at any separation from 0 to the pairing range.
# A located own signal fell at most 9 samples from where it was played.
PARTNER_LAG_TOLERANCE = 40
# A recording runs this many samples past the latest a session's signals can
# end, before rounding up to a fast FFT length: room for a longer smoothing
# kernel or a slower speed of sound than the defaults (``_record`` refuses a
# setting that needs more).
RECORD_MARGIN_SAMPLES = 1000


@dataclass
class SessionTranscript:
    """Everything needed to recompute the verdict offline. A session is built
    from its nine inputs; the session writes every other field."""

    auth_id: str
    vouch_id: str
    auth_position: tuple[float, ...]
    vouch_position: tuple[float, ...]
    true_distance_m: float
    environment: str
    paired_link_ok: bool
    freqs_a: tuple[float, ...] = field(init=False, default=())
    freqs_v: tuple[float, ...] = field(init=False, default=())
    locations: dict = field(init=False, default_factory=dict)
    peak_norm_powers: dict = field(init=False, default_factory=dict)
    sample_rates: dict
    playback_start: int | None = field(init=False, default=None)
    playback_gap: int | None = field(init=False, default=None)
    signal_present: bool = field(init=False, default=False)
    raw_distance_m: float | None = field(init=False, default=None)
    estimated_distance_m: float | None = field(init=False, default=None)
    verdict: str = field(init=False, default="reject")
    reason: str | None = field(init=False, default=None)
    threshold_m: float
    session_seed: int | None = field(init=False, default=None)
    # The paired link, a reliable ordered byte pipe between the paired
    # devices (not cryptographic): each message's sender, kind and length.
    link_log: list = field(init=False, default_factory=list)

    def to_json(self) -> str:
        # A numpy scalar a session stored, as the Python number it holds.
        return json.dumps(asdict(self), default=lambda value: value.item())


# An intruder hook receives the session's two devices and its rng, and returns
# extra emissions. The recordings last ``RECORD_SAMPLES``; an emission that
# starts at or after the end is not heard.
IntruderFactory = Callable[[Endpoint, Endpoint, np.random.Generator], Sequence[ch.Emission]]


def _transfer(
    t: SessionTranscript, sig_a: ReferenceSignal, sig_v: ReferenceSignal
) -> tuple[ReferenceSignal, ReferenceSignal]:
    """Step II: byte-faithful transfer of both signals from the
    authenticating device over the paired link, logged as one message;
    returns the vouching device's copies, each payload decoded on its own."""
    payloads = sig_a.to_bytes(), sig_v.to_bytes()
    t.link_log.append({"sender": t.auth_id, "kind": "reference_signals", "bytes": sum(map(len, payloads))})
    return ReferenceSignal.from_bytes(payloads[0]), ReferenceSignal.from_bytes(payloads[1])


def _arrival_end(play_at: int, src: tuple[float, ...], dst: tuple[float, ...], cfg: ch.ChannelConfig) -> int:
    """The recording length that holds all of a reference signal played at
    sample ``play_at`` from ``src`` and heard at ``dst``: start, travel delay,
    signal length and the smoothing kernel's tail."""
    delay = int(np.ceil(ch.propagation_delay_samples(src, dst, cfg)))
    return play_at + delay + SIGNAL_LENGTH + len(cfg.smoothing_kernel) - 1


# Every recording lasts RECORD_SAMPLES: the latest a session's signal can end
# at either device is the vouching signal's end at the authenticating device,
# played at the latest start and heard at the pairing range through the
# default kernel (sample 16627). The margin is added and the sum rounded up to
# a fast FFT length.
RECORD_SAMPLES = ch.fast_fft_length(
    _arrival_end(
        _to_samples(PLAYBACK_START_S) + START_JITTER_SAMPLES + PLAYBACK_GAP_SAMPLES,
        (0.0,),
        (PAIRING_RANGE_M,),
        ch.ChannelConfig(),
    )
    + RECORD_MARGIN_SAMPLES
)


def _widened(lo: float, hi: float, sample_rate: float) -> tuple[int, int]:
    """Base-rate samples ``[lo, hi]`` scaled to a recorder's samples at
    ``sample_rate``, then widened by ``PARTNER_LAG_TOLERANCE`` either side."""
    r = sample_rate / ch.BASE_SAMPLE_RATE
    return math.floor(lo * r) - PARTNER_LAG_TOLERANCE, math.ceil(hi * r) + PARTNER_LAG_TOLERANCE


def _partner_lags(first: int, sample_rate: float, speed_of_sound: float) -> tuple[int, int]:
    """The lags from a device's own signal, in its recorder's samples, at
    which its partner's signal can arrive: from ``first`` base-rate samples
    (the playback gap at the authenticating device, minus the gap at the
    vouching one) to that plus the travel delay at ``PAIRING_RANGE_M``, both
    ``_widened``."""
    return _widened(first, first + PAIRING_RANGE_M / speed_of_sound * ch.BASE_SAMPLE_RATE, sample_rate)


def _own_span(nominal: int, sample_rate: float) -> tuple[int, int]:
    """The window starts, in its recorder's samples, at which a device's own
    signal can begin: its scheduled start ``nominal`` (base-rate samples)
    give or take ``START_JITTER_SAMPLES``, both ``_widened``."""
    return _widened(nominal - START_JITTER_SAMPLES, nominal + START_JITTER_SAMPLES, sample_rate)


def _locate_signals(
    x: np.ndarray, own: ReferenceSignal, partner: ReferenceSignal, rate: float, own_at: int, partner_at: int, speed: float
) -> tuple[spectrum.DetectionOutcome, spectrum.DetectionOutcome]:
    """Step IV at one device: the outcomes of its own signal and then its
    partner's in its recording ``x``, made at ``rate``. It locates its own
    signal where its schedule put it (``own_at``, base-rate samples), then its
    partner's, scheduled at ``partner_at``, at the lags the schedule allows."""
    lags = _partner_lags(partner_at - own_at, rate, speed)
    return spectrum.detect_pair(x, own, partner, sample_rate=rate, own_span=_own_span(own_at, rate), partner_lags=lags)


def _record(
    t: SessionTranscript,
    sig_a: ReferenceSignal,
    sig_v: ReferenceSignal,
    cfg: ch.ChannelConfig,
    extra_emissions: Sequence[ch.Emission],
) -> tuple[np.ndarray, np.ndarray]:
    """Step III: staggered playback while both devices record.

    The scene comes from the transcript's devices, playback times and seed
    alone (plus any extra emissions), so a transcript rebuilds its own
    recordings."""
    # The latest the vouching signal can end at the authenticating device.
    latest_start = _to_samples(PLAYBACK_START_S) + START_JITTER_SAMPLES + t.playback_gap
    end = _arrival_end(latest_start, t.vouch_position, t.auth_position, cfg)
    if end > RECORD_SAMPLES:
        raise ValueError(
            f"the {RECORD_SAMPLES}-sample recording is too short: with a {len(cfg.smoothing_kernel)}-tap smoothing "
            f"kernel the vouching signal may end at sample {end} at the authenticating device"
        )
    scene = ch.AcousticScene(
        emissions=(
            ch.Emission(t.auth_id, sig_a.samples, t.playback_start, t.auth_position),
            ch.Emission(t.vouch_id, sig_v.samples, t.playback_start + t.playback_gap, t.vouch_position),
            *extra_emissions,
        ),
        recorders=(
            ch.Recorder(t.auth_id, t.auth_position, t.sample_rates["auth"]),
            ch.Recorder(t.vouch_id, t.vouch_position, t.sample_rates["vouch"]),
        ),
        duration=RECORD_SAMPLES,
        seed=t.session_seed,
    )
    return ch.record(scene, t.auth_id, cfg), ch.record(scene, t.vouch_id, cfg)


def _conclude(t: SessionTranscript, policy: AuthPolicy, speed_of_sound: float) -> AuthDecision:
    """Steps V-VI: the vouching device reports only its local location
    difference, and the authenticating device turns the locations into a
    distance and a verdict, both written to the transcript: the raw estimate
    and, clamped at zero, the estimated distance."""
    if t.signal_present:
        v_diff = t.locations["l_va"] - t.locations["l_vv"]
        payload = int(v_diff).to_bytes(8, "big", signed=True)
        t.link_log.append({"sender": t.vouch_id, "kind": "location_difference", "bytes": len(payload)})
        t.raw_distance_m = estimate_distance(measurements_from_transcript(t), speed_of_sound)
        t.estimated_distance_m = max(t.raw_distance_m, 0.0)
    decision = decide(t.raw_distance_m, t.signal_present, t.paired_link_ok, policy)
    t.verdict = "accept" if decision.accepted else "reject"
    t.reason = None if decision.accepted else decision.reason.value
    return decision


def run_authentication(
    auth: Endpoint,
    vouch: Endpoint,
    policy: AuthPolicy,
    rng: np.random.Generator,
    channel_cfg: ch.ChannelConfig,
    *,
    intruder: IntruderFactory | None = None,
) -> tuple[AuthDecision, SessionTranscript]:
    """Run one authentication session end to end on the simulated channel."""
    d_true = ch._distance(auth.position, vouch.position)
    t = SessionTranscript(
        auth_id=auth.device_id,
        vouch_id=vouch.device_id,
        auth_position=auth.position,
        vouch_position=vouch.position,
        true_distance_m=d_true,
        environment=channel_cfg.environment,
        # The paired link is usable exactly within the pairing range.
        paired_link_ok=d_true <= PAIRING_RANGE_M,
        threshold_m=policy.threshold_m,
        sample_rates={"auth": auth.sample_rate, "vouch": vouch.sample_rate},
    )
    if not t.paired_link_ok:
        return _conclude(t, policy, channel_cfg.speed_of_sound), t

    # Step I: draw each device's tone set and synthesize its reference signal.
    sig_a = synthesize(sample_spec(rng))
    sig_v = synthesize(sample_spec(rng))
    t.freqs_a = sig_a.frequencies
    t.freqs_v = sig_v.frequencies

    vouch_sig_a, vouch_sig_v = _transfer(t, sig_a, sig_v)

    # The draw order (start jitter, scene seed, then the intruder) is part of
    # what a session seed reproduces.
    jitter = int(rng.integers(-START_JITTER_SAMPLES, START_JITTER_SAMPLES + 1))
    t.playback_start = _to_samples(PLAYBACK_START_S) + jitter
    t.playback_gap = PLAYBACK_GAP_SAMPLES
    t.session_seed = int(rng.integers(0, 2**31 - 1))
    emissions = ()
    if intruder is not None:
        emissions = intruder(auth, vouch, rng)
    rec_a, rec_v = _record(t, sig_a, vouch_sig_v, channel_cfg, emissions)

    # Step IV at each device, from the scheduled starts of the two signals.
    at_a = _to_samples(PLAYBACK_START_S)
    at_v = at_a + t.playback_gap
    speed = channel_cfg.speed_of_sound
    out_aa, out_av = _locate_signals(rec_a, sig_a, sig_v, auth.sample_rate, at_a, at_v, speed)
    out_vv, out_va = _locate_signals(rec_v, vouch_sig_v, vouch_sig_a, vouch.sample_rate, at_v, at_a, speed)
    outcomes = (out_aa, out_av, out_va, out_vv)
    for key, out in zip(("l_aa", "l_av", "l_va", "l_vv"), outcomes):
        t.locations[key] = out.location
        t.peak_norm_powers[key] = out.peak_norm_power
    t.signal_present = all(out.location is not None for out in outcomes)
    return _conclude(t, policy, channel_cfg.speed_of_sound), t


def replay_session(
    t: SessionTranscript, channel_cfg: ch.ChannelConfig
) -> tuple[ReferenceSignal, ReferenceSignal, np.ndarray, np.ndarray]:
    """Rebuild a session's two reference signals and both recordings, each at
    its device's rate in ``t.sample_rates``, from its transcript (synthesis is
    deterministic per tone set). Pass the channel
    settings the session ran with. Emissions from intruders are not part of
    the transcript and are left out."""
    if t.playback_start is None:
        raise ValueError("the session ended before playback; there is nothing to replay")
    sig_a, sig_v = (synthesize(SignalSpec(frequencies=freqs)) for freqs in (t.freqs_a, t.freqs_v))
    return (sig_a, sig_v, *_record(t, sig_a, sig_v, channel_cfg, ()))


def measurements_from_transcript(t: SessionTranscript) -> SessionMeasurements:
    locs = t.locations
    return SessionMeasurements(
        l_aa=locs["l_aa"],
        l_av=locs["l_av"],
        l_va=locs["l_va"],
        l_vv=locs["l_vv"],
        f_a=t.sample_rates["auth"],
        f_v=t.sample_rates["vouch"],
    )
