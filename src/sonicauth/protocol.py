"""Two-party ranging session and the proximity authentication decision.

One session: the authenticating device draws two randomized reference
signals, ships both to the vouching device over the paired link, both devices
play their assigned signal (staggered by a playback gap) while recording,
each locates both signals in its own recording, the vouching device returns
only its local location difference, and the authenticating device turns the
two differences into a distance:

    d = s/2 * ((l_va - l_vv) / f_v + (l_av - l_aa) / f_a)

which cancels the unknown clock offset between the devices. Access is granted
iff the (non-negative-clamped) distance is within the policy threshold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import channel as ch
from . import spectrum
from .signal import SIGNAL_LENGTH, ReferenceSignal, SignalSpec, _finite_positive, sample_spec, synthesize


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
        if min(self.l_aa, self.l_av, self.l_va, self.l_vv) < 0:
            raise ValueError("locations must be non-negative sample indices")


def estimate_distance(m: SessionMeasurements, speed_of_sound: float = 340.0) -> float:
    """Two-way distance estimate in metres; may be negative on noisy input
    (callers clamp for decisions and keep the raw value for logging)."""
    return 0.5 * speed_of_sound * ((m.l_va - m.l_vv) / m.f_v + (m.l_av - m.l_aa) / m.f_a)


# Range of the paired short-range link: no session runs beyond it.
PAIRING_RANGE_M = 10.0


@dataclass(frozen=True)
class AuthPolicy:
    threshold_m: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold_m < PAIRING_RANGE_M:
            raise ValueError(f"need 0 < threshold < pairing range ({PAIRING_RANGE_M} m), got {self.threshold_m}")


class RejectReason(str, Enum):
    NOT_PAIRED = "not_paired"
    SIGNAL_NOT_PRESENT = "signal_not_present"
    DISTANCE_EXCEEDED = "distance_exceeded"


@dataclass(frozen=True)
class AuthDecision:
    accepted: bool
    reason: RejectReason | None = None
    estimated_distance_m: float | None = None
    raw_distance_m: float | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.reason is not None:
            raise ValueError("accepted decisions carry no reject reason")
        if not self.accepted and self.reason is None:
            raise ValueError("rejections must carry a reason")


def decide(raw_distance: float | None, signal_present: bool, paired: bool, policy: AuthPolicy) -> AuthDecision:
    """Pure decision function; reusable to recompute a verdict offline."""
    if not paired:
        return AuthDecision(accepted=False, reason=RejectReason.NOT_PAIRED)
    if not signal_present or raw_distance is None:
        return AuthDecision(accepted=False, reason=RejectReason.SIGNAL_NOT_PRESENT)
    clamped = max(raw_distance, 0.0)
    if clamped <= policy.threshold_m:
        return AuthDecision(accepted=True, estimated_distance_m=clamped, raw_distance_m=raw_distance)
    return AuthDecision(
        accepted=False,
        reason=RejectReason.DISTANCE_EXCEEDED,
        estimated_distance_m=clamped,
        raw_distance_m=raw_distance,
    )


# A device in a session is described as the channel records it: an id, a
# position and a clock rate.
Endpoint = ch.Recorder


def _to_samples(seconds: float) -> int:
    return int(round(seconds * ch.BASE_SAMPLE_RATE))


# Session timing. The playback gap keeps the two signals from overlapping in
# time (overlap would trip the out-of-set power check when the tone sets
# intersect); the small start jitter keeps scan alignment honest without
# letting coarse-scan misalignment eat the whole detection margin.
PLAYBACK_GAP_S = 0.3
PLAYBACK_START_S = 0.2
START_JITTER_SAMPLES = 200
PLAYBACK_GAP_SAMPLES = _to_samples(PLAYBACK_GAP_S)
# A recording runs this many samples past the latest end of the signals it
# must hold, before rounding up to a fast FFT length: room for a longer
# smoothing kernel or a slower speed of sound than the defaults.
RECORD_MARGIN_SAMPLES = 1000


class LinkError(RuntimeError):
    pass


class SecureLink:
    """Stand-in for the paired short-range channel: reliable ordered byte
    pipe between paired devices, usable exactly within the pairing range. Not
    cryptographic."""

    def __init__(self) -> None:
        self.log: list[dict] = []

    def usable(self, distance_m: float) -> bool:
        return distance_m <= PAIRING_RANGE_M

    def send(self, sender: str, kind: str, payload: bytes, distance_m: float) -> bytes:
        if not self.usable(distance_m):
            raise LinkError("link unavailable")
        self.log.append({"sender": sender, "kind": kind, "bytes": len(payload)})
        return payload


@dataclass
class SessionTranscript:
    """Everything needed to recompute the verdict offline."""

    auth_id: str
    vouch_id: str
    auth_position: tuple[float, ...]
    vouch_position: tuple[float, ...]
    true_distance_m: float
    environment: str
    paired_link_ok: bool
    freqs_a: tuple[float, ...] = ()
    freqs_v: tuple[float, ...] = ()
    locations: dict = field(default_factory=dict)
    peak_norm_powers: dict = field(default_factory=dict)
    sample_rates: dict = field(default_factory=dict)
    playback_start: int | None = None
    playback_gap: int | None = None
    signal_present: bool = False
    raw_distance_m: float | None = None
    estimated_distance_m: float | None = None
    verdict: str = "reject"
    reason: str | None = None
    threshold_m: float | None = None
    session_seed: int | None = None
    link_log: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# An intruder hook receives (scene context, rng) and returns extra emissions.
@dataclass(frozen=True)
class SceneContext:
    """The two devices' positions. Their recordings last ``RECORD_SAMPLES``;
    an emission that starts at or after the end is not heard."""

    auth_position: tuple[float, ...]
    vouch_position: tuple[float, ...]


IntruderFactory = Callable[[SceneContext, np.random.Generator], Sequence[ch.Emission]]


def _draw(rng: np.random.Generator) -> ReferenceSignal:
    """Step I: draw a tone set and synthesize its reference signal."""
    return synthesize(sample_spec(rng))


def _transfer(
    link: SecureLink, sender: str, sig_a: ReferenceSignal, sig_v: ReferenceSignal, d_m: float
) -> tuple[ReferenceSignal, ReferenceSignal]:
    """Step II: byte-faithful transfer of both signals over the paired link;
    returns the receiving device's copies."""
    blob = link.send(sender, "reference_signals", sig_a.to_bytes() + sig_v.to_bytes(), d_m)
    split = 4 + int.from_bytes(blob[:4], "big") + sig_a.samples.nbytes
    return ReferenceSignal.from_bytes(blob[:split]), ReferenceSignal.from_bytes(blob[split:])


def _arrival_end(play_at: int, src: tuple[float, ...], dst: tuple[float, ...], cfg: ch.ChannelConfig) -> int:
    """The recording length that holds all of a reference signal played at
    sample ``play_at`` from ``src`` and heard at ``dst``: start, travel delay,
    signal length and the smoothing kernel's tail."""
    delay = int(np.ceil(ch.propagation_delay_samples(src, dst, cfg)))
    return play_at + delay + SIGNAL_LENGTH + len(cfg.smoothing_kernel) - 1


def _recording_length(end: int) -> int:
    """Samples of a recording that must hold everything ending by sample
    ``end``: the margin added, rounded up to a fast FFT length."""
    return ch.fast_fft_length(end + RECORD_MARGIN_SAMPLES)


# Every recording of a session lasts RECORD_SAMPLES: the latest a session's
# signal can end at either device is the vouching signal's end at the
# authenticating device, played at the latest start and heard at the pairing
# range through the default kernel (sample 27652).
RECORD_SAMPLES = _recording_length(
    _arrival_end(
        _to_samples(PLAYBACK_START_S) + START_JITTER_SAMPLES + PLAYBACK_GAP_SAMPLES,
        (0.0,),
        (PAIRING_RANGE_M,),
        ch.ChannelConfig(),
    )
)


def _record(
    t: SessionTranscript,
    sig_a: ReferenceSignal,
    sig_v: ReferenceSignal,
    cfg: ch.ChannelConfig,
    extra_emissions: Sequence[ch.Emission] = (),
) -> tuple[ch.Recording, ch.Recording]:
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


def _locate(
    samples: np.ndarray, sig_a: ReferenceSignal, sig_v: ReferenceSignal, sample_rate: float, detector: str
) -> tuple[spectrum.DetectionOutcome, spectrum.DetectionOutcome]:
    """Step IV on one device: locate both signals in its own recording."""
    if detector == "freq":
        return spectrum.detect_pair(samples, sig_a, sig_v, sample_rate=sample_rate)
    if detector == "xcorr":
        locations = (spectrum.cross_correlate_detect(samples, sig) for sig in (sig_a, sig_v))
        return tuple(spectrum.DetectionOutcome(location, None) for location in locations)
    raise ValueError(f"unknown detector {detector!r}")


def _conclude(t: SessionTranscript, link: SecureLink, policy: AuthPolicy, speed_of_sound: float) -> AuthDecision:
    """Steps V-VI: the vouching device reports only its local location
    difference, and the authenticating device turns the locations into a
    distance and a verdict, both written to the transcript."""
    raw = None
    if t.signal_present:
        v_diff = t.locations["l_va"] - t.locations["l_vv"]
        payload = int(v_diff).to_bytes(8, "big", signed=True)
        link.send(t.vouch_id, "location_difference", payload, t.true_distance_m)
        raw = estimate_distance(measurements_from_transcript(t), speed_of_sound)
    decision = decide(raw, t.signal_present, t.paired_link_ok, policy)
    t.raw_distance_m = raw
    t.estimated_distance_m = decision.estimated_distance_m
    t.verdict = "accept" if decision.accepted else "reject"
    t.reason = None if decision.accepted else decision.reason.value
    t.link_log = link.log
    return decision


def run_authentication(
    auth: Endpoint,
    vouch: Endpoint,
    policy: AuthPolicy,
    rng: np.random.Generator,
    channel_cfg: ch.ChannelConfig,
    *,
    intruder: IntruderFactory | None = None,
    detector: str = "freq",
) -> tuple[AuthDecision, SessionTranscript]:
    """Run one authentication session end to end on the simulated channel.

    ``detector`` selects the signal-location method: ``"freq"`` (normalized
    spectral power, the default) or ``"xcorr"`` (raw cross-correlation
    baseline, which has no absence verdict).
    """
    d_true = ch._distance(auth.position, vouch.position)
    link = SecureLink()
    t = SessionTranscript(
        auth_id=auth.device_id,
        vouch_id=vouch.device_id,
        auth_position=auth.position,
        vouch_position=vouch.position,
        true_distance_m=d_true,
        environment=channel_cfg.environment,
        paired_link_ok=link.usable(d_true),
        threshold_m=policy.threshold_m,
        sample_rates={"auth": auth.sample_rate, "vouch": vouch.sample_rate},
    )
    if not t.paired_link_ok:
        return _conclude(t, link, policy, channel_cfg.speed_of_sound), t

    sig_a = _draw(rng)
    sig_v = _draw(rng)
    t.freqs_a = sig_a.frequencies
    t.freqs_v = sig_v.frequencies

    vouch_sig_a, vouch_sig_v = _transfer(link, auth.device_id, sig_a, sig_v, d_true)

    # The draw order (start jitter, scene seed, then the intruder) is part of
    # what a session seed reproduces.
    jitter = int(rng.integers(-START_JITTER_SAMPLES, START_JITTER_SAMPLES + 1))
    t.playback_start = _to_samples(PLAYBACK_START_S) + jitter
    t.playback_gap = PLAYBACK_GAP_SAMPLES
    t.session_seed = int(rng.integers(0, 2**31 - 1))
    emissions = ()
    if intruder is not None:
        emissions = intruder(SceneContext(auth.position, vouch.position), rng)
    rec_a, rec_v = _record(t, sig_a, vouch_sig_v, channel_cfg, emissions)

    outcomes = (
        *_locate(rec_a.samples, sig_a, sig_v, auth.sample_rate, detector),
        *_locate(rec_v.samples, vouch_sig_a, vouch_sig_v, vouch.sample_rate, detector),
    )
    for key, out in zip(("l_aa", "l_av", "l_va", "l_vv"), outcomes):
        t.locations[key] = out.location
        t.peak_norm_powers[key] = out.peak_norm_power
    t.signal_present = all(out.location is not None for out in outcomes)
    return _conclude(t, link, policy, channel_cfg.speed_of_sound), t


def replay_session(
    t: SessionTranscript, channel_cfg: ch.ChannelConfig
) -> tuple[ReferenceSignal, ReferenceSignal, ch.Recording, ch.Recording]:
    """Rebuild a session's two reference signals and both recordings from its
    transcript (synthesis is deterministic per tone set). Pass the channel
    settings the session ran with. Emissions from intruders are not part of
    the transcript and are left out."""
    if t.playback_start is None:
        raise ValueError("the session ended before playback; there is nothing to replay")
    sig_a, sig_v = (synthesize(SignalSpec(frequencies=freqs)) for freqs in (t.freqs_a, t.freqs_v))
    return (sig_a, sig_v, *_record(t, sig_a, sig_v, channel_cfg))


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


def one_way_ranging(
    auth: Endpoint,
    vouch: Endpoint,
    rng: np.random.Generator,
    channel_cfg: ch.ChannelConfig,
    *,
    processing_delay_s: float,
) -> float | None:
    """One round of the one-way echo baseline.

    The authenticating device hands a fresh reference signal to the vouching
    device (instantaneous over the paired link) and starts its clock; the
    vouching device plays it after ``processing_delay_s``; the authenticating
    device locates the arrival in a recording that ends, like a session's,
    ``RECORD_MARGIN_SAMPLES`` after the latest the signal can end, rounded up
    to a fast FFT length. Returns the elapsed seconds, or None when the signal
    is not detected.
    """
    sig = _draw(rng)
    t_send = _to_samples(0.15)
    play_at = t_send + _to_samples(processing_delay_s)
    end = _arrival_end(play_at, vouch.position, auth.position, channel_cfg)
    scene = ch.AcousticScene(
        emissions=(ch.Emission(vouch.device_id, sig.samples, play_at, vouch.position),),
        recorders=(auth,),
        duration=_recording_length(end),
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    rec = ch.record(scene, auth.device_id, channel_cfg)
    out = spectrum.detect(rec.samples, sig, sample_rate=auth.sample_rate)
    if out.location is None:
        return None
    return (out.location - t_send) / auth.sample_rate
