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
from .signal import DEFAULT_GRID, ReferenceSignal, SignalSpec, sample_spec, synthesize


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
        if self.f_a <= 0 or self.f_v <= 0:
            raise ValueError("sample rates must be positive")
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
    pairing_range_m: float = PAIRING_RANGE_M

    def __post_init__(self) -> None:
        if not 0 < self.threshold_m < self.pairing_range_m:
            raise ValueError("need 0 < threshold < pairing_range")


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


@dataclass(frozen=True)
class ProtocolConfig:
    """Session timing. The playback gap keeps the two signals from
    overlapping in time (overlap would trip the out-of-set power check when
    the tone sets intersect); the small start jitter keeps scan alignment
    honest without letting coarse-scan misalignment eat the whole detection
    margin."""

    playback_gap_s: float = 0.3
    record_duration_s: float = 1.5
    playback_start_s: float = 0.2
    start_jitter_samples: int = 200
    disjoint_frequency_sets: bool = False


class LinkError(RuntimeError):
    pass


class SecureLink:
    """Stand-in for the paired short-range channel: reliable ordered byte
    pipe with a pairing flag and a hard range gate. Not cryptographic."""

    def __init__(self, paired: bool, max_range_m: float) -> None:
        self.paired = paired
        self.max_range_m = max_range_m
        self.log: list[dict] = []

    def usable(self, distance_m: float) -> bool:
        return self.paired and distance_m <= self.max_range_m

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
# ``playback_gap`` (samples) and ``params`` are the session's own, so a hook
# can stage signals the way the session does.
@dataclass(frozen=True)
class SceneContext:
    auth_position: tuple[float, ...]
    vouch_position: tuple[float, ...]
    duration: int
    playback_gap: int
    params: spectrum.DetectionParams


IntruderFactory = Callable[[SceneContext, np.random.Generator], Sequence[ch.Emission]]


def _to_samples(seconds: float) -> int:
    return int(round(seconds * ch.BASE_SAMPLE_RATE))


def _draw(
    rng: np.random.Generator, params: spectrum.DetectionParams, exclude: frozenset = frozenset()
) -> ReferenceSignal:
    """Step I: draw a tone set and synthesize its reference signal."""
    return synthesize(sample_spec(rng, DEFAULT_GRID, exclude=exclude), params=params)


def _transfer(
    link: SecureLink, sender: str, sig_a: ReferenceSignal, sig_v: ReferenceSignal, d_m: float
) -> tuple[ReferenceSignal, ReferenceSignal]:
    """Step II: byte-faithful transfer of both signals over the paired link;
    returns the receiving device's copies."""
    blob = link.send(sender, "reference_signals", sig_a.to_bytes() + sig_v.to_bytes(), d_m)
    split = 4 + int.from_bytes(blob[:4], "big") + sig_a.samples.nbytes
    return ReferenceSignal.from_bytes(blob[:split]), ReferenceSignal.from_bytes(blob[split:])


def _record(
    t: SessionTranscript,
    sig_a: ReferenceSignal,
    sig_v: ReferenceSignal,
    protocol_cfg: ProtocolConfig,
    cfg: ch.ChannelConfig,
    extra_emissions: Sequence[ch.Emission] = (),
) -> tuple[ch.Recording, ch.Recording]:
    """Step III: staggered playback while both devices record.

    The scene comes from the transcript's devices, playback times and seed
    alone (plus any extra emissions), so a transcript rebuilds its own
    recordings."""
    duration = _to_samples(protocol_cfg.record_duration_s)
    # The latest the vouching signal can end at the authenticating device:
    # latest start, travel delay, signal length and the smoothing kernel's tail.
    end = (
        _to_samples(protocol_cfg.playback_start_s) + protocol_cfg.start_jitter_samples + t.playback_gap
        + int(np.ceil(ch.propagation_delay_samples(t.vouch_position, t.auth_position, cfg)))
        + sig_v.samples.shape[0] + len(cfg.smoothing_kernel) - 1
    )
    if end > duration:
        raise ValueError(
            f"record_duration_s={protocol_cfg.record_duration_s} is too short: the vouching signal may end "
            f"at sample {end} of the authenticating device's {duration}-sample recording"
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
        duration=duration,
        seed=t.session_seed,
    )
    return ch.record(scene, t.auth_id, cfg), ch.record(scene, t.vouch_id, cfg)


def _locate(
    samples: np.ndarray, sig_a: ReferenceSignal, sig_v: ReferenceSignal, sample_rate: float,
    params: spectrum.DetectionParams, detector: str,
) -> tuple[spectrum.DetectionOutcome, spectrum.DetectionOutcome]:
    """Step IV on one device: locate both signals in its own recording."""
    if detector == "freq":
        return spectrum.detect_pair(samples, sig_a, sig_v, params, sample_rate=sample_rate)
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
    channel_cfg: ch.ChannelConfig | None = None,
    *,
    protocol_cfg: ProtocolConfig = ProtocolConfig(),
    params: spectrum.DetectionParams = spectrum.DetectionParams(),
    paired: bool = True,
    intruder: IntruderFactory | None = None,
    detector: str = "freq",
) -> tuple[AuthDecision, SessionTranscript]:
    """Run one authentication session end to end on the simulated channel.

    ``detector`` selects the signal-location method: ``"freq"`` (normalized
    spectral power, the default) or ``"xcorr"`` (raw cross-correlation
    baseline, which has no absence verdict).
    """
    cfg = channel_cfg if channel_cfg is not None else ch.ChannelConfig()
    d_true = float(np.linalg.norm(np.asarray(auth.position) - np.asarray(vouch.position)))
    link = SecureLink(paired=paired, max_range_m=policy.pairing_range_m)
    t = SessionTranscript(
        auth_id=auth.device_id,
        vouch_id=vouch.device_id,
        auth_position=auth.position,
        vouch_position=vouch.position,
        true_distance_m=d_true,
        environment=cfg.noise.name,
        paired_link_ok=link.usable(d_true),
        threshold_m=policy.threshold_m,
        sample_rates={"auth": auth.sample_rate, "vouch": vouch.sample_rate},
    )
    if not t.paired_link_ok:
        return _conclude(t, link, policy, cfg.speed_of_sound), t

    sig_a = _draw(rng, params)
    exclude = frozenset(sig_a.frequencies) if protocol_cfg.disjoint_frequency_sets else frozenset()
    sig_v = _draw(rng, params, exclude)
    t.freqs_a = sig_a.frequencies
    t.freqs_v = sig_v.frequencies

    vouch_sig_a, vouch_sig_v = _transfer(link, auth.device_id, sig_a, sig_v, d_true)

    # The draw order (start jitter, scene seed, then the intruder) is part of
    # what a session seed reproduces.
    jitter = protocol_cfg.start_jitter_samples
    t.playback_start = _to_samples(protocol_cfg.playback_start_s) + int(rng.integers(-jitter, jitter + 1))
    t.playback_gap = _to_samples(protocol_cfg.playback_gap_s)
    t.session_seed = int(rng.integers(0, 2**31 - 1))
    emissions = ()
    if intruder is not None:
        duration = _to_samples(protocol_cfg.record_duration_s)
        ctx = SceneContext(auth.position, vouch.position, duration, t.playback_gap, params)
        emissions = intruder(ctx, rng)
    rec_a, rec_v = _record(t, sig_a, vouch_sig_v, protocol_cfg, cfg, emissions)

    outcomes = (
        *_locate(rec_a.samples, sig_a, sig_v, auth.sample_rate, params, detector),
        *_locate(rec_v.samples, vouch_sig_a, vouch_sig_v, vouch.sample_rate, params, detector),
    )
    for key, out in zip(("l_aa", "l_av", "l_va", "l_vv"), outcomes):
        t.locations[key] = out.location
        t.peak_norm_powers[key] = out.peak_norm_power
    t.signal_present = all(out.location is not None for out in outcomes)
    return _conclude(t, link, policy, cfg.speed_of_sound), t


def replay_session(
    t: SessionTranscript,
    channel_cfg: ch.ChannelConfig,
    *,
    protocol_cfg: ProtocolConfig = ProtocolConfig(),
) -> tuple[ReferenceSignal, ReferenceSignal, ch.Recording, ch.Recording]:
    """Rebuild a session's two reference signals and both recordings from its
    transcript (synthesis is deterministic per tone set). Pass the channel and
    protocol settings the session ran with; the signals are synthesized with
    the default detection parameters and frequency grid. Emissions from
    intruders are not part of the transcript and are left out."""
    if t.playback_start is None:
        raise ValueError("the session ended before playback; there is nothing to replay")
    sig_a, sig_v = (synthesize(SignalSpec(frequencies=freqs)) for freqs in (t.freqs_a, t.freqs_v))
    return (sig_a, sig_v, *_record(t, sig_a, sig_v, protocol_cfg, channel_cfg))


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
    channel_cfg: ch.ChannelConfig | None = None,
    *,
    processing_delay_s: float,
) -> float | None:
    """One round of the one-way echo baseline.

    The authenticating device hands a fresh reference signal to the vouching
    device (instantaneous over the paired link) and starts its clock; the
    vouching device plays it after ``processing_delay_s``; the authenticating
    device locates the arrival in a 1.2 s recording. Returns the elapsed
    seconds, or None when the signal is not detected.
    """
    cfg = channel_cfg if channel_cfg is not None else ch.ChannelConfig()
    params = spectrum.DetectionParams()
    sig = _draw(rng, params)
    t_send = _to_samples(0.15)
    play_at = t_send + _to_samples(processing_delay_s)
    scene = ch.AcousticScene(
        emissions=(ch.Emission(vouch.device_id, sig.samples, play_at, vouch.position),),
        recorders=(auth,),
        duration=_to_samples(1.2),
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    rec = ch.record(scene, auth.device_id, cfg)
    out = spectrum.detect(rec.samples, sig, params, sample_rate=auth.sample_rate)
    if out.location is None:
        return None
    return (out.location - t_send) / auth.sample_rate
