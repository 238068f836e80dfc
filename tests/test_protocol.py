import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import detect_own, session_locations

from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import (
    PAIRING_RANGE_M,
    PLAYBACK_GAP_SAMPLES,
    PLAYBACK_START_S,
    RECORD_MARGIN_SAMPLES,
    RECORD_SAMPLES,
    START_JITTER_SAMPLES,
    AuthDecision,
    AuthPolicy,
    Endpoint,
    RejectReason,
    SessionMeasurements,
    SessionTranscript,
    decide,
    estimate_distance,
    measurements_from_transcript,
    replay_session,
    run_authentication,
    _arrival_end,
    _conclude,
    _own_span,
    _to_samples,
)
from sonicauth.signal import SIGNAL_LENGTH, SignalSpec, synthesize
from sonicauth.spectrum import FINE_STEP


class TestEstimateDistance:
    def test_paper_arithmetic(self):
        m = SessionMeasurements(l_aa=1000, l_av=1130, l_va=1130, l_vv=1000, f_a=44_100, f_v=44_100)
        assert estimate_distance(m, 340.0) == pytest.approx(1.0022675736961)

    def test_exact_cancellation(self):
        # l_av - l_aa == l_vv - l_va makes the two terms cancel exactly
        m = SessionMeasurements(l_aa=500, l_av=700, l_va=700, l_vv=900, f_a=44_100, f_v=44_100)
        assert estimate_distance(m, 340.0) == pytest.approx(0.0)

    def test_sample_rate_scaling_invariance(self):
        base = SessionMeasurements(l_aa=100, l_av=350, l_va=420, l_vv=300, f_a=44_100, f_v=44_100)
        scaled = SessionMeasurements(
            l_aa=200, l_av=700, l_va=840, l_vv=600, f_a=88_200, f_v=88_200
        )
        assert estimate_distance(base) == pytest.approx(estimate_distance(scaled))

    def test_invalid_rates_rejected(self):
        for rate in (0.0, -1.0, float("nan"), float("inf")):
            for f_a, f_v in ((rate, 44_100.0), (44_100.0, rate)):
                with pytest.raises(ValueError, match="^sample rates must be finite and positive, got"):
                    SessionMeasurements(l_aa=0, l_av=0, l_va=0, l_vv=0, f_a=f_a, f_v=f_v)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("l_aa", None),
            ("l_av", "7"),
            ("l_va", 1.5),
            ("l_vv", True),
            ("l_aa", -1),
            ("l_vv", np.int64(-1)),
            ("l_av", 10**400),
        ],
        ids=["none", "string", "float", "bool", "negative", "numpy_negative", "beyond_float_range"],
    )
    def test_location_that_is_not_a_sample_index_named(self, name, value):
        """Each is refused with a ValueError naming the location. An integer
        past the float range was once accepted, and ``estimate_distance``
        then raised ``OverflowError``."""
        locations = {**dict(l_aa=100, l_av=350, l_va=420, l_vv=300), name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be a non-negative integer sample index, got "):
            SessionMeasurements(**locations, f_a=44_100, f_v=44_100)

    def test_numpy_locations_accepted(self):
        locations = dict(l_aa=100, l_av=350, l_va=420, l_vv=300)
        m = SessionMeasurements(**{k: np.int64(v) for k, v in locations.items()}, f_a=44_100, f_v=44_100)
        assert estimate_distance(m) == estimate_distance(SessionMeasurements(**locations, f_a=44_100, f_v=44_100))

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), 0.0, -340.0, True, "340", None], ids=repr)
    def test_speed_of_sound_that_is_not_finite_and_positive_named(self, speed):
        """A nan speed would return nan and a negative one would flip the
        estimate's sign; both are refused with the parameter named."""
        m = SessionMeasurements(l_aa=1000, l_av=1130, l_va=1130, l_vv=1000, f_a=44_100, f_v=44_100)
        message = rf"^speed_of_sound must be finite and positive, got {re.escape(repr(speed))}$"
        with pytest.raises(ValueError, match=message):
            estimate_distance(m, speed)


class TestDecide:
    def test_monotone_in_threshold(self):
        # accept under a small threshold implies accept under any larger one
        for raw in (0.2, 0.9, 1.4, 2.2):
            accepted = [
                decide(raw, True, True, AuthPolicy(threshold_m=tau)).accepted
                for tau in (0.5, 1.0, 1.5, 2.0)
            ]
            assert accepted == sorted(accepted)

    def test_negative_raw_clamped_to_zero(self):
        """A negative estimate is accepted, as its clamp at 0 is; the
        decision holds the verdict alone."""
        d = decide(-0.2, True, True, AuthPolicy(threshold_m=0.5))
        assert d == AuthDecision(accepted=True)

    def test_conclude_writes_raw_and_clamped_estimate(self):
        """The session's conclusion is the one writer of both distances: a
        negative raw estimate is kept as it is, and the estimated distance is
        its clamp at 0."""
        t = SessionTranscript(**SESSION_INPUTS)
        t.signal_present = True
        t.locations = {"l_aa": 2_000, "l_av": 10_820, "l_va": 2_000, "l_vv": 10_830}
        assert _conclude(t, AuthPolicy(threshold_m=1.0), 340.0) == AuthDecision(accepted=True)
        assert t.raw_distance_m == pytest.approx(-170.0 * 10 / 44_100)
        assert t.estimated_distance_m == 0.0
        assert (t.verdict, t.reason) == ("accept", None)

    def test_reject_reasons(self):
        policy = AuthPolicy(threshold_m=1.0)
        assert decide(None, False, False, policy).reason is RejectReason.NOT_PAIRED
        assert decide(None, False, True, policy).reason is RejectReason.SIGNAL_NOT_PRESENT
        assert decide(5.0, True, True, policy).reason is RejectReason.DISTANCE_EXCEEDED

    def test_decision_invariants_enforced(self):
        with pytest.raises(ValueError):
            AuthDecision(accepted=True, reason=RejectReason.NOT_PAIRED)
        with pytest.raises(ValueError):
            AuthDecision(accepted=False)


class TestPolicy:
    def test_threshold_must_sit_inside_pairing_range(self):
        with pytest.raises(ValueError):
            AuthPolicy(threshold_m=PAIRING_RANGE_M)
        with pytest.raises(ValueError):
            AuthPolicy(threshold_m=0.0)

    @pytest.mark.parametrize("tau", [None, "1.0", True, float("nan")], ids=["none", "string", "bool", "nan"])
    def test_threshold_that_is_not_a_number_rejected(self, tau):
        """Before the check, ``None`` and a string raised ``TypeError`` and
        ``True`` was taken for a 1 m threshold."""
        with pytest.raises(ValueError, match="^threshold_m must be a number with 0 < threshold_m < pairing range"):
            AuthPolicy(threshold_m=tau)


def run(d, policy=None, cfg=ch.ChannelConfig(), seed=1):
    rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
    return run_authentication(
        Endpoint("auth", (0.0, 0.0)),
        Endpoint("vouch", (d, 0.0)),
        policy or AuthPolicy(threshold_m=1.0),
        rng,
        cfg,
    )


class TestRunAuthentication:
    def test_accept_at_half_metre(self):
        decision, transcript = run(0.5)
        assert decision.accepted
        assert abs(transcript.estimated_distance_m - 0.5) <= 0.2
        assert transcript.verdict == "accept"

    def test_reject_beyond_detect_range(self):
        decision, transcript = run(3.0)
        assert not decision.accepted
        assert decision.reason is RejectReason.SIGNAL_NOT_PRESENT
        assert not transcript.signal_present

    def test_reject_behind_wall(self, office_cfg):
        cfg = replace(office_cfg, wall_plane_x=0.25, wall_attenuation_db=60.0)
        decision, _ = run(0.5, cfg=cfg)
        assert decision.reason is RejectReason.SIGNAL_NOT_PRESENT

    def test_reject_beyond_pairing_range(self):
        decision, transcript = run(12.0)
        assert decision.reason is RejectReason.NOT_PAIRED
        assert not transcript.paired_link_ok

    def test_distance_exceeded_between_tau_and_detect_range(self):
        decision, transcript = run(1.8, policy=AuthPolicy(threshold_m=1.0))
        assert decision.reason is RejectReason.DISTANCE_EXCEEDED
        assert transcript.estimated_distance_m > 1.0

    def test_transcript_recomputes_verdict(self):
        policy = AuthPolicy(threshold_m=1.0)
        decision, transcript = run(0.5, policy=policy)
        m = measurements_from_transcript(transcript)
        again = estimate_distance(m, 340.0)
        assert again == pytest.approx(transcript.raw_distance_m)
        redecided = decide(again, transcript.signal_present, transcript.paired_link_ok, policy)
        assert redecided.accepted == decision.accepted

    def test_transcript_serializes_to_json(self):
        _, transcript = run(0.5)
        blob = json.loads(transcript.to_json())
        assert blob["verdict"] in ("accept", "reject")
        assert set(blob["locations"]) == {"l_aa", "l_av", "l_va", "l_vv"}
        assert len(blob["freqs_a"]) > 0 and len(blob["freqs_v"]) > 0
        assert blob["raw_distance_m"] is not None

    def test_link_log_counts_both_payloads_in_one_message(self):
        _, transcript = run(0.5)
        (sent,) = [m for m in transcript.link_log if m["kind"] == "reference_signals"]
        assert sent["sender"] == "auth"
        sigs = [synthesize(SignalSpec(frequencies=f)) for f in (transcript.freqs_a, transcript.freqs_v)]
        assert sent["bytes"] == sum(len(sig.to_bytes()) for sig in sigs)

    def test_vouching_device_sends_only_location_difference(self):
        """Step V: the acoustic evidence leaving the vouching device is one
        8-byte integer, never recordings."""
        _, transcript = run(0.5)
        vouch_msgs = [m for m in transcript.link_log if m["sender"] == "vouch"]
        assert len(vouch_msgs) == 1
        assert vouch_msgs[0]["kind"] == "location_difference"
        assert vouch_msgs[0]["bytes"] == 8

    def test_signal_transfer_is_byte_faithful(self):
        # both devices locate the self-played signals at consistent positions,
        # which only happens when the transferred copies match bit for bit
        _, transcript = run(0.5)
        assert transcript.locations["l_aa"] is not None
        assert transcript.locations["l_vv"] is not None

    def test_skewed_vouch_clock_still_ranges(self, office_cfg):
        rng = np.random.default_rng(5)
        decision, transcript = run_authentication(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (0.8, 0.0), sample_rate=44_100.0 * 1.001),
            AuthPolicy(threshold_m=1.5),
            rng,
            office_cfg,
        )
        assert transcript.raw_distance_m is not None
        assert abs(transcript.raw_distance_m - 0.8) <= 0.3

    def test_detector_comparison_runs_one_session_per_trial(self, monkeypatch):
        """Its xcorr baseline reads the frequency sessions' replayed
        recordings, so no trial runs a second session."""
        sessions = []

        def counted(*args, **kwargs):
            sessions.append(args[1].position)
            return run_authentication(*args, **kwargs)

        monkeypatch.setattr(ev, "run_authentication", counted)
        ev.detector_comparison((0.5, 1.0), 2, 3)
        assert sessions == [(0.5, 0.0)] * 2 + [(1.0, 0.0)] * 2

    def test_detector_comparison_makes_four_recordings_per_trial(self, monkeypatch):
        """Each trial's session records at both devices, and the xcorr
        baseline replays both recordings; the echo baseline reads the
        session's transcript and records nothing."""
        recordings = []
        record = ch.record

        def counted(scene, device_id, cfg):
            recordings.append(scene.duration)
            return record(scene, device_id, cfg)

        monkeypatch.setattr(ch, "record", counted)
        distances, trials = (0.5, 1.0), 2
        ev.detector_comparison(distances, trials, 3)
        assert recordings == [RECORD_SAMPLES] * (4 * len(distances) * trials)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_devices_sharing_an_id_rejected(self, seed):
        """Both recordings would otherwise come from the first device, which
        ranges at 0 m whatever the separation."""
        rng = np.random.default_rng(seed)
        with pytest.raises(ValueError, match="^two recorders share the device id 'x'$"):
            run_authentication(Endpoint("x", (0.0, 0.0)), Endpoint("x", (0.8, 0.0)), AuthPolicy(), rng, ch.ChannelConfig())

    @pytest.mark.parametrize("vouch_position", [(8.0,), (0.8, 0.0, 0.0)], ids=["1d", "3d"])
    def test_positions_of_two_dimensionalities_rejected(self, vouch_position):
        """The true distance comes from the channel's distance, which rejects
        positions of different dimensionality. A 1-D position 8 m away used
        to broadcast against the 2-D one to 11.3 m, past the pairing range,
        and the session ended as ``not_paired``."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^positions must share dimensionality$"):
            run_authentication(
                Endpoint("a", (0.0, 0.0)), Endpoint("v", vouch_position), AuthPolicy(), rng, ch.ChannelConfig()
            )

    def test_recording_too_short_for_vouching_signal_rejected(self):
        """A smoothing kernel of n taps (a delta padded with zeros) lengthens
        each arrival by n - 1 samples. The vouching burst may start at sample
        11 225, arrives 65 samples later at the authenticating device 0.5 m
        away, and with its 4096 samples ends at sample 15 385 + n of the
        ``RECORD_SAMPLES``-sample recording."""

        def cfg(taps):
            return ch.ChannelConfig(smoothing_kernel=(1.0,) + (0.0,) * (taps - 1))

        latest_start = _to_samples(PLAYBACK_START_S) + START_JITTER_SAMPLES + PLAYBACK_GAP_SAMPLES
        assert latest_start == 2205 + 200 + 8820 == 11_225
        assert latest_start + 65 + SIGNAL_LENGTH - 1 == 15_385
        fitting = RECORD_SAMPLES - 15_385  # ends the burst on the recording's last sample
        with pytest.raises(ValueError, match=f"{RECORD_SAMPLES}-sample recording is too short"):
            run(0.5, cfg=cfg(fitting + 1))
        # 2 m away the arrival takes 260 samples, 195 more
        with pytest.raises(ValueError, match=f"{RECORD_SAMPLES}-sample recording is too short"):
            run(2.0, policy=AuthPolicy(threshold_m=3.0), cfg=cfg(fitting))
        assert run(0.5, cfg=cfg(fitting))[1].signal_present

    def test_recording_holds_the_latest_arrival_at_pairing_range(self):
        """The recording is derived from the latest end of a session's signal:
        the vouching signal played at the largest start jitter and heard at
        the pairing range through the default kernel. It holds that end plus
        the margin, at a length with no prime factor above 7."""
        latest_start = _to_samples(PLAYBACK_START_S) + START_JITTER_SAMPLES + PLAYBACK_GAP_SAMPLES
        end = _arrival_end(latest_start, PAIRING_RANGE_M, ch.ChannelConfig())
        assert end == 2205 + 200 + 8820 + 1298 + SIGNAL_LENGTH + 8 == 16_627
        assert end + RECORD_MARGIN_SAMPLES <= RECORD_SAMPLES == ch.fast_fft_length(end + RECORD_MARGIN_SAMPLES)
        assert RECORD_SAMPLES == 17_640 == 2**3 * 3**2 * 5 * 7**2

    def test_gap_keeps_the_bursts_apart_at_pairing_range(self):
        """At either device the partner's burst arrives at most the travel
        delay at the pairing range after it was played, and with the default
        kernel it lasts the signal length plus the kernel's tail. The second
        burst is played only after the first has ended at both devices."""
        cfg = ch.ChannelConfig()
        delay = int(np.ceil(ch.propagation_delay_samples(PAIRING_RANGE_M, cfg.speed_of_sound)))
        assert delay == 1298
        assert PLAYBACK_GAP_SAMPLES >= delay + SIGNAL_LENGTH + len(cfg.smoothing_kernel) - 1

    def test_earliest_jittered_start_is_within_the_recording(self):
        """The lead-in covers the start jitter: no signal is played before
        the devices start recording."""
        assert _to_samples(PLAYBACK_START_S) - START_JITTER_SAMPLES >= 0

    def test_default_kernel_fits_the_recording_at_pairing_range(self):
        _, transcript = run(PAIRING_RANGE_M)
        assert transcript.paired_link_ok and transcript.playback_start is not None

    def test_each_path_measured_once(self, monkeypatch):
        """A session measures its geometry once per path: the transcript's
        distance, then one per propagation (each device hears both signals),
        which the path's delay and gain both read. The recording check reads
        the transcript's distance. It took 10 when the delay, the gain and the
        recording check each measured the path."""
        calls = []
        distance = ch._distance
        monkeypatch.setattr(ch, "_distance", lambda a, b: calls.append((a, b)) or distance(a, b))
        _, transcript = run(1.0)
        assert transcript.signal_present
        assert len(calls) == 5

    def test_intruder_receives_the_sessions_devices_and_rng(self):
        """The intruder hook is called once, with the two device objects and
        the random stream the session was given."""
        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (1.0, 0.0))
        rng = np.random.default_rng(3)
        calls = []

        def intruder(*args):
            calls.append(args)
            return ()

        run_authentication(auth, vouch, AuthPolicy(), rng, ch.ChannelConfig(), intruder=intruder)
        assert len(calls) == 1
        got_auth, got_vouch, got_rng = calls[0]
        assert got_auth is auth and got_vouch is vouch and got_rng is rng

    def test_replay_rebuilds_the_recordings(self, office_cfg):
        _, transcript = run_authentication(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (0.8, 0.0), sample_rate=44_100.0 * 1.001),
            AuthPolicy(threshold_m=1.5),
            np.random.default_rng(5),
            office_cfg,
        )
        sig_a, sig_v, rec_a, rec_v = replay_session(transcript, office_cfg)
        rates = (transcript.sample_rates["auth"], transcript.sample_rates["vouch"])
        located = session_locations((rec_a, rec_v), (sig_a, sig_v), rates, transcript.playback_gap, office_cfg.speed_of_sound)
        assert located == transcript.locations
        with pytest.raises(ValueError):
            replay_session(run(12.0)[1], office_cfg)


# The seven values a session starts from. The transcript derives the true
# distance and the link state from the positions; the session writes every
# other field.
SESSION_INPUTS = dict(
    auth_id="auth",
    vouch_id="vouch",
    auth_position=(0.0, 0.0),
    vouch_position=(1.0, 0.0),
    environment="office",
    sample_rates={"auth": 44_100.0, "vouch": 44_100.0},
    threshold_m=1.0,
)
SESSION_DERIVED = {"true_distance_m": 1.0, "paired_link_ok": True}
SESSION_WRITTEN = {
    "freqs_a": (),
    "freqs_v": (),
    "locations": {},
    "peak_norm_powers": {},
    "playback_start": 0,
    "playback_gap": 0,
    "signal_present": True,
    "raw_distance_m": 0.5,
    "estimated_distance_m": 0.5,
    "verdict": "accept",
    "reason": None,
    "session_seed": 0,
    "link_log": [],
}


class TestTranscript:
    @pytest.mark.parametrize("name", sorted(SESSION_WRITTEN))
    def test_session_written_field_is_not_a_constructor_argument(self, name):
        with pytest.raises(TypeError, match=name):
            SessionTranscript(**SESSION_INPUTS, **{name: SESSION_WRITTEN[name]})

    @pytest.mark.parametrize("name", sorted(SESSION_DERIVED))
    def test_derived_field_is_not_a_constructor_argument(self, name):
        """The true distance and the link state follow from the positions, so
        no caller can set them apart from the geometry."""
        with pytest.raises(TypeError, match=name):
            SessionTranscript(**SESSION_INPUTS, **{name: SESSION_DERIVED[name]})

    @pytest.mark.parametrize("name", sorted(SESSION_INPUTS))
    def test_every_input_is_required(self, name):
        inputs = {k: v for k, v in SESSION_INPUTS.items() if k != name}
        with pytest.raises(TypeError, match=name):
            SessionTranscript(**inputs)

    @pytest.mark.parametrize(
        "vouch_position, paired",
        [((1.0, 0.0), True), ((PAIRING_RANGE_M, 0.0), True), ((12.0, 0.0), False), ((3.0, 4.0), True)],
        ids=["1m", "pairing_range", "12m", "diagonal_5m"],
    )
    def test_positions_give_distance_and_link(self, vouch_position, paired):
        """The paired link reaches exactly within the pairing range, and the
        true distance is the channel's distance between the two positions."""
        t = SessionTranscript(**{**SESSION_INPUTS, "vouch_position": vouch_position})
        assert t.true_distance_m == ch._distance(t.auth_position, vouch_position)
        assert t.paired_link_ok is paired

    def test_keys_in_the_order_of_a_stored_transcript(self):
        stored = json.loads((Path(__file__).parent / "golden" / "accept_1.0m.json").read_text())
        blob = json.loads(SessionTranscript(**SESSION_INPUTS).to_json())
        assert list(blob) == list(stored)
        assert {k: blob[k] for k in SESSION_DERIVED} == SESSION_DERIVED
        assert {k: blob[k] for k in SESSION_WRITTEN} == {
            **dict.fromkeys(SESSION_WRITTEN),
            "freqs_a": [],
            "freqs_v": [],
            "locations": {},
            "peak_norm_powers": {},
            "signal_present": False,
            "verdict": "reject",
            "link_log": [],
        }

    def test_numpy_scalars_serialize_as_python_numbers(self):
        t = SessionTranscript(**SESSION_INPUTS)
        t.locations = {"l_aa": np.int64(7)}
        t.peak_norm_powers = {"l_aa": np.float32(0.5)}
        blob = json.loads(t.to_json())
        assert (blob["locations"], blob["peak_norm_powers"]) == ({"l_aa": 7}, {"l_aa": 0.5})


class TestPeaksReproduce:
    """A scan of a located window alone, at the recording device's rate,
    reports the scan's ``peak_norm_power`` bit for bit: a verdict can be
    re-derived from the window alone."""

    @staticmethod
    def _detections(monkeypatch, sessions):
        """(recording, signal, rate, outcome) of every detection the
        ``sessions`` callable runs."""
        found = []
        scan = spectrum.detect_pair

        def spy(x, own, partner, *, sample_rate, own_span, partner_lags):
            outcomes = scan(x, own, partner, sample_rate=sample_rate, own_span=own_span, partner_lags=partner_lags)
            found.extend((x, sig, sample_rate, out) for sig, out in zip((own, partner), outcomes))
            return outcomes

        monkeypatch.setattr(spectrum, "detect_pair", spy)
        sessions()
        return found

    @staticmethod
    def _assert_reproduced(found, located):
        assert sum(out.location is not None for *_, out in found) == located
        for x, sig, rate, out in found:
            if out.location is not None:
                window = x[out.location : out.location + SIGNAL_LENGTH]
                assert detect_own(window, sig, sample_rate=rate).peak_norm_power == out.peak_norm_power

    def test_office_sessions(self, monkeypatch):
        def sessions():
            for d in (0.5, 1.0, 1.5):
                for seed in range(4):
                    run(d, seed=seed, policy=AuthPolicy(threshold_m=2.0))

        self._assert_reproduced(self._detections(monkeypatch, sessions), 48)

    def test_crowded_session(self, monkeypatch):
        found = self._detections(monkeypatch, lambda: ev.multiuser_campaign(3, (0.5,), 1, 40, min_trials=1))
        self._assert_reproduced(found, 4)

    def test_skewed_clock_session(self, monkeypatch, office_cfg):
        def session():
            run_authentication(
                Endpoint("auth", (0.0, 0.0)),
                Endpoint("vouch", (0.8, 0.0), sample_rate=44_100.0 * 1.001),
                AuthPolicy(threshold_m=1.5),
                np.random.default_rng(5),
                office_cfg,
            )

        found = self._detections(monkeypatch, session)
        assert {rate for *_, rate, _ in found} == {44_100.0, 44_100.0 * 1.001}
        self._assert_reproduced(found, 4)


class TestOwnSpan:
    """Each device searches its own signal only over the starts its schedule
    allows, whatever jitter was drawn."""

    @pytest.mark.parametrize(
        "skews, bound",
        [((1.0, 1.0), FINE_STEP), ((1.001, 0.9995), 2 * FINE_STEP), ((0.9995, 1.001), 2 * FINE_STEP)],
        ids=["nominal", "fast_auth", "fast_vouch"],
    )
    def test_clean_own_signal_located_at_its_onset(self, silent_cfg, skews, bound):
        """In silent sessions each device locates its own signal inside its
        span, near the onset its recorder heard, the played start scaled by
        the recorder's rate: within one search step at the nominal rate, and
        within two at a skewed one, whose located windows lie up to 13.2
        samples from that onset here (as they did under the coarse scan),
        well inside the span's 40-sample tolerance."""
        for seed in range(4):
            auth = Endpoint("auth", (0.0, 0.0), sample_rate=44_100.0 * skews[0])
            vouch = Endpoint("vouch", (1.0, 0.0), sample_rate=44_100.0 * skews[1])
            rng = np.random.default_rng(4600 + seed)
            _, t = run_authentication(auth, vouch, AuthPolicy(threshold_m=2.0), rng, silent_cfg)
            scheduled = _to_samples(PLAYBACK_START_S)
            for key, offset, rate in (("l_aa", 0, auth.sample_rate), ("l_vv", t.playback_gap, vouch.sample_rate)):
                lo, hi = _own_span(scheduled + offset, rate)
                onset = (t.playback_start + offset) * rate / ch.BASE_SAMPLE_RATE
                assert lo <= t.locations[key] <= hi
                assert abs(t.locations[key] - onset) <= bound

    def test_own_signal_of_a_crowded_session_not_locked_late(self):
        """A crowded session's vouching device used to lock its own signal
        1431 samples after its onset, onto a window that an interfering
        pair's burst let pass the gates, and the pair was accepted at +0.617
        m though 1.5 m apart (``multiuser_campaign(2, (0.5, 1.0, 1.5, 2.0),
        10, 72)``, cell 2, trial 9). That window lies outside its own span:
        the signal is absent, and the session is refused."""
        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (1.5, 0.0))
        decision, t = run_authentication(
            auth,
            vouch,
            AuthPolicy(),
            ev._trial_rng(72, 2, 9),
            ch.ChannelConfig(),
            intruder=lambda a, v, r: ev._interferer_emissions(a, v, r, 1),
        )
        assert t.playback_start + t.playback_gap == 10_959
        assert (t.locations["l_vv"], t.locations["l_va"]) == (None, None)
        assert not decision.accepted and decision.reason is RejectReason.SIGNAL_NOT_PRESENT
        report = ev.multiuser_campaign(2, (0.5, 1.0, 1.5, 2.0), 10, 72)
        assert report.transcripts[29].to_json() == t.to_json()
