import json
from dataclasses import replace

import numpy as np
import pytest

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
    decide,
    estimate_distance,
    measurements_from_transcript,
    replay_session,
    run_authentication,
    _arrival_end,
    _to_samples,
)
from sonicauth.signal import SIGNAL_LENGTH
from sonicauth.spectrum import detect_pair, norm_power


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
        d = decide(-0.2, True, True, AuthPolicy(threshold_m=0.5))
        assert d.accepted
        assert d.estimated_distance_m == 0.0
        assert d.raw_distance_m == -0.2

    def test_reject_reasons(self):
        policy = AuthPolicy(threshold_m=1.0)
        assert decide(None, False, False, policy).reason is RejectReason.NOT_PAIRED
        assert decide(None, False, True, policy).reason is RejectReason.SIGNAL_NOT_PRESENT
        exceeded = decide(5.0, True, True, policy)
        assert exceeded.reason is RejectReason.DISTANCE_EXCEEDED
        assert exceeded.estimated_distance_m > policy.threshold_m

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


def run(d, policy=None, cfg=ch.ChannelConfig(), seed=1, **kwargs):
    rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
    return run_authentication(
        Endpoint("auth", (0.0, 0.0)),
        Endpoint("vouch", (d, 0.0)),
        policy or AuthPolicy(threshold_m=1.0),
        rng,
        cfg,
        **kwargs,
    )


class TestRunAuthentication:
    def test_accept_at_half_metre(self):
        decision, transcript = run(0.5)
        assert decision.accepted
        assert abs(decision.estimated_distance_m - 0.5) <= 0.2
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
        decision, _ = run(1.8, policy=AuthPolicy(threshold_m=1.0))
        assert decision.reason is RejectReason.DISTANCE_EXCEEDED
        assert decision.estimated_distance_m > 1.0

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

    def test_xcorr_detector_variant_runs(self):
        decision, transcript = run(0.5, detector="xcorr")
        assert transcript.raw_distance_m is not None

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            run(0.5, detector="wavelet")

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
        22 250, arrives 65 samples later at the authenticating device 0.5 m
        away, and with its 4096 samples ends at sample 26 410 + n of the
        ``RECORD_SAMPLES``-sample recording."""

        def cfg(taps):
            return ch.ChannelConfig(smoothing_kernel=(1.0,) + (0.0,) * (taps - 1))

        fitting = RECORD_SAMPLES - 26_410  # ends the burst on the recording's last sample
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
        end = _arrival_end(latest_start, (0.0, 0.0), (PAIRING_RANGE_M, 0.0), ch.ChannelConfig())
        assert end == 8820 + 200 + 13_230 + 1298 + SIGNAL_LENGTH + 8 == 27_652
        assert end + RECORD_MARGIN_SAMPLES <= RECORD_SAMPLES == ch.fast_fft_length(end + RECORD_MARGIN_SAMPLES)
        assert RECORD_SAMPLES == 28_672 == 2**12 * 7

    def test_default_kernel_fits_the_recording_at_pairing_range(self):
        _, transcript = run(PAIRING_RANGE_M)
        assert transcript.paired_link_ok and transcript.playback_start is not None

    def test_replay_rebuilds_the_recordings(self, office_cfg):
        _, transcript = run_authentication(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (0.8, 0.0), sample_rate=44_100.0 * 1.001),
            AuthPolicy(threshold_m=1.5),
            np.random.default_rng(5),
            office_cfg,
        )
        sig_a, sig_v, rec_a, rec_v = replay_session(transcript, office_cfg)
        located = (
            *detect_pair(rec_a.samples, sig_a, sig_v, sample_rate=transcript.sample_rates["auth"]),
            *detect_pair(rec_v.samples, sig_a, sig_v, sample_rate=transcript.sample_rates["vouch"]),
        )
        assert [o.location for o in located] == list(transcript.locations.values())
        with pytest.raises(ValueError):
            replay_session(run(12.0)[1], office_cfg)


class TestPeaksReproduce:
    """``norm_power`` on a located window, at the recording device's rate,
    equals the scan's ``peak_norm_power`` bit for bit: a verdict can be
    re-derived from the window alone."""

    @staticmethod
    def _detections(monkeypatch, sessions):
        """(recording, signal, rate, outcome) of every detection the
        ``sessions`` callable runs."""
        found = []
        scan = spectrum.detect_pair

        def spy(x, sig_a, sig_b, *, sample_rate):
            outcomes = scan(x, sig_a, sig_b, sample_rate=sample_rate)
            found.extend((x, sig, sample_rate, out) for sig, out in zip((sig_a, sig_b), outcomes))
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
                assert norm_power(window, sig, sample_rate=rate) == out.peak_norm_power

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


class TestOneWay:
    def test_zero_jitter_matches_distance(self, office_cfg):
        from sonicauth.protocol import one_way_ranging

        rng = np.random.default_rng(3)
        elapsed = one_way_ranging(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (1.0, 0.0)),
            rng,
            office_cfg,
            processing_delay_s=0.15,
        )
        assert elapsed is not None
        d_est = 340.0 * (elapsed - 0.15)
        assert abs(d_est - 1.0) < 0.2

    def test_delay_past_the_shortest_recording(self, office_cfg):
        """A 2 s processing delay ends the echo after 1.2 s: the recording
        grows to hold it, and the echo is still located."""
        from sonicauth.protocol import one_way_ranging

        elapsed = one_way_ranging(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (1.0, 0.0)),
            np.random.default_rng(3),
            office_cfg,
            processing_delay_s=2.0,
        )
        assert elapsed is not None
        assert abs(340.0 * (elapsed - 2.0) - 1.0) < 0.2
