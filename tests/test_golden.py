"""Golden digests: seeded sessions and campaign reports, pinned bit for bit.

A refactor that is meant to keep behaviour must leave every digest here
unchanged. A change that alters behaviour on purpose updates the digests and
says why.
"""

import hashlib
import json
import wave
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import cli
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import (
    AuthPolicy,
    Endpoint,
    SessionMeasurements,
    estimate_distance,
    replay_session,
    run_authentication,
)

# Per-tone power of the all-frequency session: the middle of the default
# spoofing sweep, written out so this file does not depend on the sweep.
ALL_FREQUENCY_POWER = 1.0e11


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(d, seed, *, tau=1.0, env="office", vouch_rate=ch.BASE_SAMPLE_RATE, cfg=None, **kwargs):
    cfg = cfg if cfg is not None else ev._cfg_for(env, None)
    rng = np.random.default_rng(np.random.SeedSequence([2024, seed]))
    _, transcript = run_authentication(
        Endpoint("auth", (0.0, 0.0)),
        Endpoint("vouch", (d, 0.0), sample_rate=vouch_rate),
        AuthPolicy(threshold_m=tau),
        rng,
        cfg,
        **kwargs,
    )
    return transcript


def _session(d, seed, **kwargs):
    return _run(d, seed, **kwargs).to_json()


def _attack(scenario, seed, separation=3.0):
    return _session(separation, seed, intruder=lambda a, v, r: adv.build_emissions(scenario, a, v, r))


def _crowded(d, seed):
    report = ev.multiuser_campaign(3, (d,), 1, seed, min_trials=1)
    return report.transcripts[0].to_json()


SESSIONS = {
    "accept_0.5m_s0": lambda: _session(0.5, 0),
    "accept_0.5m_s1": lambda: _session(0.5, 1),
    "accept_1.0m": lambda: _session(1.0, 2, tau=1.5),
    "accept_silent": lambda: _session(0.7, 3, env="silent"),
    "accept_street": lambda: _session(0.5, 4, env="street"),
    "distance_exceeded_1.8m": lambda: _session(1.8, 5),
    "distance_exceeded_tau_0.5": lambda: _session(1.2, 6, tau=0.5),
    "signal_not_present_3m": lambda: _session(3.0, 7),
    "signal_not_present_wall": lambda: _session(
        0.5, 8, cfg=replace(ch.ChannelConfig(), wall_plane_x=0.25, wall_attenuation_db=60.0)
    ),
    "not_paired_range": lambda: _session(12.0, 9),
    "skewed_vouch_clock": lambda: _session(0.8, 14, tau=1.5, vouch_rate=44_100.0 * 1.001),
    "guessing_replay": lambda: _attack(adv.GuessingReplay(), 16),
    "all_frequency": lambda: _attack(adv.AllFrequency(per_tone_power=ALL_FREQUENCY_POWER), 17),
    "crowded_3_pairs_0.5m": lambda: _crowded(0.5, 18),
    "crowded_3_pairs_1.5m": lambda: _crowded(1.5, 19),
}

GOLDEN = {
    "accept_0.5m_s0": "19d02b89ce69c9cd17a0a799a225c00ab5131eb57ba9f87dc0d77ffe92ad1adb",
    "accept_0.5m_s1": "7ed43aa55617662774111b1b45cfd37af3bfec46620aa02946c84cb33a72cdaf",
    "accept_1.0m": "1bcc9f298dd7b1ce3504fffe8379b778f2f38698fc44d408105318e00d6b617c",
    "accept_silent": "af18d0f3efbd774dfe4b9cc0094a3b87010767ff966225a67bf3fb37b362c396",
    "accept_street": "555740beb8a477c16b124d84ae6d55f641eab6f6c139bf135ab0da608e7bea49",
    "distance_exceeded_1.8m": "a1ac9b28eef30001a3406ec298df79239cb3eb473c391f7a9ca8f21dd2286b31",
    "distance_exceeded_tau_0.5": "64934053ec00dc63cc146ab63e06fef9bacf9397b1254424351f34d553734150",
    "signal_not_present_3m": "40270c63c56cb3dfa44bc992463a713d643648b2695f8d00bf28f93d94db7cd3",
    "signal_not_present_wall": "d43274bbc9abd38885a0e19bdafa8e8cac9305e70aac2d539fee5a12a91ed75f",
    "not_paired_range": "d5c573cb8b0a85c6e02c3523675d89c5fdbf8121139440ce4ba76363486c7030",
    "skewed_vouch_clock": "68850345a9f3f4b2df094a179ed09bb0355d190bc0252e613a2eecedeb284d2d",
    "guessing_replay": "07613463ab81cb0e5528bbb5790b862feb053e9b20ba269571f0926affa71231",
    "all_frequency": "956e3c8dd13911bc509feaba4f9f33974e89f9af8f1ceed8d95d19fc80ecf64d",
    "crowded_3_pairs_0.5m": "1a84d73fee4d81327c804c351093cb189c68b1f3729ce03d1be8ed6ca59d87cd",
    "crowded_3_pairs_1.5m": "99d885b2bff3087d3df4bb1ac3ba2452bfba6f122ce24e3c98ad4b9c80295aa5",
}

# The same transcripts without their ``link_log``: a change that moves only the
# byte counts of the link payloads leaves these digests as they are.
GOLDEN_WITHOUT_LINK = {
    "accept_0.5m_s0": "2d9ef36e26a2fa72cf4e3cc880d344188a2b8ea656e3ecd25d3235fe6e962fa7",
    "accept_0.5m_s1": "158d2b1a95031153c4f37db965ce196f3b0bdfa91de76ea0f764a5878b1cde70",
    "accept_1.0m": "a2a55c7fbf168d0d87e6be06bfb41ac0addc021908aed76ee683ba24c70bd40f",
    "accept_silent": "13dd38aaa6a0464eb846d5f2db93f5981e741e6cf672c78b160709cca1a0a4a6",
    "accept_street": "be74e597e00d8d5f2f40815fb7c3790d3638c2964c87e16bb6213021b988c18d",
    "distance_exceeded_1.8m": "69e3353031515803672e439f1e29d7f41cc4cf67aa996f4164164db95e6c06fc",
    "distance_exceeded_tau_0.5": "e394ba4076251290914b589fbfbdf17681999666f1f9f09ec05950d62a4a0da8",
    "signal_not_present_3m": "dda94d3deb29f9075cbe7393ec77b465aa1398723b03144b027ea6289a7784d5",
    "signal_not_present_wall": "f3008f6865cbac7345d6c208d0d3f26864eb888bffb67caac986a71b2644fe2d",
    "not_paired_range": "3bb9b0482ea8e66347965f12ec23e6c7f379f8b19ada76f5eb22ae8954cfb422",
    "skewed_vouch_clock": "a96592bd969c133ca6a9ce57125f82adc89fd6da34ce28823aa5757debaddc05",
    "guessing_replay": "6f7ea8ccd0d8f5353a9420f49fb5a91a529bf6033e298d5d1ee0ab15b1505f72",
    "all_frequency": "56648bd58c13346dc67cad4c3198bc3acd7a2795f8a20b034f471fa4a6ed03d1",
    "crowded_3_pairs_0.5m": "3f8f054a844726b367aec0241a769adf6cd162855e5c481bb6c09b9236c539d8",
    "crowded_3_pairs_1.5m": "18ceeee3e31dcca534463eec93c1497f4b329a7bf0ace9f6a331ebcb09ae464a",
}

CAMPAIGN_CSV_SHA256 = "0515c563f78f75496381fcd7ec5279aa2700a55ef8d668340f0b3f9bf6e1abc9"

# Campaign reports, one per campaign that runs sessions: each pins the seeding
# of its trials (cell and trial index) and how it folds their transcripts.
REPORTS = {
    "detector_comparison": lambda: ev.detector_comparison((0.5, 1.0), 2, 32).to_json(),
    "attack_guessing_replay": lambda: ev.attack_campaign(adv.GuessingReplay(), 3, 33).to_json(),
    "attack_zero_effort_12m": lambda: ev.attack_campaign(adv.ZeroEffort(), 3, 34, separation_m=12.0).to_json(),
    "multiuser_2_pairs": lambda: ev.multiuser_campaign(2, (0.5, 1.5), 2, 35, min_trials=1).to_csv(),
}

REPORT_SHA256 = {
    "detector_comparison": "e5567dd897b5fd74448b18fa31223c8b9b71c7afca0d65646ee88f6fdce8d1a4",
    "attack_guessing_replay": "e5211c0123510d410ef6c37993cf6720bbec1e1c3d4024c892b9607f8beb5789",
    "attack_zero_effort_12m": "513f19da96ba0ee6b54bf47148340391e31eada87a022b56d38cd437d5ec7b75",
    "multiuser_2_pairs": "fd60cdd3f335f3283cfcd2c2977b1798eb7795308cdeaa4114b3955910221ab4",
}


# The cross-correlation baseline on the replayed recordings of two office
# sessions, by (separation, seed): its four locations and raw distance. Both
# devices' detections lock onto the nearby burst, so the distance is exactly 0.
XCORR_BASELINE = {
    (0.5, 12): ({"l_aa": 8924, "l_av": 8755, "l_va": 22323, "l_vv": 22154}, 0.0),
    (1.5, 13): ({"l_aa": 8876, "l_av": 8870, "l_va": 22112, "l_vv": 22106}, 0.0),
}

# The two-way rows of the golden detector comparison, by (method, distance):
# trials measured and mean absolute error in metres. The echo row is left to
# the report digest, so these hold through a change of the echo baseline.
TWO_WAY_ROWS = {
    ("two_way_freq", 0.5): (2, 0.039682539682542484),
    ("two_way_freq", 1.0): (2, 0.0022675736961454973),
    ("two_way_xcorr", 0.5): (2, 0.8430839002267574),
    ("two_way_xcorr", 1.0): (2, 1.0),
}

# An all-frequency campaign's transcripts, concatenated: its later sessions
# find the spoofer's path responses memoized by the first, so even in a fresh
# process this digest covers memo hits, not only misses.
ALL_FREQUENCY_CAMPAIGN_SHA256 = "0f90bd14a4f29ff15e83eece7e7865bb642cccd31f1396ff14914be82c95d969"

# A guessing-replay campaign's transcripts, concatenated: the report digest
# above pins only its counts, these pin the locations and peaks of detections
# whose signal no coarse window passes, which are not fine-scanned.
GUESSING_REPLAY_CAMPAIGN_SHA256 = "291490152408b9fd58eff39b3788788d64dcb7aed05c6d0ad0a8c178fa4ded0d"


@cache
def _transcript(name: str) -> str:
    return SESSIONS[name]()


def _without_link(transcript: str) -> str:
    """The transcript with its ``link_log`` removed: what the session found,
    apart from how many bytes the paired link carried."""
    obj = json.loads(transcript)
    del obj["link_log"]
    return json.dumps(obj)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_transcript_digest(name):
    assert _sha(_transcript(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_transcript_digest_without_link(name):
    assert _sha(_without_link(_transcript(name))) == GOLDEN_WITHOUT_LINK[name]


@pytest.mark.parametrize("d, seed", sorted(XCORR_BASELINE))
def test_xcorr_baseline_on_replayed_recordings(d, seed):
    cfg = ev._cfg_for("office", None)
    t = _run(d, seed)
    sig_a, sig_v, rec_a, rec_v = replay_session(t, cfg)
    keys = ("l_aa", "l_av", "l_va", "l_vv")
    pairs = ((rec, sig) for rec in (rec_a, rec_v) for sig in (sig_a, sig_v))
    locations = {key: spectrum.cross_correlate_detect(rec, sig) for key, (rec, sig) in zip(keys, pairs)}
    m = SessionMeasurements(**locations, f_a=t.sample_rates["auth"], f_v=t.sample_rates["vouch"])
    assert (locations, estimate_distance(m, cfg.speed_of_sound)) == XCORR_BASELINE[(d, seed)]


def test_wav_dump_of_the_skewed_session(tmp_path):
    """The WAV dump writes each recording at its own device's rate: in the
    ``skewed_vouch_clock`` session the vouching device's clock runs 0.1%
    fast, so its recording holds more frames at a higher rate."""
    t = _run(0.8, 14, tau=1.5, vouch_rate=44_100.0 * 1.001)
    assert _sha(t.to_json()) == GOLDEN["skewed_vouch_clock"]
    cli._dump_session_wavs(str(tmp_path), ev._cfg_for("office", None), t)
    headers = {}
    for device in ("auth", "vouch"):
        with wave.open(str(tmp_path / f"recording_{device}.wav"), "rb") as fh:
            headers[device] = (fh.getnchannels(), fh.getsampwidth(), fh.getframerate(), fh.getnframes())
    assert headers == {"auth": (1, 2, 44_100, 28_672), "vouch": (1, 2, 44_144, 28_701)}


def test_distance_error_campaign_csv_digest():
    report = ev.distance_error_campaign("office", (0.5, 1.5), 2, 31, min_trials=1)
    assert _sha(report.to_csv()) == CAMPAIGN_CSV_SHA256


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_campaign_report_digest(name):
    assert _sha(REPORTS[name]()) == REPORT_SHA256[name]


def test_detector_comparison_two_way_rows():
    rows = json.loads(REPORTS["detector_comparison"]())["rows"]
    two_way = {
        (r["method"], r["distance_m"]): (r["measured"], r["mean_abs_error_m"])
        for r in rows
        if r["method"] != "one_way_echo"
    }
    assert two_way == TWO_WAY_ROWS


def test_all_frequency_campaign_transcripts_digest():
    report = ev.attack_campaign(adv.AllFrequency(per_tone_power=ALL_FREQUENCY_POWER), 3, 36)
    assert _sha("".join(t.to_json() for t in report.transcripts)) == ALL_FREQUENCY_CAMPAIGN_SHA256


def test_guessing_replay_campaign_transcripts_digest():
    report = ev.attack_campaign(adv.GuessingReplay(), 3, 37)
    assert _sha("".join(t.to_json() for t in report.transcripts)) == GUESSING_REPLAY_CAMPAIGN_SHA256
