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
    "accept_0.5m_s0": "4de8cfda414c51b4e2921cf0bfc5f5f98a0446e1dbd9e0771113e4f8956a6b9f",
    "accept_0.5m_s1": "68b4233e2411dfb574c59d71610331b62126cddd8d75260034bfbce117d5b41a",
    "accept_1.0m": "517dbe479e0ecd642b8f56ac3ba3792274528e0de6c68b58f212fc8eab4c5b9c",
    "accept_silent": "4b9498acc756b910a6b5757b903cdd8e0722f3e2e8a53f9cf869ea62a8dbc039",
    "accept_street": "9be233ed19d52ff0b8c181030003b0f504ba40ac3e1d2a612f0e419fde9fd79a",
    "distance_exceeded_1.8m": "9a3350d6c3cd5a507676ba56e8e38e46d54d3d929286cc8440696abc5d3d56ad",
    "distance_exceeded_tau_0.5": "dc4f717f7dd3b2435584cd14da5f17ebccc45ea937f844d2145140ba7f600a8c",
    "signal_not_present_3m": "7e4860d818aed68b4ea19132021df79d879c6d239cfdf087bd88d0d41d624e00",
    "signal_not_present_wall": "79b512ff5c4ce1b8469b82f8992be131cbe1df912ee2e81f1a8f0536cc9ebc64",
    "not_paired_range": "d5c573cb8b0a85c6e02c3523675d89c5fdbf8121139440ce4ba76363486c7030",
    "skewed_vouch_clock": "a056724d7266af45502f4fd3d52b35b3be607a46913567c1a9690d23cf621d8d",
    "guessing_replay": "52f44a8766692fe9688dd2b6ad95638e9a0cad88738f5a8b0173cfce537c68f3",
    "all_frequency": "ba2bad33b28ea441d24c0c1db4aca3ee4f8a975ef9b1b8177ee08abad5a4bf18",
    "crowded_3_pairs_0.5m": "a7a180566b0f8fc1203a1ec0a375c35eda02fd6a67c279cf1e888160e74969b8",
    "crowded_3_pairs_1.5m": "72cf62311091f87c48b344378c4d8bd57b5f89e72f39b64ce3158b299ba4ad7d",
}

# The same transcripts without their ``link_log``: a change that moves only the
# byte counts of the link payloads leaves these digests as they are.
GOLDEN_WITHOUT_LINK = {
    "accept_0.5m_s0": "aff0b95664d6abf875f9c4e1edfd1269d4f92ed8a6f45998b8266f781cab3074",
    "accept_0.5m_s1": "9d640b9432b3e6d0f9b858b5c229605b1dc7f6052f1291e6377ae6b40abb9e86",
    "accept_1.0m": "bc13f59a0cf31bebb30eb4265fdbb8e8ef2ab708ed575b362eff93be1c27d5ac",
    "accept_silent": "e85b07dcbacc6d7e42e333dfa0ace61fc54914e4dc2206b09007cbcc5318b974",
    "accept_street": "109f0fcbc900a92e11eba9d17355cad87a322bb4d99eb3c704758c0ae8f1eb5e",
    "distance_exceeded_1.8m": "a1f8d0cd8417a7f7ca906a43fb7909dfd9843c59d791e4f0576aaaebaa438477",
    "distance_exceeded_tau_0.5": "0bec09c03ab7ee1782023a522c0b40c184279d8a84c41696e8e63b4ebd83826c",
    "signal_not_present_3m": "800ea2de26593845fc916819a1009f78f5d2dd5451bf6186fa840ddaaeba8c51",
    "signal_not_present_wall": "682cf71fd6e78a19a60b6a655de6735e804fb14667925e3e5f6c488c1e88ef61",
    "not_paired_range": "3bb9b0482ea8e66347965f12ec23e6c7f379f8b19ada76f5eb22ae8954cfb422",
    "skewed_vouch_clock": "756f8becce4ce11ceb49a2b2568e6549a6df8cc1d454ffedf423e68be918e886",
    "guessing_replay": "08c405c5fcbcd2566a3dcea547230aa0695ceee56abb8d3c38805df8cc920b6f",
    "all_frequency": "3e1d06f4e6ef8bc385ac5d52b3939f05de3ea6bb82b2d677a57f71fae64e40d2",
    "crowded_3_pairs_0.5m": "32fcd47cf13a758f703dc0297ee4e72442d487a4c40ba37adfdc823dc4f46a07",
    "crowded_3_pairs_1.5m": "48cd68effac4e340896eea51e0e3585721f3ee7180332067adbd0aa4f087331d",
}

CAMPAIGN_CSV_SHA256 = "026b129352fdbd08133fe25e775f83925b279febd44302c804292d7e7c9db3e9"

# Campaign reports, one per campaign that runs sessions: each pins the seeding
# of its trials (cell and trial index) and how it folds their transcripts.
REPORTS = {
    "detector_comparison": lambda: ev.detector_comparison((0.5, 1.0), 2, 32).to_json(),
    "attack_guessing_replay": lambda: ev.attack_campaign(adv.GuessingReplay(), 3, 33).to_json(),
    "attack_zero_effort_12m": lambda: ev.attack_campaign(adv.ZeroEffort(), 3, 34, separation_m=12.0).to_json(),
    "multiuser_2_pairs": lambda: ev.multiuser_campaign(2, (0.5, 1.5), 2, 35, min_trials=1).to_csv(),
}

REPORT_SHA256 = {
    "detector_comparison": "dd5ad0c110673abc6a506199336185e8f97caab167316dae73ab150315e22f74",
    "attack_guessing_replay": "e5211c0123510d410ef6c37993cf6720bbec1e1c3d4024c892b9607f8beb5789",
    "attack_zero_effort_12m": "513f19da96ba0ee6b54bf47148340391e31eada87a022b56d38cd437d5ec7b75",
    "multiuser_2_pairs": "95a69ce0e25d7797de91f574ae5b0079805a3871e81eacb252e500e48c1c98aa",
}


# The cross-correlation baseline on the replayed recordings of two office
# sessions, by (separation, seed): its four locations and raw distance. Both
# devices' detections lock onto the nearby burst, so the distance is exactly 0.
XCORR_BASELINE = {
    (0.5, 12): ({"l_aa": 2309, "l_av": 2140, "l_va": 11298, "l_vv": 11129}, 0.0),
    (1.5, 13): ({"l_aa": 2261, "l_av": 2255, "l_va": 11087, "l_vv": 11081}, 0.0),
}

# The two-way rows of the golden detector comparison, by (method, distance):
# trials measured and mean absolute error in metres. The echo row is left to
# the report digest, so these hold through a change of the echo baseline.
TWO_WAY_ROWS = {
    ("two_way_freq", 0.5): (2, 0.03854875283446729),
    ("two_way_freq", 1.0): (2, 0.0022675736961454973),
    ("two_way_xcorr", 0.5): (2, 0.8430839002267574),
    ("two_way_xcorr", 1.0): (2, 1.0),
}

# An all-frequency campaign's transcripts, concatenated: its later sessions
# find the spoofer's path responses memoized by the first, so even in a fresh
# process this digest covers memo hits, not only misses.
ALL_FREQUENCY_CAMPAIGN_SHA256 = "4c39340db4e23c3774ebdd1066db80e3900a6a1c70462580bc059d89282f0ca4"

# A guessing-replay campaign's transcripts, concatenated: the report digest
# above pins only its counts, these pin the locations and peaks of detections
# whose signal no coarse window passes, which are not fine-scanned.
GUESSING_REPLAY_CAMPAIGN_SHA256 = "c46b397dc31d6b756390c11c996c8d1ad4eb41d112d647b0e2adad6cc6c1649e"


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
    assert headers == {"auth": (1, 2, 44_100, 17_640), "vouch": (1, 2, 44_144, 17_658)}


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
