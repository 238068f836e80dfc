"""Golden digests: seeded sessions and campaign reports, pinned bit for bit.

A refactor that is meant to keep behaviour must leave every digest here
unchanged. A change that alters behaviour on purpose updates the digests and
says why.
"""

import hashlib
import json
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth.protocol import AuthPolicy, Endpoint, run_authentication

# Per-tone power of the all-frequency session: the middle of the default
# spoofing sweep, written out so this file does not depend on the sweep.
ALL_FREQUENCY_POWER = 1.0e11


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _session(d, seed, *, tau=1.0, env="office", vouch_rate=ch.BASE_SAMPLE_RATE, cfg=None, **kwargs):
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
    return transcript.to_json()


def _attack(scenario, seed, separation=3.0):
    return _session(separation, seed, intruder=lambda ctx, r: adv.build_emissions(scenario, ctx, r))


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
    "not_paired_flag": lambda: _session(0.5, 10, paired=False),
    "xcorr_0.5m": lambda: _session(0.5, 12, detector="xcorr"),
    "xcorr_1.5m": lambda: _session(1.5, 13, detector="xcorr"),
    "skewed_vouch_clock": lambda: _session(0.8, 14, tau=1.5, vouch_rate=44_100.0 * 1.001),
    "guessing_replay": lambda: _attack(adv.GuessingReplay(), 16),
    "all_frequency": lambda: _attack(adv.AllFrequency(per_tone_power=ALL_FREQUENCY_POWER), 17),
    "crowded_3_pairs_0.5m": lambda: _crowded(0.5, 18),
    "crowded_3_pairs_1.5m": lambda: _crowded(1.5, 19),
}

GOLDEN = {
    "accept_0.5m_s0": "6a20a9f557da627c4420bb2ed6d5e7e05a81de89993b6dbb80448762ec32b99c",
    "accept_0.5m_s1": "bb59dd4e25dd688c6c2c860ee8f74a8cbc19589dff4b4ed0cf6a9e49b54ad5ba",
    "accept_1.0m": "88065c6186609b6741a1a8cac58cbb8215f9dd071cd5ce62125a3ed7dace6fe7",
    "accept_silent": "e08edd5efce2a29142ba45d21b0b098c8620f3ad31ba8d93c7a6a0f58d1e9825",
    "accept_street": "2d2754dc8251442e1b3f1427319ee899364d066e1b5c691622476d139dbe6863",
    "distance_exceeded_1.8m": "80fe18d1425b31f4b263b12157b58b835103bbfe687bb47e087bb7be6e892b46",
    "distance_exceeded_tau_0.5": "a22a321e345bddab08255831e56bd7bb5ed3700e1d2356b7f9ad8cba150b2502",
    "signal_not_present_3m": "d8ac1758a9cdc6266f7b5e1d4ef99a2ca1df247c7bba3f089455c888c29f0145",
    "signal_not_present_wall": "a3ce4a016613791ea09e2110fa5f9d869dbb363e73b17e77ec8b29340d8d9fc5",
    "not_paired_range": "d5c573cb8b0a85c6e02c3523675d89c5fdbf8121139440ce4ba76363486c7030",
    "not_paired_flag": "51456c1ff5ac5602dcfae26d2de26278b61470ce55e8040e252b46a9189fd8fa",
    "xcorr_0.5m": "d3be3f8c2a987735037d184475f2cc9b2ab430cd53c4891deec118c49ab9f583",
    "xcorr_1.5m": "f767038922679ec662565c190f3fc07682755454d592d3ac9d1173943bb4d965",
    "skewed_vouch_clock": "41404c84b2eebf9d5d1b57f3b2796415a82a22f0050eab9191dcbe52494b8109",
    "guessing_replay": "707a60a090671f4be660156e3ce1e6a97e164a063442427e7783235efed6ced2",
    "all_frequency": "9b688ad56ed696fa060cb131a6fd7e9a797da64f71a371f4abe89e9691f96764",
    "crowded_3_pairs_0.5m": "79c80bfa5e7baf557ca0c0870c3313a0b3afae2b60e1253dd16000285660a4c6",
    "crowded_3_pairs_1.5m": "b5eb29d44cec9570d923796860c0d49e1b0c907a29e0a3f31e11dc03f06ec33a",
}

# The same transcripts without their ``link_log``: a change that moves only the
# byte counts of the link payloads leaves these digests as they are.
GOLDEN_WITHOUT_LINK = {
    "accept_0.5m_s0": "0a6cde1d08e0b395232490d0bc33b4929b26d0c0267851fccf9ac0c87eb700e1",
    "accept_0.5m_s1": "d1d63463f027a935b127ae34b11f361fa301c814f831286e1cdcf1e1c51cf236",
    "accept_1.0m": "01c2f73e885c1a986f7df64b5dd9f3312b0122fdd2f28ce66245bb43fa162458",
    "accept_silent": "66f207dc9b08612c047c34ba6bbfe119db479b6786f0fb1e5c8993864e43ac31",
    "accept_street": "a974458ddbffe9c22815788d9afdbf7837779c3326293a45ba18395a5ba50c7c",
    "distance_exceeded_1.8m": "b4fda4d88d1f52b76bd73ed216b407e28f6aabc1475024ad0202a19668819af2",
    "distance_exceeded_tau_0.5": "69ba09dfd64b161d94cdd6619020bbfa688cb26a80efc560d71630e7edbab0a1",
    "signal_not_present_3m": "3c4ab70c620d8f95a7303c9daa8ba883bc32d0a2a432783ad1be28283fc00ca3",
    "signal_not_present_wall": "1d09af90e1f83b237f8c03a223a1dc7510f85abe1cab8dde154b806031b8f863",
    "not_paired_range": "3bb9b0482ea8e66347965f12ec23e6c7f379f8b19ada76f5eb22ae8954cfb422",
    "not_paired_flag": "46ed989ef1174021a0c98f14f366fbb70e901f83ab01d6b30473eee57c841594",
    "xcorr_0.5m": "3bfb7b8a5b2de4e85b9ee1031f27adca7979e73892942a8c99d9253a28fc8172",
    "xcorr_1.5m": "ca2a6c65b43ea5b467c8bb83b20e9a51a042740133d5c5a538e96aedcab85e12",
    "skewed_vouch_clock": "ef23b480d386cbd67dd4269a603a67a7522f0e45ee72d503dbee0b365d0a874f",
    "guessing_replay": "3ba69a749bb42c98c216fc407d56b9f52abae67848d7be961b75176638813cf1",
    "all_frequency": "b5169ab0c326730491d293a8347fe89156b669a7b4d3dbc124384d17fe12c04d",
    "crowded_3_pairs_0.5m": "343b3756f52911ab2e126080e5bb29d02150c2c3fcfc28a9b1d247ad20a506e9",
    "crowded_3_pairs_1.5m": "f13b4d76908e96911748f0e8bcb53f751408129c6db7a4077498950300a55ba9",
}

CAMPAIGN_CSV_SHA256 = "76cb023b9441c5554493f1609d2a72a9fd1217e32d240848e5f47776b76404cd"

# Campaign reports, one per campaign that runs sessions: each pins the seeding
# of its trials (cell and trial index) and how it folds their transcripts.
REPORTS = {
    "detector_comparison": lambda: ev.detector_comparison((0.5, 1.0), 2, 32).to_json(),
    "attack_guessing_replay": lambda: ev.attack_campaign(adv.GuessingReplay(), 3, 33).to_json(),
    "attack_zero_effort_12m": lambda: ev.attack_campaign(adv.ZeroEffort(), 3, 34, separation_m=12.0).to_json(),
    "multiuser_2_pairs": lambda: ev.multiuser_campaign(2, (0.5, 1.5), 2, 35, min_trials=1).to_csv(),
}

REPORT_SHA256 = {
    "detector_comparison": "2e2aacc244a83e28f72453f5cf5320fae2615255e8b81d18d6666d242a5cf43c",
    "attack_guessing_replay": "6c44b58889c959d767f2e726f1034455ada3a6085bcd89e8b6b3aa99cabda6ec",
    "attack_zero_effort_12m": "ba5493e490a3fac2b33b9d1a3e10972c9f89f8fabb1d57c174cfeac6bbb30f34",
    "multiuser_2_pairs": "e4e152cefd0a8ae7ab1ef14679c7351e35167c0a35bd84599255d53a7c6fd565",
}


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


def test_distance_error_campaign_csv_digest():
    report = ev.distance_error_campaign("office", (0.5, 1.5), 2, 31, min_trials=1)
    assert _sha(report.to_csv()) == CAMPAIGN_CSV_SHA256


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_campaign_report_digest(name):
    assert _sha(REPORTS[name]()) == REPORT_SHA256[name]
