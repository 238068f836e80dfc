"""Golden digests: seeded sessions and campaign reports, pinned bit for bit.

A refactor that is meant to keep behaviour must leave every digest here
unchanged. A change that alters behaviour on purpose updates the digests and
says why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth.protocol import AuthPolicy, Endpoint, ProtocolConfig, run_authentication

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
    "disjoint_frequency_sets": lambda: _session(
        0.5, 15, protocol_cfg=ProtocolConfig(disjoint_frequency_sets=True)
    ),
    "guessing_replay": lambda: _attack(adv.GuessingReplay(), 16),
    "all_frequency": lambda: _attack(adv.AllFrequency(per_tone_power=ALL_FREQUENCY_POWER), 17),
    "crowded_3_pairs_0.5m": lambda: _crowded(0.5, 18),
    "crowded_3_pairs_1.5m": lambda: _crowded(1.5, 19),
}

GOLDEN = {
    "accept_0.5m_s0": "f90b42dcacf0fd081657e2ae4a335191f69f14f407c78f6372dbe77c6f8e2222",
    "accept_0.5m_s1": "a042a04780702622530735ea61f14efd003713ad0ddc4109109a6ce71e5af275",
    "accept_1.0m": "7842301e56eec4365ac6f2541b67c4fd57fc1ba7872db6a1ee2c672e3367a5fc",
    "accept_silent": "868d6afe5d086003230a864d2c484672dca020fa82bd1e70433b416e7bc5c168",
    "accept_street": "963d0913dc85f1872dbc2960f78eb5c6c50046a816208fc75e1e7f439fee0c8d",
    "distance_exceeded_1.8m": "9dd0aaefd6132ec4220d60743800f429b22fe3eb2f5408e72487396a212f7b70",
    "distance_exceeded_tau_0.5": "c7acea0ea2bd1c1f7fcf004224593d21fd72993c410aedae4636b3d30ce9852c",
    "signal_not_present_3m": "d238796998a558f8f2d4f9e1d2e88e2e2904287b0e8b5a8109781d9cc8e5daf1",
    "signal_not_present_wall": "2810e2b9b5891138aea064274a5998e8fc083f93432019da428d1e4d275aeda5",
    "not_paired_range": "d5c573cb8b0a85c6e02c3523675d89c5fdbf8121139440ce4ba76363486c7030",
    "not_paired_flag": "51456c1ff5ac5602dcfae26d2de26278b61470ce55e8040e252b46a9189fd8fa",
    "xcorr_0.5m": "95c8b40d5a792b7b92e4a33b14df1e74c71ed84584ef367adf57b2e20bca68ef",
    "xcorr_1.5m": "9c573921c639108590b70794f02299c0b079783bf03e638bdef4b324adf69ee4",
    "skewed_vouch_clock": "0c9c1284e03eebc6a3c6a8a5930d88e100cfec2fd612c16ffcac612b47b2c32e",
    "disjoint_frequency_sets": "cd60db194f95852f2bfcc01c3fcef8eb3ad181f4dd17d941092bba25c89af809",
    "guessing_replay": "9ec9a015cd0c28a4bf2465e32f3d599beafe6bdbef70075fd7681abb6201912c",
    "all_frequency": "db54fad0f64fb82ca43a3b75e6aa65eb20a55a6f540790ee00f20c71376dd643",
    "crowded_3_pairs_0.5m": "4412b4f1555152bac2f74a3411421ddbe4b6854581c9af3e6276d5be0dba695a",
    "crowded_3_pairs_1.5m": "8165ab67ab2896589691c4e72d75f28189d436cfecaefb8c753dd195afd2a008",
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


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_transcript_digest(name):
    assert _sha(SESSIONS[name]()) == GOLDEN[name]


def test_distance_error_campaign_csv_digest():
    report = ev.distance_error_campaign("office", (0.5, 1.5), 2, 31, min_trials=1)
    assert _sha(report.to_csv()) == CAMPAIGN_CSV_SHA256


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_campaign_report_digest(name):
    assert _sha(REPORTS[name]()) == REPORT_SHA256[name]
