"""Golden pins: seeded sessions and campaign reports, pinned bit for bit.

Each pin's exact text is stored under ``tests/golden/``, one file per
``PINS`` entry, named after it. A refactor that is meant to keep behaviour
leaves every pin as it is. A moved pin fails with one line per field that
moved, old -> new; a transcript's first line gives its verdict, reason and
raw distance before and after. A change that alters behaviour on purpose
edits the stored texts by hand and lists them in CHANGES.md.
"""

import csv
import io
import json
import wave
from dataclasses import replace
from pathlib import Path

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

GOLDEN_DIR = Path(__file__).parent / "golden"
STORED = {path.stem: path for path in GOLDEN_DIR.iterdir()}
_ABSENT = object()

# Per-tone power of the all-frequency session: the middle of the default
# spoofing sweep, written out so this file does not depend on the sweep.
ALL_FREQUENCY_POWER = 1.0e11


def _run(d, seed, *, tau=1.0, env="office", vouch_rate=ch.BASE_SAMPLE_RATE, cfg=None, **kwargs):
    cfg = cfg if cfg is not None else ev._cfg_for(env, None)
    rng = np.random.default_rng(np.random.SeedSequence([2024, seed]))
    auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (d, 0.0), sample_rate=vouch_rate)
    _, transcript = run_authentication(auth, vouch, AuthPolicy(threshold_m=tau), rng, cfg, **kwargs)
    return transcript


def _session(d, seed, **kwargs):
    return _run(d, seed, **kwargs).to_json()


def _attack(scenario, seed, separation=3.0):
    return _session(separation, seed, intruder=lambda a, v, r: adv.build_emissions(scenario, a, v, r))


def _crowded(d, seed):
    return ev.multiuser_campaign(3, (d,), 1, seed, min_trials=1).transcripts[0].to_json()


def _campaign_transcripts(scenario, seed):
    return "".join(t.to_json() for t in ev.attack_campaign(scenario, 3, seed).transcripts)


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

# Campaign reports, one per campaign that runs sessions: each pins the seeding
# of its trials (cell and trial index) and how it folds their transcripts.
REPORTS = {
    "detector_comparison": lambda: ev.detector_comparison((0.5, 1.0), 2, 32).to_json(),
    "attack_guessing_replay": lambda: ev.attack_campaign(adv.GuessingReplay(), 3, 33).to_json(),
    "attack_zero_effort_12m": lambda: ev.attack_campaign(adv.ZeroEffort(), 3, 34, separation_m=12.0).to_json(),
    "multiuser_2_pairs": lambda: ev.multiuser_campaign(2, (0.5, 1.5), 2, 35, min_trials=1).to_csv(),
}

PINS = {
    **SESSIONS,
    **REPORTS,
    "distance_error_campaign": lambda: ev.distance_error_campaign("office", (0.5, 1.5), 2, 31, min_trials=1).to_csv(),
    # An all-frequency campaign's transcripts, back to back: its later
    # sessions find the spoofer's path responses memoized by the first, so
    # even in a fresh process this pin covers memo hits, not only misses.
    "all_frequency_campaign": lambda: _campaign_transcripts(adv.AllFrequency(per_tone_power=ALL_FREQUENCY_POWER), 36),
    # A guessing-replay campaign's transcripts, back to back: the report pin
    # holds only its counts, these the locations and peaks of detections
    # whose own signal is absent, whose partner is not searched.
    "guessing_replay_campaign": lambda: _campaign_transcripts(adv.GuessingReplay(), 37),
}


# The cross-correlation baseline on the replayed recordings of two office
# sessions, by (separation, seed): its four locations and raw distance. Both
# devices' detections lock onto the nearby burst, so the distance is exactly 0.
XCORR_BASELINE = {
    (0.5, 12): ({"l_aa": 2309, "l_av": 2309, "l_va": 11129, "l_vv": 11129}, 0.0),
    (1.5, 13): ({"l_aa": 2261, "l_av": 2261, "l_va": 11081, "l_vv": 11081}, 0.0),
}

# The two-way rows of the golden detector comparison, by (method, distance):
# trials measured and mean absolute error in metres. The echo row is left to
# the report pin, so these hold through a change of the echo baseline.
TWO_WAY_ROWS = {
    ("two_way_freq", 0.5): (2, 0.03854875283446965),
    ("two_way_freq", 1.0): (2, 0.019274376417232397),
    ("two_way_xcorr", 0.5): (2, 0.5),
    ("two_way_xcorr", 1.0): (2, 1.0),
}


def _documents(suffix: str, text: str) -> list:
    """A CSV as one ``{"rows": [...]}`` document; any other text as the JSON
    documents it holds back to back."""
    if suffix == ".csv":
        return [{"rows": list(csv.DictReader(io.StringIO(text, newline="")))}]
    docs, end, decoder = [], 0, json.JSONDecoder()
    while end < len(text):
        doc, end = decoder.raw_decode(text, end)
        docs.append(doc)
    return docs


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def _verdict(t: dict) -> str:
    return f"{t['verdict']} (reason {_show(t['reason'])}, raw distance {_show(t['raw_distance_m'])})"


def _leaves(old, new, path: str) -> list[str]:
    """``path: old -> new``, one line per leaf value that differs; a moved
    transcript's lines follow its verdict, reason and raw distance."""
    if isinstance(old, list) and isinstance(new, list):
        count = max(len(old), len(new))
        old, new = (xs + [_ABSENT] * (count - len(xs)) for xs in (old, new))
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in _leaves(a, b, f"{path}[{i}]")]
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if _show(old) == _show(new) else [f"{path}: {_show(old)} -> {_show(new)}"]
    keys = [*old, *(k for k in new if k not in old)]
    lines = [
        line for k in keys for line in _leaves(old.get(k, _ABSENT), new.get(k, _ABSENT), f"{path}.{k}".lstrip("."))
    ]
    if lines and "verdict" in old and "verdict" in new:
        lines.insert(0, f"{path} verdict {_verdict(old)} -> {_verdict(new)}".lstrip())
    return lines


def _moved_fields(suffix: str, stored: str, produced: str) -> list[str]:
    olds, news = _documents(suffix, stored), _documents(suffix, produced)
    lines = _leaves(olds[0], news[0], "") if len(olds) == len(news) == 1 else _leaves(olds, news, "")
    return lines or ["the bytes moved but no field did: formatting or line endings"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_pin(name):
    path = STORED[name]
    stored, produced = path.read_bytes(), PINS[name]().encode()
    if produced != stored:
        moved = _moved_fields(path.suffix, stored.decode(), produced.decode())
        pytest.fail(f"{path.name} moved:\n" + "\n".join(moved), pytrace=False)


def test_every_stored_pin_has_an_entry():
    assert sorted(p.stem for p in GOLDEN_DIR.iterdir()) == sorted(PINS)


def test_moved_pin_names_each_moved_field():
    """A moved pin names exactly the fields that moved, old -> new: for a
    transcript after its verdict line, for a report or CSV by row and
    column."""
    stored = STORED["accept_0.5m_s0"].read_text()
    t = json.loads(stored)
    l_av, raw = t["locations"]["l_av"], t["raw_distance_m"]
    t["locations"]["l_av"] += 10
    t["verdict"] = "reject"
    assert _moved_fields(".json", stored, json.dumps(t)) == [
        f"verdict accept (reason null, raw distance {raw}) -> reject (reason null, raw distance {raw})",
        f"locations.l_av: {l_av} -> {l_av + 10}",
        'verdict: "accept" -> "reject"',
    ]
    stored = STORED["distance_error_campaign"].read_bytes().decode()
    old = stored.split("\r\n")[2].split(",")[5]
    moved = stored.replace(f",{old},", ",0.5,", 1)
    assert _moved_fields(".csv", stored, moved) == [f'rows[1].mean_abs_error_m: "{old}" -> "0.5"']
    stored = STORED["detector_comparison"].read_text()
    report = json.loads(stored)
    measured = report["rows"][2]["measured"]
    report["rows"][2]["measured"] -= 1
    assert _moved_fields(".json", stored, json.dumps(report)) == [f"rows[2].measured: {measured} -> {measured - 1}"]


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
    assert t.to_json().encode() == STORED["skewed_vouch_clock"].read_bytes()
    cli._dump_session_wavs(str(tmp_path), ev._cfg_for("office", None), t)
    headers = {}
    for device in ("auth", "vouch"):
        with wave.open(str(tmp_path / f"recording_{device}.wav"), "rb") as fh:
            headers[device] = (fh.getnchannels(), fh.getsampwidth(), fh.getframerate(), fh.getnframes())
    assert headers == {"auth": (1, 2, 44_100, 17_640), "vouch": (1, 2, 44_144, 17_658)}


def test_detector_comparison_two_way_rows():
    rows = json.loads(REPORTS["detector_comparison"]())["rows"]
    two_way = {
        (r["method"], r["distance_m"]): (r["measured"], r["mean_abs_error_m"])
        for r in rows
        if r["method"] != "one_way_echo"
    }
    assert two_way == TWO_WAY_ROWS
