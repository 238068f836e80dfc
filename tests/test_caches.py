"""The session-invariant tables (candidate phasor rows, candidate bin tables, the
noise mask) are built once and shared read-only: sessions must not depend on
whether a table was built for them or found in its cache, and every cached
table must equal the one built for its caller alone."""

import numpy as np
import pytest

from helpers import noise_mask, tone_set_phasor_table
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth import signal as sg
from sonicauth import spectrum
from sonicauth.protocol import AuthPolicy, Endpoint, run_authentication
from sonicauth.signal import BIN_COUNT, CANDIDATES, SignalSpec, sample_spec, synthesize

CACHES = (sg._grid_phasor_table, spectrum.candidate_bin_table, ch._noise_mask)


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _office_session(d, seed):
    rng = np.random.default_rng(np.random.SeedSequence([77, seed]))
    _, t = run_authentication(
        Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (d, 0.0)), AuthPolicy(threshold_m=1.0), rng, ch.ChannelConfig()
    )
    return [t.to_json()]


def _crowded_session():
    report = ev.multiuser_campaign(3, (0.5,), 1, 40, min_trials=1)
    return [report.to_json()] + [t.to_json() for t in report.transcripts]


def _skewed_session():
    _, t = run_authentication(
        Endpoint("auth", (0.0, 0.0)),
        Endpoint("vouch", (0.8, 0.0), sample_rate=44_100.0 * 1.001),
        AuthPolicy(threshold_m=1.5),
        np.random.default_rng(5),
        ch.ChannelConfig(),
    )
    return [t.to_json()]


SESSIONS = {
    "office": [lambda d=d, s=s: _office_session(d, s) for d in (0.5, 1.0, 1.5) for s in range(2)],
    "crowded": [_crowded_session],
    "skewed": [_skewed_session],
}


class TestCachePurity:
    @pytest.mark.parametrize("kind", list(SESSIONS))
    def test_cold_and_warm_transcripts_equal(self, kind):
        """Each session once with every table rebuilt for it (the caches
        cleared before it), then all of them again on the warm caches."""
        cold = []
        for session in SESSIONS[kind]:
            _clear_caches()
            cold.append(session())
        assert all(cache.cache_info().currsize > 0 for cache in CACHES)
        warm = [session() for session in SESSIONS[kind]]
        assert warm == cold

    def test_cached_arrays_are_read_only(self):
        synthesize(sample_spec(np.random.default_rng(1)))
        tables = (
            sg._grid_phasor_table(),
            spectrum.candidate_bin_table(44_100.0, 4096),
            ch._noise_mask(66_150),
        )
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 1


class TestPhasorRows:
    @staticmethod
    def assert_rows_equal(spec, length=4096):
        got = sg._phasor_table(spec)
        want = tone_set_phasor_table(spec, length)
        assert got.shape == want.shape == (2 * spec.tone_count, length)
        assert np.array_equal(got, want)

    def test_seeded_tone_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            self.assert_rows_equal(sample_spec(rng))

    @pytest.mark.parametrize("tones", [1, 2, 28, 29])
    def test_tone_counts(self, tones):
        rng = np.random.default_rng(tones)
        for _ in range(5):
            freqs = rng.choice(np.asarray(CANDIDATES), size=tones, replace=False)
            self.assert_rows_equal(SignalSpec(frequencies=tuple(float(f) for f in freqs)))

    def test_long_signal(self, long_signal_length):
        self.assert_rows_equal(sample_spec(np.random.default_rng(9)), long_signal_length)

    def test_one_table_kept(self):
        """One table serves every tone set: the first synthesis builds it,
        and every later one finds it in the cache."""
        sg._grid_phasor_table.cache_clear()
        synthesize(sample_spec(np.random.default_rng(4)))
        synthesize(sample_spec(np.random.default_rng(5)))
        info = sg._grid_phasor_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 1
        assert sg._grid_phasor_table().shape == (2 * BIN_COUNT, 4096)
        assert sg._grid_phasor_table.cache_info().hits == info.hits + 1


class TestNoiseMask:
    @pytest.mark.parametrize("n", [66_150, 52_920, 4097])
    def test_equals_inline_construction(self, n):
        assert np.array_equal(ch._noise_mask(n), noise_mask(n, 6000.0))
