"""The session-invariant tables (the detector's per-rate bins and slide
phases and its per-block phased projections, FFT lengths, the noise mask,
the fractional-shift ramps, the spoofer's waveform and a read-only
waveform's path responses) are built once and shared read-only:
sessions must not depend on whether a table was built for them or found in
its cache, and every cached table must equal the one built for its caller
alone."""

import importlib
import pkgutil

import numpy as np
import pytest

import sonicauth
from helpers import full_buffer_propagate, noise_mask
from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import AuthPolicy, Endpoint, run_authentication
from sonicauth.signal import SAMPLE_RATE, SIGNAL_LENGTH, sample_spec, synthesize

# Only the all-frequency spoofer fills these: its waveform, and the path memo
# that only a read-only waveform, its own, enters.
SPOOFER_CACHES = (adv._all_frequency_waveform, ch._held_path_response)
CACHES = (
    spectrum._slide_phases,
    spectrum._block_phases,
    ch.fast_fft_length,
    ch._noise_mask,
    ch._shift_ramp,
    *SPOOFER_CACHES,
)
SPOOFER_KINDS = {"all_frequency"}


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


def _all_frequency_campaign():
    report = ev.attack_campaign(adv.AllFrequency(per_tone_power=1e11), 3, 41)
    return [report.to_json()] + [t.to_json() for t in report.transcripts]


SESSIONS = {
    "office": [lambda d=d, s=s: _office_session(d, s) for d in (0.5, 1.0, 1.5) for s in range(2)],
    "crowded": [_crowded_session],
    "skewed": [_skewed_session],
    "all_frequency": [_all_frequency_campaign],
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
        filled = [cache for cache in CACHES if kind in SPOOFER_KINDS or cache not in SPOOFER_CACHES]
        assert all(cache.cache_info().currsize > 0 for cache in filled)
        warm = [session() for session in SESSIONS[kind]]
        assert warm == cold

    def test_every_cache_is_cleared(self):
        """``CACHES`` holds every ``lru_cache`` the package's modules define,
        so a new cache cannot stay warm through the cold runs above."""
        defined = set()
        for info in pkgutil.iter_modules(sonicauth.__path__):
            module = importlib.import_module(f"sonicauth.{info.name}")
            defined |= {
                obj
                for obj in vars(module).values()
                if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__
            }
        assert defined == set(CACHES)

    def test_cached_arrays_are_read_only(self):
        synthesize(sample_spec(np.random.default_rng(1)))
        tables = (
            *spectrum._slide_phases(44_100.0),
            spectrum._block_phases(44_100.0, 64),
            ch._noise_mask(66_150),
            ch._shift_ramp(4320, 0.25),
            ch._held_path_response(ch._Held(adv.all_frequency_signal(1e11, 4096)), 0.25, 0.2, (1.0,))[0],
        )
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 1


class TestDetectorCacheSizes:
    """The detector's caches are keyed by the recorder's rate and sized for a
    session's two recorders: real traffic fills them without evicting."""

    @staticmethod
    def _entries(cache):
        info = cache.cache_info()
        return info.currsize, info.misses

    def test_nominal_office_campaign(self):
        """Every recorder of an office campaign runs at the nominal rate: one
        per-rate entry, and the partner span's three blocks, the own span's
        one block being the partner's first."""
        _clear_caches()
        ev.distance_error_campaign("office", (0.5, 1.5), 2, 2804, min_trials=1)
        assert self._entries(spectrum._slide_phases) == (1, 1)
        assert self._entries(spectrum._block_phases) == (3, 3)

    def test_skewed_vouch_session(self):
        """A vouching device with a skewed clock adds its rate's entry and
        its three blocks: both rates fit with nothing evicted."""
        _clear_caches()
        _skewed_session()
        assert self._entries(spectrum._slide_phases) == (2, 2)
        assert self._entries(spectrum._block_phases) == (6, 6)


class TestBinSpectra:
    def test_each_candidates_bins_distinct(self):
        """A candidate's power sums 2*THETA+1 distinct bins, and no two
        candidates share one: each tone sits on its own candidate's centre
        bin, so a bin read twice or by a neighbour would count its power
        twice."""
        bins = spectrum.candidate_bin_table(SAMPLE_RATE)
        assert all(np.unique(row).size == row.size for row in bins)
        assert np.unique(bins).size == bins.size


class TestNoiseMask:
    @pytest.mark.parametrize("n", [66_150, 52_920, 4097])
    def test_equals_inline_construction(self, n):
        assert np.array_equal(ch._noise_mask(n), noise_mask(n, 6000.0))


class TestShiftRamp:
    @pytest.mark.parametrize("n, frac", [(4320, 0.7058823529411598), (4320, 1e-9), (29_160, 0.5), (4097, 0.999)])
    def test_equals_inline_exp(self, n, frac):
        k = np.arange(n // 2 + 1)
        assert np.array_equal(ch._shift_ramp(n, frac), np.exp(-2j * np.pi * k * frac / n))

    def test_fixed_geometry_hits(self):
        """A session at one distance shifts both signals across it by one
        fraction (each device's own playback takes no shift): the first
        shift builds the ramp, and every later one finds it."""
        ch._shift_ramp.cache_clear()
        _office_session(1.0, 0)
        assert ch._shift_ramp.cache_info()[:2] == (1, 1)  # hits, misses
        _office_session(1.0, 1)
        assert ch._shift_ramp.cache_info()[:2] == (3, 1)


class TestSpooferShift:
    def test_only_signal_ramps_kept(self, monkeypatch):
        """An all-frequency campaign shifts the spoofer's session-long
        waveform only to build its memoized path responses, each with a ramp
        of its own: the shift-ramp cache is asked for, and holds, signal-length
        ramps alone. The memo's responses, served from it afterwards, add
        what the full-buffer reference adds."""
        _clear_caches()
        ramp_lengths, paths = set(), {}
        shift_ramp, propagate = ch._shift_ramp, ch.propagate

        def asked(n, frac):
            ramp_lengths.add(n)
            return shift_ramp(n, frac)

        def noted(waveform, emit_time, src_pos, dst_pos, cfg, mix):
            if ch._read_only(waveform):
                paths[src_pos, dst_pos] = (waveform, emit_time, cfg, len(mix))
            propagate(waveform, emit_time, src_pos, dst_pos, cfg, mix)

        monkeypatch.setattr(ch, "_shift_ramp", asked)
        monkeypatch.setattr(ch, "propagate", noted)
        _all_frequency_campaign()
        monkeypatch.undo()
        assert ramp_lengths == {ch.fast_fft_length(SIGNAL_LENGTH + 2 * ch._SHIFT_PAD)} == {4320}
        assert ch._shift_ramp.cache_info().currsize > 0

        assert len(paths) == 2  # the spoofer to each device
        hits = ch._held_path_response.cache_info().hits
        for (src_pos, dst_pos), (waveform, emit_time, cfg, n) in paths.items():
            mix = np.zeros(n)
            ch.propagate(waveform, emit_time, src_pos, dst_pos, cfg, mix)
            want = full_buffer_propagate(ch.Emission("attacker_0", waveform, emit_time, src_pos), dst_pos, cfg, n)
            assert np.array_equal(mix, want)
        assert ch._held_path_response.cache_info().hits - hits == 2
