import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal

from helpers import load_wav, smooth_length_search, time_domain_noise
from sonicauth import channel as ch
from sonicauth import pcm
from sonicauth.signal import sample_spec, synthesize
from sonicauth.spectrum import detect


NAN, INF = float("nan"), float("inf")


def identity_kernel_cfg(**kwargs):
    return ch.ChannelConfig(smoothing_kernel=(1.0,), environment="silent", **kwargs)


class TestFastFftLength:
    def test_equals_a_search_over_every_length(self):
        assert [ch.fast_fft_length(n) for n in range(1, 20_001)] == [smooth_length_search(n) for n in range(1, 20_001)]

    def test_shift_of_a_session_long_waveform(self):
        # len(x) + 2 * _SHIFT_PAD = 28 863 = 3**3 * 1069 would take a slow FFT
        assert ch.fast_fft_length(28_671 + 2 * ch._SHIFT_PAD) == 29_160 == 2**3 * 3**6 * 5


class TestPropagate:
    def test_delay_arithmetic_one_metre(self, office_cfg):
        delay = ch.propagation_delay_samples((0.0, 0.0), (1.0, 0.0), office_cfg)
        assert int(delay) == 129
        assert delay - int(delay) == pytest.approx(0.70588, abs=1e-5)

    def test_zero_distance_floor_gain_inverse_square(self):
        # the distance floor applies to the amplitude law only: with the
        # classic inverse-square power model the clamp gives gain_at_1m / 0.1
        cfg = identity_kernel_cfg(attenuation_exponent=2.0)
        w = np.ones(64) * 100.0
        out = ch.propagate(w, 10, (0.0, 0.0), (0.0, 0.0), cfg, 200)
        assert np.allclose(out[10:74], 100.0 * cfg.gain_at_1m / 0.1)
        assert np.all(out[:10] == 0) and np.all(out[74:] == 0)

    def test_wall_attenuation_db(self):
        cfg = identity_kernel_cfg(wall_plane_x=0.5, wall_attenuation_db=60.0)
        open_cfg = identity_kernel_cfg()
        w = np.sin(2 * np.pi * 1000 * np.arange(4096) / 44100) * 1000
        through = ch.propagate(w, 0, (0.0, 0.0), (1.0, 0.0), cfg, 5000)
        free = ch.propagate(w, 0, (0.0, 0.0), (1.0, 0.0), open_cfg, 5000)
        ratio = np.sqrt(np.mean(through**2) / np.mean(free**2))
        assert ratio == pytest.approx(10 ** (-60 / 20), rel=1e-6)

    def test_wall_only_between_opposite_sides(self):
        cfg = identity_kernel_cfg(wall_plane_x=5.0, wall_attenuation_db=60.0)
        w = np.ones(32) * 100
        same_side = ch.propagate(w, 0, (0.0, 0.0), (1.0, 0.0), cfg, 300)
        assert np.max(np.abs(same_side)) > 1.0

    def test_reciprocity(self, office_cfg):
        w = np.sin(2 * np.pi * 9000 * np.arange(2048) / 44100) * 500
        a = ch.propagate(w, 100, (0.0, 0.0), (1.3, 0.7), office_cfg, 8000)
        b = ch.propagate(w, 100, (1.3, 0.7), (0.0, 0.0), office_cfg, 8000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [((0.0, 0.0), (1e308, 0.0)), ((-1e308, 0.0), (1e308, 0.0))],
        ids=["square_overflows", "difference_overflows"],
    )
    def test_distance_too_large_to_compute_rejected_without_warning(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^distance between {re.escape(f'{a} and {b}')} is too large"):
                ch._distance(a, b)

    def test_fractional_delay_preserves_energy(self):
        cfg = identity_kernel_cfg()
        w = np.sin(2 * np.pi * 14_000 * np.arange(4096) / 44100) * 1000
        out = ch.propagate(w, 500, (0.0, 0.0), (1.0, 0.0), cfg, 8000)
        gain = ch.path_gain((0.0, 0.0), (1.0, 0.0), cfg)
        assert np.sum(out**2) == pytest.approx(np.sum((w * gain) ** 2), rel=1e-3)


class TestNoise:
    @pytest.mark.parametrize("name", ["office", "home", "restaurant", "street"])
    def test_spectral_power_above_cutoff_below_one_percent(self, name):
        noise = ch._shaped_noise(ch.ENVIRONMENTS[name], 1 << 16, np.random.default_rng(0))
        spec = np.abs(np.fft.rfft(noise)) ** 2
        freqs = np.fft.rfftfreq(1 << 16, 1 / ch.BASE_SAMPLE_RATE)
        assert spec[freqs > ch.NOISE_CUTOFF_HZ].sum() / spec.sum() <= 0.01

    def test_rms_levels_ordered(self):
        e = ch.ENVIRONMENTS
        assert e["office"] < e["home"] < e["street"]
        assert e["office"] < e["restaurant"] < e["street"]
        assert e["home"] == pytest.approx(e["restaurant"], rel=0.15)

    def test_frequency_domain_draw_keeps_exact_rms(self):
        for n, seed in ((28_672, 0), (4097, 1), (66_150, 2)):
            noise = ch._shaped_noise(ch.ENVIRONMENTS["street"], n, np.random.default_rng(seed))
            assert np.sqrt(np.mean(noise**2)) == pytest.approx(ch.ENVIRONMENTS["street"], rel=1e-12)

    def test_band_powers_match_the_time_domain_draw(self):
        """Drawn as rFFT bins or as white samples filtered through an rFFT,
        the noise has the same spectrum: averaged over 50 draws of each, the
        power in the passband, the rolloff and the candidates' aliased band
        agree within 2%."""
        n = 28_672
        freqs = np.fft.rfftfreq(n, 1 / ch.BASE_SAMPLE_RATE)
        bands = [(freqs >= lo) & (freqs <= hi) for lo, hi in ((0, 4000), (5000, 6000), (9000, 19_000))]

        def band_powers(draw, seed):
            rng = np.random.default_rng(seed)
            spectra = [np.abs(np.fft.rfft(draw(ch.ENVIRONMENTS["office"], n, rng))) ** 2 for _ in range(50)]
            mean = np.mean(spectra, axis=0)
            return np.array([mean[band].sum() for band in bands])

        np.testing.assert_allclose(band_powers(ch._shaped_noise, 3), band_powers(time_domain_noise, 4), rtol=0.02)

    def test_silent_profile_is_zero(self):
        assert np.all(ch._shaped_noise(ch.ENVIRONMENTS["silent"], 1024, np.random.default_rng(1)) == 0)

    def test_recorded_office_noise_respects_cutoff(self, office_cfg):
        # through the full record() path, quantization included
        scene = ch.AcousticScene((), (ch.Recorder("m", (0.0, 0.0)),), duration=1 << 16, seed=2)
        rec = ch.record(scene, "m", office_cfg)
        spec = np.abs(np.fft.rfft(rec.samples.astype(float))) ** 2
        freqs = np.fft.rfftfreq(1 << 16, 1 / ch.BASE_SAMPLE_RATE)
        assert spec[freqs > 6000].sum() / spec.sum() <= 0.01

    def test_unknown_environment(self):
        with pytest.raises(ValueError, match=r"^unknown environment 'moon'; options: \['home', 'office'"):
            ch.ChannelConfig(environment="moon")


def one_emitter_scene(sig, offset, src, recorders, duration, seed=0):
    return ch.AcousticScene(
        emissions=(ch.Emission("src", sig.samples, offset, src),),
        recorders=recorders,
        duration=duration,
        seed=seed,
    )


class TestRecord:
    def test_empty_scene_silent_profile_all_zero(self, silent_cfg):
        scene = ch.AcousticScene((), (ch.Recorder("m", (0.0, 0.0)),), duration=4096)
        rec = ch.record(scene, "m", silent_cfg)
        assert rec.samples.dtype == np.int16
        assert np.all(rec.samples == 0)

    @pytest.mark.parametrize(
        "position", [(float("nan"), 0.0), (0.0, float("inf")), (-float("inf"),)], ids=["nan", "inf", "negative_inf"]
    )
    def test_non_finite_recorder_position_rejected(self, position):
        with pytest.raises(ValueError, match="^device 'm' position must be finite, got"):
            ch.Recorder("m", position)

    @pytest.mark.parametrize(
        "rate",
        [0.0, -44_100.0, float("nan"), float("inf"), 10**400],
        ids=["zero", "negative", "nan", "inf", "huge_int"],
    )
    def test_bad_recorder_rate_rejected(self, rate):
        """Before the check, 0 and negative rates failed inside the resampler
        and ``inf`` escaped as ``OverflowError``."""
        with pytest.raises(ValueError, match="^device 'm' sample rate must be finite and positive, got"):
            ch.Recorder("m", (0.0, 0.0), rate)

    def test_duplicate_device_id_rejected(self):
        recorders = (ch.Recorder("m", (0.0, 0.0)), ch.Recorder("m", (1.0, 0.0)))
        with pytest.raises(ValueError, match="^two recorders share the device id 'm'$"):
            ch.AcousticScene((), recorders, duration=64)

    def test_unknown_device_rejected(self, silent_cfg):
        scene = ch.AcousticScene((), (ch.Recorder("m", (0.0, 0.0)),), duration=64)
        with pytest.raises(ValueError):
            ch.record(scene, "nope", silent_cfg)

    def test_arrival_difference_between_two_recorders(self, office_cfg, rng):
        sig = synthesize(sample_spec(rng))
        scene = one_emitter_scene(
            sig,
            6000,
            (0.0, 0.0),
            (ch.Recorder("near", (0.5, 0.0)), ch.Recorder("far", (1.0, 0.0))),
            30_000,
        )
        near = ch.record(scene, "near", office_cfg)
        far = ch.record(scene, "far", office_cfg)
        l_near = detect(near.samples, sig, sample_rate=near.sample_rate).location
        l_far = detect(far.samples, sig, sample_rate=far.sample_rate).location
        expected = round(0.5 / 340 * 44_100)  # 65 samples
        assert l_near is not None and l_far is not None
        assert abs((l_far - l_near) - expected) <= 10

    def test_determinism(self, office_cfg, rng):
        sig = synthesize(sample_spec(rng))
        scene = one_emitter_scene(sig, 2000, (0.4, 0.0), (ch.Recorder("m", (0.0, 0.0)),), 12_000, seed=5)
        a = ch.record(scene, "m", office_cfg)
        b = ch.record(scene, "m", office_cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_superposition_before_quantization(self, office_cfg, rng):
        sig_a = synthesize(sample_spec(rng))
        sig_b = synthesize(sample_spec(rng))
        rec = (ch.Recorder("m", (0.0, 0.0)),)
        em_a = ch.Emission("a", sig_a.samples, 1000, (0.5, 0.0))
        em_b = ch.Emission("b", sig_b.samples, 6000, (1.0, 0.0))
        both = ch.render_mix(ch.AcousticScene((em_a, em_b), rec, 16_000, seed=3), "m", office_cfg)
        only_a = ch.render_mix(ch.AcousticScene((em_a,), rec, 16_000, seed=3), "m", office_cfg)
        only_b = ch.render_mix(ch.AcousticScene((em_b,), rec, 16_000, seed=3), "m", office_cfg)
        noise = ch.render_mix(ch.AcousticScene((), rec, 16_000, seed=3), "m", office_cfg)
        assert np.allclose(both, only_a + only_b - noise, rtol=1e-9, atol=1e-6)

    def test_emission_before_the_scene_rejected(self, rng):
        sig = synthesize(sample_spec(rng))
        with pytest.raises(ValueError, match="^emission from a starts before the scene$"):
            ch.AcousticScene(
                (ch.Emission("a", sig.samples, -1, (0.0, 0.0)),),
                (ch.Recorder("m", (0.0, 0.0)),),
                duration=10_000,
            )

    @pytest.mark.parametrize(
        "emit_time, source",
        [(10_000, (0.0, 0.0)), (99_999, (0.0, 0.0)), (9_900, (1.0, 0.0))],
        ids=["at_the_end", "long_after", "arrives_after_the_end"],
    )
    def test_emission_heard_at_or_after_the_end_is_silent(self, office_cfg, rng, emit_time, source):
        """An emission that reaches the recorder at or after the scene's last
        sample leaves the mix bit for bit as it is without it. From 1 m the
        one played at sample 9 900 arrives 129.7 samples later, past 10 000."""
        sig = synthesize(sample_spec(rng))
        heard = ch.Emission("a", sig.samples, 2_000, (0.5, 0.0))
        late = ch.Emission("late", sig.samples, emit_time, source)
        rec = (ch.Recorder("m", (0.0, 0.0)),)
        with_late = ch.render_mix(ch.AcousticScene((heard, late), rec, 10_000, seed=4), "m", office_cfg)
        without = ch.render_mix(ch.AcousticScene((heard,), rec, 10_000, seed=4), "m", office_cfg)
        assert np.array_equal(with_late, without)

    def test_clock_skew_scales_pair_separation(self, silent_cfg, rng):
        """A recorder running 0.1% fast sees playback separations shrunk by
        the same ratio."""
        sig_a = synthesize(sample_spec(rng))
        sig_b = synthesize(sample_spec(rng))
        gap = 44_100  # 1 s
        skew = 1.001
        scene = ch.AcousticScene(
            emissions=(
                ch.Emission("a", sig_a.samples, 2000, (0.3, 0.0)),
                ch.Emission("b", sig_b.samples, 2000 + gap, (0.3, 0.0)),
            ),
            recorders=(
                ch.Recorder("true", (0.0, 0.0), 44_100.0),
                ch.Recorder("fast", (0.0, 0.0), 44_100.0 * skew),
            ),
            duration=60_000,
        )
        rec_true = ch.record(scene, "true", silent_cfg)
        rec_fast = ch.record(scene, "fast", silent_cfg)
        assert rec_fast.samples.shape[0] == pytest.approx(60_000 * skew, abs=2)
        sep_true = (
            detect(rec_true.samples, sig_b, sample_rate=44_100.0).location
            - detect(rec_true.samples, sig_a, sample_rate=44_100.0).location
        )
        sep_fast = (
            detect(rec_fast.samples, sig_b, sample_rate=44_100.0 * skew).location
            - detect(rec_fast.samples, sig_a, sample_rate=44_100.0 * skew).location
        )
        assert sep_fast == pytest.approx(sep_true * skew, abs=25)

    @pytest.mark.parametrize("skew", [1.001, 0.999, 1.0001])
    def test_resampling_equals_scipy_resample(self, office_cfg, rng, skew):
        """A skewed recorder's mix is the base-rate mix Fourier-resampled as
        ``scipy.signal.resample`` does it, well within one LSB. Without its
        Nyquist-bin split and fold it strays by up to 1.6 LSB."""
        sig = synthesize(sample_spec(rng))
        emissions = (ch.Emission("a", sig.samples, 2000, (0.3, 0.0)), ch.Emission("b", sig.samples, 30_000, (1.0, 0.0)))

        def mix(rate):
            scene = ch.AcousticScene(emissions, (ch.Recorder("m", (0.0, 0.0), rate),), duration=66_150, seed=7)
            return ch.render_mix(scene, "m", office_cfg)

        skewed = mix(44_100.0 * skew)
        assert skewed.shape == (round(66_150 * skew),)
        np.testing.assert_allclose(skewed, scipy.signal.resample(mix(44_100.0), skewed.shape[0]), rtol=0, atol=1e-6)


class TestConfig:
    def test_kernel_must_be_energy_normalized(self):
        with pytest.raises(ValueError):
            ch.ChannelConfig(smoothing_kernel=(0.5, 0.5))

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (ch.ChannelConfig, {"smoothing_kernel": (NAN,)}),
            (ch.ChannelConfig, {"speed_of_sound": NAN}),
            (ch.ChannelConfig, {"speed_of_sound": INF}),
            (ch.ChannelConfig, {"gain_at_1m": NAN}),
            (ch.ChannelConfig, {"attenuation_exponent": NAN}),
            (ch.ChannelConfig, {"wall_attenuation_db": NAN}),
            (ch.ChannelConfig, {"wall_plane_x": NAN}),
        ],
        ids=[
            "kernel_nan", "speed_nan", "speed_inf", "gain_nan", "exponent_nan", "wall_db_nan", "wall_x_nan",
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, cls, kwargs):
        field = list(kwargs)[-1]
        with pytest.raises(ValueError, match=rf"\b{field} must be"):
            cls(**kwargs)

    def test_default_kernel_energy(self, office_cfg):
        assert sum(t**2 for t in office_cfg.smoothing_kernel) == pytest.approx(1.0)

    def test_config_from_json(self):
        cfg = ch.config_from_json(
            {
                "speed_of_sound": 343.0,
                "wall": {"plane_x": 1.0, "attenuation_db": 40.0},
            }
        )
        assert cfg.speed_of_sound == 343.0
        assert cfg.wall_plane_x == 1.0
        assert cfg.wall_attenuation_db == 40.0

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ch.config_from_json({"speed_of_light": 3e8})

    def test_config_from_json_environment_object_and_kernel(self):
        cfg = ch.config_from_json(
            {
                "smoothing_kernel": [2.0, 0],
                "wall": {"plane_x": -1},
            }
        )
        assert cfg.smoothing_kernel == (1.0, 0.0)
        assert (cfg.wall_plane_x, cfg.wall_attenuation_db) == (-1.0, 60.0)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1], "channel config must be an object, got [1]"),
            ({"wall": {"attenuation_db": 60}}, "channel config wall lacks the 'plane_x' key"),
            ({"wall": {}}, "channel config wall lacks the 'plane_x' key"),
            ({"wall": None}, "channel config field 'wall' must be an object, got None"),
            ({"wall": {"plane_x": "1"}}, "channel config wall field 'plane_x' must be a finite number, got '1'"),
            ({"wall": {"plane_x": 1, "height": 2}}, "unknown channel config wall keys: ['height']"),
            ({"environment": "street"}, "unknown channel config keys: ['environment']"),
            ({"noise_seed": 3}, "unknown channel config keys: ['noise_seed']"),
            ({"gain_at_1m": [1]}, "channel config field 'gain_at_1m' must be a positive number, got [1]"),
            ({"gain_at_1m": 0}, "channel config field 'gain_at_1m' must be a positive number, got 0"),
            ({"smoothing_kernel": 3}, "channel config field 'smoothing_kernel' must be a list of finite numbers"),
            ({"smoothing_kernel": [0, 0]}, "channel config field 'smoothing_kernel' must be a list of finite numbers"),
            ({"smoothing_kernel": []}, "channel config field 'smoothing_kernel' must be a list of finite numbers"),
            ({"speed_of_sound": True}, "channel config field 'speed_of_sound' must be a positive number, got True"),
            ({"speed_of_sound": "340"}, "channel config field 'speed_of_sound' must be a positive number, got '340'"),
            (
                {"attenuation_exponent": float("nan")},
                "channel config field 'attenuation_exponent' must be a finite number, got nan",
            ),
        ],
        ids=[
            "list",
            "wall_without_plane",
            "wall_empty",
            "wall_null",
            "wall_string_plane",
            "wall_unknown_key",
            "environment",
            "noise_seed",
            "gain_list",
            "gain_zero",
            "kernel_int",
            "kernel_zeros",
            "kernel_empty",
            "speed_bool",
            "speed_string",
            "exponent_nan",
        ],
    )
    def test_config_malformed_rejected(self, obj, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            ch.config_from_json(obj)

    def test_recording_to_wav(self, tmp_path, silent_cfg, rng):
        sig = synthesize(sample_spec(rng))
        scene = one_emitter_scene(sig, 100, (0.2, 0.0), (ch.Recorder("m", (0.0, 0.0)),), 8000)
        rec = ch.record(scene, "m", silent_cfg)
        pcm.save_wav(str(tmp_path / "rec.wav"), rec.samples, rec.sample_rate)
        data, rate = load_wav(str(tmp_path / "rec.wav"))
        assert rate == 44_100
        assert np.array_equal(data, rec.samples)


class TestCalibration:
    """The emergent detection range sits between 2 and 3 metres."""

    def test_detect_at_two_metres_fail_at_three(self, office_cfg, rng):
        for d, want_found in ((2.0, True), (3.0, False)):
            sig = synthesize(sample_spec(rng))
            scene = one_emitter_scene(
                sig, 8000, (d, 0.0), (ch.Recorder("m", (0.0, 0.0)),), 30_000, seed=int(d * 10)
            )
            rec = ch.record(scene, "m", office_cfg)
            out = detect(rec.samples, sig, sample_rate=rec.sample_rate)
            assert (out.location is not None) == want_found
