import collections
import math

import numpy as np
import pytest

from helpers import proper_subsets
from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import RECORD_SAMPLES, AuthPolicy, Endpoint, SceneContext, run_authentication
from sonicauth import signal as sg
from sonicauth.signal import AMPLITUDE_BUDGET, BIN_COUNT, CANDIDATES, SAMPLE_RATE, sample_spec, synthesize
from sonicauth.spectrum import measure_candidate_powers, norm_power


def uncached_all_frequency_signal(per_tone_power, duration):
    """Reference: the all-frequency waveform recalibrated and rebuilt on every call."""
    sample_rate, amplitude_budget = 44_100.0, 32_000
    t = np.arange(duration, dtype=np.float64)
    window = 4096
    amps = []
    for i, f in enumerate(CANDIDATES):
        unit = np.sin(2.0 * np.pi * f * np.arange(window) / sample_rate)
        unit_power = measure_candidate_powers(unit, sample_rate)[i]
        amps.append(math.sqrt(per_tone_power / unit_power))
    if sum(amps) > amplitude_budget:
        raise ValueError(f"per-tone power {per_tone_power:g} infeasible")
    x = np.zeros(duration)
    for f, a in zip(CANDIDATES, amps):
        x += a * np.sin(2.0 * np.pi * f * t / sample_rate)
    return np.clip(np.rint(x), -32768, 32767).astype(np.int16)


class TestGuessingReplaySignal:
    def test_output_is_valid_reference_signal(self):
        sig = adv.guessing_replay_signal(np.random.default_rng(0))
        assert 0 < len(sig.frequencies) < BIN_COUNT
        assert np.max(np.abs(sig.samples)) <= AMPLITUDE_BUDGET
        assert sig.total_power == pytest.approx(sum(sig.nominal_power.values()))

    def test_small_grid_enumerates_all_subsets_uniformly(self):
        """The public subset draw a guesser re-runs, over four candidates."""
        candidates = (1500.0, 2500.0, 3500.0, 4500.0)
        admissible = proper_subsets(candidates)
        assert len(admissible) == 14
        rng = np.random.default_rng(321)
        counts = collections.Counter()
        for _ in range(7000):
            counts[frozenset(sg._proper_subset(rng, candidates))] += 1
        assert set(counts) == set(admissible)
        assert min(counts.values()) / 7000 > 0.5 / 14


class TestAllFrequencySignal:
    def test_measured_per_tone_power_within_five_percent(self):
        target = 1.0e10
        wave = adv.all_frequency_signal(target, 8192)
        measured = measure_candidate_powers(wave[:4096].astype(float), 44_100.0)
        assert np.all(np.abs(measured / target - 1.0) < 0.05)

    def test_thirty_candidate_peaks(self):
        wave = adv.all_frequency_signal(1.0e10, 8192)
        measured = measure_candidate_powers(wave[:4096].astype(float), 44_100.0)
        assert measured.shape[0] == 30
        assert measured.min() > 0.5e10

    def test_infeasible_power_rejected(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="infeasible"):
                adv.all_frequency_signal(1.0e16, 8192)

    @pytest.mark.parametrize("duration", [8192, 66_149])
    @pytest.mark.parametrize("power", [1.0e9, 2.5e10])
    def test_memoised_waveform_equals_uncached_build(self, power, duration):
        expected = uncached_all_frequency_signal(power, duration)
        for _ in range(2):
            assert np.array_equal(adv.all_frequency_signal(power, duration), expected)

    def test_shared_waveform_is_read_only(self):
        wave = adv.all_frequency_signal(1.0e10, 8192)
        assert not wave.flags.writeable
        with pytest.raises(ValueError):
            wave[0] = 0

    def test_calibration_runs_once_per_grid(self, monkeypatch):
        """One calibration measures each candidate once; later waveforms,
        at any power, reuse it."""
        adv._unit_sine_powers.cache_clear()
        adv._all_frequency_waveform.cache_clear()
        calls = []
        measure = spectrum.measure_candidate_powers

        def counting(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(spectrum, "measure_candidate_powers", counting)
        first = adv.all_frequency_signal(1.0e10, 8192)
        assert len(calls) == BIN_COUNT
        assert adv.all_frequency_signal(1.0e10, 8192) is first
        adv.all_frequency_signal(2.0e10, 8192)
        assert len(calls) == BIN_COUNT
        info = adv._unit_sine_powers.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_power_sweep_matches_uncached_build(self, monkeypatch):
        sweep = ev.all_frequency_power_sweep(6)
        monkeypatch.setattr(adv, "all_frequency_signal", uncached_all_frequency_signal)
        assert sweep == ev.all_frequency_power_sweep(6)

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError):
            adv.all_frequency_signal(1.0e10, 1000)

    @pytest.mark.parametrize("duration", [1, 4000, 4095])
    def test_under_one_window_rejected(self, duration):
        """The waveform must cover one 4096-sample measurement window."""
        with pytest.raises(ValueError, match="at least one measurement window"):
            adv.all_frequency_signal(1e9, duration)

    def test_one_window_builds(self):
        assert adv.all_frequency_signal(1e9, 4096).shape == (4096,)


class TestSanityCheckDefence:
    def test_attacker_only_window_always_sentinel(self):
        """Across the emitted-power sweep, an all-candidate window never
        yields a finite normalized power: either the in-set presence check or
        the out-of-set absence check fails."""
        sig = synthesize(sample_spec(np.random.default_rng(8)))
        r_mean = sig.total_power / len(sig.frequencies)
        beta = spectrum.BETA_RATIO * r_mean
        for p_emit in np.geomspace(beta / 4, 4 * spectrum.ALPHA * r_mean, 6):
            try:
                wave = adv.all_frequency_signal(p_emit, 8192)
            except ValueError:
                continue
            window = wave[2048 : 2048 + 4096].astype(float)
            assert norm_power(window, sig, sample_rate=SAMPLE_RATE) is None

    def test_wrong_guess_window_is_sentinel(self):
        rng = np.random.default_rng(9)
        sig = synthesize(sample_spec(rng))
        guess = adv.guessing_replay_signal(np.random.default_rng(10))
        if set(guess.frequencies) == set(sig.frequencies):  # pragma: no cover
            pytest.skip("guess collided (probability ~1e-9)")
        p = norm_power(guess.samples.astype(float), sig, sample_rate=SAMPLE_RATE)
        assert p is None


class TestGuessingProbability:
    def test_n4_matches_enumeration(self):
        assert adv.guessing_success_probability(4, 1) == pytest.approx(1 / 14)

    def test_n2_single_candidate_pairs(self):
        assert adv.guessing_success_probability(2, 1) == pytest.approx(0.5)

    def test_n30(self):
        assert adv.guessing_success_probability(30, 1) == pytest.approx(9.31322e-10, rel=1e-5)

    def test_two_signals_is_squared(self):
        single = adv.guessing_success_probability(30, 1)
        assert adv.guessing_success_probability(30, 2) == pytest.approx(single**2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            adv.guessing_success_probability(1, 1)
        with pytest.raises(ValueError):
            adv.guessing_success_probability(30, 3)


class TestScenarios:
    def _ctx(self):
        return SceneContext(auth_position=(0.0, 0.0), vouch_position=(3.0, 0.0))

    def test_zero_effort_emits_nothing(self):
        out = adv.build_emissions(adv.ZeroEffort(), self._ctx(), np.random.default_rng(0))
        assert out == []

    def test_guessing_replay_plays_near_both_devices(self):
        out = adv.build_emissions(adv.GuessingReplay(), self._ctx(), np.random.default_rng(1))
        assert len(out) == 2
        positions = {e.position for e in out}
        assert (0.3, 0.0) in positions and (3.3, 0.0) in positions

    def test_all_frequency_continuous_spans_scene(self):
        out = adv.build_emissions(adv.AllFrequency(per_tone_power=1e10), self._ctx(), np.random.default_rng(2))
        assert len(out) == 1
        assert out[0].emit_time == 0
        assert out[0].position == (0.3, 0.0)
        assert out[0].waveform.shape[0] == RECORD_SAMPLES - 1

    @pytest.mark.parametrize("scenario", [adv.GuessingReplay(), adv.AllFrequency(per_tone_power=1e11)])
    def test_attacks_play_inside_the_recording(self, scenario):
        """In a session every attack emission starts and ends inside the
        recording: a replay is heard in full, and the all-frequency waveform
        spans the recording."""
        emissions = []

        def intruder(ctx, rng):
            emissions.extend(adv.build_emissions(scenario, ctx, rng))
            return emissions

        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (3.0, 0.0))
        for seed in range(20):
            run_authentication(
                auth, vouch, AuthPolicy(), np.random.default_rng(seed), ch.ChannelConfig(), intruder=intruder
            )
        assert emissions
        assert all(0 <= e.emit_time and e.emit_time + e.waveform.shape[0] < RECORD_SAMPLES for e in emissions)
        if isinstance(scenario, adv.AllFrequency):
            assert {(e.emit_time, e.waveform.shape[0]) for e in emissions} == {(0, RECORD_SAMPLES - 1)}

    @pytest.mark.parametrize(
        "power",
        ["1e9", None, True, [1e9], 0, -1, -1e9, float("nan"), float("inf"), -float("inf")],
        ids=["string", "null", "bool", "list", "zero", "negative_int", "negative", "nan", "inf", "negative_inf"],
    )
    def test_all_frequency_bad_power_rejected(self, power):
        with pytest.raises(ValueError, match="per_tone_power must be a finite positive number, got"):
            adv.AllFrequency(per_tone_power=power)

    @pytest.mark.parametrize("power", [-1, 0, float("nan")])
    def test_all_frequency_waveform_builder_rejects_bad_power(self, power):
        """The builder checks the power itself, not only through ``AllFrequency``."""
        with pytest.raises(ValueError, match="per-tone power must be finite and positive, got"):
            adv.all_frequency_signal(power, 8192)
