import collections
import math
import time

import numpy as np
import pytest

from helpers import detect_own, proper_subsets
from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import RECORD_SAMPLES, AuthPolicy, Endpoint, run_authentication
from sonicauth import signal as sg
from sonicauth.signal import AMPLITUDE_BUDGET, BIN_COUNT, CANDIDATES, SAMPLE_RATE, sample_spec, synthesize


def measure(window):
    """Per-candidate powers of one signal-long window at the nominal rate,
    measured as a one-window span."""
    return spectrum._sliding_candidate_powers(window, 0, 1, SAMPLE_RATE)[0]


def uncached_all_frequency_signal(per_tone_power, duration):
    """Reference: the all-frequency waveform recalibrated and rebuilt on every call."""
    sample_rate, amplitude_budget = 44_100.0, 32_000
    t = np.arange(duration, dtype=np.float64)
    window = 4096
    amps = []
    for i, f in enumerate(CANDIDATES):
        unit = np.sin(2.0 * np.pi * f * np.arange(window) / sample_rate)
        unit_power = measure(unit)[i]
        amps.append(math.sqrt(per_tone_power / unit_power))
    if sum(amps) > amplitude_budget:
        raise ValueError(f"per-tone power {per_tone_power:g} infeasible")
    x = np.zeros(duration)
    for f, a in zip(CANDIDATES, amps):
        x += a * np.sin(2.0 * np.pi * f * t / sample_rate)
    return np.clip(np.rint(x), -32768, 32767).astype(np.int16)


# ``evaluation.all_frequency_power_sweep(6)`` as the build-based feasibility
# loop gave it, bit for bit.
SWEEP_POWERS = tuple(
    float.fromhex(h)
    for h in (
        "0x1.638e163444bfap+34",
        "0x1.638e163444c06p+35",
        "0x1.638e163444c07p+36",
        "0x1.638e163444beep+37",
        "0x1.638e163444befp+38",
        "0x1.638e163444bfap+39",
    )
)


class TestGuessingReplaySignal:
    def test_output_is_valid_reference_signal(self):
        """Each guess a replay plays is a fresh reference signal: the draw
        ``synthesize(sample_spec(rng))`` from the scenario's generator, ahead
        of its emission time."""
        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (3.0, 0.0))
        out = adv.build_emissions(adv.GuessingReplay(), auth, vouch, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for emission in out:
            sig = synthesize(sample_spec(rng))
            rng.integers(int(0.05 * RECORD_SAMPLES), RECORD_SAMPLES - sig.samples.shape[0] - 1)
            assert 0 < len(sig.frequencies) < BIN_COUNT
            assert np.max(np.abs(sig.samples)) <= AMPLITUDE_BUDGET
            assert sig.total_power == pytest.approx(sum(sig.nominal_power.values()))
            assert np.array_equal(emission.waveform, sig.samples)
        assert len(out) == 2

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
        measured = measure(wave[:4096].astype(float))
        assert np.all(np.abs(measured / target - 1.0) < 0.05)

    def test_thirty_candidate_peaks(self):
        wave = adv.all_frequency_signal(1.0e10, 8192)
        measured = measure(wave[:4096].astype(float))
        assert measured.shape[0] == 30
        assert measured.min() > 0.5e10

    def test_infeasible_power_rejected(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="infeasible"):
                adv.all_frequency_signal(1.0e16, 8192)

    @pytest.mark.parametrize(
        "power, duration",
        [(p, d) for p in (1.0e9, 2.5e10) for d in (8192, 66_149)]
        + [pytest.param(p, RECORD_SAMPLES - 1, id=f"sweep_{i}") for i, p in enumerate(SWEEP_POWERS)],
    )
    def test_memoised_waveform_equals_uncached_build(self, power, duration):
        """The period-repeating build rounds every sample as the sine loop does,
        over the sweep's powers at the campaigns' length too."""
        expected = uncached_all_frequency_signal(power, duration)
        for _ in range(2):
            assert np.array_equal(adv.all_frequency_signal(power, duration), expected)

    def test_shared_waveform_is_read_only(self):
        wave = adv.all_frequency_signal(1.0e10, 8192)
        assert not wave.flags.writeable
        with pytest.raises(ValueError):
            wave[0] = 0

    def test_waveform_build_measures_no_window(self, monkeypatch):
        """The calibration scales from the unit-sine powers measured at
        import: building waveforms measures no window."""
        adv._all_frequency_waveform.cache_clear()
        calls = []
        span_powers = spectrum._sliding_candidate_powers

        def counting(*args, **kwargs):
            calls.append(args)
            return span_powers(*args, **kwargs)

        monkeypatch.setattr(spectrum, "_sliding_candidate_powers", counting)
        first = adv.all_frequency_signal(1.0e10, 8192)
        assert adv.all_frequency_signal(1.0e10, 8192) is first
        adv.all_frequency_signal(2.0e10, 8192)
        assert calls == []

    def test_unit_powers_equal_sine_reference(self):
        """The unit-sine power the calibration reads for each candidate is
        the power measured on one ``np.sin`` wave at it, within 1e-12."""
        got = 1.0 / np.array(adv.all_frequency_amplitudes(1.0)) ** 2
        t = np.arange(4096)
        want = [
            measure(np.sin(2.0 * np.pi * f * t / SAMPLE_RATE))[i]
            for i, f in enumerate(CANDIDATES)
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_power_sweep_matches_uncached_build(self, monkeypatch):
        """The sweep's amplitude check refuses the powers whose waveform
        build refuses them."""
        sweep = ev.all_frequency_power_sweep(6)
        monkeypatch.setattr(adv, "all_frequency_amplitudes", lambda power: uncached_all_frequency_signal(power, 8192))
        assert sweep == ev.all_frequency_power_sweep(6)

    def test_power_sweep_is_pinned(self, monkeypatch):
        """The sweep checks feasibility without building a waveform, and
        finds the powers the build-based loop found, bit for bit."""
        built = []
        monkeypatch.setattr(adv, "all_frequency_signal", lambda *args: built.append(args))
        assert ev.all_frequency_power_sweep(6) == SWEEP_POWERS
        assert built == []

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError):
            adv.all_frequency_signal(1.0e10, 1000)

    @pytest.mark.parametrize("duration", [1, 4000, 4095, 5000.7])
    def test_under_one_window_rejected(self, duration):
        """The waveform must cover one 4096-sample measurement window, in
        whole samples: a fractional duration was once truncated."""
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
            assert detect_own(window, sig, sample_rate=SAMPLE_RATE).peak_norm_power is None

    def test_wrong_guess_window_is_sentinel(self):
        rng = np.random.default_rng(9)
        sig = synthesize(sample_spec(rng))
        guess = synthesize(sample_spec(np.random.default_rng(10)))
        if set(guess.frequencies) == set(sig.frequencies):  # pragma: no cover
            pytest.skip("guess collided (probability ~1e-9)")
        p = detect_own(guess.samples.astype(float), sig, sample_rate=SAMPLE_RATE).peak_norm_power
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
        for count in (2.5, True, 30.0):
            with pytest.raises(ValueError, match=f"^bin_count must be an integer of at least 2, got {count}$"):
                adv.guessing_success_probability(count, 1)

    @pytest.mark.parametrize("signals", [True, False, 1.0], ids=["true", "false", "float"])
    def test_signals_that_are_not_integers_rejected(self, signals):
        """``True == 1`` and ``1.0 == 1``, so a membership test alone would
        take them for one signal."""
        with pytest.raises(ValueError, match=rf"^signals must be 1 or 2, got {signals!r}$"):
            adv.guessing_success_probability(30, signals)

    def test_underflow_edge(self):
        """``1 / (2**1075 - 2)`` rounds up to the smallest subnormal float,
        and from 1076 candidates on the probability is 0.0."""
        assert adv.guessing_success_probability(1075, 1) == math.ulp(0.0) == 5e-324
        assert adv.guessing_success_probability(1075, 2) == 0.0
        assert adv.guessing_success_probability(1076, 1) == 0.0
        assert adv.guessing_success_probability(1073, 1) == 2 * math.ulp(0.0)

    @pytest.mark.parametrize("count", [10**12, np.int64(10**12)], ids=["int", "numpy"])
    def test_huge_count_returns_at_once(self, count):
        """A count whose exact integer would take 125 GB returns 0.0 without
        building it."""
        started = time.perf_counter()
        assert adv.guessing_success_probability(count, 1) == 0.0
        assert time.perf_counter() - started < 1.0

    def test_numpy_count_accepted(self):
        """A numpy integer counts as the same Python integer, past 64 bits too."""
        for count in (30, 2000):
            assert adv.guessing_success_probability(np.int64(count), 2) == adv.guessing_success_probability(count, 2)

    def test_count_past_the_float_range(self):
        """``2**N - 2`` is exact in integers: the probability equals the float
        formula wherever that formula has a float, and is 0.0 beyond it."""
        for count in range(2, 1024):
            assert adv.guessing_success_probability(count, 1) == 1.0 / (2.0**count - 2.0)
        assert adv.guessing_success_probability(2000, 1) == 0.0
        assert adv.guessing_success_probability(2000, 2) == 0.0


class TestScenarios:
    def _devices(self):
        return Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (3.0, 0.0))

    def test_zero_effort_emits_nothing(self):
        out = adv.build_emissions(adv.ZeroEffort(), *self._devices(), np.random.default_rng(0))
        assert out == []

    def test_guessing_replay_plays_near_both_devices(self):
        out = adv.build_emissions(adv.GuessingReplay(), *self._devices(), np.random.default_rng(1))
        assert len(out) == 2
        positions = {e.position for e in out}
        assert (0.3, 0.0) in positions and (3.3, 0.0) in positions

    def test_all_frequency_continuous_spans_scene(self):
        out = adv.build_emissions(adv.AllFrequency(per_tone_power=1e10), *self._devices(), np.random.default_rng(2))
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

        def intruder(auth, vouch, rng):
            emissions.extend(adv.build_emissions(scenario, auth, vouch, rng))
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

    @pytest.mark.parametrize(
        "power", [np.float32(1e9), np.float64(1e9), np.int64(10**9)], ids=["float32", "float64", "int64"]
    )
    def test_all_frequency_numpy_power_accepted(self, power):
        assert adv.AllFrequency(per_tone_power=power).per_tone_power == 1e9

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), 0, -1.0, True, "a"])
    def test_all_frequency_amplitudes_reject_bad_power(self, power):
        """The calibration checks the power itself: nan once gave 30 NaN
        amplitudes, -1.0 a math domain error and a string a ``TypeError``."""
        with pytest.raises(ValueError, match=rf"^per-tone power must be finite and positive, got {power!r}$"):
            adv.all_frequency_amplitudes(power)

    @pytest.mark.parametrize("power", [-1, 0, float("nan"), True, "a"])
    def test_all_frequency_waveform_builder_rejects_bad_power(self, power):
        """The builder checks the power itself, as ``AllFrequency`` does: a
        bool once built a waveform and a string raised ``TypeError``."""
        with pytest.raises(ValueError, match="per-tone power must be finite and positive, got"):
            adv.all_frequency_signal(power, 8192)
