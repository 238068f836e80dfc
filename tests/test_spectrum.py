import numpy as np
import pytest
import scipy.signal

from helpers import (
    direct_bin_power,
    direct_candidate_power,
    exhaustive_detect,
    folded_bins,
    power_spectrum,
    sliding_candidate_powers,
)
from sonicauth import spectrum
from sonicauth.protocol import AuthPolicy, Endpoint, replay_session, run_authentication
from sonicauth.signal import CANDIDATES, SignalSpec, sample_spec, synthesize
from sonicauth.spectrum import (
    DetectionOutcome,
    _batch_candidate_powers,
    _sliding_candidate_powers,
    candidate_bin_table,
    cross_correlate_detect,
    detect,
    detect_pair,
    frequency_bin,
    measure_candidate_powers,
    norm_power,
)

FS = 44_100.0


class TestPowerSpectrum:
    """The rFFT reference the batched kernel is compared against, checked on
    blocks whose spectra are known in closed form."""

    def test_zeros(self):
        powers = power_spectrum(np.zeros(4096))
        assert np.all(powers == 0)
        assert powers.shape == (2049,)

    def test_dc_only(self):
        powers = power_spectrum(np.full(1024, 3.0))
        assert powers[0] == pytest.approx((3.0 * 1024) ** 2)
        assert np.allclose(powers[1:], 0, atol=1e-12)

    def test_exact_bin_sine(self):
        n, k0, amp = 4096, 100, 7.5
        t = np.arange(n)
        w = amp * np.sin(2 * np.pi * k0 * t / n)
        powers = power_spectrum(w)
        assert powers[k0] == pytest.approx((amp * n / 2) ** 2, rel=1e-9)
        others = np.delete(powers, k0)
        assert others.max() < 1e-12 * powers[k0]
        assert powers[k0] == pytest.approx(direct_bin_power(w, k0, n), rel=1e-9)

    def test_non_power_of_two_rejected(self):
        """The detector's measurement takes power-of-two windows only."""
        with pytest.raises(ValueError, match="power of two, got 4095"):
            measure_candidate_powers(np.zeros(4095), FS)

    def test_bin_frequency_mapping(self):
        """Bin k of the reference sits at ``k * f_s / n``: the detector's
        ``frequency_bin`` maps that frequency back to k."""
        powers = power_spectrum(np.sin(2 * np.pi * 1337 * np.arange(4096) / 4096))
        assert int(np.argmax(powers)) == frequency_bin(1337 * FS / 4096, FS, 4096) == 1337


class TestFrequencyBin:
    def test_candidate_above_half_rate(self):
        assert frequency_bin(25_166.67, FS, 4096) == 2337

    def test_dc(self):
        assert frequency_bin(0.0, FS, 4096) == 0

    def test_fold_point_rejected(self):
        with pytest.raises(ValueError):
            frequency_bin(22_050.0, FS, 4096)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            frequency_bin(-1.0, FS, 4096)
        with pytest.raises(ValueError):
            frequency_bin(44_100.0, FS, 4096)


# Recorder rates at the edges of the bin table: at 1e8 Hz every candidate's
# bin window reaches below DC and is clamped there; at 34 840 Hz the last
# candidate sits 7 Hz under the rate, so its window is clamped at the top
# bin before folding.
DC_RATE = 1e8
TOP_RATE = 34_840.0


class TestBinTable:
    def test_indices_stay_in_bounds_for_edge_grids(self):
        """The edge rates reach the clamps at DC and at the top bin, and the
        table stays on the one-sided spectrum."""
        assert frequency_bin(CANDIDATES[0], DC_RATE, 4096) - spectrum.THETA < 0
        assert frequency_bin(CANDIDATES[-1], TOP_RATE, 4096) + spectrum.THETA > 4095
        for rate in (DC_RATE, TOP_RATE):
            table = candidate_bin_table(rate, 4096)
            assert table.min() >= 0
            assert table.max() <= 2048

    def test_folding_matches_mirror(self):
        """The middle column holds each candidate's own bin, folded."""
        table = candidate_bin_table(FS, 4096)
        raw = [frequency_bin(f, FS, 4096) for f in CANDIDATES]
        assert [4096 - r for r in raw] == [int(k[spectrum.THETA]) for k in table]

    @pytest.mark.parametrize("theta", [spectrum.THETA])
    @pytest.mark.parametrize("rate", [FS, DC_RATE, TOP_RATE], ids=["default", "dc", "top"])
    def test_equals_per_candidate_loop(self, rate, theta):
        want = np.array([folded_bins(f, rate, 4096, theta) for f in CANDIDATES])
        table = candidate_bin_table(rate, 4096)
        assert table.dtype == np.intp
        assert np.array_equal(table, want)

    @pytest.mark.parametrize(
        "rate, message",
        [
            (2 * CANDIDATES[3], "fold point"),  # a candidate at half the rate
            (CANDIDATES[-1], "outside"),  # a candidate at the rate
            (30_000.0, "outside"),  # candidates above the rate
        ],
        ids=["twice_a_candidate", "at_a_candidate", "below_a_candidate"],
    )
    def test_candidates_off_the_spectrum_rejected(self, rate, message):
        with pytest.raises(ValueError, match=message):
            candidate_bin_table(rate, 4096)


def _per_window_candidate_powers(x, starts, length, table):
    """Reference for the batched kernel: one full power spectrum per window,
    every bin squared, then each candidate's 2*theta+1 bins added one offset
    after another."""
    spectra = np.stack([power_spectrum(x[s : s + length]) for s in starts])
    gathered = spectra[:, table]
    total = gathered[:, :, 0].copy()
    for offset in range(1, table.shape[1]):
        total += gathered[:, :, offset]
    return total


class TestBatchCandidatePowers:
    """The strided, gather-then-square kernel must equal the per-window
    spectra bit for bit, on every kind of window range a scan asks for."""

    @staticmethod
    def _noise(n, seed):
        return np.clip(np.rint(np.random.default_rng(seed).normal(0.0, 500.0, n)), -32768, 32767)

    @pytest.mark.parametrize(
        "n, starts",
        [
            (30_000, slice(0, 30_000 - 4096 + 1, 1000)),  # coarse scan
            (30_000, slice(9_000, 12_001, 10)),  # step-10 windows inside the recording
            (4096 + 2000, slice(0, 2001, 10)),  # step-10 windows from 0 to max_start
            (4096, slice(0, 1, 1000)),  # recording exactly one signal long: coarse
            (4096, slice(0, 1, 10)),  # and fine
            (4096, slice(0, 1)),  # single window (norm_power, measure_candidate_powers)
            (4096 + 10, slice(0, 11, 10)),  # 2 windows: the smallest multi-window block
            (4096 + 630, slice(0, 631, 10)),  # 64 windows: one full block
            (4096 + 640, slice(0, 641, 10)),  # 65 windows: the last block holds one window
            (4096 + 1280, slice(0, 1281, 10)),  # 129 windows: three blocks, the last of one window
            (4096 + 64, slice(0, 65)),  # 65 adjacent windows: the last block holds one window
        ],
    )
    def test_equals_per_window_loop(self, n, starts):
        x = self._noise(n, seed=n)
        table = candidate_bin_table(FS, 4096)
        windows = range(*starts.indices(n - 4096 + 1))
        got = _batch_candidate_powers(x, starts, 4096, table)
        want = _per_window_candidate_powers(x, windows, 4096, table)
        assert got.shape == want.shape == (len(windows), len(CANDIDATES))
        assert np.array_equal(got, want)
        # summed per window: the same powers up to the order of the additions
        each = [power_spectrum(x[s : s + 4096])[table].sum(axis=1) for s in windows]
        np.testing.assert_allclose(got, each, rtol=1e-14, atol=0)

    def test_scan_clipped_at_both_ends_covers_the_whole_recording(self):
        """The coarse anchor (1000) lies within fine_radius of both ends of a
        2000-start recording, so the fine scan runs from 0 to max_start."""
        sig = synthesize(sample_spec(np.random.default_rng(16)))
        x = _embed(sig, 1234, 2000 - 1234)
        out = detect(x, sig, sample_rate=FS)
        assert out.location is not None and abs(out.location - 1234) <= spectrum.FINE_STEP

    def test_recording_exactly_one_signal_long(self):
        sig = synthesize(sample_spec(np.random.default_rng(17)))
        out = detect(sig.samples.astype(float), sig, sample_rate=FS)
        assert out.location == 0
        assert out.peak_norm_power == norm_power(sig.samples.astype(float), sig, sample_rate=FS)


def _scene_recording(n, seed):
    """A seeded recording of ``n`` samples: office-level noise with one
    reference signal in it."""
    rng = np.random.default_rng(seed)
    sig = synthesize(sample_spec(rng))
    x = rng.normal(0.0, 40.0, n)
    pos = int(rng.integers(0, n - 4096 + 1))
    x[pos : pos + 4096] += float(rng.uniform(0.2, 1.0)) * sig.samples
    return np.rint(x)


class TestSlidingCandidatePowers:
    """The fine scan's sliding DFT reads the same candidate powers as the
    exact rFFT kernel, up to rounding."""

    @pytest.mark.parametrize(
        "n, lo, count, step, rate",
        [
            (30_000, 0, 151, 10, FS),  # clipped at lo = 0: anchor 0
            (4096 + 20_000, 18_000, 201, 10, FS),  # clipped at hi = max_start: the last window ends the recording
            (30_000, 12_345, 1, 10, FS),  # one window
            (30_000, 9_000, 301, 10, FS),  # 301 windows: 300 slides, the last block holds 44
            (30_000, 9_000, 301, 10, FS * 1.001),  # a skewed recorder's bin table
            (30_000, 7_777, 130, 1, FS),  # step 1: 129 slides, the last block holds one
        ],
        ids=["clipped_lo", "clipped_hi", "one_window", "full_partial_block", "skewed_rate", "step_one"],
    )
    def test_equals_rfft_kernel(self, n, lo, count, step, rate):
        x = _scene_recording(n, seed=lo + count)
        table = candidate_bin_table(rate, 4096)
        if rate != FS:
            assert not np.array_equal(table, candidate_bin_table(FS, 4096))
        got = _sliding_candidate_powers(x, lo, count, step, 4096, table)
        want = _batch_candidate_powers(x, slice(lo, lo + (count - 1) * step + 1, step), 4096, table)
        assert got.shape == want.shape == (count, len(CANDIDATES))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestLocatedWindowScore:
    """The fine scan's sliding scores only pick the window. The exact
    one-window kernel scores that window, and its score is both the reported
    peak and the presence verdict."""

    @staticmethod
    def _scored(monkeypatch, x, sigs):
        """(signal, outcome, scored window start, exact score) per detection."""
        scored = []
        exact = spectrum._window_score

        def spy(x, start, sig, table):
            score = exact(x, start, sig, table)
            scored.append((start, score))
            return score

        with monkeypatch.context() as m:
            m.setattr(spectrum, "_window_score", spy)
            outcomes = detect_pair(x, *sigs, sample_rate=FS)
        assert len(scored) == len(sigs)
        return [(sig, out, *s) for sig, out, s in zip(sigs, outcomes, scored)]

    def test_peak_is_norm_power_of_the_located_window(self, monkeypatch):
        """Scenes with the second signal absent, clearly present, or scaled to
        sit near ``EPSILON`` times its total: either way the reported peak is
        ``norm_power`` of the scored window, and presence is that score
        against the threshold."""
        verdicts = []
        for seed in range(12):
            rng = np.random.default_rng(4000 + seed)
            sig_a = synthesize(sample_spec(rng))
            sig_b = synthesize(sample_spec(rng))
            x = rng.normal(0.0, 25.0, 30_000)
            x[3_000 : 3_000 + 4096] += sig_a.samples * rng.uniform(0.1, 1.0)
            if seed % 3 == 1:
                x[18_000 : 18_000 + 4096] += sig_b.samples * 0.6
            elif seed % 3 == 2:  # power scales with the square of the amplitude
                power = spectrum.EPSILON * (0.95, 1.05, 0.99, 1.1)[seed // 3]
                x[18_000 : 18_000 + 4096] += sig_b.samples * np.sqrt(power)
            x = np.rint(x)
            for sig, out, start, score in self._scored(monkeypatch, x, (sig_a, sig_b)):
                assert out.peak_norm_power == (None if score == -np.inf else score)
                assert norm_power(x[start : start + 4096], sig, sample_rate=FS) == out.peak_norm_power
                present = score >= spectrum.EPSILON * sig.total_power
                assert out.location == (start if present else None)
                if sig is sig_b and seed % 3 == 2:
                    verdicts.append(present)
        assert set(verdicts) == {True, False}

    def test_window_failing_a_gate_when_rescored_is_not_present(self, monkeypatch):
        """The stated rule for a sliding score and an exact score that
        disagree: the exact one decides. Here the slide is made to rank the
        scan's first window best, but a loud out-of-set tone in that window
        fails its absence gate, so the signal is not present and has no
        peak."""
        sig = _without_first_candidate()
        x = _embed(sig, 15_000, 10_000)
        t = np.arange(1_400)
        x[13_500:14_900] += 3000.0 * np.sin(2 * np.pi * CANDIDATES[0] * t / FS)
        assert detect(x, sig, sample_rate=FS).location == 15_000
        sliding = spectrum._sliding_candidate_powers

        def first_window_best(x, lo, count, step, length, table):
            powers = sliding(x, lo, count, step, length, table)
            best = int(np.argmax(spectrum._gated_scores(powers, sig)))
            powers[0] = powers[best]
            return powers

        monkeypatch.setattr(spectrum, "_sliding_candidate_powers", first_window_best)
        assert detect(x, sig, sample_rate=FS) == DetectionOutcome(None, None)


def test_sliding_oracle_matches_direct_projections():
    """The test oracle's cumulative-sum demodulation agrees with plain DFT
    projections at the first, an inner and the last window start."""
    x = np.random.default_rng(18).normal(0.0, 500.0, 4096 + 300)
    powers = sliding_candidate_powers(x, CANDIDATES, FS, 4096, spectrum.THETA)
    assert powers.shape == (301, len(CANDIDATES))
    for s in (0, 137, 300):
        want = [direct_candidate_power(x[s:], f, FS, 4096, spectrum.THETA) for f in CANDIDATES]
        np.testing.assert_allclose(powers[s], want, rtol=1e-9)


class TestNormPower:
    def test_clean_signal_close_to_total(self):
        sig = synthesize(sample_spec(np.random.default_rng(0)))
        p = norm_power(sig.samples.astype(float), sig, sample_rate=FS)
        assert p is not None and p >= 0.95 * sig.total_power

    def test_silence_fails_presence_check(self):
        sig = synthesize(sample_spec(np.random.default_rng(1)))
        p = norm_power(np.zeros(4096), sig, sample_rate=FS)
        assert p is None

    def test_all_frequency_window_always_rejected(self):
        """Whatever per-tone power an all-candidate window carries, one of the
        two sanity checks fails."""
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        t = np.arange(4096)
        r_mean = sig.total_power / len(sig.frequencies)
        beta = spectrum.BETA_RATIO * r_mean
        for power_target in np.geomspace(beta / 100, 10 * r_mean, 9):
            amp = np.sqrt(power_target / r_mean) * (32_000 / len(sig.frequencies))
            w = np.zeros(4096)
            for f in CANDIDATES:
                w += amp * np.sin(2 * np.pi * f * t / FS)
            assert norm_power(w, sig, sample_rate=FS) is None

    def test_out_of_set_tone_trips_absence_check(self):
        """A window holding the clean signal plus one loud out-of-set tone is
        rejected by the beta check."""
        sig = _without_first_candidate()
        intruder_f = CANDIDATES[0]
        t = np.arange(4096)
        w = sig.samples.astype(float) + 3000.0 * np.sin(2 * np.pi * intruder_f * t / FS)
        assert norm_power(w, sig, sample_rate=FS) is None

    def test_wrong_length_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(4)))
        with pytest.raises(ValueError):
            norm_power(np.zeros(1000), sig, sample_rate=FS)

    def test_one_rfft_per_call(self, monkeypatch):
        """``norm_power`` takes its window's spectrum once, as the scan does
        for the window it located."""
        sig = synthesize(sample_spec(np.random.default_rng(5)))
        calls = []
        rfft = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        for window in (sig.samples.astype(float), np.zeros(4096)):
            calls.clear()
            norm_power(window, sig, sample_rate=FS)
            assert calls == [(1, 4096)]


def _without_first_candidate():
    """A signal whose tone set leaves out the first candidate."""
    tones = (1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 15, 16, 18, 20, 21, 22, 25)
    return synthesize(SignalSpec(frequencies=tuple(CANDIDATES[i] for i in tones)))


def _embed(sig, pre, post, scale=1.0):
    return np.concatenate([np.zeros(pre), scale * sig.samples.astype(float), np.zeros(post)])


class TestDetect:
    def test_clean_embedding_located(self):
        sig = synthesize(sample_spec(np.random.default_rng(5)))
        x = _embed(sig, 10_000, 10_000)
        out = detect(x, sig, sample_rate=FS)
        assert out.location is not None
        assert abs(out.location - 10_000) <= spectrum.FINE_STEP
        loc, _ = exhaustive_detect(x, sig, FS)
        assert abs(out.location - loc) <= spectrum.FINE_STEP

    def test_white_noise_only_not_present(self):
        sig = synthesize(sample_spec(np.random.default_rng(6)))
        rms = np.sqrt(np.mean(sig.samples.astype(float) ** 2))
        x = np.random.default_rng(7).normal(0.0, rms, 60_000)
        out = detect(x, sig, sample_rate=FS)
        assert out.location is None

    def test_recording_shorter_than_signal(self):
        sig = synthesize(sample_spec(np.random.default_rng(8)))
        with pytest.raises(ValueError):
            detect(np.zeros(1000), sig, sample_rate=FS)

    def test_monotone_rejection_when_scaled_below_epsilon(self):
        sig = synthesize(sample_spec(np.random.default_rng(9)))
        x = _embed(sig, 5_000, 5_000, scale=0.5 * spectrum.EPSILON)
        assert detect(x, sig, sample_rate=FS).location is None

    def test_coarse_to_fine_matches_exhaustive_on_random_scenes(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sig = synthesize(sample_spec(rng))
            pre = int(rng.integers(0, 12_000))
            x = _embed(sig, pre, 18_000 - pre, scale=float(rng.uniform(0.2, 1.0)))
            x += rng.normal(0.0, 40.0, x.shape[0])
            got = detect(x, sig, sample_rate=FS)
            want_loc, _ = exhaustive_detect(x, sig, FS)
            assert got.location is not None and want_loc is not None
            assert abs(got.location - want_loc) <= spectrum.FINE_STEP


class TestDetectPair:
    def test_two_signals_located(self):
        rng = np.random.default_rng(11)
        sig_a = synthesize(sample_spec(rng))
        sig_b = synthesize(sample_spec(rng))
        x = np.zeros(45_000)
        x[10_000 : 10_000 + 4096] = sig_a.samples
        x[30_000 : 30_000 + 4096] = sig_b.samples
        out_a, out_b = detect_pair(x, sig_a, sig_b, sample_rate=FS)
        assert abs(out_a.location - 10_000) <= spectrum.FINE_STEP
        assert abs(out_b.location - 30_000) <= spectrum.FINE_STEP

    def test_only_first_present(self):
        rng = np.random.default_rng(12)
        sig_a = synthesize(sample_spec(rng))
        others = tuple(f for f in CANDIDATES if f not in sig_a.frequencies)
        sig_b = synthesize(SignalSpec(frequencies=others))
        x = _embed(sig_a, 8_000, 20_000)
        out_a, out_b = detect_pair(x, sig_a, sig_b, sample_rate=FS)
        assert out_a.location is not None
        assert out_b.location is None

    def test_equivalent_to_two_detect_calls(self):
        """Paired scan must be bit-identical to independent scans, across
        random scenes with zero, one or two signals present."""
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            sig_a = synthesize(sample_spec(rng))
            sig_b = synthesize(sample_spec(rng))
            x = rng.normal(0.0, 25.0, 30_000)
            mode = seed % 3
            if mode >= 1:
                pos_a = int(rng.integers(0, 10_000))
                x[pos_a : pos_a + 4096] += sig_a.samples * rng.uniform(0.1, 1.0)
            if mode == 2:
                pos_b = int(rng.integers(14_000, 24_000))
                x[pos_b : pos_b + 4096] += sig_b.samples * rng.uniform(0.1, 1.0)
            pair = detect_pair(x, sig_a, sig_b, sample_rate=FS)
            singles = (detect(x, sig_a, sample_rate=FS), detect(x, sig_b, sample_rate=FS))
            assert pair == singles


class TestCrossCorrelate:
    def test_exact_copy_found_exactly(self):
        sig = synthesize(sample_spec(np.random.default_rng(13)))
        x = _embed(sig, 10_000, 10_000)
        assert cross_correlate_detect(x, sig) == 10_000

    def test_inverted_copy_misses(self):
        sig = synthesize(sample_spec(np.random.default_rng(14)))
        x = _embed(sig, 10_000, 10_000, scale=-1.0)
        assert cross_correlate_detect(x, sig) != 10_000

    def test_short_recording_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(15)))
        with pytest.raises(ValueError):
            cross_correlate_detect(np.zeros(100), sig)

    @pytest.mark.parametrize("distance", [0.5, 1.5])
    def test_argmax_equals_scipy_correlate(self, office_cfg, distance):
        """On the recordings of seeded xcorr sessions, the rFFT correlation
        locates every signal where ``scipy.signal.correlate`` peaks."""
        for seed in range(4):
            _, transcript = run_authentication(
                Endpoint("auth", (0.0, 0.0)),
                Endpoint("vouch", (distance, 0.0)),
                AuthPolicy(),
                np.random.default_rng(seed),
                office_cfg,
                detector="xcorr",
            )
            sig_a, sig_v, rec_a, rec_v = replay_session(transcript, office_cfg)
            for rec in (rec_a, rec_v):
                for sig in (sig_a, sig_v):
                    x = rec.samples.astype(np.float64)
                    want = scipy.signal.correlate(x, sig.samples.astype(np.float64), mode="valid")
                    assert cross_correlate_detect(rec.samples, sig) == int(np.argmax(want))


class TestDetectionConstants:
    def test_constants_satisfy_the_invariants(self):
        """Gates in (0, 1) with the peak threshold at most the presence one,
        beta below the presence gate (the all-frequency spoofing guard), and a
        fine scan that steps no wider than the coarse one and covers at least
        one coarse step either side."""
        assert 0.0 < spectrum.EPSILON <= spectrum.ALPHA < 1.0
        assert 0.0 < spectrum.BETA_RATIO < spectrum.ALPHA
        assert spectrum.THETA >= 0
        assert spectrum.COARSE_STEP >= spectrum.FINE_STEP >= 1
        assert spectrum.FINE_RADIUS >= spectrum.COARSE_STEP
