import re
import warnings

import numpy as np
import pytest
import scipy.signal

from helpers import (
    batch_candidate_powers,
    detect_own,
    direct_bin_power,
    direct_candidate_power,
    exhaustive_detect,
    folded_bins,
    per_span_detect_pair,
    per_span_sliding_powers,
    power_spectrum,
    sliding_candidate_powers,
    traced_peak,
)
from sonicauth import adversary as adv
from sonicauth import evaluation as ev
from sonicauth import spectrum
from sonicauth.protocol import (
    PLAYBACK_START_S,
    AuthPolicy,
    Endpoint,
    _own_span,
    _partner_lags,
    _to_samples,
    replay_session,
    run_authentication,
)
from sonicauth.signal import CANDIDATES, SignalSpec, sample_spec, synthesize
from sonicauth.spectrum import (
    DetectionOutcome,
    _sliding_candidate_powers,
    candidate_bin_table,
    cross_correlate_detect,
    detect_pair,
    frequency_bin,
)

FS = 44_100.0

# The own span of a signal played at 3 000, as a session widens it: the start
# jitter and the tolerance either side.
OWN_SPAN = (2_760, 3_240)


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

    def test_bin_frequency_mapping(self):
        """Bin k of the reference sits at ``k * f_s / n``: the detector's
        ``frequency_bin`` maps that frequency back to k."""
        powers = power_spectrum(np.sin(2 * np.pi * 1337 * np.arange(4096) / 4096))
        assert int(np.argmax(powers)) == frequency_bin(1337 * FS / 4096, FS) == 1337


class TestFrequencyBin:
    def test_candidate_above_half_rate(self):
        assert frequency_bin(25_166.67, FS) == 2337

    def test_dc(self):
        assert frequency_bin(0.0, FS) == 0

    def test_fold_point_rejected(self):
        with pytest.raises(ValueError):
            frequency_bin(22_050.0, FS)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            frequency_bin(-1.0, FS)
        with pytest.raises(ValueError):
            frequency_bin(44_100.0, FS)

    def test_nan_frequency_named(self):
        with pytest.raises(ValueError, match=r"^freq nan outside \[0, sample_rate\)"):
            frequency_bin(float("nan"), FS)

    @pytest.mark.parametrize("freq", ["a", None, True], ids=["string", "none", "bool"])
    def test_non_number_frequency_named(self, freq):
        with pytest.raises(ValueError, match=rf"^freq must be a real number, got {re.escape(repr(freq))}$"):
            frequency_bin(freq, FS)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -44_100.0])
    def test_bad_sample_rate_named(self, rate):
        with pytest.raises(ValueError, match=rf"^sample_rate must be finite and positive, got {rate}$"):
            frequency_bin(1000.0, rate)


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
        assert frequency_bin(CANDIDATES[0], DC_RATE) - spectrum.THETA < 0
        assert frequency_bin(CANDIDATES[-1], TOP_RATE) + spectrum.THETA > 4095
        for rate in (DC_RATE, TOP_RATE):
            table = candidate_bin_table(rate)
            assert table.min() >= 0
            assert table.max() <= 2048

    def test_folding_matches_mirror(self):
        """The middle column holds each candidate's own bin, folded."""
        table = candidate_bin_table(FS)
        raw = [frequency_bin(f, FS) for f in CANDIDATES]
        assert [4096 - r for r in raw] == [int(k[spectrum.THETA]) for k in table]

    @pytest.mark.parametrize("theta", [spectrum.THETA])
    @pytest.mark.parametrize("rate", [FS, DC_RATE, TOP_RATE], ids=["default", "dc", "top"])
    def test_equals_per_candidate_loop(self, rate, theta):
        want = np.array([folded_bins(f, rate, 4096, theta) for f in CANDIDATES])
        table = candidate_bin_table(rate)
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
            candidate_bin_table(rate)


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
    """The batched rFFT reference, a gather-then-square kernel over strided
    blocks of windows, must equal the per-window spectra bit for bit, on
    every kind of window range."""

    @staticmethod
    def _noise(n, seed):
        return np.clip(np.rint(np.random.default_rng(seed).normal(0.0, 500.0, n)), -32768, 32767)

    @pytest.mark.parametrize(
        "n, starts",
        [
            (30_000, slice(0, 30_000 - 4096 + 1, 1000)),  # evenly spaced windows over the whole recording
            (30_000, slice(9_000, 12_001, 10)),  # step-10 windows inside the recording
            (4096 + 2000, slice(0, 2001, 10)),  # step-10 windows from 0 to max_start
            (4096, slice(0, 1, 1000)),  # recording exactly one signal long: a wide step
            (4096, slice(0, 1, 10)),  # and a search's
            (4096, slice(0, 1)),  # single window (a synthesizer's measurement)
            (4096 + 10, slice(0, 11, 10)),  # 2 windows: the smallest multi-window block
            (4096 + 630, slice(0, 631, 10)),  # 64 windows: one full block
            (4096 + 640, slice(0, 641, 10)),  # 65 windows: the last block holds one window
            (4096 + 1280, slice(0, 1281, 10)),  # 129 windows: three blocks, the last of one window
            (4096 + 64, slice(0, 65)),  # 65 adjacent windows: the last block holds one window
        ],
    )
    def test_equals_per_window_loop(self, n, starts):
        x = self._noise(n, seed=n)
        table = candidate_bin_table(FS)
        windows = range(*starts.indices(n - 4096 + 1))
        got = batch_candidate_powers(x, starts, table)
        want = _per_window_candidate_powers(x, windows, 4096, table)
        assert got.shape == want.shape == (len(windows), len(CANDIDATES))
        assert np.array_equal(got, want)
        # summed per window: the same powers up to the order of the additions
        each = [power_spectrum(x[s : s + 4096])[table].sum(axis=1) for s in windows]
        np.testing.assert_allclose(got, each, rtol=1e-14, atol=0)

    def test_scan_clipped_at_both_ends_covers_the_whole_recording(self):
        """A search over the whole of a 2000-start recording runs from 0 to
        max_start and finds the signal at 1234."""
        sig = synthesize(sample_spec(np.random.default_rng(16)))
        x = _embed(sig, 1234, 2000 - 1234)
        out = detect_own(x, sig, sample_rate=FS)
        assert out.location is not None and abs(out.location - 1234) <= spectrum.FINE_STEP

    def test_recording_exactly_one_signal_long(self):
        sig = synthesize(sample_spec(np.random.default_rng(17)))
        x = sig.samples.astype(float)
        out = detect_own(x, sig, sample_rate=FS)
        assert out.location == 0
        assert out.peak_norm_power == spectrum._window_score(x, 0, spectrum._gate(sig), FS)


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
        "n, lo, count, rate",
        [
            (30_000, 0, 151, FS),  # clipped at lo = 0: the first window starts the recording
            (4096 + 20_000, 18_000, 201, FS),  # clipped at hi = max_start: the last window ends the recording
            (30_000, 12_345, 1, FS),  # one window
            (30_000, 9_000, 301, FS),  # a long span, 301 windows: 300 slides, the last block holds 44
            (30_000, 9_000, 301, FS * 1.001),  # a skewed recorder's bin table
            (30_000, 7_777, 130, FS),  # 129 slides: the last block holds one
        ],
        ids=["clipped_lo", "clipped_hi", "one_window", "full_partial_block", "skewed_rate", "one_slide_last_block"],
    )
    def test_equals_rfft_kernel(self, n, lo, count, rate):
        x = _scene_recording(n, seed=lo + count)
        table = candidate_bin_table(rate)
        if rate != FS:
            assert not np.array_equal(table, candidate_bin_table(FS))
        got = _sliding_candidate_powers(x, lo, count, rate)
        want = batch_candidate_powers(x, slice(lo, lo + (count - 1) * spectrum.FINE_STEP + 1, spectrum.FINE_STEP), table)
        assert got.shape == want.shape == (count, len(CANDIDATES))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestSingleSpanSlidingPass:
    """The fine pass computes its span's powers as the per-span sliding DFT
    does, bit for bit: the same matmul per block, the same phase product, and
    a row-by-row running sum that adds each bin in the order ``np.cumsum``
    does."""

    @pytest.mark.parametrize(
        "lo, count, rate",
        [
            (0, 151, FS),  # clipped at lo = 0: the first window starts the recording
            (23_500, 241, FS),  # clipped at max_start 25 904: the last window starts at 25 900
            (9_000, 301, FS),  # a long span, 301 windows: 300 slides, the last block holds 44
            (11_000, 137, FS),  # a partner's gap window
            (8_500, 301, FS * 1.001),  # a skewed recorder's bin table
        ],
        ids=["clipped_lo", "clipped_hi", "full_span", "gap_window", "skewed_rate"],
    )
    def test_equals_per_span_reference(self, lo, count, rate):
        x = _scene_recording(30_000, seed=lo + count)
        got = _sliding_candidate_powers(x, lo, count, rate)
        want = per_span_sliding_powers(x, lo, count, rate)
        assert got.shape == want.shape == (count, len(CANDIDATES))
        assert np.array_equal(got, want)

    def test_traced_peak_of_a_full_span(self):
        """The pass squares each block's powers in its own slide buffer, so a
        301-window span's scratch stays under 650 KB (616 KB measured): the
        slide buffer (about 343 KB), the powers it returns (72 KB), the span's
        slides, the first window's rFFT and a block's phase products, with no
        power buffers beside them. Two stacked spans took 1.07 MB."""
        x = _scene_recording(30_000, seed=29)
        assert traced_peak(lambda: _sliding_candidate_powers(x, 2_000, 301, FS)) < 650_000


class TestSpansInSequence:
    """Spans of one recording passed one after another, as ``detect_pair``
    passes its own span and then its partner's, each get the per-span
    sliding DFT's powers bit for bit, whatever their lengths and order: the
    passes share only the cached, read-only slide phases and phased block
    projections, which the first pass builds, and no pass's powers change
    when a later pass runs."""

    @pytest.mark.parametrize(
        "spans",
        [
            [(12_345, 1)],  # one window, no slide
            [(12_345, 1), (9_000, 301)],  # a one-window span before a long one
            [(9_000, 301), (2_000, 66)],  # the shorter span's last block holds one slide
            [(2_000, 66), (15_000, 301)],  # the same, with the shorter span first
            [(2_000, 66), (15_000, 66)],  # both spans' last blocks hold one slide
        ],
        ids=[
            "one_window",
            "one_window_beside_full",
            "one_slide_block",
            "one_slide_block_first",
            "one_slide_last_block",
        ],
    )
    def test_equals_per_span_reference(self, spans):
        x = _scene_recording(30_000, seed=sum(lo + count for lo, count in spans))
        spectrum._slide_phases.cache_clear()
        spectrum._block_phases.cache_clear()
        got = [_sliding_candidate_powers(x, lo, count, FS) for lo, count in spans]
        for (lo, count), powers in zip(spans, got):
            want = per_span_sliding_powers(x, lo, count, FS)
            assert powers.shape == want.shape == (count, len(CANDIDATES))
            assert np.array_equal(powers, want)


class TestOneWindowSpan:
    """A one-window span, the exact measurement behind the synthesizer's
    nominal powers, the spoofer's calibration and the reported peak, equals
    the batched rFFT reference's row for that window, bit for bit."""

    def test_candidate_sine_equals_direct_projections(self):
        """A sine at a candidate's frequency: every candidate's power equals
        its folded bins' direct projections, and its own candidate holds the
        most power."""
        i, amp = 11, 7.5
        x = amp * np.sin(2 * np.pi * CANDIDATES[i] * np.arange(4096) / FS)
        powers = _sliding_candidate_powers(x, 0, 1, FS)[0]
        want = [direct_candidate_power(x, f, FS, 4096, spectrum.THETA) for f in CANDIDATES]
        np.testing.assert_allclose(powers, want, rtol=1e-9, atol=1e-6)
        assert int(np.argmax(powers)) == i

    @pytest.mark.parametrize("rate", [FS, FS * 1.001], ids=["nominal", "skewed"])
    def test_equals_batched_kernel(self, rate):
        x = _scene_recording(30_000, seed=25)
        table = candidate_bin_table(rate)
        starts = np.random.default_rng(26).integers(0, 30_000 - 4096 + 1, 500)
        for s in starts:
            got = _sliding_candidate_powers(x, s, 1, rate)[0]
            want = batch_candidate_powers(x, slice(s, s + 1), table)[0]
            assert np.array_equal(got, want)


class TestLocatedWindowScore:
    """The fine scan's sliding scores only pick the window. A one-window
    span rescores that window exactly, and its score is both the reported
    peak and the presence verdict."""

    @staticmethod
    def _scored(monkeypatch, x, sigs):
        """(signal, outcome, scored window start, exact score) per searched
        signal, the own one at about 3 000. The partner of an absent own
        signal is not searched: it is absent with no peak, and left out. A
        searched signal whose every window fails a gate is not rescored: it
        is absent with no peak, and scored here as the pick it would have
        rescored, its span's first window, at -inf."""
        gates, scored = [], {}
        make_gate, exact = spectrum._gate, spectrum._window_score

        def gate_spy(sig):
            gates.append(make_gate(sig))
            return gates[-1]

        def spy(x, start, gate, sample_rate):
            score = exact(x, start, gate, sample_rate)
            scored[id(gate)] = (start, score)
            return score

        with monkeypatch.context() as m:
            m.setattr(spectrum, "_gate", gate_spy)
            m.setattr(spectrum, "_window_score", spy)
            outcomes = detect_pair(x, *sigs, sample_rate=FS, own_span=OWN_SPAN, partner_lags=(13_500, 16_500))
        assert len(gates) == (1 if outcomes[0].location is None else 2)
        if len(gates) == 1:
            assert outcomes[1] == DetectionOutcome(None, None)
        firsts = (OWN_SPAN[0], (outcomes[0].location or 0) + 13_500)  # each span's first window, on the grid
        return [
            (sig, out, *scored.get(id(gate), (first, -np.inf)))
            for sig, out, gate, first in zip(sigs, outcomes, gates, firsts)
        ]

    def test_peak_is_norm_power_of_the_located_window(self, monkeypatch):
        """Scenes with the second signal absent, clearly present, or scaled to
        sit near ``EPSILON`` times its total: either way the reported peak is
        the exact score of the scored window, the peak a scan of that window
        alone reports, and presence is that score against the threshold."""
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
                window = x[start : start + 4096]
                assert detect_own(window, sig, sample_rate=FS).peak_norm_power == out.peak_norm_power
                present = score >= spectrum.EPSILON * sig.total_power
                assert out.location == (start if present else None)
                if sig is sig_b and seed % 3 == 2:
                    verdicts.append(present)
        assert set(verdicts) == {True, False}

    def test_window_failing_a_gate_when_rescored_is_not_present(self, monkeypatch):
        """The stated rule for a sliding score and an exact score that
        disagree: the exact one decides. Here the slide is made to rank the
        span's first window, at 13 500, best, but a loud out-of-set tone in
        that window fails its absence gate, so the signal is not present and
        has no peak, and its partner is not searched."""
        sig = _without_first_candidate()
        x = _embed(sig, 15_000, 10_000)
        t = np.arange(1_400)
        x[13_500:14_900] += 3000.0 * np.sin(2 * np.pi * CANDIDATES[0] * t / FS)
        assert detect_own(x, sig, sample_rate=FS).location == 15_000
        sliding = spectrum._sliding_candidate_powers

        def first_window_best(x, lo, count, sample_rate):
            """The span's best window moved to its first row: both signals
            are ``sig``."""
            powers = sliding(x, lo, count, sample_rate)
            powers[0] = powers[int(np.argmax(spectrum._gated_scores(powers, spectrum._gate(sig))))]
            return powers

        monkeypatch.setattr(spectrum, "_sliding_candidate_powers", first_window_best)
        absent = DetectionOutcome(None, None)
        outcomes = detect_pair(x, sig, sig, sample_rate=FS, own_span=(13_500, 16_500), partner_lags=(0, 0))
        assert outcomes == (absent, absent)

    @pytest.mark.parametrize("scene", ["noise", "loud_out_of_set_tone"])
    def test_span_failing_every_gate_takes_one_rfft(self, monkeypatch, scene):
        """A span whose every window fails a gate is absent with no peak
        after its one rFFT, and is not rescored: its pick would be its first
        window, whose exact score, row 0 of the span, is -inf. In noise alone
        every window fails the presence gate; with the signal played under a
        loud out-of-set tone, the absence gate."""
        sig = _without_first_candidate()
        rng = np.random.default_rng(2808)
        x = rng.normal(0.0, 25.0, 30_000)
        if scene == "loud_out_of_set_tone":
            x += _embed(sig, 15_000, 10_904) + 3000.0 * np.sin(2 * np.pi * CANDIDATES[0] * np.arange(30_000) / FS)
        x = np.rint(x)
        scores = spectrum._gated_scores(_sliding_candidate_powers(x, 13_500, 301, FS), spectrum._gate(sig))
        assert np.all(scores == -np.inf)
        shapes, rescored = [], []
        rfft, exact = np.fft.rfft, spectrum._window_score

        def counting(*args, **kwargs):
            shapes.append(args[0].shape)
            return rfft(*args, **kwargs)

        def spy(*args):
            rescored.append(args[1])
            return exact(*args)

        monkeypatch.setattr(np.fft, "rfft", counting)
        monkeypatch.setattr(spectrum, "_window_score", spy)
        outcomes = detect_pair(x, sig, sig, sample_rate=FS, own_span=(13_500, 16_500), partner_lags=(0, 0))
        assert outcomes == (DetectionOutcome(None, None),) * 2
        assert shapes == [(4096,)]
        assert rescored == []


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
    """The normalized power of one signal-long window: the peak a scan of
    that window alone reports, None where a sanity check fails."""

    def test_clean_signal_close_to_total(self):
        sig = synthesize(sample_spec(np.random.default_rng(0)))
        p = detect_own(sig.samples.astype(float), sig, sample_rate=FS).peak_norm_power
        assert p is not None and p >= 0.95 * sig.total_power

    def test_silence_fails_presence_check(self):
        sig = synthesize(sample_spec(np.random.default_rng(1)))
        p = detect_own(np.zeros(4096), sig, sample_rate=FS).peak_norm_power
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
            assert detect_own(w, sig, sample_rate=FS).peak_norm_power is None

    def test_out_of_set_tone_trips_absence_check(self):
        """A window holding the clean signal plus one loud out-of-set tone is
        rejected by the beta check."""
        sig = _without_first_candidate()
        intruder_f = CANDIDATES[0]
        t = np.arange(4096)
        w = sig.samples.astype(float) + 3000.0 * np.sin(2 * np.pi * intruder_f * t / FS)
        assert detect_own(w, sig, sample_rate=FS).peak_norm_power is None

    def test_wrong_length_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(4)))
        with pytest.raises(ValueError):
            detect_pair(np.zeros(1000), sig, sig, sample_rate=FS, own_span=(0, 0), partner_lags=(0, 0))


class TestDetectorInputs:
    """A recording or rate the detector cannot measure fails at once
    with a ValueError that names the problem, and no numpy warning leaks."""

    @staticmethod
    def _entry_points(x, rate):
        sig = synthesize(sample_spec(np.random.default_rng(30)))
        return (
            lambda: detect_pair(x, sig, sig, sample_rate=rate, own_span=(0, 0), partner_lags=(0, 0)),
            lambda: detect_pair(x[:4096], sig, sig, sample_rate=rate, own_span=(0, 0), partner_lags=(0, 0)),
        )

    def _rejected(self, x, rate, message):
        for call in self._entry_points(x, rate):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    call()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, value):
        x = np.zeros(20_000)
        x[100] = value
        self._rejected(x, FS, rf"non-finite sample, {value} at index 100")

    def test_complex_recording(self):
        self._rejected(np.zeros(20_000, dtype=complex), FS, "real samples, got dtype complex128")

    # The messages quote the highest candidate as the detector prints it.
    HIGHEST = re.escape(f"{max(CANDIDATES):.2f} Hz")

    @pytest.mark.parametrize(
        "rate", [np.nan, np.inf, 1_000.0, pytest.param(max(CANDIDATES), id="highest"), 0.0, -FS]
    )
    def test_rate_not_finite_or_not_above_every_candidate(self, rate):
        self._rejected(np.zeros(20_000), rate, f"must be finite and above the highest candidate, {self.HIGHEST}")

    @pytest.mark.parametrize("rate", ["a", [FS], None], ids=["string", "list", "none"])
    def test_rate_that_is_not_a_number(self, rate):
        """Named by the scan before the bin table's cache hashes the rate (a
        list) or its check compares it."""
        got = re.escape(repr(rate))
        message = rf"^sample_rate must be finite and above the highest candidate, {self.HIGHEST}, got {got}: "
        self._rejected(np.zeros(8192), rate, message)


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
        out = detect_own(x, sig, sample_rate=FS)
        assert out.location is not None
        assert abs(out.location - 10_000) <= spectrum.FINE_STEP
        loc, _ = exhaustive_detect(x, sig, FS)
        assert abs(out.location - loc) <= spectrum.FINE_STEP

    def test_white_noise_only_not_present(self):
        sig = synthesize(sample_spec(np.random.default_rng(6)))
        rms = np.sqrt(np.mean(sig.samples.astype(float) ** 2))
        x = np.random.default_rng(7).normal(0.0, rms, 60_000)
        out = detect_own(x, sig, sample_rate=FS)
        assert out.location is None

    def test_recording_shorter_than_signal(self):
        sig = synthesize(sample_spec(np.random.default_rng(8)))
        with pytest.raises(ValueError):
            detect_pair(np.zeros(1000), sig, sig, sample_rate=FS, own_span=(0, 0), partner_lags=(0, 0))

    def test_monotone_rejection_when_scaled_below_epsilon(self):
        sig = synthesize(sample_spec(np.random.default_rng(9)))
        x = _embed(sig, 5_000, 5_000, scale=0.5 * spectrum.EPSILON)
        assert detect_own(x, sig, sample_rate=FS).location is None

    def test_whole_recording_span_matches_exhaustive_on_random_scenes(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sig = synthesize(sample_spec(rng))
            pre = int(rng.integers(0, 12_000))
            x = _embed(sig, pre, 18_000 - pre, scale=float(rng.uniform(0.2, 1.0)))
            x += rng.normal(0.0, 40.0, x.shape[0])
            got = detect_own(x, sig, sample_rate=FS)
            want_loc, _ = exhaustive_detect(x, sig, FS)
            assert got.location is not None and want_loc is not None
            assert abs(got.location - want_loc) <= spectrum.FINE_STEP


def _fine_spans(monkeypatch):
    """The ``(lo, count)`` span of each fine pass, one per call."""
    calls = []
    sliding = spectrum._sliding_candidate_powers

    def spy(x, lo, count, sample_rate):
        calls.append((lo, count))
        return sliding(x, lo, count, sample_rate)

    monkeypatch.setattr(spectrum, "_sliding_candidate_powers", spy)
    return calls


class TestOwnSpan:
    """The own signal is searched only at the grid windows of its span, and
    the partner of an absent own signal is not searched at all: it is absent
    with no peak."""

    def test_campaign_recordings_match_the_per_span_detector(self, monkeypatch):
        """Guessing-replay, all-frequency, crowded and office recordings, with
        the span and lags each session passed, give the per-span reference
        detector's outcomes; some of their own signals are absent, and so
        are those signals' partners. Each attack recording holds a searched
        span whose every window fails a gate, which the detector does not
        rescore and the reference does."""
        recordings = []
        scan = spectrum.detect_pair

        def spy(x, own, partner, *, sample_rate, own_span, partner_lags):
            recordings.append((x, own, partner, sample_rate, own_span, partner_lags))
            return scan(x, own, partner, sample_rate=sample_rate, own_span=own_span, partner_lags=partner_lags)

        with monkeypatch.context() as m:
            m.setattr(spectrum, "detect_pair", spy)
            ev.attack_campaign(adv.GuessingReplay(), 2, 2801)
            ev.attack_campaign(adv.AllFrequency(per_tone_power=1.0e11), 2, 2802)
            ev.multiuser_campaign(3, (0.5,), 1, 2803, min_trials=1)
            ev.distance_error_campaign("office", (0.5, 1.5), 1, 2804, min_trials=1)
        rescored = []
        exact = spectrum._window_score

        def counting(*args):
            rescored.append(args[1])
            return exact(*args)

        monkeypatch.setattr(spectrum, "_window_score", counting)
        absent_own, unrescored = 0, []
        for x, own, partner, rate, span, lags in recordings:
            want = per_span_detect_pair(x, own, partner, rate, span, lags)
            rescored.clear()
            assert detect_pair(x, own, partner, sample_rate=rate, own_span=span, partner_lags=lags) == want
            absent_own += want[0].location is None
            unrescored.append(1 + (want[0].location is not None) - len(rescored))  # of the searched spans
        assert absent_own > 0
        assert all(unrescored[:8])  # the two attack campaigns' 8 recordings

    def test_absent_own_signal_leaves_the_partner_unsearched(self, monkeypatch):
        """With no own signal in its span, the partner is absent with no
        peak after one sliding pass, the own span's: noise alone, and a
        partner played where its lags from the span would find it."""
        rng = np.random.default_rng(2805)
        sig_a, sig_b = synthesize(sample_spec(rng)), synthesize(sample_spec(rng))
        noise = np.rint(rng.normal(0.0, 25.0, 30_000))
        x = noise.copy()
        x[12_000 : 12_000 + 4096] += sig_b.samples
        calls = _fine_spans(monkeypatch)
        for recording in (noise, x):
            calls.clear()
            out_a, out_b = detect_pair(
                recording, sig_a, sig_b, sample_rate=FS, own_span=OWN_SPAN, partner_lags=(8_815, 10_118)
            )
            assert out_a.location is None and out_b == DetectionOutcome(None, None)
            assert calls == [(2_760, 49)]
        found = detect_pair(x, sig_b, sig_a, sample_rate=FS, own_span=(11_760, 12_240), partner_lags=(0, 0))[0]
        assert found.location == 12_000

    @pytest.mark.parametrize("span", [(26_000, 27_000), (-500, -1), (25_905, 25_909)])
    def test_own_span_outside_the_recording(self, monkeypatch, span):
        """A span with no grid window that fits the 30 000-sample recording
        (windows start at 0 to 25 904) gives two absent outcomes with no
        peak, and runs no sliding pass, though both signals are in it."""
        x, own, partner = TestPartnerWindow._scene(12_000)
        calls = _fine_spans(monkeypatch)
        absent = DetectionOutcome(None, None)
        outcomes = detect_pair(x, own, partner, sample_rate=FS, own_span=span, partner_lags=(8_815, 10_118))
        assert outcomes == (absent, absent)
        assert calls == []

    def test_span_clipped_at_the_recording(self, monkeypatch):
        """A span that reaches past either end keeps the grid windows that
        fit: the own signal at 3 000 of a 30 000-sample recording is found
        from a span over it all and beyond, one pass of 2 591 windows, then
        rescored as a one-window span."""
        x, own, partner = TestPartnerWindow._scene(12_000)
        calls = _fine_spans(monkeypatch)
        out_own, out_partner = detect_pair(
            x, own, partner, sample_rate=FS, own_span=(-5_000, 40_000), partner_lags=(8_815, 10_118)
        )
        assert (out_own.location, out_partner.location) == (3_000, 12_000)
        assert calls == [(0, 2_591), (3_000, 1), (11_820, 130), (12_000, 1)]

    @pytest.mark.parametrize("span", [(0,), (1, 0), (0.5, 10), [0, 10], (True, 10), "ab", None])
    def test_malformed_own_span_rejected(self, monkeypatch, span):
        """The own span passes the one check the lags pass too, whose
        message names it; the lags are not checked after it fails."""
        x, own, partner = TestPartnerWindow._scene(12_000)
        names, check = [], spectrum._check_span

        def spy(value, name):
            names.append(name)
            check(value, name)

        monkeypatch.setattr(spectrum, "_check_span", spy)
        with pytest.raises(ValueError, match=r"^own_span must be two integers \(lo, hi\) with lo <= hi, got "):
            detect_pair(x, own, partner, sample_rate=FS, own_span=span, partner_lags=(8_815, 10_118))
        assert names == ["own_span"]


class TestPartnerWindow:
    """Once the own signal is present, the partner is searched only at the
    grid windows of its lags; the own signal's outcome never depends on
    them."""

    @staticmethod
    def _scene(partner_at):
        """Office-level noise with a signal at 3 000, inside ``OWN_SPAN``,
        and, at ``partner_at``, another."""
        rng = np.random.default_rng(2806)
        own, partner = synthesize(sample_spec(rng)), synthesize(sample_spec(rng))
        x = rng.normal(0.0, 25.0, 30_000)
        x[3_000 : 3_000 + 4096] += own.samples
        x[partner_at : partner_at + 4096] += partner.samples
        return np.rint(x), own, partner

    def test_span_is_the_grid_windows_of_the_lags(self, monkeypatch):
        """Lags of 8 815 to 10 118 from the own signal at 3 000 give the grid
        windows 11 820 to 13 110: one 130-window span, after the own span's
        49 windows from 2 760 to 3 240, each span's pick rescored as a
        one-window span."""
        x, own, partner = self._scene(12_000)
        calls = _fine_spans(monkeypatch)
        out_own, out_partner = detect_pair(
            x, own, partner, sample_rate=FS, own_span=OWN_SPAN, partner_lags=(8_815, 10_118)
        )
        assert (out_own.location, out_partner.location) == (3_000, 12_000)
        assert calls == [(2_760, 49), (3_000, 1), (11_820, 130), (12_000, 1)]

    def test_partner_outside_its_lags_is_absent(self, monkeypatch):
        """The same partner, searched 5 000 samples past its lag, is absent
        with no peak, and so is one whose lags leave the recording: those
        run no fine pass for it, only the own span's and its rescoring."""
        x, own, partner = self._scene(12_000)
        calls = _fine_spans(monkeypatch)
        absent = DetectionOutcome(None, None)
        out_own, out_partner = detect_pair(
            x, own, partner, sample_rate=FS, own_span=OWN_SPAN, partner_lags=(14_000, 15_000)
        )
        assert out_own.location == 3_000 and out_partner.location is None
        for lags in ((25_000, 26_000), (-9_000, -3_001)):
            calls.clear()
            outcomes = detect_pair(x, own, partner, sample_rate=FS, own_span=OWN_SPAN, partner_lags=lags)
            assert outcomes == (out_own, absent)
            assert calls == [(2_760, 49), (3_000, 1)]

    def test_vouching_side_with_negative_lags(self):
        """The vouching device's own signal comes second: its partner lies at
        negative lags, and a window clipped at the recording's start still
        finds it."""
        x, partner, own = self._scene(12_000)  # the signal at 3 000 is the partner
        span = (11_760, 12_240)
        out_own, out_partner = detect_pair(
            x, own, partner, sample_rate=FS, own_span=span, partner_lags=(-10_118, -8_815)
        )
        assert (out_own.location, out_partner.location) == (12_000, 3_000)
        clipped = detect_pair(x, own, partner, sample_rate=FS, own_span=span, partner_lags=(-13_000, -8_000))
        assert clipped == (out_own, out_partner)

    def test_skewed_recorder(self, office_cfg):
        """A vouching device whose clock runs 0.1% fast searches its own span
        and its lags scaled by its rate, and finds both signals inside them,
        where the per-span reference detector does."""
        rate = 44_100.0 * 1.001
        _, t = run_authentication(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (1.5, 0.0), sample_rate=rate),
            AuthPolicy(threshold_m=2.0),
            np.random.default_rng(2807),
            office_cfg,
        )
        sig_a, sig_v, _, rec_v = replay_session(t, office_cfg)
        span = _own_span(_to_samples(PLAYBACK_START_S) + t.playback_gap, rate)
        lags = _partner_lags(-t.playback_gap, rate, office_cfg.speed_of_sound)
        assert span == (10_795, 11_277)  # against (10_785, 11_265) at the nominal rate
        assert lags == (-8869, -7490)  # against (-8860, -7482) at the nominal rate
        outcomes = detect_pair(rec_v, sig_v, sig_a, sample_rate=rate, own_span=span, partner_lags=lags)
        assert outcomes == per_span_detect_pair(rec_v, sig_v, sig_a, rate, span, lags)
        assert (outcomes[0].location, outcomes[1].location) == (t.locations["l_vv"], t.locations["l_va"])
        assert span[0] <= t.locations["l_vv"] <= span[1]
        assert lags[0] <= t.locations["l_va"] - t.locations["l_vv"] <= lags[1]

    @pytest.mark.parametrize("lags", [(0,), (1, 0), (0.5, 10), [0, 10], (True, 10), "ab"])
    def test_malformed_lags_rejected(self, lags):
        x, own, partner = self._scene(12_000)
        with pytest.raises(ValueError, match=r"^partner_lags must be two integers \(lo, hi\) with lo <= hi, got "):
            detect_pair(x, own, partner, sample_rate=FS, own_span=OWN_SPAN, partner_lags=lags)


class TestDetectPair:
    def test_two_signals_located(self):
        rng = np.random.default_rng(11)
        sig_a = synthesize(sample_spec(rng))
        sig_b = synthesize(sample_spec(rng))
        x = np.zeros(45_000)
        x[10_000 : 10_000 + 4096] = sig_a.samples
        x[30_000 : 30_000 + 4096] = sig_b.samples
        out_a, out_b = detect_pair(
            x, sig_a, sig_b, sample_rate=FS, own_span=(9_760, 10_240), partner_lags=(19_000, 21_000)
        )
        assert abs(out_a.location - 10_000) <= spectrum.FINE_STEP
        assert abs(out_b.location - 30_000) <= spectrum.FINE_STEP

    def test_only_first_present(self):
        rng = np.random.default_rng(12)
        sig_a = synthesize(sample_spec(rng))
        others = tuple(f for f in CANDIDATES if f not in sig_a.frequencies)
        sig_b = synthesize(SignalSpec(frequencies=others))
        x = _embed(sig_a, 8_000, 20_000)
        out_a, out_b = detect_pair(
            x, sig_a, sig_b, sample_rate=FS, own_span=(7_760, 8_240), partner_lags=(8_000, 10_000)
        )
        assert out_a.location is not None
        assert out_b.location is None

    def test_outcome_independent_of_partner(self):
        """The own signal's outcome is the same whatever signal is its
        partner, the scene's other signal, itself or a third one not in the
        scene, and whatever lags the partner is searched at: so
        ``detect_pair(x, sig, sig, ...)[0]`` is ``sig``'s scan alone. Random
        scenes with zero, one or two signals present."""
        for seed in range(30):
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
            sig_c = synthesize(sample_spec(np.random.default_rng(2000 + seed)))
            out_a = detect_own(x, sig_a, sample_rate=FS)
            for partner, lags in ((sig_b, (8_780, 10_158)), (sig_b, (-30_000, 30_000)), (sig_c, (0, 0))):
                got = detect_pair(x, sig_a, partner, sample_rate=FS, own_span=(0, 30_000), partner_lags=lags)[0]
                assert got == out_a

    def test_rfft_shapes_of_one_scan(self, monkeypatch, office_cfg):
        """The transforms one scan of a session recording takes: for each
        signal searched, its span's first window and its exact rescoring.
        In noise alone every window of the own span fails a gate, so it takes
        its first window's alone, and its partner takes none."""
        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (1.0, 0.0))
        _, transcript = run_authentication(auth, vouch, AuthPolicy(), np.random.default_rng(0), office_cfg)
        sig_a, sig_v, rec_a, _ = replay_session(transcript, office_cfg)
        noise = np.random.default_rng(1).normal(0.0, 25.0, rec_a.shape[0])
        rate = transcript.sample_rates["auth"]
        spans = {
            "own_span": _own_span(_to_samples(PLAYBACK_START_S), rate),
            "partner_lags": _partner_lags(transcript.playback_gap, rate, office_cfg.speed_of_sound),
        }
        shapes = []
        rfft = np.fft.rfft

        def counting(*args, **kwargs):
            shapes.append(args[0].shape)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        outcomes = detect_pair(rec_a, sig_a, sig_v, sample_rate=rate, **spans)
        assert all(out.location is not None for out in outcomes)
        assert shapes == [(4096,)] * 4
        shapes.clear()
        assert detect_pair(noise, sig_a, sig_v, sample_rate=FS, **spans) == (DetectionOutcome(None, None),) * 2
        assert shapes == [(4096,)]


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

    def test_two_dimensional_recording_rejected(self):
        """Named as such by both detectors, not as shorter than the signal
        because its first axis holds two rows."""
        sig = synthesize(sample_spec(np.random.default_rng(15)))
        x = np.zeros((2, 8192))
        for call in (lambda: cross_correlate_detect(x, sig), lambda: detect_own(x, sig, sample_rate=FS)):
            with pytest.raises(ValueError, match=r"^recording must be one-dimensional, got shape \(2, 8192\)$"):
                call()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        """Named, not located: the sample's rFFT would spread over every lag
        and put the argmax at 0, not at the copy at 5000."""
        sig = synthesize(sample_spec(np.random.default_rng(13)))
        x = _embed(sig, 5000, 5000)
        x[100] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^recording holds a non-finite sample, {value} at index 100$"):
                cross_correlate_detect(x, sig)

    def test_complex_recording_rejected(self):
        """Refused, not cast to its real part with a ComplexWarning."""
        sig = synthesize(sample_spec(np.random.default_rng(13)))
        x = _embed(sig, 5000, 5000).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^recording must hold real samples, got dtype complex128$"):
                cross_correlate_detect(x, sig)

    @pytest.mark.parametrize("distance", [0.5, 1.5])
    def test_argmax_equals_scipy_correlate(self, office_cfg, distance):
        """On the recordings of seeded sessions, the rFFT correlation locates
        every signal where ``scipy.signal.correlate`` peaks."""
        for seed in range(4):
            _, transcript = run_authentication(
                Endpoint("auth", (0.0, 0.0)),
                Endpoint("vouch", (distance, 0.0)),
                AuthPolicy(),
                np.random.default_rng(seed),
                office_cfg,
            )
            sig_a, sig_v, rec_a, rec_v = replay_session(transcript, office_cfg)
            for rec in (rec_a, rec_v):
                for sig in (sig_a, sig_v):
                    x = rec.astype(np.float64)
                    want = scipy.signal.correlate(x, sig.samples.astype(np.float64), mode="valid")
                    assert cross_correlate_detect(rec, sig) == int(np.argmax(want))


class TestDetectionConstants:
    def test_constants_satisfy_the_invariants(self):
        """Gates in (0, 1) with the peak threshold at most the presence one,
        beta below the presence gate (the all-frequency spoofing guard), and a
        search step of at least one sample."""
        assert 0.0 < spectrum.EPSILON <= spectrum.ALPHA < 1.0
        assert 0.0 < spectrum.BETA_RATIO < spectrum.ALPHA
        assert spectrum.THETA >= 0
        assert spectrum.FINE_STEP >= 1
