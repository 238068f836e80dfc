import collections
import json

import numpy as np
import pytest

from helpers import direct_candidate_power, proper_subsets
from sonicauth.signal import (
    DEFAULT_GRID,
    ReferenceSignal,
    SignalSpec,
    build_grid,
    sample_spec,
    synthesize,
)
from sonicauth.spectrum import DetectionParams, norm_power


class TestBuildGrid:
    def test_default_grid_midpoints(self):
        g = build_grid(25_000, 35_000, 30)
        assert g.candidates[0] == pytest.approx(25_166.6666667)
        assert g.candidates[29] == pytest.approx(34_833.3333333)
        assert g.spacing == pytest.approx(333.3333333)
        diffs = np.diff(g.candidates)
        assert np.allclose(diffs, g.spacing)
        assert all(g.band_low < c < g.band_high for c in g.candidates)

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            build_grid(0, 10, 1)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            build_grid(10, 10, 4)

    def test_all_candidates_above_noise_floor(self):
        g = build_grid(25_000, 35_000, 30)
        assert all(c > 6000 for c in g.candidates)


class TestSampleSpec:
    def test_deterministic_given_seed(self, grid):
        a = sample_spec(np.random.default_rng(5), grid)
        b = sample_spec(np.random.default_rng(5), grid)
        assert a.frequencies == b.frequencies

    def test_size_bounds(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(300):
            spec = sample_spec(rng, grid)
            assert 0 < spec.tone_count < grid.bin_count

    def test_uniform_over_subsets_small_grid(self):
        g = build_grid(1000, 5000, 4)
        admissible = proper_subsets(g.candidates)
        assert len(admissible) == 14
        rng = np.random.default_rng(99)
        counts = collections.Counter()
        draws = 10_000
        for _ in range(draws):
            counts[frozenset(sample_spec(rng, g, length=64).frequencies)] += 1
        assert set(counts) == set(admissible)
        for sub in admissible:
            assert counts[sub] / draws == pytest.approx(1 / 14, abs=0.02)
        # chi-square GOF at the 1% level (13 dof -> 27.69)
        expected = draws / 14
        chi2 = sum((counts[s] - expected) ** 2 / expected for s in admissible)
        assert chi2 < 27.69

    def test_exclude_narrows_pool(self, grid):
        rng = np.random.default_rng(1)
        banned = frozenset(grid.candidates[:10])
        for _ in range(50):
            spec = sample_spec(rng, grid, exclude=banned)
            assert not set(spec.frequencies) & banned

    def test_exclude_all_raises(self, grid):
        with pytest.raises(ValueError):
            sample_spec(np.random.default_rng(0), grid, exclude=frozenset(grid.candidates))


class TestSpecValidation:
    def test_rejects_empty_and_full(self, grid):
        with pytest.raises(ValueError):
            SignalSpec(frequencies=(), grid=grid)
        with pytest.raises(ValueError):
            SignalSpec(frequencies=grid.candidates, grid=grid)

    def test_rejects_off_grid(self, grid):
        with pytest.raises(ValueError):
            SignalSpec(frequencies=(12_345.0,), grid=grid)


class TestSynthesize:
    def test_single_tone_matches_direct_dft(self, grid):
        f = grid.candidates[7]
        spec = SignalSpec(frequencies=(f,), grid=grid)
        sig = synthesize(spec)
        assert np.max(np.abs(sig.samples)) <= 32_000
        oracle = direct_candidate_power(sig.samples.astype(float), f, 44_100.0, 4096, theta=5)
        assert sig.nominal_power[f] == pytest.approx(oracle, rel=1e-9)

    def test_two_tones_equal_power(self, grid):
        spec = SignalSpec(frequencies=(grid.candidates[3], grid.candidates[20]), grid=grid)
        sig = synthesize(spec)
        p = list(sig.nominal_power.values())
        assert p[0] == pytest.approx(p[1], rel=0.01)
        assert sig.total_power == pytest.approx(sum(p))

    def test_no_clipping_across_draws(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sig = synthesize(sample_spec(rng, grid))
            assert np.max(np.abs(sig.samples)) <= sig.spec.amplitude_budget

    def test_bit_identical_from_same_seed(self, grid):
        a = synthesize(sample_spec(np.random.default_rng(11), grid))
        b = synthesize(sample_spec(np.random.default_rng(11), grid))
        assert np.array_equal(a.samples, b.samples)
        assert a.nominal_power == b.nominal_power

    def test_random_phase_flag_keeps_budget(self, grid):
        spec = SignalSpec(frequencies=grid.candidates[:8], grid=grid)
        sig = synthesize(spec, phase_rng=np.random.default_rng(3))
        assert np.max(np.abs(sig.samples)) <= spec.amplitude_budget

    def test_self_consistency_norm_power(self, grid, params):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sig = synthesize(sample_spec(rng, grid))
            p = norm_power(
                sig.samples.astype(float), sig.frequencies, sig.nominal_power, grid, params
            )
            assert p is not None
            assert p >= 0.95 * sig.total_power

    def test_leakage_confined_under_the_detectors_beta(self, grid):
        """Phase selection targets the absence threshold of the params it is
        given: with a stricter beta_ratio, this tone set's default-params
        rendering fails its own absence gate and the tuned one passes."""
        strict = DetectionParams(beta_ratio=0.002)
        spec = sample_spec(np.random.default_rng(2), grid)
        default = synthesize(spec)
        tuned = synthesize(spec, params=strict)
        assert norm_power(default.samples, default.frequencies, default.nominal_power, grid, strict) is None
        assert norm_power(tuned.samples, tuned.frequencies, tuned.nominal_power, grid, strict) is not None


class TestSerialization:
    def test_bytes_round_trip(self, grid):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        clone = ReferenceSignal.from_bytes(sig.to_bytes(), grid)
        assert np.array_equal(clone.samples, sig.samples)
        assert clone.spec.frequencies == sig.spec.frequencies
        assert clone.total_power == pytest.approx(sig.total_power)
        assert clone.to_bytes() == sig.to_bytes() == self._payload(sig)

    @staticmethod
    def _payload(sig, body_delta=0, **header):
        blob = sig.to_bytes()
        hlen = int.from_bytes(blob[:4], "big")
        meta = {**json.loads(blob[4 : 4 + hlen]), **header}
        encoded = json.dumps(meta).encode()
        body = blob[4 + hlen :]
        body = body[:body_delta] if body_delta < 0 else body + bytes(body_delta)
        return len(encoded).to_bytes(4, "big") + encoded + body

    def test_powers_follow_their_tones_in_any_order(self, grid):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        freqs = list(reversed(sig.frequencies))
        blob = self._payload(sig, freqs_hz=freqs, nominal_power=[sig.nominal_power[f] for f in freqs])
        assert ReferenceSignal.from_bytes(blob, grid).nominal_power == sig.nominal_power

    def test_header_past_blob_rejected(self, grid):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        blob = sig.to_bytes()
        hlen = int.from_bytes(blob[:4], "big")
        with pytest.raises(ValueError, match="header of .* runs past"):
            ReferenceSignal.from_bytes(blob[: 4 + hlen - 1], grid)

    @pytest.mark.parametrize("body_delta", [-200, 2])
    def test_body_length_mismatch_rejected(self, grid, body_delta):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        with pytest.raises(ValueError, match="body is .* bytes, expected 8192 for 4096 samples"):
            ReferenceSignal.from_bytes(self._payload(sig, body_delta), grid)

    def test_power_count_mismatch_rejected(self, grid):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        short = [sig.nominal_power[f] for f in sig.frequencies][:-1]
        with pytest.raises(ValueError, match="nominal powers for"):
            ReferenceSignal.from_bytes(self._payload(sig, nominal_power=short), grid)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_bad_power_rejected(self, grid, bad):
        sig = synthesize(sample_spec(np.random.default_rng(2), grid))
        powers = [bad] + [sig.nominal_power[f] for f in sig.frequencies][1:]
        with pytest.raises(ValueError, match="must be finite and positive"):
            ReferenceSignal.from_bytes(self._payload(sig, nominal_power=powers), grid)

    def test_wav_json_round_trip(self, grid, tmp_path):
        from sonicauth.signal import load_signal, save_signal_json, save_signal_wav

        sig = synthesize(sample_spec(np.random.default_rng(4), grid))
        wav = tmp_path / "ref.wav"
        meta = tmp_path / "ref.json"
        save_signal_wav(sig, str(wav))
        save_signal_json(sig, str(meta))
        clone = load_signal(str(wav), str(meta), grid)
        assert np.array_equal(clone.samples, sig.samples)
        assert clone.spec.frequencies == sig.spec.frequencies
