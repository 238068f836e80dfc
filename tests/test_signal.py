import collections
import json

import numpy as np
import pytest

from helpers import direct_candidate_power, load_signal, load_wav, loop_render, proper_subsets
from sonicauth import pcm, spectrum
from sonicauth import signal as sg
from sonicauth.signal import (
    AMPLITUDE_BUDGET,
    BAND_HIGH,
    BAND_LOW,
    BIN_COUNT,
    CANDIDATES,
    SAMPLE_RATE,
    ReferenceSignal,
    SignalSpec,
    sample_spec,
    synthesize,
)
from sonicauth.spectrum import norm_power


class TestBuildGrid:
    def test_default_grid_midpoints(self):
        assert (BAND_LOW, BAND_HIGH, BIN_COUNT) == (25_000.0, 35_000.0, 30)
        assert len(CANDIDATES) == BIN_COUNT
        assert CANDIDATES[0] == pytest.approx(25_166.6666667)
        assert CANDIDATES[29] == pytest.approx(34_833.3333333)
        assert np.allclose(np.diff(CANDIDATES), 333.3333333)
        assert all(BAND_LOW < c < BAND_HIGH for c in CANDIDATES)

    def test_all_candidates_above_noise_floor(self):
        assert all(c > 6000 for c in CANDIDATES)


class TestSampleSpec:
    def test_deterministic_given_seed(self):
        a = sample_spec(np.random.default_rng(5))
        b = sample_spec(np.random.default_rng(5))
        assert a.frequencies == b.frequencies

    def test_size_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            spec = sample_spec(rng)
            assert 0 < spec.tone_count < BIN_COUNT

    def test_uniform_over_subsets_small_grid(self):
        """The subset draw behind ``sample_spec``, over four candidates."""
        candidates = (1500.0, 2500.0, 3500.0, 4500.0)
        admissible = proper_subsets(candidates)
        assert len(admissible) == 14
        rng = np.random.default_rng(99)
        counts = collections.Counter()
        draws = 10_000
        for _ in range(draws):
            counts[frozenset(sg._proper_subset(rng, candidates))] += 1
        assert set(counts) == set(admissible)
        for sub in admissible:
            assert counts[sub] / draws == pytest.approx(1 / 14, abs=0.02)
        # chi-square GOF at the 1% level (13 dof -> 27.69)
        expected = draws / 14
        chi2 = sum((counts[s] - expected) ** 2 / expected for s in admissible)
        assert chi2 < 27.69


class TestSpecValidation:
    def test_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            SignalSpec(frequencies=())
        with pytest.raises(ValueError):
            SignalSpec(frequencies=CANDIDATES)

    def test_rejects_off_grid(self):
        with pytest.raises(ValueError):
            SignalSpec(frequencies=(12_345.0,))


class TestSynthesize:
    def test_single_tone_matches_direct_dft(self):
        f = CANDIDATES[7]
        spec = SignalSpec(frequencies=(f,))
        sig = synthesize(spec)
        assert np.max(np.abs(sig.samples)) <= 32_000
        oracle = direct_candidate_power(sig.samples.astype(float), f, 44_100.0, 4096, spectrum.THETA)
        assert sig.nominal_power[f] == pytest.approx(oracle, rel=1e-9)

    def test_two_tones_equal_power(self):
        spec = SignalSpec(frequencies=(CANDIDATES[3], CANDIDATES[20]))
        sig = synthesize(spec)
        p = list(sig.nominal_power.values())
        assert p[0] == pytest.approx(p[1], rel=0.01)
        assert sig.total_power == pytest.approx(sum(p))

    def test_no_clipping_across_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sig = synthesize(sample_spec(rng))
            assert np.max(np.abs(sig.samples)) <= AMPLITUDE_BUDGET

    def test_bit_identical_from_same_seed(self):
        a = synthesize(sample_spec(np.random.default_rng(11)))
        b = synthesize(sample_spec(np.random.default_rng(11)))
        assert np.array_equal(a.samples, b.samples)
        assert a.nominal_power == b.nominal_power

    @pytest.mark.parametrize("tones", [1, 8, 29])
    def test_random_phases_keep_budget(self, tones):
        rng = np.random.default_rng(3)
        spec = SignalSpec(frequencies=CANDIDATES[:tones])
        table = sg._phasor_table(spec)
        for _ in range(20):
            samples = sg._render(spec, table, rng.uniform(0.0, 2.0 * np.pi, tones))
            assert np.max(np.abs(samples)) <= AMPLITUDE_BUDGET

    def test_self_consistency_norm_power(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sig = synthesize(sample_spec(rng))
            p = norm_power(sig.samples.astype(float), sig, sample_rate=SAMPLE_RATE)
            assert p is not None
            assert p >= 0.95 * sig.total_power

    def test_leakage_confined_under_the_detectors_beta(self, monkeypatch):
        """Phase selection targets the detector's absence threshold: with a
        stricter ``BETA_RATIO``, this tone set's rendering under the default
        one fails its own absence gate and the retuned one passes."""
        spec = sample_spec(np.random.default_rng(2))
        default = synthesize(spec)
        monkeypatch.setattr(spectrum, "BETA_RATIO", 0.002)
        tuned = synthesize(spec)
        assert norm_power(default.samples, default, sample_rate=SAMPLE_RATE) is None
        assert norm_power(tuned.samples, tuned, sample_rate=SAMPLE_RATE) is not None

    def test_unconfinable_leakage_rejected(self, monkeypatch):
        """Seed 0's tone set tries all 16 phase candidates: each leaks past the
        strict beta, and with the default beta the fallback still passes."""
        spec = sample_spec(np.random.default_rng(0))
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "BETA_RATIO", 0.002)
            message = r"beta_ratio=0\.002: .* reaches 1\.\d+ times the absence threshold"
            with pytest.raises(ValueError, match=message):
                synthesize(spec)
        sig = synthesize(spec)
        assert norm_power(sig.samples, sig, sample_rate=SAMPLE_RATE) is not None

    def test_each_candidate_measured_once(self, monkeypatch):
        """Seeds 1, 3 and 0 render 1, 2 and all 16 phase candidates; the chosen
        one, fallback included, is not measured again."""
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sg, "_render", counting("render", sg._render))
        monkeypatch.setattr(
            spectrum, "measure_candidate_powers", counting("measure", spectrum.measure_candidate_powers)
        )
        for seed, renders in ((1, 1), (3, 2), (0, 16)):
            calls.clear()
            synthesize(sample_spec(np.random.default_rng(seed)))
            assert calls == {"render": renders, "measure": renders}


def family(spec):
    index, _ = spectrum.in_set_mask(spec.frequencies)
    return list(sg._phase_family(spec, index))


class TestPhasorRenderer:
    @staticmethod
    def assert_matches_loop(spec, length=sg.SIGNAL_LENGTH):
        table = sg._phasor_table(spec)
        phases = family(spec)
        assert len(phases) == 16
        rendered = np.array([sg._render(spec, table, ph) for ph in phases]).astype(np.int16)
        assert np.array_equal(rendered, loop_render(spec, phases, length))

    def test_matches_sine_loop_on_seeded_tone_sets(self):
        for seed in range(500):
            self.assert_matches_loop(sample_spec(np.random.default_rng(seed)))

    @pytest.mark.parametrize("tones", [1, 2, 28, 29])
    def test_matches_sine_loop_at_extreme_tone_counts(self, tones):
        rng = np.random.default_rng(tones)
        for _ in range(4):
            picked = rng.choice(np.asarray(CANDIDATES), size=tones, replace=False)
            self.assert_matches_loop(SignalSpec(frequencies=tuple(float(f) for f in picked)))

    @pytest.mark.parametrize("tones", [1, 29])
    def test_matches_sine_loop_at_a_long_length(self, tones, long_signal_length):
        """Identity also holds where the block product's coarse phase grows
        16 times larger than at the session length."""
        picked = np.random.default_rng(tones).choice(np.asarray(CANDIDATES), size=tones, replace=False)
        spec = SignalSpec(frequencies=tuple(float(f) for f in picked))
        self.assert_matches_loop(spec, long_signal_length)

    def test_phase_family_stream_unchanged(self):
        """The lazy family draws the same stream as building all 16 at once,
        seeded by the tone indices, the bin count and the 4096-sample length."""
        spec = sample_spec(np.random.default_rng(5))
        index, _ = spectrum.in_set_mask(spec.frequencies)
        rng = np.random.default_rng(np.random.SeedSequence(index.tolist() + [BIN_COUNT, 4096]))
        eager = [np.zeros(spec.tone_count)] + [rng.uniform(0.0, 2.0 * np.pi, spec.tone_count) for _ in range(15)]
        assert all(np.array_equal(a, b) for a, b in zip(family(spec), eager, strict=True))


class TestSerialization:
    def test_bytes_round_trip(self):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        clone = ReferenceSignal.from_bytes(sig.to_bytes())
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

    def test_powers_follow_their_tones_in_any_order(self):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        freqs = list(reversed(sig.frequencies))
        blob = self._payload(sig, freqs_hz=freqs, nominal_power=[sig.nominal_power[f] for f in freqs])
        clone = ReferenceSignal.from_bytes(blob)
        assert clone.nominal_power == sig.nominal_power
        assert clone.total_power == sig.total_power

    def test_header_past_blob_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        blob = sig.to_bytes()
        hlen = int.from_bytes(blob[:4], "big")
        with pytest.raises(ValueError, match="header of .* runs past"):
            ReferenceSignal.from_bytes(blob[: 4 + hlen - 1])

    @pytest.mark.parametrize("body_delta", [-200, 2])
    def test_body_length_mismatch_rejected(self, body_delta):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        with pytest.raises(ValueError, match="body is .* bytes, expected 8192 for 4096 samples"):
            ReferenceSignal.from_bytes(self._payload(sig, body_delta))

    def test_power_count_mismatch_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        short = [sig.nominal_power[f] for f in sig.frequencies][:-1]
        with pytest.raises(ValueError, match="nominal powers for"):
            ReferenceSignal.from_bytes(self._payload(sig, nominal_power=short))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, pytest.param(10**400, id="int_beyond_float")])
    def test_bad_power_rejected(self, bad):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        powers = [bad] + [sig.nominal_power[f] for f in sig.frequencies][1:]
        with pytest.raises(ValueError, match="must be finite and positive"):
            ReferenceSignal.from_bytes(self._payload(sig, nominal_power=powers))

    @pytest.mark.parametrize("field", ["freqs_hz", "nominal_power"])
    def test_missing_header_field_rejected(self, field):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        meta = json.loads(sig.header())
        del meta[field]
        encoded = json.dumps(meta).encode()
        with pytest.raises(ValueError, match=f"^link payload header lacks the '{field}' key$"):
            ReferenceSignal.from_bytes(len(encoded).to_bytes(4, "big") + encoded + sig.samples.tobytes())

    @pytest.mark.parametrize("field, value", [("length", 4096), ("sample_rate", 44_100.0), ("amplitude_budget", 32_000)])
    def test_header_field_of_the_fixed_format_rejected(self, field, value):
        """Length, rate and budget are fixed, so a header that still carries
        one is malformed, as any unknown key is."""
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        with pytest.raises(ValueError, match=f"^unknown link payload header keys: \\['{field}'\\]$"):
            ReferenceSignal.from_bytes(self._payload(sig, **{field: value}))

    def test_string_power_rejected(self):
        sig = synthesize(sample_spec(np.random.default_rng(2)))
        powers = ["1e9"] + [sig.nominal_power[f] for f in sig.frequencies][1:]
        with pytest.raises(ValueError, match="field 'nominal_power' must be a list of numbers"):
            ReferenceSignal.from_bytes(self._payload(sig, nominal_power=powers))

    def test_wav_json_round_trip(self, tmp_path):
        """The samples saved as WAV and the link header saved as JSON, as a
        session's WAV dump saves them, rebuild the signal."""
        sig = synthesize(sample_spec(np.random.default_rng(4)))
        pcm.save_wav(str(tmp_path / "ref.wav"), sig.samples, SAMPLE_RATE)
        (tmp_path / "ref.json").write_bytes(sig.header())
        assert load_wav(str(tmp_path / "ref.wav"))[1] == SAMPLE_RATE
        clone = load_signal(str(tmp_path / "ref.wav"), str(tmp_path / "ref.json"))
        assert np.array_equal(clone.samples, sig.samples)
        assert clone.spec.frequencies == sig.spec.frequencies
        assert clone.nominal_power == sig.nominal_power


class TestLoadSignal:
    """A signal saved the way a WAV dump saves it (samples as WAV, link header
    as JSON) loads back through the link codec, which rejects a malformed
    header with a ``ValueError`` naming the field."""

    @pytest.fixture
    def saved(self, tmp_path):
        """Seed 4's signal saved as WAV and JSON, and the JSON as saved."""
        sig = synthesize(sample_spec(np.random.default_rng(4)))
        pcm.save_wav(str(tmp_path / "ref.wav"), sig.samples, SAMPLE_RATE)
        (tmp_path / "ref.json").write_bytes(sig.header())
        return sig, json.loads((tmp_path / "ref.json").read_text())

    @staticmethod
    def _load(tmp_path, meta):
        (tmp_path / "ref.json").write_text(json.dumps(meta))
        return load_signal(str(tmp_path / "ref.wav"), str(tmp_path / "ref.json"))

    @pytest.mark.parametrize("field", ["freqs_hz", "nominal_power"])
    def test_missing_field_rejected(self, tmp_path, saved, field):
        _, meta = saved
        del meta[field]
        with pytest.raises(ValueError, match=f"lacks the '{field}' key"):
            self._load(tmp_path, meta)

    @pytest.mark.parametrize(
        "field, value",
        [("freqs_hz", "25166.7"), ("freqs_hz", [None]), ("nominal_power", {"25166.7": 1e9}), ("nominal_power", ["1e9"])],
    )
    def test_mistyped_field_rejected(self, tmp_path, saved, field, value):
        _, meta = saved
        with pytest.raises(ValueError, match=f"field '{field}' must be a list of numbers"):
            self._load(tmp_path, {**meta, field: value})

    def test_non_object_rejected(self, tmp_path, saved):
        with pytest.raises(ValueError, match="^link payload header must be an object, got \\[1.0, 2.0\\]$"):
            self._load(tmp_path, [1.0, 2.0])

    def test_power_count_mismatch_rejected(self, tmp_path, saved):
        """One power for all tones: ``zip`` would keep just the first tone."""
        sig, meta = saved
        with pytest.raises(ValueError, match=f"has 1 nominal powers for {sig.spec.tone_count} tones"):
            self._load(tmp_path, {**meta, "nominal_power": meta["nominal_power"][:1]})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 0.0, -1.0, pytest.param(10**400, id="int_beyond_float")]
    )
    def test_bad_power_rejected(self, tmp_path, saved, bad):
        _, meta = saved
        with pytest.raises(ValueError, match="must be finite and positive"):
            self._load(tmp_path, {**meta, "nominal_power": [bad] + meta["nominal_power"][1:]})

    def test_powers_follow_their_tones_in_any_order(self, tmp_path, saved):
        sig, meta = saved
        reordered = {key: list(reversed(meta[key])) for key in ("freqs_hz", "nominal_power")}
        assert self._load(tmp_path, reordered).nominal_power == sig.nominal_power
