"""``synthesize`` rules phase candidates out by a certified lower bound on
their leakage before rendering them. It must still pick what rendering and
measuring every candidate in family order picks
(``helpers.sequential_synthesize``), bit for bit in samples and nominal
powers, on every path: the first candidate to pass both targets, the confined
fallback, the least-leaking fallback, and the ``ValueError`` when even that
one reaches the absence threshold."""

import collections

import numpy as np
import pytest

from helpers import sequential_synthesize
from sonicauth import signal as sg
from sonicauth import spectrum
from sonicauth.signal import CANDIDATES, SAMPLE_RATE, SignalSpec, sample_spec, synthesize


def _leakage(sig) -> float:
    """``sig``'s leakage ratio, from its measured candidate powers."""
    _, in_set = spectrum.in_set_mask(sig.frequencies)
    measured = spectrum._window_powers(sig.samples, spectrum.candidate_bin_table(SAMPLE_RATE))
    return sg._leakage_ratio(measured, in_set, sig.spec)


def _path(sig) -> str:
    """Which rule of the search picked ``sig``'s phases."""
    if _leakage(sig) > sg._LEAKAGE_TARGET:
        return "least_leaking"
    return "passes" if sg._edge_energy_ratio(sig.samples) >= sg._EDGE_ENERGY_TARGET else "confined"


def assert_matches_sequential(spec) -> str:
    """``synthesize`` and the sequential search agree on ``spec``: the same
    samples and nominal powers, or the same ``ValueError`` text. Returns the
    path taken."""
    try:
        want = sequential_synthesize(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            synthesize(spec)
        assert str(got.value) == str(exc)
        return "error"
    got = synthesize(spec)
    assert got.samples.dtype == want.samples.dtype
    assert np.array_equal(got.samples, want.samples)
    assert got.nominal_power == want.nominal_power
    return _path(got)


def _seeded_paths(count: int) -> collections.Counter:
    return collections.Counter(
        assert_matches_sequential(sample_spec(np.random.default_rng(seed))) for seed in range(count)
    )


class TestMatchesSequentialSearch:
    def test_seeded_tone_sets(self):
        assert set(_seeded_paths(500)) == {"passes", "confined", "least_leaking"}

    @pytest.mark.parametrize("tones", [1, 2, 28, 29])
    def test_tone_counts(self, tones):
        rng = np.random.default_rng(tones)
        for _ in range(5):
            picked = rng.choice(np.asarray(CANDIDATES), size=tones, replace=False)
            assert_matches_sequential(SignalSpec(frequencies=tuple(float(f) for f in picked)))

    def test_read_on_past_the_family(self):
        """No member of the 16-candidate family keeps this 18-tone set's
        leakage under the absence threshold (the least leaks 1.077 times it),
        so the search reads on down the seeded stream: row 17 leaks 0.939
        times it, and the detector finds the clean signal present."""
        tones = (1, 3, 4, 5, 7, 8, 10, 11, 13, 15, 16, 17, 20, 21, 23, 25, 27, 28)
        spec = SignalSpec(frequencies=tuple(CANDIDATES[i] for i in tones))
        assert assert_matches_sequential(spec) == "least_leaking"
        sig = synthesize(spec)
        assert _leakage(sig) < 1.0
        index, _ = spectrum.in_set_mask(spec.frequencies)
        row = sg._phase_family(spec, index, sg._PHASE_SEARCH_LIMIT)[17]
        assert np.array_equal(sig.samples, sg._render(spec, index, row).astype(np.int16))
        assert spectrum.detect_pair(sig.samples, sig, sig, sample_rate=SAMPLE_RATE)[0].peak_norm_power is not None

    def test_strict_beta(self, monkeypatch):
        """A stricter absence threshold sends most tone sets down the
        fallbacks, many past the family, and some to the ``ValueError``: the
        bound reads ``BETA_RATIO`` at call time."""
        monkeypatch.setattr(spectrum, "BETA_RATIO", 0.002)
        assert set(_seeded_paths(500)) == {"passes", "confined", "least_leaking", "error"}


def test_about_one_render_per_call(monkeypatch):
    """The bound spares most renders: over 1000 seeded tone sets, a call
    renders and measures at most 1.3 phase candidates on average, where the
    sequential search renders 4.4."""
    calls = collections.Counter()
    render = sg._render

    def counting(*args):
        calls["render"] += 1
        return render(*args)

    monkeypatch.setattr(sg, "_render", counting)
    specs = 1000
    for seed in range(specs):
        synthesize(sample_spec(np.random.default_rng(seed)))
    assert calls["render"] / specs <= 1.3
