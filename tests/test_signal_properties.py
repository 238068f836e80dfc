"""Property tests for the synthesis renderer and its one rendering per tone
set (need ``hypothesis``, kept apart so the rest of the signal tests collect
without it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_tone_sum
from sonicauth import signal as sg
from sonicauth import spectrum
from sonicauth.signal import (
    AMPLITUDE_BUDGET,
    BIN_COUNT,
    CANDIDATES,
    SAMPLE_RATE,
    SIGNAL_LENGTH,
    SignalSpec,
    synthesize,
)


def _tones_and_phases(data, low: float, high: float) -> tuple[SignalSpec, np.ndarray]:
    """A tone subset and one phase per tone, in ``[low, high]``, each phase
    kept with its tone in the spec's sorted order."""
    index = data.draw(
        st.lists(st.integers(0, BIN_COUNT - 1), min_size=1, max_size=BIN_COUNT - 1, unique=True)
    )
    phases = np.array(data.draw(st.lists(st.floats(low, high), min_size=len(index), max_size=len(index))))
    spec = SignalSpec(frequencies=tuple(CANDIDATES[i] for i in index))
    return spec, phases[np.argsort(index)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tone_sum_close_to_sine_loop(data):
    """For any tone subset and any phases, the rendered period before
    rounding is within 1e-6 of one ``np.sin`` per tone."""
    spec, phases = _tones_and_phases(data, -10.0, 10.0)
    index = spectrum.in_set_mask(spec.frequencies)[0]
    amps = np.full(spec.tone_count, AMPLITUDE_BUDGET / spec.tone_count)
    x = sg._period(index, amps, phases)
    assert np.max(np.abs(x - loop_tone_sum(spec, phases))) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rounding_moves_candidate_norms_by_at_most_half_the_length(data):
    """For any tone subset and any phases, each candidate's measured power on
    the rendering lies within ``SIGNAL_LENGTH / 2`` of its 2-norm in the
    unrounded tone sum's spectrum: ``[(norm - B)+^2, (norm + B)^2]``.
    Rounding moves each sample by at most 1/2, and a candidate's 2*THETA+1
    bins are distinct DFT rows, orthogonal with norm sqrt(SIGNAL_LENGTH). So
    with every tone on a DFT bin, where the unrounded out-of-set norms vanish,
    no out-of-set candidate measures more than ``(SIGNAL_LENGTH / 2)**2``."""
    spec, phases = _tones_and_phases(data, 0.0, 2.0 * np.pi)
    index, _ = spectrum.in_set_mask(spec.frequencies)
    amps = np.full(spec.tone_count, AMPLITUDE_BUDGET / spec.tone_count)
    x = sg._period(index, amps, phases)
    table = spectrum.candidate_bin_table(SAMPLE_RATE)
    norms = np.sqrt((np.abs(np.fft.rfft(x)[table]) ** 2).sum(axis=1))
    measured = spectrum._sliding_candidate_powers(sg._render(spec, index, phases), 0, 1, SAMPLE_RATE)[0]
    bound = SIGNAL_LENGTH / 2
    assert np.all(np.maximum(norms - bound, 0.0) ** 2 <= measured)
    assert np.all(measured <= (norms + bound) ** 2)


def _centre_bins(sig) -> np.ndarray:
    """The rFFT of ``sig``'s samples at each of its tones' own bins."""
    index, _ = spectrum.in_set_mask(sig.frequencies)
    centre = spectrum.candidate_bin_table(SAMPLE_RATE)[index, spectrum.THETA]
    return np.fft.rfft(sig.samples.astype(np.float64))[centre]


# Each candidate's centre bin when it plays alone.
_LONE = np.array([_centre_bins(synthesize(SignalSpec(frequencies=(f,))))[0] for f in CANDIDATES])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_rendering_per_tone_set(data):
    """For tone sets of every size from 1 to 29, the one rendering leaks at
    most 1e-6 of the absence threshold into the other candidates, stays
    within the amplitude budget, is the same for the same set in any order,
    and puts each tone at the phase its candidate has when it plays alone."""
    size = data.draw(st.integers(1, BIN_COUNT - 1))
    index = data.draw(st.lists(st.integers(0, BIN_COUNT - 1), min_size=size, max_size=size, unique=True))
    spec = SignalSpec(frequencies=tuple(CANDIDATES[i] for i in index))
    sig = synthesize(spec)
    in_index, in_set = spectrum.in_set_mask(spec.frequencies)
    measured = spectrum._sliding_candidate_powers(sig.samples, 0, 1, SAMPLE_RATE)[0]
    assert sg._leakage_ratio(measured, in_index, in_set) <= 1e-6
    assert np.max(np.abs(sig.samples.astype(np.int64))) <= AMPLITUDE_BUDGET
    again = synthesize(SignalSpec(frequencies=tuple(reversed(spec.frequencies))))
    assert np.array_equal(again.samples, sig.samples)
    assert again.nominal_power == sig.nominal_power
    turn = np.angle(_centre_bins(sig) * np.conj(_LONE[in_index]))
    assert np.max(np.abs(turn)) <= 1e-3
