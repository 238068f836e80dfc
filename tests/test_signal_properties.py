"""Property tests for the synthesis renderer and its leakage bound (need
``hypothesis``, kept apart so the rest of the signal tests collect without
it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_tone_sum
from sonicauth import signal as sg
from sonicauth import spectrum
from sonicauth.signal import AMPLITUDE_BUDGET, BIN_COUNT, CANDIDATES, SAMPLE_RATE, SIGNAL_LENGTH, SignalSpec


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
    """For any tone subset and any phases, the block-phasor sum before
    rounding is within 1e-6 of one ``np.sin`` per tone."""
    spec, phases = _tones_and_phases(data, -10.0, 10.0)
    index = spectrum.in_set_mask(spec.frequencies)[0]
    amps = np.full(spec.tone_count, AMPLITUDE_BUDGET / spec.tone_count)
    x = sg._tone_sum(index, amps, phases, sg._block_phasors()[0][index]).ravel()
    assert np.max(np.abs(x - loop_tone_sum(spec, phases))) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rounding_moves_candidate_norms_by_at_most_half_the_length(data):
    """For any tone subset and any phases, each candidate's measured power on
    the rendering lies within ``SIGNAL_LENGTH / 2`` (without the bound's
    floating-point slack) of its 2-norm in the unrounded spectrum:
    ``[(norm - B)+^2, (norm + B)^2]``. So the screen's leakage bound never
    exceeds the rendering's leakage ratio."""
    spec, phases = _tones_and_phases(data, 0.0, 2.0 * np.pi)
    index, in_set = spectrum.in_set_mask(spec.frequencies)
    norms = sg._candidate_norms(spec, index, phases[None])
    table = spectrum.candidate_bin_table(SAMPLE_RATE)
    measured = spectrum._window_powers(sg._render(spec, index, phases), table)
    bound = SIGNAL_LENGTH / 2
    assert np.all(np.maximum(norms[0] - bound, 0.0) ** 2 <= measured)
    assert np.all(measured <= (norms[0] + bound) ** 2)
    lower = sg._leakage_lower_bounds(norms, in_set, spec.tone_count)
    assert lower[0] <= sg._leakage_ratio(measured, in_set, spec)
