"""Property tests for the synthesis renderer (need ``hypothesis``, kept apart
so the rest of the signal tests collect without it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_tone_sum
from sonicauth import signal as sg
from sonicauth.signal import BIN_COUNT, CANDIDATES, SignalSpec


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tone_sum_close_to_sine_loop(data):
    """For any tone subset and any phases, the phasor-table sum before
    rounding is within 1e-6 of one ``np.sin`` per tone."""
    index = data.draw(
        st.lists(st.integers(0, BIN_COUNT - 1), min_size=1, max_size=BIN_COUNT - 1, unique=True)
    )
    phases = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(index), max_size=len(index))))
    spec = SignalSpec(frequencies=tuple(CANDIDATES[i] for i in index))
    order = np.argsort(index)  # the spec sorts its tones; keep each phase with its tone
    phases = phases[order]
    x = sg._tone_sum(spec, sg._phasor_table(spec), phases)
    assert np.max(np.abs(x - loop_tone_sum(spec, phases))) <= 1e-6
