"""Property tests of the verdict rule and of the span over which a device
searches its own signal (need ``hypothesis``, kept apart so the rest of the
protocol tests collect without it)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonicauth.channel import BASE_SAMPLE_RATE
from sonicauth.protocol import (
    PAIRING_RANGE_M,
    PARTNER_LAG_TOLERANCE,
    PLAYBACK_GAP_SAMPLES,
    PLAYBACK_START_S,
    START_JITTER_SAMPLES,
    AuthPolicy,
    decide,
    _own_span,
    _to_samples,
)
from sonicauth.spectrum import FINE_STEP


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    jitter=st.integers(-START_JITTER_SAMPLES, START_JITTER_SAMPLES),
    skew=st.sampled_from([1.0, 1.001, 0.9995]),
    vouching=st.booleans(),
)
@example(jitter=-START_JITTER_SAMPLES, skew=1.001, vouching=True)
@example(jitter=START_JITTER_SAMPLES, skew=0.9995, vouching=False)
def test_own_onset_lies_inside_the_span(jitter, skew, vouching):
    """Whatever start jitter was drawn, on either device and at a skewed
    recorder's rate, the own signal's onset in the recorder's samples lies
    inside the span the device searches, at least the tolerance from either
    end; the span holds at most 49 windows of the search grid."""
    rate = BASE_SAMPLE_RATE * skew
    nominal = _to_samples(PLAYBACK_START_S) + (PLAYBACK_GAP_SAMPLES if vouching else 0)
    lo, hi = _own_span(nominal, rate)
    onset = (nominal + jitter) * rate / BASE_SAMPLE_RATE
    assert lo + PARTNER_LAG_TOLERANCE <= onset <= hi - PARTNER_LAG_TOLERANCE
    assert len(range(math.ceil(lo / FINE_STEP) * FINE_STEP, hi + 1, FINE_STEP)) <= 49


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    raw=st.floats(allow_infinity=False),
    tau=st.floats(0.0, PAIRING_RANGE_M, exclude_min=True, exclude_max=True),
)
@example(raw=0.5, tau=0.5)
@example(raw=-0.0, tau=0.5)
@example(raw=-1e300, tau=5e-324)
@example(raw=float("nan"), tau=1.0)
def test_verdict_is_the_clamped_estimate_within_the_threshold(raw, tau):
    """Comparing the raw estimate with the threshold gives the verdict its
    clamp at 0 gives, for every finite or NaN estimate: the threshold is
    above 0."""
    assert decide(raw, True, True, AuthPolicy(tau)).accepted == (max(raw, 0.0) <= tau)
