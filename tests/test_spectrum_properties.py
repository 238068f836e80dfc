"""Property test of the fine scan's sliding DFT (needs ``hypothesis``, kept
apart so the rest of the spectrum tests collect without it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_span_sliding_powers
from sonicauth.signal import sample_spec, synthesize
from sonicauth.spectrum import _batch_candidate_powers, _sliding_candidate_powers, candidate_bin_table

FS = 44_100.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    step=st.integers(1, 40),
    count=st.integers(1, 200),
    lo=st.integers(0, 3_000),
    tail=st.integers(0, 500),
    skew=st.sampled_from([1.0, 1.001, 0.9995]),
)
def test_sliding_powers_equal_rfft_kernel(seed, step, count, lo, tail, skew):
    """For any recording, first window, window count and step, the sliding
    DFT's candidate powers equal the exact rFFT kernel's (rtol 1e-9)."""
    rng = np.random.default_rng(seed)
    sig = synthesize(sample_spec(rng))
    n = lo + (count - 1) * step + 4096 + tail
    x = rng.normal(0.0, float(rng.uniform(20.0, 500.0)), n)
    pos = int(rng.integers(0, n - 4096 + 1))
    x[pos : pos + 4096] += float(rng.uniform(0.0, 1.0)) * sig.samples
    x = np.rint(x)
    table = candidate_bin_table(FS * skew)
    (got,) = _sliding_candidate_powers(x, [(lo, count)], step, table)
    want = _batch_candidate_powers(x, slice(lo, lo + (count - 1) * step + 1, step), table)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    step=st.integers(1, 40),
    counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    los=st.tuples(st.integers(0, 3_000), st.integers(0, 3_000)),
    skew=st.sampled_from([1.0, 1.001, 0.9995]),
)
def test_two_spans_equal_rfft_kernel_and_per_span_pass(seed, step, counts, los, skew):
    """Two spans of any lengths in one stacked pass: each span's powers
    equal the exact rFFT kernel's (rtol 1e-9) and the per-span sliding DFT's
    bit for bit."""
    rng = np.random.default_rng(seed)
    n = max(lo + (count - 1) * step for lo, count in zip(los, counts)) + 4096
    x = np.rint(rng.normal(0.0, float(rng.uniform(20.0, 500.0)), n))
    table = candidate_bin_table(FS * skew)
    spans = list(zip(los, counts))
    for (lo, count), got in zip(spans, _sliding_candidate_powers(x, spans, step, table)):
        want = _batch_candidate_powers(x, slice(lo, lo + (count - 1) * step + 1, step), table)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert np.array_equal(got, per_span_sliding_powers(x, lo, count, step, table))
