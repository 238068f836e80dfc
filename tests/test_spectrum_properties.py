"""Property tests of the scores' ordered sums, of the search's sliding DFT
and of the partner's lag window (need ``hypothesis``, kept apart so the rest
of the spectrum tests collect without it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import batch_candidate_powers, detect_own, per_span_detect_pair, per_span_sliding_powers
from sonicauth.signal import BIN_COUNT, SIGNAL_LENGTH, _left_sum, sample_spec, synthesize
from sonicauth.spectrum import (
    FINE_STEP,
    _gate,
    _gated_scores,
    _ordered_sum,
    _sliding_candidate_powers,
    _window_score,
    candidate_bin_table,
    detect_pair,
)

FS = 44_100.0


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Positive floats spread over twenty decades, so that sums taken in a
    different order round differently."""
    return 10.0 ** rng.uniform(-10.0, 10.0, shape)


def _left_sums(rows: np.ndarray) -> np.ndarray:
    """Each column of ``rows`` summed over the first axis as Python floats,
    left to right: the order the scores must sum in."""
    columns = rows.reshape(rows.shape[0], -1).T.tolist()
    return np.array([_left_sum(column) for column in columns]).reshape(rows.shape[1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["c_block", "column"]),
    n=st.integers(1, 40),
    windows=st.integers(2, 301),
)
def test_ordered_sum_adds_rows_left_to_right(seed, layout, n, windows):
    """``_ordered_sum`` equals a Python-float left-to-right sum bit for bit on
    both layouts the scores hand it: C-ordered (n, W) blocks of gated powers
    and a lone window's (n, 1) column."""
    rng = np.random.default_rng(seed)
    if layout == "c_block":
        rows = _spread(rng, (n, windows))
    else:
        rows = _spread(rng, (1, n)).T[rng.permutation(n)]  # a lone window's gathered powers
    assert rows.flags.c_contiguous
    got = _ordered_sum(rows)
    want = _left_sums(rows)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    windows=st.sampled_from([1, 49, 137, 301]),
    tones=st.integers(1, BIN_COUNT - 1),
)
def test_gated_scores_equal_left_sum_reference(seed, windows, tones):
    """Each window's score is its in-set powers summed left to right in
    candidate order minus its out-of-set powers summed the same way, or
    -inf where a gate fails, bit for bit, for a lone window and for the
    own span's, the gap window's and a 301-window span's counts."""
    rng = np.random.default_rng(seed)
    index = np.sort(rng.permutation(BIN_COUNT)[:tones])
    out = np.setdiff1d(np.arange(BIN_COUNT), index)
    floor, limit = _spread(rng, (tones, 1)) * 1e-3, 1e9
    powers = np.empty((windows, BIN_COUNT))
    powers[:, index] = floor.T * (1.0 + _spread(rng, (windows, tones)))
    powers[:, out] = limit * rng.uniform(0.0, 1.0, (windows, out.size))
    powers[rng.random(windows) < 0.1, index[0]] = floor[0, 0]  # presence fails: not above the floor
    powers[rng.random(windows) < 0.1, out[0]] = limit  # absence fails: not below the limit
    want = [
        _left_sum(row[index].tolist()) - _left_sum(row[out].tolist())
        if (row[index] > floor[:, 0]).all() and (row[out] < limit).all()
        else -np.inf
        for row in powers
    ]
    got = _gated_scores(powers, (index, out, floor, limit))
    assert got.shape == (windows,)
    assert np.array_equal(got, want)


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
    DFT's candidate powers equal the exact rFFT kernel's (rtol 1e-9) and the
    per-span reference's bit for bit."""
    rng = np.random.default_rng(seed)
    sig = synthesize(sample_spec(rng))
    n = lo + (count - 1) * step + 4096 + tail
    x = rng.normal(0.0, float(rng.uniform(20.0, 500.0)), n)
    pos = int(rng.integers(0, n - 4096 + 1))
    x[pos : pos + 4096] += float(rng.uniform(0.0, 1.0)) * sig.samples
    x = np.rint(x)
    table = candidate_bin_table(FS * skew)
    got = _sliding_candidate_powers(x, lo, count, step, table)
    want = batch_candidate_powers(x, slice(lo, lo + (count - 1) * step + 1, step), table)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert np.array_equal(got, per_span_sliding_powers(x, lo, count, step, table))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    step=st.integers(1, 40),
    counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    los=st.tuples(st.integers(0, 3_000), st.integers(0, 3_000)),
    skew=st.sampled_from([1.0, 1.001, 0.9995]),
)
def test_two_spans_equal_rfft_kernel_and_per_span_pass(seed, step, counts, los, skew):
    """Two spans of any lengths passed one after another, sharing the slide
    phases: each span's powers, read after both passes ran, equal the exact
    rFFT kernel's (rtol 1e-9) and the per-span sliding DFT's bit for bit."""
    rng = np.random.default_rng(seed)
    n = max(lo + (count - 1) * step for lo, count in zip(los, counts)) + 4096
    x = np.rint(rng.normal(0.0, float(rng.uniform(20.0, 500.0)), n))
    table = candidate_bin_table(FS * skew)
    spans = list(zip(los, counts))
    for (lo, count), got in zip(spans, [_sliding_candidate_powers(x, lo, count, step, table) for lo, count in spans]):
        want = batch_candidate_powers(x, slice(lo, lo + (count - 1) * step + 1, step), table)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert np.array_equal(got, per_span_sliding_powers(x, lo, count, step, table))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 301),
    lo=st.integers(0, 3_000),
    level=st.floats(0.0, 1.5),
    skew=st.sampled_from([1.0, 1.001]),
    data=st.data(),
)
def test_row_zero_is_the_one_window_span(seed, count, lo, level, skew, data):
    """For any recording, span and bin table, row 0 of the span equals the
    one-window span at its start bit for bit, and ``_window_score`` at any
    grid start ``lo + j*FINE_STEP`` of the span equals the gated score of
    the one-window span there. So a span whose every window fails a gate
    would rescore its pick, its first window, to -inf: the exact score
    its row 0 already holds."""
    rng = np.random.default_rng(seed)
    sig = synthesize(sample_spec(rng))
    n = lo + (count - 1) * FINE_STEP + SIGNAL_LENGTH
    x = rng.normal(0.0, float(rng.uniform(20.0, 500.0)), n)
    pos = int(rng.integers(0, n - SIGNAL_LENGTH + 1))
    x[pos : pos + SIGNAL_LENGTH] += level * sig.samples
    x = np.rint(x)
    table, gate = candidate_bin_table(FS * skew), _gate(sig)
    span = _sliding_candidate_powers(x, lo, count, FINE_STEP, table)
    alone = _sliding_candidate_powers(x, lo, 1, FINE_STEP, table)
    assert alone.shape == (1, BIN_COUNT)
    assert np.array_equal(span[:1], alone)
    assert _window_score(x, lo, gate, table) == _gated_scores(span, gate)[0]
    start = lo + data.draw(st.integers(0, count - 1)) * FINE_STEP
    there = _gated_scores(_sliding_candidate_powers(x, start, 1, FINE_STEP, table), gate)[0]
    assert _window_score(x, start, gate, table) == there


# The own signal's span in the scenes below: the whole 30 000-sample recording,
# so the own outcome is the one ``detect_own`` gives.
WHOLE = (0, 30_000)


def _pair_scene(seed: int, own_at: int | None, partner_at: int | None):
    """30 000 samples of office-level noise with the own signal at
    ``own_at`` and the partner's at ``partner_at``, each left out when
    None."""
    rng = np.random.default_rng(seed)
    own, partner = synthesize(sample_spec(rng)), synthesize(sample_spec(rng))
    x = rng.normal(0.0, 25.0, 30_000)
    for sig, at in ((own, own_at), (partner, partner_at)):
        if at is not None:
            x[at : at + SIGNAL_LENGTH] += sig.samples
    return np.rint(x), own, partner


# A partner's true lag from the own signal: after it (the authenticating
# device's view) or before it (the vouching device's), with the own signal
# placed so that both fit a 30 000-sample recording.
_SIDES = st.sampled_from(
    [
        ((0, 8_000), (8_000, 16_000)),  # authenticating: own first, positive lags
        ((16_000, 25_000), (-16_000, -8_000)),  # vouching: partner first, negative lags
    ]
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), side=_SIDES, data=st.data())
def test_partner_inside_its_lags_is_found(seed, side, data):
    """A partner whose true lag lies inside its lags, 20 samples or more from
    either end, is found within one fine step of where it was played, on
    either device's side; the own signal is found the same way, as it is
    alone, and both outcomes are the per-span reference detector's."""
    (own_lo, own_hi), (lag_lo, lag_hi) = side
    own_at = data.draw(st.integers(own_lo, own_hi))
    lag = data.draw(st.integers(lag_lo, lag_hi))
    below = data.draw(st.integers(20, 1_500))
    above = data.draw(st.integers(20, 1_500))
    lags = (lag - below, lag + above)
    x, own, partner = _pair_scene(seed % 2**16, own_at, own_at + lag)
    out_own, out_partner = detect_pair(x, own, partner, sample_rate=FS, own_span=WHOLE, partner_lags=lags)
    assert abs(out_own.location - own_at) <= FINE_STEP
    assert abs(out_partner.location - (own_at + lag)) <= FINE_STEP
    assert out_own == detect_own(x, own, sample_rate=FS)
    assert (out_own, out_partner) == per_span_detect_pair(x, own, partner, FS, WHOLE, lags)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), side=_SIDES, data=st.data())
def test_partner_only_outside_its_lags_is_absent(seed, side, data):
    """A partner played where no window of its lags overlaps it (its lags
    end a signal length or more before its lag, or start that far after) is
    absent, though its signal is in the recording; the own signal is found
    as it is alone."""
    (own_lo, own_hi), (lag_lo, lag_hi) = side
    own_at = data.draw(st.integers(own_lo, own_hi))
    lag = data.draw(st.integers(lag_lo, lag_hi))
    width = data.draw(st.integers(0, 1_500))
    gap = data.draw(st.integers(SIGNAL_LENGTH, 6_000))
    first = lag + gap if data.draw(st.booleans()) else lag - gap - width
    lags = (first, first + width)
    x, own, partner = _pair_scene(seed % 2**16, own_at, own_at + lag)
    out_own, out_partner = detect_pair(x, own, partner, sample_rate=FS, own_span=WHOLE, partner_lags=lags)
    assert out_own == detect_own(x, own, sample_rate=FS)
    assert abs(out_own.location - own_at) <= FINE_STEP
    assert out_partner.location is None
    assert (out_own, out_partner) == per_span_detect_pair(x, own, partner, FS, WHOLE, lags)
    found = detect_pair(x, own, partner, sample_rate=FS, own_span=WHOLE, partner_lags=(lag - 20, lag + 20))[1]
    assert abs(found.location - (own_at + lag)) <= FINE_STEP


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16 - 1),
    own_at=st.one_of(st.none(), st.integers(0, 25_000)),
    partner_at=st.one_of(st.none(), st.integers(0, 25_000)),
    lags=st.tuples(st.integers(-30_000, 30_000), st.integers(0, 3_000)).map(lambda t: (t[0], t[0] + t[1])),
)
def test_own_outcome_independent_of_partner_and_lags(seed, own_at, partner_at, lags):
    """With either signal, both or neither in the recording, possibly
    overlapping, the own outcome is the one the signal gets alone, whatever
    the lags, and both outcomes are the per-span reference detector's."""
    x, own, partner = _pair_scene(seed, own_at, partner_at)
    outcomes = detect_pair(x, own, partner, sample_rate=FS, own_span=WHOLE, partner_lags=lags)
    assert outcomes[0] == detect_own(x, own, sample_rate=FS)
    assert outcomes == per_span_detect_pair(x, own, partner, FS, WHOLE, lags)
