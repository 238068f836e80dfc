"""Power spectra and sliding-window detection of reference signals.

The detector slides a window over the recording, computes the window's power
spectrum, and scores each window by the normalized power of the sought tone
set: the summed power at in-set candidates minus the summed power at out-of-set
candidates. Two sanity checks gate the score before it can compete for the
argmax:

* presence: every in-set candidate must carry more than ``ALPHA`` times its
  nominal power (hardware attenuation allowance);
* absence: every out-of-set candidate must stay below ``beta`` (rejects
  broadband interference and all-frequency spoofing).

Windows failing either check score negative infinity. A coarse scan with a
large step finds the neighbourhood of the maximum; it takes one rFFT per
window, reading its evenly spaced windows in place from the recording as a
strided view. A fine scan pinpoints the maximum with a sliding DFT over the
bins the candidates read: the first window's bins come from one rFFT and each
later window's from the samples that enter and leave it. The fine scan only
picks the window. The exact one-window kernel, the one ``norm_power`` uses,
then scores that window; its score is the reported peak, and the detection is
declared absent when it stays below ``EPSILON`` times the signal's total
nominal power. So a located window whose exact score fails a gate is not
present, and ``norm_power`` on a located window reproduces the peak bit for
bit by construction.

The tone set, the nominal powers and their total all come from the
``ReferenceSignal``; the candidates are ``signal.CANDIDATES``, and every
window is one signal long (``SIGNAL_LENGTH``).

Candidate frequencies may lie above half the sample rate; their spectral
content then appears at the mirrored (aliased) bin of the real FFT, so bin
indices are folded onto the one-sided spectrum rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# ``signal`` imports this module first, so its constants are read at call time.
from . import signal

if TYPE_CHECKING:
    from .signal import ReferenceSignal


# The detector's fixed settings. An in-set tone passes the presence gate above
# ALPHA times its nominal power; the absence gate is ``beta``; a located window
# is present at EPSILON times the signal's total nominal power or more. A
# candidate's power sums the 2*THETA+1 bins around its own. The coarse scan
# steps COARSE_STEP samples, and the fine scan steps FINE_STEP samples up to
# FINE_RADIUS either side of the coarse argmax. Keeping BETA_RATIO < ALPHA
# guarantees the all-frequency spoofing defence: no single per-tone power can
# pass both gates at once.
ALPHA = 0.01
EPSILON = 0.01
BETA_RATIO = 0.005
THETA = 5
COARSE_STEP = 1000
FINE_STEP = 10
FINE_RADIUS = 1500


def beta(total_power: float, tone_count: int) -> float:
    """Absence threshold of a signal whose ``tone_count`` nominal powers sum to
    ``total_power``: ``BETA_RATIO`` times their mean."""
    return BETA_RATIO * (total_power / tone_count)


@dataclass(frozen=True)
class DetectionOutcome:
    """Detected sample location, or absence.

    ``location is None`` means the signal was declared not present;
    ``peak_norm_power`` is the exact normalized power of the window the fine
    scan picked (None when that window fails a sanity check).
    """

    location: int | None
    peak_norm_power: float | None


def frequency_bin(freq: float, sample_rate: float, window_length: int) -> int:
    """Spectral index ``floor(freq / sample_rate * window_length)``.

    Frequencies above half the sample rate are legal (their content aliases to
    the mirrored bin); the fold point itself and anything outside ``[0,
    sample_rate)`` is rejected.
    """
    if freq < 0 or freq >= sample_rate:
        raise ValueError(f"frequency {freq} outside [0, sample_rate)")
    if freq == sample_rate / 2:
        raise ValueError("frequency at the fold point (half the sample rate)")
    return int(math.floor(freq / sample_rate * window_length))


# A session reads the nominal rate's table and a skewed recorder's; four
# entries leave room for a one-off window length.
@lru_cache(maxsize=4)
def candidate_bin_table(sample_rate: float, window_length: int) -> np.ndarray:
    """(N, 2*THETA+1) one-sided bin indices per candidate, clamped then folded,
    around each candidate's ``frequency_bin``. Built once per key and shared
    read-only."""
    first = np.array([frequency_bin(f, sample_rate, window_length) for f in signal.CANDIDATES], dtype=np.intp)
    k = np.clip(first[:, None] + np.arange(-THETA, THETA + 1), 0, window_length - 1)
    table = np.where(k > window_length // 2, window_length - k, k)
    table.setflags(write=False)
    return table


def measure_candidate_powers(window: np.ndarray, sample_rate: float) -> np.ndarray:
    """Per-candidate power of one window: sum of the 2*THETA+1 bins around
    each candidate's index. This is the measurement convention shared by
    synthesis (nominal powers) and detection."""
    w = np.asarray(window, dtype=np.float64)
    table = candidate_bin_table(sample_rate, w.shape[-1])
    return _batch_candidate_powers(w, slice(0, 1), w.shape[-1], table)[0]


# Windows per block in a scan: bounds the spectra, or the sliding sums, held
# at once (a fine scan reads 301 windows).
_SCAN_BLOCK = 64


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one row after another. ``ndarray.sum`` picks
    its order from the memory layout (pairwise for a lone window), so the same
    window would sum differently alone and in a block. Adding whole rows keeps
    each addition a contiguous vector add; ``np.cumsum(rows, axis=0)`` gives
    the same sums but loops over the short first axis innermost (~6x slower)."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _batch_candidate_powers(x: np.ndarray, starts: slice, length: int, table: np.ndarray) -> np.ndarray:
    """Per-candidate powers of the windows ``x[s:s+length]``, ``s`` in ``starts``."""
    if length < 2 or length & (length - 1):
        raise ValueError(f"window length must be a power of two, got {length}")
    windows = sliding_window_view(x, length)[starts]
    out = np.empty((table.shape[0], windows.shape[0]))
    for i in range(0, windows.shape[0], _SCAN_BLOCK):
        # gathered as (bin offset, candidate, window)
        spec = np.fft.rfft(windows[i : i + _SCAN_BLOCK], axis=1).T[table.T]
        out[:, i : i + _SCAN_BLOCK] = _ordered_sum(spec.real**2 + spec.imag**2)
    return out.T


@lru_cache(maxsize=1)
def _roots_of_unity(length: int) -> np.ndarray:
    """``W**n`` for every ``n`` in ``[0, length)``, ``W = exp(-2j*pi/length)``."""
    roots = np.exp(-2j * np.pi * np.arange(length) / length)
    roots.setflags(write=False)
    return roots


# Both signals of a scan share one bin table, and each device's clock rate
# gives its own: two entries cover a session's two recorders.
@lru_cache(maxsize=2)
def _slide_phases(bins: bytes, step: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Phases of the sliding DFT over the bins ``k`` (an intp array's bytes):
    ``W**(k*m)`` for the ``step`` samples ``m`` of one slide, shape (step, K),
    and ``W**(k*step*i)`` for the ``_SCAN_BLOCK`` slides ``i`` of one block,
    shape (_SCAN_BLOCK, K)."""
    k = np.frombuffer(bins, dtype=np.intp)
    roots = _roots_of_unity(length)
    project = roots[np.arange(step)[:, None] * k % length]
    base = roots[np.arange(_SCAN_BLOCK)[:, None] * (step * k) % length]
    project.setflags(write=False)
    base.setflags(write=False)
    return project, base


def _sliding_candidate_powers(
    x: np.ndarray, lo: int, count: int, step: int, length: int, table: np.ndarray
) -> np.ndarray:
    """Per-candidate powers of the ``count`` windows ``x[s:s+length]``, ``s =
    lo + j*step``, by a sliding DFT over the table's bins only (Jacobsen and
    Lyons, "The sliding DFT", IEEE Signal Processing Magazine, 2003).

    Bin k of window j, times ``W**(k*step*j)``, keeps that bin's power, and
    from window j to j+1 it grows by ``W**(k*step*j)`` times the samples that
    enter minus those that leave, ``x[s_j+length+m] - x[s_j+m]``, projected on
    ``W**(k*m)``. Window 0's bins come from one rFFT. Each block of
    ``_SCAN_BLOCK`` slides is one real matmul against the projections (the
    complex table read as interleaved real and imaginary parts), one phase
    product, and a cumulative sum that carries on from the block before.
    Every phase is read by integer index from the table of roots of unity."""
    bins = table.T.ravel()  # offset-major: each window's offsets are summed over the middle axis
    project, base = _slide_phases(bins.tobytes(), step, length)
    roots = _roots_of_unity(length)
    span = (count - 1) * step
    slides = (x[lo + length : lo + length + span] - x[lo : lo + span]).reshape(count - 1, step)
    # row 0 holds the window before the block's first
    z = np.empty((_SCAN_BLOCK + 1, bins.shape[0]), dtype=np.complex128)
    z[0] = np.fft.rfft(x[lo : lo + length])[bins]
    out = np.empty((count, table.shape[0]))
    out[0] = _offset_sum(z[:1], table.shape)
    for a in range(0, count - 1, _SCAN_BLOCK):
        d = slides[a : a + _SCAN_BLOCK]
        n = d.shape[0]
        phased = project * roots[(step * a % length) * bins % length]
        np.matmul(d, phased.view(np.float64), out=z[1 : n + 1].view(np.float64))
        z[1 : n + 1] *= base[:n]
        np.cumsum(z[: n + 1], axis=0, out=z[: n + 1])
        out[a + 1 : a + 1 + n] = _offset_sum(z[1 : n + 1], table.shape)
        z[0] = z[n]
    return out


def _offset_sum(z: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(windows, candidates) powers of offset-major bins ``z`` (windows, K)
    of a (candidates, offsets) table."""
    power = z.real**2 + z.imag**2
    return np.einsum("woc->wc", power.reshape(z.shape[0], shape[1], shape[0]))


def in_set_mask(frequencies: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index of each tone (in the given order) and the in-set mask
    over the candidates."""
    position = {f: i for i, f in enumerate(signal.CANDIDATES)}
    try:
        index = np.array([position[f] for f in frequencies], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"signal frequency {exc.args[0]} is not a candidate") from None
    mask = np.zeros(signal.BIN_COUNT, dtype=bool)
    mask[index] = True
    return index, mask


def _gated_scores(cand_powers: np.ndarray, sig: "ReferenceSignal") -> np.ndarray:
    """Normalized power of ``sig`` per window (a row of ``cand_powers``);
    -inf where a sanity check fails."""
    index, mask = in_set_mask(sig.frequencies)
    # tones as rows; the signal's tones are sorted, so in candidate order
    p_in, p_out = cand_powers.T[index], cand_powers.T[~mask]
    r_in = np.array([sig.nominal_power[f] for f in sig.frequencies])
    ok = (p_in > ALPHA * r_in[:, None]).all(axis=0)
    ok &= (p_out < beta(sig.total_power, sig.spec.tone_count)).all(axis=0)
    return np.where(ok, _ordered_sum(p_in) - _ordered_sum(p_out), -np.inf)


def _window_score(x: np.ndarray, start: int, sig: "ReferenceSignal", table: np.ndarray) -> float:
    """Gated normalized power of the one window ``x[start:start+SIGNAL_LENGTH]``
    by the exact one-window kernel: the score a detection reports."""
    powers = _batch_candidate_powers(x, slice(start, start + 1), signal.SIGNAL_LENGTH, table)
    return float(_gated_scores(powers, sig)[0])


def _scan(x: np.ndarray, sigs: tuple["ReferenceSignal", ...], sample_rate: float) -> tuple[DetectionOutcome, ...]:
    """Locate each signal in the recording ``x``: one coarse scan shared by
    all of them, then a sliding-DFT fine scan of ``FINE_RADIUS`` samples
    around each signal's coarse argmax. Ties break to the smallest index.
    The fine scan only picks the window; that window's exact score is the
    reported peak and decides presence, so a window whose exact score fails a
    gate is not present. ``sample_rate`` is the recorder's."""
    length = signal.SIGNAL_LENGTH
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("recording must be one-dimensional")
    if x.shape[0] < length:
        raise ValueError("recording shorter than the reference signal")
    table = candidate_bin_table(sample_rate, length)
    max_start = x.shape[0] - length
    coarse_powers = _batch_candidate_powers(x, slice(0, max_start + 1, COARSE_STEP), length, table)
    outcomes = []
    for sig in sigs:
        anchor = int(np.argmax(_gated_scores(coarse_powers, sig))) * COARSE_STEP
        lo = max(0, anchor - FINE_RADIUS)
        count = (min(max_start, anchor + FINE_RADIUS) - lo) // FINE_STEP + 1
        fine_powers = _sliding_candidate_powers(x, lo, count, FINE_STEP, length, table)
        loc = lo + int(np.argmax(_gated_scores(fine_powers, sig))) * FINE_STEP
        peak = _window_score(x, loc, sig, table)
        present = peak >= EPSILON * sig.total_power  # False for -inf: the window failed a gate
        outcomes.append(DetectionOutcome(loc if present else None, None if peak == -np.inf else peak))
    return tuple(outcomes)


def norm_power(window: np.ndarray, sig: "ReferenceSignal", *, sample_rate: float) -> float | None:
    """Normalized power of ``sig``'s tone set in one signal-long window
    recorded at ``sample_rate``, or None when a sanity check fails (the
    explicit stand-in for the minus-infinity sentinel). It is the score a
    detection reports for the window it locates."""
    if np.shape(window) != (signal.SIGNAL_LENGTH,):
        raise ValueError(f"window must hold {signal.SIGNAL_LENGTH} samples, got shape {np.shape(window)}")
    table = candidate_bin_table(sample_rate, signal.SIGNAL_LENGTH)
    score = _window_score(np.asarray(window, dtype=np.float64), 0, sig, table)
    return None if score == -np.inf else score


def detect(x: np.ndarray, sig: "ReferenceSignal", *, sample_rate: float) -> DetectionOutcome:
    """Locate one reference signal in a recording made at ``sample_rate``
    (coarse scan, then a fine scan of ``FINE_RADIUS`` samples around the
    coarse argmax). Ties break to the smallest index."""
    return _scan(x, (sig,), sample_rate)[0]


def detect_pair(
    x: np.ndarray,
    sig_a: "ReferenceSignal",
    sig_b: "ReferenceSignal",
    *,
    sample_rate: float,
) -> tuple[DetectionOutcome, DetectionOutcome]:
    """Detect two reference signals in one scan of a recording made at
    ``sample_rate``. The coarse-pass window spectra are computed once and
    shared; outcomes are bit-identical to two independent ``detect`` calls.
    """
    return _scan(x, (sig_a, sig_b), sample_rate)


def cross_correlate_detect(x: np.ndarray, sig: "ReferenceSignal") -> int:
    """Baseline detector: argmax of the raw cross-correlation of the recording
    with the clean signal. No sanity checks and no absence verdict; ties break
    to the smallest index."""
    xf = np.asarray(x, dtype=np.float64)
    n, m = xf.shape[0], sig.samples.shape[0]
    if n < m:
        raise ValueError("recording shorter than the reference signal")
    # A circular correlation of length n wraps only at lags past n - m.
    corr = np.fft.irfft(np.fft.rfft(xf) * np.conj(np.fft.rfft(sig.samples, n)), n)[: n - m + 1]
    return int(np.argmax(corr))
