"""Power spectra and sliding-window detection of reference signals.

The detector slides a window over spans of the recording, computes the
window's power spectrum, and scores each window by the normalized power of
the sought tone set: the summed power at in-set candidates minus the summed
power at out-of-set candidates. Two sanity checks gate the score before it
can compete for the argmax:

* presence: every in-set candidate must carry more than ``ALPHA`` times its
  nominal power (hardware attenuation allowance);
* absence: every out-of-set candidate must stay below ``beta`` (rejects
  broadband interference and all-frequency spoofing).

Windows failing either check score negative infinity. A device knows when
it asked to play its own signal, so it searches that signal only over the
span of window starts its schedule allows (the protocol's start jitter
stands in for the unknown output latency), 48 windows in a session.
Each device plays at a fixed gap from its partner, so once its own signal
is located, the partner's can only arrive within one window of lags
(two-way ranging after BeepBeep, Peng et al., SenSys 2007), about 137
windows. A device that cannot place its own signal has no lag to search
from: its partner is absent too, and is not scanned.
Every candidate power comes from one kernel: a span of evenly spaced
windows, scanned by a sliding DFT over the bins the candidates read
(``_sliding_candidate_powers``). The first window's bins come from one rFFT
and each later window's from the samples that enter and leave it. Each
block of slides takes one phase product and one running sum, which adds the
block's windows one row after another, so each bin is summed in window
order, as a cumulative sum would sum it. A block's powers are squared in
place in the slide buffer itself, so the pass holds no power buffers of its
own. A one-window span, one rFFT, is its window's exact measurement: row 0
of every span, a synthesized signal's nominal powers and the reported peak.
Each signal's gate (tone indices, out-of-set indices, presence floors and
``beta``) is built once per search and read by the sliding and exact
scores. The sliding scores only pick the window, which is then rescored as
a one-window span (``_window_score``): that score is the reported peak, and
the detection is declared absent when it stays below ``EPSILON`` times the
signal's total nominal power. So a located window whose exact score fails a
gate is not present, and scanning it alone reproduces the peak bit for bit.
A span whose every window fails a gate is not rescored: its pick's exact
score is its row 0, -inf.

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

# ``signal`` imports this module first, so its constants are read at call time.
from . import signal

if TYPE_CHECKING:
    from .signal import ReferenceSignal


# The detector's fixed settings. An in-set tone passes the presence gate above
# ALPHA times its nominal power; the absence gate is ``beta``; a located window
# is present at EPSILON times the signal's total nominal power or more. A
# candidate's power sums the 2*THETA+1 bins around its own. A search steps
# FINE_STEP samples, on the grid of its multiples, over the window starts it is
# given. Keeping BETA_RATIO < ALPHA guarantees the all-frequency spoofing
# defence: no single per-tone power can pass both gates at once.
ALPHA = 0.01
EPSILON = 0.01
BETA_RATIO = 0.005
THETA = 5
FINE_STEP = 10


def beta(total_power: float, tone_count: int) -> float:
    """Absence threshold of a signal whose ``tone_count`` nominal powers sum to
    ``total_power``: ``BETA_RATIO`` times their mean."""
    return BETA_RATIO * (total_power / tone_count)


@dataclass(frozen=True)
class DetectionOutcome:
    """Detected sample location, or absence.

    ``location is None`` means the signal was declared not present;
    ``peak_norm_power`` is the exact normalized power of the window the
    search picked, None when that window fails a sanity check. A signal that
    no window was searched for has no peak either: one whose span holds no
    window of the recording, or the partner of an absent own signal.
    """

    location: int | None
    peak_norm_power: float | None


def frequency_bin(freq: float, sample_rate: float) -> int:
    """Spectral index ``floor(freq / sample_rate * SIGNAL_LENGTH)``.

    Frequencies above half the sample rate are legal (their content aliases to
    the mirrored bin); the fold point itself and anything outside ``[0,
    sample_rate)``, NaN included, is rejected, as is a sample rate that is not
    finite and positive.
    """
    if not signal._finite_positive(sample_rate):
        raise ValueError(f"sample_rate must be finite and positive, got {sample_rate}")
    if not signal._is_real(freq):
        raise ValueError(f"freq must be a real number, got {freq!r}")
    if not 0 <= freq < sample_rate:  # False for nan
        raise ValueError(f"freq {freq} outside [0, sample_rate) at sample_rate {sample_rate}")
    if freq == sample_rate / 2:
        raise ValueError("frequency at the fold point (half the sample rate)")
    return int(math.floor(freq / sample_rate * signal.SIGNAL_LENGTH))


# A session reads the nominal rate's table and a skewed recorder's; four
# entries leave room for a campaign's other recorder rates.
@lru_cache(maxsize=4)
def candidate_bin_table(sample_rate: float) -> np.ndarray:
    """(N, 2*THETA+1) one-sided bin indices per candidate, clamped then folded,
    around each candidate's ``frequency_bin``, in Fortran order, so that the
    kernel's offset-major bins are a view. Built once per rate and shared
    read-only; ``frequency_bin`` refuses a rate that puts a candidate off the
    spectrum. ``detect_pair`` checks the rate before it reads the table."""
    length = signal.SIGNAL_LENGTH
    first = np.array([frequency_bin(f, sample_rate) for f in signal.CANDIDATES], dtype=np.intp)
    k = np.clip(first[:, None] + np.arange(-THETA, THETA + 1), 0, length - 1)
    table = np.asfortranarray(np.where(k > length // 2, length - k, k))
    table.setflags(write=False)
    return table


# Slides per block in a search: bounds the sliding sums held at once (a
# session's own span holds 48 windows and its partner's about 137; a
# span over a whole recording holds thousands).
_SCAN_BLOCK = 64


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one row after another. ``ndarray.sum`` and
    ``np.add.reduce`` add pairwise along the axis fastest in memory, so they
    add in row order only when another axis is faster: over a C-contiguous
    array with more than one element per row, such as a block's gathered
    powers, (n, W), one ``add.reduce`` adds whole rows in order, each
    addition a contiguous vector add. A lone window's gathered powers, (n,
    1), hold their summed axis alone, so they are added as floats left to
    right. The same window then sums the same bits alone and in a block."""
    if rows.size == rows.shape[0]:
        return np.array([signal._left_sum(rows.ravel().tolist())])
    return np.add.reduce(rows, axis=0)


@lru_cache(maxsize=1)
def _roots_of_unity() -> np.ndarray:
    """``W**n`` for every ``n`` below ``SIGNAL_LENGTH``, ``W = exp(-2j*pi/SIGNAL_LENGTH)``."""
    length = signal.SIGNAL_LENGTH
    roots = np.exp(-2j * np.pi * np.arange(length) / length)
    roots.setflags(write=False)
    return roots


# Both signals of a scan share one bin table, and each device's clock rate
# gives its own: two entries cover a session's two recorders.
@lru_cache(maxsize=2)
def _slide_phases(bins: bytes, step: int) -> np.ndarray:
    """Phases of the sliding DFT over the bins ``k`` (an intp array's bytes):
    ``W**(k*step*i)`` for the ``_SCAN_BLOCK`` slides ``i`` of one block,
    shape (_SCAN_BLOCK, K)."""
    k = np.frombuffer(bins, dtype=np.intp)
    base = _roots_of_unity()[np.arange(_SCAN_BLOCK)[:, None] * (step * k) % signal.SIGNAL_LENGTH]
    base.setflags(write=False)
    return base


# A session's spans read at most three blocks per bin table: the partner's
# span holds up to 138 slides, and the own span's one block is the partner's
# first. Two tables' blocks fit, and a longer span reads its later blocks
# through the same cache.
@lru_cache(maxsize=6)
def _block_phases(bins: bytes, step: int, a: int) -> np.ndarray:
    """The projections of the block of slides from slide ``a`` on, phased to
    its first slide: ``W**(k*m)`` for the ``step`` samples ``m`` of one
    slide times ``W**(k*step*a)``, shape (step, K), for the bins ``k`` of
    ``_slide_phases``. It depends on the bins, the step and ``a`` alone, not
    on where the span starts."""
    k = np.frombuffer(bins, dtype=np.intp)
    length = signal.SIGNAL_LENGTH
    roots = _roots_of_unity()
    phased = roots[np.arange(step)[:, None] * k % length] * roots[(step * a % length) * k % length]
    phased.setflags(write=False)
    return phased


def _offset_sums(rows: np.ndarray, out: np.ndarray) -> None:
    """Powers of the complex bin rows ``rows``, (n, K), offset-major, into
    ``out``, (n, N): ``re*re + im*im`` per bin, squared in place in the rows'
    interleaved parts, with each candidate's offsets added in order."""
    parts = rows.view(np.float64)
    np.multiply(parts, parts, out=parts)
    real = parts[:, 0::2]
    np.add(real, parts[:, 1::2], out=real)
    np.einsum("woc->wc", real.reshape(rows.shape[0], -1, out.shape[1]), out=out)


def _sliding_candidate_powers(x: np.ndarray, lo: int, count: int, step: int, table: np.ndarray) -> np.ndarray:
    """Per-candidate powers, (count, N), of the ``count`` windows
    ``x[s:s+length]``, ``s = lo + j*step``, by a sliding DFT over the table's
    bins only (Jacobsen and Lyons, "The sliding DFT", IEEE Signal Processing
    Magazine, 2003). A candidate's power sums the 2*THETA+1 bins around its
    index in ``table``. A one-window span is one rFFT, with no slide buffer.

    Bin k of window j, times ``W**(k*step*j)``, keeps that bin's power, and
    from window j to j+1 it grows by ``W**(k*step*j)`` times the samples that
    enter minus those that leave, ``x[s_j+length+m] - x[s_j+m]``, projected on
    ``W**(k*m)``. Each block of ``_SCAN_BLOCK`` slides is one real matmul
    against the block's phased projections (``_block_phases``, cached, the
    complex table read as interleaved real and imaginary parts), one phase
    product and a running sum that carries on from the block before. The
    running sum adds the block's rows one after another, so each bin is
    summed in window order, as ``np.cumsum`` along the windows would sum it,
    but with each addition one contiguous vector add. The block's last row is
    then carried into row 0, and the rows are squared in place
    (``_offset_sums``), so the pass holds no power buffers of its own. Every
    phase is read by integer index from the table of roots of unity."""
    length = signal.SIGNAL_LENGTH
    bins = table.T.ravel()  # offset-major: each window's offsets are summed over the middle axis
    first = np.fft.rfft(x[lo : lo + length])[bins][None]
    out = np.empty((count, table.shape[0]))
    if count == 1:
        _offset_sums(first, out)
        return out
    key = bins.tobytes()  # one bytes object, so its hash is computed once per pass
    base = _slide_phases(key, step)
    slides = (x[lo + length : lo + length + (count - 1) * step] - x[lo : lo + (count - 1) * step]).reshape(-1, step)
    # (block row, bin); row 0 holds the window before the block's first
    z = np.empty((_SCAN_BLOCK + 1, bins.shape[0]), dtype=np.complex128)
    rows = list(z)
    z[0] = first
    _offset_sums(first, out[:1])  # squared in place once row 0 holds its copy
    for a in range(0, count - 1, _SCAN_BLOCK):
        d = slides[a : a + _SCAN_BLOCK]
        n = d.shape[0]
        np.matmul(d, _block_phases(key, step, a).view(np.float64), out=z[1 : n + 1].view(np.float64))
        z[1 : n + 1] *= base[:n]
        for i in range(1, n + 1):
            np.add(rows[i - 1], rows[i], out=rows[i])
        z[0] = z[n]  # carried before the rows are squared
        _offset_sums(z[1 : n + 1], out[a + 1 : a + n + 1])
    return out


def in_set_mask(frequencies: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index of each tone (in the given order) and the in-set mask
    over the candidates; the tones are a ``SignalSpec``'s, so candidates."""
    index = np.array([signal._CANDIDATE_INDEX[f] for f in frequencies], dtype=np.intp)
    mask = np.zeros(signal.BIN_COUNT, dtype=bool)
    mask[index] = True
    return index, mask


def _gate(sig: "ReferenceSignal") -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``sig``'s sanity checks, built once per scan: the candidate index of
    each tone (sorted, so in candidate order), the out-of-set candidates, the
    presence floors ``ALPHA`` times each tone's nominal power (a column), and
    the absence threshold ``beta``."""
    index, mask = in_set_mask(sig.frequencies)
    r_in = np.array([sig.nominal_power[f] for f in sig.frequencies])
    return index, np.flatnonzero(~mask), ALPHA * r_in[:, None], beta(sig.total_power, sig.spec.tone_count)


def _gated_scores(cand_powers: np.ndarray, gate: tuple) -> np.ndarray:
    """Normalized power per window (a row of ``cand_powers``) of the signal
    whose ``_gate`` is given; -inf where a sanity check fails."""
    index, out, floor, limit = gate
    # tones as rows
    p_in, p_out = cand_powers.T[index], cand_powers.T[out]
    ok = (p_in > floor).all(axis=0)
    ok &= (p_out < limit).all(axis=0)
    return np.where(ok, _ordered_sum(p_in) - _ordered_sum(p_out), -np.inf)


def _window_score(x: np.ndarray, start: int, gate: tuple, table: np.ndarray) -> float:
    """Gated normalized power of the one window ``x[start:start+SIGNAL_LENGTH]``,
    measured as a one-window span: the score a detection reports."""
    return float(_gated_scores(_sliding_candidate_powers(x, start, 1, FINE_STEP, table), gate)[0])


def _samples(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` as float64 samples; a ValueError names a shape that is not
    one-dimensional, a dtype that is not real or the first sample that is not
    finite."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {x.shape}")
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{what} must hold real samples, got dtype {x.dtype}")
    floating = x.dtype.kind == "f"  # integer and boolean samples are finite
    x = x.astype(np.float64, copy=False)
    if floating and not np.isfinite(x).all():
        i = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"{what} holds a non-finite sample, {x.flat[i]} at index {i}")
    return x


def _check_span(value, name: str) -> None:
    """Refuse a span of window starts or lags that is not two integers
    ``(lo, hi)`` with ``lo <= hi``, with a ValueError naming it."""
    if not (
        isinstance(value, tuple)
        and len(value) == 2
        and all(map(signal._is_integer, value))
        and value[0] <= value[1]
    ):
        raise ValueError(f"{name} must be two integers (lo, hi) with lo <= hi, got {value!r}")


def _locate(x: np.ndarray, sig: "ReferenceSignal", lo: int, hi: int, table: np.ndarray) -> DetectionOutcome:
    """``sig``'s outcome over the ``FINE_STEP``-grid window starts in ``[lo,
    hi]`` that fit the recording: absent with no peak when none does or every
    window fails a gate, else the sliding pass's pick, rescored as a
    one-window span."""
    lo = -(-max(0, lo) // FINE_STEP) * FINE_STEP
    hi = min(x.shape[0] - signal.SIGNAL_LENGTH, hi) // FINE_STEP * FINE_STEP
    if lo > hi:
        return DetectionOutcome(None, None)
    gate = _gate(sig)
    scores = _gated_scores(_sliding_candidate_powers(x, lo, (hi - lo) // FINE_STEP + 1, FINE_STEP, table), gate)
    best = int(np.argmax(scores))
    if scores[best] == -np.inf:
        return DetectionOutcome(None, None)
    loc = lo + best * FINE_STEP
    peak = _window_score(x, loc, gate, table)
    present = peak >= EPSILON * sig.total_power  # False for -inf: the window failed a gate
    return DetectionOutcome(loc if present else None, None if peak == -np.inf else peak)


def detect_pair(
    x: np.ndarray,
    own: "ReferenceSignal",
    partner: "ReferenceSignal",
    *,
    sample_rate: float,
    own_span: tuple[int, int],
    partner_lags: tuple[int, int],
) -> tuple[DetectionOutcome, DetectionOutcome]:
    """Detect a device's own reference signal and its partner's in the
    device's recording, made at ``sample_rate``, the recorder's rate.
    Returns the own outcome, then the partner's.

    The own signal is searched at the ``FINE_STEP``-grid windows starting in
    ``own_span`` that fit the recording, so its outcome does not depend on
    the partner: ``detect_pair(x, sig, sig, ...)[0]`` is ``sig``'s outcome
    alone. Once it is present at ``l``, the partner can only arrive at a lag
    the playback schedule allows, so it is searched only at the grid windows
    in ``[l + partner_lags[0], l + partner_lags[1]]`` that fit the
    recording. A signal none of whose windows fits or passes the gates is
    absent with no peak, and so is the partner of an absent own signal,
    which is not scanned: it has no lag to search from. Each search is one
    span of the sliding DFT. Ties break to the smallest index. The sliding
    scores only pick the window; that window's exact score
    (``_window_score``) is the reported peak and decides presence, so a
    window whose exact score fails a gate is not present.

    The rate must be a finite real number above the highest candidate; it is
    checked before ``candidate_bin_table``'s cache would hash it. The span
    and the lags are each two integers, the first no greater than the
    second.
    """
    x = _samples(x, "recording")
    if x.shape[0] < signal.SIGNAL_LENGTH:
        raise ValueError("recording shorter than the reference signal")
    highest = max(signal.CANDIDATES)
    if not (signal._finite_positive(sample_rate) and sample_rate > highest):
        raise ValueError(
            f"sample_rate must be finite and above the highest candidate, {highest:.2f} Hz, got {sample_rate!r}: "
            "a candidate outside [0, sample_rate) cannot be measured"
        )
    _check_span(own_span, "own_span")
    _check_span(partner_lags, "partner_lags")
    table = candidate_bin_table(sample_rate)
    found = _locate(x, own, *own_span, table)
    if found.location is None:
        return found, DetectionOutcome(None, None)
    return found, _locate(x, partner, found.location + partner_lags[0], found.location + partner_lags[1], table)


def cross_correlate_detect(x: np.ndarray, sig: "ReferenceSignal") -> int:
    """Baseline detector: argmax of the raw cross-correlation of the recording
    with the clean signal. No sanity checks and no absence verdict; ties break
    to the smallest index. A recording that is not real, or holds a sample
    that is not finite, raises a ValueError naming it."""
    xf = _samples(x, "recording")
    n, m = xf.shape[0], sig.samples.shape[0]
    if n < m:
        raise ValueError("recording shorter than the reference signal")
    # A circular correlation of length n wraps only at lags past n - m.
    corr = np.fft.irfft(np.fft.rfft(xf) * np.conj(np.fft.rfft(sig.samples, n)), n)[: n - m + 1]
    return int(np.argmax(corr))
