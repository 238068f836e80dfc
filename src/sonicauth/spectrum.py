"""Power spectra and sliding-window detection of reference signals.

The detector slides a window over the recording, computes the window's power
spectrum, and scores each window by the normalized power of the sought tone
set: the summed power at in-set candidates minus the summed power at out-of-set
candidates. Two sanity checks gate the score before it can compete for the
argmax:

* presence: every in-set candidate must carry more than ``alpha`` times its
  nominal power (hardware attenuation allowance);
* absence: every out-of-set candidate must stay below ``beta`` (rejects
  broadband interference and all-frequency spoofing).

Windows failing either check score negative infinity. A coarse scan with a
large step finds the neighbourhood of the maximum, a fine scan pinpoints it,
and the detection is declared absent when the best score stays below
``epsilon`` times the signal's total nominal power. Each scan reads its evenly
spaced windows in place from the recording, as a strided view, without copying.

Candidate frequencies may lie above half the sample rate; their spectral
content then appears at the mirrored (aliased) bin of the real FFT, so bin
indices are folded onto the one-sided spectrum rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
    from .signal import FrequencyGrid, ReferenceSignal


@dataclass(frozen=True)
class DetectionParams:
    """Thresholds and scan steps for the sliding-window detector.

    ``beta_ratio`` scales a signal's mean per-tone nominal power into the
    absolute out-of-set threshold beta; keeping ``beta_ratio < alpha``
    guarantees the all-frequency spoofing defence (no single per-tone power
    can pass both checks at once).
    """

    alpha: float = 0.01
    epsilon: float = 0.01
    beta_ratio: float = 0.005
    theta: int = 5
    coarse_step: int = 1000
    fine_step: int = 10
    fine_radius: int = 1500

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= self.alpha < 1.0:
            raise ValueError("need 0 < epsilon <= alpha < 1")
        if not 0.0 < self.beta_ratio < self.alpha:
            raise ValueError("need 0 < beta_ratio < alpha")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not self.coarse_step >= self.fine_step >= 1:
            raise ValueError("need coarse_step >= fine_step >= 1")
        if self.fine_radius < self.coarse_step:
            raise ValueError("fine_radius must cover at least one coarse step")


@dataclass(frozen=True, eq=False)
class PowerSpectrumResult:
    """One-sided power spectrum: ``powers[k]`` at frequency ``k * f_s / n``."""

    powers: np.ndarray
    window_length: int
    sample_rate: float

    def bin_frequency(self, k: int) -> float:
        return k * self.sample_rate / self.window_length


@dataclass(frozen=True)
class DetectionOutcome:
    """Detected sample location, or absence.

    ``location is None`` means the signal was declared not present;
    ``peak_norm_power`` is the best normalized power seen (None when every
    window failed the sanity checks).
    """

    location: int | None
    peak_norm_power: float | None

    @property
    def not_present(self) -> bool:
        return self.location is None


def power_spectrum(window: np.ndarray, sample_rate: float = 44_100.0) -> PowerSpectrumResult:
    """One-sided squared-magnitude DFT of a rectangular (unwindowed) block."""
    w = np.asarray(window, dtype=np.float64)
    n = w.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"window length must be a power of two, got {n}")
    spec = np.fft.rfft(w)
    return PowerSpectrumResult(powers=spec.real**2 + spec.imag**2, window_length=n, sample_rate=sample_rate)


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


def candidate_bin_table(
    grid: "FrequencyGrid", sample_rate: float, window_length: int, theta: int
) -> np.ndarray:
    """(N, 2*theta+1) one-sided bin indices per candidate, clamped then folded."""
    freqs = np.asarray(grid.candidates, dtype=np.float64)
    bad = (freqs < 0) | (freqs >= sample_rate) | (freqs == sample_rate / 2)
    if bad.any():
        frequency_bin(float(freqs[bad][0]), sample_rate, window_length)  # raises the ValueError
    first = np.floor(freqs / sample_rate * window_length).astype(np.intp)
    k = np.clip(first[:, None] + np.arange(-theta, theta + 1), 0, window_length - 1)
    return np.where(k > window_length // 2, window_length - k, k)


def measure_candidate_powers(
    window: np.ndarray, grid: "FrequencyGrid", sample_rate: float, theta: int
) -> np.ndarray:
    """Per-candidate power of one window: sum of the 2*theta+1 bins around
    each candidate's index. This is the measurement convention shared by
    synthesis (nominal powers) and detection."""
    w = np.asarray(window, dtype=np.float64)
    table = candidate_bin_table(grid, sample_rate, w.shape[-1], theta)
    return _batch_candidate_powers(w, slice(0, 1), w.shape[-1], table)[0]


# Windows per rFFT in a scan: bounds the spectra held at once (a fine scan
# reads 301 windows) without changing any result.
_SCAN_BLOCK = 64


def _batch_candidate_powers(x: np.ndarray, starts: slice, length: int, table: np.ndarray) -> np.ndarray:
    """Per-candidate powers of the windows ``x[s:s+length]``, ``s`` in ``starts``."""
    if length < 2 or length & (length - 1):
        raise ValueError(f"window length must be a power of two, got {length}")
    windows = sliding_window_view(x, length)[starts]
    out = np.empty((windows.shape[0], table.shape[0]))
    # Blocks of near-equal size, so a multi-window scan never has a one-window
    # block: numpy sums a lone window's bins in another order (last bits differ).
    blocks = -(-windows.shape[0] // _SCAN_BLOCK)
    for block, rows in zip(np.array_split(windows, blocks), np.array_split(out, blocks)):
        spec = np.fft.rfft(block, axis=1)[:, table]
        rows[:] = (spec.real**2 + spec.imag**2).sum(axis=2)
    return out


def in_set_mask(frequencies: tuple[float, ...], grid: "FrequencyGrid") -> tuple[np.ndarray, np.ndarray]:
    """Grid index of each tone (in the given order) and the in-set mask over
    the grid's candidates."""
    position = {f: i for i, f in enumerate(grid.candidates)}
    try:
        index = np.array([position[f] for f in frequencies], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"signal frequency {exc.args[0]} not on the grid") from None
    mask = np.zeros(len(grid.candidates), dtype=bool)
    mask[index] = True
    return index, mask


def _gate_arrays(
    frequencies: tuple[float, ...],
    nominal_power: dict[float, float],
    grid: "FrequencyGrid",
    params: DetectionParams,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Return (in-set mask over candidates, per-candidate nominal power,
    beta, total nominal power) for one tone set."""
    index, mask = in_set_mask(frequencies, grid)
    r_vec = np.zeros(len(grid.candidates))
    r_vec[index] = [nominal_power[f] for f in frequencies]
    total = sum(nominal_power[f] for f in frequencies)
    return mask, r_vec, params.beta_ratio * (total / len(frequencies)), total


def _gated_scores(
    cand_powers: np.ndarray, mask: np.ndarray, r_vec: np.ndarray, beta: float, alpha: float
) -> np.ndarray:
    """Normalized power per window; -inf where a sanity check fails."""
    p_in = cand_powers[:, mask]
    p_out = cand_powers[:, ~mask]
    ok = (p_in > alpha * r_vec[mask]).all(axis=1)
    if p_out.shape[1]:
        ok &= (p_out < beta).all(axis=1)
        scores = p_in.sum(axis=1) - p_out.sum(axis=1)
    else:
        scores = p_in.sum(axis=1)
    return np.where(ok, scores, -np.inf)


def norm_power(
    window: np.ndarray,
    frequencies: tuple[float, ...],
    nominal_power: dict[float, float],
    grid: "FrequencyGrid",
    params: DetectionParams = DetectionParams(),
    sample_rate: float = 44_100.0,
) -> float | None:
    """Normalized power of a tone set in one window, or None when a sanity
    check fails (the explicit stand-in for the minus-infinity sentinel)."""
    cand = measure_candidate_powers(window, grid, sample_rate, params.theta)
    mask, r_vec, beta, _ = _gate_arrays(frequencies, nominal_power, grid, params)
    score = _gated_scores(cand[None], mask, r_vec, beta, params.alpha)[0]
    return None if score == -np.inf else float(score)


class _Scanner:
    """Shared coarse/fine scan machinery; detect and detect_pair both run
    through here so a paired scan is bit-identical to two single scans."""

    def __init__(
        self,
        x: np.ndarray,
        length: int,
        grid: "FrequencyGrid",
        params: DetectionParams,
        sample_rate: float,
    ) -> None:
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim != 1:
            raise ValueError("recording must be one-dimensional")
        if self.x.shape[0] < length:
            raise ValueError("recording shorter than the reference signal")
        self.length = length
        self.params = params
        self.table = candidate_bin_table(grid, sample_rate, length, params.theta)
        self.max_start = self.x.shape[0] - length
        self.coarse = slice(0, self.max_start + 1, params.coarse_step)
        self.coarse_powers = _batch_candidate_powers(self.x, self.coarse, length, self.table)

    def run(self, sig: "ReferenceSignal", grid: "FrequencyGrid") -> DetectionOutcome:
        mask, r_vec, beta, total_r = _gate_arrays(sig.frequencies, sig.nominal_power, grid, self.params)
        coarse_scores = _gated_scores(self.coarse_powers, mask, r_vec, beta, self.params.alpha)
        anchor = int(np.argmax(coarse_scores)) * self.params.coarse_step

        lo = max(0, anchor - self.params.fine_radius)
        hi = min(self.max_start, anchor + self.params.fine_radius)
        fine = slice(lo, hi + 1, self.params.fine_step)
        fine_powers = _batch_candidate_powers(self.x, fine, self.length, self.table)
        fine_scores = _gated_scores(fine_powers, mask, r_vec, beta, self.params.alpha)
        best = int(np.argmax(fine_scores))
        peak = float(fine_scores[best])

        if peak == -np.inf:
            return DetectionOutcome(location=None, peak_norm_power=None)
        if peak < self.params.epsilon * total_r:
            return DetectionOutcome(location=None, peak_norm_power=peak)
        return DetectionOutcome(location=lo + best * self.params.fine_step, peak_norm_power=peak)


def detect(
    x: np.ndarray,
    sig: "ReferenceSignal",
    params: DetectionParams = DetectionParams(),
    *,
    grid: "FrequencyGrid" | None = None,
    sample_rate: float | None = None,
) -> DetectionOutcome:
    """Locate one reference signal in a recording (coarse scan, then a fine
    scan of ``fine_radius`` samples around the coarse argmax). Ties break to
    the smallest index. ``sample_rate`` is the recorder's rate and defaults to
    the signal's own."""
    grid = grid if grid is not None else sig.spec.grid
    fs = sample_rate if sample_rate is not None else sig.spec.sample_rate
    scanner = _Scanner(x, sig.spec.length, grid, params, fs)
    return scanner.run(sig, grid)


def detect_pair(
    x: np.ndarray,
    sig_a: "ReferenceSignal",
    sig_b: "ReferenceSignal",
    params: DetectionParams = DetectionParams(),
    *,
    grid: "FrequencyGrid" | None = None,
    sample_rate: float | None = None,
) -> tuple[DetectionOutcome, DetectionOutcome]:
    """Detect two reference signals in one scan of the recording.

    The coarse-pass window spectra are computed once and shared; outcomes are
    bit-identical to two independent ``detect`` calls.
    """
    if sig_a.spec.length != sig_b.spec.length:
        raise ValueError("paired detection requires equal signal lengths")
    grid = grid if grid is not None else sig_a.spec.grid
    fs = sample_rate if sample_rate is not None else sig_a.spec.sample_rate
    scanner = _Scanner(x, sig_a.spec.length, grid, params, fs)
    return scanner.run(sig_a, grid), scanner.run(sig_b, grid)


def cross_correlate_detect(x: np.ndarray, sig: "ReferenceSignal") -> int:
    """Baseline detector: argmax of the raw cross-correlation of the recording
    with the clean signal. No sanity checks and no absence verdict; ties break
    to the smallest index."""
    import scipy.signal  # loaded on first use: no session of the frequency detector calls it

    xf = np.asarray(x, dtype=np.float64)
    sf = sig.samples.astype(np.float64)
    if xf.shape[0] < sf.shape[0]:
        raise ValueError("recording shorter than the reference signal")
    corr = scipy.signal.correlate(xf, sf, mode="valid", method="fft")
    return int(np.argmax(corr))
