"""Independent oracles used by the tests, and readers for the WAV dumps the
command line writes.

The oracles deliberately avoid the production code paths: per-bin powers come
from direct complex projections, cumulative sums or one full rFFT per window
instead of the package's sliding kernel. Four references are the
exception. The per-span sliding DFT is the search with the package's phase
tables, summed by ``np.cumsum``: the sliding pass must reproduce it bit for
bit. The per-span detector is the own-first detector with the package's
gates and that per-span sliding DFT, and it rescores every pick, even one
whose span fails every gate. The session locator repeats a session's Step IV with
the package's own spans and partner lags, to check that a replay or a dump
finds the transcript's locations. The full-buffer recording propagates each emission
into a zeroed buffer of the whole scene, with an inline phase ramp, and sums
the buffers, with the package's delay, gain, noise mask and noise seeds:
``channel.record`` must give its samples bit for bit. The FRR/FAR closed forms
here are the package's model rearranged (``erf`` and the density at both ends
instead of ``erfc`` and the antiderivative ``G``); the independent reference
for the model is a quadrature in ``test_evaluation``, and scipy is imported
only by the tests that use it as a reference.
"""

from __future__ import annotations

import math
import tracemalloc
import wave
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sonicauth import channel as ch
from sonicauth import spectrum
from sonicauth.protocol import PLAYBACK_START_S, _locate_signals, _to_samples
from sonicauth.signal import AMPLITUDE_BUDGET, CANDIDATES, SAMPLE_RATE, SIGNAL_LENGTH, ReferenceSignal
from sonicauth.spectrum import detect_pair  # bound here, so a test that patches the module's name does not reach it


def load_wav(path: str) -> tuple[np.ndarray, int]:
    """Read a mono 16-bit PCM WAV file, returning (samples, sample_rate)."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype=np.int16).copy(), rate


def load_signal(wav_path: str, json_path: str) -> ReferenceSignal:
    """Rebuild a reference signal from a WAV dump: the JSON file is its link
    header, so the header's length, the header and the WAV's samples make up
    its link payload."""
    samples, _ = load_wav(wav_path)
    with open(json_path, "rb") as fh:
        header = fh.read()
    return ReferenceSignal.from_bytes(len(header).to_bytes(4, "big") + header + samples.tobytes())


def traced_peak(run) -> int:
    """Bytes the traced peak rises by while ``run()`` runs, after one call
    that fills the caches it reads."""
    run()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def power_spectrum(window: np.ndarray) -> np.ndarray:
    """One-sided squared-magnitude DFT of a rectangular (unwindowed) block:
    ``powers[k]`` at frequency ``k * f_s / n``, one rFFT of the whole block."""
    spec = np.fft.rfft(np.asarray(window, dtype=np.float64))
    return spec.real**2 + spec.imag**2


def direct_bin_power(x: np.ndarray, k: int, length: int) -> float:
    """|DFT(x)[k]|^2 by direct projection (no FFT)."""
    t = np.arange(length)
    z = np.exp(-2j * np.pi * k * t / length)
    return float(np.abs(np.dot(np.asarray(x, dtype=np.float64)[:length], z)) ** 2)


def folded_bins(freq: float, sample_rate: float, length: int, theta: int) -> np.ndarray:
    """Bin window around a candidate, clamped then mirror-folded (independent
    reimplementation of the detection convention)."""
    i = int(math.floor(freq / sample_rate * length))
    k = np.arange(i - theta, i + theta + 1)
    k = np.clip(k, 0, length - 1)
    return np.where(k > length // 2, length - k, k)


def direct_candidate_power(
    x: np.ndarray, freq: float, sample_rate: float, length: int, theta: int
) -> float:
    """Per-candidate power via direct projections."""
    total = 0.0
    for k in folded_bins(freq, sample_rate, length, theta):
        total += direct_bin_power(x, int(k), length)
    return total


def sliding_candidate_powers(
    x: np.ndarray, candidates: tuple[float, ...], sample_rate: float, length: int, theta: int
) -> np.ndarray:
    """Per-candidate power at every window start, via cumulative sums of
    complex demodulates (O(N) per bin, no FFT). Shape (n_windows, N_cand).

    ``exp(-2j*pi*k*t/length)`` has period ``length`` in ``t``: each bin's
    exponential is tabulated over one period and broadcast over the recording,
    zero-padded and folded into rows of ``length`` samples."""
    xf = np.asarray(x, dtype=np.float64)
    n = xf.shape[0]
    n_win = n - length + 1
    rows = np.zeros(-(-n // length) * length, dtype=complex)
    rows[:n] = xf
    rows = rows.reshape(-1, length)
    t = np.arange(length)
    unit = np.exp(-2j * np.pi * t / length)
    # column 0 of the running sums stays zero: the empty prefix
    csum = np.zeros((2 * theta + 1, n + 1), dtype=complex)
    out = np.zeros((len(candidates), n_win))
    for c, freq in enumerate(candidates):
        ks, mult = np.unique(folded_bins(freq, sample_rate, length, theta), return_counts=True)
        period = unit[np.outer(ks, t) % length]
        z = (rows[None, :, :] * period[:, None, :]).reshape(len(ks), -1)[:, :n]
        np.cumsum(z, axis=1, out=csum[: len(ks), 1:])
        seg = csum[: len(ks), length:] - csum[: len(ks), :-length]
        out[c] = mult @ (seg.real**2 + seg.imag**2)
    return out.T


def batch_candidate_powers(x: np.ndarray, starts: slice, table: np.ndarray) -> np.ndarray:
    """Per-candidate powers, (windows, N), of the windows of ``x`` starting at
    ``starts``: one rFFT per window, ``spectrum._SCAN_BLOCK`` windows at a
    time, read in place from the recording as a strided view. Each
    candidate's 2*THETA+1 bins are gathered, squared and added one offset
    after another, the order the package's kernel adds them in."""
    windows = sliding_window_view(x, SIGNAL_LENGTH)[starts]
    out = np.empty((windows.shape[0], table.shape[0]))
    for i in range(0, windows.shape[0], spectrum._SCAN_BLOCK):
        gathered = np.fft.rfft(windows[i : i + spectrum._SCAN_BLOCK])[:, table]
        power = gathered.real**2 + gathered.imag**2
        block = out[i : i + spectrum._SCAN_BLOCK]
        block[:] = power[:, :, 0]
        for offset in range(1, table.shape[1]):
            block += power[:, :, offset]
    return out


def per_span_sliding_powers(x: np.ndarray, lo: int, count: int, step: int, table: np.ndarray) -> np.ndarray:
    """Per-candidate powers of the ``count`` signal-long windows
    ``x[s:s+length]``, ``s = lo + j*step``, by the sliding DFT over one span:
    window 0's bins from one rFFT, then per block of ``spectrum._SCAN_BLOCK``
    slides one real matmul, one phase product and ``np.cumsum`` along the
    windows. Shape (count, N)."""
    length = SIGNAL_LENGTH
    bins = table.T.ravel()
    base = spectrum._slide_phases(bins.tobytes(), step)
    roots = spectrum._roots_of_unity()
    project = roots[np.arange(step)[:, None] * bins % length]
    span = (count - 1) * step
    slides = (x[lo + length : lo + length + span] - x[lo : lo + span]).reshape(count - 1, step)
    z = np.empty((spectrum._SCAN_BLOCK + 1, bins.shape[0]), dtype=np.complex128)
    z[0] = np.fft.rfft(x[lo : lo + length])[bins]

    def offset_sum(rows):
        power = rows.real**2 + rows.imag**2
        return np.einsum("woc->wc", power.reshape(rows.shape[0], table.shape[1], table.shape[0]))

    out = np.empty((count, table.shape[0]))
    out[0] = offset_sum(z[:1])
    for a in range(0, count - 1, spectrum._SCAN_BLOCK):
        d = slides[a : a + spectrum._SCAN_BLOCK]
        n = d.shape[0]
        phased = project * roots[(step * a % length) * bins % length]
        np.matmul(d, phased.view(np.float64), out=z[1 : n + 1].view(np.float64))
        z[1 : n + 1] *= base[:n]
        np.cumsum(z[: n + 1], axis=0, out=z[: n + 1])
        out[a + 1 : a + 1 + n] = offset_sum(z[1 : n + 1])
        z[0] = z[n]
    return out


def per_span_detect_pair(x: np.ndarray, own, partner, sample_rate: float, own_span, partner_lags) -> tuple:
    """Reference detector, own signal first, in which each signal's
    ``FINE_STEP``-grid windows are scored by ``per_span_sliding_powers`` and
    the picked window rescored by the exact kernel. The own signal's windows
    start in ``own_span``; once it is present at ``l``, the partner's start
    in ``[l + partner_lags[0], l + partner_lags[1]]``. Each keeps only the
    windows that fit the recording, and is absent with no peak when none
    does. The partner of an absent own signal is absent with no peak."""
    step = spectrum.FINE_STEP
    x = np.asarray(x, dtype=np.float64)
    table = spectrum.candidate_bin_table(sample_rate)

    def locate(sig, lo, hi):
        lo, hi = math.ceil(max(0, lo) / step) * step, min(x.shape[0] - SIGNAL_LENGTH, hi) // step * step
        if lo > hi:
            return spectrum.DetectionOutcome(None, None)
        gate = spectrum._gate(sig)
        powers = per_span_sliding_powers(x, lo, (hi - lo) // step + 1, step, table)
        loc = lo + int(np.argmax(spectrum._gated_scores(powers, gate))) * step
        peak = spectrum._window_score(x, loc, gate, table)
        present = peak >= spectrum.EPSILON * sig.total_power
        return spectrum.DetectionOutcome(loc if present else None, None if peak == -np.inf else peak)

    found = locate(own, *own_span)
    if found.location is None:
        return found, spectrum.DetectionOutcome(None, None)
    return found, locate(partner, found.location + partner_lags[0], found.location + partner_lags[1])


def detect_own(x: np.ndarray, sig, *, sample_rate: float):
    """``sig``'s outcome as its own signal searched over the whole recording,
    which does not depend on the partner or its lags."""
    return detect_pair(x, sig, sig, sample_rate=sample_rate, own_span=(0, len(x)), partner_lags=(0, 0))[0]


def session_locations(recordings, refs, rates, gap: int, speed_of_sound: float) -> dict:
    """The four locations of a session's Step IV, keyed as a transcript's:
    each device locates its own signal in its recording (``recordings``, the
    authenticating device's first) over the starts its schedule allows, then
    its partner's at the lags the schedule allows. ``refs`` are the
    authenticating and the vouching signal, ``rates`` the two recorders'
    rates."""
    (rec_a, rec_v), (sig_a, sig_v), (f_a, f_v) = recordings, refs, rates
    at_a = _to_samples(PLAYBACK_START_S)
    aa, av = _locate_signals(rec_a, sig_a, sig_v, f_a, at_a, at_a + gap, speed_of_sound)
    vv, va = _locate_signals(rec_v, sig_v, sig_a, f_v, at_a + gap, at_a, speed_of_sound)
    return {"l_aa": aa.location, "l_av": av.location, "l_va": va.location, "l_vv": vv.location}


def exhaustive_detect(x, sig, sample_rate: float):
    """Step-1 exhaustive scan with the same gating semantics and constants as
    the detector; returns (location or None, peak score or None)."""
    powers = sliding_candidate_powers(x, CANDIDATES, sample_rate, SIGNAL_LENGTH, spectrum.THETA)
    index = {f: i for i, f in enumerate(CANDIDATES)}
    mask = np.zeros(len(CANDIDATES), dtype=bool)
    r_vec = np.zeros(len(CANDIDATES))
    for f in sig.frequencies:
        mask[index[f]] = True
        r_vec[index[f]] = sig.nominal_power[f]
    beta = spectrum.BETA_RATIO * sig.total_power / len(sig.frequencies)
    p_in = powers[:, mask]
    p_out = powers[:, ~mask]
    ok = (p_in > spectrum.ALPHA * r_vec[mask]).all(axis=1) & (p_out < beta).all(axis=1)
    scores = np.where(ok, p_in.sum(axis=1) - p_out.sum(axis=1), -np.inf)
    best = int(np.argmax(scores))
    peak = float(scores[best])
    if peak == -np.inf:
        return None, None
    if peak < spectrum.EPSILON * sig.total_power:
        return None, peak
    return best, peak


def loop_tone_sum(spec, phases, length=SIGNAL_LENGTH):
    """Reference renderer: one ``np.sin`` per tone over a ``length``-sample
    burst, for one phase vector or a stack of them (``phases[..., k]`` is
    tone k's)."""
    phases = np.asarray(phases)
    amp = AMPLITUDE_BUDGET / spec.tone_count
    t = np.arange(length, dtype=np.float64)
    x = np.zeros(phases.shape[:-1] + (length,), dtype=np.float64)
    for k, f in enumerate(spec.frequencies):
        x += amp * np.sin(2.0 * np.pi * f * t / SAMPLE_RATE + phases[..., k, None])
    return x


def full_buffer_propagate(emission, dst_pos, cfg, duration: int) -> np.ndarray:
    """Reference propagation: one emission's contribution at ``dst_pos`` as a
    zeroed buffer of ``duration`` samples, its fractional shift's phase ramp
    taken by an inline ``np.exp``."""
    out = np.zeros(duration)
    delay = ch.propagation_delay_samples(emission.position, dst_pos, cfg)
    whole = int(np.floor(delay))
    frac = delay - whole
    if emission.emit_time + whole >= duration:
        return out
    w = np.asarray(emission.waveform, dtype=np.float64) * ch.path_gain(emission.position, dst_pos, cfg)
    lead = 0
    if frac > 0.0:
        lead = ch._SHIFT_PAD
        length = w.shape[0] + 2 * lead
        n = ch.fast_fft_length(length)
        padded = np.zeros(n)
        padded[lead : lead + w.shape[0]] = w
        k = np.arange(n // 2 + 1)
        w = np.fft.irfft(np.fft.rfft(padded) * np.exp(-2j * np.pi * k * frac / n), n)[:length]
    w = np.convolve(w, cfg.smoothing_kernel)
    start = emission.emit_time + whole - lead
    lo, hi = max(start, 0), min(start + w.shape[0], duration)
    if hi > lo:
        out[lo:hi] = w[lo - start : hi - start]
    return out


def full_buffer_record(scene, device_id: str, cfg) -> np.ndarray:
    """Reference recording: every emission's full-length buffer summed into
    the mix in emission order, the environment noise drawn as rFFT bins and
    added, the Fourier resampling to a skewed clock and the saturating int16
    quantization, each step out of place."""
    (idx,) = [i for i, r in enumerate(scene.recorders) if r.device_id == device_id]
    rec = scene.recorders[idx]
    n = scene.duration
    mix = np.zeros(n)
    for emission in scene.emissions:
        mix += full_buffer_propagate(emission, rec.position, cfg, n)
    rms = ch.ENVIRONMENTS[cfg.environment]
    if rms:
        mask = ch._noise_mask(n)
        rng = ch._noise_rng(scene, idx)
        shaped = np.fft.irfft(rng.standard_normal(2 * mask.shape[0]).view(np.complex128) * mask, n)
        mix += shaped * (rms / np.sqrt(np.mean(shaped**2)))
    if rec.sample_rate != ch.BASE_SAMPLE_RATE:
        m = round(n * rec.sample_rate / ch.BASE_SAMPLE_RATE)
        spec = np.fft.rfft(mix)
        if n % 2 == 0 and m > n:
            spec[n // 2] *= 0.5
        if m % 2 == 0 and m < n:
            spec[m // 2] *= 2.0
        mix = np.fft.irfft(spec, m) * (m / n)
    return np.clip(np.rint(mix), -32768, 32767).astype(np.int16)


def noise_mask(n: int, cutoff: float, sample_rate: float = 44_100.0, tail: float = 0.05) -> np.ndarray:
    """Reference spectral mask of the environment noise over the ``n``-sample
    rFFT bins: 1 up to the knee at 0.82 * cutoff, a raised-cosine ramp down to
    ``tail`` at the cutoff, ``tail`` above it."""
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    knee = 0.82 * cutoff
    mask = np.full(freqs.shape, tail)
    mask[freqs <= knee] = 1.0
    ramp = (freqs > knee) & (freqs <= cutoff)
    x = (freqs[ramp] - knee) / (cutoff - knee)
    mask[ramp] = tail + (1.0 - tail) * 0.5 * (1.0 + np.cos(np.pi * x))
    return mask


def time_domain_noise(rms: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Environment noise drawn in the time domain: ``n`` white samples,
    shaped by the 6 kHz noise mask through an rFFT and an irFFT, scaled to
    ``rms``."""
    white = rng.standard_normal(n)
    shaped = np.fft.irfft(np.fft.rfft(white) * noise_mask(n, 6000.0), n)
    return shaped * (rms / np.sqrt(np.mean(shaped**2)))


def smooth_length_search(n: int) -> int:
    """The smallest integer >= ``n`` with no prime factor above 7, by trying
    each in turn."""
    k = n
    while True:
        rest = k
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def loop_render(spec, phases, length=SIGNAL_LENGTH):
    x = loop_tone_sum(spec, phases, length)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int16)


def proper_subsets(items: tuple) -> list[frozenset]:
    """All non-empty proper subsets, enumerated by brute force."""
    out = []
    for n in range(1, len(items)):
        out.extend(frozenset(c) for c in combinations(items, n))
    return out


_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / _SQRT2PI


def _std_normal_cdf(u: float) -> float:
    return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))


def closed_form_frr(tau: float, sigma: float) -> float:
    """FRR = (1/tau) * Int_0^tau Pr[N(d, sigma) > tau] dd in closed form."""
    big_t = tau / sigma
    integral = big_t * _std_normal_cdf(-big_t) + _phi(0.0) - _phi(big_t)
    return sigma * integral / tau


def closed_form_far(tau: float, sigma: float, detect_range: float, pairing_range: float) -> float:
    """FAR = Int_tau^min(ds,bt) Pr[N(d, sigma) <= tau] dd / (bt - tau)."""
    big_u = (min(detect_range, pairing_range) - tau) / sigma
    integral = big_u * _std_normal_cdf(-big_u) + _phi(0.0) - _phi(big_u)
    return sigma * integral / (pairing_range - tau)
