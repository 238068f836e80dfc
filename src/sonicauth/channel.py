"""Sample-accurate simulation of acoustic propagation between devices.

Emitted waveforms live on a common base-rate timeline, the signals' nominal
44.1 kHz. Propagation applies the travel delay (integer part by placement,
fractional part by an exact FFT phase shift), a distance-law amplitude scale,
a short FIR kernel standing in for the speaker/mic frequency response, and an
optional wall attenuation. A recorder sums every propagated emission
(including its own playback at the near-field floor distance), adds the
noise of the config's named environment (an RMS from ``ENVIRONMENTS``,
shaped below ``NOISE_CUTOFF_HZ`` and seeded by the scene seed and the
device's index), resamples by its clock-skew ratio when its rate differs
from the base rate, and saturating-quantizes to 16-bit.

A path's response to a read-only waveform (the all-frequency spoofer's, which
every session of a campaign replays from one place) is memoized per path, so
a campaign shifts and smooths it once per recorder rather than once per
session; a writeable waveform may change between calls and is always
propagated afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .signal import SAMPLE_RATE as BASE_SAMPLE_RATE
from .signal import _finite_positive, _finite_real, _is_integer, _is_real, _json_fields

DISTANCE_FLOOR_M = 0.1

# Near-delta, mildly asymmetric speaker/mic response. Energy-normalized;
# gain across the aliased candidate band (about 9.3-19 kHz) stays within
# a fraction of a dB so per-tone detection margins are deterministic.
DEFAULT_SMOOTHING_KERNEL = (
    1.0,
    0.025,
    0.012,
    -0.006,
    0.0035,
    -0.002,
    0.0011,
    -0.0006,
    0.0003,
)


def energy_normalized(taps: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    h = np.asarray(taps, dtype=np.float64)
    return tuple(h / np.sqrt((h**2).sum()))


# Background noise RMS per named environment. Almost all of the noise power
# sits below NOISE_CUTOFF_HZ, with a small broadband tail (about 0.7% of the
# total) standing in for the high-frequency residue of real environments.
ENVIRONMENTS: dict[str, float] = {
    "silent": 0.0,
    "office": 2500.0,
    "restaurant": 3800.0,
    "home": 4000.0,
    "street": 5000.0,
}

NOISE_CUTOFF_HZ = 6000.0
_NOISE_TAIL_AMPLITUDE = 0.05  # spectral amplitude above the cutoff, relative to the passband


@dataclass(frozen=True)
class ChannelConfig:
    """Propagation model parameters.

    The amplitude of a path scales as ``gain_at_1m / d**(attenuation_exponent/2)``
    with the distance clamped below at 0.1 m. The defaults are calibrated so
    that a default reference signal stops being detectable between 2 and 3
    metres (emergent range near 2.6 m) while a device's own playback never
    clips its recording.
    """

    speed_of_sound: float = 340.0
    attenuation_exponent: float = 1.4
    gain_at_1m: float = 0.2
    smoothing_kernel: tuple[float, ...] = field(
        default_factory=lambda: energy_normalized(DEFAULT_SMOOTHING_KERNEL)
    )
    environment: str = "office"
    wall_attenuation_db: float = 60.0
    wall_plane_x: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.environment, str) and self.environment in ENVIRONMENTS):
            raise ValueError(f"unknown environment {self.environment!r}; options: {sorted(ENVIRONMENTS)}")
        for name in ("speed_of_sound", "gain_at_1m"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("attenuation_exponent", "wall_attenuation_db"):
            if not _finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.wall_plane_x is not None and not _finite_real(self.wall_plane_x):
            raise ValueError(f"wall_plane_x must be finite or None, got {self.wall_plane_x}")
        taps = self.smoothing_kernel
        if not (_is_real_sequence(taps) and all(map(_finite_real, taps))):
            raise ValueError(f"smoothing_kernel must be a non-empty sequence of finite real taps, got {taps!r}")
        energy = float(np.sum(np.asarray(taps, dtype=np.float64) ** 2))
        if not abs(energy - 1.0) <= 1e-6:  # False for nan: taps whose squares overflow fail
            raise ValueError(f"smoothing_kernel must be finite and energy-normalized (sum of squares 1), got {energy}")
        # Stored as a tuple of floats whatever sequence it came as, so the
        # config hashes and the path memo can key on the kernel.
        object.__setattr__(self, "smoothing_kernel", tuple(map(float, taps)))


def _is_real_sequence(value) -> bool:
    """Whether ``value`` is a non-empty sequence of real numbers."""
    return isinstance(value, (tuple, list, np.ndarray)) and len(value) > 0 and all(_is_real(x) for x in value)


@dataclass(frozen=True)
class Emission:
    source_id: str
    waveform: np.ndarray
    emit_time: int
    position: tuple[float, ...]


@dataclass(frozen=True)
class Recorder:
    device_id: str
    position: tuple[float, ...]
    sample_rate: float = BASE_SAMPLE_RATE

    def __post_init__(self) -> None:
        where = f"device {self.device_id!r}"
        if not _is_real_sequence(self.position):
            raise ValueError(f"{where} position must be a non-empty sequence of real numbers, got {self.position!r}")
        if not all(map(_finite_real, self.position)):
            raise ValueError(f"{where} position must be finite, got {self.position}")
        if not _finite_positive(self.sample_rate):
            raise ValueError(f"{where} sample rate must be finite and positive, got {self.sample_rate}")


def _check_waveform(waveform, where: str) -> None:
    """``ValueError`` naming ``where`` unless ``waveform`` is a non-empty 1-D
    array of real, finite samples. Every emission the program makes is int16,
    so only a float waveform is scanned for non-finite samples."""
    if not isinstance(waveform, np.ndarray):
        raise ValueError(f"{where}: waveform must be a numpy array, got a {type(waveform).__name__}")
    if not (waveform.ndim == 1 and waveform.size and waveform.dtype.kind in "iuf"):
        raise ValueError(
            f"{where}: waveform must be a non-empty 1-D array of real samples, "
            f"got a {waveform.dtype} array of shape {waveform.shape}"
        )
    if waveform.dtype.kind == "f" and not np.isfinite(waveform).all():
        raise ValueError(f"{where}: waveform samples must be finite")


@dataclass(frozen=True)
class AcousticScene:
    emissions: tuple[Emission, ...]
    recorders: tuple[Recorder, ...]
    duration: int
    seed: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.duration) and self.duration > 0):
            raise ValueError(f"scene duration must be a positive integer sample count, got {self.duration!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"scene seed must be a non-negative integer, got {self.seed!r}")
        for e in self.emissions:
            where = f"emission from {e.source_id}"
            if not _is_integer(e.emit_time):
                raise ValueError(f"{where}: emit_time must be an integer sample index, got {e.emit_time!r}")
            if e.emit_time < 0:
                raise ValueError(f"{where} starts before the scene")
            if not _is_real_sequence(e.position):
                raise ValueError(f"{where}: position must be a non-empty sequence of real numbers, got {e.position!r}")
            if not all(map(_finite_real, e.position)):
                raise ValueError(f"{where}: position must be finite, got {e.position}")
            _check_waveform(e.waveform, where)
        ids = [r.device_id for r in self.recorders]
        for r in self.recorders:
            if ids.count(r.device_id) > 1:
                raise ValueError(f"two recorders share the device id {r.device_id!r}")


def _distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.shape != pb.shape:
        raise ValueError("positions must share dimensionality")
    with np.errstate(over="ignore"):
        d = float(np.linalg.norm(pa - pb))
    if not math.isfinite(d):
        raise ValueError(f"distance between {a} and {b} is too large to compute")
    return d


def _wall_between(src: tuple[float, ...], dst: tuple[float, ...], cfg: ChannelConfig) -> bool:
    if cfg.wall_plane_x is None:
        return False
    return (src[0] - cfg.wall_plane_x) * (dst[0] - cfg.wall_plane_x) < 0


def propagation_delay_samples(
    src_pos: tuple[float, ...], dst_pos: tuple[float, ...], cfg: ChannelConfig
) -> float:
    """Travel delay in base-rate samples (possibly fractional)."""
    return _distance(src_pos, dst_pos) / cfg.speed_of_sound * BASE_SAMPLE_RATE


def path_gain(src_pos: tuple[float, ...], dst_pos: tuple[float, ...], cfg: ChannelConfig) -> float:
    """Amplitude scale of the path, wall attenuation included. A ValueError
    names the config field that takes it out of the float range."""
    d = max(_distance(src_pos, dst_pos), DISTANCE_FLOOR_M)
    name = "attenuation_exponent"  # each step names the field it brings in
    try:
        gain = cfg.gain_at_1m / d ** (cfg.attenuation_exponent / 2.0)  # the power may overflow, or underflow to 0
        name = "gain_at_1m"
        if math.isfinite(gain) and _wall_between(src_pos, dst_pos, cfg):
            name = "wall_attenuation_db"
            gain *= 10.0 ** (-cfg.wall_attenuation_db / 20.0)
    except (OverflowError, ZeroDivisionError):
        gain = math.inf
    if not math.isfinite(gain):
        raise ValueError(f"{name} {getattr(cfg, name)} takes the path gain at {d:g} m out of the float range")
    return gain


# A session shifts its signals at one length and a spoofing waveform at another.
@lru_cache(maxsize=8)
def fast_fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c * 7**d >= n (n >= 1): a length whose
    FFT numpy takes in radix-2 to radix-7 steps, with no slow prime factor."""
    best = 1 << (n - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


_SHIFT_PAD = 96  # absorbs the ring of the exact fractional shift


def _phase_ramp(n: int, frac: float) -> np.ndarray:
    """``exp(-2j*pi*k*frac/n)`` over the ``n``-sample rFFT bins ``k``: the
    phase ramp that delays by ``frac`` samples."""
    k = np.arange(n // 2 + 1)
    return np.exp(-2j * np.pi * k * frac / n)


# Sessions of one geometry shift their signals by the same fractions: eight
# entries hold an office campaign's four, or a spoofing campaign's five,
# (length, fraction) keys, ~35 KB each. The spoofer's waveform is shifted only
# when its path response is memoized, so its ~143 KB ramps are not kept.
@lru_cache(maxsize=8)
def _shift_ramp(n: int, frac: float) -> np.ndarray:
    """``_phase_ramp(n, frac)``, shared read-only."""
    ramp = _phase_ramp(n, frac)
    ramp.setflags(write=False)
    return ramp


def _path_response(
    waveform: np.ndarray, frac: float, gain: float, kernel: tuple[float, ...], ramp
) -> tuple[np.ndarray, int]:
    """The waveform as heard at the end of a path: scaled by ``gain``, shifted
    later by ``frac`` samples and smoothed by ``kernel``; with the count of
    samples it starts before the whole-sample delay. The shift is exact: the
    scaled waveform goes ``_SHIFT_PAD`` samples into a zero-padded buffer of a
    fast FFT length ``n``, takes the phase ramp ``ramp(n, frac)`` in the
    frequency domain and transforms back into that buffer, so the response
    starts ``_SHIFT_PAD`` samples early."""
    if frac == 0.0:
        return np.convolve(np.asarray(waveform, dtype=np.float64) * gain, kernel), 0
    size = np.shape(waveform)[0]
    length = size + 2 * _SHIFT_PAD
    n = fast_fft_length(length)
    padded = np.zeros(n)
    np.multiply(waveform, gain, out=padded[_SHIFT_PAD : _SHIFT_PAD + size], dtype=np.float64)
    spec = np.fft.rfft(padded)
    shifted = np.fft.irfft(np.multiply(spec, ramp(n, frac), out=spec), n, out=padded)
    return np.convolve(shifted[:length], kernel), _SHIFT_PAD


class _Held:
    """A read-only waveform as a cache key, hashed and compared by identity.
    The key holds the waveform, so while its entry lives no other array can
    take its ``id``."""

    __slots__ = ("waveform",)

    def __init__(self, waveform: np.ndarray) -> None:
        self.waveform = waveform

    def __hash__(self) -> int:
        return id(self.waveform)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Held) and other.waveform is self.waveform


# An all-frequency campaign replays one read-only waveform from one position
# in every session, to the same two recorders: two entries, ~143 KB each.
@lru_cache(maxsize=2)
def _held_path_response(
    held: _Held, frac: float, gain: float, kernel: tuple[float, ...]
) -> tuple[np.ndarray, int]:
    """``_path_response`` of a read-only waveform, shared read-only. Its phase
    ramp is built for this one call and dropped with it."""
    w, lead = _path_response(held.waveform, frac, gain, kernel, _phase_ramp)
    w.setflags(write=False)
    return w, lead


def _read_only(waveform) -> bool:
    """Whether ``waveform`` is an array that owns its samples and refuses
    writes: no view of a writeable buffer, so it cannot change under a memo."""
    return isinstance(waveform, np.ndarray) and not waveform.flags.writeable and waveform.base is None


def propagate(
    waveform: np.ndarray,
    emit_time: int,
    src_pos: tuple[float, ...],
    dst_pos: tuple[float, ...],
    cfg: ChannelConfig,
    mix: np.ndarray,
) -> None:
    """Add the contribution of one emission at the destination into ``mix``,
    a base-rate buffer, over the samples it reaches. Delay uses the true
    distance; the amplitude law clamps the distance at the 0.1 m floor. An
    emission that reaches the destination at or after the end of ``mix`` is
    not heard: it adds nothing.

    The path response of a read-only waveform that owns its samples (the
    all-frequency spoofer's, which every session of a campaign shares) is
    memoized per path; every other waveform's is computed afresh, since a
    writeable one may change between calls. Either way the mix gets the same
    bits."""
    delay = propagation_delay_samples(src_pos, dst_pos, cfg)
    whole = int(np.floor(delay))
    frac = delay - whole
    if emit_time + whole >= mix.shape[0]:
        return

    gain = path_gain(src_pos, dst_pos, cfg)
    if _read_only(waveform):
        w, lead = _held_path_response(_Held(waveform), frac, gain, cfg.smoothing_kernel)
    else:
        w, lead = _path_response(waveform, frac, gain, cfg.smoothing_kernel, _shift_ramp)

    start = emit_time + whole - lead
    lo = max(start, 0)
    hi = min(start + w.shape[0], mix.shape[0])
    mix[lo:hi] += w[lo - start : hi - start]


# Every recording a session makes has one length; the second entry serves a
# scene of another length that a caller of ``record`` builds. Each mask holds
# n/2+1 floats (~71 KB at 17640 samples).
@lru_cache(maxsize=2)
def _noise_mask(n: int) -> np.ndarray:
    """Spectral amplitude of the noise over the ``n``-sample rFFT bins: flat
    below the knee, raised-cosine rolloff into the tail; built once per
    sample count and shared read-only."""
    freqs = np.fft.rfftfreq(n, d=1.0 / BASE_SAMPLE_RATE)
    knee = 0.82 * NOISE_CUTOFF_HZ
    mask = np.full(freqs.shape, _NOISE_TAIL_AMPLITUDE)
    mask[freqs <= knee] = 1.0
    ramp = (freqs > knee) & (freqs <= NOISE_CUTOFF_HZ)
    x = (freqs[ramp] - knee) / (NOISE_CUTOFF_HZ - knee)
    mask[ramp] = _NOISE_TAIL_AMPLITUDE + (1.0 - _NOISE_TAIL_AMPLITUDE) * 0.5 * (1.0 + np.cos(np.pi * x))
    mask.setflags(write=False)
    return mask


def _shaped_noise(rms: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded noise of the given RMS: flat below the cutoff, raised-cosine
    rolloff into a small broadband tail. Power above the cutoff stays well
    under 1% of the total."""
    if rms == 0.0:
        return np.zeros(n)
    # White noise drawn as its rFFT bins: a complex Gaussian per bin, whose
    # real and imaginary parts are consecutive normal draws.
    mask = _noise_mask(n)
    bins = rng.standard_normal(2 * mask.shape[0]).view(np.complex128)
    shaped = np.fft.irfft(np.multiply(bins, mask, out=bins), n)
    # The bins are dead once transformed: their first n floats hold the squares.
    square = np.multiply(shaped, shaped, out=bins.view(np.float64)[:n])
    return np.multiply(shaped, rms / np.sqrt(np.mean(square)), out=shaped)


def _noise_rng(scene: AcousticScene, device_index: int) -> np.random.Generator:
    # The key's leading 0 is part of the seeded noise stream that the golden digests fix.
    return np.random.default_rng(np.random.SeedSequence([0, int(scene.seed), device_index]))


def render_mix(scene: AcousticScene, device_id: str, cfg: ChannelConfig) -> np.ndarray:
    """Pre-quantization float mix a device records: all propagated emissions
    plus its environment noise, resampled to the device rate when it differs
    from the base rate."""
    for idx, rec in enumerate(scene.recorders):
        if rec.device_id == device_id:
            break
    else:
        raise ValueError(f"unknown device {device_id!r}")
    mix = np.zeros(scene.duration)
    for emission in scene.emissions:
        propagate(emission.waveform, emission.emit_time, emission.position, rec.position, cfg, mix)
    mix += _shaped_noise(ENVIRONMENTS[cfg.environment], scene.duration, _noise_rng(scene, idx))

    if rec.sample_rate != BASE_SAMPLE_RATE:
        # Fourier resampling. At an even length the last bin holds both the +fs/2 and
        # -fs/2 terms: halve it when padding makes it inner; double a new last bin.
        n = scene.duration
        m = round(n * rec.sample_rate / BASE_SAMPLE_RATE)
        spectrum = np.fft.rfft(mix)
        if n % 2 == 0 and m > n:
            spectrum[n // 2] *= 0.5
        if m % 2 == 0 and m < n:
            spectrum[m // 2] *= 2.0
        mix = np.fft.irfft(spectrum, m)
        mix *= m / n
    return mix


def quantize(x: np.ndarray) -> np.ndarray:
    """Saturating 16-bit quantization; rounds and clips the float buffer
    ``x`` in place on the way."""
    return np.clip(np.rint(x, out=x), -32768, 32767, out=x).astype(np.int16)


def record(scene: AcousticScene, device_id: str, cfg: ChannelConfig) -> np.ndarray:
    """What the device's microphone captures over the scene duration: int16
    samples at the recorder's rate."""
    return quantize(render_mix(scene, device_id, cfg))


def _is_kernel(value) -> bool:
    return isinstance(value, list) and all(_finite_real(t) for t in value) and any(t != 0 for t in value)


# Fields of a channel config and of its wall object: the check each value
# must pass and what it must be.
_CONFIG_FIELDS = {
    "speed_of_sound": (_finite_positive, "a positive number"),
    "attenuation_exponent": (_finite_real, "a finite number"),
    "gain_at_1m": (_finite_positive, "a positive number"),
    "smoothing_kernel": (_is_kernel, "a list of finite numbers, not all zero"),
    "wall": (lambda v: isinstance(v, dict), "an object"),
}
_WALL_FIELDS = {
    "plane_x": (_finite_real, "a finite number"),
    "attenuation_db": (_finite_real, "a finite number"),
}


def config_from_json(obj: dict) -> ChannelConfig:
    """Channel config from a JSON object. Every field is optional; see
    ``_CONFIG_FIELDS`` for their types. A ``wall`` object needs ``plane_x``
    and attenuates by ``attenuation_db`` (default
    ``ChannelConfig.wall_attenuation_db``). The noise environment is not a
    config field: the campaigns and ``--env`` set it. A malformed config
    raises ``ValueError`` naming the field."""
    where = "channel config"
    data = dict(_json_fields(obj, where, _CONFIG_FIELDS, ()))
    cfg = ChannelConfig()
    if "wall" in data:
        wall = _json_fields(data.pop("wall"), f"{where} wall", _WALL_FIELDS, ("plane_x",))
        cfg = replace(
            cfg,
            wall_plane_x=float(wall["plane_x"]),
            wall_attenuation_db=float(wall.get("attenuation_db", cfg.wall_attenuation_db)),
        )
    if "smoothing_kernel" in data:
        cfg = replace(cfg, smoothing_kernel=energy_normalized(data.pop("smoothing_kernel")))
    return replace(cfg, **{k: float(v) for k, v in data.items()})

