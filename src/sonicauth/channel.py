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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .signal import SAMPLE_RATE as BASE_SAMPLE_RATE
from .signal import _finite_positive, _is_number, _json_fields

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
    wall_attenuation_db: float = 0.0
    wall_plane_x: float | None = None

    def __post_init__(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}; options: {sorted(ENVIRONMENTS)}")
        for name in ("speed_of_sound", "gain_at_1m"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("attenuation_exponent", "wall_attenuation_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.wall_plane_x is not None and not math.isfinite(self.wall_plane_x):
            raise ValueError(f"wall_plane_x must be finite or None, got {self.wall_plane_x}")
        energy = float(np.sum(np.asarray(self.smoothing_kernel) ** 2))
        if not abs(energy - 1.0) <= 1e-6:  # False for nan: a non-finite tap fails
            raise ValueError(f"smoothing_kernel must be finite and energy-normalized (sum of squares 1), got {energy}")


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
        if not np.all(np.isfinite(self.position)):
            raise ValueError(f"{where} position must be finite, got {self.position}")
        if not _finite_positive(self.sample_rate):
            raise ValueError(f"{where} sample rate must be finite and positive, got {self.sample_rate}")


@dataclass(frozen=True)
class AcousticScene:
    emissions: tuple[Emission, ...]
    recorders: tuple[Recorder, ...]
    duration: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("scene duration must be positive")
        for e in self.emissions:
            if e.emit_time < 0:
                raise ValueError(f"emission from {e.source_id} starts before the scene")
            if not np.all(np.isfinite(e.position)):
                raise ValueError("emission position must be finite")
        ids = [r.device_id for r in self.recorders]
        for r in self.recorders:
            if ids.count(r.device_id) > 1:
                raise ValueError(f"two recorders share the device id {r.device_id!r}")

    def recorder(self, device_id: str) -> Recorder:
        for r in self.recorders:
            if r.device_id == device_id:
                return r
        raise ValueError(f"unknown device {device_id!r}")


@dataclass(frozen=True, eq=False)
class Recording:
    device_id: str
    sample_rate: float
    samples: np.ndarray


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
    """Amplitude scale of the path, wall attenuation included."""
    d = max(_distance(src_pos, dst_pos), DISTANCE_FLOOR_M)
    gain = cfg.gain_at_1m / d ** (cfg.attenuation_exponent / 2.0)
    if _wall_between(src_pos, dst_pos, cfg):
        gain *= 10.0 ** (-cfg.wall_attenuation_db / 20.0)
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


def _fractional_shift(x: np.ndarray, frac: float) -> np.ndarray:
    """Shift ``x`` later by ``frac`` samples (0 < frac < 1), exactly, on a
    zero-padded buffer taken at a fast FFT length. Returns a buffer of
    ``len(x) + 2*_SHIFT_PAD`` samples starting _SHIFT_PAD samples early."""
    length = x.shape[0] + 2 * _SHIFT_PAD
    n = fast_fft_length(length)
    padded = np.zeros(n)
    padded[_SHIFT_PAD : _SHIFT_PAD + x.shape[0]] = x
    k = np.arange(n // 2 + 1)
    spec = np.fft.rfft(padded) * np.exp(-2j * np.pi * k * frac / n)
    return np.fft.irfft(spec, n)[:length]


def propagate(
    waveform: np.ndarray,
    emit_time: int,
    src_pos: tuple[float, ...],
    dst_pos: tuple[float, ...],
    cfg: ChannelConfig,
    duration: int,
) -> np.ndarray:
    """Contribution of one emission at the destination, as a base-rate buffer
    of ``duration`` samples. Delay uses the true distance; the amplitude law
    clamps the distance at the 0.1 m floor. An emission that reaches the
    destination at or after ``duration`` is not heard: its buffer is zero."""
    delay = propagation_delay_samples(src_pos, dst_pos, cfg)
    whole = int(np.floor(delay))
    frac = delay - whole
    out = np.zeros(duration)
    if emit_time + whole >= duration:
        return out

    w = np.asarray(waveform, dtype=np.float64) * path_gain(src_pos, dst_pos, cfg)
    lead = 0
    if frac > 0.0:
        w = _fractional_shift(w, frac)
        lead = _SHIFT_PAD
    w = np.convolve(w, cfg.smoothing_kernel)

    start = emit_time + whole - lead
    lo = max(start, 0)
    hi = min(start + w.shape[0], duration)
    if hi > lo:
        out[lo:hi] = w[lo - start : hi - start]
    return out


# A session's recordings share one length and the echo baseline's take a few
# others; each mask holds n/2+1 floats (~115 KB at 28672 samples).
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
    shaped = np.fft.irfft(bins * mask, n)
    return shaped * (rms / np.sqrt(np.mean(shaped**2)))


def _noise_rng(scene: AcousticScene, device_index: int) -> np.random.Generator:
    # The key's leading 0 is part of the seeded noise stream that the golden digests fix.
    return np.random.default_rng(np.random.SeedSequence([0, int(scene.seed), device_index]))


def render_mix(scene: AcousticScene, device_id: str, cfg: ChannelConfig) -> np.ndarray:
    """Pre-quantization float mix a device records: all propagated emissions
    plus its environment noise, resampled to the device rate when it differs
    from the base rate."""
    rec = scene.recorder(device_id)
    idx = [r.device_id for r in scene.recorders].index(device_id)
    mix = np.zeros(scene.duration)
    for emission in scene.emissions:
        mix += propagate(
            emission.waveform, emission.emit_time, emission.position, rec.position, cfg, scene.duration
        )
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
        mix = np.fft.irfft(spectrum, m) * (m / n)
    return mix


def quantize(x: np.ndarray) -> np.ndarray:
    """Saturating 16-bit quantization."""
    return np.clip(np.rint(x), -32768, 32767).astype(np.int16)


def record(scene: AcousticScene, device_id: str, cfg: ChannelConfig) -> Recording:
    """What the device's microphone captures over the scene duration."""
    rec = scene.recorder(device_id)
    return Recording(
        device_id=device_id,
        sample_rate=rec.sample_rate,
        samples=quantize(render_mix(scene, device_id, cfg)),
    )


def _is_rate(value) -> bool:
    return _is_number(value) and _finite_positive(value)


def _is_finite(value) -> bool:
    return _is_number(value) and (value == 0 or _finite_positive(abs(value)))


def _is_kernel(value) -> bool:
    return isinstance(value, list) and all(_is_finite(t) for t in value) and any(t != 0 for t in value)


# Fields of a channel config and of its wall object: the check each value
# must pass and what it must be.
_CONFIG_FIELDS = {
    "speed_of_sound": (_is_rate, "a positive number"),
    "attenuation_exponent": (_is_finite, "a finite number"),
    "gain_at_1m": (_is_rate, "a positive number"),
    "smoothing_kernel": (_is_kernel, "a list of finite numbers, not all zero"),
    "wall": (lambda v: isinstance(v, dict), "an object"),
}
_WALL_FIELDS = {
    "plane_x": (_is_finite, "a finite number"),
    "attenuation_db": (_is_finite, "a finite number"),
}


def config_from_json(obj: dict) -> ChannelConfig:
    """Channel config from a JSON object. Every field is optional; see
    ``_CONFIG_FIELDS`` for their types. A ``wall`` object needs ``plane_x``
    and attenuates by ``attenuation_db`` (default 60). The noise environment
    is not a config field: the campaigns and ``--env`` set it. A malformed
    config raises ``ValueError`` naming the field."""
    where = "channel config"
    data = dict(_json_fields(obj, where, _CONFIG_FIELDS, ()))
    cfg = ChannelConfig()
    if "wall" in data:
        wall = _json_fields(data.pop("wall"), f"{where} wall", _WALL_FIELDS, ("plane_x",))
        cfg = replace(
            cfg,
            wall_plane_x=float(wall["plane_x"]),
            wall_attenuation_db=float(wall.get("attenuation_db", 60.0)),
        )
    if "smoothing_kernel" in data:
        cfg = replace(cfg, smoothing_kernel=energy_normalized(data.pop("smoothing_kernel")))
    return replace(cfg, **{k: float(v) for k, v in data.items()})

