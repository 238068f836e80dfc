"""Construction of randomized multi-tone reference signals.

A reference signal is a short burst made of sine waves whose frequencies are
drawn from the fixed, public set of ``CANDIDATES``. The draw is uniform over
all non-empty proper subsets of the candidates, so an eavesdropper that knows
them still has to guess the exact subset. Per-tone nominal powers are
measured from the clean samples with the same spectral pipeline used by the
detector, which keeps the detection thresholds self-consistent regardless of
FFT scaling conventions.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import spectrum

# The one signal format: every reference signal is SIGNAL_LENGTH samples at
# the nominal SAMPLE_RATE (every device plays and records at it, up to clock
# skew), and its tones share AMPLITUDE_BUDGET, so their sum never clips a
# signed 16-bit sample. Its tones are drawn from the BIN_COUNT CANDIDATES, one
# per equal bin covering (BAND_LOW, BAND_HIGH): the window's DFT bin nearest
# the bin's midpoint, k * SAMPLE_RATE / SIGNAL_LENGTH for an integer k. A tone
# on a DFT bin leaks nothing into the other candidates' bins, and none lies
# more than 5.24 Hz from its midpoint.
SIGNAL_LENGTH = 4096
SAMPLE_RATE = 44_100.0
AMPLITUDE_BUDGET = 32_000
BAND_LOW = 25_000.0
BAND_HIGH = 35_000.0
BIN_COUNT = 30
_GRID_BINS = tuple(
    round((BAND_LOW + (i + 0.5) * ((BAND_HIGH - BAND_LOW) / BIN_COUNT)) / SAMPLE_RATE * SIGNAL_LENGTH)
    for i in range(BIN_COUNT)
)
CANDIDATES = tuple(k * SAMPLE_RATE / SIGNAL_LENGTH for k in _GRID_BINS)
# Each candidate's index in CANDIDATES; its keys are the candidate set.
_CANDIDATE_INDEX = {f: i for i, f in enumerate(CANDIDATES)}


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for one reference signal: which of the candidate tones."""

    frequencies: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            freqs = tuple(sorted(self.frequencies))
            distinct = len(set(freqs))
        except TypeError:  # not iterable, or holds values that do not sort or hash
            raise ValueError(f"frequencies must be a sequence of candidates, got {self.frequencies!r}") from None
        object.__setattr__(self, "frequencies", freqs)
        n = len(freqs)
        if not 0 < n < BIN_COUNT:
            raise ValueError("need 0 < |F| < BIN_COUNT")
        if distinct != n:
            raise ValueError("duplicate frequencies")
        if not all(f in _CANDIDATE_INDEX for f in freqs):
            raise ValueError("frequencies must be candidates")

    @property
    def tone_count(self) -> int:
        return len(self.frequencies)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_real(v) for v in value)


def _json_fields(obj, where: str, checks: dict, required: tuple[str, ...]) -> dict:
    """Check the decoded JSON object ``obj`` and return it. ``checks`` maps
    each allowed key to its check and what its value must be. ``ValueError``
    names ``where`` and the key for an ``obj`` that is not an object, an
    unknown key, a missing ``required`` key or a value failing its check."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(checks)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where} lacks the {key!r} key")
    for key, value in obj.items():
        valid, kind = checks[key]
        if not valid(value):
            raise ValueError(f"{where} field {key!r} must be {kind}, got {value!r}")
    return obj


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy's included; a bool is not.
    An exact ``float`` or ``int``, the common case, skips the ABC check."""
    if type(value) is float or type(value) is int:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    """Whether ``value`` is a finite, positive real number: false for a bool
    and for anything that is not a number."""
    if not _is_real(value):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number (not a bool)."""
    return _is_real(value) and (value == 0 or _finite_positive(abs(value)))


def _left_sum(values) -> float:
    """The floats added left to right, one rounding per addition. The builtin
    ``sum`` compensates float additions from Python 3.12 on, so its totals
    would move with the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


# The link header: the tone set and each tone's nominal power, in tone order.
_HEADER_FIELDS = {
    "freqs_hz": (_is_number_list, "a list of numbers"),
    "nominal_power": (_is_number_list, "a list of numbers"),
}


@dataclass(frozen=True, eq=False)
class ReferenceSignal:
    """A synthesized reference signal with its measured per-tone powers.

    ``nominal_power[f]`` is the power the detector's own measurement pipeline
    reports for tone ``f`` on the clean samples.
    """

    spec: SignalSpec
    samples: np.ndarray
    nominal_power: dict[float, float]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return self.spec.frequencies

    @property
    def total_power(self) -> float:
        """The nominal powers summed in tone order."""
        return _left_sum(self.nominal_power[f] for f in self.spec.frequencies)

    def header(self) -> bytes:
        """The link header as JSON: the tone set and its nominal powers."""
        freqs = self.spec.frequencies
        return json.dumps({"freqs_hz": list(freqs), "nominal_power": [self.nominal_power[f] for f in freqs]}).encode()

    def to_bytes(self) -> bytes:
        """Serialize for transfer over a paired link: the header's length, the
        header, then the samples."""
        header = self.header()
        return len(header).to_bytes(4, "big") + header + self.samples.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ReferenceSignal":
        """Parse a link payload; raises ``ValueError`` on a malformed one,
        including one whose tones are not candidates."""
        hlen = int.from_bytes(blob[:4], "big")
        if 4 + hlen > len(blob):
            raise ValueError(f"link payload header of {hlen} bytes runs past the {len(blob)}-byte blob")
        try:
            meta = json.loads(blob[4 : 4 + hlen].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ValueError(f"link payload header is not UTF-8 JSON: {err}") from None
        _json_fields(meta, "link payload header", _HEADER_FIELDS, tuple(_HEADER_FIELDS))
        body = len(blob) - 4 - hlen
        if body != 2 * SIGNAL_LENGTH:
            raise ValueError(
                f"link payload body is {body} bytes, expected {2 * SIGNAL_LENGTH} for {SIGNAL_LENGTH} samples"
            )
        freqs, powers = meta["freqs_hz"], meta["nominal_power"]
        if len(powers) != len(freqs):
            raise ValueError(f"link payload has {len(powers)} nominal powers for {len(freqs)} tones")
        if not all(_finite_positive(p) for p in powers):
            raise ValueError(f"link payload nominal powers must be finite and positive, got {powers}")
        samples = np.frombuffer(blob[4 + hlen :], dtype=np.int16).copy()
        return cls(spec=SignalSpec(frequencies=tuple(freqs)), samples=samples, nominal_power=dict(zip(freqs, powers)))


def sample_spec(rng: np.random.Generator) -> SignalSpec:
    """Draw a tone set uniformly over all non-empty proper subsets of the
    candidates (probability ``1 / (2**BIN_COUNT - 2)`` each)."""
    return SignalSpec(frequencies=_proper_subset(rng, CANDIDATES))


def _proper_subset(rng: np.random.Generator, candidates: tuple[float, ...]) -> tuple[float, ...]:
    """A subset of ``candidates`` drawn uniformly over the non-empty proper
    ones: its size follows the binomial weights C(M, n), then its members are
    drawn without replacement, by index, so the subset holds ``candidates``'
    own objects."""
    m = len(candidates)
    u = int(rng.integers(0, (1 << m) - 2))
    cum = 0
    for n in range(1, m):
        cum += math.comb(m, n)
        if u < cum:
            break
    return tuple(candidates[i] for i in rng.choice(m, size=n, replace=False))


# Each candidate's phase, by its index i: pi * i**2 / BIN_COUNT, a Schroeder
# quadratic table (IEEE Trans. IT 16(1), 1970). A tone on a DFT bin leaks
# nothing at any phase, so the phases only shape the burst in time: with
# zero phases the tones line up into a pulse train of about 132 samples'
# period, which blunts the detector's score peak.
_PHASES = np.pi * np.arange(BIN_COUNT) ** 2 / BIN_COUNT
_PHASES.setflags(write=False)


def _leakage_ratio(measured: np.ndarray, index: np.ndarray, in_set: np.ndarray) -> float:
    """Worst out-of-set candidate power, from a rendering's measured candidate
    powers, relative to the absence threshold. The tones' powers, at their
    indices ``index``, are summed in tone order, as ``total_power`` sums them."""
    beta = spectrum.beta(_left_sum(measured[index].tolist()), index.size)
    if in_set.all() or beta == 0.0:
        return 0.0
    return float(measured[~in_set].max() / beta)


def _period(index: np.ndarray, amps: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """One ``SIGNAL_LENGTH``-sample period of ``sum_k amps[k] * sin(w_k t +
    phases[k])`` over the tones at candidate indices ``index``: every
    candidate is on a DFT bin, so the sum repeats every period. Candidate bin
    ``k``, above ``SIGNAL_LENGTH / 2``, aliases to bin ``SIGNAL_LENGTH - k``
    with its sine negated, so one inverse rFFT of those bins renders it."""
    bins = np.zeros(SIGNAL_LENGTH // 2 + 1, dtype=complex)
    bins[SIGNAL_LENGTH - np.asarray(_GRID_BINS)[index]] = (SIGNAL_LENGTH / 2) * 1j * amps * np.exp(-1j * phases)
    return np.fft.irfft(bins, SIGNAL_LENGTH)


def _render(spec: SignalSpec, index: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The tone sum, each tone at amplitude ``AMPLITUDE_BUDGET / n``, rounded
    half away from zero to integer-valued samples within the budget."""
    amps = np.full(spec.tone_count, AMPLITUDE_BUDGET / spec.tone_count)
    x = _period(index, amps, phases)
    samples = np.sign(x) * np.floor(np.abs(x) + 0.5)
    peak = int(np.max(np.abs(samples)))
    if peak > AMPLITUDE_BUDGET:
        raise RuntimeError(f"synthesis clipped amplitude budget: {peak}")
    return samples


def synthesize(spec: SignalSpec) -> ReferenceSignal:
    """Render the reference signal and measure its per-tone nominal powers.

    Each tone gets amplitude ``AMPLITUDE_BUDGET / n``, so the sum can never
    clip a 16-bit sample, and its candidate's phase from ``_PHASES``; the
    same tone set always gives the same samples. The per-tone powers are
    measured as the detector measures them. Raises ``ValueError`` if the
    out-of-set leakage reaches the absence threshold, which the detector's
    strict gate would reject: with every tone on a DFT bin it stays a
    million times below it.
    """
    index, in_set = spectrum.in_set_mask(spec.frequencies)
    samples = _render(spec, index, _PHASES[index])
    measured = spectrum._sliding_candidate_powers(samples, 0, 1, SAMPLE_RATE)[0]
    leak = _leakage_ratio(measured, index, in_set)
    if leak >= 1.0:  # the detector's absence gate is strict: p_out < beta
        raise ValueError(
            f"cannot synthesize tones {spec.frequencies} under beta_ratio={spectrum.BETA_RATIO}: "
            f"out-of-set leakage reaches {leak:.3g} times the absence threshold"
        )
    # The rendering is integer-valued, so its int16 copy measures the same.
    power = {f: float(p) for f, p in zip(spec.frequencies, measured[index])}
    return ReferenceSignal(spec=spec, samples=samples.astype(np.int16), nominal_power=power)
