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
from functools import lru_cache

import numpy as np

from . import spectrum

# The one signal format: every reference signal is SIGNAL_LENGTH samples at
# the nominal SAMPLE_RATE (every device plays and records at it, up to clock
# skew), and its tones share AMPLITUDE_BUDGET, so their sum never clips a
# signed 16-bit sample. Its tones are drawn from the BIN_COUNT CANDIDATES, the
# midpoints of equal bins covering (BAND_LOW, BAND_HIGH).
SIGNAL_LENGTH = 4096
SAMPLE_RATE = 44_100.0
AMPLITUDE_BUDGET = 32_000
BAND_LOW = 25_000.0
BAND_HIGH = 35_000.0
BIN_COUNT = 30
CANDIDATES = tuple(BAND_LOW + (i + 0.5) * ((BAND_HIGH - BAND_LOW) / BIN_COUNT) for i in range(BIN_COUNT))
# Each candidate's index in CANDIDATES; its keys are the candidate set.
_CANDIDATE_INDEX = {f: i for i, f in enumerate(CANDIDATES)}


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for one reference signal: which of the candidate tones."""

    frequencies: tuple[float, ...]

    def __post_init__(self) -> None:
        freqs = tuple(sorted(self.frequencies))
        object.__setattr__(self, "frequencies", freqs)
        n = len(freqs)
        if not 0 < n < BIN_COUNT:
            raise ValueError("need 0 < |F| < BIN_COUNT")
        if len(set(freqs)) != n:
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
    """Whether ``value`` is a real number, numpy's included; a bool is not."""
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
        meta = json.loads(blob[4 : 4 + hlen].decode())
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
    drawn without replacement."""
    m = len(candidates)
    u = int(rng.integers(0, (1 << m) - 2))
    cum = 0
    for n in range(1, m):
        cum += math.comb(m, n)
        if u < cum:
            break
    chosen = rng.choice(np.asarray(candidates), size=n, replace=False)
    return tuple(float(f) for f in chosen)


# With every tone at phase zero, the spectral tails of the off-bin tones can
# stack coherently and push an out-of-set candidate window past the
# detector's absence threshold on the clean signal itself; an unlucky phase
# mix can also leave the first or last few hundred microseconds of the burst
# nearly silent, which blunts the detector's score peak. Synthesis therefore
# keeps zero phases when they already confine the leakage below
# _LEAKAGE_TARGET times the absence threshold while carrying enough edge
# energy, and otherwise searches a fixed, tone-set-seeded family of random
# phase draws for the best candidate. When no member of the family keeps its
# leakage under the absence threshold at all, the search reads on down the
# same seeded stream, up to _PHASE_SEARCH_LIMIT candidates in all, for the
# first that does.
_PHASE_CANDIDATES = 16
_PHASE_SEARCH_LIMIT = 256
_LEAKAGE_TARGET = 0.6
_EDGE_SPAN = 48
_EDGE_ENERGY_TARGET = 0.5  # of the burst's average energy rate


def _leakage_ratio(measured: np.ndarray, in_set: np.ndarray, spec: SignalSpec) -> float:
    """Worst out-of-set candidate power, from a rendering's measured candidate
    powers, relative to the absence threshold. The in-set powers are summed in
    tone order, as the signal's ``total_power`` will sum them."""
    beta = spectrum.beta(_left_sum(measured[in_set].tolist()), spec.tone_count)
    if in_set.all() or beta == 0.0:
        return 0.0
    return float(measured[~in_set].max() / beta)


def _edge_energy_ratio(samples: np.ndarray) -> float:
    """Energy rate of the weakest burst edge relative to the whole burst."""
    span = _EDGE_SPAN
    total_rate = float(np.mean(samples.astype(np.float64) ** 2))
    if total_rate == 0.0:
        return 0.0
    head = float(np.mean(samples[:span].astype(np.float64) ** 2))
    tail = float(np.mean(samples[-span:].astype(np.float64) ** 2))
    return min(head, tail) / total_rate


def _phase_family(spec: SignalSpec, index: np.ndarray, count: int) -> np.ndarray:
    """(count, n) deterministic phase candidates for one tone set (``index``:
    the tones' candidate indices): zero phases first, then seeded random
    draws, taken in one call that draws the same stream as one call per row,
    so a longer family starts with every row of a shorter one. The seed key
    ends with the candidate count and the signal length; any other key would
    change every draw, and with it every waveform."""
    key = index.tolist() + [BIN_COUNT, SIGNAL_LENGTH]
    rng = np.random.default_rng(np.random.SeedSequence(key))
    draws = rng.uniform(0.0, 2.0 * np.pi, (count - 1, spec.tone_count))
    return np.concatenate([np.zeros((1, spec.tone_count)), draws])


# Tone sums are rendered from block phasors: sample B*a + b of candidate i's
# phasor is exp(iw_i*B*a) * exp(iw_i*b), a and b below B (here 64), so each
# candidate costs 2*B complex exponentials, once, not one sine per sample and
# phase candidate.
_PHASOR_BLOCK = 64


def _coarse_phasors(samples: int) -> np.ndarray:
    """``exp(iw_i*B*a)`` over the blocks a that cover ``samples`` samples,
    (N, blocks), a row per candidate i."""
    omega = 2.0 * np.pi * np.asarray(CANDIDATES) / SAMPLE_RATE
    return np.exp(1j * omega[:, None] * (_PHASOR_BLOCK * np.arange(-(-samples // _PHASOR_BLOCK))))


# About 60 KB (two tables of 30 candidates' 64 phasors), built once.
@lru_cache(maxsize=1)
def _block_phasors() -> tuple[np.ndarray, np.ndarray]:
    """The coarse phasors ``exp(iw_i*B*a)`` over the signal's blocks a, (N,
    blocks), and the fine ones ``exp(iw_i*b)`` over b below B, (N, B), a row
    per candidate i; read-only, shared by every tone set."""
    omega = 2.0 * np.pi * np.asarray(CANDIDATES) / SAMPLE_RATE
    coarse = _coarse_phasors(SIGNAL_LENGTH)
    fine = np.exp(1j * omega[:, None] * np.arange(_PHASOR_BLOCK))
    coarse.setflags(write=False)
    fine.setflags(write=False)
    return coarse, fine


def _tone_sum(index: np.ndarray, amps: np.ndarray, phases: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """``sum_k amps[k] * sin(w_k t + phases[k])`` over the tones at candidate
    indices ``index``, at ``t = B*a + b``: the (blocks, B) imaginary part, a
    view a caller may round in place, of one complex product of the tones'
    coarse phasor rows ``coarse`` (scaled and turned in place) and fine ones."""
    coarse *= (amps * np.exp(1j * phases))[:, None]
    return (coarse.T @ _block_phasors()[1][index]).imag


def _render(spec: SignalSpec, index: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The tone sum, each tone at amplitude ``AMPLITUDE_BUDGET / n``, rounded
    half away from zero to integer-valued samples within the budget."""
    amps = np.full(spec.tone_count, AMPLITUDE_BUDGET / spec.tone_count)
    x = _tone_sum(index, amps, phases, _block_phasors()[0][index]).ravel()[:SIGNAL_LENGTH]
    samples = np.sign(x) * np.floor(np.abs(x) + 0.5)
    peak = int(np.max(np.abs(samples)))
    if peak > AMPLITUDE_BUDGET:
        raise RuntimeError(f"synthesis clipped amplitude budget: {peak}")
    return samples


# About 310 KB (60 rows of 30 candidates' 11 bins), built once.
@lru_cache(maxsize=1)
def _grid_bin_spectra() -> np.ndarray:
    """(2N, N, 2*THETA+1) complex: the rFFT of ``sin(w_i t)`` for every
    candidate i, then of ``cos(w_i t)``, read at every candidate's bins
    (``spectrum.candidate_bin_table``); read-only. Each candidate's phasor row
    is its coarse and fine phasors' block product, built one at a time, so no
    (2N, SIGNAL_LENGTH) table is held."""
    bins = spectrum.candidate_bin_table(SAMPLE_RATE)
    coarse, fine = _block_phasors()
    table = np.empty((2 * BIN_COUNT,) + bins.shape, dtype=np.complex128)
    for i in range(BIN_COUNT):
        phasor = (coarse[i, :, None] * fine[i, None, :]).ravel()[:SIGNAL_LENGTH]
        table[i] = np.fft.rfft(phasor.imag)[bins]
        table[BIN_COUNT + i] = np.fft.rfft(phasor.real)[bins]
    table.setflags(write=False)
    return table


def _candidate_norms(spec: SignalSpec, index: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """(P, N) 2-norm of each candidate's bins in the unrounded tone sum, for
    each of the P phase vectors ``phases``: by linearity, the tones' sine
    rows weighted by ``amp*cos(p)`` and cosine rows by ``amp*sin(p)``."""
    rows = np.concatenate([index, BIN_COUNT + index])
    spectra = _grid_bin_spectra()[rows]
    amp = AMPLITUDE_BUDGET / spec.tone_count
    coeff = amp * np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
    parts = coeff @ spectra.reshape(rows.shape[0], -1).view(np.float64)  # real and imaginary parts interleaved
    return np.sqrt((parts**2).reshape(phases.shape[0], BIN_COUNT, -1).sum(axis=2))


def _leakage_lower_bounds(norms: np.ndarray, in_set: np.ndarray, tone_count: int) -> np.ndarray:
    """A lower bound on ``_leakage_ratio`` of each rendering, from its
    unrounded candidate norms (``_candidate_norms``). Rounding moves each
    sample by at most 1/2, and a candidate's 2*THETA+1 bins are distinct DFT
    rows, orthogonal with norm sqrt(SIGNAL_LENGTH); so it moves a candidate's
    norm by at most SIGNAL_LENGTH/2. The 1.0 covers floating-point error, which
    is far smaller. ``spectrum.beta`` is read at call time."""
    slack = SIGNAL_LENGTH / 2 + 1.0
    worst_out = (np.maximum(norms[:, ~in_set] - slack, 0.0) ** 2).max(axis=1)
    return worst_out / spectrum.beta(((norms[:, in_set] + slack) ** 2).sum(axis=1), tone_count)


def _measure(spec: SignalSpec, index: np.ndarray, phases: np.ndarray, in_set: np.ndarray):
    """Render one phase candidate: its samples, measured candidate powers,
    leakage ratio and edge energy ratio."""
    samples = _render(spec, index, phases)
    measured = spectrum._window_powers(samples, spectrum.candidate_bin_table(SAMPLE_RATE))
    return samples, measured, _leakage_ratio(measured, in_set, spec), _edge_energy_ratio(samples)


def _first_under_threshold(spec: SignalSpec, index: np.ndarray, in_set: np.ndarray, least: float):
    """Samples and measured powers of the first phase candidate past the
    family, in stream order, whose leakage stays under the absence threshold;
    the family's least-leaking candidate reached ``least`` times it. Candidates
    whose certified lower bound reaches the threshold are not rendered. Raises
    ``ValueError`` when none of the first _PHASE_SEARCH_LIMIT does."""
    rows = _phase_family(spec, index, _PHASE_SEARCH_LIMIT)[_PHASE_CANDIDATES:]
    lower = _leakage_lower_bounds(_candidate_norms(spec, index, rows), in_set, spec.tone_count)
    for i in np.flatnonzero(lower < 1.0):
        samples, measured, leak, _ = _measure(spec, index, rows[i], in_set)
        if leak < 1.0:
            return samples, measured
    raise ValueError(
        f"cannot synthesize tones {spec.frequencies} under beta_ratio={spectrum.BETA_RATIO}: "
        f"no phase candidate of {_PHASE_SEARCH_LIMIT} stays under the absence threshold, and the "
        f"least-leaking of the first {_PHASE_CANDIDATES} reaches {least:.3f} times it"
    )


def synthesize(spec: SignalSpec) -> ReferenceSignal:
    """Render the reference signal and measure its per-tone nominal powers.

    Each tone gets amplitude ``AMPLITUDE_BUDGET / n`` so the sum can never
    clip a 16-bit sample. Phases are zero when the zero-phase rendering keeps
    out-of-set spectral leakage confined, otherwise the best of a fixed
    tone-set-seeded family of phase draws (deterministic either way). The
    per-tone powers are measured, and the leakage confined under the absence
    threshold, as the detector measures and gates them.

    The search picks what rendering every candidate in family order would:
    the first that passes both targets, else the confined one with the
    strongest edge, else the least leaking, ties to the first. When even that
    one reaches the absence threshold, the first later draw of the same
    stream that stays under it wins (``_first_under_threshold``), and
    ``ValueError`` is raised when none of _PHASE_SEARCH_LIMIT candidates
    does. A certified lower bound on every candidate's leakage, from its
    unrounded spectrum (``_leakage_lower_bounds``), spares the renders that
    cannot change that choice.
    """
    index, in_set = spectrum.in_set_mask(spec.frequencies)
    family = _phase_family(spec, index, _PHASE_CANDIDATES)
    lower = _leakage_lower_bounds(_candidate_norms(spec, index, family), in_set, spec.tone_count)
    ruled_out = lower > _LEAKAGE_TARGET  # their leakage is too: none can pass or be confined
    best = None  # (fallback key, samples, measured powers, leakage) of the best candidate so far
    for i in np.flatnonzero(~ruled_out):
        samples, measured, leak, edge = _measure(spec, index, family[i], in_set)
        if leak <= _LEAKAGE_TARGET and edge >= _EDGE_ENERGY_TARGET:
            best = (None, samples, measured, leak)
            break
        # fallback ranking: confined leakage beats anything, then strongest
        # edge among confined candidates, then least leakage; ties to the first
        key = (0, -edge, i) if leak <= _LEAKAGE_TARGET else (1, leak, i)
        if best is None or key < best[0]:
            best = (key, samples, measured, leak)
    else:
        if best is None or best[3] > _LEAKAGE_TARGET:
            # None is confined, so the least leakage wins: render the ruled-out
            # candidates by ascending bound until one exceeds the least found.
            for i in np.argsort(lower, kind="stable"):
                if best is not None and lower[i] > best[3]:
                    break
                if ruled_out[i]:
                    samples, measured, leak, _ = _measure(spec, index, family[i], in_set)
                    key = (1, leak, i)
                    if best is None or key < best[0]:
                        best = (key, samples, measured, leak)
    _, samples, measured, leak = best
    if leak >= 1.0:  # the detector's absence gate is strict: p_out < beta
        samples, measured = _first_under_threshold(spec, index, in_set, leak)
    # The candidate is integer-valued, so its int16 copy measures the same.
    power = {f: float(p) for f, p in zip(spec.frequencies, measured[index])}
    return ReferenceSignal(spec=spec, samples=samples.astype(np.int16), nominal_power=power)

