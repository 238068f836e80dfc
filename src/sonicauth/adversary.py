"""Attacker models: zero-effort access attempts, guessing-based replay, and
all-frequency spoofing, expressed as extra emitters in the acoustic scene.

Attackers cannot read the paired link, so they never see the session's tone
sets; a replay attacker can only re-run the public signal construction and
hope its guess matches, which succeeds with probability ``1 / (2**N - 2)``
per signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import channel as ch
from . import spectrum
from .protocol import RECORD_SAMPLES, Endpoint
from .signal import (
    AMPLITUDE_BUDGET,
    BIN_COUNT,
    SAMPLE_RATE,
    SIGNAL_LENGTH,
    _finite_positive,
    _is_integer,
    _left_sum,
    _period,
    sample_spec,
    synthesize,
)

# Attacker speaker sits this far from the device it plays at.
ATTACKER_OFFSET_M = 0.3


@dataclass(frozen=True)
class ZeroEffort:
    """The attacker simply tries the device; no acoustic injection."""


@dataclass(frozen=True)
class GuessingReplay:
    """The attacker re-runs the public signal construction and plays one
    guess near each device (the strongest replay placement)."""


@dataclass(frozen=True)
class AllFrequency:
    """One sine per candidate, equal measured per-tone power, played
    near the authenticating device for the whole session."""

    per_tone_power: float

    def __post_init__(self) -> None:
        power = self.per_tone_power
        if not _finite_positive(power):
            raise ValueError(f"per_tone_power must be a finite positive number, got {power!r}")


AttackScenario = Union[ZeroEffort, GuessingReplay, AllFrequency]


def all_frequency_signal(per_tone_power: float, duration: int) -> np.ndarray:
    """Spoofing waveform containing every candidate tone at the nominal
    sample rate.

    Per-tone amplitudes are calibrated against the detector's measurement
    convention so each tone carries ``per_tone_power``; raises when the
    requested power cannot fit the amplitude budget after summation.
    The waveform is memoised per ``(power, duration)`` and returned
    read-only, since every caller with that key shares it.
    """
    if not (_is_integer(duration) and duration >= SIGNAL_LENGTH):
        raise ValueError(
            f"duration must be an integer that covers at least one measurement window ({SIGNAL_LENGTH} samples), "
            f"got {duration!r}"
        )
    if not _finite_positive(per_tone_power):
        raise ValueError(f"per-tone power must be finite and positive, got {per_tone_power!r}")
    return _all_frequency_waveform(float(per_tone_power), int(duration))


def _unit_sine_powers() -> list[float]:
    """Each candidate's power measured by the detector's kernel on one period
    of a unit sine at it, each period a one-window span."""
    one, zero = np.ones(1), np.zeros(1)
    periods = (_period([i], one, zero) for i in range(BIN_COUNT))
    return [float(spectrum._sliding_candidate_powers(p, 0, 1, SAMPLE_RATE)[0, i]) for i, p in enumerate(periods)]


# Measured once, at import; every calibration scales from them.
_UNIT_POWERS = _unit_sine_powers()


def all_frequency_amplitudes(per_tone_power: float) -> list[float]:
    """Each candidate sine's amplitude, calibrated by the power measured on a
    unit sine at it (``_UNIT_POWERS``) so it carries ``per_tone_power``;
    raises when they sum above the amplitude budget, as the waveform must not
    clip, or when ``per_tone_power`` is not a finite positive number."""
    if not _finite_positive(per_tone_power):
        raise ValueError(f"per-tone power must be finite and positive, got {per_tone_power!r}")
    amps = [math.sqrt(per_tone_power / unit_power) for unit_power in _UNIT_POWERS]
    total = _left_sum(amps)
    if total > AMPLITUDE_BUDGET:
        raise ValueError(
            f"per-tone power {per_tone_power:g} infeasible: tone amplitudes sum to "
            f"{total:.0f} > budget {AMPLITUDE_BUDGET}"
        )
    return amps


# An attack campaign replays one waveform on every trial, so keeping the last
# one is enough; a session-long waveform holds ~35 KB.
@lru_cache(maxsize=1)
def _all_frequency_waveform(per_tone_power: float, duration: int) -> np.ndarray:
    """``sum_i amp_i * sin(w_i t)`` rounded to 16-bit samples: every
    candidate's tone at zero phase, the synthesizer's one period repeated
    over ``duration`` samples."""
    amps = np.array(all_frequency_amplitudes(per_tone_power))
    wave = ch.quantize(np.resize(_period(np.arange(BIN_COUNT), amps, np.zeros(BIN_COUNT)), duration))
    wave.setflags(write=False)
    return wave


def guessing_success_probability(bin_count: int, signals: int = 1) -> float:
    """Probability that independent guesses match the session's tone sets.

    One signal: ``1 / (2**N - 2)`` (uniform over non-empty proper subsets),
    in exact integers. It rounds to the smallest subnormal float at 1075
    candidates and to 0.0 from 1076 on, which is returned without building
    the ``N``-bit integer. Two signals: the square, since the guesses are
    independent.
    """
    if not (_is_integer(bin_count) and bin_count >= 2):
        raise ValueError(f"bin_count must be an integer of at least 2, got {bin_count!r}")
    if not (_is_integer(signals) and signals in (1, 2)):
        raise ValueError(f"signals must be 1 or 2, got {signals!r}")
    if bin_count > 1075:
        return 0.0
    single = 1 / ((1 << int(bin_count)) - 2)  # a numpy integer would shift in 64 bits
    return single if signals == 1 else single**2


def _near(anchor: tuple[float, ...]) -> tuple[float, ...]:
    return (anchor[0] + ATTACKER_OFFSET_M,) + tuple(anchor[1:])


def build_emissions(
    scenario: AttackScenario, auth: Endpoint, vouch: Endpoint, rng: np.random.Generator
) -> list[ch.Emission]:
    """Translate an attack scenario into emissions around the session's two
    devices, read at their ``.position``: none for a zero-effort attempt; for
    a guessing replay, one guess from ``rng`` near each device at a time also
    drawn from ``rng``; for all-frequency spoofing, the waveform near the
    authenticating device from sample 0 to the end of the
    ``RECORD_SAMPLES``-sample recording."""
    if isinstance(scenario, ZeroEffort):
        return []

    if isinstance(scenario, GuessingReplay):
        emissions = []
        for i, anchor in enumerate((auth.position, vouch.position)):
            guess = synthesize(sample_spec(rng))  # independent of the session's signals
            earliest, latest = int(0.05 * RECORD_SAMPLES), RECORD_SAMPLES - guess.samples.shape[0] - 1
            when = int(rng.integers(earliest, latest))
            emissions.append(ch.Emission(f"attacker_{i}", guess.samples, when, _near(anchor)))
        return emissions

    if isinstance(scenario, AllFrequency):
        wave = all_frequency_signal(scenario.per_tone_power, RECORD_SAMPLES - 1)
        return [ch.Emission("attacker_0", wave, 0, _near(auth.position))]

    raise TypeError(f"unknown scenario {scenario!r}")
