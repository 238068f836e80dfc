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
from .protocol import RECORD_SAMPLES, SceneContext
from .signal import (
    AMPLITUDE_BUDGET,
    CANDIDATES,
    SAMPLE_RATE,
    SIGNAL_LENGTH,
    ReferenceSignal,
    _finite_positive,
    _is_number,
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
        if not (_is_number(power) and _finite_positive(power)):
            raise ValueError(f"per_tone_power must be a finite positive number, got {power!r}")


AttackScenario = Union[ZeroEffort, GuessingReplay, AllFrequency]


def guessing_replay_signal(rng: np.random.Generator) -> ReferenceSignal:
    """A fresh reference-signal draw, statistically independent of any
    session's signals."""
    return synthesize(sample_spec(rng))


def all_frequency_signal(per_tone_power: float, duration: int) -> np.ndarray:
    """Spoofing waveform containing every candidate tone at the nominal
    sample rate.

    Per-tone amplitudes are calibrated against the detector's measurement
    convention so each tone carries ``per_tone_power``; raises when the
    requested power cannot fit the amplitude budget after summation.
    The waveform is memoised per ``(power, duration)`` and returned
    read-only, since every caller with that key shares it.
    """
    if duration < SIGNAL_LENGTH:
        raise ValueError(f"duration must cover at least one measurement window ({SIGNAL_LENGTH} samples)")
    if not (math.isfinite(per_tone_power) and per_tone_power > 0):
        raise ValueError(f"per-tone power must be finite and positive, got {per_tone_power!r}")
    return _all_frequency_waveform(float(per_tone_power), int(duration))


# An attack campaign replays one waveform on every trial, so keeping the last
# one is enough; a session-long waveform holds ~57 KB.
@lru_cache(maxsize=1)
def _all_frequency_waveform(per_tone_power: float, duration: int) -> np.ndarray:
    amps = [math.sqrt(per_tone_power / unit_power) for unit_power in _unit_sine_powers()]
    if sum(amps) > AMPLITUDE_BUDGET:
        raise ValueError(
            f"per-tone power {per_tone_power:g} infeasible: tone amplitudes sum to "
            f"{sum(amps):.0f} > budget {AMPLITUDE_BUDGET}"
        )
    t = np.arange(duration, dtype=np.float64)
    x = np.zeros(duration)
    for f, a in zip(CANDIDATES, amps):
        x += a * np.sin(2.0 * np.pi * f * t / SAMPLE_RATE)
    wave = np.clip(np.rint(x), -32768, 32767).astype(np.int16)
    wave.setflags(write=False)
    return wave


@lru_cache(maxsize=1)
def _unit_sine_powers() -> tuple[float, ...]:
    """Each candidate's measured power for a unit-amplitude sine at it."""
    powers = []
    for i, f in enumerate(CANDIDATES):
        unit = np.sin(2.0 * np.pi * f * np.arange(SIGNAL_LENGTH) / SAMPLE_RATE)
        powers.append(spectrum.measure_candidate_powers(unit, SAMPLE_RATE)[i])
    return tuple(powers)


def guessing_success_probability(bin_count: int, signals: int = 1) -> float:
    """Probability that independent guesses match the session's tone sets.

    One signal: ``1 / (2**N - 2)`` (uniform over non-empty proper subsets).
    Two signals: the square, since the guesses are independent.
    """
    if bin_count < 2:
        raise ValueError("need at least 2 bins")
    if signals not in (1, 2):
        raise ValueError("signals must be 1 or 2")
    single = 1.0 / (2.0**bin_count - 2.0)
    return single if signals == 1 else single**2


def _near(anchor: tuple[float, ...]) -> tuple[float, ...]:
    return (anchor[0] + ATTACKER_OFFSET_M,) + tuple(anchor[1:])


def build_emissions(scenario: AttackScenario, ctx: SceneContext, rng: np.random.Generator) -> list[ch.Emission]:
    """Translate an attack scenario into scene emissions: none for a
    zero-effort attempt; for a guessing replay, one guess from ``rng`` near
    each device at a time also drawn from ``rng``; for all-frequency spoofing,
    the waveform near the authenticating device from sample 0 to the end of
    the ``RECORD_SAMPLES``-sample recording."""
    if isinstance(scenario, ZeroEffort):
        return []

    if isinstance(scenario, GuessingReplay):
        emissions = []
        for i, anchor in enumerate((ctx.auth_position, ctx.vouch_position)):
            guess = guessing_replay_signal(rng)
            earliest, latest = int(0.05 * RECORD_SAMPLES), RECORD_SAMPLES - guess.samples.shape[0] - 1
            when = int(rng.integers(earliest, latest))
            emissions.append(ch.Emission(f"attacker_{i}", guess.samples, when, _near(anchor)))
        return emissions

    if isinstance(scenario, AllFrequency):
        wave = all_frequency_signal(scenario.per_tone_power, RECORD_SAMPLES - 1)
        return [ch.Emission("attacker_0", wave, 0, _near(ctx.auth_position))]

    raise TypeError(f"unknown scenario {scenario!r}")
