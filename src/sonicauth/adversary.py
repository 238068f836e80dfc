"""Attacker models: zero-effort access attempts, guessing-based replay, and
all-frequency spoofing, expressed as extra emitters in the acoustic scene.

Attackers cannot read the paired link, so they never see the session's tone
sets; a replay attacker can only re-run the public signal construction and
hope its guess matches, which succeeds with probability ``1 / (2**N - 2)``
per signal.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Literal, Union, get_args

import numpy as np

from . import channel as ch
from . import spectrum
from .protocol import SceneContext
from .signal import (
    DEFAULT_AMPLITUDE_BUDGET,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_GRID,
    FrequencyGrid,
    ReferenceSignal,
    sample_spec,
    synthesize,
)

Target = Literal["auth", "vouch", "both"]

# Attacker speaker sits this far from the targeted device.
ATTACKER_OFFSET_M = 0.3


def _check_fields(scenario) -> None:
    """Reject a target no device answers to, an attacker position that is not
    a tuple of finite numbers and a guess seed that is not an integer, so a
    scenario cannot silently attack nothing or fail later inside a session."""
    if scenario.target not in get_args(Target):
        raise ValueError(f"target must be 'auth', 'vouch' or 'both', got {scenario.target!r}")
    position = getattr(scenario, "attacker_position", None)
    finite = isinstance(position, tuple) and all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p) for p in position
    )
    if position is not None and not finite:
        raise ValueError(f"attacker_position must be a sequence of finite numbers, got {position!r}")
    seed = getattr(scenario, "guess_seed", None)
    if seed is not None and not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)):
        raise ValueError(f"guess_seed must be an integer, got {seed!r}")


@dataclass(frozen=True)
class ZeroEffort:
    """The attacker simply tries the device; no acoustic injection."""

    target: Target = "auth"

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class GuessingReplay:
    """The attacker re-runs the public signal construction with its own seed
    and plays one guess near each device (the strongest replay placement)."""

    guess_seed: int | None = None
    attacker_position: tuple[float, ...] | None = None
    target: Target = "both"

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class AllFrequency:
    """One sine per grid candidate, equal measured per-tone power, played for
    the whole session when ``continuous``."""

    per_tone_power: float
    attacker_position: tuple[float, ...] | None = None
    continuous: bool = True
    target: Target = "auth"

    def __post_init__(self) -> None:
        power = self.per_tone_power
        if isinstance(power, bool) or not isinstance(power, (int, float)):
            raise ValueError(f"per_tone_power must be a number, got {power!r}")
        if power <= 0:
            raise ValueError("per-tone power must be positive")
        _check_fields(self)


AttackScenario = Union[ZeroEffort, GuessingReplay, AllFrequency]


def guessing_replay_signal(rng: np.random.Generator) -> ReferenceSignal:
    """A fresh reference-signal draw, statistically independent of any
    session's signals."""
    return synthesize(sample_spec(rng))


def all_frequency_signal(grid: FrequencyGrid, per_tone_power: float, duration: int) -> np.ndarray:
    """Spoofing waveform containing every candidate tone at the default
    sample rate.

    Per-tone amplitudes are calibrated against the detector's measurement
    convention so each tone carries ``per_tone_power``; raises when the
    requested power cannot fit the default amplitude budget after summation.
    The waveform is memoised per ``(grid, power, duration)`` and returned
    read-only, since every caller with that key shares it.
    """
    if duration < 4096:
        raise ValueError("duration must cover at least one measurement window (4096 samples)")
    if not (math.isfinite(per_tone_power) and per_tone_power > 0):
        raise ValueError(f"per-tone power must be finite and positive, got {per_tone_power!r}")
    return _all_frequency_waveform(grid, float(per_tone_power), int(duration))


# An attack campaign replays one waveform on every trial, so keeping the last
# one is enough; each kept continuous waveform holds ~130 KB.
@lru_cache(maxsize=1)
def _all_frequency_waveform(grid: FrequencyGrid, per_tone_power: float, duration: int) -> np.ndarray:
    amps = [math.sqrt(per_tone_power / unit_power) for unit_power in _unit_sine_powers(grid)]
    if sum(amps) > DEFAULT_AMPLITUDE_BUDGET:
        raise ValueError(
            f"per-tone power {per_tone_power:g} infeasible: tone amplitudes sum to "
            f"{sum(amps):.0f} > budget {DEFAULT_AMPLITUDE_BUDGET}"
        )
    t = np.arange(duration, dtype=np.float64)
    x = np.zeros(duration)
    for f, a in zip(grid.candidates, amps):
        x += a * np.sin(2.0 * np.pi * f * t / DEFAULT_SAMPLE_RATE)
    wave = np.clip(np.rint(x), -32768, 32767).astype(np.int16)
    wave.setflags(write=False)
    return wave


@lru_cache(maxsize=4)
def _unit_sine_powers(grid: FrequencyGrid) -> tuple[float, ...]:
    """Each candidate's measured power for a unit-amplitude sine at it."""
    window = 4096
    theta = spectrum.DetectionParams().theta
    powers = []
    for i, f in enumerate(grid.candidates):
        unit = np.sin(2.0 * np.pi * f * np.arange(window) / DEFAULT_SAMPLE_RATE)
        powers.append(spectrum.measure_candidate_powers(unit, grid, DEFAULT_SAMPLE_RATE, theta)[i])
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


def _near(position: tuple[float, ...], anchor: tuple[float, ...]) -> tuple[float, ...]:
    if position is not None:
        return tuple(position)
    offset = (ATTACKER_OFFSET_M,) + (0.0,) * (len(anchor) - 1)
    return tuple(p + o for p, o in zip(anchor, offset))


def build_emissions(scenario: AttackScenario, ctx: SceneContext, rng: np.random.Generator) -> list[ch.Emission]:
    """Translate an attack scenario into scene emissions."""
    if isinstance(scenario, ZeroEffort):
        return []

    anchors = []
    if scenario.target in ("auth", "both"):
        anchors.append(ctx.auth_position)
    if scenario.target in ("vouch", "both"):
        anchors.append(ctx.vouch_position)

    if isinstance(scenario, GuessingReplay):
        guess_rng = np.random.default_rng(scenario.guess_seed) if scenario.guess_seed is not None else rng
        emissions = []
        for i, anchor in enumerate(anchors):
            guess = guessing_replay_signal(guess_rng)
            earliest, latest = int(0.05 * ctx.duration), ctx.duration - guess.samples.shape[0] - 1
            if earliest >= latest:
                raise ValueError(f"scene duration {ctx.duration} too short for a {len(guess.samples)}-sample replay")
            when = int(rng.integers(earliest, latest))
            pos = _near(scenario.attacker_position, anchor)
            emissions.append(ch.Emission(f"attacker_{i}", guess.samples, when, pos))
        return emissions

    if isinstance(scenario, AllFrequency):
        length = ctx.duration - 1 if scenario.continuous else 8192
        if length >= ctx.duration:
            raise ValueError(f"scene duration {ctx.duration} too short for a {length}-sample all-frequency burst")
        wave = all_frequency_signal(DEFAULT_GRID, scenario.per_tone_power, length)
        start = 0 if scenario.continuous else int(rng.integers(0, ctx.duration - length))
        return [
            ch.Emission(f"attacker_{i}", wave, start, _near(scenario.attacker_position, anchor))
            for i, anchor in enumerate(anchors)
        ]

    raise TypeError(f"unknown scenario {scenario!r}")


_SCENARIO_KINDS = {"zero_effort": ZeroEffort, "guessing_replay": GuessingReplay, "all_frequency": AllFrequency}


def scenario_from_json(obj: dict) -> AttackScenario:
    """Build an attack scenario from its JSON form: ``kind`` plus the
    scenario's fields; raises ``ValueError`` naming an unknown or missing
    field."""
    kind = obj.get("kind")
    if kind not in _SCENARIO_KINDS:
        raise ValueError(f"unknown attack kind {kind!r}")
    scenario = _SCENARIO_KINDS[kind]
    params = {k: v for k, v in obj.items() if k != "kind"}
    known = {f.name: f for f in fields(scenario)}
    for key in params:
        if key not in known:
            raise ValueError(f"{kind} attack has no field {key!r}")
    for name, f in known.items():
        if name not in params and f.default is MISSING:
            raise ValueError(f"{kind} attack lacks the {name!r} field")
    if isinstance(params.get("attacker_position"), list):
        params["attacker_position"] = tuple(params["attacker_position"])
    return scenario(**params)

