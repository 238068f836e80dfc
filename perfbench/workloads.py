"""The benchmark's workloads: seeded campaigns through ``sonicauth.evaluation``.

Each workload runs whole campaigns, one session at a time in one process (a
closed loop with a single client). Its size is a trial count; every input is
derived from the benchmark seed.

* ``office_ranging`` - legitimate pairs at 0.5-2 m in the office; every
  detection finds its signal, so ``spectrum`` dominates.
* ``spoof_campaign`` - the spoofing acceptance campaign: guessing replays
  and continuous all-frequency spoofing across the power sweep, devices 3 m
  apart; ``adversary`` and ``channel`` carry the load and the detector takes
  its reject path.
* ``crowded_multiuser`` - three pairs ranging at once; six reference signals
  per session make ``signal`` synthesis and channel mixing the heavy layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import sonicauth.adversary as adv
import sonicauth.evaluation as ev

from tracing import CAMPAIGN, Tracer

DISTANCES = (0.5, 1.0, 1.5, 2.0)
ENVIRONMENT = "office"
SPOOF_SEPARATION_M = 3.0
SPOOF_SWEEP_POINTS = 6
CROWDED_PAIRS = 3
# Ranging accuracy limit (the office acceptance criterion): the mean |error|
# at each distance must stay within it. Single estimates may exceed it: at
# 1-2 m the error is noise-limited and its tail passes 0.15 m on some seeds.
# An accept further than this beyond the threshold is a false accept.
ERROR_LIMIT_M = 0.15

# Exact layer calls per session of each kind; a missed or double-wrapped call
# breaks the run.
_LEGIT = {
    "signal.synthesize": 2,
    "signal.sample_spec": 2,
    "signal.link_codec": 4,
    "channel.record": 2,
    "channel.propagate": 4,
    "spectrum.detect_pair": 2,
    "adversary.build_emissions": 0,
    "adversary.all_frequency_signal": 0,
}
EXPECTED_CALLS = {
    "legit": _LEGIT,
    "crowded": {**_LEGIT, "signal.synthesize": 6, "signal.sample_spec": 6, "channel.propagate": 12},
    "guessing": {
        **_LEGIT,
        "signal.synthesize": 4,
        "signal.sample_spec": 4,
        "channel.propagate": 8,
        "adversary.build_emissions": 1,
    },
    "allfreq": {
        **_LEGIT,
        "channel.propagate": 6,
        "adversary.build_emissions": 1,
        "adversary.all_frequency_signal": 1,
    },
}


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _office_ranging(seed: int, trials: int, tracer: Tracer) -> None:
    tracer.session_kind = "legit"
    with tracer.span(CAMPAIGN):
        ev.distance_error_campaign(ENVIRONMENT, DISTANCES, trials, seed, min_trials=1)


def _crowded_multiuser(seed: int, trials: int, tracer: Tracer) -> None:
    tracer.session_kind = "crowded"
    with tracer.span(CAMPAIGN):
        ev.multiuser_campaign(CROWDED_PAIRS, DISTANCES, trials, seed, environment=ENVIRONMENT, min_trials=1)


def _spoof_campaign(seed: int, trials: int, tracer: Tracer) -> None:
    with tracer.span(CAMPAIGN):
        sweep = ev.all_frequency_power_sweep(SPOOF_SWEEP_POINTS)
    # As many guessing sessions as all-frequency ones, as in the spoofing
    # acceptance campaign.
    tracer.session_kind = "guessing"
    with tracer.span(CAMPAIGN):
        ev.attack_campaign(
            adv.GuessingReplay(),
            SPOOF_SWEEP_POINTS * trials,
            _sub_seed(seed, 0),
            separation_m=SPOOF_SEPARATION_M,
            environment=ENVIRONMENT,
        )
    tracer.session_kind = "allfreq"
    for i, power in enumerate(sweep):
        with tracer.span(CAMPAIGN):
            ev.attack_campaign(
                adv.AllFrequency(per_tone_power=float(power)),
                trials,
                _sub_seed(seed, 1 + i),
                separation_m=SPOOF_SEPARATION_M,
                environment=ENVIRONMENT,
            )


def _first_ranging_session(seed: int) -> None:
    ev.distance_error_campaign(ENVIRONMENT, DISTANCES[:1], 1, seed, min_trials=1)


def _first_crowded_session(seed: int) -> None:
    ev.multiuser_campaign(CROWDED_PAIRS, DISTANCES[:1], 1, seed, environment=ENVIRONMENT, min_trials=1)


def _first_spoof_session(seed: int) -> None:
    ev.attack_campaign(
        adv.GuessingReplay(), 1, _sub_seed(seed, 0), separation_m=SPOOF_SEPARATION_M, environment=ENVIRONMENT
    )


def _all_present(decision, transcript) -> bool:
    return transcript.signal_present


def _never_accepted(decision, transcript) -> bool:
    return not decision.accepted


def _any_outcome(decision, transcript) -> bool:
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, int, Tracer], None]
    first_session: Callable[[int], None]
    invariant: Callable[[object, object], bool]
    sessions_per_trial: int
    # Sized so that a run of ``seconds`` takes about that long on a 2-core
    # x86 host with the code as first benchmarked; the work is fixed by
    # (seed, seconds), not by the clock, so runs stay comparable.
    trials_per_second: float
    # ``signal.synthesize`` calls made outside any session (the power sweep).
    outside_synthesize: int
    # Whether the mean |error| per distance must stay within ERROR_LIMIT_M.
    checks_mean_error: bool

    def trials_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.trials_per_second))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "office_ranging",
            _office_ranging,
            _first_ranging_session,
            invariant=_all_present,
            sessions_per_trial=len(DISTANCES),
            trials_per_second=2.2,
            outside_synthesize=0,
            checks_mean_error=True,
        ),
        Workload(
            "spoof_campaign",
            _spoof_campaign,
            _first_spoof_session,
            invariant=_never_accepted,
            sessions_per_trial=2 * SPOOF_SWEEP_POINTS,
            trials_per_second=0.72,
            outside_synthesize=1,
            checks_mean_error=False,
        ),
        Workload(
            "crowded_multiuser",
            _crowded_multiuser,
            _first_crowded_session,
            invariant=_any_outcome,
            sessions_per_trial=len(DISTANCES),
            trials_per_second=2.0,
            outside_synthesize=0,
            checks_mean_error=False,
        ),
    )
}
