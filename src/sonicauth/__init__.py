"""Acoustic two-way ranging and proximity-based device authentication.

Submodules:

* ``signal``     - the candidate frequencies, randomized reference signals
* ``spectrum``   - power spectra and sliding-window signal detection
* ``channel``    - simulated acoustic propagation, noise and recording
* ``protocol``   - the two-party session and the authentication decision
* ``adversary``  - attacker models (zero-effort, replay, all-frequency)
* ``evaluation`` - campaigns, analytic FRR/FAR model, detector comparison
"""

from .signal import (
    CANDIDATES,
    ReferenceSignal,
    SignalSpec,
    sample_spec,
    synthesize,
)
from .spectrum import (
    DetectionOutcome,
    cross_correlate_detect,
    detect_pair,
    frequency_bin,
)
from .channel import AcousticScene, ChannelConfig, Emission, Recorder, record
from .protocol import (
    AuthDecision,
    AuthPolicy,
    Endpoint,
    RejectReason,
    SessionMeasurements,
    estimate_distance,
    run_authentication,
)
from .adversary import (
    AllFrequency,
    GuessingReplay,
    ZeroEffort,
    all_frequency_signal,
    guessing_success_probability,
)
from .evaluation import (
    ErrorModel,
    attack_campaign,
    detector_comparison,
    distance_error_campaign,
    fit_sigma,
    frr_far_model,
    multiuser_campaign,
)

__all__ = [
    "CANDIDATES",
    "ReferenceSignal",
    "SignalSpec",
    "sample_spec",
    "synthesize",
    "DetectionOutcome",
    "cross_correlate_detect",
    "detect_pair",
    "frequency_bin",
    "AcousticScene",
    "ChannelConfig",
    "Emission",
    "Recorder",
    "record",
    "AuthDecision",
    "AuthPolicy",
    "Endpoint",
    "RejectReason",
    "SessionMeasurements",
    "estimate_distance",
    "run_authentication",
    "AllFrequency",
    "GuessingReplay",
    "ZeroEffort",
    "all_frequency_signal",
    "guessing_success_probability",
    "ErrorModel",
    "attack_campaign",
    "detector_comparison",
    "distance_error_campaign",
    "fit_sigma",
    "frr_far_model",
    "multiuser_campaign",
]

__version__ = "0.1.0"
