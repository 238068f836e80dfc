import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from helpers import closed_form_far, closed_form_frr
from sonicauth import adversary as adv
from sonicauth import channel as ch
from sonicauth import evaluation as ev
from sonicauth.protocol import (
    PLAYBACK_GAP_SAMPLES,
    RECORD_SAMPLES,
    AuthPolicy,
    Endpoint,
    run_authentication,
)


PHI_0 = 1.0 / math.sqrt(2.0 * math.pi)
NAN, INF = float("nan"), float("inf")


def norm_frr_far(tau_m, model):
    """Reference: the model's two integrals by ``quad`` over ``scipy.stats.norm``
    integrands, each to absolute tolerance 1e-10."""
    sigma = model.sigma_m
    frr = quad(lambda d: norm.sf(tau_m, loc=d, scale=sigma), 0.0, tau_m, epsabs=1e-10)[0] / tau_m
    far = quad(lambda d: norm.cdf(tau_m, loc=d, scale=sigma), tau_m, model.detect_range_m, epsabs=1e-10)[0]
    return frr, far / (model.pairing_range_m - tau_m)


class TestFrrFarModel:
    @pytest.mark.parametrize(
        "tau, sigma",
        [(0.5, 0.0702), (1.0, 0.0702), (1.5, 0.0702), (2.0, 0.0702), (0.3, 0.02), (1.0, 0.5), (2.4, 0.15), (0.05, 1.0)],
    )
    def test_equals_norm_reference_bit_for_bit(self, tau, sigma):
        """The closed form agrees with the quadrature reference to 1e-12: the
        two differ in the last bits, and the reference is only a quadrature."""
        model = ev.ErrorModel(sigma_m=sigma)
        assert ev.frr_far_model(tau, model) == pytest.approx(norm_frr_far(tau, model), rel=0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sigma=st.floats(0.005, 1.0), tau=st.floats(0.05, 2.4))
    def test_equals_norm_reference_everywhere(self, sigma, tau):
        """Wherever the transition is wide enough for the quadrature to
        resolve, the two agree within the quadrature's own tolerance (on
        random draws the reference strays by up to about 1e-12, the closed
        form far less)."""
        model = ev.ErrorModel(sigma)
        assert ev.frr_far_model(tau, model) == pytest.approx(norm_frr_far(tau, model), rel=0, abs=1e-10)

    def test_frr_exact_at_tiny_sigma(self):
        """At sigma = 1e-4 m the transition is too narrow for a quadrature to
        see; the FRR is then sigma*phi(0)/tau. At a subnormal sigma, tau/sigma
        overflows to infinity, and the model takes the limit. The absolute
        tolerance is two steps of the subnormal grid."""
        for sigma in (1e-4, 1e-320):
            frr, _ = ev.frr_far_model(1.0, ev.ErrorModel(sigma))
            assert frr == pytest.approx(sigma * PHI_0 / 1.0, rel=1e-9, abs=1e-323)

    def test_far_exact_at_tiny_sigma(self):
        for sigma in (2e-4, 1e-320):
            model = ev.ErrorModel(sigma)
            _, far = ev.frr_far_model(1.0, model)
            assert far == pytest.approx(sigma * PHI_0 / (model.pairing_range_m - 1.0), rel=1e-9, abs=1e-323)

    def test_matches_closed_form(self):
        model = ev.ErrorModel(sigma_m=0.0702)
        for tau in (0.5, 1.0, 1.5, 2.0):
            frr, far = ev.frr_far_model(tau, model)
            assert frr == pytest.approx(closed_form_frr(tau, 0.0702), abs=1e-6)
            assert far == pytest.approx(closed_form_far(tau, 0.0702, 2.5, 10.0), abs=1e-6)

    def test_frr_decreasing_in_tau_increasing_in_sigma(self):
        taus = (0.5, 1.0, 1.5, 2.0)
        sigmas = (0.05, 0.07, 0.1, 0.15)
        for sigma in sigmas:
            vals = [ev.frr_far_model(t, ev.ErrorModel(sigma))[0] for t in taus]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for tau in taus:
            vals = [ev.frr_far_model(tau, ev.ErrorModel(s))[0] for s in sigmas]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_threshold_asymptotic(self):
        # FRR * tau approaches sigma / sqrt(2*pi) when tau >> sigma
        sigma = 0.07
        frr, _ = ev.frr_far_model(2.0, ev.ErrorModel(sigma))
        assert frr * 2.0 == pytest.approx(sigma / np.sqrt(2 * np.pi), rel=0.05)

    def test_far_vanishes_with_sigma(self):
        """The FAR falls in proportion to sigma: sigma*phi(0)/(R - tau) once
        sigma is far below the gap to the detect range."""
        model = ev.ErrorModel(1e-6)
        _, far = ev.frr_far_model(1.0, model)
        assert far == pytest.approx(1e-6 * PHI_0 / (model.pairing_range_m - 1.0), rel=1e-9)

    @pytest.mark.parametrize("sigma", [1e6, 1e16, 1e17, 1e300])
    def test_no_cancellation_at_large_sigma(self, sigma):
        """As sigma outgrows every distance, the FRR tends to 1/2 from below,
        as ``1/2 - phi(0)*x/2`` at ``x = tau/sigma``, and the FAR to
        ``(D - tau) / (2*(R - tau))`` from below, with the same correction at
        ``x = (D - tau)/sigma``. A difference of the antiderivative's values
        read 0.555 and 0.062 at sigma = 1e16, then 0 and 0."""
        model = ev.ErrorModel(sigma)
        frr, far = ev.frr_far_model(1.0, model)
        gap = model.detect_range_m - 1.0
        assert frr <= 0.5
        assert frr == pytest.approx(0.5 - PHI_0 / sigma / 2, rel=1e-12)
        assert far == pytest.approx((gap / 2 - PHI_0 * gap * gap / sigma / 2) / (model.pairing_range_m - 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "ranges",
        [(2.5, INF), (INF, INF), (INF, 10.0), (-INF, 10.0), (NAN, 10.0), (2.5, NAN), (None, 10.0), (2.5, "10")],
        ids=str,
    )
    def test_non_finite_range_rejected(self, ranges):
        """An infinite pairing range would make every FAR 0. A range that is
        not a number once raised ``TypeError``."""
        with pytest.raises(ValueError, match=rf"^need 0 < detect_range < pairing_range < inf, got {ranges[0]} and {ranges[1]}$"):
            ev.ErrorModel(0.07, *ranges)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"), None, "0.07", True])
    def test_bad_sigma_rejected(self, sigma):
        """``None`` and a string once raised ``TypeError``, and ``True`` was a
        sigma of 1 m."""
        with pytest.raises(ValueError, match=f"^sigma must be finite and positive, got {sigma}$"):
            ev.ErrorModel(sigma)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ev.frr_far_model(2.6, ev.ErrorModel(0.07))
        with pytest.raises(ValueError):
            ev.frr_far_model(0.0, ev.ErrorModel(0.07))


class TestFitSigma:
    def test_equals_norm_reference_bit_for_bit(self):
        """The bisection lands within the shared xtol of ``brentq`` on the
        quadrature reference."""

        def objective(sigma):
            return norm_frr_far(1.0, ev.ErrorModel(sigma))[0] - 0.028

        assert ev.fit_sigma(0.028, 1.0) == pytest.approx(brentq(objective, 1e-4, 1.0, xtol=1e-6), rel=0, abs=1e-6)

    def test_recovers_office_sigma(self):
        sigma = ev.fit_sigma(0.028, 1.0)
        assert sigma == pytest.approx(0.0702, abs=0.0005)
        frr, _ = ev.frr_far_model(1.0, ev.ErrorModel(sigma))
        assert frr == pytest.approx(0.028, abs=1e-4)

    def test_noisier_row_fits_larger_sigma(self):
        assert ev.fit_sigma(0.063, 1.0) > ev.fit_sigma(0.028, 1.0)

    def test_unreachable_target_raises(self):
        """The model's FRR stays below 0.5, and above 0."""
        for frr in (0.6, 0.0, float("nan")):
            with pytest.raises(ValueError, match="^no sigma in \\(1e-4, 1\\) reaches the requested FRR$"):
                ev.fit_sigma(frr, 1.0)

    def test_target_below_the_bracket_raises(self):
        """At sigma = 1e-4 m the FRR at tau = 1 m is already 3.99e-5, so no
        sigma in the bracket gives 3e-5."""
        with pytest.raises(ValueError, match="reaches the requested FRR"):
            ev.fit_sigma(3e-5, 1.0)


class TestCampaignReports:
    def test_distance_error_campaign_reproducible(self):
        a = ev.distance_error_campaign("office", (0.5, 1.0), 10, 33)
        b = ev.distance_error_campaign("office", (0.5, 1.0), 10, 33)
        assert a.rows == b.rows
        assert a.to_json() == b.to_json()

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            ev.distance_error_campaign("office", (0.5,), 3, 1)

    def test_csv_shape(self):
        report = ev.distance_error_campaign("office", (0.5,), 10, 12)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("environment,distance_m,trials")
        assert len(lines) == 2

    def test_silent_not_worse_than_office(self):
        silent = ev.distance_error_campaign("silent", (1.0,), 30, 99)
        office = ev.distance_error_campaign("office", (1.0,), 30, 99)
        assert silent.rows[0]["mean_abs_error_m"] <= office.rows[0]["mean_abs_error_m"]

    def test_street_not_better_than_office(self):
        office = ev.distance_error_campaign("office", (1.0,), 30, 99)
        street = ev.distance_error_campaign("street", (1.0,), 30, 99)
        assert street.rows[0]["mean_abs_error_m"] >= office.rows[0]["mean_abs_error_m"]


class TestMultiuser:
    def test_degenerate_single_pair_identical(self):
        a = ev.multiuser_campaign(1, (0.5, 1.0), 10, 21)
        b = ev.distance_error_campaign("office", (0.5, 1.0), 10, 21)
        assert a.rows == b.rows

    def test_interference_raises_errors_and_yields_some_rejects(self):
        single = ev.distance_error_campaign("office", (0.5, 1.0, 1.5, 2.0), 10, 21)
        multi = ev.multiuser_campaign(3, (0.5, 1.0, 1.5, 2.0), 10, 21)
        pooled_single = np.nanmean([r["mean_abs_error_m"] for r in single.rows])
        pooled_multi = np.nanmean([r["mean_abs_error_m"] for r in multi.rows])
        assert pooled_multi >= pooled_single
        # a minority of sessions lose a signal entirely
        assert 0 < multi.meta["not_present_total"] <= 12

    def test_interferers_start_over_their_own_timeline(self):
        """Other users' sessions start at random over 1.5 s, past the end of
        a session's recording: those that start after it are drawn, and not
        heard."""
        auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (1.0, 0.0))
        starts = [e.emit_time for e in ev._interferer_emissions(auth, vouch, np.random.default_rng(0), 20)[::2]]
        assert max(starts) < ev.INTERFERER_TIMELINE_SAMPLES - 4096 - PLAYBACK_GAP_SAMPLES
        assert min(starts) < RECORD_SAMPLES <= max(starts)

    def test_interferers_use_the_sessions_settings(self):
        """The interferer pairs are staggered by the session's playback gap."""
        emissions = []

        def intruder(auth, vouch, rng):
            emissions.extend(ev._interferer_emissions(auth, vouch, rng, 2))
            return emissions

        run_authentication(
            Endpoint("auth", (0.0, 0.0)),
            Endpoint("vouch", (1.0, 0.0)),
            AuthPolicy(threshold_m=1.0),
            np.random.default_rng(5),
            ch.ChannelConfig(),
            intruder=intruder,
        )
        gaps = [b.emit_time - a.emit_time for a, b in zip(emissions[::2], emissions[1::2])]
        assert gaps == [PLAYBACK_GAP_SAMPLES] * 2

    def test_pairs_must_be_positive(self):
        with pytest.raises(ValueError):
            ev.multiuser_campaign(0, (0.5,), 10, 1)


class TestAttackCampaign:
    def test_zero_effort_beyond_pairing_range(self):
        (row,) = ev.attack_campaign(adv.ZeroEffort(), 10, 5, separation_m=12.0).rows
        assert row["accepts"] == 0
        assert (row["not_paired"], row["signal_not_present"], row["distance_exceeded"]) == (10, 0, 0)

    def test_zero_effort_beyond_detect_range_hundred_trials(self):
        # user away but still within Bluetooth range: every trial rejects
        (row,) = ev.attack_campaign(adv.ZeroEffort(), 100, 55, separation_m=3.5).rows
        assert row["accepts"] == 0
        assert (row["not_paired"], row["signal_not_present"], row["distance_exceeded"]) == (0, 100, 0)

    def test_guessing_replay_short_run(self):
        (row,) = ev.attack_campaign(adv.GuessingReplay(), 10, 6, separation_m=3.0).rows
        assert row["accepts"] == 0

    def test_power_sweep_brackets_thresholds(self):
        sweep = ev.all_frequency_power_sweep(6)
        assert len(sweep) == 6
        assert sweep[0] < sweep[-1]

    @pytest.mark.parametrize(
        "count, message",
        [
            (0, "^need at least one power, got count=0$"),
            (-1, "^need at least one power, got count=-1$"),
            (True, "^count must be an integer, got count=True$"),
            (2.5, "^count must be an integer, got count=2.5$"),
            ("a", "^count must be an integer, got count='a'$"),
        ],
        ids=["zero", "negative", "bool", "float", "string"],
    )
    def test_power_sweep_bad_count_rejected(self, monkeypatch, count, message):
        """Refused before the reference signal is built: 0 once returned no
        power, True one power, and 2.5 and "a" raised numpy errors."""
        monkeypatch.setattr(ev.sg, "synthesize", lambda spec: pytest.fail("the sweep built its reference"))
        with pytest.raises(ValueError, match=message):
            ev.all_frequency_power_sweep(count)


class TestSessions:
    """Every campaign runs its sessions through ``_sessions``, which rejects
    a cell it could not measure before running any session."""

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match=f"^need at least one trial per cell, got trials={trials}$"):
            ev._sessions((0.5,), trials, 1, ch.ChannelConfig(), None)

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), -0.5])
    def test_bad_separation_rejected(self, separation):
        message = f"^separation must be a finite, non-negative distance in metres, got {separation}$"
        with pytest.raises(ValueError, match=message):
            ev._sessions((0.5, separation), 1, 1, ch.ChannelConfig(), None)

    @pytest.mark.parametrize("separation", ["a", None, True, 1 + 0j])
    def test_non_real_separation_rejected(self, separation):
        message = f"^separation must be a real number of metres, got {re.escape(repr(separation))}$"
        with pytest.raises(ValueError, match=message):
            ev._sessions((0.5, separation), 1, 1, ch.ChannelConfig(), None)

    def test_numpy_separation_accepted(self, monkeypatch):
        """``numbers.Real`` admits numpy scalars."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: (None, None))
        assert len(ev._sessions((np.float64(0.5), np.int64(1)), 1, 1, ch.ChannelConfig(), None)) == 2

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda: ev.multiuser_campaign(1, (), 1, 1, min_trials=1),
            lambda: ev.distance_error_campaign("office", (), 1, 1, min_trials=1),
            lambda: ev.detector_comparison((), 1, 1),
        ],
        ids=["multiuser", "distance_error", "detector_comparison"],
    )
    def test_empty_distance_list_rejected(self, monkeypatch, campaign):
        """Before the check, a campaign with no distance ran no session and
        returned a report with no rows."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match="^need at least one distance, got none$"):
            campaign()

    def test_bad_separation_rejected_before_any_session(self, monkeypatch):
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match="separation"):
            ev.distance_error_campaign("office", (0.5, float("nan")), 1, 1, min_trials=1)

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda: ev.multiuser_campaign(1, ("a",), 3, 1, min_trials=1),
            lambda: ev.multiuser_campaign(1, (None,), 3, 1, min_trials=1),
            lambda: ev.multiuser_campaign(1, (True,), 1, 1, min_trials=1),
            lambda: ev.attack_campaign(adv.ZeroEffort(), 1, 1, separation_m="3"),
            lambda: ev.detector_comparison(("a",), 1, 1),
        ],
        ids=["multiuser_str", "multiuser_none", "multiuser_bool", "attack_str", "comparison_str"],
    )
    def test_non_real_separation_rejected_before_any_session(self, monkeypatch, campaign):
        """Refused before any session, and before the detector comparison's
        pairing-range check compares it."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match="^separation must be a real number of metres, got "):
            campaign()

    @pytest.mark.parametrize(
        "campaign, message",
        [
            (lambda: ev.multiuser_campaign(1.5, (0.5,), 1, 1, min_trials=1), "^pairs must be an integer, got pairs=1.5$"),
            (lambda: ev.multiuser_campaign(1, (0.5,), 1.5, 1, min_trials=1), "^trials must be an integer, got trials=1.5$"),
            (lambda: ev.attack_campaign(adv.ZeroEffort(), 1.5, 1), "^trials must be an integer, got trials=1.5$"),
            (lambda: ev.attack_campaign(adv.ZeroEffort(), True, 1), "^trials must be an integer, got trials=True$"),
            (lambda: ev.multiuser_campaign(1, (0.5,), "3", 1, min_trials=1), "^trials must be an integer, got trials='3'$"),
            (
                lambda: ev.multiuser_campaign(1, (0.5,), 3, 1, min_trials="1"),
                "^min_trials must be an integer, got min_trials='1'$",
            ),
        ],
        ids=["pairs", "multiuser_trials", "attack_trials", "attack_trials_bool", "multiuser_trials_str", "min_trials_str"],
    )
    def test_non_integer_count_rejected_before_any_session(self, monkeypatch, campaign, message):
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match=message):
            campaign()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: ev.attack_campaign("x", 1, 0), "scenario"),
            (lambda: ev.attack_campaign(None, 1, 0), "scenario"),
            (lambda: ev.frr_far_model("a", ev.ErrorModel(0.05)), "threshold tau_m"),
            (lambda: ev.fit_sigma("a", 1.0), "frr_target"),
        ],
        ids=["attack_str_scenario", "attack_none_scenario", "frr_far_str_tau", "fit_sigma_str_frr"],
    )
    def test_mistyped_argument_rejected_before_any_session(self, monkeypatch, call, name):
        """Each once raised a bare ``TypeError``, the attack campaign's from
        inside its first session."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match=f"^{name} must "):
            call()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a"])
    @pytest.mark.parametrize(
        "campaign",
        [
            lambda seed: ev.multiuser_campaign(1, (0.5,), 1, seed, min_trials=1),
            lambda seed: ev.attack_campaign(adv.ZeroEffort(), 1, seed),
            lambda seed: ev.detector_comparison((0.5,), 1, seed),
        ],
        ids=["multiuser", "attack", "detector_comparison"],
    )
    def test_bad_seed_rejected_before_any_session(self, monkeypatch, campaign, seed):
        """Each once escaped as a numpy error that did not name the seed, and
        1.5 as a ``TypeError``; the detector comparison's calibration draw
        comes first, and is refused too."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        message = f"^seed must be a non-negative integer, got seed={re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            campaign(seed)

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda cfg: ev.multiuser_campaign(1, (0.5,), 1, 1, min_trials=1, channel_cfg=cfg),
            lambda cfg: ev.attack_campaign(adv.ZeroEffort(), 1, 1, channel_cfg=cfg),
            lambda cfg: ev.detector_comparison((0.5,), 1, 1, channel_cfg=cfg),
        ],
        ids=["multiuser", "attack", "detector_comparison"],
    )
    def test_channel_cfg_that_is_no_config_rejected(self, monkeypatch, campaign):
        """A dict once raised ``TypeError`` from ``dataclasses.replace``."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        message = "^channel_cfg must be a ChannelConfig or None, got {'environment': 'office'}$"
        with pytest.raises(ValueError, match=message):
            campaign({"environment": "office"})

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda cfg: ev.multiuser_campaign(1, (0.5,), 1, 3, min_trials=1, channel_cfg=cfg),
            lambda cfg: ev.attack_campaign(adv.ZeroEffort(), 1, 3, channel_cfg=cfg),
            lambda cfg: ev.detector_comparison((0.5,), 1, 3, channel_cfg=cfg),
        ],
        ids=["multiuser", "attack", "detector_comparison"],
    )
    def test_channel_cfg_in_another_environment_rejected(self, monkeypatch, campaign):
        """A street config once ran in the office, the ``environment``
        default, and its transcripts said ``"office"``."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        message = "^channel_cfg's environment 'street' disagrees with environment='office'$"
        with pytest.raises(ValueError, match=message):
            campaign(ch.ChannelConfig(environment="street"))

    def test_channel_cfg_in_the_campaigns_environment_runs_there(self):
        cfg = ch.ChannelConfig(environment="street")
        report = ev.multiuser_campaign(1, (0.5,), 1, 3, channel_cfg=cfg, environment="street", min_trials=1)
        assert [t.environment for t in report.transcripts] == ["street"]
        assert report.to_json() == ev.multiuser_campaign(1, (0.5,), 1, 3, environment="street", min_trials=1).to_json()

    def test_numpy_counts_accepted(self):
        """A numpy integer is a count, as it is a sample index in a scene:
        the reports equal those of the same Python counts, JSON included."""
        multiuser = ev.multiuser_campaign(np.int64(1), (0.5,), np.int32(1), 1, min_trials=np.int64(1))
        assert multiuser.to_json() == ev.multiuser_campaign(1, (0.5,), 1, 1, min_trials=1).to_json()
        attack = ev.attack_campaign(adv.ZeroEffort(), np.int64(2), 1, separation_m=12.0)
        assert attack.to_json() == ev.attack_campaign(adv.ZeroEffort(), 2, 1, separation_m=12.0).to_json()


class TestTrialOrder:
    """Trials are order-insensitive: each (cell, trial) run alone from its own
    stream, in reverse order, gives the transcript ``_sessions`` gave it,
    though the process keeps caches across sessions (the shift ramps, the
    path memo and the bin tables)."""

    def _assert_order_insensitive(self, separations, trials, seed, intruder):
        cfg = ev._cfg_for("office", None)
        policy = AuthPolicy()
        forward = ev._sessions(separations, trials, seed, cfg, intruder)
        assert len(forward) == len(separations) * trials
        # _sessions runs cell by cell, trial by trial: result i is trial i % trials.
        for i in reversed(range(len(forward))):
            cell, t = forward[i]
            auth, vouch = Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (separations[cell], 0.0))
            rng = ev._trial_rng(seed, cell, i % trials)
            _, again = run_authentication(auth, vouch, policy, rng, cfg, intruder=intruder)
            assert again.to_json() == t.to_json()

    def test_crowded(self):
        self._assert_order_insensitive((0.5, 1.0), 2, 61, lambda a, v, r: ev._interferer_emissions(a, v, r, 2))

    def test_all_frequency_attack(self):
        scenario = adv.AllFrequency(per_tone_power=ev.all_frequency_power_sweep(6)[-1])
        self._assert_order_insensitive((3.0,), 3, 62, lambda a, v, r: adv.build_emissions(scenario, a, v, r))


class TestDetectorComparison:
    @pytest.mark.parametrize("sigma", [-1.0, 1.5, float("nan"), float("inf"), "a"])
    def test_bad_sigma_proc_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma_proc_s must be in \\[0, 1.0\\] seconds, got {sigma}$"):
            ev.detector_comparison((1.0,), 1, 42, sigma_proc_s=sigma)

    def test_distance_beyond_pairing_range_rejected_before_any_session(self, monkeypatch):
        """No paired link serves any method there."""
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match="^distance 1000000.0 m is beyond the 10.0 m pairing range$"):
            ev.detector_comparison((0.5, 1e6), 1, 42)

    def test_baselines_much_worse(self):
        report = ev.detector_comparison((1.0,), 10, 42)
        by_method = {r["method"]: r["mean_abs_error_m"] for r in report.rows}
        assert by_method["two_way_xcorr"] >= 10 * by_method["two_way_freq"]
        assert by_method["one_way_echo"] >= 1.0

    def test_zero_jitter_echo_comparable(self):
        report = ev.detector_comparison((1.0,), 10, 42, sigma_proc_s=0.0)
        by_method = {r["method"]: r["mean_abs_error_m"] for r in report.rows}
        assert by_method["one_way_echo"] <= 5 * by_method["two_way_freq"] + 0.05
