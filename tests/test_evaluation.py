import math

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
    SceneContext,
    run_authentication,
)


PHI_0 = 1.0 / math.sqrt(2.0 * math.pi)


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
        see; the FRR is then sigma*phi(0)/tau."""
        sigma = 1e-4
        frr, _ = ev.frr_far_model(1.0, ev.ErrorModel(sigma))
        assert frr == pytest.approx(sigma * PHI_0 / 1.0, rel=1e-9)

    def test_far_exact_at_tiny_sigma(self):
        sigma = 2e-4
        model = ev.ErrorModel(sigma)
        _, far = ev.frr_far_model(1.0, model)
        assert far == pytest.approx(sigma * PHI_0 / (model.pairing_range_m - 1.0), rel=1e-9)

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

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
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
        ctx = SceneContext((0.0, 0.0), (1.0, 0.0))
        starts = [e.emit_time for e in ev._interferer_emissions(ctx, np.random.default_rng(0), 20)[::2]]
        assert max(starts) < ev.INTERFERER_TIMELINE_SAMPLES - 4096 - PLAYBACK_GAP_SAMPLES
        assert min(starts) < RECORD_SAMPLES <= max(starts)

    def test_interferers_use_the_sessions_settings(self):
        """The interferer pairs are staggered by the session's playback gap."""
        emissions = []

        def intruder(ctx, rng):
            emissions.extend(ev._interferer_emissions(ctx, rng, 2))
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
        report = ev.attack_campaign(adv.ZeroEffort(), 10, 5, separation_m=12.0)
        assert report.accepts == 0
        assert report.reject_reasons == {"not_paired": 10}

    def test_zero_effort_beyond_detect_range_hundred_trials(self):
        # user away but still within Bluetooth range: every trial rejects
        report = ev.attack_campaign(adv.ZeroEffort(), 100, 55, separation_m=3.5)
        assert report.accepts == 0
        assert report.reject_reasons == {"signal_not_present": 100}

    def test_guessing_replay_short_run(self):
        report = ev.attack_campaign(adv.GuessingReplay(), 10, 6, separation_m=3.0)
        assert report.accepts == 0

    def test_power_sweep_brackets_thresholds(self):
        sweep = ev.all_frequency_power_sweep(6)
        assert len(sweep) == 6
        assert sweep[0] < sweep[-1]


class TestSessions:
    """Every campaign runs its sessions through ``_sessions``, which rejects
    a cell it could not measure before running any session."""

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match=f"^need at least one trial per cell, got trials={trials}$"):
            ev._sessions((0.5,), trials, 1, ch.ChannelConfig(), AuthPolicy())

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), -0.5])
    def test_bad_separation_rejected(self, separation):
        message = f"^separation must be a finite, non-negative distance in metres, got {separation}$"
        with pytest.raises(ValueError, match=message):
            ev._sessions((0.5, separation), 1, 1, ch.ChannelConfig(), AuthPolicy())

    def test_bad_separation_rejected_before_any_session(self, monkeypatch):
        monkeypatch.setattr(ev, "run_authentication", lambda *args, **kwargs: pytest.fail("a session ran"))
        with pytest.raises(ValueError, match="separation"):
            ev.distance_error_campaign("office", (0.5, float("nan")), 1, 1, min_trials=1)


class TestDetectorComparison:
    @pytest.mark.parametrize("sigma", [-1.0, 1.5, float("nan"), float("inf")])
    def test_bad_sigma_proc_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma_proc_s must be in \\[0, 1.0\\] seconds, got {sigma}$"):
            ev.detector_comparison((1.0,), 1, 42, sigma_proc_s=sigma)

    def test_baselines_much_worse(self):
        report = ev.detector_comparison((1.0,), 10, 42)
        by_method = {r["method"]: r["mean_abs_error_m"] for r in report.rows}
        assert by_method["two_way_xcorr"] >= 10 * by_method["two_way_freq"]
        assert by_method["one_way_echo"] >= 1.0

    def test_zero_jitter_echo_comparable(self):
        report = ev.detector_comparison((1.0,), 10, 42, sigma_proc_s=0.0)
        by_method = {r["method"]: r["mean_abs_error_m"] for r in report.rows}
        assert by_method["one_way_echo"] <= 5 * by_method["two_way_freq"] + 0.05
