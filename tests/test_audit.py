"""Audit machinery: privacy-loss estimators, closeness tests, rate estimation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from privsum import (
    ParameterError,
    calibrate,
    conditioned_projection_privacy,
    gaussian_sigma,
    honest_scenario,
    norm_verification_rate,
    privacy_loss_mc,
    privacy_loss_tail,
    rate_estimate,
    substream,
    two_sample_closeness,
)
from privsum import audit
from privsum.audit import (
    PATTERN_CONCENTRATED,
    PATTERN_RANDOM,
    PATTERN_SPREAD,
    VERDICT_CONSISTENT,
    VERDICT_REJECTED,
    binomial_se,
    share_simulation_check,
)
from privsum.core import c_delta


class TestPrivacyLossMC:
    def test_zero_shift_never_exceeds(self):
        est = privacy_loss_mc(0.0, 1.0, 4, 0.5, 1000, 1)
        assert est.empirical_exceed_rate == 0.0

    def test_calibrated_sigma_meets_delta(self):
        sigma = gaussian_sigma(1.0, 1e-2, 1.0)
        est = privacy_loss_mc(1.0, sigma, 8, 1.0, 100_000, 2, delta_target=1e-2)
        assert est.empirical_exceed_rate <= 1e-2 + 3 * binomial_se(1e-2, est.samples)

    def test_doubling_sigma_reduces_exceed_rate(self):
        # visible effect needs a sigma small enough to exceed often
        lo = privacy_loss_mc(1.0, 0.8, 4, 1.0, 50_000, 3)
        hi = privacy_loss_mc(1.0, 1.6, 4, 1.0, 50_000, 3)
        assert hi.empirical_exceed_rate < lo.empirical_exceed_rate

    def test_matches_analytic_tail(self):
        shift, sigma, eps = 1.0, 1.2, 0.8
        est = privacy_loss_mc(shift, sigma, 4, eps, 200_000, 4)
        exact = privacy_loss_tail(shift, sigma, eps)
        se = binomial_se(max(exact, 1e-6), est.samples)
        assert abs(est.empirical_exceed_rate - exact) <= 4 * se

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            privacy_loss_mc(1.0, 1.0, 4, 1.0, 100, 0)


class TestPrivacyLossTail:
    def test_zero_shift(self):
        assert privacy_loss_tail(0.0, 1.0, 1.0) == 0.0

    def test_production_scale_certificate(self):
        # at delta = 1e-5 the analytic tail certifies what sampling cannot
        sigma = gaussian_sigma(1.0, 1e-5, 1.0)
        assert privacy_loss_tail(1.0, sigma, 1.0) <= 1e-5

    def test_monotone_in_sigma(self):
        assert privacy_loss_tail(1.0, 2.0, 1.0) < privacy_loss_tail(1.0, 1.0, 1.0)


class TestConditionedProjectionPrivacy:
    def test_zero_vector_has_zero_rates(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        est = conditioned_projection_privacy(params, np.zeros(8), 2000, 5)
        assert est.empirical_exceed_rate == 0.0

    def test_combined_rate_meets_two_delta(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=64, d=64).params
        x = np.zeros(64)
        x[0] = 1.0
        est = conditioned_projection_privacy(params, x, 20_000, 6)
        assert est.delta_target == pytest.approx(2e-2)
        assert est.empirical_exceed_rate <= 2e-2 + 3 * binomial_se(2e-2, est.samples)

    def test_bad_event_rate_alone_meets_delta(self):
        # the projection-norm tail event has probability <= delta
        k, d, delta = 64, 64, 1e-2
        bound = c_delta(k, delta)
        rng = substream(7, "bad-event")
        x = np.zeros(d)
        x[0] = 1.0
        trials = 20_000
        exceed = 0
        for _ in range(0, trials, 1000):
            W = rng.standard_normal((1000, k, d)) / math.sqrt(k)
            exceed += int(np.sum(np.linalg.norm(W @ x, axis=1) > bound))
        assert exceed / trials <= delta + 3 * binomial_se(delta, trials)

    def test_norm_above_one_rejected(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        with pytest.raises(ParameterError):
            conditioned_projection_privacy(params, np.full(8, 1.0), 2000, 0)

    def test_chunk_below_one_rejected(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        for chunk in (0, -1):
            with pytest.raises(ParameterError):
                conditioned_projection_privacy(params, np.zeros(8), 2000, 0, chunk=chunk)


class TestTwoSampleCloseness:
    def test_identical_deterministic_samplers_are_consistent(self):
        fixed = np.arange(200.0).reshape(100, 2)

        def sampler(rng, count):
            return fixed[:count]

        report = two_sample_closeness(sampler, sampler, 2, 100, 9)
        assert report.statistics == (0.0, 0.0)
        assert report.verdict == VERDICT_CONSISTENT

    def test_matching_gaussians_consistent(self):
        def sampler(rng, count):
            return rng.normal(0.0, 1.0, size=(count, 3))

        report = two_sample_closeness(sampler, sampler, 3, 10_000, 10)
        assert report.verdict == VERDICT_CONSISTENT

    def test_shifted_gaussian_rejected(self):
        def p(rng, count):
            return rng.normal(0.0, 1.0, size=(count, 1))

        def q(rng, count):
            return rng.normal(0.5, 1.0, size=(count, 1))

        report = two_sample_closeness(p, q, 1, 10_000, 11)
        assert report.verdict == VERDICT_REJECTED

    def test_shape_mismatch(self):
        def p(rng, count):
            return rng.normal(size=(count, 2))

        def q(rng, count):
            return rng.normal(size=(count, 3))

        with pytest.raises(Exception):
            two_sample_closeness(p, q, 2, 100, 0)


class TestNumpyIntegerSeeds:
    def test_numpy_seed_matches_int_seed(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        x = np.zeros(8)
        x[0] = 1.0
        for seed in (np.int64(5), np.uint32(5)):
            assert (norm_verification_rate(params, 1.0, 100, seed)
                    == norm_verification_rate(params, 1.0, 100, 5))
            assert (privacy_loss_mc(1.0, 2.0, 4, 0.5, 1000, seed)
                    == privacy_loss_mc(1.0, 2.0, 4, 0.5, 1000, 5))
            assert (conditioned_projection_privacy(params, x, 1000, seed)
                    == conditioned_projection_privacy(params, x, 1000, 5))
        # recorded when each trial still called project_reply and verifier0_decide
        assert norm_verification_rate(params, 50.0, 400, 5).rate == 0.5125


def pin_params():
    return calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                     beta=0.05, S=3, k=16, d=8).params


def pinned_rates():
    # 1,000 trials fill no whole number of 1 MiB chunks at this shape
    return [norm_verification_rate(pin_params(), 65.0, 1000, substream(4, "pin", pattern),
                                   pattern=pattern)
            for pattern in (PATTERN_RANDOM, PATTERN_CONCENTRATED, PATTERN_SPREAD)]


def pinned_share_statistics():
    return [share_simulation_check(3, T, 10.0, 2000, substream(4, "pin-sim", *T)).statistic
            for T in ((1,), (1, 2))]


def pinned_projection_rates():
    # at AUDIT_POINT, then with a loose delta and a quarter of its sigma_v,
    # where both events are frequent and any change in the draws shows;
    # 2,500 samples end on a partial chunk of the default 1,000
    params = calibrate(**audit.AUDIT_POINT).params
    loose = dataclasses.replace(params, delta=0.3, sigma_v=params.sigma_v / 4)
    x = np.zeros(params.d)
    x[0] = 1.0
    return [conditioned_projection_privacy(p, x, samples, seed).empirical_exceed_rate
            for p in (params, loose) for seed, samples in ((0, 2000), (1, 2500))]


class TestChunkedDraws:
    # recorded when each trial still drew its normals in separate calls
    RATES = [0.492, 0.48, 0.447]
    SHARE_STATISTICS = [0.038000000000000034, 0.0605]
    # recorded when each chunk of samples drew one (1000, k, d) tensor of W
    PROJECTION_RATES = [0.0005, 0.0004, 0.1695, 0.1616]

    def test_rates_are_pinned(self):
        assert [est.rate for est in pinned_rates()] == self.RATES

    def test_share_simulation_statistics_are_pinned(self):
        assert pinned_share_statistics() == self.SHARE_STATISTICS

    def test_projection_rates_are_pinned(self):
        assert pinned_projection_rates() == self.PROJECTION_RATES

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_results_do_not_depend_on_chunking(self, monkeypatch, budget):
        rates, statistics = pinned_rates(), pinned_share_statistics()
        # one trial per chunk, then the whole run in one chunk
        monkeypatch.setattr(audit, "_CHUNK_BYTES", budget)
        assert pinned_rates() == rates
        assert pinned_share_statistics() == statistics
        assert pinned_projection_rates() == self.PROJECTION_RATES

    def test_bad_pattern_and_norm_raise(self):
        with pytest.raises(ParameterError):
            norm_verification_rate(pin_params(), 1.0, 100, 0, pattern="diagonal")
        with pytest.raises(ParameterError):
            norm_verification_rate(pin_params(), math.inf, 100, 0,
                                   pattern=PATTERN_CONCENTRATED)


class TestMemoryBound:
    @pytest.mark.parametrize("driver", ["projection-privacy", "norm-verification"])
    def test_peak_stays_within_two_chunks(self, driver):
        # numpy reports its buffers to tracemalloc
        params = calibrate(**audit.AUDIT_POINT).params
        run = {
            "projection-privacy": lambda: audit.projection_privacy_check(2000, 0),
            "norm-verification": lambda: norm_verification_rate(params, 1.0, 200, 0),
        }[driver]
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * audit._CHUNK_BYTES + (1 << 20)


class TestRateEstimate:
    def test_always_true_event(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        scenario = honest_scenario(2, 2, 8)
        est = rate_estimate(scenario, params, lambda r: True, 100, 3)
        assert est.rate == 1.0
        assert est.ci95 == (1.0, 1.0)

    def test_reproducible_and_ci_shrinks(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        scenario = honest_scenario(3, 2, 8)
        accept_all = lambda r: len(r.accepted) == 3
        a = rate_estimate(scenario, params, accept_all, 150, 5)
        b = rate_estimate(scenario, params, accept_all, 150, 5)
        assert a == b
        # a ~50% event keeps the CI non-degenerate at both sizes
        coin = lambda r: r.sum[0] > 0
        wide = rate_estimate(scenario, params, coin, 100, 6)
        narrow = rate_estimate(scenario, params, coin, 400, 6)
        assert (narrow.ci95[1] - narrow.ci95[0]) < (wide.ci95[1] - wide.ci95[0])

    def test_trial_floor(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        scenario = honest_scenario(2, 2, 8)
        with pytest.raises(ParameterError):
            rate_estimate(scenario, params, lambda r: True, 50, 0)
