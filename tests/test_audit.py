"""Audit machinery: privacy-loss estimators, closeness tests, rate drivers."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from privsum import (
    ParameterError,
    RateEstimate,
    calibrate,
    conditioned_projection_privacy,
    gaussian_sigma,
    honest_scenario,
    norm_verification_rate,
    privacy_loss_mc,
    privacy_loss_tail,
    run_scenario,
    substream,
    two_sample_closeness,
)
from privsum import audit
from privsum.audit import (
    PATTERN_CONCENTRATED,
    PATTERN_RANDOM,
    PATTERN_SPREAD,
    binomial_se,
    share_simulation_check,
)
from privsum.core import c_delta


class TestPrivacyLossMC:
    def test_zero_shift_never_exceeds(self):
        assert privacy_loss_mc(0.0, 1.0, 0.5, 1000, 1) == 0.0

    def test_calibrated_sigma_meets_delta(self):
        sigma = gaussian_sigma(1.0, 1e-2, 1.0)
        rate = privacy_loss_mc(1.0, sigma, 1.0, 100_000, 2)
        assert rate <= 1e-2 + 3 * binomial_se(1e-2, 100_000)

    def test_doubling_sigma_reduces_exceed_rate(self):
        # visible effect needs a sigma small enough to exceed often
        lo = privacy_loss_mc(1.0, 0.8, 1.0, 50_000, 3)
        hi = privacy_loss_mc(1.0, 1.6, 1.0, 50_000, 3)
        assert hi < lo

    def test_matches_analytic_tail(self):
        shift, sigma, eps = 1.0, 1.2, 0.8
        rate = privacy_loss_mc(shift, sigma, eps, 200_000, 4)
        exact = privacy_loss_tail(shift, sigma, eps)
        se = binomial_se(max(exact, 1e-6), 200_000)
        assert abs(rate - exact) <= 4 * se

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            privacy_loss_mc(1.0, 1.0, 1.0, 100, 0)


class TestPrivacyLossTail:
    def test_zero_shift(self):
        assert privacy_loss_tail(0.0, 1.0, 1.0) == 0.0

    def test_production_scale_certificate(self):
        # at delta = 1e-5 the analytic tail certifies what sampling cannot
        sigma = gaussian_sigma(1.0, 1e-5, 1.0)
        assert privacy_loss_tail(1.0, sigma, 1.0) <= 1e-5

    def test_monotone_in_sigma(self):
        assert privacy_loss_tail(1.0, 2.0, 1.0) < privacy_loss_tail(1.0, 1.0, 1.0)

    def test_matches_scipy_stats_normal_tails(self):
        grid = list(itertools.product([1e-3, 0.1, 1.0, 3.0, 40.0],
                                      [0.05, 0.5, 1.0, 7.0, 1e3], [1e-3, 0.5, 1.0, 8.0]))
        expected = []
        for shift_norm, sigma, eps in grid:
            mu = shift_norm ** 2 / (2.0 * sigma ** 2)
            sd = math.sqrt(2.0 * mu)
            expected.append(float(stats.norm.sf((eps - mu) / sd)
                                  + stats.norm.sf((eps + mu) / sd)))
        assert [privacy_loss_tail(*point) for point in grid] == expected


class TestNonFiniteArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["shift_norm", "sigma", "eps"])
    def test_privacy_loss_audits_name_the_argument(self, name, value):
        args = {"shift_norm": 1.0, "sigma": 1.0, "eps": 1.0, name: value}
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number"):
            privacy_loss_mc(**args, samples=1000, seed=0)
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number"):
            privacy_loss_tail(**args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift_norm, sigma, match", [
        (1.0, 1e-200, r"^sigma\*\*2 underflows"),
        (1e200, 1.0, r"^shift_norm\*\*2 overflows"),
        (1.0, 1e200, r"^sigma\*\*2 overflows"),
        (1e150, 1e-10, r"^shift_norm\*\*2 / sigma\*\*2 overflows"),
    ])
    def test_squares_out_of_float_range_name_the_argument(self, shift_norm, sigma, match):
        with pytest.raises(ParameterError, match=match):
            privacy_loss_mc(shift_norm, sigma, 1.0, 1000, 0)
        with pytest.raises(ParameterError, match=match):
            privacy_loss_tail(shift_norm, sigma, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift_norm, sigma", [(1e-200, 1.0), (1.0, 1e154)])
    def test_tail_mean_underflow_names_the_arguments(self, shift_norm, sigma):
        with pytest.raises(ParameterError, match=r"^shift_norm\*\*2 / \(2 sigma\*\*2\) underflows"):
            privacy_loss_tail(shift_norm, sigma, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_loss_in_sigma_units_is_scale_invariant(self):
        # a shift and sigma near 1e154 overflowed <y, m> and read 0.215
        big = privacy_loss_mc(1e154, 1e154, 10.0, 1000, 0)
        assert big == privacy_loss_mc(1.0, 1.0, 10.0, 1000, 0)
        assert big == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_norm_verification_names_target_norm(self, value):
        with pytest.raises(ParameterError, match="^target_norm must be a finite number"):
            norm_verification_rate(pin_params(), value, 100, 0)


class TestConditionedProjectionPrivacy:
    def test_zero_vector_has_zero_rates(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        assert conditioned_projection_privacy(params, np.zeros(8), 2000, 5) == 0.0

    def test_combined_rate_meets_two_delta(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=64, d=64).params
        x = np.zeros(64)
        x[0] = 1.0
        rate = conditioned_projection_privacy(params, x, 20_000, 6)
        assert rate <= 2e-2 + 3 * binomial_se(2e-2, 20_000)

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


class TestTwoSampleCloseness:
    def test_identical_deterministic_samplers_are_consistent(self):
        fixed = np.arange(200.0).reshape(100, 2)

        def sampler(rng, count):
            return fixed[:count]

        assert two_sample_closeness(sampler, sampler, 2, 100, 9)[0] == (0.0, 0.0)

    def test_matching_gaussians_consistent(self):
        def sampler(rng, count):
            return rng.normal(0.0, 1.0, size=(count, 3))

        statistics, threshold = two_sample_closeness(sampler, sampler, 3, 10_000, 10)
        assert max(statistics) <= threshold

    def test_shifted_gaussian_rejected(self):
        def p(rng, count):
            return rng.normal(0.0, 1.0, size=(count, 1))

        def q(rng, count):
            return rng.normal(0.5, 1.0, size=(count, 1))

        statistics, threshold = two_sample_closeness(p, q, 1, 10_000, 11)
        assert max(statistics) > threshold

    def test_shape_mismatch(self):
        def p(rng, count):
            return rng.normal(size=(count, 2))

        def q(rng, count):
            return rng.normal(size=(count, 3))

        with pytest.raises(Exception):
            two_sample_closeness(p, q, 2, 100, 0)

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_sample_raises(self, side):
        def good(rng, count):
            return rng.normal(size=(count, 2))

        def bad(rng, count):
            view = rng.normal(5.0, 1.0, size=(count, 2))
            view[0, 0] = math.nan
            return view

        samplers = (bad, good) if side == "p" else (good, bad)
        with pytest.raises(ParameterError, match=f"^view_sampler_{side} emitted a non-finite"):
            two_sample_closeness(*samplers, 2, 1000, 0)


def ks_samples():
    rng = substream(12, "ks")
    x = rng.normal(size=4000)
    return {
        "continuous": (rng.normal(size=3000), rng.normal(0.05, 1.0, size=3000)),
        "ties": (np.round(rng.normal(size=3000), 1), np.round(rng.normal(0.1, 1.0, size=3000), 1)),
        "few-values": (rng.integers(0, 4, 500).astype(float),
                       rng.integers(0, 4, 700).astype(float)),
        "n-not-m": (rng.normal(size=1200), rng.normal(0.2, 1.1, size=2900)),
        "identical": (x, x.copy()),
        "permuted": (x, x[::-1].copy()),
        "disjoint": (np.zeros(50), np.ones(80)),
    }


class TestKSStatistic:
    @pytest.mark.parametrize("case", sorted(ks_samples()))
    def test_equals_scipy_ks_2samp(self, case):
        # scipy.stats stays the oracle here, out of privsum's own imports
        a, b = ks_samples()[case]
        expected = float(stats.ks_2samp(a, b, method="asymp").statistic)
        assert audit._ks_statistic(a, b) == expected
        assert audit._ks_statistic(b, a) == float(stats.ks_2samp(b, a, method="asymp").statistic)


class TestNumpyIntegerSeeds:
    def test_numpy_seed_matches_int_seed(self):
        params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8).params
        x = np.zeros(8)
        x[0] = 1.0
        for seed in (np.int64(5), np.uint32(5)):
            assert (norm_verification_rate(params, 1.0, 100, seed)
                    == norm_verification_rate(params, 1.0, 100, 5))
            assert (privacy_loss_mc(1.0, 2.0, 0.5, 1000, seed)
                    == privacy_loss_mc(1.0, 2.0, 0.5, 1000, 5))
            assert (conditioned_projection_privacy(params, x, 1000, seed)
                    == conditioned_projection_privacy(params, x, 1000, 5))
        # recorded when each trial first drew its shares' span coordinates from
        # their exact law in place of d-dimensional shares
        assert norm_verification_rate(params, 50.0, 400, 5).rate == 0.5475


class TestRateEstimate:
    def test_interval_follows_the_rate(self):
        # the interval is derived from (rate, trials), so a copy with another
        # rate carries that rate's interval rather than the original's
        est = norm_verification_rate(pin_params(), 1.0, 200, 3)
        for r in (0.0, 0.25, 1.0 - est.rate):
            assert dataclasses.replace(est, rate=r).ci95 == RateEstimate(r, est.trials).ci95
        assert RateEstimate(0.5, 100).ci95 == pytest.approx((0.402, 0.598), abs=1e-3)
        assert RateEstimate(0.0, 100).ci95 == (0.0, 0.0)


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
    return [conditioned_projection_privacy(p, x, samples, seed)
            for p in (params, loose) for seed, samples in ((0, 2000), (1, 2500))]


class TestChunkedDraws:
    # recorded when each trial first drew its shares' span coordinates from
    # their exact law in place of d-dimensional shares
    RATES = [0.463, 0.509, 0.444]
    SHARE_STATISTICS = [0.038000000000000034, 0.0605]
    # recorded when each sample first drew k normals for ||W x|| in place of W
    PROJECTION_RATES = [0.0, 0.0, 0.164, 0.1628]

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

    def test_pattern_changes_no_result(self):
        # the law depends on the input only through its norm, so the pattern
        # draws nothing
        rates = {norm_verification_rate(pin_params(), 65.0, 1000, substream(4, "pin"),
                                        pattern=pattern)
                 for pattern in audit.PATTERNS}
        assert len(rates) == 1

    def test_bad_pattern_and_norm_raise(self):
        with pytest.raises(ParameterError):
            norm_verification_rate(pin_params(), 1.0, 100, 0, pattern="diagonal")
        with pytest.raises(ParameterError):
            norm_verification_rate(pin_params(), math.inf, 100, 0,
                                   pattern=PATTERN_CONCENTRATED)


def verification_norms(params, target_norm, trials, seed, pattern=PATTERN_RANDOM):
    return np.concatenate(list(audit._verification_norms(params, target_norm, trials,
                                                         seed, pattern)))


def law_params(beta, S, k, d):
    return calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                     beta=beta, S=S, k=k, d=d).params


def v_norm_scale(params, target_norm):
    # v = W x + (S noise rows), so v ~ N(0, scale I_k) whatever the shares are
    return target_norm ** 2 / params.k + params.S * params.sigma_v ** 2


class TestVerificationLaw:
    POINTS = {
        # the four grid points of the mc-verify benchmark workload
        "completeness-S3-k64-d1024": (0.05, 3, 64, 1024, 1.0, PATTERN_RANDOM),
        "completeness-S2-k16-d32": (0.05, 2, 16, 32, 1.0, PATTERN_RANDOM),
        "soundness-S2-k64-d1024": (0.01, 2, 64, 1024, "rho", PATTERN_CONCENTRATED),
        "soundness-S2-k64-d32": (0.05, 2, 64, 32, "rho", PATTERN_SPREAD),
        # shares of rank 1 (z_0 = -z_1), and more shares than dimensions
        "rank-deficient-S2-d8": (0.05, 2, 16, 8, 0.0, PATTERN_RANDOM),
        "d-below-S-S3-d2": (0.05, 3, 16, 2, 1.0, PATTERN_RANDOM),
    }

    @pytest.mark.parametrize("point", POINTS)
    def test_v_norm_follows_scaled_chi2(self, point):
        beta, S, k, d, target, pattern = self.POINTS[point]
        params = law_params(beta, S, k, d)
        target = params.rho if target == "rho" else target
        trials = 10_000
        v = verification_norms(params, target, trials, substream(6, "law", point), pattern)
        scale = v_norm_scale(params, target)
        assert stats.kstest(v ** 2 / scale, stats.chi2(k).cdf).pvalue > 1e-3
        exact = stats.chi2.cdf(params.tau ** 2 / scale, k)
        rate = norm_verification_rate(params, target, trials, substream(6, "law", point),
                                      pattern=pattern).rate
        assert rate == np.mean(v < params.tau)
        assert abs(rate - exact) <= 3 * binomial_se(exact, trials)

    def test_matches_one_client_sessions(self):
        # sessions draw the real k x d session matrix, about 2 ms each
        params = law_params(0.05, 3, 64, 1024)
        scenario = honest_scenario(1, 3, 1024)
        sessions = []
        for seed in range(2000):
            result, _ = run_scenario(scenario, params, seed)
            (outcome,) = result.per_client_outcomes.values()
            sessions.append(outcome.v_norm)
        driver = verification_norms(params, 1.0, 10_000, substream(6, "law-sessions"))
        assert stats.ks_2samp(driver, sessions).pvalue > 1e-3


class TestMemoryBound:
    @staticmethod
    def traced_peak(run):
        # numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("driver", ["projection-privacy", "norm-verification",
                                        "norm-verification-S3-d1024-random",
                                        "norm-verification-S2-d1024-concentrated"])
    def test_peak_stays_within_two_chunks(self, driver):
        params = calibrate(**audit.AUDIT_POINT).params
        wide = law_params(0.05, 3, 64, 1024)
        concentrated = law_params(0.01, 2, 64, 1024)
        run = {
            "projection-privacy": lambda: audit.projection_privacy_check(2000, 0),
            "norm-verification": lambda: norm_verification_rate(params, 1.0, 200, 0),
            "norm-verification-S3-d1024-random":
                lambda: norm_verification_rate(wide, 1.0, 200, 0),
            "norm-verification-S2-d1024-concentrated":
                lambda: norm_verification_rate(concentrated, concentrated.rho, 200, 0,
                                               pattern=PATTERN_CONCENTRATED),
        }[driver]
        assert self.traced_peak(run) < 2 * audit._CHUNK_BYTES + (1 << 20)

    def test_share_simulation_holds_each_view_once(self):
        samples, T = 20_000, (1, 2)
        # the real and the simulated (samples, |T| d) views, d = 8
        views = 2 * samples * len(T) * 8 * 8
        peak = self.traced_peak(lambda: share_simulation_check(3, T, 10.0, samples, 0))
        assert peak < views + 2 * audit._CHUNK_BYTES + (1 << 20)
