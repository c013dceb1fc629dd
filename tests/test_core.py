"""Core math: noise calibration, chi-square tails, projections."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from privsum import (
    InfeasibleParameters,
    ParameterError,
    c_delta,
    calibrate,
    chi2_thresholds,
    gaussian_sigma,
    sample_projection,
    substream,
)
from privsum.core import (
    completeness_tau,
    min_sigma_ss,
    min_sigma_v,
    normal_cdf,
    soundness_rho,
)

mp.mp.dps = 50

# frozen from the 50-digit mpmath evaluation of 2*sqrt(ln(2e5))
GAUSSIAN_SIGMA_1_1E5 = 6.987438055691134
# frozen from sqrt(1 + 2*sqrt(ln(1e5)/64) + 2*ln(1e5)/64)
C_DELTA_64_1E5 = 1.4859496875171140


class TestGaussianSigma:
    def test_formula_collapses_to_one(self):
        # delta = 0.5 gives ln(2/delta) = ln 4, so eps = 2*sqrt(ln 4) yields 1
        eps = 2.0 * math.sqrt(math.log(4.0))
        assert gaussian_sigma(eps, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_high_precision_oracle(self):
        oracle = float(2 * mp.sqrt(mp.log(mp.mpf(2) / mp.mpf("1e-5"))))
        assert oracle == pytest.approx(GAUSSIAN_SIGMA_1_1E5, abs=1e-12)
        assert gaussian_sigma(1.0, 1e-5, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-5, 2.0) == pytest.approx(
            2.0 * gaussian_sigma(1.0, 1e-5, 1.0), rel=1e-15
        )

    @given(
        eps=st.floats(0.01, 50.0),
        delta=st.floats(1e-12, 0.99),
        sens=st.floats(0.01, 100.0),
        factor=st.floats(1.5, 10.0),
    )
    def test_scaling_laws(self, eps, delta, sens, factor):
        base = gaussian_sigma(eps, delta, sens)
        assert gaussian_sigma(eps * factor, delta, sens) == pytest.approx(
            base / factor, rel=1e-9
        )
        assert gaussian_sigma(eps, delta, sens * factor) == pytest.approx(
            base * factor, rel=1e-9
        )

    @pytest.mark.parametrize(
        "eps,delta,sens", [(0.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 0.5, 0.0)]
    )
    def test_invalid_parameters(self, eps, delta, sens):
        with pytest.raises(ParameterError):
            gaussian_sigma(eps, delta, sens)


class TestChi2Thresholds:
    def test_k100_ln100(self):
        lower, upper = chi2_thresholds(100, math.log(100))
        assert lower == pytest.approx(100 - 20 * math.sqrt(math.log(100)), rel=1e-12)
        assert lower == pytest.approx(57.080679474213055, rel=1e-12)
        assert upper == pytest.approx(152.12966089776313, rel=1e-12)

    def test_k4_x1(self):
        lower, upper = chi2_thresholds(4, 1.0)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(10.0, rel=1e-12)

    def test_empirical_lower_tail(self):
        lower, _ = chi2_thresholds(100, 3.0)
        rng = substream(1301, "chi2-lower")
        draws = rng.chisquare(100, size=1_000_000)
        frac = np.mean(draws <= lower)
        assert frac <= math.exp(-3.0) + 3 * math.sqrt(math.exp(-3.0) / 1e6)

    @pytest.mark.parametrize("k", [8, 64, 256])
    @pytest.mark.parametrize("x", [1.0, 3.0, math.log(1 / 0.01)])
    def test_tail_bounds_hold(self, k, x):
        lower, upper = chi2_thresholds(k, x)
        rng = substream(77, "chi2-grid", k, int(x * 1000))
        draws = rng.chisquare(k, size=1_000_000)
        bound = math.exp(-x)
        se = math.sqrt(bound * (1 - bound) / 1e6)
        assert np.mean(draws <= lower) <= bound + 3 * se
        assert np.mean(draws >= upper) <= bound + 3 * se

    @given(k=st.integers(1, 10_000), x=st.floats(1e-6, 100.0))
    def test_ordering_and_mean_bracket(self, k, x):
        lower, upper = chi2_thresholds(k, x)
        assert lower < k < upper

    def test_invalid(self):
        with pytest.raises(ParameterError):
            chi2_thresholds(0, 1.0)
        with pytest.raises(ParameterError):
            chi2_thresholds(4, 0.0)


class TestCDelta:
    def test_limit_is_one(self):
        assert c_delta(10**9, 0.5) == pytest.approx(1.0, abs=1e-3)

    def test_frozen_value(self):
        assert c_delta(64, 1e-5) == pytest.approx(C_DELTA_64_1E5, rel=1e-12)

    def test_monotone_in_k(self):
        assert c_delta(64, 1e-5) > c_delta(256, 1e-5)

    @given(k=st.integers(1, 10**6), delta=st.floats(1e-10, 0.999))
    def test_always_above_one(self, k, delta):
        assert c_delta(k, delta) > 1.0

    def test_invalid(self):
        with pytest.raises(ParameterError):
            c_delta(64, 0.0)
        with pytest.raises(ParameterError):
            c_delta(0, 0.5)


class TestCalibrate:
    def test_reference_point_against_extended_precision(self):
        report = calibrate(eps=1, delta=1e-5, eps_ss=1, delta_ss=1e-5,
                           beta=0.01, S=2, k=64, d=1024, n=100)
        k, S = mp.mpf(64), 2
        delta, beta = mp.mpf("1e-5"), mp.mpf("0.01")
        cd = mp.sqrt(1 + 2 * mp.sqrt(mp.log(1 / delta) / k) + 2 * mp.log(1 / delta) / k)
        sigma_v = 2 * cd * mp.sqrt(mp.log(4 / delta))
        lb = mp.log(1 / beta)
        tau2 = (1 / k + S * sigma_v**2) * (k + 2 * lb + 2 * mp.sqrt(k * lb))
        rho2 = k * tau2 / (k - 2 * mp.sqrt(k * lb)) - k * S * sigma_v**2
        assert report.c_delta == pytest.approx(float(cd), rel=1e-12)
        assert report.params.sigma_v == pytest.approx(float(sigma_v), rel=1e-12)
        assert report.params.sigma_v == pytest.approx(10.673720410837976, rel=1e-12)
        assert report.params.tau == pytest.approx(float(mp.sqrt(tau2)), rel=1e-12)
        assert report.params.tau == pytest.approx(156.54616443109188, rel=1e-12)
        assert report.params.rho == pytest.approx(float(mp.sqrt(rho2)), rel=1e-12)
        assert report.lam == pytest.approx(float(mp.sqrt(lb) / k), rel=1e-12)

    def test_sigma_ss_equals_gaussian_mechanism_floor(self):
        report = calibrate(eps=1, delta=1e-5, eps_ss=1, delta_ss=1e-5,
                           beta=0.01, S=2, k=64, d=1024, n=100)
        assert report.params.sigma_ss == pytest.approx(
            gaussian_sigma(1.0, 1e-5, 1.0), rel=1e-15
        )
        assert report.params.sigma_ss == pytest.approx(GAUSSIAN_SIGMA_1_1E5, rel=1e-12)

    def test_infeasible_when_lower_tail_vacuous(self):
        with pytest.raises(InfeasibleParameters):
            calibrate(eps=1, delta=1e-5, eps_ss=1, delta_ss=1e-5,
                      beta=1e-12, S=2, k=16, d=64)

    def test_exact_cdf_tightens_tau(self):
        loose = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                          beta=0.05, S=2, k=64, d=64)
        tight = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                          beta=0.05, S=2, k=64, d=64, exact_cdf=True)
        assert tight.params.tau < loose.params.tau
        assert tight.params.rho < loose.params.rho

    def test_exact_cdf_feasible_below_closed_form_cutoff(self):
        # k=16, beta=0.01 has no closed-form rho but exact quantiles work
        with pytest.raises(InfeasibleParameters):
            calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                      beta=0.01, S=2, k=16, d=64)
        report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.01, S=2, k=16, d=64, exact_cdf=True)
        assert report.params.rho > 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 64, 257, 1024])
    def test_exact_cdf_matches_scipy_stats_quantiles(self, k):
        # scipy.stats stays the oracle here, out of privsum's own imports
        S, betas = 3, (1e-9, 1e-5, 1e-3, 0.01, 0.05, 0.2, 0.3)
        got, expected = [], []
        for beta in betas:
            params = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                               beta=beta, S=S, k=k, d=8, exact_cdf=True).params
            sigma_v = params.sigma_v
            tau = math.sqrt((1.0 / k + S * sigma_v ** 2) * stats.chi2.ppf(1.0 - beta, df=k))
            rho_sq = k * tau ** 2 / stats.chi2.ppf(beta, df=k) - k * S * sigma_v ** 2
            got.append((params.tau, params.rho))
            expected.append((tau, math.sqrt(rho_sq)))
        assert got == expected

    def test_monotone_in_sigma_v(self):
        k, S, beta = 64, 2, 0.05
        taus = [completeness_tau(k, S, sv, beta) for sv in (1.0, 2.0, 4.0)]
        assert taus[0] < taus[1] < taus[2]
        rhos = [soundness_rho(k, S, sv, completeness_tau(k, S, sv, beta), beta)
                for sv in (1.0, 2.0, 4.0)]
        assert rhos[0] < rhos[1] < rhos[2]

    def test_tau_ratio_tends_to_one(self):
        # tau^2 / (k * (1/k + S sigma_v^2)) -> 1 as k grows with fixed sigma_v
        S, sigma_v, beta = 2, 3.0, 0.05
        ratios = []
        for k in (64, 4096, 2**20):
            tau = completeness_tau(k, S, sigma_v, beta)
            ratios.append(tau**2 / (k * (1.0 / k + S * sigma_v**2)))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[-1] == pytest.approx(1.0, abs=1e-2)

    def test_rho_at_least_one(self):
        for k, beta in [(16, 0.05), (64, 0.05), (64, 0.01), (256, 1e-3)]:
            report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                               beta=beta, S=2, k=k, d=32)
            assert report.params.rho >= 1.0

    def test_rho_soundness_relation_is_tight(self):
        report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=3, k=64, d=32)
        p = report.params
        lb = math.log(1.0 / p.beta)
        lhs = p.rho**2
        rhs = p.k * p.tau**2 / (p.k - 2 * math.sqrt(p.k * lb)) - p.k * p.S * p.sigma_v**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_asymptotic_estimate_converges(self):
        # the small-lambda expansion approaches the exact rho as k grows
        for k, tol in [(2**14, 0.2), (2**20, 0.03)]:
            report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                               beta=0.05, S=2, k=k, d=32)
            ratio = report.params.rho**2 / report.rho_asymptotic_estimate**2
            assert abs(ratio - 1.0) < tol

    def test_session_calibrated_uses_beta_over_n(self):
        plain = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                          beta=0.05, S=2, k=64, d=32, n=10)
        session = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                            beta=0.05, S=2, k=64, d=32, n=10,
                            session_calibrated=True)
        assert session.params.beta == pytest.approx(0.005)
        assert session.params.tau > plain.params.tau

    def test_derivation_log_names(self):
        report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=64, d=32)
        names = [entry[0] for entry in report.derivation_log]
        for required in ("c_delta", "lambda", "sigma_v", "sigma_ss", "tau_sq",
                         "tau", "rho_sq", "rho"):
            assert required in names

    def test_dzk_floors_hold(self):
        report = calibrate(eps=1.5, delta=1e-3, eps_ss=0.7, delta_ss=1e-4,
                           beta=0.05, S=3, k=64, d=32)
        p = report.params
        assert p.sigma_v >= min_sigma_v(p.k, p.delta, p.eps) - 1e-12
        assert p.sigma_ss**2 >= 4 * math.log(2 / p.delta_ss) / p.eps_ss**2 - 1e-9
        assert min_sigma_ss(p.eps_ss, p.delta_ss, honest_verifiers=4) == pytest.approx(
            min_sigma_ss(p.eps_ss, p.delta_ss) / 2.0
        )


class TestSampleProjection:
    def test_deterministic_in_seed(self):
        a = sample_projection(8, 16, 99)
        b = sample_projection(8, 16, 99)
        assert np.array_equal(a.entries, b.entries)
        c = sample_projection(8, 16, 100)
        assert not np.array_equal(a.entries, c.entries)

    def test_zero_maps_to_zero(self):
        W = sample_projection(8, 16, 1)
        assert np.linalg.norm(W.entries @ np.zeros(16)) == 0.0

    def test_norm_concentration(self):
        # Pr[||Wx|| > c_delta] <= delta for unit x, checked at delta = 1e-2
        k, d, trials = 64, 512, 10_000
        bound = c_delta(k, 1e-2)
        x = np.zeros(d)
        x[0] = 1.0
        rng = substream(2024, "jl-tails")
        exceed = 0
        for _ in range(trials):
            W = sample_projection(k, d, rng)
            if np.linalg.norm(W.entries @ x) ** 2 > bound**2:
                exceed += 1
        se = math.sqrt(1e-2 * (1 - 1e-2) / trials)
        assert exceed / trials <= 1e-2 + 3 * se

    def test_scaled_norm_is_chi_square(self):
        # k * ||Wx||^2 follows chi-square(k) for unit x (KS at 1e-3)
        k, d, trials = 16, 64, 10_000
        x = np.zeros(d)
        x[0] = 1.0
        rng = substream(5150, "jl-ks")
        samples = np.empty(trials)
        for t in range(trials):
            W = sample_projection(k, d, rng)
            samples[t] = k * np.linalg.norm(W.entries @ x) ** 2
        result = stats.kstest(samples, stats.chi2(df=k).cdf)
        assert result.pvalue > 1e-3

    def test_invalid(self):
        with pytest.raises(ParameterError):
            sample_projection(0, 16, 1)
        with pytest.raises(ParameterError):
            sample_projection(8, 0, 1)


# Cephes ndtr's branches, keyed on x = |a| / sqrt(2) as it computes it: erf
# below sqrt(1/2) and erfc above, erfc through erf below 1, erfc's [1, 8)
# and [8, inf) approximations, and 0 once -x**2 < -ln(largest float)
SQRTH, MAXLOG = math.sqrt(0.5), math.log(sys.float_info.max)
NDTR_EDGES = {"erf/erfc": (SQRTH, lambda x: x < SQRTH),
              "erfc x < 1": (1.0, lambda x: x < 1.0),
              "erfc x < 8": (8.0, lambda x: x < 8.0),
              "underflow": (math.sqrt(MAXLOG), lambda x: -x * x < -MAXLOG)}


def _edge_points(edge: str) -> list[float]:
    """The a at the edge's x and the four floats on each side, both signs."""
    a = NDTR_EDGES[edge][0] / SQRTH
    points = [a]
    for toward in (-math.inf, math.inf):
        b = a
        for _ in range(4):
            b = math.nextafter(b, toward)
            points.append(b)
    return points + [-p for p in points]


class TestNormalCdf:
    @pytest.mark.parametrize("edge", NDTR_EDGES)
    def test_edge_points_straddle_their_branch(self, edge):
        _, branch = NDTR_EDGES[edge]
        assert {branch(abs(a) * SQRTH) for a in _edge_points(edge)} == {True, False}

    def test_equals_scipy_ndtr_bit_for_bit(self):
        points = np.concatenate([np.linspace(-40.0, 40.0, 100_001),
                                 *map(_edge_points, NDTR_EDGES),
                                 [0.0, -0.0, math.inf, -math.inf]])
        actual = np.array([normal_cdf(float(a)) for a in points])
        expected = special.ndtr(points)
        mismatch = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
        assert mismatch.size == 0, [(points[i], actual[i], expected[i]) for i in mismatch[:5]]
        assert math.isnan(normal_cdf(math.nan))


def test_star_import_and_unique_exports():
    import privsum

    namespace = {}
    exec("from privsum import *", namespace)
    assert set(privsum.__all__) <= set(namespace)
    assert len(privsum.__all__) == len(set(privsum.__all__))
