"""Secret sharing: reconstruction, simulator laws, truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privsum import (
    DimensionMismatch,
    ParameterError,
    clamp_probability,
    share_vector,
    simulate_share_view,
    substream,
    truncate_share,
)
from privsum.sharing import check_shares, simulated_view, split_shares
from privsum.transcript import decode_quantized, encode_quantized


class TestShareVector:
    def test_zero_vector_reconstructs_to_zero(self):
        shares = share_vector(np.zeros(5), 3, 4.0, 11)
        assert shares.shape == (3, 5)
        np.testing.assert_allclose(shares.sum(axis=0), np.zeros(5), atol=1e-12)

    def test_additive_identity_d3_s2(self):
        x = np.array([0.3, -0.4, 0.5])
        shares = share_vector(x, 2, 10.0, 3)
        np.testing.assert_allclose(shares[0] + shares[1], x, atol=1e-9)

    def test_deterministic_in_seed(self):
        x = np.ones(4) / 2
        a = share_vector(x, 3, 2.0, 9)
        b = share_vector(x, 3, 2.0, 9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("S", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 16, 1024])
    def test_reconstruction_identity_grid(self, S, d):
        sigma = 7.0
        rng = substream(90, "recon", S, d)
        u = rng.standard_normal(d)
        x = u / np.linalg.norm(u)
        shares = share_vector(x, S, sigma, rng)
        np.testing.assert_allclose(shares.sum(axis=0), x, atol=1e-9 * S * sigma)

    def test_marginal_law_of_blinds(self):
        # shares 1..S-1 are N(0, sigma_ss^2) per coordinate: moments over
        # 2000 seeds x 50 coordinates = 1e5 draws
        sigma = 3.5
        d, seeds = 50, 2000
        rng = substream(17, "marginal")
        draws = np.empty((seeds, d))
        for s in range(seeds):
            draws[s] = share_vector(np.zeros(d), 3, sigma, rng)[1]
        flat = draws.ravel()
        assert abs(flat.mean()) < 4 * sigma / math.sqrt(flat.size)
        assert abs(flat.std() - sigma) / sigma < 0.01
        ks = stats.kstest(flat[:10_000] / sigma, stats.norm.cdf)
        assert ks.pvalue > 1e-3

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            share_vector(np.ones(3), 1, 1.0, 0)
        with pytest.raises(ParameterError):
            share_vector(np.ones(3), 2, 0.0, 0)
        with pytest.raises(DimensionMismatch):
            share_vector(np.ones(0), 2, 1.0, 0)
        with pytest.raises(ParameterError):
            share_vector(np.array([1.0, np.nan]), 2, 1.0, 0)
        # NaN passes the sigma_ss > 0 check and 1e308 blinds overflow in their
        # sum: the shares themselves are checked
        for S, sigma_ss in ((2, math.nan), (2, math.inf), (3, 1e308)):
            with np.errstate(over="ignore"), pytest.raises(ParameterError):
                share_vector(np.ones(64), S, sigma_ss, 0)


class TestReconstruct:
    def test_truncated_bundle_error_within_step(self):
        # with B >= 8 sigma clamping is negligible; for S = 2 the two
        # rounding errors add to at most one step per coordinate
        sigma, B, step = 10.0, 80.0, 1.0
        trials, d = 100_000, 1
        rng = substream(23, "trunc-recon")
        # every trial's input, then every trial's blind, as one block each
        x = rng.uniform(-1, 1, size=(trials, d))
        shares = split_shares(x, rng.standard_normal((trials, 1, d)), sigma)
        check_shares(shares)
        err = np.abs(truncate_share(shares, B, step).sum(axis=1) - x)
        hits = int(np.count_nonzero(np.all(err <= step, axis=1)))
        assert hits / trials >= 0.9999


class TestBatchKernels:
    def test_batch_rows_equal_one_row_calls(self):
        # a batch drawn as one block of standard normals gives every row
        # exactly what a one-row call on the same stream gives
        sigma, d, m = 3.0, 5, 4
        x = substream(51, "x").standard_normal((m, d))
        blinds = substream(51, "batch").standard_normal((m, 2, d))
        shares = split_shares(x, blinds, sigma)
        rng = substream(51, "batch")
        for r in range(m):
            np.testing.assert_array_equal(shares[r], share_vector(x[r], 3, sigma, rng))
        T = frozenset({0, 2})
        view = simulated_view(T, 4, sigma, substream(53, "batch").standard_normal((m, 2, d)))
        rng = substream(53, "batch")
        for r in range(m):
            one = simulate_share_view(T, 4, sigma, d, rng)
            for i in T:
                np.testing.assert_array_equal(view[i][r], one[i])

    def test_check_shares(self):
        check_shares(np.zeros((3, 2, 4)))
        with pytest.raises(DimensionMismatch):
            check_shares(np.zeros((3, 1, 4)))
        with pytest.raises(DimensionMismatch):
            check_shares(np.zeros((1, 4)))
        with pytest.raises(ParameterError):
            check_shares(np.array([[[0.0], [np.inf]]]))


class TestSimulateShareView:
    def test_single_verifier_matches_protocol_law(self):
        # T={1}, S=2: simulated message and the real g_1 are both
        # N(0, sigma^2 I); compare by KS on 1e4 samples
        sigma, d, n = 5.0, 4, 10_000
        rng_real = substream(31, "real")
        rng_sim = substream(31, "sim")
        real = np.empty((n, d))
        sim = np.empty((n, d))
        for i in range(n):
            real[i] = share_vector(np.zeros(d), 2, sigma, rng_real)[1]
            sim[i] = simulate_share_view({1}, 2, sigma, d, rng_sim)[1]
        for j in range(d):
            assert stats.ks_2samp(real[:, j], sim[:, j]).pvalue > 1e-3 / d

    def test_verifier0_variance_scaling(self):
        # T={0}, S=3: message ~ N(0, 2 sigma^2 I)
        sigma, d, n = 2.0, 200, 1000
        rng = substream(37, "v0")
        draws = np.empty((n, d))
        for i in range(n):
            draws[i] = simulate_share_view({0}, 3, sigma, d, rng)[0]
        var = draws.ravel().var()
        assert abs(var - 2 * sigma**2) / (2 * sigma**2) < 0.02

    def test_verifier0_variance_with_coalition_members(self):
        # message_0 = g - sum of |T|-1 blinds: variance (S-|T|+|T|-1) sigma^2
        sigma, S = 1.5, 4
        T = {0, 1, 2}
        expected = (S - len(T) + len(T) - 1) * sigma**2
        d, n = 200, 1000
        rng = substream(41, "v0-coalition")
        draws = np.empty((n, d))
        for i in range(n):
            draws[i] = simulate_share_view(T, S, sigma, d, rng)[0]
        var = draws.ravel().var()
        assert abs(var - expected) / expected < 0.02

    def test_real_vs_simulated_coalition_view(self):
        # T={1,2}, S=3, honest prover: the joint share view is exactly
        # simulated; per-coordinate KS plus covariance comparison
        sigma, d, n = 4.0, 8, 10_000
        x = np.zeros(d)
        x[0] = 1.0
        rng_real = substream(43, "real2")
        rng_sim = substream(47, "sim2")
        real = np.empty((n, 2 * d))
        sim = np.empty((n, 2 * d))
        for i in range(n):
            real[i] = share_vector(x, 3, sigma, rng_real)[1:].ravel()
            view = simulate_share_view({1, 2}, 3, sigma, d, rng_sim)
            sim[i] = np.concatenate([view[1], view[2]])
        for j in range(2 * d):
            assert stats.ks_2samp(real[:, j], sim[:, j]).pvalue > 1e-3 / (2 * d)
        cov_real = np.cov(real, rowvar=False)
        cov_sim = np.cov(sim, rowvar=False)
        # each entry differs by ~sqrt(2)*sigma^2/sqrt(n); allow 5 SE for the max
        assert np.max(np.abs(cov_real - cov_sim)) < 5 * math.sqrt(2) * sigma**2 / math.sqrt(n)

    def test_truncation_cannot_increase_ks_distance(self):
        # post-processing both samples with the same monotone map never
        # increases the KS statistic
        sigma, d, n = 5.0, 2, 4000
        rng_real = substream(53, "pp-real")
        rng_sim = substream(59, "pp-sim")
        real = np.empty((n, d))
        sim = np.empty((n, d))
        for i in range(n):
            real[i] = share_vector(np.ones(d) / math.sqrt(d), 2, sigma, rng_real)[1]
            sim[i] = simulate_share_view({1}, 2, sigma, d, rng_sim)[1]
        for j in range(d):
            before = stats.ks_2samp(real[:, j], sim[:, j]).statistic
            after = stats.ks_2samp(
                truncate_share(real[:, j], 8.0, 0.5),
                truncate_share(sim[:, j], 8.0, 0.5),
            ).statistic
            assert after <= before + 1e-12

    def test_invalid_subsets(self):
        with pytest.raises(ParameterError):
            simulate_share_view(set(), 3, 1.0, 4, 0)
        with pytest.raises(ParameterError):
            simulate_share_view({0, 1, 2}, 3, 1.0, 4, 0)
        with pytest.raises(ParameterError):
            simulate_share_view({3}, 3, 1.0, 4, 0)


class TestTruncateShare:
    def test_on_grid_values_unchanged(self):
        share = np.array([-3.0, 0.0, 2.0, 127.0])
        np.testing.assert_array_equal(truncate_share(share, 127.0, 1.0), share)

    def test_clamps_to_bound(self):
        assert truncate_share(np.array([200.0]), 127.0, 1.0)[0] == 127.0
        assert truncate_share(np.array([-200.0]), 127.0, 1.0)[0] == -127.0

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        B=st.floats(0.5, 500.0),
        step=st.floats(0.01, 10.0),
    )
    @settings(max_examples=200)
    def test_idempotent_and_bounded(self, values, B, step):
        share = np.array(values)
        once = truncate_share(share, B, step)
        twice = truncate_share(once, B, step)
        np.testing.assert_array_equal(once, twice)
        assert np.all(np.abs(once) <= B)
        assert np.all(np.abs(decode_quantized(encode_quantized(once, step), step)) <= B)

    def test_clamp_probability_example(self):
        # per-coordinate distortion odds for sigma_ss=20 at B=127
        p = clamp_probability(127.0, 20.0)
        assert p == pytest.approx(2 * stats.norm.cdf(-127.0 / 20.0), rel=1e-9)
        assert p <= 1e-8

    def test_invalid(self):
        with pytest.raises(ParameterError):
            truncate_share(np.ones(2), 0.0, 1.0)
        with pytest.raises(ParameterError):
            truncate_share(np.ones(2), 1.0, 0.0)
        with pytest.raises(ParameterError):
            clamp_probability(0.0, 1.0)
