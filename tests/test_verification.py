"""Norm verification: projections, decisions, protocol runs, simulator."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from privsum import (
    ClientSubmission,
    DimensionMismatch,
    ParameterError,
    ProtocolParams,
    calibrate,
    norm_verification_rate,
    project_reply,
    run_aggregation,
    run_norm_verification,
    sample_projection,
    share_vector,
    simulate_norm_verification,
    substream,
    truncate_share,
    verifier0_decide,
)
from privsum.audit import PATTERN_CONCENTRATED, binomial_se
from privsum.transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_REPLY,
    KIND_SHARE,
)
from privsum.verification import decide_norms, project_replies


def small_params(**overrides):
    defaults = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2,
                    beta=0.05, S=2, k=16, d=8)
    defaults.update(overrides)
    return calibrate(**defaults).params


class TestProjectReply:
    def test_output_dimension_is_k(self):
        W = sample_projection(5, 12, 1)
        reply = project_reply(np.ones(12), W, 2.0, 3)
        assert reply.shape == (5,)

    def test_noise_moments_at_zero_input(self):
        # z = 0: per-coordinate mean 0 and variance sigma_v^2
        W = sample_projection(4, 6, 2)
        sigma_v = 3.0
        rng = substream(11, "reply-moments")
        draws = np.empty((25_000, 4))
        for i in range(draws.shape[0]):
            draws[i] = project_reply(np.zeros(6), W, sigma_v, rng)
        flat = draws.ravel()
        assert abs(flat.mean()) < 4 * sigma_v / math.sqrt(flat.size)
        assert abs(flat.var() - sigma_v**2) / sigma_v**2 < 0.02

    def test_same_seed_noise_cancels(self):
        W = sample_projection(6, 10, 5)
        z = np.linspace(-1, 1, 10)
        a = project_reply(z, W, 1.5, 77)
        b = project_reply(np.zeros(10), W, 1.5, 77)
        # identical noise under the same seed; difference is W z up to
        # one f64 rounding per coordinate
        np.testing.assert_allclose(a - b, W.entries @ z, atol=1e-12)

    def test_dimension_mismatch(self):
        W = sample_projection(4, 6, 0)
        with pytest.raises(DimensionMismatch):
            project_reply(np.ones(7), W, 1.0, 0)


class TestVerifier0Decide:
    def test_missing_reply_detected(self):
        # replies are one row of k per verifier 1..S-1: no row, a row of
        # another length or a flat reply is a shape error
        W = sample_projection(4, 6, 0)
        r1 = project_reply(np.ones(6), W, 1.0, 1)
        for replies in (np.empty((0, 4)), [r1[:3]], r1, [[r1]]):
            with pytest.raises(DimensionMismatch):
                verifier0_decide(np.ones(6), replies, W, 1.0, 5.0, 0)

    def test_accept_iff_norm_below_tau(self):
        W = sample_projection(4, 6, 0)
        r1 = project_reply(np.zeros(6), W, 1.0, 1)
        out = verifier0_decide(np.zeros(6), [r1], W, 1.0, 1e9, 2)
        assert out.accept and out.v_norm < 1e9
        out2 = verifier0_decide(np.zeros(6), [r1], W, 1.0, 1e-12, 2)
        assert not out2.accept and out2 == (False, out.v_norm)

    def test_v_norm_law_is_chi_square(self):
        # k ||v||^2 / (||x||^2 + k S sigma_v^2) is chi-square(k)
        params = small_params(k=16, d=128, S=2)
        k, S, sigma_v = params.k, params.S, params.sigma_v
        rng = substream(303, "vlaw")
        u = rng.standard_normal(128)
        x = u / np.linalg.norm(u)
        samples = np.empty(10_000)
        for t in range(samples.size):
            shares = share_vector(x, S, params.sigma_ss, rng)
            W = sample_projection(k, 128, rng)
            replies = [project_reply(shares[i], W, sigma_v, rng) for i in range(1, S)]
            out = verifier0_decide(shares[0], replies, W, sigma_v,
                                   params.tau, rng)
            samples[t] = k * out.v_norm**2 / (1.0 + k * S * sigma_v**2)
        assert stats.kstest(samples, stats.chi2(df=k).cdf).pvalue > 1e-3

    def test_decision_depends_only_on_share_sum(self):
        # two different splits of the same share sum under the same seeds
        # produce the same v up to f64 associativity
        params = small_params(k=16, d=16, S=3)
        rng = substream(404, "split")
        target = rng.standard_normal(16)
        W = sample_projection(params.k, params.d, 1234)

        def decide(split_seed):
            blinds = substream(split_seed, "blinds").normal(0, 5.0, size=(2, 16))
            shares = [target - blinds.sum(axis=0), blinds[0], blinds[1]]
            replies = [
                project_reply(shares[i], W, params.sigma_v, substream(999, "reply", i))
                for i in (1, 2)
            ]
            return verifier0_decide(shares[0], replies, W, params.sigma_v,
                                    params.tau, substream(999, "decide"))

        a = decide(1)
        b = decide(2)
        assert a.v_norm == pytest.approx(b.v_norm, rel=1e-9)


def noise(sigma, rngs, k):
    return np.stack([sigma * rng.standard_normal(k) for rng in rngs])


class TestBatchedKernels:
    def test_rows_match_per_client_calls(self):
        # the session kernels and the per-client functions share one code
        # path; a batch row differs from its single-row call by BLAS rounding
        params = small_params(k=16, d=8, S=3)
        W = sample_projection(params.k, params.d, 5)
        Z = substream(6, "Z").normal(0.0, 3.0, size=(3, 5, params.d))
        sv, k = params.sigma_v, params.k
        Y = [None] + [project_replies(Z[i], W.entries,
                                      noise(sv, [substream(7, i, j) for j in range(5)], k))
                      for i in (1, 2)]
        norms = decide_norms(Z[0], Y[1:], W.entries,
                             noise(sv, [substream(8, j) for j in range(5)], k))
        for j in range(5):
            replies = [project_reply(Z[i, j], W, sv, substream(7, i, j)) for i in (1, 2)]
            for i in (1, 2):
                np.testing.assert_allclose(replies[i - 1], Y[i][j], rtol=0, atol=1e-12)
            out = verifier0_decide(Z[0, j], replies, W, sv, params.tau, substream(8, j))
            assert out.v_norm == pytest.approx(norms[j], rel=1e-12)

    def test_matrix_stack_rows_equal_single_row_calls(self):
        # a per-row W stack gives each row exactly its one-row result, which
        # keeps the chunked Monte Carlo drivers draw- and bit-identical
        rng = substream(9, "stack")
        W = rng.standard_normal((4, 16, 8)) / 4.0
        Z = rng.standard_normal((4, 3, 8))
        E = rng.standard_normal((4, 3, 16))
        Y = [project_replies(Z[:, i], W, E[:, i]) for i in (1, 2)]
        norms = decide_norms(Z[:, 0], Y, W, E[:, 0])
        for r in range(4):
            y = [project_replies(Z[r, i:i + 1], W[r], E[r, i:i + 1]) for i in (1, 2)]
            for i in (1, 2):
                np.testing.assert_array_equal(Y[i - 1][r], y[i - 1][0])
            assert norms[r] == decide_norms(Z[r, :1], y, W[r], E[r, :1])[0]

    def test_empty_batch(self):
        W = sample_projection(4, 6, 0).entries
        assert project_replies(np.empty((0, 6)), W, np.empty((0, 4))).shape == (0, 4)
        assert decide_norms(np.empty((0, 6)), [np.empty((0, 4))], W,
                            np.empty((0, 4))).shape == (0,)


class TestRunNormVerification:
    # recorded when verify-norm became rounds 0-3 of a one-client session,
    # reply batches and accepted-set broadcast included, and re-pinned when
    # a client's verification noise became one stream;
    # (S, trunc_b, quant_step) -> transcript sha256
    TRANSCRIPT_SHA256 = {
        (3, None, 1.0): "c925493e12e608a6a216af18f62fdf07b83aa13ea8945d54d3b1266c0a91d2aa",
        (3, 8.0, 0.25): "35f57662887ccf5a2a49af993bae643355f87284ff24b2e1063317ec5fabfe6b",
    }

    @pytest.mark.parametrize("S, trunc_b, quant_step", list(TRANSCRIPT_SHA256))
    def test_transcript_hash_is_pinned(self, S, trunc_b, quant_step):
        params = small_params(S=S, trunc_b=trunc_b, quant_step=quant_step)
        shares = share_vector(np.ones(params.d) / 4, params.S, params.sigma_ss, 5)
        _, tr = run_norm_verification(shares, params, 42, client_id="c0")
        assert len(tr.messages) == S + 3 * (S - 1)
        assert tr.sha256() == self.TRANSCRIPT_SHA256[S, trunc_b, quant_step]

    @pytest.mark.parametrize("S", [2, 3])
    @pytest.mark.parametrize("trunc_b", [None, 8.0])
    def test_outcome_matches_one_client_aggregation(self, S, trunc_b):
        # verify-norm is rounds 0-3 of the one-client session: same verdict,
        # and the same messages up to the accepted-set broadcast
        params = small_params(S=S, trunc_b=trunc_b, quant_step=0.25)
        for seed in range(6):
            rng = substream(seed, "equivalence")
            u = rng.standard_normal(params.d)
            # alternate honest and norm-inflating inputs so both verdicts occur
            norm = 1.0 if seed % 2 == 0 else 10.0 * params.rho
            shares = share_vector(norm * u / np.linalg.norm(u), params.S,
                                  params.sigma_ss, rng)
            outcome, tr = run_norm_verification(shares, params, seed, client_id="c0")
            if trunc_b is not None:
                shares = [truncate_share(z, trunc_b, params.quant_step) for z in shares]
            sub = ClientSubmission(client_id="c0", payloads=dict(enumerate(shares)))
            result, session = run_aggregation([sub], params, seed=seed)
            assert outcome == result.per_client_outcomes["c0"]
            assert tr.messages == tuple(m for m in session.messages if m.round <= 3)
            assert type(outcome.accept) is bool
            if trunc_b is None:  # clamping at trunc_b can pull an inflated norm under tau
                assert outcome.accept == (seed % 2 == 0)

    def test_transcript_structure(self):
        params = small_params(S=3)
        x = np.zeros(params.d)
        shares = share_vector(x, params.S, params.sigma_ss, 5)
        _, tr = run_norm_verification(shares, params, 42, client_id="c0")
        kinds = [m.kind for m in tr.messages]
        S = params.S
        assert kinds.count(KIND_SHARE) == S
        assert kinds.count(KIND_MATRIX) == S - 1
        assert kinds.count(KIND_REPLY) == S - 1
        assert kinds.count(KIND_ACCEPTED_SET) == S - 1
        assert len(tr.messages) == S + 3 * (S - 1)

    def test_deterministic_transcripts(self):
        params = small_params()
        shares = share_vector(np.ones(params.d) / 4, params.S, params.sigma_ss, 5)
        _, tr1 = run_norm_verification(shares, params, 42, client_id="c0")
        _, tr2 = run_norm_verification(shares, params, 42, client_id="c0")
        assert tr1.to_jsonl(include_payload=True) == tr2.to_jsonl(include_payload=True)
        assert tr1.sha256() == tr2.sha256()
        _, tr3 = run_norm_verification(shares, params, 43, client_id="c0")
        assert tr1.sha256() != tr3.sha256()

    def test_honest_accept_rate_meets_completeness(self):
        params = small_params(k=64, d=32, S=2, beta=0.01)
        est = norm_verification_rate(params, 1.0, 2000, substream(1, "comp"))
        assert est.rate >= 1 - 0.01 - 3 * binomial_se(0.01, 2000)

    def test_norm_rho_accept_rate_meets_soundness(self):
        params = small_params(k=64, d=32, S=2, beta=0.05)
        est = norm_verification_rate(params, params.rho, 2000,
                                     substream(2, "sound"),
                                     pattern=PATTERN_CONCENTRATED)
        assert est.rate <= 0.05 + 3 * binomial_se(0.05, 2000)

    def test_share_array_checks(self):
        params = small_params(S=2)
        with pytest.raises(DimensionMismatch):  # S=3 shares for S=2 params
            run_norm_verification(share_vector(np.zeros(params.d), 3, params.sigma_ss, 5),
                                  params, 0)
        with pytest.raises(DimensionMismatch):  # d - 1 coordinates
            run_norm_verification(np.zeros((2, params.d - 1)), params, 0)
        with pytest.raises(DimensionMismatch):  # one share is no sharing
            run_norm_verification(np.zeros((1, params.d)), params, 0)
        with pytest.raises(ParameterError):
            run_norm_verification(np.full((2, params.d), np.nan), params, 0)


# S, T, seed, whether the coalition shoves its replies by +4, then the pinned
# sha256 of the blinds' and W's bytes, the accept bit and v_sim
SIMULATOR_PINS = [
    (2, (1,), 0, False, "f5360246386077b994d93ec2abb3c026dd63c1da6f125b2d101a8ae7035855fb", True,
     [-1.5493294423445771, -1.5978538061484542, -0.22077193151231872, 1.5173294834782192]),
    (2, (1,), 1, False, "cdf87f6711fc57f979b9a62bc2e017fde0ba5a1489a77379a804ff744eaa5dd5", True,
     [-0.05018876405092747, 1.3678667554681574, -1.0386172114022063, -0.5556021914618254]),
    (3, (1,), 2, False, "f4334fe77fc1ebdef230c9cd88a185b7bc37b795ffc43115df99d01dce444eb7", True,
     [-0.7319777864129672, -1.3883335112565791, -2.096426573965646, -0.5081790666880384]),
    (3, (1,), 3, False, "f9a19dacbc5a898799b1f09c1f0a5e5aac4c353171855d7cbc4e7b3a13c2327e", False,
     [-1.1242820676813086, -3.595232615800489, 0.13126037062230367, 1.7140057350686018]),
    (3, (1, 2), 4, False, "f29a545f21df2df0fc492a13e9651192229f267c3b70d46db25ffd18656abc90", True,
     [-1.5376147972783736, 0.9966392553858581, -0.6798140783667115, -1.414853243893056]),
    (3, (1, 2), 5, False, "616cc9a6e62f2c5b4b9c6b590cb6dbf8ccdcf2e1f556228b9ff99228eb3e119f", False,
     [-2.2558975589220145, -0.7508003915781984, -2.5125753737646166, -0.5335826586242147]),
    (3, (1, 2), 6, True, "5ae291fce8233dd8c106bdecf334f67d349fbafa6e853cd25ad014b3836a2938", False,
     [5.770937205527546, 6.117332533910175, 6.712640287029311, 8.89047010900648]),
]


@pytest.mark.parametrize("S, T, seed, shove, digest, accept, v_sim", SIMULATOR_PINS)
def test_simulator_pinned(S, T, seed, shove, digest, accept, v_sim):
    params = ProtocolParams(S=S, n=1, d=3, k=4, eps=1.0, delta=1e-2, eps_ss=1.0,
                            delta_ss=1e-2, beta=0.05, sigma_ss=2.0, sigma_v=1.0,
                            tau=3.0, rho=10.0)

    def shoved_reply(i, g_i, W, rng):
        return W @ g_i + rng.normal(0.0, 1.0, size=W.shape[0]) + 4.0

    run = simulate_norm_verification(T, params, seed,
                                     reply_fn=shoved_reply if shove else None)
    blinds = b"".join(run.shares[i].tobytes() for i in sorted(run.shares))
    assert sorted(run.shares) == list(T)
    assert hashlib.sha256(blinds + run.W.tobytes()).hexdigest() == digest
    assert run.accept is accept
    np.testing.assert_allclose(run.v_sim, v_sim, rtol=0, atol=1e-12)


class TestSimulateNormVerification:
    def test_rejects_verifier0_in_coalition(self):
        params = small_params(S=3)
        with pytest.raises(ParameterError):
            simulate_norm_verification({0, 1}, params, 0)

    def test_v_sim_residual_variance(self):
        # T={1}, S=2 with honest injected replies: v_sim - (y1 - W g1) is the
        # simulator's own fresh N(0, (S-|T|) sigma_v^2 I_k) = sigma_v^2 draw
        params = small_params(S=2, k=16, d=4)
        rng = substream(606, "vsim")
        residuals = []
        for _ in range(20_000):
            injected = {}

            def honest_reply(i, g_i, W, reply_rng):
                y = W @ g_i + reply_rng.normal(0.0, params.sigma_v,
                                               size=W.shape[0])
                injected[i] = (y, W @ g_i)
                return y

            run = simulate_norm_verification({1}, params, rng,
                                             reply_fn=honest_reply)
            y1, wg1 = injected[1]
            residuals.append(run.v_sim - (y1 - wg1))
        flat = np.concatenate(residuals)
        expected = params.sigma_v**2
        assert abs(flat.var() - expected) / expected < 0.02

    def test_w_and_share_marginals_match_real_protocol(self):
        # the simulator's W and g_i messages follow the real protocol's laws
        params = small_params(S=3, k=16, d=4)
        n = 8000
        rng_real = substream(707, "real")
        rng_sim = substream(708, "sim")
        real_g = np.empty((n, params.d))
        sim_g = np.empty((n, params.d))
        real_w = np.empty((n, params.k * params.d))
        sim_w = np.empty((n, params.k * params.d))
        for i in range(n):
            real_g[i] = share_vector(np.zeros(params.d), params.S,
                                     params.sigma_ss, rng_real)[1]
            real_w[i] = sample_projection(params.k, params.d, rng_real).entries.ravel()
            run = simulate_norm_verification({1}, params, rng_sim)
            sim_g[i] = run.shares[1]
            sim_w[i] = run.W.ravel()
        for j in range(params.d):
            assert stats.ks_2samp(real_g[:, j], sim_g[:, j]).pvalue > 1e-4
        # spot-check a few W entries, all i.i.d. N(0, 1/k)
        for j in (0, 7, 15):
            assert stats.ks_2samp(real_w[:, j], sim_w[:, j]).pvalue > 1e-4

    def test_accept_rates_close_between_real_and_simulated(self):
        # (eps, delta)-closeness implies the accept probabilities cannot
        # differ by more than the closeness bound allows
        params = small_params(S=2, k=16, d=8, beta=0.05)
        trials = 3000
        rng = substream(809, "accept-real")
        real_accepts = 0
        for _ in range(trials):
            u = rng.standard_normal(params.d)
            shares = share_vector(u / np.linalg.norm(u), params.S,
                                  params.sigma_ss, rng)
            out, _ = run_norm_verification(shares, params,
                                           int(rng.integers(2**62)))
            real_accepts += out.accept
        rng_sim = substream(810, "accept-sim")
        sim_accepts = 0
        for _ in range(trials):
            run = simulate_norm_verification({1}, params, rng_sim)
            sim_accepts += run.accept
        p_real = real_accepts / trials
        p_sim = sim_accepts / trials
        slack = 3 * (binomial_se(p_real, trials) + binomial_se(p_sim, trials))
        eps, delta = params.eps, params.delta
        assert p_real <= math.exp(eps) * p_sim + delta + slack
        assert p_sim <= math.exp(eps) * p_real + delta + slack
