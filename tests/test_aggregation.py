"""Aggregation: accepted sets, abort handling, robustness, unbiasedness."""

import math
import tracemalloc

import numpy as np
import pytest

from privsum import (
    AbortedInput,
    ClientBehavior,
    ClientSubmission,
    DimensionMismatch,
    DuplicateClientId,
    ParameterError,
    Scenario,
    ScenarioError,
    calibrate,
    honest_scenario,
    robustness_delta,
    run_aggregation,
    run_scenario,
    share_vector,
    substream,
    validity_check,
    with_adversary,
)
from privsum import aggregation
from privsum.aggregation import (
    BEHAVIOR_INCONSISTENT,
    BEHAVIOR_NORM_INFLATING,
    BEHAVIOR_PARTIAL_SEND,
    ClientBlocks,
)
from privsum.audit import binomial_se
from privsum.transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_REPLY,
    KIND_SHARE,
    KINDS,
    client_party,
    decode_id_set,
    decode_matrix,
    decode_quantized,
    decode_reply_batch,
    decode_vector,
    verifier_party,
)
from privsum.verification import decide_norms


def small_params(**overrides):
    defaults = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2,
                    beta=0.05, S=2, k=16, d=8)
    defaults.update(overrides)
    return calibrate(**defaults).params


def honest_submissions(n, params, seed):
    subs = []
    for j in range(n):
        rng = substream(seed, "client", j)
        u = rng.standard_normal(params.d)
        x = u / np.linalg.norm(u)
        shares = share_vector(x, params.S, params.sigma_ss, rng)
        subs.append((x, ClientSubmission(client_id=f"c{j:03d}",
                                         payloads=dict(enumerate(shares)))))
    return subs


def with_withholder(subs):
    """subs plus one client that withholds its share from verifier 1, so it is
    never in J* and validity_threshold=1.0 aborts."""
    withheld = ClientSubmission(client_id="withholder",
                                payloads={**subs[0].payloads, 1: None})
    return subs + [withheld]


class TestValidityCheck:
    def test_full_set_passes_any_threshold(self):
        assert validity_check({f"c{i}" for i in range(10)}, 10, 1.0)
        assert validity_check({f"c{i}" for i in range(10)}, 10, 0.1)

    def test_just_below_half_fails(self):
        assert not validity_check({f"c{i}" for i in range(24)}, 50, 0.5)
        assert validity_check({f"c{i}" for i in range(25)}, 50, 0.5)

    def test_invalid_threshold(self):
        with pytest.raises(Exception):
            validity_check(set(), 10, 0.0)


class TestRunAggregation:
    def test_all_honest_sum_matches(self):
        params = small_params(d=16)
        pairs = honest_submissions(10, params, 71)
        result, _ = run_aggregation([s for _, s in pairs], params, seed=8)
        assert not result.aborted
        assert len(result.accepted) == 10
        expected = np.sum([x for x, _ in pairs], axis=0)
        assert np.linalg.norm(result.sum - expected) <= 1e-6

    def test_duplicate_ids_rejected(self):
        params = small_params()
        pairs = honest_submissions(2, params, 5)
        twin = ClientSubmission(client_id=pairs[0][1].client_id,
                                payloads=pairs[1][1].payloads)
        with pytest.raises(DuplicateClientId):
            run_aggregation([pairs[0][1], twin], params, seed=0)

    def test_partial_send_excluded_deterministically(self):
        params = small_params(S=3)
        pairs = honest_submissions(4, params, 9)
        subs = [s for _, s in pairs]
        payloads = dict(subs[0].payloads)
        payloads[2] = None
        subs[0] = ClientSubmission(client_id=subs[0].client_id, payloads=payloads)
        result, _ = run_aggregation(subs, params, seed=3)
        assert subs[0].client_id not in result.accepted
        assert subs[0].client_id not in result.per_client_outcomes
        assert len(result.accepted) == 3

    @pytest.mark.parametrize("fault", ["nan", "inf", "wrong-length", "index -1", "index 3",
                                       "text", "ragged", "complex"])
    def test_malformed_share_excludes_only_its_client(self, fault):
        params = small_params(S=3)
        subs = [s for _, s in honest_submissions(5, params, 41)]
        payloads = dict(subs[2].payloads)
        if fault == "wrong-length":
            payloads[1] = payloads[1][:-1]
        elif fault in ("text", "ragged", "complex"):
            # not a vector of real numbers; a float64 cast would drop the imaginary part
            payloads[1] = {"text": "oops", "ragged": [1, 2, [3], 4],
                           "complex": payloads[1] + 0.5j}[fault]
        elif fault.startswith("index"):
            # verifier 1's share addressed to a verifier that does not exist
            payloads[int(fault.split()[1])] = payloads.pop(1)
        else:
            payloads[1] = payloads[1].copy()
            payloads[1][3] = float(fault)
        bad = ClientSubmission(client_id=subs[2].client_id, payloads=payloads)
        result, transcript = run_aggregation(subs[:2] + [bad] + subs[3:], params, seed=12)
        without, _ = run_aggregation(subs[:2] + subs[3:], params, seed=12)
        assert not result.aborted
        assert bad.client_id not in result.accepted
        assert bad.client_id not in result.per_client_outcomes
        assert len(result.per_client_outcomes) == 4
        assert robustness_delta(result, without) == 0.0
        # the bad share is never delivered; the client's other shares are
        delivered = {m.receiver for m in transcript.messages
                     if m.kind == KIND_SHARE and m.sender == client_party(bad.client_id)}
        assert delivered == {verifier_party(0), verifier_party(2)}
        with pytest.raises(DuplicateClientId):
            run_aggregation([bad, subs[2]], params, seed=12)

    @pytest.mark.parametrize("fault, error", [
        ("complex", ParameterError), ("list", ParameterError), ("int-mask", ParameterError),
        ("width-1", DimensionMismatch), ("rows", DimensionMismatch),
        ("mask-width", DimensionMismatch)])
    def test_a_malformed_client_block_raises(self, fault, error):
        # a ClientBlocks chunk is checked whole: a complex or list share array
        # is not cast, a width-1 one not broadcast, and an int mask not used as
        # an index; each raises before anything is delivered
        params = small_params(S=2, d=8)
        shares, mask = np.ones((2, 2, 8)), np.ones((2, 2), dtype=bool)
        shares, mask = {"complex": (shares + 0.5j, mask),
                        "list": (shares.tolist(), mask),
                        "int-mask": (shares, mask.astype(int)),
                        "width-1": (shares[:, :, :1], mask),
                        "rows": (np.ones((3, 2, 8)), mask),
                        "mask-width": (shares, np.ones((2, 3), dtype=bool))}[fault]
        with pytest.raises(error):
            run_aggregation(ClientBlocks(2, [(["a", "b"], shares, mask)]), params)

    def test_a_client_blocks_non_finite_share_is_not_delivered(self):
        # a well-formed block's nan share is left undelivered, as the same
        # share is in a ClientSubmission: the two sessions are byte-identical
        params = small_params(S=3)
        subs = [s for _, s in honest_submissions(4, params, 41)]
        shares = np.array([[s.payloads[i] for i in range(3)] for s in subs])
        shares[2, 1, 3] = np.nan
        subs[2] = ClientSubmission(subs[2].client_id, dict(enumerate(shares[2])))
        blocks = ClientBlocks(4, [([s.client_id for s in subs], shares,
                                   np.ones((4, 3), dtype=bool))])
        r1, t1 = run_aggregation(blocks, params, seed=12)
        r2, t2 = run_aggregation(subs, params, seed=12)
        assert t1.sha256() == t2.sha256()
        assert r1.sum.tobytes() == r2.sum.tobytes()
        assert r1.per_client_outcomes == r2.per_client_outcomes
        assert subs[2].client_id not in r1.per_client_outcomes
        assert len(r1.per_client_outcomes) == 3

    def test_validity_abort_produces_no_sum(self):
        params = small_params()
        pairs = honest_submissions(4, params, 13)
        subs = [s for _, s in pairs]
        # threshold demands more clients than exist in J*
        result, transcript = run_aggregation(
            with_withholder(subs), params, validity_threshold=1.0, seed=4)
        assert result.aborted and result.sum is None
        kinds = [m.kind for m in transcript.messages]
        assert "partial-sum" not in kinds
        # n counts every submission, the withholder included: 4 of 5 meets 0.8
        passed, _ = run_aggregation(
            with_withholder(subs), params, validity_threshold=0.8, seed=4)
        assert len(passed.accepted) == 4 and not passed.aborted

    def test_quantized_sum_is_sum_of_transmitted_shares(self):
        # shares off the quantization grid: verifiers must sum what they
        # received (the decoded payloads), not the raw shares
        params = small_params(trunc_b=4.0, quant_step=0.5)
        subs = [s for _, s in honest_submissions(6, params, 29)]
        result, transcript = run_aggregation(subs, params, seed=2)
        assert not result.aborted
        transmitted = np.zeros(params.d)
        raw = np.zeros(params.d)
        for m in transcript.messages:
            cid = m.sender.split(":", 1)[1]
            if m.kind == KIND_SHARE and cid in result.accepted:
                transmitted += decode_quantized(m.payload, params.quant_step)
        for sub in subs:
            if sub.client_id in result.accepted:
                raw += sum(sub.payloads.values())
        assert np.max(np.abs(result.sum - transmitted)) <= 1e-12
        assert np.max(np.abs(result.sum - raw)) > 1e-3

    def test_sigma_out_perturbs_sum(self):
        params = small_params(d=16)
        pairs = honest_submissions(5, params, 21)
        subs = [s for _, s in pairs]
        clean, _ = run_aggregation(subs, params, seed=6)
        noisy, _ = run_aggregation(subs, params, seed=6, sigma_out=1.0)
        assert clean.accepted == noisy.accepted
        diff = np.linalg.norm(noisy.sum - clean.sum)
        assert diff > 0.0
        # S independent N(0, I_d) vectors: norm concentrates near sqrt(S d)
        assert diff < 10 * math.sqrt(params.S * params.d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_out", [math.nan, math.inf])
    def test_non_finite_sigma_out_is_refused(self, sigma_out):
        # such a sigma_out released a sum of nan or -inf
        params = small_params()
        with pytest.raises(ScenarioError, match="^sigma_out must be a finite number"):
            honest_scenario(3, 2, 8, sigma_out=sigma_out)
        subs = [s for _, s in honest_submissions(3, params, 21)]
        with pytest.raises(ParameterError, match="^sigma_out must be a finite number"):
            run_aggregation(subs, params, seed=6, sigma_out=sigma_out)


def sequential_sum(M, mask):
    """Round 4 as a loop: s += M[r] for each masked row r in order, onto +0.0."""
    s = np.zeros(M.shape[1])
    for r in np.flatnonzero(mask):
        s += M[r]
    return s


class TestMemory:
    def test_one_decoded_share_matrix_at_a_time(self):
        # verifiers keep the payloads they received and decode one verifier's
        # rows at a time, so a session's peak stays below the S decoded (n, d)
        # matrices that holding every verifier's rows at once would take
        n, S, d = 100, 3, 2048
        params = small_params(S=S, d=d, trunc_b=32.0, quant_step=0.25)
        scenario = honest_scenario(n, S, d)
        tracemalloc.start()
        try:
            run_scenario(scenario, params, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S * n * d * 8

    def test_float64_shares_are_not_copied(self):
        # a float64 session holds its share payloads, S n (8d + 8) bytes with
        # their alignment pad, and per client a few k-vectors (replies, noise,
        # the reply batch), but no decoded (n, d) copy of any verifier's rows
        n, S, d = 2000, 2, 128
        params = small_params(S=S, d=d)
        scenario = honest_scenario(n, S, d)
        tracemalloc.start()
        try:
            run_scenario(scenario, params, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S * n * (8 * d + 8) + n * (64 * params.k + 4 * d)

    def test_submissions_without_a_length(self, monkeypatch):
        # with no length to size it, a verifier's store grows as round 0
        # fills it, chunk by chunk; the session is the one run from a list
        monkeypatch.setattr(aggregation, "_CHUNK_BYTES", 1)
        params = small_params(S=3)
        subs = [s for _, s in honest_submissions(7, params, 4)][::-1]  # ids out of order
        subs = with_withholder(subs)
        a, ta = run_aggregation(subs, params, seed=3)
        b, tb = run_aggregation((s for s in subs), params, seed=3)
        assert tb.messages == ta.messages and tb.sha256() == ta.sha256()
        assert b.sum.tobytes() == a.sum.tobytes() and b.accepted == a.accepted

    def test_verifiers_read_shares_and_w_where_they_lie(self, monkeypatch):
        # round 2 projects rows that are an 8-aligned strided view of the
        # round-0 payloads, with W the values of its round-1 payload
        params = small_params(S=3, d=8)
        seen, project = [], aggregation.project_replies
        monkeypatch.setattr(aggregation, "project_replies",
                            lambda Z, W, noise: seen.append((Z, W)) or project(Z, W, noise))
        _, tr = run_scenario(honest_scenario(5, params.S, params.d), params, 3)
        kind, block = tr.columns["kind"], tr.columns["block"]
        shares = [tr.blocks[b] for b in set(block[kind == KINDS.index(KIND_SHARE)].tolist())]
        matrix = tr.blocks[block[kind == KINDS.index(KIND_MATRIX)][0]]
        assert len(seen) == params.S - 1
        for Z, W in seen:
            assert Z.shape == (5, params.d) and Z.strides == (8 * (params.d + 1), 8)
            assert Z.ctypes.data % 8 == 0 and W.ctypes.data % 8 == 0
            assert any(np.shares_memory(Z, b) for b in shares)
            assert np.shares_memory(W, matrix)


class TestPartialSum:
    # round 4's masked reduction adds exactly what the row loop adds; a lone
    # column (d = 1) included, which numpy's reduction would add pairwise
    SHAPES = [(1, 1), (40, 1), (3, 2), (50, 3), (200, 8), (7, 128), (300, 128), (30, 1024)]

    @pytest.mark.parametrize("m, d", SHAPES)
    def test_float_rows(self, m, d):
        rng = np.random.default_rng(m * d)
        M = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))
        for p in (0.1, 0.5, 1.0):
            mask = rng.random(m) < p
            assert aggregation._masked_sum(M, mask).tobytes() == sequential_sum(M, mask).tobytes()

    @pytest.mark.parametrize("m, d", SHAPES)
    def test_quantized_grid_with_signed_zeros(self, m, d):
        rng = np.random.default_rng(m + d)
        M = np.round(rng.standard_normal((m, d)) * 8) / 4
        M[rng.random((m, d)) < 0.4] = -0.0
        M[: m // 2, 0] = -0.0  # a column that starts with a run of -0.0
        mask = rng.random(m) < 0.7
        got = aggregation._masked_sum(M, mask)
        assert got.tobytes() == sequential_sum(M, mask).tobytes()
        assert not np.signbit(aggregation._masked_sum(-np.zeros((m, d)), mask)).any()

    @pytest.mark.parametrize("m, d", [(0, 1), (0, 8), (5, 1), (5, 8)])
    def test_no_accepted_row_sums_to_zeros(self, m, d):
        got = aggregation._masked_sum(np.ones((m, d)), np.zeros(m, dtype=bool))
        assert got.shape == (d,) and got.tobytes() == np.zeros(d).tobytes()


class TestRobustness:
    def test_identical_results_have_zero_delta(self):
        params = small_params()
        pairs = honest_submissions(3, params, 33)
        subs = [s for _, s in pairs]
        a, _ = run_aggregation(subs, params, seed=7)
        b, _ = run_aggregation(subs, params, seed=7)
        assert robustness_delta(a, b) == 0.0

    def test_excluded_adversary_changes_nothing(self):
        params = small_params(d=16)
        scenario = honest_scenario(6, params.S, params.d)
        attacked = with_adversary(scenario, ClientBehavior(
            kind=BEHAVIOR_NORM_INFLATING, norm=20 * params.rho))
        hits = 0
        for seed in range(30):
            with_adv, _ = run_scenario(attacked, params, seed)
            without, _ = run_scenario(scenario, params, seed)
            adv_id = set(with_adv.per_client_outcomes) - set(without.per_client_outcomes)
            if not (set(with_adv.accepted) & adv_id):
                # bitwise identical when the adversary was rejected
                assert robustness_delta(with_adv, without) == 0.0
                hits += 1
        assert hits >= 28  # norm 20 rho passes verification essentially never

    def test_accepted_adversary_shifts_by_its_share_sum(self):
        params = small_params(d=16)
        scenario = honest_scenario(4, params.S, params.d)
        # norm well below 1: always accepted, shifts the sum by exactly nu
        nu = 0.5
        attacked = with_adversary(scenario, ClientBehavior(norm=nu))
        with_adv, _ = run_scenario(attacked, params, 17)
        without, _ = run_scenario(scenario, params, 17)
        adv_id = set(with_adv.per_client_outcomes) - set(without.per_client_outcomes)
        assert set(with_adv.accepted) >= adv_id
        # f64 rounding in the share sums keeps this from being exact
        assert robustness_delta(with_adv, without) == pytest.approx(nu, rel=1e-9)

    def test_aborted_input_rejected(self):
        params = small_params()
        pairs = honest_submissions(3, params, 37)
        subs = [s for _, s in pairs]
        ok, _ = run_aggregation(subs, params, seed=1)
        bad, _ = run_aggregation(with_withholder(subs), params, validity_threshold=1.0,
                                 seed=1)
        with pytest.raises(AbortedInput):
            robustness_delta(ok, bad)

    def test_inflated_adversary_rarely_enters_sum(self):
        # one norm-3rho adversary among 20 honest clients
        params = small_params(d=16, k=64)
        scenario = honest_scenario(20, params.S, params.d)
        attacked = with_adversary(scenario, ClientBehavior(
            kind=BEHAVIOR_NORM_INFLATING, norm=3 * params.rho))
        trials = 300
        accepted_adv = 0
        for seed in range(trials):
            result, _ = run_scenario(attacked, params, seed)
            honest_only, _ = run_scenario(scenario, params, seed)
            adv_id = (set(result.per_client_outcomes)
                      - set(honest_only.per_client_outcomes))
            if set(result.accepted) & adv_id:
                accepted_adv += 1
        assert accepted_adv / trials <= params.beta + 3 * binomial_se(
            params.beta, trials)


class TestUnbiasedness:
    def test_mean_sum_scales_with_acceptance_rate(self):
        # E[sum] = p * sum(x_j) when every client is accepted independently
        # with probability p
        params = small_params(d=4, k=16, beta=0.05)
        n, runs = 3, 10_000
        rng = substream(55, "unbiased")
        xs = []
        for j in range(n):
            u = rng.standard_normal(params.d)
            xs.append(u / np.linalg.norm(u))
        total = np.sum(xs, axis=0)
        sums = np.empty((runs, params.d))
        accept_count = 0
        for t in range(runs):
            subs = []
            for j, x in enumerate(xs):
                shares = share_vector(x, params.S, params.sigma_ss, rng)
                subs.append(ClientSubmission(client_id=f"c{j}",
                                             payloads=dict(enumerate(shares))))
            result, _ = run_aggregation(subs, params,
                                        seed=int(rng.integers(2**62)))
            sums[t] = result.sum
            accept_count += len(result.accepted)
        p_hat = accept_count / (runs * n)
        mean_sum = sums.mean(axis=0)
        se = sums.std(axis=0) / math.sqrt(runs)
        np.testing.assert_array_less(np.abs(mean_sum - p_hat * total), 3 * se + 1e-9)


class TestBehaviors:
    def test_inconsistent_shares_flow_through(self):
        params = small_params()
        scenario = honest_scenario(2, params.S, params.d)
        attacked = with_adversary(scenario, ClientBehavior(
            kind=BEHAVIOR_INCONSISTENT, scale=5.0))
        result, _ = run_scenario(attacked, params, 3)
        assert not result.aborted
        assert len(result.per_client_outcomes) == 3

    def test_partial_send_behavior_skips_verifier(self):
        params = small_params(S=3)
        scenario = honest_scenario(2, params.S, params.d)
        attacked = with_adversary(scenario, ClientBehavior(
            kind=BEHAVIOR_PARTIAL_SEND, skip=(1,)))
        result, _ = run_scenario(attacked, params, 3)
        assert len(result.per_client_outcomes) == 2

    def test_abort_resistance_with_few_malicious(self):
        # 3 inflated adversaries among 17 honest, threshold n/2: aborts
        # require >= 10 exclusions and stay rare
        params = small_params(d=8, k=64)
        clients = tuple(
            [ClientBehavior() for _ in range(17)]
            + [ClientBehavior(kind=BEHAVIOR_NORM_INFLATING, norm=10 * params.rho)
               for _ in range(3)]
        )
        scenario = honest_scenario(0, params.S, params.d)
        scenario = scenario.__class__(
            n=20, S=params.S, d=params.d, clients=clients,
            validity_threshold=0.5)
        trials, aborts = 200, 0
        for seed in range(trials):
            result, _ = run_scenario(scenario, params, seed)
            if result.aborted:
                aborts += 1
        bound = 20 * params.beta
        assert aborts / trials <= bound + 3 * binomial_se(min(bound, 1.0), trials)


class TestTranscriptReplay:
    """Verifier 0's decisions, recomputed from the transcript's messages and
    each client's own verification-noise stream."""

    @pytest.mark.parametrize("trunc_b", [None, 8.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decisions_replay_from_the_messages(self, seed, trunc_b):
        params = small_params(S=3, trunc_b=trunc_b, quant_step=0.5)
        S, k = params.S, params.k
        clients = ((ClientBehavior(),) * 3
                   + (ClientBehavior(kind=BEHAVIOR_PARTIAL_SEND, skip=(1,)),
                      ClientBehavior(kind=BEHAVIOR_PARTIAL_SEND, skip=(0, 2)))
                   + (ClientBehavior(kind=BEHAVIOR_INCONSISTENT),) * 2
                   + (ClientBehavior(kind=BEHAVIOR_NORM_INFLATING, norm=50.0),) * 2)
        scenario = Scenario(n=9, S=S, d=params.d, clients=clients)
        result, transcript = run_scenario(scenario, params, seed)

        shares = [{} for _ in range(S)]
        replies, sets = [{} for _ in range(S)], []
        for m in transcript.messages:
            if m.kind == KIND_SHARE:
                i, cid = int(m.receiver.split(":")[1]), m.sender.split(":", 1)[1]
                shares[i][cid] = (decode_vector(m.payload) if trunc_b is None
                                  else decode_quantized(m.payload, params.quant_step))
            elif m.kind == KIND_MATRIX:
                W = decode_matrix(m.payload, k, params.d)
            elif m.kind == KIND_REPLY:
                ids, Y = decode_reply_batch(m.payload, k)
                replies[int(m.sender.split(":")[1])] = dict(zip(ids, Y))
            elif m.kind == KIND_ACCEPTED_SET:
                sets.append(decode_id_set(m.payload))

        for i in range(1, S):
            assert sorted(replies[i]) == sorted(shares[i])
        J = sorted(set(shares[0]).intersection(*shares[1:]))
        noise = np.array([substream(seed, "verification-noise", cid).standard_normal((S, k))[0]
                          for cid in J]) * params.sigma_v
        v_norms = decide_norms(np.array([shares[0][cid] for cid in J]),
                               [np.array([replies[i][cid] for cid in J]) for i in range(1, S)],
                               W, noise)
        J_star = sorted(cid for cid, v in zip(J, v_norms) if v < params.tau)
        assert sets == [J_star] * (S - 1)
        assert J_star == sorted(result.accepted)
        # the partial senders are never decided; unquantized, the inflated
        # clients are rejected (truncation can bring them under tau)
        assert len(J) == 7 and (trunc_b or len(J_star) < len(J))
        assert list(result.per_client_outcomes) == J
        assert [o.v_norm for o in result.per_client_outcomes.values()] == v_norms.tolist()
