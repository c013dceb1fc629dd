"""Acceptance gate: one test per protocol-level guarantee.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them). Monte Carlo checks run at the stated trial counts and tolerances;
tiny-probability targets are certified analytically, never by sampling.
"""

import time

import numpy as np
import pytest

from privsum import (
    ClientBehavior,
    InfeasibleParameters,
    ProtocolParams,
    calibrate,
    honest_scenario,
    measured_traffic,
    robustness_delta,
    run_scenario,
    substream,
    with_adversary,
)
from privsum.audit import (
    PATTERN_CONCENTRATED,
    PATTERN_SPREAD,
    VERDICT_CONSISTENT,
    binomial_se,
    chi2_tail_checks,
    completeness_check,
    gaussian_mechanism_analytic_check,
    gaussian_mechanism_mc_check,
    projection_privacy_check,
    share_simulation_check,
    soundness_check,
    truncation_clamp_check,
)
from privsum.core import (
    completeness_tau,
    min_sigma_ss,
    min_sigma_v,
    soundness_rho,
)
from privsum.harness import build_submission, random_direction, scenario_client_ids

pytestmark = pytest.mark.acceptance

EPS, DELTA = 1.0, 1e-2  # audit-scale privacy targets for the Monte Carlo grid


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def grid_params(beta: float, k: int, S: int, d: int) -> tuple[ProtocolParams, bool]:
    """Calibrated params; falls back to exact-quantile rho where the
    closed-form soundness bound is vacuous (k <= 4 ln(1/beta))."""
    try:
        params = calibrate(eps=EPS, delta=DELTA, eps_ss=EPS, delta_ss=DELTA,
                           beta=beta, S=S, k=k, d=d).params
        return params, True
    except InfeasibleParameters:
        sigma_v = min_sigma_v(k, DELTA, EPS)
        sigma_ss = min_sigma_ss(EPS, DELTA)
        tau = completeness_tau(k, S, sigma_v, beta)
        rho = soundness_rho(k, S, sigma_v, tau, beta, exact_cdf=True)
        params = ProtocolParams(
            S=S, n=1, d=d, k=k, eps=EPS, delta=DELTA, eps_ss=EPS,
            delta_ss=DELTA, beta=beta, sigma_ss=sigma_ss, sigma_v=sigma_v,
            tau=tau, rho=rho,
        )
        return params, False


def test_c01_completeness():
    trials = 10_000
    failures = []
    worst = 1.0
    for beta in (0.05, 0.01):
        for k in (16, 64):
            for S in (2, 3):
                for d in (32, 1024):
                    params, _ = grid_params(beta, k, S, d)
                    start = time.monotonic()
                    row = completeness_check(params, trials,
                                             substream(101, "c1", beta, k, S, d))
                    elapsed = time.monotonic() - start
                    worst = min(worst, row.threshold - row.statistic)
                    if row.verdict != VERDICT_CONSISTENT or elapsed > 120.0:
                        failures.append((beta, k, S, d, row, elapsed))
    ok = report("01 completeness", not failures,
                f"16 grid points x {trials} trials, min margin {worst:.4f}")
    assert ok, failures


def test_c02_soundness():
    trials = 10_000
    failures = []
    worst = 0.0
    points = 0
    for beta in (0.05, 0.01):
        for k in (16, 64):
            for S in (2, 3):
                for d in (32, 1024):
                    params, feasible = grid_params(beta, k, S, d)
                    if not feasible:
                        continue  # no closed-form rho exists at this point
                    points += 1
                    for pattern in (PATTERN_CONCENTRATED, PATTERN_SPREAD):
                        row = soundness_check(
                            params, pattern, trials,
                            substream(102, "c2", beta, k, S, d, pattern))
                        worst = max(worst, row.statistic - row.threshold)
                        if row.verdict != VERDICT_CONSISTENT:
                            failures.append((beta, k, S, d, pattern, row.statistic))
    ok = report("02 soundness", not failures,
                f"{points} feasible grid points x 2 patterns x {trials} trials, "
                f"max excess {worst:.4f}")
    assert ok, failures


def test_c03_robustness():
    params, _ = grid_params(0.05, 64, 2, 32)
    base = honest_scenario(19, params.S, params.d)
    trials = 1000
    failures = []
    details = []
    for factor in (0.5, 1.0, 2.0, 10.0):
        nu = factor * params.rho
        attacked = with_adversary(base, ClientBehavior(kind="norm-inflating",
                                                       norm=nu))
        bad = 0
        for t in range(trials):
            seed = int(substream(103, "c3", factor, t).integers(2**62))
            adv_id = scenario_client_ids(attacked, seed)[-1]
            with_adv, _ = run_scenario(attacked, params, seed)
            without, _ = run_scenario(base, params, seed)
            rng = substream(seed, "client", adv_id)
            sub = build_submission(attacked.clients[-1], adv_id, attacked,
                                   params, rng)
            share_sum_norm = float(np.linalg.norm(
                np.sum([sub.payloads[i] for i in range(params.S)], axis=0)))
            passed = adv_id in with_adv.accepted
            if passed and share_sum_norm > params.rho:
                bad += 1
            if not passed and robustness_delta(with_adv, without) != 0.0:
                failures.append(("nonzero-delta-when-excluded", factor, t))
        ceiling = params.beta + 3 * binomial_se(params.beta, trials)
        if bad / trials > ceiling:
            failures.append(("overweight-pass-rate", factor, bad / trials))
        details.append(f"{factor}rho:{bad / trials:.3f}")
    ok = report("03 robustness", not failures,
                f"pass&norm>rho rates {' '.join(details)} <= "
                f"{params.beta + 3 * binomial_se(params.beta, trials):.3f}; "
                "excluded adversaries shift the sum by exactly 0")
    assert ok, failures


def test_c04_correctness():
    n, trials = 50, 1000
    params, _ = grid_params(0.01, 64, 2, 64)
    scenario = honest_scenario(n, params.S, params.d)
    all_accepted = 0
    max_err = 0.0
    for t in range(trials):
        seed = int(substream(104, "c4", t).integers(2**62))
        result, _ = run_scenario(scenario, params, seed)
        if len(result.accepted) == n:
            all_accepted += 1
            ids = scenario_client_ids(scenario, seed)
            expected = np.zeros(params.d)
            for cid in ids:
                rng = substream(seed, "client", cid)
                expected += random_direction(params.d, rng)
            max_err = max(max_err, float(np.linalg.norm(result.sum - expected)))
    rate = all_accepted / trials
    floor = 1.0 - n * params.beta - 3 * binomial_se(min(n * params.beta, 1.0), trials)
    ok = report("04 correctness",
                rate >= floor and max_err <= 1e-6,
                f"J*=[n] rate {rate:.3f} >= {floor:.3f}; "
                f"max conditioned sum error {max_err:.2e} <= 1e-6")
    assert ok


def test_c05_exact_simulation():
    sigma_ss = min_sigma_ss(EPS, DELTA)
    samples = 10_000
    coalitions = [(2, (1,)), (3, (1,)), (3, (2,)), (3, (1, 2))]
    failures = []
    for S, T in coalitions:
        row = share_simulation_check(S, T, sigma_ss, samples,
                                     substream(105, "c5", S, *T))
        if row.verdict != VERDICT_CONSISTENT:
            failures.append(row)
    ok = report("05 exact-simulation", not failures,
                f"{len(coalitions)} coalitions, KS at 1e-3 Bonferroni, "
                f"{samples} samples")
    assert ok, failures


def test_c06_gaussian_mechanism_calibration():
    samples = 100_000
    mc = gaussian_mechanism_mc_check(samples, substream(106, "c6"))
    analytic = gaussian_mechanism_analytic_check()
    ok = report("06 gaussian-mechanism",
                mc.verdict == analytic.verdict == VERDICT_CONSISTENT,
                f"MC exceed rate {mc.statistic:.2e} <= 1e-2+3SE; "
                f"analytic tail {analytic.statistic:.2e} <= 1e-5")
    assert ok


def test_c07_noisy_projection_privacy():
    samples = 100_000
    row = projection_privacy_check(samples, substream(107, "c7"))
    ok = report("07 noisy-projection-privacy", row.verdict == VERDICT_CONSISTENT,
                f"combined bad+exceed rate {row.statistic:.4f} "
                f"<= {row.threshold:.4f} at delta={DELTA}, k=64")
    assert ok


def test_c08_chi_square_tails():
    samples = 1_000_000
    failures = []
    for k in (8, 64, 256):
        for x in (1.0, 3.0, 4.6):
            rows = chi2_tail_checks(k, x, samples, substream(108, "c8", k, int(10 * x)))
            failures += [r for r in rows if r.verdict != VERDICT_CONSISTENT]
    ok = report("08 chi-square-tails", not failures,
                f"9 (k, x) points x {samples} samples, both tails <= exp(-x)+3SE")
    assert ok, failures


def test_c09_truncation_distortion():
    row = truncation_clamp_check()
    ok = report("09 truncation-distortion", row.verdict == VERDICT_CONSISTENT,
                f"2*Phi(-127/20) = {row.statistic:.3e} <= 1e-8, analytic")
    assert ok


def test_c10_communication_accounting():
    shapes = [(10, 2, 64, 16), (5, 3, 32, 16), (20, 2, 128, 32)]
    failures = []
    for n, S, d, k in shapes:
        params, _ = grid_params(0.05, k, S, d)
        scenario = honest_scenario(n, S, d)
        seed = 1000 + n
        result, tr = run_scenario(scenario, params, seed)
        assert len(result.accepted) == n
        measured = measured_traffic(tr)
        ids = scenario_client_ids(scenario, seed)
        id_len = 16  # nonce ids are 8 bytes hex-encoded
        assert all(len(cid) == id_len for cid in ids)
        # client -> server: n*S share vectors of (4 + 8d) bytes
        client_expected = n * S * (4 + 8 * d)
        # server <-> server: matrix + reply batches + accepted set + sums
        server_expected = (
            (S - 1) * (8 + 8 * k * d)
            + (S - 1) * (4 + n * (2 + id_len + 4 + 8 * k))
            + (S - 1) * (4 + n * (2 + id_len))
            + (S - 1) * (4 + 8 * d)
        )
        if measured.client_to_server != client_expected:
            failures.append((n, S, d, k, "client", measured.client_to_server,
                             client_expected))
        if measured.server_to_server != server_expected:
            failures.append((n, S, d, k, "server", measured.server_to_server,
                             server_expected))
    ok = report("10 communication-accounting", not failures,
                "3 shapes: client bytes = n*S*(8d+4), server bytes = "
                "(S-1)*(8kd+8 + n*(8k+22)+4 + n*18+4 + 8d+4), exact")
    assert ok, failures


def test_c11_determinism():
    params, _ = grid_params(0.05, 16, 2, 16)
    scenario = honest_scenario(6, params.S, params.d)
    r1, t1 = run_scenario(scenario, params, 2026)
    r2, t2 = run_scenario(scenario, params, 2026)
    same_bytes = t1.to_jsonl(include_payload=True) == t2.to_jsonl(include_payload=True)
    same_hash = t1.sha256() == t2.sha256()
    same_sum = np.array_equal(r1.sum, r2.sum)
    ok = report("11 determinism", same_bytes and same_hash and same_sum,
                f"transcript sha256 {t1.sha256()}")
    assert ok
