"""Statistical audits of the distributional and privacy claims.

Monte Carlo where the targets are large enough for sampling to have power
(delta, beta >= 1e-2), analytic Gaussian tail evaluation elsewhere.
Privacy loss is always computed from the closed-form normal log-density
ratio, never from density estimation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from .core import (
    ProtocolParams,
    as_vector,
    c_delta,
    calibrate,
    chi2_thresholds,
    gaussian_sigma,
)
from .errors import DimensionMismatch, ParameterError
from .rng import as_generator, seed_int, substream
from .sharing import check_shares, clamp_probability, scale_to_norm, simulated_view, split_shares
from .verification import decide_norms, project_replies

# the per-trial forms stay bound here, where perfbench/tracing.py counts their calls
from .core import sample_projection  # noqa: F401
from .harness import run_scenario  # noqa: F401
from .sharing import share_vector  # noqa: F401
from .verification import project_reply, verifier0_decide  # noqa: F401

VERDICT_CONSISTENT = "consistent"
VERDICT_REJECTED = "rejected"


@dataclass(frozen=True)
class PrivacyLossEstimate:
    delta_target: float | None
    empirical_exceed_rate: float
    samples: int


@dataclass(frozen=True)
class ClosenessReport:
    statistics: tuple[float, ...]
    threshold: float
    samples: int
    verdict: str


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    ci95: tuple[float, float]
    trials: int


def binomial_se(rate: float, n: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / n)


def _normal_ci95(rate: float, n: int) -> tuple[float, float]:
    half = 1.959963984540054 * binomial_se(rate, n)
    return (max(0.0, rate - half), min(1.0, rate + half))


def privacy_loss_mc(shift_norm: float, sigma: float, k: int, eps: float,
                    samples: int, seed, *,
                    delta_target: float | None = None) -> PrivacyLossEstimate:
    """Monte Carlo rate of |privacy loss| > eps for a shifted Gaussian pair.

    Samples y ~ N(m, sigma^2 I_k) with ||m|| = shift_norm and evaluates the
    log-density ratio loss(y) = (<y, m> - ||m||^2 / 2) / sigma^2 against
    the N(0, sigma^2 I_k) hypothesis.
    """
    if shift_norm < 0:
        raise ParameterError("shift_norm must be >= 0")
    if sigma <= 0 or eps <= 0:
        raise ParameterError("sigma and eps must be > 0")
    if samples < 1000:
        raise ParameterError(f"need at least 1000 samples, got {samples}")
    if k < 1:
        raise ParameterError("k must be >= 1")
    rng = as_generator(seed)
    if shift_norm == 0.0:
        exceed = 0
    else:
        # by rotational symmetry the shift sits on the first axis
        m = np.zeros(k)
        m[0] = shift_norm
        y = m + rng.normal(0.0, sigma, size=(samples, k))
        loss = (y @ m - shift_norm ** 2 / 2.0) / sigma ** 2
        exceed = int(np.sum(np.abs(loss) > eps))
    return PrivacyLossEstimate(delta_target=delta_target,
                               empirical_exceed_rate=exceed / samples, samples=samples)


def privacy_loss_tail(shift_norm: float, sigma: float, eps: float) -> float:
    """Exact Pr[|loss| > eps] for the shifted Gaussian pair, no sampling.

    loss ~ N(mu, 2 mu) with mu = shift_norm^2 / (2 sigma^2) under the
    shifted measure; the tail is a sum of two normal tails.
    """
    if shift_norm < 0 or sigma <= 0 or eps <= 0:
        raise ParameterError("need shift_norm >= 0, sigma > 0, eps > 0")
    if shift_norm == 0.0:
        return 0.0
    mu = shift_norm ** 2 / (2.0 * sigma ** 2)
    sd = math.sqrt(2.0 * mu)
    return float(stats.norm.sf((eps - mu) / sd) + stats.norm.sf((eps + mu) / sd))


def _projected_norms(rng: np.random.Generator, m: int, x: np.ndarray,
                     k: int) -> np.ndarray:
    """||W x|| for m fresh k x d projections W with N(0, 1/k) entries.

    By rotation invariance W x has the law of ||x|| g / sqrt(k) with
    g ~ N(0, I_k), so each sample draws only its k normals g, in blocks
    of at most _CHUNK_BYTES.
    """
    norms = np.empty(m)
    row = 0
    for (g,) in _normal_chunks(rng, m, (k,)):
        norms[row:row + len(g)] = np.sqrt(np.vecdot(g, g))
        row += len(g)
    norms *= float(np.linalg.norm(x)) / math.sqrt(k)
    return norms


# samples per round of conditioned_projection_privacy: their ||Wx|| draws,
# then the loss noise of the good ones; it fixes the stream order, so the
# pinned results depend on it
_PRIVACY_CHUNK = 1000


def conditioned_projection_privacy(params: ProtocolParams, x, samples: int,
                                   seed) -> PrivacyLossEstimate:
    """Joint bad-event + loss-exceed rate for the noisy-projection mechanism.

    Each sample draws ||Wx|| for a fresh k x d projection W, as
    ||x|| ||g|| / sqrt(k) from k standard normals g, flags ||Wx|| > c_delta
    as bad, and otherwise draws one privacy-loss sample with shift ||Wx||
    and noise variance (S - |T|) sigma_v^2 at the worst coalition
    |T| = S - 1. The combined rate is audited against 2 delta. Samples
    run in chunks of _PRIVACY_CHUNK, each drawing its samples' g first and
    then the loss noise for its good samples.
    """
    x = as_vector(x)
    if float(np.linalg.norm(x)) > 1.0 + 1e-12:
        raise ParameterError("input norm must be <= 1")
    if x.shape[0] != params.d:
        raise DimensionMismatch(f"x has dimension {x.shape[0]}, params.d={params.d}")
    if samples < 1000:
        raise ParameterError(f"need at least 1000 samples, got {samples}")
    k = params.k
    cd = c_delta(k, params.delta)
    sigma = params.sigma_v  # (S - |T|) = 1 at the worst case
    rng = as_generator(seed)

    bad = 0
    exceed = 0
    for start in range(0, samples, _PRIVACY_CHUNK):
        shifts = _projected_norms(rng, min(_PRIVACY_CHUNK, samples - start), x, k)
        is_bad = shifts > cd
        bad += int(np.sum(is_bad))
        good = shifts[~is_bad]
        if good.size:
            # loss depends on y only through <y, Wx>: sample that scalar directly
            y1 = good + rng.normal(0.0, sigma, size=good.size)
            loss = (y1 * good - good ** 2 / 2.0) / sigma ** 2
            exceed += int(np.sum(np.abs(loss) > params.eps))
    return PrivacyLossEstimate(delta_target=2.0 * params.delta,
                               empirical_exceed_rate=(bad + exceed) / samples,
                               samples=samples)


ViewSampler = Callable[[np.random.Generator, int], np.ndarray]

# family-wise level of two_sample_closeness's KS tests, split over the marginals
CLOSENESS_ALPHA = 1e-3


def ks_two_sample_threshold(n: int, m: int, alpha: float) -> float:
    """Smirnov critical value for the two-sample KS statistic."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def two_sample_closeness(view_sampler_p: ViewSampler, view_sampler_q: ViewSampler,
                         marginals: int, samples: int, seed) -> ClosenessReport:
    """Per-marginal two-sample KS tests with Bonferroni correction.

    Samplers take (generator, count) and return (count, marginals) arrays;
    each side draws from its own substream of `seed`. The verdict is
    `rejected` iff some marginal's KS statistic exceeds the corrected
    critical value.
    """
    if marginals < 1 or samples < 2:
        raise ParameterError("need marginals >= 1 and samples >= 2")
    base = seed_int(seed)
    p = np.asarray(view_sampler_p(substream(base, "closeness", 0), samples))
    q = np.asarray(view_sampler_q(substream(base, "closeness", 1), samples))
    expected = (samples, marginals)
    if p.shape != expected or q.shape != expected:
        raise DimensionMismatch(
            f"samplers must emit shape {expected}, got {p.shape} and {q.shape}"
        )
    threshold = ks_two_sample_threshold(samples, samples,
                                        CLOSENESS_ALPHA / marginals)
    statistics = tuple(
        float(stats.ks_2samp(p[:, j], q[:, j], method="asymp").statistic)
        for j in range(marginals)
    )
    verdict = VERDICT_REJECTED if max(statistics) > threshold else VERDICT_CONSISTENT
    return ClosenessReport(statistics=statistics, threshold=threshold,
                           samples=samples, verdict=verdict)


PATTERN_RANDOM = "random-direction"
PATTERN_CONCENTRATED = "concentrated"
PATTERN_SPREAD = "spread"
PATTERNS = (PATTERN_RANDOM, PATTERN_CONCENTRATED, PATTERN_SPREAD)

# most bytes of standard normals one Monte Carlo chunk draws (a chunk holds
# at least one trial); small enough not to raise a run's peak memory
_CHUNK_BYTES = 1 << 20


def _normal_chunks(rng: np.random.Generator, trials: int, *shapes: tuple[int, ...],
                   extra: int = 0):
    """Each trial's standard normals for shapes, drawn in that order, chunked.

    Yields, per chunk of m trials, one (m, *shape) array per shape, all
    sliced from one (m, L) block: row r holds exactly the draws trial r
    would make on its own, so results do not depend on the chunking.
    A chunk's trials fit _CHUNK_BYTES together with the `extra` float64
    values per trial that the caller allocates while working on them.

    The block is allocated once per call and refilled for every chunk, so
    a caller may scale the yielded arrays in place but must not keep them,
    or any view of them, past their iteration.
    """
    sizes = [math.prod(shape) for shape in shapes]
    ends = list(itertools.accumulate(sizes))
    per_chunk = max(1, min(trials, _CHUNK_BYTES // (8 * (ends[-1] + extra))))
    buffer = np.empty((per_chunk, ends[-1]))
    for start in range(0, trials, per_chunk):
        m = min(per_chunk, trials - start)
        # filling a view draws the same stream as a fresh (m, L) array
        block = rng.standard_normal(out=buffer[:m])
        yield [block[:, end - size:end].reshape(m, *shape)
               for shape, size, end in zip(shapes, sizes, ends)]


def _verification_norms(params: ProtocolParams, target_norm: float, trials: int,
                        seed, pattern: str):
    """Verifier 0's ||v|| for each trial of norm_verification_rate, per chunk."""
    if trials < 100:
        raise ParameterError(f"need at least 100 trials, got {trials}")
    if target_norm < 0:
        raise ParameterError("target_norm must be >= 0")
    if pattern not in PATTERNS:
        raise ParameterError(f"unknown pattern {pattern!r}")
    S, d, k = params.S, params.d, params.k
    r = min(S, d)
    shapes = [(S - 1, d), (k, r), (S, k)]
    if pattern == PATTERN_RANDOM:
        shapes.insert(0, (d,))
    elif pattern == PATTERN_CONCENTRATED:
        x = np.zeros(d)
        x[0] = target_norm
    else:
        x = np.full(d, target_norm / math.sqrt(d))
    rng = as_generator(seed)
    # the (m, S, d) share stack and the QR's copy of it share the chunk budget
    for draws in _normal_chunks(rng, trials, *shapes, extra=2 * S * d):
        if pattern == PATTERN_RANDOM:
            x = scale_to_norm(draws.pop(0), target_norm)
        # G, the noise and (by split_shares) the blinds are scaled in place
        # in the sampler's block, which the next chunk refills, so no copy
        # of them adds to peak memory
        blinds, G, noise = draws
        G /= math.sqrt(k)
        noise *= params.sigma_v
        Z = split_shares(x, blinds, params.sigma_ss)
        check_shares(Z)
        # Z^T = Q R with Q an orthonormal (d, r) basis of the shares' span:
        # row i of R^T holds share i's coordinates C_i, W z_i = (W Q) C_i,
        # and W Q has the law of G / sqrt(k) by the rotation invariance of W
        C = np.linalg.qr(Z.swapaxes(1, 2), mode="r").swapaxes(1, 2)
        del Z  # so the next chunk's stack does not coexist with this one
        Y = [project_replies(C[:, i], G, noise[:, i - 1]) for i in range(1, S)]
        yield decide_norms(C[:, 0], Y, G, noise[:, S - 1])


def norm_verification_rate(params: ProtocolParams, target_norm: float,
                           trials: int, seed, *,
                           pattern: str = PATTERN_RANDOM) -> RateEstimate:
    """Accept rate of the norm-verification decision at a given share-sum norm.

    Each trial shares a fresh vector of the requested norm and pattern and
    projects its S shares with a fresh N(0, 1/k) projection. The decision
    depends on W only through W Q, for Q an orthonormal basis of the
    shares' span (from a thin QR of the shares), and W Q is itself an
    i.i.d. N(0, 1/k) k x r matrix, r = min(S, d). So a trial draws that
    k x r matrix G / sqrt(k) in place of the k x d W, and runs the
    session's reply and decide kernels on the shares' coordinates in Q:
    the same law of outcomes as a full session projection, at a cost
    independent of k d. Trials run in chunks; a trial draws the direction
    (random pattern only), the S-1 blinds, G, the replies' noise rows for
    verifiers 1..S-1 and verifier 0's noise row, in that order. This is
    the Monte Carlo driver behind the completeness and soundness checks.
    """
    accepts = sum(int(np.count_nonzero(v_norms < params.tau))
                  for v_norms in _verification_norms(params, target_norm, trials,
                                                     seed, pattern))
    rate = accepts / trials
    return RateEstimate(rate=rate, ci95=_normal_ci95(rate, trials), trials=trials)


# -- the audit battery ---------------------------------------------------------
# `privsum audit` and the acceptance tests run these same checks, each with
# its own seed and sample count.

# where the projection-privacy check and `privsum audit`'s rate checks calibrate
AUDIT_POINT = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05, S=2, k=64, d=64)


@dataclass(frozen=True)
class CheckResult:
    """One audit row; the statistic is consistent iff it is <= threshold."""

    check: str
    params: str
    statistic: float
    threshold: float

    @property
    def verdict(self) -> str:
        return VERDICT_CONSISTENT if self.statistic <= self.threshold else VERDICT_REJECTED


def chi2_tail_checks(k: int, x: float, samples: int,
                     seed) -> tuple[CheckResult, CheckResult]:
    """Sampled chi^2_k rates below and above the thresholds, each against exp(-x)."""
    lower, upper = chi2_thresholds(k, x)
    draws = as_generator(seed).chisquare(k, size=samples)
    bound = math.exp(-x)
    ceiling = bound + 3 * binomial_se(bound, samples)
    label = f"k={k},x={x:.3g}"
    return (CheckResult("chi2-lower-tail", label, float(np.mean(draws <= lower)), ceiling),
            CheckResult("chi2-upper-tail", label, float(np.mean(draws >= upper)), ceiling))


def gaussian_mechanism_mc_check(samples: int, seed) -> CheckResult:
    """Sampled privacy-loss exceed rate of the Gaussian mechanism at delta = 1e-2."""
    est = privacy_loss_mc(1.0, gaussian_sigma(1.0, 1e-2), 8, 1.0, samples, seed,
                          delta_target=1e-2)
    return CheckResult("gaussian-mech-mc", "eps=1,delta=1e-2", est.empirical_exceed_rate,
                       1e-2 + 3 * binomial_se(1e-2, est.samples))


def gaussian_mechanism_analytic_check() -> CheckResult:
    """Exact privacy-loss tail of the Gaussian mechanism at delta = 1e-5."""
    tail = privacy_loss_tail(1.0, gaussian_sigma(1.0, 1e-5), 1.0)
    return CheckResult("gaussian-mech-analytic", "eps=1,delta=1e-5", tail, 1e-5)


def projection_privacy_check(samples: int, seed) -> CheckResult:
    """Bad-event + loss-exceed rate of the noisy projection against 2 delta.

    Calibrated at AUDIT_POINT, for an input on the first axis.
    """
    params = calibrate(**AUDIT_POINT).params
    x = np.zeros(params.d)
    x[0] = 1.0
    est = conditioned_projection_privacy(params, x, samples, seed)
    return CheckResult("projection-privacy", "eps=1,delta=1e-2,k=64",
                       est.empirical_exceed_rate,
                       2 * params.delta + 3 * binomial_se(2 * params.delta, est.samples))


def share_simulation_check(S: int, T: tuple[int, ...], sigma_ss: float,
                           samples: int, seed) -> CheckResult:
    """Largest per-marginal KS statistic between real and simulated share views.

    The real view is coalition T's shares of a random unit vector in
    d = 8; the simulated one comes from the simulate_share_view kernel.
    Both samplers draw per sample in the one-sample order, in chunks, and
    write each chunk into one preallocated (samples, |T| d) array.
    """
    d = 8

    def real(rng, count):
        out = np.empty((count, len(T) * d))
        row = 0
        for u, blinds in _normal_chunks(rng, count, (d,), (S - 1, d)):
            shares = split_shares(scale_to_norm(u, 1.0), blinds, sigma_ss)
            out[row:row + len(u)] = shares[:, list(T)].reshape(len(u), -1)
            row += len(u)
        return out

    def sim(rng, count):
        out = np.empty((count, len(T), d))
        row = 0
        for (g,) in _normal_chunks(rng, count, (len(T), d)):
            view = simulated_view(frozenset(T), S, sigma_ss, g)
            for j, t in enumerate(T):
                out[row:row + len(g), j] = view[t]
            row += len(g)
            del view  # so the next chunk's view does not coexist with this one
        return out.reshape(count, -1)

    rep = two_sample_closeness(real, sim, len(T) * d, samples, seed)
    return CheckResult("share-sim-exact", f"S={S},T={T}", max(rep.statistics),
                       rep.threshold)


def completeness_check(params: ProtocolParams, trials: int, seed) -> CheckResult:
    """Rejection rate of unit-norm random-direction inputs against beta."""
    est = norm_verification_rate(params, 1.0, trials, seed)
    return CheckResult("completeness-rate", f"beta={params.beta:g},k={params.k}",
                       1.0 - est.rate, params.beta + 3 * binomial_se(params.beta, trials))


def soundness_check(params: ProtocolParams, pattern: str, trials: int,
                    seed) -> CheckResult:
    """Accept rate of inputs at norm rho in the given pattern against beta."""
    est = norm_verification_rate(params, params.rho, trials, seed, pattern=pattern)
    return CheckResult("soundness-rate", f"beta={params.beta:g},k={params.k}",
                       est.rate, params.beta + 3 * binomial_se(params.beta, trials))


def truncation_clamp_check() -> CheckResult:
    """Analytic per-coordinate clamp probability at B = 127, sigma_ss = 20."""
    return CheckResult("truncation-clamp", "B=127,sigma_ss=20",
                       clamp_probability(127.0, 20.0), 1e-8)
